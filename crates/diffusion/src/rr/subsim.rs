//! SUBSIM: subset sampling with geometric jumps (Guo et al., SIGMOD'20).
//!
//! The paper's Fig. 7 evaluates a distributed implementation of SUBSIM.
//! SUBSIM draws the *same* IC RR-set distribution as the reverse BFS but
//! skips over failed in-edges: when a node's in-probabilities are all equal
//! to `p` (true for every node under the weighted-cascade setting), the gap
//! between consecutive successful edges is geometric with parameter `p`, so
//! the expected work per node drops from `O(indeg)` to `O(p · indeg + 1)`.
//! Nodes with non-uniform in-probabilities fall back to per-edge coin flips.
//! It is the IC default of [`crate::rr::AnySampler::for_model`].
//!
//! Jumps are the *default* on high-degree nodes, but they are not free: a
//! geometric draw costs two transcendental ops (`ln`, division) versus one
//! multiply-compare per coin, so on low-degree nodes the scalar coin loop
//! wins even though it touches every edge. The constructor therefore
//! applies a degree-threshold cutover per node: jumps when the expected
//! coin work `d` exceeds `JUMP_ALPHA` times the expected jump work
//! `p·d + 1`, i.e. when `d ≥ JUMP_ALPHA / (1 − p)` — on weighted-cascade
//! graphs (`p = 1/d`) that is every node with in-degree above ≈`JUMP_ALPHA`.

use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::Graph;

use crate::rr::ic::coin_row;
use crate::rr::{enqueue, RrSampler};

/// Cost ratio of a geometric draw to a coin flip: a node uses jumps only
/// when `indeg ≥ JUMP_ALPHA / (1 − p)`, so the expected number of jumps
/// (`≈ p·d + 1`) is at least `JUMP_ALPHA` times cheaper than `d` coins.
const JUMP_ALPHA: f64 = 4.0;

/// How one node's in-edges are sampled, fixed when the sampler is built.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RowPath {
    /// Every in-probability is 1: every in-edge is live, no RNG at all.
    AllLive,
    /// Geometric jumps over a uniform row; holds `ln(1 − p)`, which is
    /// negative.
    Jump(f64),
    /// Per-edge coin flips: an empty or mixed row, a degree too low for
    /// jumps to pay, or a `p` (0, or below 2⁻⁵³) whose `ln(1 − p)` is 0.
    Coins,
}

impl RowPath {
    fn of(graph: &Graph, v: u32) -> RowPath {
        let Some(p) = graph.in_uniform_prob(v) else {
            return RowPath::Coins;
        };
        let p = p as f64;
        if p >= 1.0 {
            return RowPath::AllLive;
        }
        let ln_q = (1.0 - p).ln();
        if ln_q < 0.0 && graph.in_degree(v) as f64 >= JUMP_ALPHA / (1.0 - p) {
            RowPath::Jump(ln_q)
        } else {
            RowPath::Coins
        }
    }
}

/// Geometric-jump IC RR-set sampler.
pub struct SubsimRrSampler<'g> {
    graph: &'g Graph,
    paths: Vec<RowPath>,
}

impl<'g> SubsimRrSampler<'g> {
    /// Creates a sampler over `graph`, precomputing the per-node path
    /// choice (jump / all-live / coins).
    pub fn new(graph: &'g Graph) -> Self {
        let paths = graph.nodes().map(|v| RowPath::of(graph, v)).collect();
        SubsimRrSampler { graph, paths }
    }

    /// Adds `w` to R unless it is already there.
    #[inline(always)]
    fn reach(&self, w: u32, out: &mut Vec<u32>, visited: &mut EpochFlags) {
        if visited.set(w as usize) {
            enqueue(self.graph, w, out);
        }
    }

    /// Processes `u`'s in-edges via geometric jumps; pushes newly reached
    /// sources onto `out`. Returns the work performed (number of jumps).
    #[inline]
    fn jump_scan(
        &self,
        u: u32,
        ln_q: f64,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
    ) -> u64 {
        let sources = self.graph.in_neighbors(u);
        let mut work = 0u64;
        // First success index ~ floor(ln U / ln(1−p)); subsequent gaps i.i.d.
        let mut i = geometric_skip(rng, ln_q);
        while i < sources.len() {
            work += 1;
            self.reach(sources[i], out, visited);
            i += 1 + geometric_skip(rng, ln_q);
        }
        work.max(1)
    }
}

/// Number of failures before the next success: `floor(ln U / ln(1−p))` with
/// `U` uniform in `(0,1]`. `ln_q < 0` bounds it by `ln 2⁻⁵³ / ln(1 − 2⁻⁵³)`
/// ≈ 3.3·10¹⁷, so the cast cannot saturate.
#[inline]
fn geometric_skip(rng: &mut Rng, ln_q: f64) -> usize {
    // 1 − gen::<f64>() ∈ (0, 1] avoids ln(0).
    let u = 1.0 - rng.f64();
    (u.ln() / ln_q).floor() as usize
}

impl RrSampler for SubsimRrSampler<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    #[inline]
    fn sample_rooted(
        &self,
        root: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
    ) -> u64 {
        out.clear();
        visited.clear();
        visited.set(root as usize);
        out.push(root);
        let mut work = 0u64;
        let mut head = 0;
        while head < out.len() {
            let u = out[head];
            head += 1;
            work += match self.paths[u as usize] {
                RowPath::Coins => coin_row(self.graph, u, rng, out, visited),
                RowPath::Jump(ln_q) => self.jump_scan(u, ln_q, rng, out, visited),
                RowPath::AllLive => {
                    let sources = self.graph.in_neighbors(u);
                    for &w in sources {
                        self.reach(w, out, visited);
                    }
                    sources.len() as u64
                }
            };
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dim_graph::{GraphBuilder, WeightModel};

    use crate::rr::ic::IcRrSampler;

    fn star(deg: usize) -> Graph {
        // deg spokes all pointing at hub `deg`.
        let mut b = GraphBuilder::new(deg + 1);
        for i in 0..deg as u32 {
            b.add_edge(i, deg as u32);
        }
        b.build(WeightModel::WeightedCascade)
    }

    #[test]
    fn matches_bfs_distribution_on_star() {
        // Hub in-degree d with p = 1/d: |R ∩ spokes| ~ Binomial(d, 1/d).
        let g = star(20);
        let sub = SubsimRrSampler::new(&g);
        let bfs = IcRrSampler::new(&g);
        let mut rng_a = Rng::new(1);
        let mut rng_b = Rng::new(2);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(21);
        let trials = 100_000;
        let mut mean_sub = 0f64;
        let mut mean_bfs = 0f64;
        for _ in 0..trials {
            sub.sample_rooted(20, &mut rng_a, &mut out, &mut visited);
            mean_sub += out.len() as f64;
            bfs.sample_rooted(20, &mut rng_b, &mut out, &mut visited);
            mean_bfs += out.len() as f64;
        }
        mean_sub /= trials as f64;
        mean_bfs /= trials as f64;
        // Both should estimate 1 + d·(1/d) = 2.
        assert!((mean_sub - 2.0).abs() < 0.02, "subsim mean {mean_sub}");
        assert!((mean_sub - mean_bfs).abs() < 0.03, "{mean_sub} vs {mean_bfs}");
    }

    #[test]
    fn does_less_work_than_bfs_on_hubs() {
        let g = star(1000);
        let sub = SubsimRrSampler::new(&g);
        let bfs = IcRrSampler::new(&g);
        let mut rng = Rng::new(3);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(1001);
        let mut w_sub = 0u64;
        let mut w_bfs = 0u64;
        for _ in 0..200 {
            w_sub += sub.sample_rooted(1000, &mut rng, &mut out, &mut visited);
            w_bfs += bfs.sample_rooted(1000, &mut rng, &mut out, &mut visited);
        }
        assert!(
            w_sub * 10 < w_bfs,
            "subsim work {w_sub} should be ≪ bfs work {w_bfs}"
        );
    }

    #[test]
    fn probability_one_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(1, 2, 1.0);
        let g = b.build(WeightModel::WeightedCascade);
        let sub = SubsimRrSampler::new(&g);
        let mut rng = Rng::new(4);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(3);
        sub.sample_rooted(2, &mut rng, &mut out, &mut visited);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn nonuniform_fallback_correct() {
        // Fig. 1 graph has non-uniform in-probs at v4: SUBSIM must still
        // match the exact RIS estimate of σ({v1}) = 3.664.
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(0, 3, 0.4);
        b.add_weighted_edge(1, 3, 0.3);
        b.add_weighted_edge(2, 3, 0.2);
        let g = b.build(WeightModel::WeightedCascade);
        let sub = SubsimRrSampler::new(&g);
        assert_eq!(sub.paths[3], RowPath::Coins);
        let mut rng = Rng::new(5);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        let trials = 300_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            sub.sample(&mut rng, &mut out, &mut visited);
            if out.contains(&0) {
                hits += 1;
            }
        }
        let est = 4.0 * hits as f64 / trials as f64;
        assert!((est - 3.664).abs() < 0.02, "RIS estimate {est}");
    }

    #[test]
    fn cutover_picks_jumps_only_on_high_degree() {
        // Hub in-degree 20, p = 0.05: 20 ≥ 4/(0.95) → jumps.
        let g = star(20);
        let sub = SubsimRrSampler::new(&g);
        assert!(matches!(sub.paths[20], RowPath::Jump(_)));
        // Hub in-degree 3, p = 1/3: 3 < 4/(2/3) = 6 → coins, even though
        // the in-probabilities are perfectly uniform.
        let g = star(3);
        let sub = SubsimRrSampler::new(&g);
        assert_eq!(sub.paths[3], RowPath::Coins);
        // Spokes have no in-edges at all: no uniform probability.
        assert_eq!(sub.paths[0], RowPath::Coins);
    }

    #[test]
    fn probability_one_ignores_cutover() {
        // p = 1 needs no RNG regardless of degree: all-live path.
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(1, 2, 1.0);
        let g = b.build(WeightModel::WeightedCascade);
        let sub = SubsimRrSampler::new(&g);
        assert_eq!(sub.paths[2], RowPath::AllLive);
    }

    /// A uniform row whose `ln(1 − p)` is 0 — `p = 0`, or `p` below 2⁻⁵³ —
    /// is not all-live: it takes coins, and a coin with `p = 0` never
    /// succeeds. With five spokes (past the degree cutover) the hub's RR
    /// set is the hub alone.
    #[test]
    fn zero_probability_row_takes_coins_not_all_live() {
        for p in [0.0, 1e-20] {
            let mut b = GraphBuilder::new(6);
            for spoke in 0..5 {
                b.add_weighted_edge(spoke, 5, p);
            }
            let g = b.build(WeightModel::WeightedCascade);
            let sub = SubsimRrSampler::new(&g);
            assert_eq!(sub.paths[5], RowPath::Coins, "p = {p}");
            let mut rng = Rng::new(7);
            let mut out = Vec::new();
            let mut visited = EpochFlags::new(6);
            for _ in 0..100 {
                assert_eq!(sub.sample_rooted(5, &mut rng, &mut out, &mut visited), 5);
                assert_eq!(out, vec![5], "p = {p}");
            }
        }
    }

    /// Mixed-degree fixture: a 200-node double ring (in-degree 2, p = 1/2
    /// → coin path) where most nodes also point at hub 0 (in-degree 199
    /// → jump path), weighted-cascade probabilities.
    fn mixed_fixture() -> Graph {
        let n = 200u32;
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
            b.add_edge(i, (i + 2) % n);
            // Hub spokes, skipping sources whose ring edge already lands
            // on 0 (no parallel edges).
            if (1..=197).contains(&i) {
                b.add_edge(i, 0);
            }
        }
        b.build(WeightModel::WeightedCascade)
    }

    #[test]
    fn size_distribution_matches_ic_sampler() {
        // Kolmogorov–Smirnov two-sample test on RR-set sizes drawn by the
        // jump sampler (cutover active: the fixture exercises both paths)
        // versus the reverse-BFS sampler. Same distribution ⇒ the statistic
        // stays under the α = 0.001 critical value.
        let g = mixed_fixture();
        let sub = SubsimRrSampler::new(&g);
        let bfs = IcRrSampler::new(&g);
        assert!(matches!(sub.paths[0], RowPath::Jump(_)), "hub must take the jump path");
        assert_eq!(sub.paths[1], RowPath::Coins, "ring nodes take the coin path");
        let trials = 8000usize;
        let mut rng_a = Rng::new(11);
        let mut rng_b = Rng::new(12);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(200);
        let max_size = 200usize;
        let mut hist_a = vec![0u32; max_size + 1];
        let mut hist_b = vec![0u32; max_size + 1];
        for _ in 0..trials {
            sub.sample(&mut rng_a, &mut out, &mut visited);
            hist_a[out.len().min(max_size)] += 1;
            bfs.sample(&mut rng_b, &mut out, &mut visited);
            hist_b[out.len().min(max_size)] += 1;
        }
        let mut cum_a = 0f64;
        let mut cum_b = 0f64;
        let mut ks = 0f64;
        for s in 0..=max_size {
            cum_a += hist_a[s] as f64 / trials as f64;
            cum_b += hist_b[s] as f64 / trials as f64;
            ks = ks.max((cum_a - cum_b).abs());
        }
        // Two-sample critical value c(α)·sqrt(2/n), c(0.001) ≈ 1.95.
        let crit = 1.95 * (2.0 / trials as f64).sqrt();
        assert!(ks < crit, "KS statistic {ks:.4} ≥ critical {crit:.4}");
    }

    #[test]
    fn geometric_skip_mean() {
        // skip ~ Geometric(p): E[skip] = (1−p)/p. For p = 0.25: 3.
        let p = 0.25f64;
        let ln_q = (1.0 - p).ln();
        let mut rng = Rng::new(6);
        let trials = 200_000;
        let mean: f64 = (0..trials)
            .map(|_| geometric_skip(&mut rng, ln_q) as f64)
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean skip {mean}");
    }
}
