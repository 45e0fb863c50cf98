//! SUBSIM-style subset sampling for IC RR sets (Guo et al., SIGMOD'20):
//! count first, then pick.
//!
//! The paper's Fig. 7 evaluates a distributed implementation of SUBSIM.
//! This sampler draws the *same* IC RR-set law as the reverse BFS but does
//! not flip one coin per in-edge. A uniform in-row — every in-probability
//! equal to `p`, true for every node under weighted cascade — has `d`
//! in-edges, each live with probability `p`, so its live set has the law
//! of a two-step draw: a count `L ~ Binomial(d, p)`, then a uniform
//! `L`-subset of the row. The constructor tabulates the Binomial CDF once
//! per distinct `(d, p)` in one flat table, so a row costs one table
//! inversion of a single 64-bit draw plus `L` position picks, and no
//! transcendental function. Under weighted cascade (`p = 1/d`) `L` is
//! about Poisson(1), whatever the degree.
//!
//! Rows whose in-probabilities differ (mixed rows) flip per-edge coins, as
//! the reverse BFS does. It is the IC default,
//! [`SamplerKind::Standard`](crate::rr::SamplerKind::Standard)`(IC)`.
//!
//! Each node's part is one 16-byte `Row`: where its in-list lies in the
//! graph's source array, and its CDF run or path marker. A visited node
//! costs one row load and then its in-list; the row is prefetched when the
//! node is pushed, so it is in cache when the node is popped. A row's
//! picks are marked in a `u64` mask when `d ≤ 64`, in pooled flags above.

use std::collections::HashMap;

use dim_graph::rng::Rng;
use dim_graph::scratch::{with_flags, EpochFlags};
use dim_graph::{Graph, GraphRef};

use crate::rr::ic::coin_row;
use crate::rr::{prefetch, RrSampler};

/// One node's in-edges, fixed when the sampler is built: the in-list is
/// `len` sources from `start` in [`Graph::in_sources`], sampled as `run`
/// says. A real `run` is an offset into [`SubsimRrSampler::cdf`]; the two
/// largest values mark the rows that have none.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(16))]
struct Row {
    start: u32,
    len: u32,
    /// [`ALL_LIVE`], [`COINS`], or a uniform row with `0 ≤ p < 1`: draw
    /// the live count from the CDF run at `run`, whose first threshold is
    /// that of count `lo`, then pick that many sources.
    run: u32,
    lo: u32,
}

/// `Row::run` of a row whose every in-probability is 1, or that is empty:
/// every in-edge is live, no RNG at all.
const ALL_LIVE: u32 = u32::MAX;
/// `Row::run` of a row whose in-probabilities differ: per-edge coins.
const COINS: u32 = u32::MAX - 1;

/// Count-first IC RR-set sampler.
pub struct SubsimRrSampler<'g> {
    graph: GraphRef<'g>,
    rows: Vec<Row>,
    /// Binomial CDF runs, one per distinct `(in-degree, p)` of a count
    /// row: threshold `k` is `P(L ≤ lo + k)·2⁶⁴`, and each run ends with
    /// `u64::MAX` where the remaining tail falls below 2⁻⁶⁴.
    cdf: Vec<u64>,
}

impl<'g> SubsimRrSampler<'g> {
    /// Creates a sampler over `graph`: fixes each node's row and
    /// tabulates one CDF run per distinct uniform row.
    ///
    /// # Panics
    /// If the graph has `2³²` edges or more, past the rows' `u32` offsets.
    pub fn new(graph: impl Into<GraphRef<'g>>) -> Self {
        let graph = graph.into();
        assert!(
            u32::try_from(graph.num_edges()).is_ok(),
            "{} edges exceed the sampler's u32 in-list offsets",
            graph.num_edges()
        );
        let mut cdf = Vec::new();
        let mut runs: HashMap<(usize, u32), (u32, u32)> = HashMap::new();
        let rows = graph
            .nodes()
            .map(|v| {
                let d = graph.in_degree(v);
                let (run, lo) = match graph.in_uniform_prob(v) {
                    _ if d == 0 => (ALL_LIVE, 0),
                    None => (COINS, 0),
                    Some(p) if p >= 1.0 => (ALL_LIVE, 0),
                    Some(p) => *runs.entry((d, p.to_bits())).or_insert_with(|| {
                        let run = u32::try_from(cdf.len())
                            .ok()
                            .filter(|&run| run < COINS)
                            .expect("CDF table exceeds u32 offsets");
                        (run, binomial_run(d, p as f64, &mut cdf))
                    }),
                };
                Row {
                    start: graph.in_start(v) as u32,
                    len: d as u32,
                    run,
                    lo,
                }
            })
            .collect();
        SubsimRrSampler { graph, rows, cdf }
    }

    /// The live count of a row: the inversion of one 64-bit draw against
    /// its CDF run (which ends in `u64::MAX`, so the scan always stops).
    #[inline(always)]
    fn draw_count(&self, run: u32, lo: u32, rng: &mut Rng) -> usize {
        let thresholds = &self.cdf[run as usize..];
        let u = rng.next_u64();
        let mut k = 0;
        while u > thresholds[k] {
            k += 1;
        }
        lo as usize + k
    }

    /// Adds `w` to R unless it is already there. `w` is popped later, and
    /// its row is the first thing the pop reads, so the row starts loading
    /// now.
    #[inline(always)]
    fn reach(&self, w: u32, out: &mut Vec<u32>, visited: &mut EpochFlags) {
        if visited.set(w as usize) {
            out.push(w);
            prefetch(self.rows.as_ptr().wrapping_add(w as usize));
        }
    }

    /// Reaches a uniform `live`-subset of `sources`. One pick cannot
    /// repeat; more are marked in a `u64` mask when the row has at most 64
    /// positions, and in pooled flags above that.
    #[inline]
    fn reach_subset(
        &self,
        sources: &[u32],
        live: usize,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
    ) {
        let d = sources.len();
        match live {
            0 => {}
            1 => self.reach(sources[position(rng, d)], out, visited),
            _ if d <= 64 => {
                let mut picked = 0u64;
                self.pick(sources, live, rng, out, visited, |i| {
                    let bit = 1u64 << i;
                    let fresh = picked & bit == 0;
                    picked |= bit;
                    fresh
                });
            }
            _ => with_flags(d, |picked| {
                self.pick(sources, live, rng, out, visited, |i| picked.set(i))
            }),
        }
    }

    /// Picks positions by rejection, each pick hitting an unpicked one
    /// with probability at least ½: the live ones when `live ≤ d/2`,
    /// otherwise the `d − live` dead ones, reaching every other position.
    /// `fresh(i)` marks position `i` picked and says whether it was not
    /// yet. Expected work O(`live`).
    #[inline(always)]
    fn pick(
        &self,
        sources: &[u32],
        live: usize,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
        mut fresh: impl FnMut(usize) -> bool,
    ) {
        let d = sources.len();
        if 2 * live <= d {
            let mut left = live;
            while left > 0 {
                let i = position(rng, d);
                if fresh(i) {
                    self.reach(sources[i], out, visited);
                    left -= 1;
                }
            }
        } else {
            for _ in live..d {
                while !fresh(position(rng, d)) {}
            }
            for (i, &w) in sources.iter().enumerate() {
                if fresh(i) {
                    self.reach(w, out, visited);
                }
            }
        }
    }
}

/// A uniform position in `0..d` by multiply-high reduction of one 64-bit
/// draw: its bias is below `d / 2⁶⁴`, the bound `Rng::below` states.
#[inline(always)]
fn position(rng: &mut Rng, d: usize) -> usize {
    ((u128::from(rng.next_u64()) * d as u128) >> 64) as usize
}

/// Appends the CDF run of `Binomial(d, p)`, `0 ≤ p < 1`, to `cdf` and
/// returns `lo`, the smallest count whose threshold is nonzero.
///
/// The pmf is built in log space outward from the mode by the ratio
/// `pmf(k+1)/pmf(k) = (d − k)/(k + 1) · p/(1 − p)`, so it never forms
/// `(1 − p)^d`, which underflows for large `d·p`; terms below 2⁻⁶⁴ of the
/// mode's share, scaled by `d + 1`, cannot move a threshold and are
/// dropped. The run stores `P(L ≤ k)·2⁶⁴` for `k = lo, lo+1, …` and ends
/// with `u64::MAX` at the first `k` whose tail `P(L > k)` is below 2⁻⁶⁴.
fn binomial_run(d: usize, p: f64, cdf: &mut Vec<u64>) -> u32 {
    if p <= 0.0 {
        cdf.push(u64::MAX);
        return 0;
    }
    let log_odds = (p / (1.0 - p)).ln();
    let step = |k: usize| ((d - k) as f64 / (k + 1) as f64).ln() + log_odds;
    let floor = -(64.0 * std::f64::consts::LN_2 + ((d + 1) as f64).ln() + 10.0);
    let mode = (((d + 1) as f64 * p).floor() as usize).min(d);
    // Log weights relative to the mode, over the kept window [a, b].
    let mut below = Vec::new();
    let (mut a, mut lw) = (mode, 0.0);
    while a > 0 {
        lw -= step(a - 1);
        if lw < floor {
            break;
        }
        a -= 1;
        below.push(lw);
    }
    below.reverse();
    let mut weights: Vec<f64> = below.into_iter().chain([0.0]).collect();
    let (mut b, mut lw) = (mode, 0.0);
    while b < d {
        lw += step(b);
        if lw < floor {
            break;
        }
        b += 1;
        weights.push(lw);
    }
    for w in &mut weights {
        *w = w.exp();
    }
    let total: f64 = weights.iter().sum();
    // tail = P(L > k), summed from the top so every threshold is exact to
    // 2⁻⁵³ and a small tail keeps its relative precision. The cast
    // saturates: a tail below 2⁻⁶⁴ gives `u64::MAX`, ending the run, and
    // the counts before `lo` give 0 and are not stored.
    let two64 = 2f64.powi(64);
    let mut tail = 0.0;
    let mut thresholds: Vec<u64> = weights
        .iter()
        .rev()
        .map(|w| {
            let t = u64::MAX - (tail * two64) as u64;
            tail += w / total;
            t
        })
        .collect();
    thresholds.reverse();
    // Nondecreasing, and the top count's empty tail is `u64::MAX`.
    let start = thresholds.partition_point(|&t| t == 0);
    let end = thresholds.partition_point(|&t| t < u64::MAX);
    cdf.extend_from_slice(&thresholds[start..=end]);
    (a + start) as u32
}

impl RrSampler for SubsimRrSampler<'_> {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    #[inline]
    fn sample_rooted(
        &self,
        root: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
    ) -> u64 {
        let graph: &Graph = &self.graph;
        let in_sources = graph.in_sources();
        out.clear();
        visited.clear();
        visited.set(root as usize);
        out.push(root);
        let mut work = 0u64;
        let mut head = 0;
        while head < out.len() {
            let u = out[head];
            head += 1;
            let row = self.rows[u as usize];
            let sources = &in_sources[row.start as usize..][..row.len as usize];
            work += match row.run {
                ALL_LIVE => {
                    for &w in sources {
                        self.reach(w, out, visited);
                    }
                    sources.len() as u64
                }
                COINS => coin_row(graph, u, rng, out, visited),
                run => {
                    let live = self.draw_count(run, row.lo, rng);
                    self.reach_subset(sources, live, rng, out, visited);
                    1 + live as u64
                }
            };
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dim_graph::generators::DatasetProfile;
    use dim_graph::{GraphBuilder, WeightModel};

    use crate::exact::exact_spread;
    use crate::model::DiffusionModel;
    use crate::rr::ic::IcRrSampler;

    /// `deg` spokes all pointing at hub `deg`, every edge at probability
    /// `p` (`None`: weighted cascade, `p = 1/deg`).
    fn star_with(deg: usize, p: Option<f32>) -> Graph {
        let mut b = GraphBuilder::new(deg + 1);
        for i in 0..deg as u32 {
            match p {
                Some(p) => b.add_weighted_edge(i, deg as u32, p),
                None => b.add_edge(i, deg as u32),
            }
        }
        b.build(WeightModel::WeightedCascade)
    }

    fn star(deg: usize) -> Graph {
        star_with(deg, None)
    }

    /// The exact `Binomial(d, p)` pmf by a route the table does not take:
    /// products of the pmf ratio in linear space, outward from the mode,
    /// normalised by their sum. Entries too small for f64 read 0.
    fn exact_pmf(d: usize, p: f64) -> Vec<f64> {
        let mode = (((d + 1) as f64 * p).floor() as usize).min(d);
        let odds = p / (1.0 - p);
        let mut pmf = vec![0.0; d + 1];
        pmf[mode] = 1.0;
        for k in mode..d {
            pmf[k + 1] = pmf[k] * (d - k) as f64 / (k + 1) as f64 * odds;
        }
        for k in (0..mode).rev() {
            pmf[k] = pmf[k + 1] * (k + 1) as f64 / (d - k) as f64 / odds;
        }
        let total: f64 = pmf.iter().sum();
        pmf.iter().map(|w| w / total).collect()
    }

    /// Upper critical value of χ² with `df` degrees of freedom at
    /// α = 0.001 (Wilson–Hilferty).
    fn chi2_crit(df: usize) -> f64 {
        let df = df as f64;
        let h = 2.0 / (9.0 * df);
        df * (1.0 - h + 3.09 * h.sqrt()).powi(3)
    }

    /// χ² of observed counts against `pmf` over `trials` draws, pooling
    /// every value whose expected count is below 5 into one bin. Returns
    /// the statistic and its degrees of freedom.
    fn chi2(observed: &[u64], pmf: &[f64], trials: u64) -> (f64, usize) {
        let (mut stat, mut bins) = (0.0, 0usize);
        let (mut pool_o, mut pool_e) = (0.0, 0.0);
        for (k, &p) in pmf.iter().enumerate() {
            let e = p * trials as f64;
            let o = observed.get(k).copied().unwrap_or(0) as f64;
            if e < 5.0 {
                pool_o += o;
                pool_e += e;
            } else {
                stat += (o - e) * (o - e) / e;
                bins += 1;
            }
        }
        let beyond: u64 = observed.iter().skip(pmf.len()).sum();
        pool_o += beyond as f64;
        if pool_e > 0.0 {
            stat += (pool_o - pool_e) * (pool_o - pool_e) / pool_e;
            bins += 1;
        } else {
            assert_eq!(pool_o, 0.0, "draws outside the support");
        }
        (stat, bins - 1)
    }

    /// Each CDF run equals the exact Binomial CDF to 1e-12, and ends where
    /// the exact tail drops below 2⁻⁶⁴ (with f64 slack). The grid holds
    /// pairs where `(1 − p)^d` underflows f64: `d = 1000` and `10⁵` at
    /// `p = 0.5` and `0.9`.
    #[test]
    fn cdf_runs_match_exact_binomial() {
        assert_eq!(
            0.1f64.powi(1000),
            0.0,
            "the grid must reach an underflowing (1 − p)^d"
        );
        let two64 = 2f64.powi(64);
        for d in [1usize, 2, 3, 20, 1000, 100_000] {
            for p in [1.0 / d as f64, 0.1, 0.5, 0.9, 2f64.powi(-40)] {
                if p >= 1.0 {
                    continue; // d = 1 under weighted cascade is all-live.
                }
                let mut cdf = vec![7]; // an earlier run's entry
                let lo = binomial_run(d, p, &mut cdf) as usize;
                let run = &cdf[1..];
                assert_eq!(*run.last().unwrap(), u64::MAX, "d {d}, p {p}");
                assert!(run[..run.len() - 1].iter().all(|&t| t < u64::MAX));
                assert!(
                    run.windows(2).all(|w| w[0] <= w[1]),
                    "monotone: d {d}, p {p}"
                );
                let pmf = exact_pmf(d, p);
                let mut exact = pmf[..lo].iter().sum::<f64>();
                assert!(exact < 1e-12, "mass below lo {exact}: d {d}, p {p}");
                for (k, &t) in run.iter().enumerate() {
                    exact += pmf[lo + k];
                    let got = t as f64 / two64;
                    assert!(
                        (got - exact).abs() < 1e-12,
                        "d {d}, p {p}, k {}: {got} vs {exact}",
                        lo + k
                    );
                }
                let hi = lo + run.len() - 1;
                let tail: f64 = pmf[hi + 1..].iter().sum();
                assert!(tail < 2.0 / two64, "tail past the run {tail}: d {d}, p {p}");
                if hi > lo {
                    let before: f64 = pmf[hi..].iter().sum();
                    assert!(before > 0.5 / two64, "run too long: d {d}, p {p}");
                }
            }
        }
    }

    /// The drawn live count follows the exact pmf (χ² at α = 0.001), both
    /// under weighted cascade and on a row whose mode is far from 0.
    #[test]
    fn drawn_count_matches_binomial_pmf() {
        for (d, p, seed) in [
            (20usize, 0.05f32, 1u64),
            (1000, 0.001, 2),
            (50, 0.3, 3),
            (1000, 0.9, 4),
        ] {
            let g = star_with(d, Some(p));
            let sub = SubsimRrSampler::new(&g);
            let Row { run, lo, .. } = sub.rows[d];
            assert!(run < COINS, "hub must take the count path");
            let trials = 200_000u64;
            let mut rng = Rng::new(seed);
            let mut observed = vec![0u64; d + 1];
            for _ in 0..trials {
                observed[sub.draw_count(run, lo, &mut rng)] += 1;
            }
            let (stat, df) = chi2(&observed, &exact_pmf(d, p as f64), trials);
            assert!(
                stat < chi2_crit(df),
                "d {d}, p {p}: χ² {stat:.1} on {df} df"
            );
        }
    }

    /// The hub's RR set holds exactly its live spokes, so `|R| − 1` must
    /// follow `Binomial(d, p)` (χ² at α = 0.001). Picks that repeat a
    /// position shrink the set below `L`, and reaching the dead positions
    /// of a `L > d/2` row turns `L` into `d − L`: either fails here.
    #[test]
    fn hub_set_size_is_binomial() {
        for (d, p, seed) in [
            (10usize, 0.3f32, 5u64),
            (20, 0.5, 6),
            (10, 0.8, 7),
            (40, 0.95, 8),
        ] {
            let g = star_with(d, Some(p));
            let sub = SubsimRrSampler::new(&g);
            let mut rng = Rng::new(seed);
            let (mut out, mut visited) = (Vec::new(), EpochFlags::new(d + 1));
            let trials = 100_000u64;
            let mut observed = vec![0u64; d + 1];
            let mut work_is_size = true;
            for _ in 0..trials {
                let work = sub.sample_rooted(d as u32, &mut rng, &mut out, &mut visited);
                let mut sorted = out.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), out.len(), "an RR set repeats a node");
                work_is_size &= work == out.len() as u64;
                observed[out.len() - 1] += 1;
            }
            let (stat, df) = chi2(&observed, &exact_pmf(d, p as f64), trials);
            assert!(
                stat < chi2_crit(df),
                "d {d}, p {p}: χ² {stat:.1} on {df} df"
            );
            assert!(work_is_size, "w(R) = 1 + L on the hub, 0 per spoke");
        }
    }

    /// Mixed-degree fixture: a 200-node double ring (in-degree 2, p = 1/2)
    /// whose nodes mostly also point at hub 0 (in-degree 199, p = 1/199),
    /// weighted-cascade probabilities.
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

    /// Kolmogorov–Smirnov two-sample statistic of RR-set sizes drawn by
    /// the count-first sampler versus the reverse BFS, `trials` each, from
    /// `root` or (`None`) from uniform roots.
    fn ks_against_reverse_bfs(g: &Graph, root: Option<u32>, trials: usize, seed: u64) -> f64 {
        let sub = SubsimRrSampler::new(g);
        let bfs = IcRrSampler::new(g);
        let n = g.num_nodes();
        let mut rng_a = Rng::new(seed);
        let mut rng_b = Rng::new(seed ^ 0x5EED);
        let (mut out, mut visited) = (Vec::new(), EpochFlags::new(n));
        let mut size = |s: &dyn RrSampler, rng: &mut Rng| {
            match root {
                Some(r) => s.sample_rooted(r, rng, &mut out, &mut visited),
                None => s.sample(rng, &mut out, &mut visited),
            };
            out.len()
        };
        let mut hist_a = vec![0u32; n + 1];
        let mut hist_b = vec![0u32; n + 1];
        for _ in 0..trials {
            hist_a[size(&sub, &mut rng_a)] += 1;
            hist_b[size(&bfs, &mut rng_b)] += 1;
        }
        let (mut cum_a, mut cum_b, mut ks) = (0f64, 0f64, 0f64);
        for s in 0..=n {
            cum_a += hist_a[s] as f64 / trials as f64;
            cum_b += hist_b[s] as f64 / trials as f64;
            ks = ks.max((cum_a - cum_b).abs());
        }
        ks
    }

    /// |R| has the reverse BFS's law (KS at α = 0.001) on stars, on the
    /// mixed fixture and on a LiveJournal-profile graph; rooted at the hub
    /// on the stars, whose sets are otherwise singletons.
    #[test]
    fn size_distribution_matches_ic_sampler() {
        let trials = 8000usize;
        // Two-sample critical value c(α)·sqrt(2/n), c(0.001) ≈ 1.95.
        let crit = 1.95 * (2.0 / trials as f64).sqrt();
        for d in [20usize, 1000] {
            let g = star(d);
            assert!(SubsimRrSampler::new(&g).rows[d].run < COINS);
            let ks = ks_against_reverse_bfs(&g, Some(d as u32), trials, 11);
            assert!(ks < crit, "star({d}): KS {ks:.4} ≥ critical {crit:.4}");
        }
        let mixed = mixed_fixture();
        let sub = SubsimRrSampler::new(&mixed);
        assert!(sub.rows[0].run < COINS, "hub counts");
        assert!(sub.rows[5].run < COINS, "ring nodes count");
        let ks = ks_against_reverse_bfs(&mixed, None, trials, 13);
        assert!(ks < crit, "mixed fixture: KS {ks:.4} ≥ critical {crit:.4}");
        let lj = DatasetProfile::LiveJournal.generate(0.002, 3);
        let ks = ks_against_reverse_bfs(&lj, None, trials, 14);
        assert!(
            ks < crit,
            "livejournal:0.002: KS {ks:.4} ≥ critical {crit:.4}"
        );
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
        assert!(
            (mean_sub - mean_bfs).abs() < 0.03,
            "{mean_sub} vs {mean_bfs}"
        );
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

    /// RIS on uniform rows at p = 0.3: `n·Pr[v ∈ R]` matches the exact
    /// spread of every single node, by live-edge enumeration.
    #[test]
    fn ris_matches_exact_spread_on_uniform_rows() {
        let edges = [
            (0, 1),
            (0, 2),
            (1, 2),
            (2, 3),
            (3, 0),
            (1, 4),
            (3, 4),
            (4, 5),
            (2, 5),
            (0, 5),
        ];
        let mut b = GraphBuilder::new(6);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::Uniform(0.3));
        let sub = SubsimRrSampler::new(&g);
        assert!(sub.rows[5].run < COINS, "in-degree 3 at p = 0.3");
        let trials = 300_000usize;
        let mut rng = Rng::new(9);
        let (mut out, mut visited) = (Vec::new(), EpochFlags::new(6));
        let mut hits = [0usize; 6];
        for _ in 0..trials {
            sub.sample(&mut rng, &mut out, &mut visited);
            for &v in &out {
                hits[v as usize] += 1;
            }
        }
        for v in 0..6u32 {
            let est = 6.0 * hits[v as usize] as f64 / trials as f64;
            let exact = exact_spread(&g, DiffusionModel::IndependentCascade, &[v]);
            assert!(
                (est - exact).abs() < 0.03,
                "σ({{{v}}}): RIS {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn probability_one_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(1, 2, 1.0);
        let g = b.build(WeightModel::WeightedCascade);
        let sub = SubsimRrSampler::new(&g);
        assert_eq!(sub.rows[2].run, ALL_LIVE);
        let mut rng = Rng::new(4);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(3);
        sub.sample_rooted(2, &mut rng, &mut out, &mut visited);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    /// A p = 1 row needs no RNG at any degree: it is all-live, not a count
    /// row, and no CDF run is tabulated for it.
    #[test]
    fn probability_one_ignores_cutover() {
        for deg in [2, 64] {
            let g = star_with(deg, Some(1.0));
            let sub = SubsimRrSampler::new(&g);
            assert_eq!(sub.rows[deg].run, ALL_LIVE, "deg = {deg}");
            assert!(sub.cdf.is_empty(), "deg = {deg}");
            let mut rng = Rng::new(8);
            let (mut out, mut visited) = (Vec::new(), EpochFlags::new(deg + 1));
            sub.sample_rooted(deg as u32, &mut rng, &mut out, &mut visited);
            out.sort_unstable();
            assert_eq!(out, (0..=deg as u32).collect::<Vec<_>>(), "deg = {deg}");
        }
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
        assert_eq!(sub.rows[3].run, COINS);
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

    /// A row with no in-edges is trivially all-live; a uniform row counts
    /// at every degree, low ones included.
    #[test]
    fn every_uniform_row_counts() {
        let g = star(3);
        let sub = SubsimRrSampler::new(&g);
        assert_eq!((sub.rows[3].run, sub.rows[3].lo), (0, 0));
        assert_eq!(sub.rows[0].run, ALL_LIVE, "spokes have no in-edges");
        let mut rng = Rng::new(6);
        let (mut out, mut visited) = (Vec::new(), EpochFlags::new(4));
        assert_eq!(sub.sample_rooted(0, &mut rng, &mut out, &mut visited), 0);
        assert_eq!(out, vec![0]);
    }

    /// A uniform row whose `p` is 0 or below 2⁻⁵³ is a count row whose run
    /// is the single threshold `u64::MAX`: its live count is always 0, so
    /// the hub's RR set is the hub alone, at one work unit.
    #[test]
    fn zero_probability_row_never_reaches() {
        for p in [0.0, 1e-20] {
            let g = star_with(5, Some(p));
            let sub = SubsimRrSampler::new(&g);
            assert_eq!((sub.rows[5].run, sub.rows[5].lo), (0, 0), "p = {p}");
            assert_eq!(sub.cdf, vec![u64::MAX], "p = {p}");
            let mut rng = Rng::new(7);
            let mut out = Vec::new();
            let mut visited = EpochFlags::new(6);
            for _ in 0..100 {
                assert_eq!(sub.sample_rooted(5, &mut rng, &mut out, &mut visited), 1);
                assert_eq!(out, vec![5], "p = {p}");
            }
        }
    }

    /// Rows sharing `(in-degree, p)` share one CDF run.
    #[test]
    fn one_run_per_distinct_row() {
        let g = mixed_fixture();
        let sub = SubsimRrSampler::new(&g);
        let runs: std::collections::HashSet<_> = sub
            .rows
            .iter()
            .filter(|row| row.run < COINS)
            .map(|row| row.run)
            .collect();
        let degrees: std::collections::HashSet<_> = g.nodes().map(|v| g.in_degree(v)).collect();
        assert_eq!(runs.len(), degrees.len());
    }

    /// Every row is one 16-byte record whose `start` and `len` slice the
    /// node's own in-list out of the graph's source array.
    #[test]
    fn rows_slice_their_in_lists() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
        assert_eq!(std::mem::align_of::<Row>(), 16);
        for g in [mixed_fixture(), star(70), star_with(5, Some(1.0))] {
            let sub = SubsimRrSampler::new(&g);
            assert_eq!(sub.rows.len(), g.num_nodes());
            for v in g.nodes() {
                let row = sub.rows[v as usize];
                let start = row.start as usize;
                let sources = &g.in_sources()[start..start + row.len as usize];
                assert_eq!(sources, g.in_neighbors(v), "node {v}");
            }
        }
    }
}
