//! IC RR sets via stochastic reverse BFS (§III-A of the paper).

use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::{Graph, GraphRef};

use crate::rr::{enqueue, RrSampler};

/// The paper's IC sampler: breadth-first search from the root following
/// *incoming* edges, traversing each edge `⟨u', u⟩` with probability
/// `p(u', u)`. It is the named `ReverseBfs` baseline; the IC default is
/// [`crate::rr::SubsimRrSampler`], which draws the same law.
pub struct IcRrSampler<'g> {
    graph: GraphRef<'g>,
}

impl<'g> IcRrSampler<'g> {
    /// Creates a sampler over `graph`.
    pub fn new(graph: impl Into<GraphRef<'g>>) -> Self {
        IcRrSampler {
            graph: graph.into(),
        }
    }
}

/// Flips the live-edge coin of every in-edge of `u` and adds the sources
/// that succeed to R; returns the number of in-edges examined. A uniform
/// row (every weighted-cascade in-list) flips the same coins in the same
/// order without reading `in_probs` at all. SUBSIM's coin rows run this
/// too.
#[inline(always)]
pub(super) fn coin_row(
    graph: &Graph,
    u: u32,
    rng: &mut Rng,
    out: &mut Vec<u32>,
    visited: &mut EpochFlags,
) -> u64 {
    let sources = graph.in_neighbors(u);
    match graph.in_uniform_prob(u) {
        Some(p) => {
            for &w in sources {
                flip(graph, w, p, rng, out, visited);
            }
        }
        None => {
            for (&w, &p) in sources.iter().zip(graph.in_probs(u)) {
                flip(graph, w, p, rng, out, visited);
            }
        }
    }
    sources.len() as u64
}

/// The live-edge coin of `⟨w, u⟩`. Coins are independent, and one is only
/// observable when `w` is not yet in R, so only those are flipped.
#[inline(always)]
fn flip(
    graph: &Graph,
    w: u32,
    p: f32,
    rng: &mut Rng,
    out: &mut Vec<u32>,
    visited: &mut EpochFlags,
) {
    if !visited.is_set(w as usize) && rng.f32() < p {
        visited.set(w as usize);
        enqueue(graph, w, out);
    }
}

impl RrSampler for IcRrSampler<'_> {
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
        out.clear();
        visited.clear();
        visited.set(root as usize);
        out.push(root);
        let mut edges = 0u64;
        // `out` doubles as the BFS queue: every traversed node is in R.
        let mut head = 0;
        while head < out.len() {
            let u = out[head];
            head += 1;
            edges += coin_row(graph, u, rng, out, visited);
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dim_graph::{apply_batch, DeltaBatch, EdgeOp, GraphBuilder, WeightModel};

    fn fig1() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(0, 3, 0.4);
        b.add_weighted_edge(1, 3, 0.3);
        b.add_weighted_edge(2, 3, 0.2);
        b.build(WeightModel::WeightedCascade)
    }

    #[test]
    fn contains_root() {
        let g = fig1();
        let s = IcRrSampler::new(&g);
        let mut rng = Rng::new(1);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        for root in 0..4 {
            s.sample_rooted(root, &mut rng, &mut out, &mut visited);
            assert!(out.contains(&root));
        }
    }

    #[test]
    fn no_duplicates() {
        let g = fig1();
        let s = IcRrSampler::new(&g);
        let mut rng = Rng::new(2);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        for _ in 0..500 {
            s.sample(&mut rng, &mut out, &mut visited);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len());
        }
    }

    #[test]
    fn deterministic_edges_always_traversed() {
        // Root v2 (id 1): its only in-edge v1→v2 has p = 1, so R = {v2, v1}.
        let g = fig1();
        let s = IcRrSampler::new(&g);
        let mut rng = Rng::new(3);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        for _ in 0..50 {
            s.sample_rooted(1, &mut rng, &mut out, &mut visited);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1]);
        }
    }

    /// Paper Example 2: rooted at v4 under IC, the RR set {v1, v3, v4}
    /// "may be constructed by traversing nodes v1 and v3 through edges
    /// ⟨v1,v4⟩ and ⟨v3,v4⟩ (with probability 0.2 × 0.4 × (1 − 0.3) =
    /// 0.056)". That is the probability of one construction; the same set
    /// also arises when ⟨v1,v4⟩ fails but v1 is reached through v3's
    /// deterministic in-edge: 0.6 × 0.7 × 0.2 × 1.0 = 0.084. Total 0.14.
    #[test]
    fn example2_probability() {
        let g = fig1();
        let s = IcRrSampler::new(&g);
        let mut rng = Rng::new(4);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        let trials = 400_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            s.sample_rooted(3, &mut rng, &mut out, &mut visited);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            if sorted == vec![0, 2, 3] {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.14).abs() < 0.004, "frequency {freq}");
    }

    /// Lemma 1 statistical check: Pr[{v} ∩ R ≠ ∅] = σ({v}) / n.
    #[test]
    fn lemma1_single_node() {
        let g = fig1();
        let s = IcRrSampler::new(&g);
        let mut rng = Rng::new(5);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        let trials = 300_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            s.sample(&mut rng, &mut out, &mut visited);
            if out.contains(&0) {
                hits += 1;
            }
        }
        let est = 4.0 * hits as f64 / trials as f64;
        let exact =
            crate::exact::exact_spread(&g, crate::DiffusionModel::IndependentCascade, &[0]);
        assert!((est - exact).abs() < 0.02, "RIS {est} vs exact {exact}");
    }

    /// A weighted-cascade graph (uniform rows) after a batch that mixes
    /// some rows, with an all-`p = 1` row and nodes nothing points at.
    fn mixed_rows() -> Graph {
        let n = 320u32;
        let mut rng = Rng::new(7);
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..1500 {
            // Nodes 300.. get no in-edges from the cascade.
            b.add_edge(rng.below(n as usize) as u32, rng.below(300) as u32);
        }
        let g = b.build(WeightModel::WeightedCascade);
        let (ru, rv, _) = g.edges().nth(40).unwrap();
        let batch = DeltaBatch::new(
            0,
            vec![
                EdgeOp::Insert { u: 301, v: 5, p: 0.4 },
                EdgeOp::Insert { u: 302, v: 17, p: 0.9 },
                EdgeOp::Reweight { u: ru, v: rv, p: 0.05 },
                EdgeOp::Insert { u: 1, v: 310, p: 1.0 },
                EdgeOp::Insert { u: 2, v: 310, p: 1.0 },
            ],
        );
        let g = apply_batch(&g, &batch).unwrap();
        let uniform = g.nodes().filter(|&v| g.in_uniform_prob(v).is_some()).count();
        let mixed = g.nodes().filter(|&v| g.in_degree(v) > 0).count() - uniform;
        assert!(uniform > 200 && mixed >= 3, "{uniform} uniform, {mixed} mixed rows");
        assert_eq!(g.in_uniform_prob(310), Some(1.0));
        assert_eq!(g.in_degree(315), 0);
        g
    }

    /// The uniform-row loop flips the same coins in the same order as the
    /// per-edge loop: same members in the same order, same edge count, and
    /// the generator left in the same state, on every per-set stream.
    #[test]
    fn uniform_rows_replay_the_per_edge_loop() {
        let g = mixed_rows();
        let s = IcRrSampler::new(&g);
        let (mut out, mut expected) = (Vec::new(), Vec::new());
        let mut visited = EpochFlags::new(g.num_nodes());
        for stream in 0..10_000u64 {
            let mut rng = Rng::new(stream);
            let edges = s.sample(&mut rng, &mut out, &mut visited);

            let mut reference = Rng::new(stream);
            let root = reference.below(g.num_nodes()) as u32;
            expected.clear();
            expected.push(root);
            visited.clear();
            visited.set(root as usize);
            let mut examined = 0u64;
            let mut head = 0;
            while head < expected.len() {
                let u = expected[head];
                head += 1;
                for i in 0..g.in_degree(u) {
                    examined += 1;
                    let w = g.in_neighbors(u)[i];
                    if !visited.is_set(w as usize) && reference.f32() < g.in_probs(u)[i] {
                        visited.set(w as usize);
                        expected.push(w);
                    }
                }
            }
            assert_eq!(out, expected, "stream {stream}");
            assert_eq!(edges, examined, "stream {stream}");
            assert_eq!(rng.next_u64(), reference.next_u64(), "stream {stream}");
        }
    }

    #[test]
    fn edge_work_counted() {
        let g = fig1();
        let s = IcRrSampler::new(&g);
        let mut rng = Rng::new(6);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        // Root v4 examines its three in-edges at minimum.
        let w = s.sample_rooted(3, &mut rng, &mut out, &mut visited);
        assert!(w >= 3);
    }
}
