//! IC RR sets via stochastic reverse BFS (§III-A of the paper).

use dim_graph::rng::Rng;
use dim_graph::Graph;

use crate::rr::RrSampler;
use crate::visit::VisitTracker;

/// The standard IC sampler: breadth-first search from the root following
/// *incoming* edges, traversing each edge `⟨u', u⟩` with probability
/// `p(u', u)`.
pub struct IcRrSampler<'g> {
    graph: &'g Graph,
}

impl<'g> IcRrSampler<'g> {
    /// Creates a sampler over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        IcRrSampler { graph }
    }
}

impl RrSampler for IcRrSampler<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    #[inline]
    fn sample_rooted(
        &self,
        root: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut VisitTracker,
    ) -> u64 {
        out.clear();
        visited.clear();
        visited.mark(root);
        out.push(root);
        let mut edges = 0u64;
        // `out` doubles as the BFS queue: every traversed node is in R.
        let mut head = 0;
        while head < out.len() {
            let u = out[head];
            head += 1;
            let sources = self.graph.in_neighbors(u);
            let probs = self.graph.in_probs(u);
            edges += sources.len() as u64;
            for (&w, &p) in sources.iter().zip(probs) {
                // Each live-edge coin is independent; flipping it is only
                // observable when the source is not yet in R.
                if !visited.is_marked(w) && rng.f32() < p {
                    visited.mark(w);
                    out.push(w);
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dim_graph::{GraphBuilder, WeightModel};

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
        let mut visited = VisitTracker::new(4);
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
        let mut visited = VisitTracker::new(4);
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
        let mut visited = VisitTracker::new(4);
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
        let mut visited = VisitTracker::new(4);
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
        let mut visited = VisitTracker::new(4);
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

    #[test]
    fn edge_work_counted() {
        let g = fig1();
        let s = IcRrSampler::new(&g);
        let mut rng = Rng::new(6);
        let mut out = Vec::new();
        let mut visited = VisitTracker::new(4);
        // Root v4 examines its three in-edges at minimum.
        let w = s.sample_rooted(3, &mut rng, &mut out, &mut visited);
        assert!(w >= 3);
    }
}
