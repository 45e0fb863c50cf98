//! LT RR sets via reverse random walk (§III-A of the paper).

use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::{Graph, GraphRef};

use crate::rr::RrSampler;

/// The LT sampler: a random walk from the root following incoming edges.
/// At node `u` the walk stops with probability `1 − Σ_{u'∈N_u^in} p(u',u)`;
/// otherwise it moves to in-neighbor `u'` with probability `p(u',u)`.
/// Revisiting a node ends the walk (the live-edge path has closed a cycle).
pub struct LtRrSampler<'g> {
    graph: GraphRef<'g>,
}

impl<'g> LtRrSampler<'g> {
    /// Creates a sampler over `graph`.
    pub fn new(graph: impl Into<GraphRef<'g>>) -> Self {
        LtRrSampler {
            graph: graph.into(),
        }
    }
}

impl RrSampler for LtRrSampler<'_> {
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
        let mut work = 0u64;
        let mut u = root;
        loop {
            let sources = graph.in_neighbors(u);
            if sources.is_empty() {
                break;
            }
            let total = graph.in_prob_sum(u);
            // One uniform draw decides both stop-vs-continue and, scaled,
            // which in-neighbor to walk to.
            let x = rng.f32();
            if x >= total {
                break; // stopped at u with probability 1 − Σ p
            }
            work += 1;
            let next = match graph.in_uniform_prob(u) {
                Some(p) => {
                    // All probabilities equal (every weighted-cascade
                    // row): x / p indexes the neighbor in O(1).
                    let idx = ((x / p) as usize).min(sources.len() - 1);
                    sources[idx]
                }
                None => {
                    // Cumulative scan over the in-probability vector.
                    let probs = graph.in_probs(u);
                    work += probs.len() as u64;
                    let mut acc = 0f32;
                    let mut chosen = sources[sources.len() - 1];
                    for (&w_node, &p) in sources.iter().zip(probs) {
                        acc += p;
                        if x < acc {
                            chosen = w_node;
                            break;
                        }
                    }
                    chosen
                }
            };
            if !visited.set(next as usize) {
                break; // walk closed a cycle
            }
            out.push(next);
            u = next;
        }
        work.max(1)
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
    fn walk_is_a_path() {
        let g = fig1();
        let s = LtRrSampler::new(&g);
        let mut rng = Rng::new(1);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        for _ in 0..500 {
            s.sample(&mut rng, &mut out, &mut visited);
            // Path property: consecutive nodes are connected by an edge
            // from later to earlier (walk follows in-edges).
            for w in out.windows(2) {
                assert!(g.in_neighbors(w[0]).contains(&w[1]));
            }
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len(), "no duplicates");
        }
    }

    /// Paper Example 2 (LT): rooted at v4, the RR set {v1, v3, v4} can only
    /// arise via the walk v4 → v3 → v1, with probability p(v3,v4) = 0.2.
    #[test]
    fn example2_lt_probability() {
        let g = fig1();
        let s = LtRrSampler::new(&g);
        let mut rng = Rng::new(2);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        let trials = 200_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            s.sample_rooted(3, &mut rng, &mut out, &mut visited);
            if out == vec![3, 2, 0] {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.2).abs() < 0.005, "frequency {freq}");
    }

    /// Lemma 1 under LT: n · Pr[{v1} ∈ R] = σ({v1}) = 3.9.
    #[test]
    fn lemma1_lt() {
        let g = fig1();
        let s = LtRrSampler::new(&g);
        let mut rng = Rng::new(3);
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
        assert!((est - 3.9).abs() < 0.02, "RIS {est}");
    }

    #[test]
    fn stop_probability_respected() {
        // Root v4 has Σ p = 0.9, so the walk leaves v4 with prob 0.9 and
        // |R| = 1 with probability 0.1.
        let g = fig1();
        let s = LtRrSampler::new(&g);
        let mut rng = Rng::new(4);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        let trials = 200_000;
        let singletons = (0..trials)
            .filter(|_| {
                s.sample_rooted(3, &mut rng, &mut out, &mut visited);
                out.len() == 1
            })
            .count();
        let freq = singletons as f64 / trials as f64;
        assert!((freq - 0.1).abs() < 0.005, "singleton frequency {freq}");
    }

    #[test]
    fn nonuniform_weights_use_scan_path() {
        // v4's in-probabilities {0.4, 0.3, 0.2} are non-uniform; verify the
        // scan picks neighbors with the right marginal: P[walk to v1] = 0.4.
        let g = fig1();
        let s = LtRrSampler::new(&g);
        assert!(g.in_uniform_prob(3).is_none());
        let mut rng = Rng::new(5);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(4);
        let trials = 200_000;
        let mut to_v1 = 0usize;
        for _ in 0..trials {
            s.sample_rooted(3, &mut rng, &mut out, &mut visited);
            if out.len() >= 2 && out[1] == 0 {
                to_v1 += 1;
            }
        }
        let freq = to_v1 as f64 / trials as f64;
        assert!((freq - 0.4).abs() < 0.005, "P[v4→v1] = {freq}");
    }

    #[test]
    fn uniform_fast_path_detected() {
        // Weighted cascade makes every node's in-probabilities uniform, and
        // the walk reads that from the graph: one work unit per step, where
        // the scan would add the row's length.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build(WeightModel::WeightedCascade);
        assert_eq!(g.in_uniform_prob(2), Some(0.5));
        assert_eq!(g.in_uniform_prob(0), None, "no in-edges");
        let s = LtRrSampler::new(&g);
        let mut rng = Rng::new(6);
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(3);
        for _ in 0..100 {
            assert_eq!(s.sample_rooted(2, &mut rng, &mut out, &mut visited), 1);
            assert_eq!(out.len(), 2);
        }
    }
}
