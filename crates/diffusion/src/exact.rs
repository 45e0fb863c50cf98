//! Exact influence spread by live-edge enumeration (tiny graphs only).
//!
//! Kempe et al. showed both IC and LT are equivalent to reachability in a
//! random *live-edge* graph: under IC every edge is independently live with
//! `p(u,v)`; under LT every node keeps at most one incoming live edge, edge
//! `⟨u,v⟩` with probability `p(u,v)` and none with `1 − Σ p`. Enumerating
//! all live-edge outcomes gives the exact spread — #P-hard in general, so
//! this module is gated to tiny instances and exists to validate the
//! estimators and the end-to-end approximation guarantees.

use dim_graph::Graph;

use crate::model::DiffusionModel;

/// Hard cap on enumerated outcomes (2^edges for IC, Π(indeg+1) for LT).
const MAX_OUTCOMES: u64 = 1 << 22;

/// All live-edge outcomes of a model on a graph, with their probabilities.
///
/// Build once, then evaluate [`LiveEdgeEnsemble::spread`] for many seed sets
/// (e.g. brute-force optimal seed search).
pub struct LiveEdgeEnsemble {
    n: usize,
    /// `(probability, forward adjacency lists)` per outcome.
    outcomes: Vec<(f64, Vec<Vec<u32>>)>,
}

impl LiveEdgeEnsemble {
    /// Enumerates the model's live-edge distribution.
    ///
    /// # Panics
    /// Panics when the outcome count exceeds an internal cap (the graph is
    /// too large for exact computation).
    pub fn build(graph: &Graph, model: DiffusionModel) -> Self {
        match model {
            DiffusionModel::IndependentCascade => Self::build_ic(graph),
            DiffusionModel::LinearThreshold => Self::build_lt(graph),
        }
    }

    fn build_ic(graph: &Graph) -> Self {
        let m = graph.num_edges();
        assert!(
            m < 63 && (1u64 << m) <= MAX_OUTCOMES,
            "graph too large for exact IC enumeration ({m} edges)"
        );
        let edges: Vec<(u32, u32, f64)> = graph
            .edges()
            .map(|(u, v, p)| (u, v, p as f64))
            .collect();
        let mut outcomes = Vec::with_capacity(1 << m);
        for mask in 0u64..(1 << m) {
            let mut prob = 1.0;
            let mut adj = vec![Vec::new(); graph.num_nodes()];
            for (i, &(u, v, p)) in edges.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    prob *= p;
                    adj[u as usize].push(v);
                } else {
                    prob *= 1.0 - p;
                }
            }
            if prob > 0.0 {
                outcomes.push((prob, adj));
            }
        }
        LiveEdgeEnsemble {
            n: graph.num_nodes(),
            outcomes,
        }
    }

    fn build_lt(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let count = graph
            .nodes()
            .map(|v| graph.in_degree(v) as u64 + 1)
            .try_fold(1u64, u64::checked_mul)
            .filter(|&c| c <= MAX_OUTCOMES);
        assert!(
            count.is_some(),
            "graph too large for exact LT enumeration"
        );
        let mut outcomes = Vec::new();
        // Depth-first product over per-node incoming-edge choices.
        fn recurse(
            graph: &Graph,
            v: u32,
            prob: f64,
            adj: &mut Vec<Vec<u32>>,
            out: &mut Vec<(f64, Vec<Vec<u32>>)>,
        ) {
            if prob == 0.0 {
                return;
            }
            if v as usize == graph.num_nodes() {
                out.push((prob, adj.clone()));
                return;
            }
            let sources = graph.in_neighbors(v);
            let probs = graph.in_probs(v);
            let total: f64 = probs.iter().map(|&p| p as f64).sum();
            // Option: no live in-edge.
            recurse(graph, v + 1, prob * (1.0 - total).max(0.0), adj, out);
            // Option: exactly one live in-edge ⟨u, v⟩.
            for (&u, &p) in sources.iter().zip(probs) {
                adj[u as usize].push(v);
                recurse(graph, v + 1, prob * p as f64, adj, out);
                adj[u as usize].pop();
            }
        }
        let mut adj = vec![Vec::new(); n];
        recurse(graph, 0, 1.0, &mut adj, &mut outcomes);
        LiveEdgeEnsemble { n, outcomes }
    }

    /// Exact expected number of nodes reachable from `seeds`.
    pub fn spread(&self, seeds: &[u32]) -> f64 {
        let mut total = 0.0;
        let mut visited = vec![false; self.n];
        let mut stack = Vec::new();
        for (prob, adj) in &self.outcomes {
            visited.fill(false);
            stack.clear();
            let mut count = 0usize;
            for &s in seeds {
                if !visited[s as usize] {
                    visited[s as usize] = true;
                    count += 1;
                    stack.push(s);
                }
            }
            while let Some(u) = stack.pop() {
                for &v in &adj[u as usize] {
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        count += 1;
                        stack.push(v);
                    }
                }
            }
            total += prob * count as f64;
        }
        total
    }
}

/// Exact spread `σ(S)` of `seeds` under `model`. Convenience wrapper that
/// builds a throwaway [`LiveEdgeEnsemble`].
pub fn exact_spread(graph: &Graph, model: DiffusionModel, seeds: &[u32]) -> f64 {
    LiveEdgeEnsemble::build(graph, model).spread(seeds)
}

/// Brute-force optimal size-`k` seed set by exhaustive search. Returns
/// `(best seeds, OPT)`. Exponential — test-sized graphs only.
pub fn exact_opt(graph: &Graph, model: DiffusionModel, k: usize) -> (Vec<u32>, f64) {
    let ensemble = LiveEdgeEnsemble::build(graph, model);
    let n = graph.num_nodes();
    assert!(k <= n, "k = {k} exceeds n = {n}");
    let mut best: (Vec<u32>, f64) = (Vec::new(), -1.0);
    let mut subset: Vec<u32> = Vec::with_capacity(k);
    fn recurse(
        ensemble: &LiveEdgeEnsemble,
        n: usize,
        k: usize,
        start: u32,
        subset: &mut Vec<u32>,
        best: &mut (Vec<u32>, f64),
    ) {
        if subset.len() == k {
            let s = ensemble.spread(subset);
            if s > best.1 {
                *best = (subset.clone(), s);
            }
            return;
        }
        let remaining = k - subset.len();
        for v in start..=(n as u32 - remaining as u32) {
            subset.push(v);
            recurse(ensemble, n, k, v + 1, subset, best);
            subset.pop();
        }
    }
    recurse(&ensemble, n, k, 0, &mut subset, &mut best);
    best
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
    fn example1_exact_ic() {
        // Paper Example 1: σ({v1}) = 0.4·4 + 0.264·4 + 0.336·3 = 3.664.
        let s = exact_spread(&fig1(), DiffusionModel::IndependentCascade, &[0]);
        assert!((s - 3.664).abs() < 1e-6, "exact IC spread {s}");
    }

    #[test]
    fn example1_exact_lt() {
        // Paper Example 1: σ({v1}) = 0.4·4 + 0.5·4 + 0.1·3 = 3.9.
        let s = exact_spread(&fig1(), DiffusionModel::LinearThreshold, &[0]);
        assert!((s - 3.9).abs() < 1e-6, "exact LT spread {s}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let e = LiveEdgeEnsemble::build(&fig1(), model);
            let total: f64 = e.outcomes.iter().map(|(p, _)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "{model}: Σp = {total}");
        }
    }

    #[test]
    fn monotone_in_seeds() {
        let e = LiveEdgeEnsemble::build(&fig1(), DiffusionModel::IndependentCascade);
        assert!(e.spread(&[0, 1]) >= e.spread(&[0]));
        assert!(e.spread(&[0, 1, 2, 3]) >= e.spread(&[0, 1]));
    }

    #[test]
    fn full_seed_set_covers_everything() {
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let s = exact_spread(&fig1(), model, &[0, 1, 2, 3]);
            assert!((s - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn opt_picks_root() {
        let (seeds, opt) = exact_opt(&fig1(), DiffusionModel::IndependentCascade, 1);
        assert_eq!(seeds, vec![0]);
        assert!((opt - 3.664).abs() < 1e-6);
    }

    #[test]
    fn opt_two_seeds() {
        let (seeds, opt) = exact_opt(&fig1(), DiffusionModel::LinearThreshold, 2);
        // {v1, v4} guarantees all four nodes: v1 activates v2, v3 always.
        assert_eq!(seeds, vec![0, 3]);
        assert!((opt - 4.0).abs() < 1e-9);
    }

    #[test]
    fn matches_monte_carlo() {
        let g = fig1();
        let exact = exact_spread(&g, DiffusionModel::IndependentCascade, &[1, 2]);
        let mc = crate::forward::estimate_spread(
            &g,
            DiffusionModel::IndependentCascade,
            &[1, 2],
            100_000,
            11,
        );
        assert!((exact - mc).abs() < 0.02, "exact {exact} vs mc {mc}");
    }
}
