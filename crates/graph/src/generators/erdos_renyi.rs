//! Erdős–Rényi G(n, m) random graphs.

use crate::csr::Graph;
use crate::generators::distinct_pairs_graph;
use crate::rng::Rng;
use crate::weights::WeightModel;

/// Generates a directed G(n, m) graph: `m` edges sampled uniformly among all
/// ordered pairs, without self-loops. Duplicates are resampled, so the
/// result has exactly `m` distinct edges as long as `m ≤ n·(n−1)`.
///
/// # Panics
/// Panics if `n < 2` or `m > n·(n−1)`.
pub fn erdos_renyi(n: usize, m: usize, model: WeightModel, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two nodes");
    let max_edges = n * (n - 1);
    assert!(m <= max_edges, "m = {m} exceeds n(n-1) = {max_edges}");
    let mut rng = Rng::new(seed);
    distinct_pairs_graph(n, m, usize::MAX, model, || {
        let u = rng.below(n) as u32;
        let v = rng.below(n) as u32;
        (u, v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = erdos_renyi(100, 500, WeightModel::WeightedCascade, 7);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = erdos_renyi(50, 200, WeightModel::Uniform(0.1), 42);
        let b = erdos_renyi(50, 200, WeightModel::Uniform(0.1), 42);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn different_seed_differs() {
        let a = erdos_renyi(50, 200, WeightModel::Uniform(0.1), 1);
        let b = erdos_renyi(50, 200, WeightModel::Uniform(0.1), 2);
        assert_ne!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn dense_saturation() {
        // m = n(n-1): complete directed graph must terminate.
        let g = erdos_renyi(6, 30, WeightModel::Uniform(0.5), 3);
        assert_eq!(g.num_edges(), 30);
    }
}
