//! Watts–Strogatz small-world graphs.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::rng::Rng;
use crate::weights::WeightModel;

/// Generates an undirected (symmetrized) Watts–Strogatz small-world graph:
/// a ring lattice where each node connects to its `k` nearest neighbors
/// (`k/2` on each side), with each edge rewired to a random endpoint with
/// probability `beta`.
///
/// Useful as a low-skew contrast workload to the power-law generators: RIS
/// behaves very differently when no hubs exist.
///
/// # Panics
/// Panics if `k` is odd, `k == 0`, `n ≤ k`, or `beta ∉ [0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, model: WeightModel, seed: u64) -> Graph {
    assert!(k > 0 && k.is_multiple_of(2), "k must be positive and even, got {k}");
    assert!(n > k, "need n > k");
    assert!((0.0..=1.0).contains(&beta), "beta out of [0,1]: {beta}");
    let mut rng = Rng::new(seed);
    let mut edges = std::collections::HashSet::with_capacity(n * k / 2);
    for u in 0..n {
        for j in 1..=k / 2 {
            let v = (u + j) % n;
            let (mut a, mut b) = (u as u32, v as u32);
            if rng.f64() < beta {
                // Rewire the far endpoint to a uniform random node avoiding
                // self-loops; duplicates are skipped below.
                b = rng.below(n) as u32;
                if a == b {
                    continue;
                }
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            edges.insert((a, b));
        }
    }
    let mut builder = GraphBuilder::with_capacity(n, edges.len() * 2);
    for (a, b) in edges {
        builder.add_undirected_edge(a, b);
    }
    builder.build(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_when_beta_zero() {
        let g = watts_strogatz(20, 4, 0.0, WeightModel::WeightedCascade, 1);
        assert_eq!(g.num_nodes(), 20);
        // Pure ring lattice: every node has degree exactly k.
        for u in g.nodes() {
            assert_eq!(g.out_degree(u), 4);
        }
    }

    #[test]
    fn rewiring_changes_structure() {
        let a = watts_strogatz(200, 6, 0.0, WeightModel::WeightedCascade, 2);
        let b = watts_strogatz(200, 6, 0.5, WeightModel::WeightedCascade, 2);
        assert_ne!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn symmetric() {
        let g = watts_strogatz(100, 4, 0.3, WeightModel::WeightedCascade, 3);
        for (u, v, _) in g.edges() {
            assert!(g.out_neighbors(v).contains(&u));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_odd_k() {
        watts_strogatz(10, 3, 0.1, WeightModel::WeightedCascade, 1);
    }
}
