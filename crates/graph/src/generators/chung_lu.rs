//! Chung-Lu random graphs with power-law expected degrees.
//!
//! The Chung-Lu model draws edges with probability proportional to the
//! product of endpoint weights, matching an arbitrary expected degree
//! sequence. We use the standard `m`-edge sampling formulation: draw
//! edges with the source chosen ∝ out-weight and the target ∝ in-weight
//! via alias tables until `m` distinct non-loop pairs are held (or
//! `20m + 1000` draws are spent). This is how large directed social graphs
//! (Google+, LiveJournal, Twitter in Table III) are approximated at
//! configurable scale.
//!
//! The draws are deduplicated in sorted rounds, not through a hash set:
//! each round draws `m − D` more pairs (`D` distinct held), sorts their
//! keys `u << 32 | v` and merges the new ones into the sorted prefix. A
//! round of `m − D` draws cannot overshoot `m`, so the rounds stop on the
//! very draw where a set filled one pair at a time would stop, holding the
//! same pairs, and the sorted keys are already the forward CSR.

use crate::alias::AliasTable;
use crate::csr::Graph;
use crate::generators::distinct_pairs_graph;
use crate::rng::Rng;
use crate::weights::WeightModel;

/// Power-law weight sequence `w_i = c · (i + i0)^(−1/(γ−1))` scaled so that
/// the weights sum to `target_sum`. Exponent `γ` is the degree-distribution
/// exponent (2 < γ ≤ 3 for social networks).
fn power_law_weights(n: usize, gamma: f64, target_sum: f64) -> Vec<f64> {
    assert!(gamma > 2.0, "power-law exponent must exceed 2, got {gamma}");
    let alpha = 1.0 / (gamma - 1.0);
    let mut w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    let sum: f64 = w.iter().sum();
    let scale = target_sum / sum;
    for x in &mut w {
        *x *= scale;
    }
    w
}

/// Generates a directed Chung-Lu graph with `n` nodes and (approximately,
/// after dedup) `m` edges. Out-weights and in-weights both follow a power
/// law with exponent `gamma`, but the in-weight sequence is assigned to a
/// *rotated* node order so hubs of the two directions only partially
/// coincide — mirroring follower graphs where popular accounts are not
/// necessarily prolific followers.
pub(crate) fn chung_lu_directed(
    n: usize,
    m: usize,
    gamma: f64,
    model: WeightModel,
    seed: u64,
) -> Graph {
    assert!(n >= 2);
    let w_out = power_law_weights(n, gamma, m as f64);
    let mut w_in = w_out.clone();
    w_in.rotate_right(n / 3);
    sample_edges(n, m, &w_out, &w_in, model, seed)
}

fn sample_edges(
    n: usize,
    m: usize,
    w_out: &[f64],
    w_in: &[f64],
    model: WeightModel,
    seed: u64,
) -> Graph {
    let src_table = AliasTable::new(w_out);
    let dst_table = AliasTable::new(w_in);
    let mut rng = Rng::new(seed);
    // Bound attempts: heavy dedup on tiny dense graphs must not spin forever.
    let max_attempts = 20 * m + 1000;
    distinct_pairs_graph(n, m, max_attempts, model, || {
        let u = src_table.sample(&mut rng) as u32;
        let v = dst_table.sample(&mut rng) as u32;
        (u, v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_target() {
        let w = power_law_weights(1000, 2.5, 5000.0);
        let sum: f64 = w.iter().sum();
        assert!((sum - 5000.0).abs() < 1e-6);
        // Decreasing sequence.
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
    }

    #[test]
    fn directed_edge_count_close() {
        let g = chung_lu_directed(2000, 10_000, 2.3, WeightModel::WeightedCascade, 3);
        assert_eq!(g.num_nodes(), 2000);
        assert!(
            g.num_edges() >= 9_000,
            "dedup removed too many edges: {}",
            g.num_edges()
        );
    }

    #[test]
    fn power_law_tail_present() {
        let g = chung_lu_directed(5000, 50_000, 2.2, WeightModel::WeightedCascade, 5);
        let max_in = g.nodes().map(|v| g.in_degree(v)).max().unwrap();
        let avg_in = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            max_in as f64 > 10.0 * avg_in,
            "expected heavy tail: max {max_in}, avg {avg_in}"
        );
    }

    #[test]
    fn deterministic() {
        let a = chung_lu_directed(300, 1500, 2.5, WeightModel::WeightedCascade, 6);
        let b = chung_lu_directed(300, 1500, 2.5, WeightModel::WeightedCascade, 6);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn rejects_small_gamma() {
        power_law_weights(10, 1.5, 10.0);
    }
}
