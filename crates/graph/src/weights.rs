//! Propagation-probability assignment models.

use crate::rng::splitmix64;
use crate::NodeId;

/// How propagation probabilities `p(u,v)` are assigned to edges that were
/// added without an explicit weight.
///
/// The paper's experiments use the *weighted cascade* setting: "we set the
/// propagation probability `p_{u,v}` of each edge to the reciprocal of `v`'s
/// in-degree" (§IV-A), which also guarantees the LT constraint
/// `Σ_{u∈N_v^in} p(u,v) ≤ 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightModel {
    /// `p(u,v) = 1 / indeg(v)` — the paper's default (a.k.a. WC model).
    WeightedCascade,
    /// Every edge gets the same probability `p`.
    Uniform(f64),
    /// The trivalency model: each edge draws one of `{0.1, 0.01, 0.001}`
    /// deterministically by a hash of its position, reproducing the common
    /// TRIVALENCY benchmark setting without needing a shared RNG.
    Trivalency,
}

impl WeightModel {
    /// Probability for the edge `(u, v)` where `v` has in-degree `indeg_v`
    /// and the edge is the `edge_index`-th edge in insertion order (used
    /// only by [`WeightModel::Trivalency`] as a deterministic selector).
    #[inline]
    pub fn probability(&self, u: NodeId, v: NodeId, indeg_v: usize, edge_index: usize) -> f32 {
        match *self {
            WeightModel::WeightedCascade => {
                debug_assert!(indeg_v > 0);
                1.0 / indeg_v as f32
            }
            WeightModel::Uniform(p) => p as f32,
            WeightModel::Trivalency => {
                const CHOICES: [f32; 3] = [0.1, 0.01, 0.001];
                // Cheap deterministic mix of the edge identity.
                let h = splitmix64(
                    (u as u64) << 40 ^ (v as u64) << 16 ^ edge_index as u64,
                );
                CHOICES[(h % 3) as usize]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_cascade_reciprocal() {
        let m = WeightModel::WeightedCascade;
        assert_eq!(m.probability(0, 1, 4, 0), 0.25);
        assert_eq!(m.probability(7, 3, 1, 9), 1.0);
    }

    #[test]
    fn uniform_constant() {
        let m = WeightModel::Uniform(0.05);
        assert!((m.probability(0, 1, 100, 0) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn trivalency_in_choice_set() {
        let m = WeightModel::Trivalency;
        for i in 0..100u64 {
            let p = m.probability(i as u32, (i * 7) as u32, 3, i as usize);
            assert!([0.1, 0.01, 0.001].contains(&p));
        }
    }

    #[test]
    fn trivalency_deterministic() {
        let m = WeightModel::Trivalency;
        assert_eq!(m.probability(3, 4, 2, 5), m.probability(3, 4, 2, 5));
    }
}
