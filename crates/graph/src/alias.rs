//! Walker alias method for O(1) sampling from a discrete distribution.
//!
//! Used only by the Chung-Lu generator (`generators::chung_lu`), to sample
//! edge endpoints proportional to node weights. The LT reverse walk builds
//! no table: it picks an in-neighbor from one scaled draw, by index on a
//! uniform row and by a cumulative scan otherwise.

use crate::rng::Rng;

/// Precomputed alias table over `0..len` with probabilities proportional to
/// the weights supplied at construction.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights. Weights need not be
    /// normalized. O(len) construction.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/NaN value, or sums
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table over empty support");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must be positive and finite (sum = {total})"
        );
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0, "negative weight {w}");
                w * scale
            })
            .collect();
        let mut alias = vec![0u32; n];
        // Partition indices into under- and over-full buckets.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are exactly 1 up to rounding.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Draws one index in O(1).
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let i = rng.below(self.prob.len());
        if rng.f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_uniform_samples() {
        let t = AliasTable::new(&[1.0, 1.0, 1.0, 1.0]);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn skewed_weights_respected() {
        let t = AliasTable::new(&[9.0, 1.0]);
        let mut rng = Rng::new(2);
        let hits = (0..50_000).filter(|_| t.sample(&mut rng) == 0).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.9).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn zero_weight_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn singleton() {
        let t = AliasTable::new(&[42.0]);
        let mut rng = Rng::new(4);
        assert_eq!(t.sample(&mut rng), 0);
        assert_eq!(t.prob.len(), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        AliasTable::new(&[]);
    }
}
