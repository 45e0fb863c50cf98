//! Centralized greedy maximum-coverage algorithms.
//!
//! Two implementations of one rule — the largest marginal, then the
//! smallest id — that select the same seeds:
//!
//! * [`bucket_greedy`] — the centralized greedy: [`constrained_greedy`]
//!   with no constraints on one shard, so the
//!   [`crate::selector::LazySelector`] every greedy in this crate runs.
//! * [`naive_greedy`] — per-round full rescan; quadratic but obviously
//!   correct, used as an oracle in tests.

use crate::query::constrained_greedy;
use crate::shard::CoverageShard;

/// Outcome of a greedy run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreedyResult {
    /// Selected sets, in selection order.
    pub seeds: Vec<u32>,
    /// Number of elements covered by `seeds`.
    pub covered: u64,
    /// Marginal coverage of each selection, in order (non-increasing).
    pub marginals: Vec<u64>,
}

impl GreedyResult {
    /// Coverage as a fraction of `total` elements (the paper's `F_R(S)`).
    pub fn fraction(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.covered as f64 / total as f64
        }
    }
}

/// The centralized greedy: selects up to `k` sets maximizing covered
/// elements, by lazy evaluation ([`constrained_greedy`] with no
/// constraints) over the shard, re-prepared first. (The name is the
/// paper's: Algorithm 1 on one machine, whose bucket vector `D` this
/// selector replaces.)
pub fn bucket_greedy(shard: &mut CoverageShard, k: usize) -> GreedyResult {
    shard.prepare();
    constrained_greedy(std::slice::from_ref(shard), k, &[], &[])
}

/// Naive greedy: rescans every set's marginal each round. O(k · Σ|I(v)|).
/// Ties break toward the smaller set id.
pub fn naive_greedy(shard: &mut CoverageShard, k: usize) -> GreedyResult {
    shard.prepare();
    let mut seeds = Vec::with_capacity(k);
    let mut marginals = Vec::with_capacity(k);
    while seeds.len() < k {
        let mut best: Option<(u32, u64)> = None;
        for v in 0..shard.num_sets() as u32 {
            if seeds.contains(&v) {
                continue;
            }
            let m = shard.marginal(v) as u64;
            if m > 0 && best.is_none_or(|(_, bm)| m > bm) {
                best = Some((v, m));
            }
        }
        let Some((u, m)) = best else { break };
        shard.apply_seed(u);
        seeds.push(u);
        marginals.push(m);
    }
    GreedyResult {
        seeds,
        covered: shard.covered_count() as u64,
        marginals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example3() -> CoverageShard {
        CoverageShard::from_records(
            5,
            [
                &[0u32][..],
                &[1, 2],
                &[0, 2],
                &[1, 4],
                &[0],
                &[1, 3],
            ],
        )
    }

    /// Replays a seed sequence, asserting the greedy invariant: each seed
    /// had the maximum marginal at its selection point.
    fn assert_greedy_invariant(mut shard: CoverageShard, seeds: &[u32], marginals: &[u64]) {
        shard.prepare();
        for (&u, &m) in seeds.iter().zip(marginals) {
            let max = (0..shard.num_sets() as u32)
                .map(|v| shard.marginal(v) as u64)
                .max()
                .unwrap_or(0);
            assert_eq!(shard.marginal(u) as u64, m, "recorded marginal of {u}");
            assert_eq!(m, max, "seed {u} was not a maximizer");
            shard.apply_seed(u);
        }
    }

    #[test]
    fn example3_all_algorithms_cover_everything() {
        // Paper Example 3: {v1, v2} covers all 6 RR sets.
        for algo in [bucket_greedy, naive_greedy] {
            let mut shard = example3();
            let r = algo(&mut shard, 2);
            assert_eq!(r.covered, 6, "full coverage with k = 2");
            let mut s = r.seeds.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1]);
            assert_eq!(r.marginals, vec![3, 3]);
        }
    }

    #[test]
    fn greedy_invariant_holds() {
        for algo in [bucket_greedy, naive_greedy] {
            let mut shard = example3();
            let r = algo(&mut shard, 4);
            assert_greedy_invariant(example3(), &r.seeds, &r.marginals);
        }
    }

    #[test]
    fn marginals_non_increasing() {
        for algo in [bucket_greedy, naive_greedy] {
            let mut shard = example3();
            let r = algo(&mut shard, 5);
            assert!(r.marginals.windows(2).all(|w| w[0] >= w[1]), "{:?}", r.marginals);
        }
    }

    #[test]
    fn stops_when_everything_covered() {
        let mut shard = example3();
        let r = bucket_greedy(&mut shard, 100);
        assert_eq!(r.covered, 6);
        assert!(r.seeds.len() <= 5);
        assert!(r.marginals.iter().all(|&m| m > 0));
    }

    #[test]
    fn k_zero() {
        let mut shard = example3();
        let r = bucket_greedy(&mut shard, 0);
        assert!(r.seeds.is_empty());
        assert_eq!(r.covered, 0);
    }

    #[test]
    fn fraction_helper() {
        let mut shard = example3();
        let r = bucket_greedy(&mut shard, 1);
        assert_eq!(r.covered, 3);
        assert!((r.fraction(6) - 0.5).abs() < 1e-12);
        assert_eq!(r.fraction(0), 0.0);
    }

    /// One tie rule: on Example 3, v1 and v2 tie at 3, and v3, v4, v5
    /// tie at 1 once both are taken.
    #[test]
    fn ties_break_toward_the_smaller_id() {
        let mut shard = example3();
        let r = bucket_greedy(&mut shard, 5);
        assert_eq!(r.seeds, vec![0, 1]);
        assert_eq!(r, naive_greedy(&mut example3(), 5));
    }
}
