//! Read-only influence queries over frozen coverage shards.
//!
//! Once RR sets are sampled (and possibly persisted through dim-store),
//! the coverage shards become an immutable sketch that can answer many
//! queries: the spread of an arbitrary seed set, or a fresh constrained
//! top-k selection. Everything here works on `&[CoverageShard]` with
//! per-thread scratch, so a server can share one sketch across concurrent
//! query threads with no locking.

use std::convert::Infallible;

use dim_graph::scratch::{self, EpochFlags};

use crate::greedy::GreedyResult;
use crate::selector::LazySelector;
use crate::shard::CoverageShard;

/// Elements of the sketch covered by an arbitrary seed set, summed across
/// shards. Divide by the total RR-set count θ for the coverage fraction
/// `F_R(S)`, and multiply by `n` for the spread estimate (Eq. 2).
/// Out-of-range and duplicate seed ids are ignored.
///
/// The only spread evaluation there is: every shard runs
/// [`CoverageShard::coverage_of`] over one thread-local flag buffer
/// ([`scratch::with_flags`], sized to the largest shard and epoch-cleared
/// between shards), so a warm thread evaluates without allocating, whatever
/// mix of sketches it is asked about.
///
/// # Panics
/// Panics if any shard's index is stale (`needs_prepare`).
pub fn seed_set_coverage(shards: &[CoverageShard], seeds: &[u32]) -> u64 {
    let largest = shards.iter().map(|s| s.num_elements()).max().unwrap_or(0);
    scratch::with_flags(largest, |seen| {
        shards
            .iter()
            .map(|shard| {
                seen.clear();
                shard.coverage_of(seeds, seen)
            })
            .sum()
    })
}

/// A handle for evaluating many seed sets against one frozen sketch. A
/// thin shell over [`seed_set_coverage`]: the reusable buffers live in the
/// thread-local scratch pool, not here.
pub struct SketchCursors<'a> {
    shards: &'a [CoverageShard],
}

impl<'a> SketchCursors<'a> {
    /// Binds the evaluator to `shards`.
    ///
    /// # Panics
    /// Panics if any shard's index is stale (`needs_prepare`).
    pub fn new(shards: &'a [CoverageShard]) -> Self {
        assert!(
            shards.iter().all(|s| !s.needs_prepare()),
            "call prepare() first"
        );
        SketchCursors { shards }
    }

    /// [`seed_set_coverage`] on this instance's shards.
    pub fn seed_set_coverage(&mut self, seeds: &[u32]) -> u64 {
        seed_set_coverage(self.shards, seeds)
    }

    /// The shards this evaluator reads.
    pub fn shards(&self) -> &'a [CoverageShard] {
        self.shards
    }
}

/// Greedy maximum coverage over frozen shards with constraints: every
/// node in `include` is forced into the seed set first (in the given
/// order), nodes in `exclude` are never selected, and greedy selection
/// tops the set up to `k` seeds total (if `include` already has `k` or
/// more, nothing is added). Runs the [`LazySelector`] every greedy in this
/// crate runs, evaluating against its own covered labels (one
/// [`EpochFlags`] per shard, the shards only read), so with no constraints
/// it selects the seed sequence of [`crate::greedy::naive_greedy`].
///
/// Duplicate and out-of-range include ids are skipped. The recorded
/// marginal of each seed — forced or selected — is its coverage gain at
/// its application point; `covered` is the final total, so `include`
/// choices that overlap each other are accounted exactly once.
pub fn constrained_greedy(
    shards: &[CoverageShard],
    k: usize,
    include: &[u32],
    exclude: &[u32],
) -> GreedyResult {
    let num_sets = shards.first().map(|s| s.num_sets()).unwrap_or(0);
    debug_assert!(shards.iter().all(|s| s.num_sets() == num_sets));
    let mut counts = vec![0u64; shards.iter().map(|s| s.domain()).max().unwrap_or(0)];
    for shard in shards {
        for (v, c) in shard.initial_coverage() {
            counts[v as usize] += u64::from(c);
        }
    }
    // An excluded set is never filed, so never selected.
    for &u in exclude {
        if let Some(c) = counts.get_mut(u as usize) {
            *c = 0;
        }
    }
    let mut selector = LazySelector::new((0..).zip(counts));
    let mut labels: Vec<EpochFlags> = shards
        .iter()
        .map(|s| EpochFlags::new(s.num_elements()))
        .collect();
    let mut covered = 0u64;
    let mut eval = |seed: Option<u32>, candidates: &[u32]| {
        if let Some(u) = seed {
            for (shard, flags) in shards.iter().zip(&mut labels) {
                covered += flags.set_all(shard.elements_of(u)) as u64;
            }
        }
        let marginal = |v| {
            let per_shard = shards.iter().zip(&labels);
            per_shard
                .map(|(shard, flags)| flags.count_unset(shard.elements_of(v)) as u64)
                .sum()
        };
        Ok::<_, Infallible>(candidates.iter().map(|&v| marginal(v)).collect())
    };
    let (mut seeds, mut marginals) = (Vec::new(), Vec::new());
    for &u in include {
        if (u as usize) < num_sets && !seeds.contains(&u) {
            let Ok(m) = selector.force(u, &mut eval);
            seeds.push(u);
            marginals.push(m);
        }
    }
    let Ok(()) = selector.run(k, &mut seeds, &mut marginals, &mut eval);
    GreedyResult {
        seeds,
        covered,
        marginals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{bucket_greedy, naive_greedy};

    /// Fig. 2 instance split over two shards.
    fn two_shards() -> Vec<CoverageShard> {
        vec![
            CoverageShard::from_records(5, [&[0u32][..], &[1, 2], &[0, 2]]),
            CoverageShard::from_records(5, [&[1u32, 4][..], &[0], &[1, 3]]),
        ]
    }

    fn one_shard() -> CoverageShard {
        CoverageShard::from_records(
            5,
            [&[0u32][..], &[1, 2], &[0, 2], &[1, 4], &[0], &[1, 3]],
        )
    }

    #[test]
    fn seed_set_coverage_matches_mutable_replay() {
        let shards = two_shards();
        assert_eq!(seed_set_coverage(&shards, &[0]), 3);
        assert_eq!(seed_set_coverage(&shards, &[0, 1]), 6);
        assert_eq!(seed_set_coverage(&shards, &[]), 0);
        // Duplicates and out-of-range ids are ignored.
        assert_eq!(seed_set_coverage(&shards, &[0, 0, 99]), 3);
        // The shards were not mutated by any of the above.
        assert_eq!(shards[0].covered_count(), 0);
        assert_eq!(shards[1].covered_count(), 0);
    }

    #[test]
    fn unconstrained_matches_bucket_greedy() {
        for k in 0..=5 {
            let sharded = constrained_greedy(&two_shards(), k, &[], &[]);
            let mut single = one_shard();
            let central = bucket_greedy(&mut single, k);
            assert_eq!(sharded.seeds, central.seeds, "k = {k}");
            assert_eq!(sharded.marginals, central.marginals, "k = {k}");
            assert_eq!(sharded.covered, central.covered, "k = {k}");
            assert_eq!(sharded, naive_greedy(&mut one_shard(), k), "k = {k}");
        }
    }

    #[test]
    fn include_forces_membership_and_counts_marginals() {
        let shards = two_shards();
        // Force v4 (coverage 1) despite better candidates.
        let r = constrained_greedy(&shards, 2, &[4], &[]);
        assert_eq!(r.seeds[0], 4);
        assert_eq!(r.marginals[0], 1);
        assert_eq!(r.seeds.len(), 2);
        // The total equals a replay of the final seed set.
        assert_eq!(r.covered, seed_set_coverage(&shards, &r.seeds));
        // Includes beyond k: nothing extra is selected.
        let r = constrained_greedy(&shards, 1, &[4, 3], &[]);
        assert_eq!(r.seeds, vec![4, 3]);
    }

    #[test]
    fn exclude_is_never_selected() {
        let shards = two_shards();
        let unconstrained = constrained_greedy(&shards, 2, &[], &[]);
        let banned = unconstrained.seeds[0];
        let r = constrained_greedy(&shards, 2, &[], &[banned]);
        assert!(!r.seeds.contains(&banned));
        assert_eq!(r.seeds.len(), 2);
        // Banning everything useful stops selection early instead of
        // padding with zero-gain seeds.
        let r = constrained_greedy(&shards, 5, &[], &[0, 1, 2, 3, 4]);
        assert!(r.seeds.is_empty());
        assert_eq!(r.covered, 0);
    }

    #[test]
    fn include_duplicates_and_out_of_range_skipped() {
        let shards = two_shards();
        let r = constrained_greedy(&shards, 3, &[1, 1, 99, 0], &[]);
        assert_eq!(&r.seeds[..2], &[1, 0]);
        assert_eq!(r.covered, 6);
        // Everything is covered after {v1, v2}: no third pick exists.
        assert_eq!(r.seeds.len(), 2);
    }

    #[test]
    fn empty_shard_list() {
        let r = constrained_greedy(&[], 3, &[], &[]);
        assert!(r.seeds.is_empty());
        assert_eq!(seed_set_coverage(&[], &[1, 2]), 0);
        assert_eq!(SketchCursors::new(&[]).seed_set_coverage(&[1, 2]), 0);
    }

    #[test]
    fn sketch_cursors_reuse_is_invisible() {
        let shards = two_shards();
        let mut cursors = SketchCursors::new(&shards);
        // Every evaluation equals a fresh single-query computation, in
        // whatever order — including empty sets and repeats — so buffer
        // reuse never leaks coverage between queries.
        let queries: &[&[u32]] = &[&[0], &[], &[0, 1], &[4], &[0], &[0, 0, 99], &[]];
        for &seeds in queries {
            assert_eq!(
                cursors.seed_set_coverage(seeds),
                seed_set_coverage(&shards, seeds),
                "{seeds:?}"
            );
        }
        assert_eq!(cursors.shards().len(), 2);
    }
}
