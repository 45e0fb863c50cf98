//! NewGreeDi — element-distributed maximum coverage (Algorithm 1), with
//! the marginals pulled rather than pushed.
//!
//! Each machine holds a [`crate::CoverageShard`] of the elements and first
//! uploads its sparse `⟨v, Δᵢ(v)⟩` coverage: the master starts from every
//! set's exact marginal. The crate's one [`LazySelector`] then asks only for the
//! marginals that can reach the top. Each **pull round** is one
//! [`WorkerOp::ApplySeed`]: every machine marks the seed selected since the
//! last round covered and answers the local marginals of the master's top
//! [`crate::selector::PULL_BATCH`] stale candidates. No machine computes a
//! per-seed delta, and one round per seed usually suffices. The selector is
//! the centralized greedy's, so NewGreeDi selects exactly its seeds (the
//! largest marginal, then the smallest id): Lemma 2's (1 − 1/e) guarantee.
//!
//! Every distributed phase is expressed as a serializable
//! [`WorkerOp`] executed through the [`OpCluster`] seam: the in-process
//! [`dim_cluster::SimCluster`] interprets the ops directly (the shard is
//! the executor — see [`crate::shard::execute_coverage_op`]), while the
//! process-per-machine backend ships the *identical* op values to
//! `dim-worker` processes holding the shards. Both backends therefore run
//! the same algorithm by construction.

use std::time::{Duration, Instant};

use dim_cluster::ops::{expect_counts, expect_deltas};
use dim_cluster::wire::DeltaVec;
use dim_cluster::{phase, wire, ClusterMetrics, OpCluster, WireError, WorkerOp, WorkerReply};

use crate::selector::LazySelector;

/// Applies every `⟨set, Δ⟩` tuple of the per-machine delta vectors in
/// `msgs` (machine order), rejecting out-of-range set ids with a typed
/// [`WireError`] naming the phase and sender.
///
/// Truncated frames are already rejected at the codec layer (op replies
/// decode to `None` before reaching here); this guards the remaining
/// semantic hazard — a delta naming a set outside the universe, which
/// previously indexed straight into the master's coverage vector.
fn reduce_deltas(
    label: &'static str,
    msgs: &[DeltaVec],
    num_sets: usize,
    mut apply: impl FnMut(u32, u32),
) -> Result<(), WireError> {
    for (machine, msg) in msgs.iter().enumerate() {
        for &(v, d) in msg {
            if (v as usize) < num_sets {
                apply(v, d);
            } else {
                return Err(WireError::id_out_of_range(label, machine));
            }
        }
    }
    Ok(())
}

/// Sums one pull round's replies into the global marginals of its
/// `count` candidates. A reply that is not `count` marginals is
/// `Malformed`, naming its machine.
fn sum_marginals(replies: Vec<WorkerReply>, count: usize) -> Result<Vec<u64>, WireError> {
    let mut sums = vec![0u64; count];
    for (machine, reply) in replies.into_iter().enumerate() {
        match reply {
            WorkerReply::Marginals(local) if local.len() == count => {
                for (sum, m) in sums.iter_mut().zip(local) {
                    *sum += u64::from(m);
                }
            }
            _ => return Err(WireError::malformed(phase::DELTA_UPLOAD, machine)),
        }
    }
    Ok(sums)
}

/// Result of a NewGreeDi run — field for field the centralized greedy's
/// (Lemma 2: the two select the same seeds), so it *is* that type.
pub type NewGreediResult = crate::greedy::GreedyResult;

/// Runs Algorithm 1 on a cluster whose machines each hold a
/// [`crate::CoverageShard`] (directly, or inside a composite worker whose
/// executor routes coverage ops to it).
///
/// `num_sets` is the global set-universe size; `k` the number of seeds.
///
/// # Errors
/// Returns a [`WireError`] if any worker reply is malformed, a link dies,
/// or a delta names an out-of-range set id.
pub fn newgreedi_with<B: OpCluster>(
    cluster: &mut B,
    num_sets: usize,
    k: usize,
) -> Result<NewGreediResult, WireError> {
    let mut coverage = vec![0; num_sets];
    upload_then_select(cluster, WorkerOp::InitialCoverage, &mut coverage, k)
}

/// [`newgreedi_with`] with the paper's §III-C traffic optimization for
/// repeated invocations (as in DiIMM): each machine reports coverage
/// marginals only over elements appended since the previous call, and the
/// caller-owned `base_coverage` accumulates the global totals across calls.
/// Selection itself is unchanged, so the result still equals the
/// centralized greedy exactly.
pub fn newgreedi_incremental<B: OpCluster>(
    cluster: &mut B,
    k: usize,
    base_coverage: &mut [u64],
) -> Result<NewGreediResult, WireError> {
    upload_then_select(cluster, WorkerOp::NewCoverage, base_coverage, k)
}

/// Both entry points: `upload` (`InitialCoverage` or `NewCoverage`) adds
/// each machine's coverage into `coverage`, then the pulled selection
/// (Algorithm 1, lines 7–22) runs from those exact marginals.
fn upload_then_select<B: OpCluster>(
    cluster: &mut B,
    upload: WorkerOp,
    coverage: &mut [u64],
    k: usize,
) -> Result<NewGreediResult, WireError> {
    // Lines 1–3: label everything uncovered, compute local coverages, and
    // upload them as sparse ⟨v, Δ_i(v)⟩ tuples.
    let replies = cluster.op_gather(phase::COVERAGE_UPLOAD, |_| upload.clone())?;
    let fresh = expect_deltas(replies, phase::COVERAGE_UPLOAD)?;
    // Lines 4–6: the master aggregates Δ(v) = Σ_i Δ_i(v).
    let num_sets = coverage.len();
    let selector = cluster.master(phase::SEED_SELECT, || {
        reduce_deltas(phase::COVERAGE_UPLOAD, &fresh, num_sets, |v, d| {
            coverage[v as usize] += d as u64
        })
        .map(|()| LazySelector::new((0..).zip(coverage.iter().copied())))
    })?;

    // One pull round per request of the selector, the last one applying
    // the final seed so the covered counts below are complete.
    let start = Instant::now();
    let mut in_rounds = Duration::ZERO;
    let mut seeds = Vec::with_capacity(k);
    let mut marginals = Vec::with_capacity(k);
    selector.run(k, &mut seeds, &mut marginals, |seed, candidates: &[u32]| {
        let round = Instant::now();
        let replies = cluster.op_broadcast_gather(
            phase::SEED_BROADCAST,
            wire::ids_wire_size(usize::from(seed.is_some()) + candidates.len()),
            phase::DELTA_UPLOAD,
            |_| WorkerOp::ApplySeed {
                seed,
                candidates: candidates.to_vec(),
            },
        );
        in_rounds += round.elapsed();
        sum_marginals(replies?, candidates.len())
    })?;
    // The selector's heap and the sums are the master's work.
    let master_compute = start.elapsed().saturating_sub(in_rounds);
    cluster.record(
        phase::SEED_SELECT,
        ClusterMetrics {
            master_compute,
            ..Default::default()
        },
    );

    let replies = cluster.op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)?;
    let counts = expect_counts(&replies, phase::COUNT_UPLOAD)?;
    let covered = counts.iter().sum();
    Ok(NewGreediResult {
        seeds,
        covered,
        marginals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cluster::{ClusterBackend, ExecMode, NetworkModel, SimCluster};

    use crate::greedy::bucket_greedy;
    use crate::problem::CoverageProblem;
    use crate::shard::CoverageShard;

    fn example3() -> CoverageProblem {
        CoverageProblem::from_element_records(
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

    fn cluster_of(problem: &CoverageProblem, l: usize) -> SimCluster<CoverageShard> {
        SimCluster::new(
            problem.shard_elements(l),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
    }

    #[test]
    fn example3_covers_all_with_two_seeds() {
        let p = example3();
        for l in [1, 2, 3, 6] {
            let mut c = cluster_of(&p, l);
            let r = newgreedi_with(&mut c, p.num_sets(), 2).unwrap();
            assert_eq!(r.covered, 6, "ℓ = {l}");
            let mut s = r.seeds.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1], "ℓ = {l}");
        }
    }

    /// Lemma 2's mechanism: NewGreeDi equals centralized greedy exactly —
    /// same seeds, same order, same marginals — for any machine count.
    #[test]
    fn equals_centralized_greedy_exactly() {
        let p = example3();
        let mut shard = p.single_shard();
        let central = bucket_greedy(&mut shard, 4);
        for l in [1, 2, 3, 4, 6] {
            let mut c = cluster_of(&p, l);
            let r = newgreedi_with(&mut c, p.num_sets(), 4).unwrap();
            assert_eq!(r.seeds, central.seeds, "ℓ = {l}");
            assert_eq!(r.marginals, central.marginals, "ℓ = {l}");
            assert_eq!(r.covered, central.covered, "ℓ = {l}");
        }
    }

    #[test]
    fn traffic_accounted() {
        let p = example3();
        let mut c = cluster_of(&p, 3);
        let r = newgreedi_with(&mut c, p.num_sets(), 2).unwrap();
        assert_eq!(r.covered, 6);
        let m = c.metrics();
        // At least: initial coverage gather + per-seed broadcast/gather +
        // final counts gather.
        assert!(m.messages >= 3 + 2 * (3 + 3) + 3, "messages {}", m.messages);
        assert!(m.bytes_to_master > 0);
        assert!(m.bytes_from_master > 0);
        assert!(m.comm_time > std::time::Duration::ZERO);
    }

    #[test]
    fn timeline_labels_every_phase() {
        let p = example3();
        let mut c = cluster_of(&p, 3);
        newgreedi_with(&mut c, p.num_sets(), 2).unwrap();
        let tl = c.timeline();
        let labels: Vec<_> = tl.labels().collect();
        assert_eq!(
            labels,
            vec![
                phase::COVERAGE_UPLOAD,
                phase::SEED_SELECT,
                phase::SEED_BROADCAST,
                phase::DELTA_UPLOAD,
                phase::COUNT_UPLOAD,
            ]
        );
        // 2 seeds → 2 pull rounds to 3 machines: seed 0 with the four
        // other sets as candidates, then seed 1 alone.
        let bcast = tl.get(phase::SEED_BROADCAST);
        assert_eq!(bcast.messages, 6);
        let (ids, up) = (wire::ids_wire_size, tl.get(phase::DELTA_UPLOAD));
        assert_eq!(bcast.bytes_from_master, 3 * (ids(5) + ids(1)));
        assert_eq!(up.bytes_to_master, 3 * (ids(4) + ids(0)));
        // Final counts: one u64 per machine.
        let counts = tl.get(phase::COUNT_UPLOAD);
        assert_eq!(counts.bytes_to_master, 3 * wire::u64_wire_size());
        // The flat view is the label-wise sum.
        assert_eq!(c.metrics(), tl.total());
    }

    #[test]
    fn covered_reported_even_when_k_exceeds_sets() {
        let p = example3();
        let mut c = cluster_of(&p, 2);
        let r = newgreedi_with(&mut c, p.num_sets(), 50).unwrap();
        assert_eq!(r.covered, 6);
        assert!(r.seeds.len() <= 5);
    }

    /// A pull reply that is not one marginal per candidate fails the
    /// round naming its machine, whether short, long or of another kind.
    #[test]
    fn pull_reply_of_the_wrong_length_is_a_wire_error() {
        use dim_cluster::wire::WireErrorKind;
        let ok = WorkerReply::Marginals(vec![1, 2]);
        let sum = sum_marginals(vec![ok.clone(), ok.clone()], 2);
        assert_eq!(sum, Ok(vec![2, 4]));
        for bad in [
            WorkerReply::Marginals(vec![1]),
            WorkerReply::Marginals(vec![1, 2, 3]),
            WorkerReply::Deltas(vec![(0, 1), (1, 2)]),
        ] {
            let err = sum_marginals(vec![ok.clone(), bad], 2).unwrap_err();
            assert_eq!((err.phase, err.machine), (phase::DELTA_UPLOAD, Some(1)));
            assert_eq!(err.kind, WireErrorKind::Malformed);
        }
    }

    #[test]
    fn reduce_rejects_out_of_range_set_id() {
        use dim_cluster::wire::WireErrorKind;
        // Set id 9 is outside a 5-set universe: previously this indexed
        // straight into the coverage vector and panicked the master.
        let msgs = vec![vec![(2u32, 1u32), (9, 1)]];
        let mut applied = Vec::new();
        let err = reduce_deltas(phase::COVERAGE_UPLOAD, &msgs, 5, |v, d| {
            applied.push((v, d))
        })
        .unwrap_err();
        assert_eq!(err.kind, WireErrorKind::IdOutOfRange);
        assert_eq!(err.machine, Some(0));
        // In-range tuples before the bad one may apply; no panic either way.
        assert!(applied.len() <= 1);
    }

    #[test]
    fn incremental_accumulates_across_invocations() {
        // Two NewGreeDi invocations over a growing instance: the second
        // round reports only the appended elements' marginals, yet selects
        // exactly what a from-scratch run over the full instance would.
        let p = example3();
        let mut c = cluster_of(&p, 2);
        let mut base = vec![0u64; 5];
        let first = newgreedi_incremental(&mut c, 2, &mut base).unwrap();
        assert_eq!(first.covered, 6);
        // Append an element covered only by set 4 on machine 0, then rerun.
        let mut shards = c.into_workers();
        shards[0].push_element(&[4]);
        let net = NetworkModel::cluster_1gbps();
        let mut c = SimCluster::new(shards, net, ExecMode::Sequential);
        let second = newgreedi_incremental(&mut c, 3, &mut base).unwrap();
        let mut shards = p.shard_elements(1);
        shards[0].push_element(&[4]);
        let mut full = SimCluster::new(shards, net, ExecMode::Sequential);
        let fresh = newgreedi_with(&mut full, p.num_sets(), 3).unwrap();
        assert_eq!(second.seeds, fresh.seeds);
        assert_eq!(second.covered, fresh.covered);
    }

    #[test]
    fn fraction_matches_problem_evaluation() {
        let p = example3();
        let mut c = cluster_of(&p, 2);
        let r = newgreedi_with(&mut c, p.num_sets(), 2).unwrap();
        assert_eq!(r.covered, p.coverage_of(&r.seeds));
        assert!((r.fraction(p.num_elements()) - 1.0).abs() < 1e-12);
    }
}
