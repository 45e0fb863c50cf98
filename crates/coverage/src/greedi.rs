//! GreeDi / RandGreeDi — set-distributed composable core-sets baselines.
//!
//! The conventional distributed submodular maximization layout (§III-B1,
//! Table II): *sets* (nodes) are partitioned across machines, each machine
//! greedily picks a core-set of `κ` of its sets, and the master merges the
//! `ℓ·κ` candidates with another greedy pass, returning the better of the
//! merged solution and the best single-machine solution.
//!
//! Two properties make this the paper's foil:
//! 1. its approximation ratio degrades with `ℓ` (Fig. 10(c)) — unlike
//!    NewGreeDi's exact (1 − 1/e);
//! 2. it needs each set's *complete* element list on one machine, which is
//!    incompatible with distributed RIS where each element (RR set) lives
//!    wholly on the machine that sampled it.
//!
//! GreeDi (Mirzasoleiman et al., NeurIPS'13) uses an arbitrary partition;
//! RandGreeDi (Barbosa et al., ICML'15) a uniformly random one — obtained
//! here by building the shards with a shuffle seed
//! ([`crate::CoverageProblem::shard_sets`]).
//!
//! Each machine holds its sets as a [`crate::CoverageShard`] over the global
//! elements, naming them by local id; the master keeps the
//! [`SetPartition`] that maps them back. The core-set stage is one op
//! round over any [`OpCluster`]: every machine answers
//! [`WorkerOp::CoreSet`] with the crate's one greedy on its shard, so
//! GreeDi runs on every backend, and the bytes it is charged are the
//! replies it sends.

use dim_cluster::{phase, OpCluster, WireError, WorkerOp, WorkerReply};
use dim_graph::scratch;

use crate::greedy::bucket_greedy;
use crate::pooled::PooledSets;
use crate::problem::{CoverageProblem, SetPartition};

/// Result of a GreeDi run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreediResult {
    /// Selected sets (global ids).
    pub seeds: Vec<u32>,
    /// Elements covered by `seeds`.
    pub covered: u64,
}

/// Runs GreeDi with core-set size `kappa` (the paper sets `κ = k`) on a
/// cluster whose machine `i` holds the set shard of `partition.sets[i]`.
/// Returns the better of the merged-greedy solution and the best
/// single-machine solution, per the original algorithm.
///
/// # Errors
/// Returns a [`WireError`] if a link dies or a reply is malformed, and
/// `IdOutOfRange` naming the machine if its core-set names a local set
/// outside its partition or an element outside the domain.
pub fn greedi<B: OpCluster>(
    cluster: &mut B,
    partition: &SetPartition,
    k: usize,
    kappa: usize,
) -> Result<GreediResult, WireError> {
    // Stage 1: per-machine core-sets, uploaded with their element lists.
    let kappa = u32::try_from(kappa).unwrap_or(u32::MAX);
    let replies = cluster.op_gather(phase::CORESET_UPLOAD, |_| WorkerOp::CoreSet { kappa })?;

    // Stage 2 (master): merged greedy over the ℓ·κ candidates, plus the
    // best single-machine solution truncated to k.
    let num_elements = partition.num_elements;
    cluster.master(phase::CORESET_MERGE, || {
        // All candidates in machine order; machine i's are `ends[i-1]..ends[i]`.
        let (mut ids, mut lists, mut ends) = (Vec::new(), PooledSets::new(), Vec::new());
        for (machine, reply) in replies.into_iter().enumerate() {
            let WorkerReply::CoreSet(picks) = reply else {
                return Err(WireError::malformed(phase::CORESET_UPLOAD, machine));
            };
            let sets = partition.sets.get(machine).map_or(&[][..], Vec::as_slice);
            for (local, elements) in picks {
                let in_domain = elements.iter().all(|&e| (e as usize) < num_elements);
                let id = sets.get(local as usize).filter(|_| in_domain);
                ids.push(*id.ok_or(WireError::id_out_of_range(phase::CORESET_UPLOAD, machine))?);
                lists.push(&elements);
            }
            ends.push(ids.len());
        }

        let problem = CoverageProblem::from_set_records(num_elements, lists.iter());
        let merged = bucket_greedy(&mut problem.single_shard(), k);
        let mut best = GreediResult {
            seeds: merged.seeds.iter().map(|&i| ids[i as usize]).collect(),
            covered: merged.covered,
        };
        scratch::with_flags(num_elements, |covered_buf| {
            let mut start = 0;
            for &end in &ends {
                covered_buf.clear();
                let take = start..end.min(start + k);
                let picks = take.clone().map(|p| lists.get(p));
                let covered = picks.map(|l| covered_buf.set_all(l) as u64).sum();
                if covered > best.covered {
                    best = GreediResult {
                        seeds: ids[take].to_vec(),
                        covered,
                    };
                }
                start = end;
            }
        });
        Ok(best)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cluster::{
        ClusterBackend, ExecMode, NetworkModel, OpExecutor, SimCluster, WireErrorKind,
    };

    use crate::newgreedi::newgreedi_with;
    use crate::shard::CoverageShard;

    fn example3() -> CoverageProblem {
        CoverageProblem::from_element_records(
            5,
            [&[0u32][..], &[1, 2], &[0, 2], &[1, 4], &[0], &[1, 3]],
        )
    }

    fn greedi_cluster(
        p: &CoverageProblem,
        l: usize,
        seed: Option<u64>,
    ) -> (SimCluster<CoverageShard>, SetPartition) {
        let (shards, partition) = p.shard_sets(l, seed);
        let net = NetworkModel::cluster_1gbps();
        (
            SimCluster::new(shards, net, ExecMode::Sequential),
            partition,
        )
    }

    #[test]
    fn single_machine_equals_centralized() {
        let p = example3();
        let (mut c, partition) = greedi_cluster(&p, 1, None);
        let r = greedi(&mut c, &partition, 2, 2).unwrap();
        assert_eq!(r.covered, 6);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn coverage_consistent_with_global_evaluation() {
        let p = example3();
        for l in [1, 2, 3] {
            let (mut c, partition) = greedi_cluster(&p, l, None);
            let r = greedi(&mut c, &partition, 2, 2).unwrap();
            assert_eq!(r.covered, p.coverage_of(&r.seeds), "ℓ = {l}");
        }
    }

    #[test]
    fn never_beats_newgreedi() {
        // NewGreeDi returns the centralized greedy solution; GreeDi's
        // merged/best-machine solution can only tie or lose on this
        // instance family.
        let p = example3();
        for l in [2, 3, 5] {
            let (mut gc, partition) = greedi_cluster(&p, l, None);
            let g = greedi(&mut gc, &partition, 2, 2).unwrap();
            let mut nc = SimCluster::new(
                p.shard_elements(l),
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            );
            let n = newgreedi_with(&mut nc, p.num_sets(), 2).unwrap();
            assert!(
                g.covered <= n.covered,
                "ℓ = {l}: {} > {}",
                g.covered,
                n.covered
            );
        }
    }

    #[test]
    fn randomized_partition_valid() {
        let p = example3();
        let (mut c, partition) = greedi_cluster(&p, 2, Some(7));
        let r = greedi(&mut c, &partition, 2, 2).unwrap();
        assert_eq!(r.covered, p.coverage_of(&r.seeds));
        assert!(r.covered >= 4, "random partition still near-optimal here");
    }

    #[test]
    fn traffic_accounted() {
        let p = example3();
        let (mut c, partition) = greedi_cluster(&p, 3, None);
        greedi(&mut c, &partition, 2, 2).unwrap();
        let m = c.metrics();
        assert_eq!(m.messages, 3, "one upload per machine");
        assert!(m.bytes_to_master > 0);
    }

    #[test]
    fn kappa_larger_than_local_sets() {
        let p = example3();
        let (mut c, partition) = greedi_cluster(&p, 5, None);
        let r = greedi(&mut c, &partition, 3, 10).unwrap();
        assert_eq!(r.covered, p.coverage_of(&r.seeds));
        assert!(r.covered >= 5);
    }

    /// A worker that answers every op with the same reply.
    struct Forged(WorkerReply);

    impl OpExecutor for Forged {
        fn execute(&mut self, _: &WorkerOp) -> WorkerReply {
            self.0.clone()
        }
    }

    /// GreeDi over two machines of example 3, machine 1 answering `forged`.
    fn run_forged(forged: Vec<(u32, Vec<u32>)>) -> Result<GreediResult, WireError> {
        let (_, partition) = example3().shard_sets(2, None);
        let honest = WorkerReply::CoreSet(vec![(0, vec![0, 2, 4])]);
        let workers = vec![Forged(honest), Forged(WorkerReply::CoreSet(forged))];
        let mut c = SimCluster::new(workers, NetworkModel::zero(), ExecMode::Sequential);
        greedi(&mut c, &partition, 2, 2)
    }

    #[test]
    fn refuses_a_core_set_naming_a_foreign_local_set() {
        // Machine 1 holds two sets (local ids 0 and 1); id 2 is not its.
        assert!(run_forged(vec![(1, vec![1])]).is_ok());
        let err = run_forged(vec![(2, vec![1])]).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::IdOutOfRange);
        assert_eq!((err.phase, err.machine), (phase::CORESET_UPLOAD, Some(1)));
    }

    #[test]
    fn refuses_a_core_set_naming_an_element_outside_the_domain() {
        // Example 3 has six elements, 0..6.
        assert!(run_forged(vec![(0, vec![5])]).is_ok());
        let err = run_forged(vec![(0, vec![1, 6])]).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::IdOutOfRange);
        assert_eq!((err.phase, err.machine), (phase::CORESET_UPLOAD, Some(1)));
    }
}
