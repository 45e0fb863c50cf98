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

use std::convert::Infallible;

use dim_cluster::{phase, wire, ClusterBackend, SimCluster};
use dim_graph::scratch;

use crate::greedy::bucket_greedy;
use crate::pooled::PooledSets;
use crate::problem::{CoverageProblem, SetShard};
use crate::selector::LazySelector;

/// Result of a GreeDi run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GreediResult {
    /// Selected sets (global ids).
    pub seeds: Vec<u32>,
    /// Elements covered by `seeds`.
    pub covered: u64,
}

/// One machine's uploaded core-set: the picked set ids and their element
/// lists (in pick order).
struct Candidates {
    ids: Vec<u32>,
    element_lists: PooledSets,
}

impl Candidates {
    fn wire_bytes(&self) -> u64 {
        wire::ids_wire_size(self.ids.len())
            + self
                .element_lists
                .iter()
                .map(|l| wire::ids_wire_size(l.len()))
                .sum::<u64>()
    }
}

/// Local greedy on a set shard: the crate's [`LazySelector`] over the
/// machine's sets, covering the *global* element domain. The covered flags
/// come from the pooled epoch-stamped scratch, so repeated invocations
/// (every machine, every round) reuse one thread-local buffer instead of
/// allocating an `O(num_elements)` bitmap each time.
fn local_greedy(shard: &SetShard, kappa: usize) -> Candidates {
    let sets = &shard.set_elements;
    scratch::with_flags(shard.num_elements, |covered| {
        let selector = LazySelector::new((0..).zip(sets.iter().map(|l| l.len() as u64)));
        let (mut picks, mut marginals) = (Vec::with_capacity(kappa), Vec::new());
        let eval = |seed: Option<u32>, candidates: &[u32]| {
            if let Some(i) = seed {
                covered.set_all(sets.get(i as usize));
            }
            let fresh = |&i: &u32| covered.count_unset(sets.get(i as usize)) as u64;
            Ok::<_, Infallible>(candidates.iter().map(fresh).collect())
        };
        let Ok(()) = selector.run(kappa, &mut picks, &mut marginals, eval);
        let mut element_lists = PooledSets::new();
        for &i in &picks {
            element_lists.push(sets.get(i as usize));
        }
        let ids = picks.iter().map(|&i| shard.set_ids[i as usize]).collect();
        Candidates { ids, element_lists }
    })
}

/// Runs GreeDi with core-set size `kappa` (the paper sets `κ = k`).
/// Returns the better of the merged-greedy solution and the best
/// single-machine solution, per the original algorithm.
pub fn greedi(cluster: &mut SimCluster<SetShard>, k: usize, kappa: usize) -> GreediResult {
    let num_elements = cluster.workers()[0].num_elements;
    // Stage 1: per-machine core-sets, uploaded with their element lists.
    let candidates = cluster.gather(
        phase::CORESET_UPLOAD,
        |_, shard| local_greedy(shard, kappa),
        Candidates::wire_bytes,
    );

    // Stage 2 (master): merged greedy over the ℓ·κ candidates, plus the
    // best single-machine solution truncated to k.
    cluster.master(phase::CORESET_MERGE, || {
        let mut all_ids: Vec<u32> = Vec::new();
        let mut all_lists = PooledSets::new();
        for c in &candidates {
            for (pos, &id) in c.ids.iter().enumerate() {
                all_ids.push(id);
                all_lists.push(c.element_lists.get(pos));
            }
        }
        let merged = if all_ids.is_empty() {
            GreediResult {
                seeds: Vec::new(),
                covered: 0,
            }
        } else {
            let problem = CoverageProblem::from_set_records(num_elements, all_lists.iter());
            let mut shard = problem.single_shard();
            let r = bucket_greedy(&mut shard, k);
            GreediResult {
                seeds: r.seeds.iter().map(|&i| all_ids[i as usize]).collect(),
                covered: r.covered,
            }
        };

        let mut best = merged;
        scratch::with_flags(num_elements, |covered_buf| {
            for c in &candidates {
                covered_buf.clear();
                let take = k.min(c.ids.len());
                let lists = c.element_lists.iter().take(take);
                let covered: u64 = lists.map(|l| covered_buf.set_all(l) as u64).sum();
                if covered > best.covered {
                    best = GreediResult {
                        seeds: c.ids[..take].to_vec(),
                        covered,
                    };
                }
            }
        });
        best
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cluster::{ExecMode, NetworkModel};

    use crate::newgreedi::newgreedi;

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

    fn greedi_cluster(p: &CoverageProblem, l: usize, seed: Option<u64>) -> SimCluster<SetShard> {
        SimCluster::new(
            p.shard_sets(l, seed),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
    }

    #[test]
    fn single_machine_equals_centralized() {
        let p = example3();
        let mut c = greedi_cluster(&p, 1, None);
        let r = greedi(&mut c, 2, 2);
        assert_eq!(r.covered, 6);
        let mut s = r.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn coverage_consistent_with_global_evaluation() {
        let p = example3();
        for l in [1, 2, 3] {
            let mut c = greedi_cluster(&p, l, None);
            let r = greedi(&mut c, 2, 2);
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
            let mut gc = greedi_cluster(&p, l, None);
            let g = greedi(&mut gc, 2, 2);
            let mut nc = SimCluster::new(
                p.shard_elements(l),
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            );
            let n = newgreedi(&mut nc, 2).unwrap();
            assert!(g.covered <= n.covered, "ℓ = {l}: {} > {}", g.covered, n.covered);
        }
    }

    #[test]
    fn randomized_partition_valid() {
        let p = example3();
        let mut c = greedi_cluster(&p, 2, Some(7));
        let r = greedi(&mut c, 2, 2);
        assert_eq!(r.covered, p.coverage_of(&r.seeds));
        assert!(r.covered >= 4, "random partition still near-optimal here");
    }

    #[test]
    fn traffic_accounted() {
        let p = example3();
        let mut c = greedi_cluster(&p, 3, None);
        greedi(&mut c, 2, 2);
        let m = c.metrics();
        assert_eq!(m.messages, 3, "one upload per machine");
        assert!(m.bytes_to_master > 0);
    }

    #[test]
    fn kappa_larger_than_local_sets() {
        let p = example3();
        let mut c = greedi_cluster(&p, 5, None);
        let r = greedi(&mut c, 3, 10);
        assert_eq!(r.covered, p.coverage_of(&r.seeds));
        assert!(r.covered >= 5);
    }
}
