//! The worker-process endpoint: resident state plus op interpretation.
//!
//! A `dim-worker` process is a [`WorkerHost`] behind a TCP link. The host
//! owns whatever state the master installs through setup ops — the graph
//! (from [`WorkerOp::LoadGraph`]), an IM worker over it (from
//! [`WorkerOp::InitSampler`]: a [`DiimmWorker`], single-collection for
//! DiIMM or paired for OPIM-C and SSA, as the op's `paired` byte says; or
//! from [`WorkerOp::LoadShard`]: a DiIMM worker restored from this
//! machine's stored shard), or a standalone coverage shard (from
//! [`WorkerOp::BuildShard`]) — and
//! answers every subsequent phase op against that resident state.
//!
//! Crucially the host delegates to the *same* interpreters the in-process
//! simulator uses ([`DiimmWorker`]'s `OpExecutor` impl and
//! [`dim_coverage::execute_coverage_op`]), so the process backend and
//! [`dim_cluster::SimCluster`] execute identical phase logic by
//! construction, for every framework: equivalence is a property of the
//! dispatch table, not of two implementations kept in sync by hand.

use std::sync::Arc;

use dim_cluster::ops::expect_ok;
use dim_cluster::{phase, OpCluster, OpExecutor, WireError, WorkerOp, WorkerReply};
use dim_coverage::{execute_coverage_op, CoverageShard};
use dim_graph::{binary, Graph};
use dim_store::checksum;

use crate::config::SamplerKind;
use crate::diimm::DiimmWorker;

/// One worker process's resident state: the op-dispatching peer of a
/// [`SimCluster`](dim_cluster::SimCluster) slot.
///
/// Phase ops route to the IM worker when one has been initialized (IM
/// runs of every framework: `LoadGraph` + `InitSampler`), otherwise to the
/// standalone shard (max-coverage runs: `BuildShard`). The host holds one
/// graph at a time, shared with the IM worker's sampler: loading a
/// different graph drops both holders, which frees the previous one.
pub struct WorkerHost {
    machine_id: usize,
    master_seed: u64,
    graph: Option<Arc<Graph>>,
    /// [`checksum`] of the blob the resident graph was decoded from, so a
    /// re-sent identical `LoadGraph` (the normal case for a join-mode
    /// worker serving run after run) keeps the resident graph instead of
    /// decoding another copy per session.
    graph_digest: Option<u64>,
    diimm: Option<DiimmWorker<'static>>,
    shard: Option<CoverageShard>,
}

impl WorkerHost {
    /// Creates an empty host for machine `machine_id`. `master_seed` is the
    /// run's master seed; sampler RNG streams derive from it exactly as the
    /// simulator's do (`stream_seed(master_seed, machine_id)`), which is
    /// what makes proc-backend seed selection byte-identical.
    pub fn new(machine_id: usize, master_seed: u64) -> Self {
        WorkerHost {
            machine_id,
            master_seed,
            graph: None,
            graph_digest: None,
            diimm: None,
            shard: None,
        }
    }

    /// Re-binds a long-lived host to a new rendezvous session: adopts the
    /// session's machine id and master seed and drops all per-run state
    /// (sampler, shards). The resident graph survives — if the next run
    /// ships the identical blob, [`WorkerOp::LoadGraph`] is a no-op.
    pub fn reset_session(&mut self, machine_id: usize, master_seed: u64) {
        self.machine_id = machine_id;
        self.master_seed = master_seed;
        self.diimm = None;
        self.shard = None;
    }

    /// The machine id this host currently serves as.
    pub fn machine_id(&self) -> usize {
        self.machine_id
    }

    fn load_graph(&mut self, blob: &[u8]) -> WorkerReply {
        let digest = checksum(blob);
        if self.graph.is_some() && self.graph_digest == Some(digest) {
            // Same graph already resident (a join-mode worker's next
            // session): keep it, just reset the sampler built over it.
            self.diimm = None;
            return WorkerReply::Ok;
        }
        match binary::decode_binary(blob) {
            Ok(g) => {
                self.diimm = None;
                self.graph = Some(Arc::new(g));
                self.graph_digest = Some(digest);
                WorkerReply::Ok
            }
            Err(e) => WorkerReply::Err(format!("LoadGraph: {e}")),
        }
    }

    fn init_sampler(&mut self, sampler: SamplerKind, paired: bool) -> WorkerReply {
        let Some(graph) = &self.graph else {
            return WorkerReply::Err("InitSampler before LoadGraph".into());
        };
        self.diimm = Some(DiimmWorker::build(
            Arc::clone(graph),
            sampler,
            self.master_seed,
            self.machine_id,
            paired,
        ));
        WorkerReply::Ok
    }

    /// A DiIMM worker of `sampler` over the loaded graph, restored by `op`
    /// (a [`WorkerOp::LoadShard`]) from this machine's stored shard; a
    /// refused restore leaves no IM worker behind.
    fn load_shard(&mut self, sampler: SamplerKind, seed: u64, op: &WorkerOp) -> WorkerReply {
        let Some(graph) = &self.graph else {
            return WorkerReply::Err("LoadShard before LoadGraph".into());
        };
        let mut worker =
            DiimmWorker::build(Arc::clone(graph), sampler, seed, self.machine_id, false);
        let reply = worker.execute(op);
        self.diimm = (reply == WorkerReply::Ok).then_some(worker);
        reply
    }
}

/// Ships `graph` to every machine of an op cluster: its portable binary
/// encoding, one [`WorkerOp::LoadGraph`] per machine, under the `setup`
/// phase. What a machine holds before it samples or restores a shard
/// ([`WorkerOp::LoadShard`]).
pub fn install_graph<B: OpCluster>(cluster: &mut B, graph: &Graph) -> Result<(), WireError> {
    let mut blob = Vec::new();
    binary::write_binary(graph, &mut blob).expect("writing to a Vec cannot fail");
    let replies = cluster.control(phase::SETUP, |_| WorkerOp::LoadGraph { blob: blob.clone() })?;
    expect_ok(&replies, phase::SETUP)
}

/// Installs resident IM state on every machine of an op cluster: the
/// graph ([`install_graph`]) followed by a sampler over it
/// ([`WorkerOp::InitSampler`]), with one collection, or two when
/// `paired`. After this,
/// [`crate::diimm::diimm_on`] (single) or [`crate::opim::paired_on`]
/// (paired) can run its phase ops against the cluster — process-backed or
/// simulated — without ever touching worker state from the master side.
///
/// Setup traffic is deliberately recorded under the `setup` phase, whose
/// modeled byte count stays zero: the paper's communication accounting
/// starts after data placement.
pub fn setup_im_cluster<B: OpCluster>(
    cluster: &mut B,
    graph: &Graph,
    sampler: SamplerKind,
    paired: bool,
) -> Result<(), WireError> {
    install_graph(cluster, graph)?;
    let replies = cluster.control(phase::SETUP, |_| WorkerOp::InitSampler { sampler, paired })?;
    expect_ok(&replies, phase::SETUP)
}

impl OpExecutor for WorkerHost {
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
        match op {
            WorkerOp::LoadGraph { blob } => self.load_graph(blob),
            WorkerOp::InitSampler { sampler, paired } => self.init_sampler(*sampler, *paired),
            WorkerOp::LoadShard { sampler, seed, .. } => self.load_shard(*sampler, *seed, op),
            WorkerOp::BuildShard { .. } => {
                let shard = self.shard.get_or_insert_with(|| CoverageShard::new(0));
                execute_coverage_op(shard, op)
                    .expect("BuildShard is a coverage op")
            }
            WorkerOp::Shutdown => WorkerReply::Ok,
            phase_op => {
                if let Some(diimm) = self.diimm.as_mut() {
                    diimm.execute(phase_op)
                } else if let Some(shard) = self.shard.as_mut() {
                    shard.execute(phase_op)
                } else {
                    WorkerReply::Err(
                        "no resident state: send LoadGraph + InitSampler or BuildShard first"
                            .into(),
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ImConfig;
    use dim_cluster::WorkerStats;
    use dim_diffusion::DiffusionModel::IndependentCascade as IC;
    use dim_graph::generators::erdos_renyi;
    use dim_graph::WeightModel;

    fn graph_blob(g: &Graph) -> Vec<u8> {
        let mut blob = Vec::new();
        binary::write_binary(g, &mut blob).unwrap();
        blob
    }

    #[test]
    fn host_matches_sim_worker_after_setup() {
        let g = erdos_renyi(120, 600, WeightModel::WeightedCascade, 3);
        let config = ImConfig {
            k: 2,
            epsilon: 0.5,
            delta: 0.1,
            seed: 99,
            sampler: SamplerKind::Standard(IC),
        };
        // The simulator's worker, driven directly.
        let mut sim = DiimmWorker::new(&g, &config, 1);
        // The process host, driven through setup ops.
        let mut host = WorkerHost::new(1, 99);
        assert_eq!(
            host.execute(&WorkerOp::LoadGraph { blob: graph_blob(&g) }),
            WorkerReply::Ok
        );
        assert_eq!(
            host.execute(&WorkerOp::InitSampler { sampler: config.sampler, paired: false }),
            WorkerReply::Ok
        );
        for op in [
            WorkerOp::SampleRr { count: 200 },
            WorkerOp::InitialCoverage,
            WorkerOp::ApplySeed {
                seed: Some(7),
                candidates: vec![0, 3, 7],
            },
            WorkerOp::CoveredCount,
            WorkerOp::Stats,
        ] {
            assert_eq!(host.execute(&op), sim.execute(&op), "op {op:?}");
        }
    }

    /// A paired host answers like the simulator's paired worker, and a
    /// `Validate` naming a set outside the graph — which can now arrive
    /// from a TCP port — is refused like `ApplySeed` refuses one, leaving
    /// the worker serving.
    #[test]
    fn paired_host_matches_sim_worker_and_refuses_foreign_seeds() {
        let g = erdos_renyi(120, 600, WeightModel::WeightedCascade, 3);
        let sampler = SamplerKind::Standard(IC);
        let mut sim = DiimmWorker::build(&g, sampler, 99, 1, true);
        let mut host = WorkerHost::new(1, 99);
        host.execute(&WorkerOp::LoadGraph {
            blob: graph_blob(&g),
        });
        let init = WorkerOp::InitSampler {
            sampler,
            paired: true,
        };
        assert_eq!(host.execute(&init), WorkerReply::Ok);
        let validate = WorkerOp::Validate {
            seeds: vec![0, 3, 7],
        };
        for op in [
            WorkerOp::SampleRr { count: 100 },
            WorkerOp::InitialCoverage,
            WorkerOp::ApplySeed {
                seed: Some(7),
                candidates: vec![0, 3],
            },
            validate.clone(),
            WorkerOp::Stats,
        ] {
            assert_eq!(host.execute(&op), sim.execute(&op), "op {op:?}");
        }
        let foreign = WorkerOp::Validate {
            seeds: vec![3, 120],
        };
        let refused = "Validate: set 120 outside the universe of 120".to_string();
        assert_eq!(host.execute(&foreign), WorkerReply::Err(refused));
        assert_eq!(host.execute(&validate), sim.execute(&validate));
    }

    #[test]
    fn phase_op_without_state_is_a_typed_error() {
        let mut host = WorkerHost::new(0, 1);
        assert!(matches!(
            host.execute(&WorkerOp::InitialCoverage),
            WorkerReply::Err(_)
        ));
        assert!(matches!(
            host.execute(&WorkerOp::InitSampler {
                sampler: SamplerKind::Standard(IC),
                paired: false
            }),
            WorkerReply::Err(_)
        ));
    }

    #[test]
    fn reset_session_keeps_graph_and_dedups_reload() {
        let g = erdos_renyi(60, 240, WeightModel::Uniform(0.1), 5);
        let blob = graph_blob(&g);
        let mut host = WorkerHost::new(0, 7);
        assert_eq!(
            host.execute(&WorkerOp::LoadGraph { blob: blob.clone() }),
            WorkerReply::Ok
        );
        let first: *const Graph = host.graph.as_deref().unwrap();
        // Next session, different slot and seed, same graph blob: the
        // resident graph must be reused, not decoded again.
        host.reset_session(1, 8);
        assert_eq!(host.machine_id(), 1);
        assert!(host.diimm.is_none() && host.shard.is_none());
        assert_eq!(
            host.execute(&WorkerOp::LoadGraph { blob: blob.clone() }),
            WorkerReply::Ok
        );
        assert!(std::ptr::eq(first, host.graph.as_deref().unwrap()));
        // The rebound host behaves exactly like a fresh one for that slot.
        assert_eq!(
            host.execute(&WorkerOp::InitSampler { sampler: SamplerKind::ReverseBfs, paired: false }),
            WorkerReply::Ok
        );
        let mut fresh = WorkerHost::new(1, 8);
        fresh.execute(&WorkerOp::LoadGraph { blob: blob.clone() });
        fresh.execute(&WorkerOp::InitSampler { sampler: SamplerKind::ReverseBfs, paired: false });
        for op in [
            WorkerOp::SampleRr { count: 150 },
            WorkerOp::InitialCoverage,
            WorkerOp::CoveredCount,
        ] {
            assert_eq!(host.execute(&op), fresh.execute(&op), "op {op:?}");
        }
    }

    #[test]
    fn a_different_graph_frees_the_previous_one() {
        let blob = graph_blob(&erdos_renyi(60, 240, WeightModel::WeightedCascade, 5));
        let init = WorkerOp::InitSampler {
            sampler: SamplerKind::Standard(IC),
            paired: false,
        };
        let mut host = WorkerHost::new(0, 7);
        assert_eq!(
            host.execute(&WorkerOp::LoadGraph { blob: blob.clone() }),
            WorkerReply::Ok
        );
        assert_eq!(host.execute(&init), WorkerReply::Ok);
        assert_eq!(
            host.execute(&WorkerOp::SampleRr { count: 20 }),
            WorkerReply::Ok
        );
        let first = Arc::downgrade(host.graph.as_ref().unwrap());
        // The sampler shares the host's copy: two holders, one graph.
        assert_eq!(first.strong_count(), 2);
        // An identical blob keeps it.
        assert_eq!(host.execute(&WorkerOp::LoadGraph { blob }), WorkerReply::Ok);
        assert!(Arc::ptr_eq(
            &first.upgrade().unwrap(),
            host.graph.as_ref().unwrap()
        ));
        assert_eq!(host.execute(&init), WorkerReply::Ok);
        // A different one frees it, sampler and all.
        let other = graph_blob(&erdos_renyi(30, 90, WeightModel::WeightedCascade, 6));
        assert_eq!(
            host.execute(&WorkerOp::LoadGraph { blob: other }),
            WorkerReply::Ok
        );
        assert!(
            first.upgrade().is_none(),
            "the previous graph outlived its replacement"
        );
        assert_eq!(host.execute(&init), WorkerReply::Ok);
        assert_eq!(
            host.execute(&WorkerOp::SampleRr { count: 20 }),
            WorkerReply::Ok
        );
    }

    #[test]
    fn hostile_graph_blob_is_a_typed_reply_and_the_host_lives_on() {
        let good = graph_blob(&erdos_renyi(10, 20, WeightModel::WeightedCascade, 5));
        let with_u64_at = |at: usize, value: u64| {
            let mut blob = good.clone();
            blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
            blob
        };
        let mut host = WorkerHost::new(0, 1);
        for blob in [
            with_u64_at(8, 1 << 60),       // n
            with_u64_at(8, u64::MAX),      // n
            with_u64_at(16, 1 << 60),      // m
            with_u64_at(16, u64::MAX),     // m
            with_u64_at(24 + 8, u64::MAX), // offsets[1] > offsets[2]
            [&good[..], &[0]].concat(),    // trailing byte
        ] {
            match host.execute(&WorkerOp::LoadGraph { blob }) {
                WorkerReply::Err(msg) => assert!(msg.starts_with("LoadGraph: "), "{msg}"),
                other => panic!("hostile blob answered {other:?}"),
            }
            // Still serving: the next op gets its ordinary answer.
            let next = host.execute(&WorkerOp::InitSampler { sampler: SamplerKind::ReverseBfs, paired: false });
            assert_eq!(next, WorkerReply::Err("InitSampler before LoadGraph".into()));
        }
        assert_eq!(host.execute(&WorkerOp::LoadGraph { blob: good }), WorkerReply::Ok);
    }

    #[test]
    fn build_shard_serves_coverage_ops() {
        let mut host = WorkerHost::new(0, 1);
        let reply = host.execute(&WorkerOp::BuildShard {
            num_sets: 5,
            elements: vec![vec![0], vec![1, 2], vec![0, 2]],
        });
        assert_eq!(reply, WorkerReply::Ok);
        assert_eq!(
            host.execute(&WorkerOp::InitialCoverage),
            WorkerReply::Deltas(vec![(0, 2), (1, 1), (2, 2)])
        );
        assert_eq!(
            host.execute(&WorkerOp::Stats),
            WorkerReply::Stats(WorkerStats {
                num_elements: 3,
                total_size: 5,
                edges_examined: 0,
            })
        );
    }
}
