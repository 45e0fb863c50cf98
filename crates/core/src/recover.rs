//! Straggler detection and speculative shard recovery (the chaos
//! subsystem's `dim-core` half).
//!
//! The paper's cost model assumes `ℓ` healthy machines; a real cluster
//! loses links mid-phase. [`RecoveringCluster`] wraps any [`OpCluster`]
//! and turns a *single-machine* link loss from fail-stop into a degraded
//! completion:
//!
//! * every op round goes through the partial-failure primitive
//!   ([`OpCluster::exec_ops_each`]), so one dead link never discards the
//!   survivors' replies;
//! * the lost machine's worker is **speculatively re-executed** on the
//!   master: a fresh `DiimmWorker` is built for it and the full op log is
//!   replayed against it.
//!   Because RR set `j` of machine `i` is always drawn from the dedicated
//!   stream `rr_set_seed(stream_seed(seed, i), j)` (see
//!   [`DiimmWorker::generate`]), the replayed shard is *byte-identical*
//!   to the one the dead machine held — so seeds and marginals match a
//!   fault-free run exactly, which `tests/backend_equivalence.rs` asserts;
//! * the run keeps going only while a quorum survives
//!   ([`RecoveryPolicy::min_survivors`]); past that the loss surfaces as
//!   the original typed [`WireError`] — recovery never masks a partition
//!   that could split the cluster's view.
//!
//! Straggler detection rides on the same seam: every round's observed
//! time (virtual for [`dim_cluster::SimCluster`], wall-clock for the TCP
//! backends) is checked against [`RecoveryPolicy::straggler_deadline`]
//! and logged as a [`StragglerEvent`] — the run is *not* aborted, the
//! events surface in the typed [`DegradedOutcome`] so harnesses can see
//! which phases blew their deadline.

use std::time::Duration;

use dim_cluster::{
    ClusterBackend, ClusterMetrics, NetworkModel, OpCluster, OpExecutor, PhaseTimeline, WireError,
    WireErrorKind, WorkerOp, WorkerReply,
};
use dim_graph::Graph;

use crate::config::{ImConfig, ImResult};
use crate::diimm::{diimm_on, DiimmWorker};

/// When recovery may proceed and when a round counts as straggling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Minimum machines that must still answer for speculative recovery
    /// to run; `0` means a strict majority of the original `ℓ`. Below
    /// the quorum the loss is surfaced as the original link error.
    pub min_survivors: usize,
    /// An op round observed to take longer than this is logged as a
    /// [`StragglerEvent`]. `Duration::MAX` disables detection.
    pub straggler_deadline: Duration,
}

impl RecoveryPolicy {
    /// Majority quorum, no straggler deadline; lost shards are re-sampled.
    pub fn resample() -> Self {
        RecoveryPolicy {
            min_survivors: 0,
            straggler_deadline: Duration::MAX,
        }
    }

    fn quorum(&self, machines: usize) -> usize {
        if self.min_survivors == 0 {
            machines / 2 + 1
        } else {
            self.min_survivors
        }
    }
}

/// One op round that exceeded the straggler deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StragglerEvent {
    /// Phase label of the slow round.
    pub phase: &'static str,
    /// Observed round time (virtual on sim, wall-clock on TCP backends).
    pub observed: Duration,
    /// The deadline it exceeded.
    pub deadline: Duration,
}

/// What degraded about a recovered run — absent entirely when the run
/// was fault-free.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradedOutcome {
    /// Machines whose links died and whose shards were rebuilt, in
    /// adoption order.
    pub lost: Vec<usize>,
    /// Rounds that exceeded the straggler deadline.
    pub stragglers: Vec<StragglerEvent>,
    /// RR sets resident in rebuilt shards right after adoption (the
    /// speculative re-execution volume).
    pub rebuilt_sets: u64,
}

/// A run result plus its typed degradation record.
#[derive(Clone, Debug)]
pub struct RecoveredRun {
    /// The algorithm outcome — byte-identical to a fault-free run when
    /// every loss was recoverable.
    pub result: ImResult,
    /// `None` for a clean run; otherwise what was lost and rebuilt.
    pub degraded: Option<DegradedOutcome>,
}

/// An [`OpCluster`] adapter that survives single-machine link loss by
/// speculative shard re-execution (see the module docs).
///
/// The wrapper logs every op it issues, so it must own the cluster from
/// the first post-setup op round onward: a rebuilt worker starts fresh,
/// so no op may have run before wrapping.
pub struct RecoveringCluster<'g, C: OpCluster> {
    inner: C,
    graph: &'g Graph,
    config: ImConfig,
    policy: RecoveryPolicy,
    /// Every op round issued through this wrapper: `log[r][i]` is the op
    /// machine `i` ran in round `r`. Replaying a machine's column over a
    /// fresh worker reproduces its resident state exactly.
    log: Vec<Vec<WorkerOp>>,
    /// Rebuilt workers serving lost machines, in machine order.
    adopted: Vec<Option<DiimmWorker<'g>>>,
    lost: Vec<usize>,
    stragglers: Vec<StragglerEvent>,
    rebuilt_sets: u64,
    last_elapsed: Duration,
}

impl<'g, C: OpCluster> RecoveringCluster<'g, C> {
    /// Wraps `inner`, whose machines must be fresh workers in machine
    /// order.
    pub fn new(inner: C, graph: &'g Graph, config: &ImConfig, policy: RecoveryPolicy) -> Self {
        let machines = inner.num_machines();
        let last_elapsed = inner.timeline().total().elapsed();
        RecoveringCluster {
            inner,
            graph,
            config: *config,
            policy,
            log: Vec::new(),
            adopted: (0..machines).map(|_| None).collect(),
            lost: Vec::new(),
            stragglers: Vec::new(),
            rebuilt_sets: 0,
            last_elapsed,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Machines lost and adopted so far, in adoption order.
    pub fn lost(&self) -> &[usize] {
        &self.lost
    }

    /// Straggler events observed so far.
    pub fn stragglers(&self) -> &[StragglerEvent] {
        &self.stragglers
    }

    /// The typed degradation record, `None` when nothing degraded.
    pub fn degraded_outcome(&self) -> Option<DegradedOutcome> {
        if self.lost.is_empty() && self.stragglers.is_empty() {
            return None;
        }
        Some(DegradedOutcome {
            lost: self.lost.clone(),
            stragglers: self.stragglers.clone(),
            rebuilt_sets: self.rebuilt_sets,
        })
    }

    /// Rebuilds machine `i`'s worker fresh and replays every logged round
    /// *before* the current one (the caller then executes the current op
    /// to produce the round's reply). Per-set RNG streams make the
    /// replayed shard byte-identical to the lost one.
    fn rebuild(&self, i: usize) -> DiimmWorker<'g> {
        let mut worker = DiimmWorker::new(self.graph, &self.config, i);
        for round in &self.log[..self.log.len() - 1] {
            worker.execute(&round[i]);
        }
        worker
    }

    /// One op round with recovery: issue to the inner backend, adopt any
    /// newly lost machine (quorum permitting), serve adopted machines'
    /// ops locally, and check the straggler deadline.
    fn exec_round(
        &mut self,
        down_label: Option<&'static str>,
        up_label: &'static str,
        ops: Vec<WorkerOp>,
    ) -> Result<Vec<WorkerReply>, WireError> {
        self.log.push(ops);
        let ops = self.log.last().expect("just pushed");
        let results = self
            .inner
            .exec_ops_each(down_label, up_label, |i| ops[i].clone());
        let quorum = self.policy.quorum(self.inner.num_machines());
        let mut out = Vec::with_capacity(results.len());
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(reply) => out.push(reply),
                Err(e) if e.kind == WireErrorKind::Link => {
                    if self.adopted[i].is_none() {
                        let survivors = self.inner.num_machines() - self.lost.len() - 1;
                        if survivors < quorum {
                            return Err(e);
                        }
                        let worker = self.rebuild(i);
                        self.rebuilt_sets += worker.shard.num_elements() as u64;
                        self.adopted[i] = Some(worker);
                        self.lost.push(i);
                    }
                    let op = self.log.last().expect("just pushed")[i].clone();
                    let worker = self.adopted[i].as_mut().expect("adopted above");
                    match worker.execute(&op) {
                        WorkerReply::Err(_) => {
                            return Err(WireError::malformed(up_label, i));
                        }
                        reply => out.push(reply),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if self.policy.straggler_deadline < Duration::MAX {
            let elapsed = self.inner.timeline().total().elapsed();
            let observed = elapsed.saturating_sub(self.last_elapsed);
            self.last_elapsed = elapsed;
            if observed > self.policy.straggler_deadline {
                self.stragglers.push(StragglerEvent {
                    phase: up_label,
                    observed,
                    deadline: self.policy.straggler_deadline,
                });
            }
        }
        Ok(out)
    }
}

impl<'g, C: OpCluster> ClusterBackend for RecoveringCluster<'g, C> {
    fn num_machines(&self) -> usize {
        self.inner.num_machines()
    }

    fn network(&self) -> NetworkModel {
        self.inner.network()
    }

    fn timeline(&self) -> &PhaseTimeline {
        self.inner.timeline()
    }

    fn record(&mut self, label: &'static str, delta: ClusterMetrics) {
        self.inner.record(label, delta);
    }
}

impl<'g, C: OpCluster> OpCluster for RecoveringCluster<'g, C> {
    /// A recovered round either serves every machine or fails as a whole,
    /// so a failure is reported for every machine.
    fn exec_ops_each<F>(
        &mut self,
        down_label: Option<&'static str>,
        up_label: &'static str,
        op: F,
    ) -> Vec<Result<WorkerReply, WireError>>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        let l = self.inner.num_machines();
        match self.exec_round(down_label, up_label, (0..l).map(op).collect()) {
            Ok(replies) => replies.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e); l],
        }
    }
}

/// Runs DiIMM on `cluster` under `policy`: [`crate::diimm::diimm_on`]
/// wrapped in a [`RecoveringCluster`], returning the result with its
/// typed degradation record. Every machine must be a fresh worker, in
/// machine order.
pub fn diimm_on_recovering<C: OpCluster>(
    cluster: C,
    graph: &Graph,
    config: &ImConfig,
    incremental: bool,
    policy: RecoveryPolicy,
) -> Result<RecoveredRun, WireError> {
    let mut recovering = RecoveringCluster::new(cluster, graph, config, policy);
    let result = diimm_on(&mut recovering, graph, config, incremental)?;
    Ok(RecoveredRun {
        result,
        degraded: recovering.degraded_outcome(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use dim_cluster::{ExecMode, FaultInjector, FaultPlan, LinkFault, SimCluster};
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::{barabasi_albert, erdos_renyi};
    use dim_graph::WeightModel;

    use crate::config::SamplerKind;
    use crate::diimm::diimm;

    fn config(k: usize, seed: u64) -> ImConfig {
        ImConfig {
            k,
            epsilon: 0.5,
            delta: 0.1,
            seed,
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
        }
    }

    fn sim_with_kill<'g>(
        graph: &'g Graph,
        cfg: &ImConfig,
        machines: usize,
        victim: u32,
        round: u64,
    ) -> SimCluster<DiimmWorker<'g>> {
        let workers: Vec<DiimmWorker> = (0..machines)
            .map(|i| DiimmWorker::new(graph, cfg, i))
            .collect();
        SimCluster::new(workers, NetworkModel::zero(), ExecMode::Sequential)
            .with_faults(FaultInjector::new(FaultPlan::kill_machine(victim, round), machines))
    }

    #[test]
    fn single_kill_recovers_byte_identically() {
        let g = erdos_renyi(250, 1200, WeightModel::WeightedCascade, 4);
        let cfg = config(5, 23);
        let healthy = diimm(&g, &cfg, 4, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        for (victim, round) in [(0u32, 0u64), (2, 1), (3, 4)] {
            let cluster = sim_with_kill(&g, &cfg, 4, victim, round);
            let run =
                diimm_on_recovering(cluster, &g, &cfg, true, RecoveryPolicy::resample()).unwrap();
            assert_eq!(run.result.seeds, healthy.seeds, "victim {victim} round {round}");
            assert_eq!(run.result.marginals, healthy.marginals);
            assert_eq!(run.result.num_rr_sets, healthy.num_rr_sets);
            assert_eq!(run.result.total_rr_size, healthy.total_rr_size);
            assert_eq!(run.result.edges_examined, healthy.edges_examined);
            let degraded = run.degraded.expect("a machine was lost");
            assert_eq!(degraded.lost, vec![victim as usize]);
            assert!(degraded.rebuilt_sets > 0 || round == 0);
        }
    }

    #[test]
    fn clean_run_reports_no_degradation() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 7);
        let cfg = config(3, 11);
        let workers: Vec<DiimmWorker> = (0..3).map(|i| DiimmWorker::new(&g, &cfg, i)).collect();
        let cluster = SimCluster::new(workers, NetworkModel::zero(), ExecMode::Sequential);
        let run = diimm_on_recovering(cluster, &g, &cfg, true, RecoveryPolicy::resample()).unwrap();
        assert!(run.degraded.is_none());
        let healthy = diimm(&g, &cfg, 3, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        assert_eq!(run.result.seeds, healthy.seeds);
        assert_eq!(run.result.marginals, healthy.marginals);
    }

    #[test]
    fn quorum_loss_fails_stop_with_typed_error() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 9);
        let cfg = config(3, 13);
        let workers: Vec<DiimmWorker> = (0..2).map(|i| DiimmWorker::new(&g, &cfg, i)).collect();
        let mut plan = FaultPlan::kill_machine(0, 0);
        plan.link_faults.push(LinkFault {
            machine: 1,
            kill_at_round: Some(0),
            ..LinkFault::default()
        });
        let cluster = SimCluster::new(workers, NetworkModel::zero(), ExecMode::Sequential)
            .with_faults(FaultInjector::new(plan, 2));
        // ℓ = 2, majority quorum = 2: losing both machines (even one!)
        // leaves fewer survivors than the quorum — typed link error.
        let err = diimm_on_recovering(cluster, &g, &cfg, true, RecoveryPolicy::resample())
            .unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Link);
    }

    #[test]
    fn min_survivors_one_recovers_two_losses() {
        let g = barabasi_albert(200, 3, WeightModel::WeightedCascade, 5);
        let cfg = config(4, 17);
        let healthy = diimm(&g, &cfg, 3, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        let workers: Vec<DiimmWorker> = (0..3).map(|i| DiimmWorker::new(&g, &cfg, i)).collect();
        let mut plan = FaultPlan::kill_machine(0, 1);
        plan.link_faults.push(LinkFault {
            machine: 2,
            kill_at_round: Some(3),
            ..LinkFault::default()
        });
        let cluster = SimCluster::new(workers, NetworkModel::zero(), ExecMode::Sequential)
            .with_faults(FaultInjector::new(plan, 3));
        let policy = RecoveryPolicy {
            min_survivors: 1,
            ..RecoveryPolicy::resample()
        };
        let run = diimm_on_recovering(cluster, &g, &cfg, true, policy.clone()).unwrap();
        assert_eq!(run.result.seeds, healthy.seeds);
        assert_eq!(run.result.marginals, healthy.marginals);
        let degraded = run.degraded.expect("two machines were lost");
        assert_eq!(degraded.lost, vec![0, 2]);

        // Down to the last machine: ℓ = 2 samples four rounds of ⌈400/4⌉
        // sets and loses machine 1 on the last, so the survivor rebuilds
        // exactly the 3 × 100 sets the victim held.
        let workers: Vec<DiimmWorker> = (0..2).map(|i| DiimmWorker::new(&g, &cfg, i)).collect();
        let sim = SimCluster::new(workers, NetworkModel::zero(), ExecMode::Sequential)
            .with_faults(FaultInjector::new(FaultPlan::kill_machine(1, 3), 2));
        let mut cluster = RecoveringCluster::new(sim, &g, &cfg, policy);
        for _ in 0..4 {
            cluster
                .control(dim_cluster::phase::RR_SAMPLING, |_| WorkerOp::SampleRr { count: 100 })
                .unwrap();
        }
        let degraded = cluster.degraded_outcome().expect("machine 1 was lost");
        assert_eq!(degraded.lost, vec![1]);
        assert_eq!(degraded.rebuilt_sets, 300, "replay rebuilds the whole shard");
    }

    #[test]
    fn straggler_deadline_logs_events_without_aborting() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 19);
        let cfg = config(3, 37);
        let workers: Vec<DiimmWorker> = (0..3).map(|i| DiimmWorker::new(&g, &cfg, i)).collect();
        // Every round on machine 2's link takes +50ms of virtual time; a
        // 1ms deadline flags every op round as straggling.
        let mut plan = FaultPlan {
            chaos_seed: 99,
            ..FaultPlan::default()
        };
        plan.link_faults.push(LinkFault {
            machine: 2,
            extra_latency_us: 50_000,
            ..LinkFault::default()
        });
        let cluster = SimCluster::new(workers, NetworkModel::zero(), ExecMode::Sequential)
            .with_faults(FaultInjector::new(plan, 3));
        let policy = RecoveryPolicy {
            straggler_deadline: Duration::from_millis(1),
            ..RecoveryPolicy::resample()
        };
        let run = diimm_on_recovering(cluster, &g, &cfg, true, policy).unwrap();
        let healthy = diimm(&g, &cfg, 3, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        assert_eq!(run.result.seeds, healthy.seeds, "delay never diverges results");
        let degraded = run.degraded.expect("stragglers were observed");
        assert!(degraded.lost.is_empty());
        assert!(!degraded.stragglers.is_empty());
        let ev = degraded.stragglers[0];
        assert!(ev.observed >= Duration::from_millis(50));
        assert_eq!(ev.deadline, Duration::from_millis(1));
    }
}
