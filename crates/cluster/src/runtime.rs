//! The simulated cluster runtime — the in-process backend. Work reaches its
//! machines the way it reaches any backend's, as [`crate::WorkerOp`]
//! rounds; the closure step underneath its op interpreter is private.

use std::time::{Duration, Instant};

use crate::backend::ClusterBackend;
use crate::faults::{FaultInjector, LinkDecision};
use crate::metrics::{ClusterMetrics, PhaseTimeline};
use crate::network::NetworkModel;

/// How simulated machines execute their parallel phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Machines run one after another on the calling thread; each is timed
    /// individually and the phase is charged the maximum. Deterministic and
    /// the right choice on hosts with few cores (virtual-time simulation).
    Sequential,
    /// Machines run on real OS threads (`std::thread::scope`), capped at
    /// [`std::thread::available_parallelism`]: with ℓ machines on a c-core
    /// host, ⌈ℓ/c⌉ machines share each thread. Accounting is identical —
    /// each machine is timed on its own — but wall-clock time actually
    /// shrinks on multi-core hosts.
    Threads,
}

/// A master/worker cluster of `ℓ` simulated machines, each owning a worker
/// state `W` (its shard of the data).
///
/// This is the in-process implementation of [`ClusterBackend`]: phases
/// really execute (sequentially or on bounded OS threads, per
/// [`ExecMode`]), per-machine times feed a virtual clock
/// (`max` over machines per phase), and message bytes are priced through
/// the [`NetworkModel`]. All metrics accumulate in a phase-labeled
/// [`PhaseTimeline`].
pub struct SimCluster<W> {
    workers: Vec<W>,
    network: NetworkModel,
    mode: ExecMode,
    timeline: PhaseTimeline,
    /// Optional chaos layer: when set, every op round consults the
    /// injector (see [`crate::faults`]) — injected delay is charged to the
    /// round's phase in **virtual time** and killed machines stop
    /// answering (their ops surface as link errors instead of executing).
    faults: Option<FaultInjector>,
}

impl<W: Send> SimCluster<W> {
    /// Creates a cluster whose machine `i` owns `workers[i]`.
    ///
    /// # Panics
    /// Panics if `workers` is empty.
    pub fn new(workers: Vec<W>, network: NetworkModel, mode: ExecMode) -> Self {
        assert!(!workers.is_empty(), "cluster needs at least one machine");
        SimCluster {
            workers,
            network,
            mode,
            timeline: PhaseTimeline::new(),
            faults: None,
        }
    }

    /// Arms the chaos layer: subsequent op rounds replay `injector`'s
    /// schedule in virtual time (see [`crate::faults`]).
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Replaces (or clears) the armed fault injector.
    pub fn set_faults(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// The armed injector, if any — its event log is the observable for
    /// determinism tests.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Runs one chaos round against the armed injector, if any: decides
    /// every machine's link, charges the worst injected delay to `label`
    /// as communication time (the master waits for the slowest link in a
    /// star topology), advances the injector's round counter, and returns
    /// per-machine kill flags (`true` = this machine's link is dead and
    /// its op must not execute). `None` when no injector is armed.
    pub(crate) fn inject_round(&mut self, label: &'static str) -> Option<Vec<bool>> {
        let l = self.workers.len();
        let inj = self.faults.as_mut()?;
        let mut killed = vec![false; l];
        let mut worst = Duration::ZERO;
        for (i, flag) in killed.iter_mut().enumerate() {
            match inj.decide(i) {
                LinkDecision::Healthy { delay } => worst = worst.max(delay),
                LinkDecision::Killed => *flag = true,
            }
        }
        inj.next_round();
        if worst > Duration::ZERO {
            self.record(
                label,
                ClusterMetrics {
                    comm_time: worst,
                    ..Default::default()
                },
            );
        }
        Some(killed)
    }

    /// Consumes the cluster, returning the worker states.
    pub fn into_workers(self) -> Vec<W> {
        self.workers
    }

    /// Immutable view of the worker states, in machine order.
    pub fn workers(&self) -> &[W] {
        &self.workers
    }

    /// Runs `f(machine_id, worker)` on every machine "in parallel" and
    /// returns the per-machine results in machine order. Charges the phase
    /// `max_i(elapsed_i)` of worker compute time under `label`.
    pub(crate) fn par_step<R, F>(&mut self, label: &'static str, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut W) -> R + Sync,
    {
        let (results, times) = self.execute(f);
        let max = times.iter().copied().max().unwrap_or(Duration::ZERO);
        let sum: Duration = times.iter().sum();
        self.record(
            label,
            ClusterMetrics {
                worker_compute: max,
                worker_busy: sum,
                phases: 1,
                ..Default::default()
            },
        );
        results
    }

    /// Executes one parallel phase in the configured [`ExecMode`],
    /// returning per-machine results and per-machine times.
    fn execute<R, F>(&mut self, f: F) -> (Vec<R>, Vec<Duration>)
    where
        R: Send,
        F: Fn(usize, &mut W) -> R + Sync,
    {
        match self.mode {
            ExecMode::Sequential => {
                let mut results = Vec::with_capacity(self.workers.len());
                let mut times = Vec::with_capacity(self.workers.len());
                for (i, w) in self.workers.iter_mut().enumerate() {
                    let start = Instant::now();
                    results.push(f(i, w));
                    times.push(start.elapsed());
                }
                (results, times)
            }
            ExecMode::Threads => {
                let f = &f;
                let l = self.workers.len();
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                // Bound OS threads at the host's parallelism: chunk the ℓ
                // machines into ≤ cores contiguous runs, one thread each.
                let per = l.div_ceil(cores).max(1);
                let mut out: Vec<Option<(R, Duration)>> =
                    self.workers.iter().map(|_| None).collect();
                std::thread::scope(|scope| {
                    for (chunk_idx, (ws, slots)) in self
                        .workers
                        .chunks_mut(per)
                        .zip(out.chunks_mut(per))
                        .enumerate()
                    {
                        let base = chunk_idx * per;
                        scope.spawn(move || {
                            for (j, (w, slot)) in
                                ws.iter_mut().zip(slots.iter_mut()).enumerate()
                            {
                                let start = Instant::now();
                                let r = f(base + j, w);
                                *slot = Some((r, start.elapsed()));
                            }
                        });
                    }
                });
                let mut results = Vec::with_capacity(out.len());
                let mut times = Vec::with_capacity(out.len());
                for item in out {
                    let (r, t) = item.expect("worker thread completed");
                    results.push(r);
                    times.push(t);
                }
                (results, times)
            }
        }
    }
}

impl<W: Send> ClusterBackend for SimCluster<W> {
    fn num_machines(&self) -> usize {
        self.workers.len()
    }

    fn network(&self) -> NetworkModel {
        self.network
    }

    fn timeline(&self) -> &PhaseTimeline {
        &self.timeline
    }

    fn record(&mut self, label: &'static str, delta: ClusterMetrics) {
        self.timeline.record(label, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::phase;
    use crate::ops::{OpCluster, OpExecutor, WorkerOp, WorkerReply};
    use crate::wire::u64_wire_size;

    const STEP: &str = "step";

    fn cluster(l: usize) -> SimCluster<u64> {
        SimCluster::new(
            (0..l as u64).collect(),
            NetworkModel::zero(),
            ExecMode::Sequential,
        )
    }

    #[test]
    fn all_machines_run_par_step_in_order() {
        let mut c = cluster(4);
        let ids = c.par_step(STEP, |i, w| {
            *w += 10;
            (i, *w)
        });
        assert_eq!(ids, vec![(0, 10), (1, 11), (2, 12), (3, 13)]);
        assert_eq!(c.metrics().phases, 1);
        assert_eq!(c.timeline().get(STEP).phases, 1);
        assert_eq!(c.workers(), &[10, 11, 12, 13]);
    }

    #[test]
    fn threads_mode_matches_sequential_results() {
        let mut seq = cluster(4);
        let expected = seq.par_step(STEP, |i, w| *w * 2 + i as u64);
        let mut c = SimCluster::new((0..4u64).collect(), NetworkModel::zero(), ExecMode::Threads);
        let got = c.par_step(STEP, |i, w| *w * 2 + i as u64);
        assert_eq!(got, expected);
        assert_eq!(c.metrics().phases, 1);
    }

    #[test]
    fn threads_mode_bounded_handles_more_machines_than_cores() {
        // 64 machines must complete correctly regardless of core count;
        // the bounded implementation shares threads when ℓ > cores.
        let mut c = SimCluster::new(
            (0..64u64).collect(),
            NetworkModel::zero(),
            ExecMode::Threads,
        );
        let got = c.par_step(STEP, |i, w| {
            *w += 1;
            i as u64 + *w
        });
        let expected: Vec<u64> = (0..64u64).map(|i| 2 * i + 1).collect();
        assert_eq!(got, expected);
        assert_eq!(c.workers().len(), 64);
        assert_eq!(c.workers()[63], 64);
    }

    /// Answers every op with one count: its machine's value.
    struct Count(u64);

    impl OpExecutor for Count {
        fn execute(&mut self, _: &WorkerOp) -> WorkerReply {
            WorkerReply::Count(self.0)
        }
    }

    #[test]
    fn gather_accounts_traffic() {
        let mut c = SimCluster::new(
            (0..8).map(Count).collect(),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let replies = c.op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount);
        let counts: Vec<_> = (0..8).map(WorkerReply::Count).collect();
        assert_eq!(replies, Ok(counts));
        let m = c.metrics();
        assert_eq!(m.messages, 8);
        assert_eq!(m.bytes_to_master, 8 * u64_wire_size());
        // Tree collective over 8 machines: ⌈log₂ 9⌉ = 4 latency hops.
        assert!(m.comm_time >= Duration::from_micros(200));
        // The phase's compute and comm live under the same label.
        let labeled = c.timeline().get(phase::COUNT_UPLOAD);
        assert_eq!(labeled.messages, 8);
        assert_eq!(labeled.phases, 1);
    }

    #[test]
    fn broadcast_accounts_traffic() {
        let mut c = SimCluster::new(
            vec![0u64; 5],
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        c.broadcast(phase::SEED_BROADCAST, 40);
        let m = c.metrics();
        assert_eq!(m.bytes_from_master, 200);
        assert_eq!(m.messages, 5);
    }

    #[test]
    fn master_time_accumulates() {
        let mut c = cluster(1);
        let v = c.master(phase::SEED_SELECT, || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        assert_eq!(v, 49_995_000);
        assert!(c.metrics().master_compute > Duration::ZERO);
        assert!(c.timeline().get(phase::SEED_SELECT).master_compute > Duration::ZERO);
    }

    #[test]
    fn busy_at_least_compute() {
        let mut c = cluster(3);
        c.par_step(STEP, |_, w| {
            std::hint::black_box((0..50_000).fold(*w, |a, b| a ^ b))
        });
        let m = c.metrics();
        assert!(m.worker_busy >= m.worker_compute);
    }

    #[test]
    fn labels_accumulate_separately() {
        let mut c = cluster(2);
        c.par_step(phase::RR_SAMPLING, |_, _| ());
        c.par_step(phase::RR_SAMPLING, |_, _| ());
        c.par_step(phase::DELTA_UPLOAD, |_, w| *w);
        c.charge_upload(phase::DELTA_UPLOAD, 2, 24);
        assert_eq!(c.timeline().get(phase::RR_SAMPLING).phases, 2);
        assert_eq!(c.timeline().get(phase::DELTA_UPLOAD).phases, 1);
        assert_eq!(c.timeline().get(phase::DELTA_UPLOAD).bytes_to_master, 24);
        assert_eq!(c.metrics().phases, 3);
        let labels: Vec<_> = c.timeline().labels().collect();
        assert_eq!(labels, vec![phase::RR_SAMPLING, phase::DELTA_UPLOAD]);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_cluster() {
        SimCluster::<u64>::new(vec![], NetworkModel::zero(), ExecMode::Sequential);
    }
}
