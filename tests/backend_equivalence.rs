//! Backend equivalence: every backend is an *execution strategy*, never an
//! *algorithm change*. Every framework depends only on the per-machine RNG
//! streams, so the simulator's thread pool, worker processes (`proc`) and
//! registered workers (`join`) must each return the sequential simulator's
//! run bit for bit, at every machine count. One matrix, a column of cases
//! per backend and its ℓ set (`matrix!`), and one loop ([`assert_cell`])
//! state that contract: each (case, backend, ℓ) run's [`RunRecord`] equals
//! the sequential simulator's, and the backend's own invariants hold.

use std::net::SocketAddr;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dim::dim_cluster::rendezvous::{self, JoinOptions};
use dim::dim_cluster::{Backend, WireError};
use dim::prelude::*;

mod run_record;
use run_record::{assert_same, RunRecord};

const IC: SamplerKind = SamplerKind::Standard(DiffusionModel::IndependentCascade);
const RBFS: SamplerKind = SamplerKind::ReverseBfs;

/// One framework run the matrix holds to the contract.
#[derive(Clone, Copy)]
enum Case {
    /// DiIMM with this sampler, with §III-C incremental coverage reporting
    /// (`true`) or the full re-upload ablation (`false`).
    Diimm(SamplerKind, bool),
    /// OPIM-C or SSA over paired collections.
    Paired(PairedRule),
    /// NewGreeDi over element shards.
    NewGreedi,
    /// GreeDi (`None`) or RandGreeDi (its partition shuffle seed) over set shards.
    Greedi(Option<u64>),
}

/// A case's input: its graph, run parameters and neighbourhood coverage instance.
struct Input {
    g: Graph,
    config: ImConfig,
    problem: CoverageProblem,
}

impl Case {
    /// DiIMM and the paired frameworks sample Facebook(0.1) at k = 6,
    /// ε = 0.4; NewGreeDi and GreeDi cover Facebook(0.15)'s
    /// neighbourhoods at k = κ = 12.
    fn input(self) -> Input {
        let covers = matches!(self, Case::NewGreedi | Case::Greedi(_));
        let (scale, seed, k) = if covers { (0.15, 3, 12) } else { (0.1, 11, 6) };
        let g = DatasetProfile::Facebook.generate(scale, seed);
        let mut config = ImConfig {
            k,
            ..ImConfig::paper_defaults(&g, 0.4, 29)
        };
        if let Case::Diimm(sampler, _) = self {
            config.sampler = sampler;
        }
        let problem = CoverageProblem::from_graph_neighborhoods(&g);
        Input { g, config, problem }
    }

    /// The case on `cluster`, whose machines hold its state: the record
    /// and the cluster's timeline.
    fn run<C: OpCluster>(self, input: &Input, cluster: &mut C) -> (RunRecord, PhaseTimeline) {
        let Input { g, config, problem } = input;
        let (k, l) = (config.k, cluster.num_machines());
        let record = match self {
            Case::Diimm(_, inc) => (&diimm_on(cluster, g, config, inc).unwrap()).into(),
            Case::Paired(rule) => {
                (&paired_on(cluster, g.num_nodes(), config, rule).unwrap()).into()
            }
            Case::NewGreedi => {
                let r = newgreedi_with(cluster, problem.num_sets(), k).unwrap();
                (&r, cluster.timeline()).into()
            }
            Case::Greedi(shuffle) => {
                let r = greedi(cluster, &problem.shard_sets(l, shuffle).1, k, k).unwrap();
                (&r, cluster.timeline()).into()
            }
        };
        (record, cluster.timeline().clone())
    }

    /// The case on the simulator at ℓ machines, through the framework's
    /// own entry point. The simulator models traffic and measures none.
    fn simulate(self, input: &Input, l: usize, mode: ExecMode) -> RunRecord {
        let Input { g, config, problem } = input;
        let net = NetworkModel::cluster_1gbps();
        let im = |r: Result<ImResult, WireError>| {
            let r = r.unwrap();
            (RunRecord::from(&r), r.timeline)
        };
        let sim = |shards| SimCluster::new(shards, net, mode);
        let (record, timeline) = match self {
            Case::Diimm(_, inc) => im(diimm_with_options(g, config, l, net, mode, inc)),
            Case::Paired(PairedRule::OpimC) => im(dopim_c(g, config, l, net, mode)),
            Case::Paired(PairedRule::Ssa) => im(dssa(g, config, l, net, mode)),
            Case::NewGreedi => self.run(input, &mut sim(problem.shard_elements(l))),
            Case::Greedi(shuffle) => self.run(input, &mut sim(problem.shard_sets(l, shuffle).0)),
        };
        assert_eq!(timeline.total().measured_comm, Duration::ZERO);
        record
    }

    /// The case over a TCP cluster whose machines start empty: setup
    /// rounds install its state, then it runs through a [`RunView`], so
    /// the record and the timeline returned hold the run's rounds alone.
    fn over(self, input: &Input, cluster: &mut ProcCluster) -> (RunRecord, PhaseTimeline) {
        let Input { g, config, problem } = input;
        let l = cluster.num_machines();
        match self {
            Case::Diimm(sampler, _) => setup_im_cluster(cluster, g, sampler, false).unwrap(),
            Case::Paired(_) => setup_im_cluster(cluster, g, config.sampler, true).unwrap(),
            Case::NewGreedi => build_shards(cluster, &problem.shard_elements(l)),
            Case::Greedi(shuffle) => build_shards(cluster, &problem.shard_sets(l, shuffle).0),
        }
        self.run(input, &mut RunView(cluster, PhaseTimeline::new()))
    }
}

/// Ships each machine its coverage shard (`BuildShard`, no modeled
/// traffic).
fn build_shards(cluster: &mut ProcCluster, shards: &[CoverageShard]) {
    let replies = cluster
        .control(phase::SETUP, |i| WorkerOp::BuildShard {
            num_sets: shards[i].num_sets() as u32,
            elements: shards[i].elements().iter().map(<[u32]>::to_vec).collect(),
        })
        .unwrap();
    dim::dim_cluster::ops::expect_ok(&replies, phase::SETUP).unwrap();
}

/// A TCP cluster seen from the start of a run. Every round runs on the
/// cluster; the view keeps a timeline of its own, so the setup rounds and
/// the join rendezvous before it, which the simulator's entry points never
/// run, stay out of the run's phases and labels.
struct RunView<'c>(&'c mut ProcCluster, PhaseTimeline);

impl ClusterBackend for RunView<'_> {
    fn num_machines(&self) -> usize {
        self.0.num_machines()
    }

    fn network(&self) -> NetworkModel {
        self.0.network()
    }

    fn timeline(&self) -> &PhaseTimeline {
        &self.1
    }

    fn record(&mut self, label: &'static str, delta: ClusterMetrics) {
        self.1.record(label, delta);
    }
}

impl OpCluster for RunView<'_> {
    fn exec_ops_each<F>(
        &mut self,
        down_label: Option<&'static str>,
        up_label: &'static str,
        op: F,
    ) -> Vec<Result<WorkerReply, WireError>>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        let before = self.0.timeline().clone();
        let replies = self.0.exec_ops_each(down_label, up_label, op);
        for (label, m) in self.0.timeline().iter() {
            let delta = m.since(&before.get(label));
            if delta != ClusterMetrics::default() {
                self.1.record(label, delta);
            }
        }
        replies
    }
}

/// Every phase that models byte movement must also have measured real
/// transfer time on the process backend (rounds that model no bytes still
/// measure their op traffic, so only modeled→measured is an invariant).
/// The paired frameworks' `validation` round is exempt: it uploads one
/// count per machine after a long computation, and the backend measures
/// receive time as wall time minus the slowest worker's compute, which
/// reads zero when that compute began before the send returned.
fn assert_measured_transfers(timeline: &PhaseTimeline, context: &str) {
    let mut moved_any = false;
    for (label, m) in timeline.iter() {
        if m.total_bytes() > 0 && label != phase::VALIDATION {
            moved_any = true;
            assert!(
                m.measured_comm > Duration::ZERO,
                "{context}: phase {label} moved {} B without measured transfer time",
                m.total_bytes()
            );
        }
    }
    assert!(moved_any, "{context}: no phase moved bytes");
}

fn proc_cluster(machines: usize, seed: u64) -> ProcCluster {
    ProcCluster::spawn(machines, NetworkModel::cluster_1gbps(), seed)
        .expect("spawn dim-worker processes")
}

fn join_config(machines: usize) -> JoinConfig {
    let mut config = JoinConfig::new(machines);
    config.join_timeout = Duration::from_secs(30);
    config
}

/// Pre-starts ℓ loopback join workers on threads, each pinned to its
/// machine id and serving `sessions` consecutive sessions with one
/// long-lived [`WorkerHost`] — the deployment shape of
/// `dim-worker --connect ADDR --join`.
fn start_workers(addr: SocketAddr, l: usize, sessions: usize) -> Vec<JoinHandle<Vec<SessionEnd>>> {
    (0..l)
        .map(|id| {
            thread::spawn(move || {
                let opts = JoinOptions {
                    requested: Some(id as u32),
                    deadline: Some(Duration::from_secs(30)),
                };
                let mut host: Option<WorkerHost> = None;
                let mut ends = Vec::new();
                for _ in 0..sessions {
                    let session =
                        rendezvous::run_join_worker(&addr.to_string(), &opts, |welcome| {
                            let (id, seed) = (welcome.machine_id as usize, welcome.master_seed);
                            let host = host.get_or_insert_with(|| WorkerHost::new(id, seed));
                            host.reset_session(id, seed);
                            host
                        })
                        .expect("join worker serves its session");
                    ends.push(session.end);
                }
                ends
            })
        })
        .collect()
}

fn accept(rendezvous: &mut Rendezvous, seed: u64) -> ProcCluster {
    rendezvous
        .accept_session(NetworkModel::cluster_1gbps(), seed)
        .expect("loopback join workers assemble in time")
}

/// `case` on `backend` at ℓ machines, after the backend's own checks: one
/// record per run, each with its context.
fn run_on(case: Case, input: &Input, backend: &str, l: usize) -> Vec<(String, RunRecord)> {
    let context = format!("on {backend}, ℓ = {l}");
    match Backend::parse(backend).unwrap() {
        Backend::Sim(mode) => vec![(context, case.simulate(input, l, mode))],
        Backend::Tcp { spawn: true } => {
            let mut cluster = proc_cluster(l, input.config.seed);
            let (record, timeline) = case.over(input, &mut cluster);
            assert_measured_transfers(&timeline, &context);
            assert_eq!(cluster.link_errors(), 0, "{context}");
            vec![(context, record)]
        }
        Backend::Tcp { spawn: false } => join_runs(case, input, l, 1),
    }
}

/// `case` over `sessions` consecutive sessions of ℓ registered workers,
/// after each session's checks: one record per session.
fn join_runs(case: Case, input: &Input, l: usize, sessions: u64) -> Vec<(String, RunRecord)> {
    let mut rendezvous = Rendezvous::bind("127.0.0.1:0", join_config(l)).unwrap();
    let workers = start_workers(rendezvous.local_addr().unwrap(), l, sessions as usize);
    let runs = (1..=sessions)
        .map(|session| {
            let context = format!("on join, ℓ = {l}, session {session}");
            let mut cluster = accept(&mut rendezvous, input.config.seed);
            assert_eq!(cluster.session_id(), session, "{context}");
            // Rendezvous is bookkeeping, not traffic.
            let rdv = cluster.timeline().get(phase::RENDEZVOUS);
            let quiet = rdv.master_compute > Duration::ZERO && rdv.total_bytes() == 0;
            assert!(quiet, "{context}: no zero-traffic rendezvous phase");
            let (record, _) = case.over(input, &mut cluster);
            assert_eq!(cluster.link_errors(), 0, "{context}");
            (context, record)
        })
        .collect();
    // Each session's Shutdown op releases the workers.
    let shutdowns = vec![SessionEnd::Shutdown; sessions as usize];
    for w in workers {
        assert_eq!(w.join().unwrap(), shutdowns, "join, ℓ = {l}");
    }
    runs
}

/// One matrix cell: each of `cases` on `backend` (a `--backend` name) at each of
/// `counts` machines, each run's record equal to the sequential simulator's.
fn assert_cell(name: &str, backend: &str, counts: &[usize], cases: &[(&str, Case)]) {
    for &(label, case) in cases {
        let input = case.input();
        for &l in counts {
            let want = case.simulate(&input, l, ExecMode::Sequential);
            assert_eq!(want.seeds.len(), input.config.k, "{name} {label}, ℓ = {l}");
            for (context, got) in run_on(case, &input, backend, l) {
                assert_same(&got, &want, &format!("{name} {label} {context}"));
            }
        }
    }
}

/// One column of the matrix: a backend, the machine counts it runs at and its
/// cells, one `#[test]` each, which together list every case.
macro_rules! matrix {
    ($backend:literal at $counts:expr; $($name:ident: $($case:expr),+;)*) => {$(
        #[test]
        fn $name() {
            let cases = [$((stringify!($case), $case)),+];
            assert_cell(stringify!($name), $backend, &$counts, &cases);
        }
    )*};
}

matrix! { "threads" at [1, 2, 4, 8];
    diimm_identical_across_backends: Case::Diimm(IC, true), Case::Diimm(IC, false);
    diimm_reverse_bfs_identical_across_backends: Case::Diimm(RBFS, true), Case::Diimm(RBFS, false);
    paired_frameworks_identical_across_backends:
        Case::Paired(PairedRule::OpimC), Case::Paired(PairedRule::Ssa);
    newgreedi_identical_across_backends: Case::NewGreedi;
    greedi_identical_across_backends: Case::Greedi(None), Case::Greedi(Some(7));
}

/// The answer and the sampling work of `r`, its traffic left out: for runs
/// that reach the same answer over other rounds (a restored selection, a
/// recovered run).
fn answer(r: impl Into<RunRecord>) -> RunRecord {
    RunRecord {
        bytes_to_master: 0,
        bytes_from_master: 0,
        messages: 0,
        phases: 0,
        labels: Vec::new(),
        ..r.into()
    }
}

/// The fault-free DiIMM answer on the sequential simulator at ℓ machines.
fn fault_free(input: &Input, l: usize) -> RunRecord {
    answer(Case::Diimm(IC, true).simulate(input, l, ExecMode::Sequential))
}

/// A fresh, empty store root for `tag`, private to this process.
fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("dim-equiv-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// Persisted sketches are an execution path of their own:
/// `diimm_sample_generation` (run + commit every machine's shard as a
/// generation) followed by `StreamSession::open` + `select` (restore +
/// reselect, no sampling — what `dim im --load-rr` runs) must reproduce
/// the direct run's answer bit for bit — seeds, marginals, coverage, θ,
/// RR-set mass, sampling work and the spread estimate — at every
/// machine count, and the restored selection must itself be
/// mode-independent.
#[test]
fn snapshot_roundtrip_matches_direct_run() {
    let Input { g, config, .. } = &Case::Diimm(IC, true).input();
    let (net, seq) = (NetworkModel::cluster_1gbps(), ExecMode::Sequential);
    for machines in [1usize, 2, 4] {
        let root = temp_root(&format!("snapshot-{machines}"));
        let reference = diimm(g, config, machines, net, seq).unwrap();
        let (_, sampled) =
            diimm_sample_generation(g, config, machines, net, seq, &root, 1).unwrap();
        assert_same(
            &answer(&sampled),
            &answer(&reference),
            &format!("ℓ = {machines}"),
        );
        for mode in [ExecMode::Sequential, ExecMode::Threads] {
            let mut session = StreamSession::open(g, config, &root, net, mode).unwrap();
            let r = session.select().unwrap();
            let ctx = format!("ℓ = {machines}, {mode:?}");
            assert_same(&answer(&r), &answer(&reference), &ctx);
            assert_eq!(r.est_spread, reference.est_spread, "{ctx}");
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Edge-stream repair is an execution path, never an algorithm change:
/// applying a delta batch and repairing only the touched RR sets must be
/// byte-identical — seeds *and* marginals — to throwing the sketch away
/// and re-sampling the mutated graph from scratch with the same per-set
/// RNG streams, at every machine count, on the simulated and the process
/// backend alike.
mod stream {
    use super::*;
    use dim_core::diimm::DiimmWorker;

    const STREAM_MACHINE_COUNTS: [usize; 3] = [1, 2, 4];

    /// Two chained batches over real edges of `g`: the first deletes an
    /// existing edge and inserts a fresh one, the second reweights
    /// another existing edge and deletes the fresh insert again.
    fn chained_batches(g: &Graph) -> [Vec<EdgeOp>; 2] {
        let n = g.num_nodes() as u32;
        let mut edges = g.edges();
        let (u1, v1, _) = edges.next().expect("graph has edges");
        let (u2, v2, _) = edges.next().expect("graph has two edges");
        let (iu, iv) = ((u1 + 1) % n, (u1 + 2) % n);
        [
            vec![
                EdgeOp::Delete { u: u1, v: v1 },
                EdgeOp::Insert {
                    u: iu,
                    v: iv,
                    p: 0.3,
                },
            ],
            vec![
                EdgeOp::Reweight {
                    u: u2,
                    v: v2,
                    p: 0.7,
                },
                EdgeOp::Delete { u: iu, v: iv },
            ],
        ]
    }

    /// Ground truth: sample `counts[i]` RR sets per machine from scratch
    /// on `g` (same master seed → same per-set streams) and select.
    fn select_from_scratch(g: &Graph, config: &ImConfig, counts: &[u64]) -> (Vec<u32>, Vec<u64>) {
        let workers: Vec<DiimmWorker> = counts
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let mut w = DiimmWorker::new(g, config, i);
                w.generate(count as usize);
                w
            })
            .collect();
        let mut cluster =
            SimCluster::new(workers, NetworkModel::cluster_1gbps(), ExecMode::Sequential);
        let r = dim_coverage::newgreedi_with(&mut cluster, g.num_nodes(), config.k).unwrap();
        (r.seeds, r.marginals)
    }

    /// Each stored shard's RR-set count.
    fn stored_counts(g: &Graph, config: &ImConfig, root: &std::path::Path) -> Vec<u64> {
        let (_, snapshot) = load_latest_rr_snapshot(g, config, root).unwrap();
        snapshot
            .shards
            .iter()
            .map(|s| s.header.num_elements)
            .collect()
    }

    /// Incremental apply + select over a persisted chain equals a full
    /// re-sample of the final graph, and a fresh session restored from
    /// the committed chain agrees byte for byte.
    #[test]
    fn stream_repair_matches_full_resample_sim() {
        let Input { g, config, .. } = &Case::Diimm(IC, true).input();
        let batches = chained_batches(g);
        let (net, seq) = (NetworkModel::cluster_1gbps(), ExecMode::Sequential);
        for machines in STREAM_MACHINE_COUNTS {
            let root = temp_root(&format!("stream-{machines}"));
            diimm_sample_generation(g, config, machines, net, seq, &root, 8).unwrap();
            let counts = stored_counts(g, config, &root);

            let mut session = StreamSession::open(g, config, &root, net, seq).unwrap();
            let mut tip = g.clone();
            for ops in &batches {
                let applied = session.apply(ops.clone(), true, 8).unwrap();
                assert!(
                    applied.sets_repaired > 0,
                    "ℓ = {machines}: repaired nothing"
                );
                tip = apply_batch(&tip, &DeltaBatch::new(0, ops.clone())).unwrap();
            }
            let incremental = session.select().unwrap();
            let (seeds, marginals) = select_from_scratch(&tip, config, &counts);
            assert_eq!(incremental.seeds, seeds, "ℓ = {machines}");
            assert_eq!(incremental.marginals, marginals, "ℓ = {machines}");

            // A cold restart from the committed chain sees the same state.
            let mut reloaded = StreamSession::open(g, config, &root, net, seq).unwrap();
            assert_eq!(reloaded.next_seq(), 2, "ℓ = {machines}");
            let replayed = reloaded.select().unwrap();
            assert_eq!(replayed.seeds, seeds, "ℓ = {machines} (reloaded)");
            assert_eq!(replayed.marginals, marginals, "ℓ = {machines} (reloaded)");
            std::fs::remove_dir_all(&root).ok();
        }
    }

    /// Selection and repair interleaved on one resident session:
    /// `apply → select → apply → select → compact → apply → select`. Each
    /// `select` rebuilds the shards' index and the next repair leaves it
    /// stale again, so every selection after the first runs on an index
    /// rebuilt from repaired records. Each one must equal a full re-sample
    /// of the tip graph, on both execution modes.
    #[test]
    fn interleaved_stream_cycle_matches_full_resample() {
        let Input { g, config, .. } = &Case::Diimm(IC, true).input();
        let [first, second] = chained_batches(g);
        let (u3, v3, _) = g.edges().nth(2).expect("graph has three edges");
        let third = vec![EdgeOp::Delete { u: u3, v: v3 }];
        let net = NetworkModel::cluster_1gbps();
        for machines in STREAM_MACHINE_COUNTS {
            for mode in [ExecMode::Sequential, ExecMode::Threads] {
                let context = format!("ℓ = {machines}, {mode:?}");
                let root = temp_root(&format!("stream-cycle-{machines}-{mode:?}"));
                diimm_sample_generation(g, config, machines, net, mode, &root, 8).unwrap();
                let counts = stored_counts(g, config, &root);

                let mut session = StreamSession::open(g, config, &root, net, mode).unwrap();
                let mut tip = g.clone();
                let mut apply_then_select = |session: &mut StreamSession, ops: &[EdgeOp], step| {
                    let applied = session.apply(ops.to_vec(), true, 8).unwrap();
                    assert!(
                        applied.sets_repaired > 0,
                        "{context}, {step}: repaired nothing"
                    );
                    tip = apply_batch(&tip, &DeltaBatch::new(0, ops.to_vec())).unwrap();
                    let selected = session.select().unwrap();
                    let (seeds, marginals) = select_from_scratch(&tip, config, &counts);
                    assert_eq!(selected.seeds, seeds, "{context}, {step}");
                    assert_eq!(selected.marginals, marginals, "{context}, {step}");
                };
                apply_then_select(&mut session, &first, "first batch");
                apply_then_select(&mut session, &second, "second batch");
                assert!(
                    session.compact(8).unwrap().is_some(),
                    "{context}: nothing compacted"
                );
                apply_then_select(&mut session, &third, "batch after compact");
                std::fs::remove_dir_all(&root).ok();
            }
        }
    }

    /// The same contract on the TCP process backend: workers sample a
    /// fixed θ, the master broadcasts `ApplyDelta`, every worker repairs
    /// its resident shard locally, and selection over the repaired
    /// cluster equals a from-scratch re-sample of the mutated graph.
    #[test]
    fn stream_repair_matches_full_resample_proc() {
        use dim_cluster::ops::{expect_counts, expect_ok};

        let Input { g, config, .. } = &Case::Diimm(IC, true).input();
        let batches = chained_batches(g);
        let theta = 4000u64;
        for machines in STREAM_MACHINE_COUNTS {
            let counts: Vec<u64> = (0..machines as u64)
                .map(|i| theta / machines as u64 + u64::from(i < theta % machines as u64))
                .collect();
            let mut proc = proc_cluster(machines, config.seed);
            setup_im_cluster(&mut proc, g, config.sampler, false).unwrap();
            let replies = proc
                .control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
                    count: counts[i],
                })
                .unwrap();
            expect_ok(&replies, phase::RR_SAMPLING).unwrap();

            let mut tip = g.clone();
            for (seq, ops) in batches.iter().enumerate() {
                let batch = DeltaBatch::new(seq as u64, ops.clone());
                let mutated = apply_batch(&tip, &batch).unwrap();
                let encoded = batch.encode();
                let parent = graph_fingerprint(&tip);
                let fingerprint = graph_fingerprint(&mutated);
                let replies = proc
                    .control(phase::STREAM_APPLY, |_| WorkerOp::ApplyDelta {
                        batch: encoded.clone(),
                        persist_dir: None,
                        base_generation: 0,
                        fingerprint,
                        parent_fingerprint: parent,
                        theta,
                        shard_count: machines as u32,
                    })
                    .unwrap();
                let repaired = expect_counts(&replies, phase::STREAM_APPLY).unwrap();
                assert!(
                    repaired.iter().sum::<u64>() > 0,
                    "ℓ = {machines}, seq {seq}: batch repaired nothing"
                );
                tip = mutated;
            }

            let r = dim_coverage::newgreedi_with(&mut proc, g.num_nodes(), config.k).unwrap();
            let (seeds, marginals) = select_from_scratch(&tip, config, &counts);
            assert_eq!(r.seeds, seeds, "ℓ = {machines}");
            assert_eq!(r.marginals, marginals, "ℓ = {machines}");
            assert_eq!(proc.link_errors(), 0, "ℓ = {machines}");
        }
    }
}

/// The `proc` column; process workers persist their own shards and report incrementally.
mod proc_backend {
    use super::*;

    matrix! { "proc" at [1, 2, 4];
        diimm_proc_matches_sequential: Case::Diimm(IC, true), Case::Diimm(IC, false);
        diimm_reverse_bfs_proc_matches_sequential:
            Case::Diimm(RBFS, true), Case::Diimm(RBFS, false);
        paired_frameworks_proc_match_sequential:
            Case::Paired(PairedRule::OpimC), Case::Paired(PairedRule::Ssa);
        newgreedi_proc_matches_sequential: Case::NewGreedi;
        greedi_proc_matches_sequential: Case::Greedi(None), Case::Greedi(Some(7));
    }

    /// Process workers persist their *own* resident shard on
    /// `PersistShard` (the sketch never crosses the wire), stamping their
    /// own provenance: each file they write is the one the in-process
    /// simulator writes, byte for byte, and replays to the same answer.
    #[test]
    fn proc_workers_persist_replayable_snapshot() {
        let g = DatasetProfile::Facebook.generate(0.08, 17);
        let config = ImConfig {
            k: 4,
            ..ImConfig::paper_defaults(&g, 0.5, 7)
        };
        let (machines, net, seq) = (2, NetworkModel::cluster_1gbps(), ExecMode::Sequential);
        let (proc_root, sim_root) = (temp_root("proc-snapshot"), temp_root("sim-snapshot"));

        let mut cluster = proc_cluster(machines, config.seed);
        setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
        let (_, r) = diimm_sample_on(&mut cluster, &g, &config, &proc_root, 1).unwrap();
        // The save phase is a control round: it models no shard traffic.
        let save = cluster.timeline().get(phase::STORE_SAVE);
        assert_eq!(save.total_bytes(), 0, "PersistShard ships no shard bytes");
        drop(cluster);

        diimm_sample_generation(&g, &config, machines, net, seq, &sim_root, 1).unwrap();
        let select = |root: &std::path::Path| {
            let session = StreamSession::open(&g, &config, root, net, seq);
            session.unwrap().select().unwrap()
        };
        let (from_proc, from_sim) = (select(&proc_root), select(&sim_root));
        assert_same(&answer(&from_proc), &answer(&r), "restored from proc");
        assert_same(&answer(&from_sim), &answer(&r), "restored from sim");
        let generation = dim::dim_store::generation_dir_name(1);
        for shard in 0..machines as u32 {
            let name = dim::dim_store::shard_file_name(shard, machines as u32);
            let read = |root: &std::path::Path| std::fs::read(root.join(&generation).join(&name));
            let (proc_bytes, sim_bytes) = (read(&proc_root).unwrap(), read(&sim_root).unwrap());
            assert!(proc_bytes == sim_bytes, "{name} differs");
        }
        std::fs::remove_dir_all(&proc_root).ok();
        std::fs::remove_dir_all(&sim_root).ok();
    }

    /// The incremental DiIMM traffic optimization must never change the
    /// answer on the process backend — only the upload volume.
    #[test]
    fn incremental_reporting_same_answer_less_upload() {
        let g = DatasetProfile::Facebook.generate(0.08, 17);
        let config = ImConfig {
            k: 4,
            ..ImConfig::paper_defaults(&g, 0.5, 7)
        };
        let [r_full, r_inc] = [false, true].map(|incremental| {
            let mut cluster = proc_cluster(2, config.seed);
            setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
            diimm_on(&mut cluster, &g, &config, incremental).unwrap()
        });
        assert_same(&answer(&r_inc), &answer(&r_full), "incremental");
        assert!(
            r_inc.metrics.bytes_to_master <= r_full.metrics.bytes_to_master,
            "incremental {} B should not exceed full {} B",
            r_inc.metrics.bytes_to_master,
            r_full.metrics.bytes_to_master
        );
    }
}

/// The `join` column; registered workers outlive a session and fail stop within one.
mod join_backend {
    use super::*;

    matrix! { "join" at [1, 2, 4];
        diimm_join_matches_sequential: Case::Diimm(IC, true), Case::Diimm(IC, false);
        diimm_reverse_bfs_join_matches_sequential:
            Case::Diimm(RBFS, true), Case::Diimm(RBFS, false);
        paired_frameworks_join_match_sequential:
            Case::Paired(PairedRule::OpimC), Case::Paired(PairedRule::Ssa);
        newgreedi_join_matches_sequential: Case::NewGreedi;
        greedi_join_matches_sequential: Case::Greedi(None), Case::Greedi(Some(7));
    }

    /// One master serves two consecutive sessions to the same registered
    /// workers, the second reusing each worker's resident state path:
    /// NewGreeDi's record is the sequential simulator's in both.
    #[test]
    fn newgreedi_join_matches_sequential_across_two_sessions() {
        let input = Case::NewGreedi.input();
        let want = Case::NewGreedi.simulate(&input, 2, ExecMode::Sequential);
        for (context, got) in join_runs(Case::NewGreedi, &input, 2, 2) {
            assert_same(&got, &want, &context);
        }
    }

    /// A worker dying mid-round fail-stops with a typed [`WireError`]
    /// naming the machine; the dead link stays dead.
    #[test]
    fn killed_worker_mid_round_names_machine_in_typed_error() {
        let g = DatasetProfile::Facebook.generate(0.08, 17);
        let config = ImConfig {
            k: 4,
            ..ImConfig::paper_defaults(&g, 0.5, 7)
        };
        let machines = 2;
        let faulty = 1;
        let mut rendezvous = Rendezvous::bind("127.0.0.1:0", join_config(machines)).unwrap();
        let workers = start_workers(rendezvous.local_addr().unwrap(), machines, 1);
        let mut cluster = accept(&mut rendezvous, config.seed);
        // The faulty machine's link is torn down mid-frame in the third
        // round (the first `SampleRr`, after the two setup rounds).
        let plan = FaultPlan::kill_machine(faulty as u32, 2);
        cluster.set_chaos(Some(FaultInjector::new(plan, machines)));
        let err = setup_im_cluster(&mut cluster, &g, config.sampler, false)
            .map(|()| diimm_on(&mut cluster, &g, &config, true).map(|_| ()))
            .and_then(|r| r)
            .expect_err("a worker died mid-round");
        assert_eq!(err.machine, Some(faulty), "error names the dead machine");
        assert!(
            err.to_string().contains(&format!("machine {faulty}")),
            "fail-stop message names the machine: {err}"
        );
        assert_eq!(cluster.link_errors(), 1);
        assert_eq!(cluster.live_links(), machines - 1);
        drop(cluster);
        for w in workers {
            let _ = w.join();
        }
    }
}

/// Chaos is the sixth equivalence axis: a fault schedule is an
/// *execution perturbation*, never an algorithm change. Losses and
/// stalls within the configured timeouts must leave the answer
/// byte-identical, and a machine killed mid-run must be speculatively
/// rebuilt (same per-set RNG streams ⇒ same shard) so the degraded run
/// still returns the fault-free seeds and marginals bit for bit.
mod chaos {
    use super::*;
    use dim_core::diimm::DiimmWorker;

    const CHAOS_MACHINE_COUNTS: [usize; 2] = [2, 4];

    /// A single-loss policy: ℓ = 2 cannot muster a strict majority after
    /// one kill, so the acceptance runs pin `min_survivors` to 1 — the
    /// paper's fault model tolerates ℓ − 1 losses when the operator
    /// opts in.
    fn single_loss_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            min_survivors: 1,
            ..RecoveryPolicy::resample()
        }
    }

    /// A sequential simulator of DiIMM workers on `input`.
    fn sim_cluster(input: &Input, machines: usize) -> SimCluster<DiimmWorker<'_>> {
        let workers = (0..machines).map(|i| DiimmWorker::new(&input.g, &input.config, i));
        SimCluster::new(
            workers.collect(),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
    }

    /// Single-machine loss during RR sampling on the simulated backend:
    /// the run completes via speculative shard rebuild and every output
    /// field — seeds, marginals, coverage, θ, RR mass, edge work — is
    /// byte-identical to the fault-free reference, at ℓ = 2 and ℓ = 4.
    #[test]
    fn single_kill_recovers_byte_identically_sim() {
        let input = Case::Diimm(IC, true).input();
        let Input { g, config, .. } = &input;
        for machines in CHAOS_MACHINE_COUNTS {
            let victim = machines - 1;
            let plan = FaultPlan::kill_machine(victim as u32, 1);
            let cluster =
                sim_cluster(&input, machines).with_faults(FaultInjector::new(plan, machines));
            let run = diimm_on_recovering(cluster, g, config, true, single_loss_policy()).unwrap();
            let ctx = format!("ℓ = {machines}");
            assert_same(&answer(&run.result), &fault_free(&input, machines), &ctx);
            let degraded = run
                .degraded
                .unwrap_or_else(|| panic!("{ctx}: kill not recorded"));
            assert_eq!(degraded.lost, vec![victim], "{ctx}");
            assert!(degraded.rebuilt_sets > 0, "{ctx}: rebuild produced no sets");
        }
    }

    /// Loss and stall schedules within the configured timeouts cost
    /// virtual time only: a plain `diimm_on` run (no recovery layer at
    /// all) over a lossy, stalling, jittery cluster returns the exact
    /// fault-free answer, while the injector's event log proves the
    /// faults really fired.
    #[test]
    fn loss_and_stalls_within_timeouts_zero_divergence_sim() {
        let input = Case::Diimm(IC, true).input();
        let Input { g, config, .. } = &input;
        for machines in CHAOS_MACHINE_COUNTS {
            let plan = FaultPlan {
                chaos_seed: 0xC0FFEE,
                link_faults: (0..machines as u32)
                    .map(|m| LinkFault {
                        machine: m,
                        extra_latency_us: 400,
                        jitter_us: 150,
                        loss_prob_ppm: 300_000,
                        loss_retry_us: 900,
                        stall_prob_ppm: 150_000,
                        stall_ms: 2,
                        ..LinkFault::default()
                    })
                    .collect(),
                ..FaultPlan::default()
            };
            let mut cluster =
                sim_cluster(&input, machines).with_faults(FaultInjector::new(plan, machines));
            let r = diimm_on(&mut cluster, g, config, true).unwrap();
            let ctx = format!("ℓ = {machines}");
            assert_same(&answer(&r), &fault_free(&input, machines), &ctx);
            // Faults must have actually fired for the assertion to mean
            // anything — an empty event log would be a vacuous pass.
            let events = cluster
                .fault_injector()
                .expect("injector stays armed")
                .events();
            assert!(!events.is_empty(), "{ctx}: no fault events fired");
        }
    }

    /// The same single-loss acceptance on the process backend: the
    /// socket-level injector tears the victim's link mid-frame, and the
    /// recovery layer rebuilds its shard from the op log — seeds and
    /// marginals byte-identical to the fault-free sequential reference
    /// at ℓ = 2 and ℓ = 4.
    #[test]
    fn single_kill_recovers_byte_identically_proc() {
        let input = Case::Diimm(IC, true).input();
        let Input { g, config, .. } = &input;
        for machines in CHAOS_MACHINE_COUNTS {
            let victim = machines - 1;
            let mut cluster = proc_cluster(machines, config.seed);
            setup_im_cluster(&mut cluster, g, config.sampler, false).unwrap();
            // Armed after setup so round 0 is the first algorithm op
            // round — the same clock the simulator's plan uses.
            cluster.set_chaos(Some(FaultInjector::new(
                FaultPlan::kill_machine(victim as u32, 1),
                machines,
            )));
            let run = diimm_on_recovering(cluster, g, config, true, single_loss_policy()).unwrap();
            let ctx = format!("ℓ = {machines} (proc)");
            assert_same(&answer(&run.result), &fault_free(&input, machines), &ctx);
            let degraded = run
                .degraded
                .unwrap_or_else(|| panic!("{ctx}: kill not recorded"));
            assert_eq!(degraded.lost, vec![victim], "{ctx}");
            assert!(degraded.rebuilt_sets > 0, "{ctx}: rebuild produced no sets");
        }
    }

    /// Stall-only schedules on the process backend are real socket
    /// sleeps, well inside the 60 s reply timeout: no link dies,
    /// no recovery engages, and the answer does not diverge by a byte.
    #[test]
    fn stall_schedule_zero_divergence_proc() {
        let g = DatasetProfile::Facebook.generate(0.08, 17);
        let config = ImConfig {
            k: 4,
            ..ImConfig::paper_defaults(&g, 0.5, 7)
        };
        let (machines, net) = (2, NetworkModel::cluster_1gbps());
        let reference = diimm(&g, &config, machines, net, ExecMode::Sequential).unwrap();
        let mut cluster = proc_cluster(machines, config.seed);
        setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
        cluster.set_chaos(Some(FaultInjector::new(
            FaultPlan {
                chaos_seed: 0x5742,
                link_faults: vec![LinkFault {
                    machine: 1,
                    extra_latency_us: 500,
                    stall_prob_ppm: 400_000,
                    stall_ms: 5,
                    ..LinkFault::default()
                }],
                ..FaultPlan::default()
            },
            machines,
        )));
        let r = diimm_on(&mut cluster, &g, &config, true).unwrap();
        assert_same(&answer(&r), &answer(&reference), "stalls on proc");
        assert_eq!(cluster.link_errors(), 0, "stalls kill no link");
        let events = cluster
            .chaos_injector()
            .expect("injector stays armed")
            .events();
        assert!(!events.is_empty(), "no stall events fired");
    }
}
