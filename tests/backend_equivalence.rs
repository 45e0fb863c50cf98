//! Backend-equivalence tests: every [`ExecMode`] of the simulated cluster
//! must be an *execution strategy*, never an *algorithm change*. DiIMM and
//! NewGreeDi depend only on the per-machine RNG streams (seeded by
//! `stream_seed(master, machine_id)`), so the deterministic sequential
//! loop and the capped OS-thread pool must return the same answer bit for
//! bit, at every machine count.

use dim::dim_coverage::greedi::GreediResult;
use dim::dim_coverage::SetPartition;
use dim::prelude::*;

const MACHINE_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MODES: [ExecMode; 2] = [ExecMode::Sequential, ExecMode::Threads];

/// A framework's simulator entry: `(graph, config, ℓ, network, mode)`.
type SimRun = fn(
    &Graph,
    &ImConfig,
    usize,
    NetworkModel,
    ExecMode,
) -> Result<ImResult, dim_cluster::WireError>;

/// The paired-collection frameworks: each one's simulator entry, and the
/// stop rule [`paired_on`] runs over any other cluster.
const PAIRED_FRAMEWORKS: [(&str, SimRun, PairedRule); 2] = [
    ("opim", dopim_c, PairedRule::OpimC),
    ("ssa", dssa, PairedRule::Ssa),
];

/// Runs a paired framework over a TCP cluster: its machines get paired
/// workers through `InitSampler`, then [`paired_on`] drives them.
fn paired_over<B: OpCluster>(
    cluster: &mut B,
    g: &Graph,
    config: &ImConfig,
    rule: PairedRule,
) -> ImResult {
    setup_im_cluster(cluster, g, config.sampler, true).unwrap();
    paired_on(cluster, g.num_nodes(), config, rule).unwrap()
}

/// Asserts a paired framework's run on another backend equals the
/// sequential simulator's in the answer, the sampling work and the
/// modeled traffic.
fn assert_same_paired_run(r: &ImResult, reference: &ImResult, ctx: &str) {
    assert_eq!(r.seeds, reference.seeds, "{ctx}");
    assert_eq!(r.marginals, reference.marginals, "{ctx}");
    assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
    assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
    assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
    let (m, want) = (&r.metrics, &reference.metrics);
    assert_eq!(m.bytes_to_master, want.bytes_to_master, "{ctx}");
    assert_eq!(m.bytes_from_master, want.bytes_from_master, "{ctx}");
    assert_eq!(m.messages, want.messages, "{ctx}");
}

/// GreeDi and RandGreeDi: each variant's name and partition shuffle seed.
const GREEDI_VARIANTS: [(&str, Option<u64>); 2] = [("greedi", None), ("randgreedi", Some(7))];

/// GreeDi's reference run over set shards on the sequential simulator,
/// k = κ = 12: the result and the run's counters.
fn greedi_reference(
    shards: &[CoverageShard],
    partition: &SetPartition,
) -> (GreediResult, ClusterMetrics) {
    let net = NetworkModel::cluster_1gbps();
    let mut seq = SimCluster::new(shards.to_vec(), net, ExecMode::Sequential);
    let r = greedi(&mut seq, partition, 12, 12).unwrap();
    (r, seq.metrics())
}

/// Runs GreeDi over a TCP cluster: ships each machine its set shard
/// (`BuildShard`, no modeled traffic), then runs the core-set round.
fn greedi_over<B: OpCluster>(
    cluster: &mut B,
    shards: &[CoverageShard],
    partition: &SetPartition,
) -> GreediResult {
    let replies = cluster
        .control(phase::SETUP, |i| WorkerOp::BuildShard {
            num_sets: shards[i].num_sets() as u32,
            elements: shards[i].elements().iter().map(<[u32]>::to_vec).collect(),
        })
        .unwrap();
    dim_cluster::ops::expect_ok(&replies, phase::SETUP).unwrap();
    greedi(cluster, partition, 12, 12).unwrap()
}

/// Asserts a GreeDi run on another backend equals the sequential
/// simulator's in the answer and the modeled traffic.
fn assert_same_greedi_run(
    (r, m): (&GreediResult, &ClusterMetrics),
    (reference, want): (&GreediResult, &ClusterMetrics),
    ctx: &str,
) {
    assert_eq!(r.seeds, reference.seeds, "{ctx}");
    assert_eq!(r.covered, reference.covered, "{ctx}");
    assert_eq!(m.bytes_to_master, want.bytes_to_master, "{ctx}");
    assert_eq!(m.bytes_from_master, want.bytes_from_master, "{ctx}");
    assert_eq!(m.messages, want.messages, "{ctx}");
}

/// DiIMM: seeds, coverage, θ, RR-set mass, and the accounted traffic are
/// identical whichever backend executes the phases.
#[test]
fn diimm_identical_across_backends() {
    let g = DatasetProfile::Facebook.generate(0.1, 11);
    let config = ImConfig {
        k: 6,
        ..ImConfig::paper_defaults(&g, 0.4, 29)
    };
    for machines in MACHINE_COUNTS {
        let reference = diimm(
            &g,
            &config,
            machines,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        assert_eq!(reference.seeds.len(), 6);
        for &mode in &MODES[1..] {
            let r = diimm(&g, &config, machines, NetworkModel::cluster_1gbps(), mode).unwrap();
            assert_eq!(r.seeds, reference.seeds, "ℓ = {machines}, {mode:?}");
            assert_eq!(r.coverage, reference.coverage, "ℓ = {machines}, {mode:?}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "ℓ = {machines}, {mode:?}");
            assert_eq!(
                r.total_rr_size, reference.total_rr_size,
                "ℓ = {machines}, {mode:?}"
            );
            assert_eq!(
                r.edges_examined, reference.edges_examined,
                "ℓ = {machines}, {mode:?}"
            );
            // Traffic is a function of the message contents, not of the
            // execution strategy.
            assert_eq!(
                r.metrics.bytes_to_master, reference.metrics.bytes_to_master,
                "ℓ = {machines}, {mode:?}"
            );
            assert_eq!(
                r.metrics.bytes_from_master, reference.metrics.bytes_from_master,
                "ℓ = {machines}, {mode:?}"
            );
            assert_eq!(
                r.metrics.messages, reference.metrics.messages,
                "ℓ = {machines}, {mode:?}"
            );
            // Same phases in the same order, label for label.
            assert_eq!(
                r.timeline.labels().collect::<Vec<_>>(),
                reference.timeline.labels().collect::<Vec<_>>(),
                "ℓ = {machines}, {mode:?}"
            );
        }
    }
}

/// The default IC sampler is SUBSIM, whose per-row path (count-first on
/// uniform rows, coins on mixed ones) is fixed by the graph inside one
/// machine's sampler: the tests above hold it to the contract.
/// The paper's per-edge reverse BFS, which `repro` still runs, is held to
/// the same one: seeds, marginals, and RR-set mass byte-identical across
/// every backend and machine count.
#[test]
fn diimm_reverse_bfs_identical_across_backends() {
    let g = DatasetProfile::Facebook.generate(0.1, 11);
    let config = ImConfig {
        k: 6,
        sampler: SamplerKind::ReverseBfs,
        ..ImConfig::paper_defaults(&g, 0.4, 29)
    };
    for machines in MACHINE_COUNTS {
        let reference = diimm(
            &g,
            &config,
            machines,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        assert_eq!(reference.seeds.len(), 6);
        for &mode in &MODES[1..] {
            let r = diimm(&g, &config, machines, NetworkModel::cluster_1gbps(), mode).unwrap();
            let ctx = format!("ℓ = {machines}, {mode:?}");
            assert_eq!(r.seeds, reference.seeds, "{ctx}");
            assert_eq!(r.marginals, reference.marginals, "{ctx}");
            assert_eq!(r.coverage, reference.coverage, "{ctx}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
            assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
            assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
        }
    }
}

/// NewGreeDi: the full result — seeds, coverage, *and per-seed marginals* —
/// is identical across backends for every sharding.
#[test]
fn newgreedi_identical_across_backends() {
    let g = DatasetProfile::Facebook.generate(0.15, 3);
    let problem = CoverageProblem::from_graph_neighborhoods(&g);
    let k = 12;
    for machines in MACHINE_COUNTS {
        let results: Vec<_> = MODES
            .iter()
            .map(|&mode| {
                let mut cluster = SimCluster::new(
                    problem.shard_elements(machines),
                    NetworkModel::cluster_1gbps(),
                    mode,
                );
                let r = newgreedi_with(&mut cluster, problem.num_sets(), k).unwrap();
                (r, cluster.metrics())
            })
            .collect();
        let (reference, ref_metrics) = &results[0];
        assert_eq!(reference.seeds.len(), k);
        for ((r, m), &mode) in results.iter().zip(MODES.iter()).skip(1) {
            assert_eq!(r, reference, "ℓ = {machines}, {mode:?}");
            assert_eq!(
                r.marginals, reference.marginals,
                "ℓ = {machines}, {mode:?}"
            );
            assert_eq!(m.bytes_to_master, ref_metrics.bytes_to_master);
            assert_eq!(m.bytes_from_master, ref_metrics.bytes_from_master);
            assert_eq!(m.messages, ref_metrics.messages);
        }
    }
}

/// Persisted sketches are an execution path of their own:
/// `diimm_sample_generation` (run + commit every machine's shard as a
/// generation) followed by `StreamSession::open` + `select` (restore +
/// reselect, no sampling — what `dim im --load-rr` runs) must reproduce
/// the direct run bit for bit — seeds, marginals, coverage, θ — at every
/// machine count, and the restored selection must itself be
/// mode-independent.
#[test]
fn snapshot_roundtrip_matches_direct_run() {
    let g = DatasetProfile::Facebook.generate(0.1, 11);
    let config = ImConfig {
        k: 6,
        ..ImConfig::paper_defaults(&g, 0.4, 29)
    };
    let net = NetworkModel::cluster_1gbps();
    for machines in [1usize, 2, 4] {
        let root = std::env::temp_dir().join(format!(
            "dim-equiv-snapshot-{}-{machines}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&root).ok();
        let reference = diimm(&g, &config, machines, net, ExecMode::Sequential).unwrap();
        let (_, sampled) =
            diimm_sample_generation(&g, &config, machines, net, ExecMode::Sequential, &root, 1)
                .unwrap();
        assert_eq!(sampled.seeds, reference.seeds, "ℓ = {machines}");
        assert_eq!(sampled.marginals, reference.marginals, "ℓ = {machines}");
        for mode in MODES {
            let mut session = StreamSession::open(&g, &config, &root, net, mode).unwrap();
            let r = session.select().unwrap();
            let ctx = format!("ℓ = {machines}, {mode:?}");
            assert_eq!(r.seeds, reference.seeds, "{ctx}");
            assert_eq!(r.marginals, reference.marginals, "{ctx}");
            assert_eq!(r.coverage, reference.coverage, "{ctx}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
            assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
            assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
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

    fn stream_config(g: &Graph) -> ImConfig {
        ImConfig {
            k: 6,
            ..ImConfig::paper_defaults(g, 0.4, 29)
        }
    }

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
                EdgeOp::Insert { u: iu, v: iv, p: 0.3 },
            ],
            vec![
                EdgeOp::Reweight { u: u2, v: v2, p: 0.7 },
                EdgeOp::Delete { u: iu, v: iv },
            ],
        ]
    }

    /// Ground truth: sample `counts[i]` RR sets per machine from scratch
    /// on `g` (same master seed → same per-set streams) and select.
    fn select_from_scratch(
        g: &Graph,
        config: &ImConfig,
        counts: &[u64],
    ) -> (Vec<u32>, Vec<u64>) {
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

    /// Incremental apply + select over a persisted chain equals a full
    /// re-sample of the final graph, and a fresh session restored from
    /// the committed chain agrees byte for byte.
    #[test]
    fn stream_repair_matches_full_resample_sim() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = stream_config(&g);
        let batches = chained_batches(&g);
        for machines in STREAM_MACHINE_COUNTS {
            let root = std::env::temp_dir().join(format!(
                "dim-equiv-stream-{}-{machines}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&root).ok();
            let net = NetworkModel::cluster_1gbps();
            diimm_sample_generation(&g, &config, machines, net, ExecMode::Sequential, &root, 8)
                .unwrap();
            let (_, snapshot) = load_latest_rr_snapshot(&g, &config, &root).unwrap();
            let counts: Vec<u64> = snapshot
                .shards
                .iter()
                .map(|s| s.header.num_elements)
                .collect();

            let mut session =
                StreamSession::open(&g, &config, &root, net, ExecMode::Sequential).unwrap();
            let mut tip = g.clone();
            for ops in &batches {
                let applied = session.apply(ops.clone(), true, 8).unwrap();
                assert!(applied.sets_repaired > 0, "ℓ = {machines}: batch repaired nothing");
                let batch = DeltaBatch {
                    seq: 0,
                    ops: ops.clone(),
                };
                tip = apply_batch(&tip, &batch).unwrap();
            }
            let incremental = session.select().unwrap();
            let (seeds, marginals) = select_from_scratch(&tip, &config, &counts);
            assert_eq!(incremental.seeds, seeds, "ℓ = {machines}");
            assert_eq!(incremental.marginals, marginals, "ℓ = {machines}");

            // A cold restart from the committed chain sees the same state.
            let mut reloaded =
                StreamSession::open(&g, &config, &root, net, ExecMode::Sequential).unwrap();
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
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = stream_config(&g);
        let [first, second] = chained_batches(&g);
        let (u3, v3, _) = g.edges().nth(2).expect("graph has three edges");
        let third = vec![EdgeOp::Delete { u: u3, v: v3 }];
        let net = NetworkModel::cluster_1gbps();
        for machines in STREAM_MACHINE_COUNTS {
            for mode in MODES {
                let context = format!("ℓ = {machines}, {mode:?}");
                let root = std::env::temp_dir().join(format!(
                    "dim-equiv-stream-cycle-{}-{machines}-{mode:?}",
                    std::process::id()
                ));
                std::fs::remove_dir_all(&root).ok();
                diimm_sample_generation(&g, &config, machines, net, mode, &root, 8).unwrap();
                let (_, snapshot) = load_latest_rr_snapshot(&g, &config, &root).unwrap();
                let counts: Vec<u64> = snapshot
                    .shards
                    .iter()
                    .map(|s| s.header.num_elements)
                    .collect();

                let mut session = StreamSession::open(&g, &config, &root, net, mode).unwrap();
                let mut tip = g.clone();
                let mut apply_then_select = |session: &mut StreamSession, ops: &[EdgeOp], step| {
                    let applied = session.apply(ops.to_vec(), true, 8).unwrap();
                    assert!(applied.sets_repaired > 0, "{context}, {step}: repaired nothing");
                    let batch = DeltaBatch {
                        seq: 0,
                        ops: ops.to_vec(),
                    };
                    tip = apply_batch(&tip, &batch).unwrap();
                    let selected = session.select().unwrap();
                    let (seeds, marginals) = select_from_scratch(&tip, &config, &counts);
                    assert_eq!(selected.seeds, seeds, "{context}, {step}");
                    assert_eq!(selected.marginals, marginals, "{context}, {step}");
                };
                apply_then_select(&mut session, &first, "first batch");
                apply_then_select(&mut session, &second, "second batch");
                assert!(session.compact(8).unwrap().is_some(), "{context}: nothing compacted");
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
        use dim_cluster::ProcCluster;

        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = stream_config(&g);
        let batches = chained_batches(&g);
        let theta = 4000u64;
        for machines in STREAM_MACHINE_COUNTS {
            let counts: Vec<u64> = (0..machines as u64)
                .map(|i| theta / machines as u64 + u64::from(i < theta % machines as u64))
                .collect();
            let mut proc =
                ProcCluster::spawn(machines, NetworkModel::cluster_1gbps(), config.seed)
                    .expect("spawn dim-worker processes");
            setup_im_cluster(&mut proc, &g, config.sampler, false).unwrap();
            let replies = proc
                .control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
                    count: counts[i],
                })
                .unwrap();
            expect_ok(&replies, phase::RR_SAMPLING).unwrap();

            let mut tip = g.clone();
            for (seq, ops) in batches.iter().enumerate() {
                let batch = DeltaBatch {
                    seq: seq as u64,
                    ops: ops.clone(),
                };
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
            let (seeds, marginals) = select_from_scratch(&tip, &config, &counts);
            assert_eq!(r.seeds, seeds, "ℓ = {machines}");
            assert_eq!(r.marginals, marginals, "ℓ = {machines}");
            assert_eq!(proc.link_errors(), 0, "ℓ = {machines}");
        }
    }
}

/// The TCP process backend is the fourth execution strategy: worker state
/// lives in the endpoints (threads or real `dim-worker` processes), every
/// phase ships real op/reply payloads, and the answer — seeds, marginals,
/// modeled metrics — is identical to the simulated Sequential backend.
mod proc_backend {
    use std::time::Duration;

    use super::*;
    use dim_cluster::ops::expect_ok;
    use dim_cluster::ProcCluster;
    use dim_core::diimm::diimm_on;
    use dim_core::diimm;

    const PROC_MACHINE_COUNTS: [usize; 3] = [1, 2, 4];

    /// Every phase that models byte movement must also have measured real
    /// transfer time on the process backend (op rounds that model no bytes
    /// — sampling control, setup — still measure their real op traffic,
    /// so only the modeled→measured direction is an invariant).
    fn assert_measured_transfers(timeline: &PhaseTimeline, context: &str) {
        let mut moved_any = false;
        for (label, m) in timeline.iter() {
            if m.total_bytes() > 0 {
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

    /// DiIMM over worker-resident graph shards — both the §III-C
    /// incremental coverage-reporting path and the full-reupload ablation
    /// — reproduces the simulator bit for bit at every machine count.
    #[test]
    fn diimm_proc_matches_sequential() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = ImConfig {
            k: 6,
            ..ImConfig::paper_defaults(&g, 0.4, 29)
        };
        for machines in PROC_MACHINE_COUNTS {
            for incremental in [true, false] {
                let reference = diimm::diimm_with_options(
                    &g,
                    &config,
                    machines,
                    NetworkModel::cluster_1gbps(),
                    ExecMode::Sequential,
                    incremental,
                )
                .unwrap();
                let mut cluster = proc_cluster(machines, config.seed);
                setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
                let r = diimm_on(&mut cluster, &g, &config, incremental).unwrap();
                let ctx = format!("ℓ = {machines}, incremental = {incremental}");
                assert_eq!(r.seeds, reference.seeds, "{ctx}");
                assert_eq!(r.coverage, reference.coverage, "{ctx}");
                assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
                assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
                assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
                // Modeled traffic is backend-independent…
                assert_eq!(
                    r.metrics.bytes_to_master, reference.metrics.bytes_to_master,
                    "{ctx}"
                );
                assert_eq!(
                    r.metrics.bytes_from_master, reference.metrics.bytes_from_master,
                    "{ctx}"
                );
                assert_eq!(r.metrics.messages, reference.metrics.messages, "{ctx}");
                // …while measured transfer time exists only on the real
                // backend.
                assert_eq!(reference.metrics.measured_comm, Duration::ZERO);
                assert_measured_transfers(&r.timeline, &format!("diimm {ctx}"));
                assert_eq!(cluster.link_errors(), 0, "{ctx}");
            }
        }
    }

    /// The reverse-BFS baseline on the process backend: worker-resident
    /// samplers (initialized over the wire via `InitSampler`, tag 0) draw
    /// the same coins as the simulator's, so the answer is identical.
    #[test]
    fn diimm_reverse_bfs_proc_matches_sequential() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = ImConfig {
            k: 6,
            sampler: SamplerKind::ReverseBfs,
            ..ImConfig::paper_defaults(&g, 0.4, 29)
        };
        for machines in [1usize, 2] {
            let reference = diimm::diimm_with_options(
                &g,
                &config,
                machines,
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
                true,
            )
            .unwrap();
            let mut cluster = proc_cluster(machines, config.seed);
            setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
            let r = diimm_on(&mut cluster, &g, &config, true).unwrap();
            let ctx = format!("reverse BFS ℓ = {machines}");
            assert_eq!(r.seeds, reference.seeds, "{ctx}");
            assert_eq!(r.marginals, reference.marginals, "{ctx}");
            assert_eq!(r.coverage, reference.coverage, "{ctx}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
            assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
            assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
            assert_eq!(cluster.link_errors(), 0, "{ctx}");
        }
    }

    /// NewGreeDi over shards shipped to the workers once (`BuildShard`)
    /// and interrogated purely through phase ops afterwards.
    #[test]
    fn newgreedi_proc_matches_sequential() {
        let g = DatasetProfile::Facebook.generate(0.15, 3);
        let problem = CoverageProblem::from_graph_neighborhoods(&g);
        let k = 12;
        for machines in PROC_MACHINE_COUNTS {
            let shards = problem.shard_elements(machines);
            let mut seq = SimCluster::new(
                shards.clone(),
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            );
            let reference = newgreedi_with(&mut seq, problem.num_sets(), k).unwrap();
            let mut proc = proc_cluster(machines, 0xD1A7);
            let replies = proc
                .control(phase::SETUP, |i| WorkerOp::BuildShard {
                    num_sets: problem.num_sets() as u32,
                    elements: shards[i].elements().iter().map(<[u32]>::to_vec).collect(),
                })
                .unwrap();
            expect_ok(&replies, phase::SETUP).unwrap();
            let r = dim_coverage::newgreedi_with(&mut proc, problem.num_sets(), k).unwrap();
            assert_eq!(r, reference, "ℓ = {machines}");
            assert_eq!(r.marginals, reference.marginals, "ℓ = {machines}");
            let metrics = proc.metrics();
            let seq_metrics = seq.metrics();
            assert_eq!(metrics.bytes_to_master, seq_metrics.bytes_to_master);
            assert_eq!(metrics.bytes_from_master, seq_metrics.bytes_from_master);
            assert_eq!(metrics.messages, seq_metrics.messages);
            assert_measured_transfers(proc.timeline(), &format!("newgreedi ℓ = {machines}"));
        }
    }

    /// OPIM-C and SSA on worker processes: `InitSampler`'s paired byte
    /// gives each process DiIMM's worker in pair mode, and both frameworks
    /// reproduce the simulator bit for bit at every machine count.
    #[test]
    fn paired_frameworks_proc_match_sequential() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = ImConfig {
            k: 6,
            ..ImConfig::paper_defaults(&g, 0.4, 29)
        };
        for (name, sim, rule) in PAIRED_FRAMEWORKS {
            for machines in PROC_MACHINE_COUNTS {
                let net = NetworkModel::cluster_1gbps();
                let reference = sim(&g, &config, machines, net, ExecMode::Sequential).unwrap();
                let mut cluster = proc_cluster(machines, config.seed);
                let r = paired_over(&mut cluster, &g, &config, rule);
                let ctx = format!("{name} ℓ = {machines}");
                assert_same_paired_run(&r, &reference, &ctx);
                assert_eq!(cluster.link_errors(), 0, "{ctx}");
            }
        }
    }

    /// GreeDi and RandGreeDi on worker processes: each process holds its
    /// set shard, answers the core-set round with its own greedy, and the
    /// run reproduces the simulator bit for bit at every machine count.
    #[test]
    fn greedi_proc_matches_sequential() {
        let g = DatasetProfile::Facebook.generate(0.15, 3);
        let problem = CoverageProblem::from_graph_neighborhoods(&g);
        for (name, shuffle) in GREEDI_VARIANTS {
            for machines in PROC_MACHINE_COUNTS {
                let (shards, partition) = problem.shard_sets(machines, shuffle);
                let (reference, want) = greedi_reference(&shards, &partition);
                let mut cluster = proc_cluster(machines, 0xD1A7);
                let r = greedi_over(&mut cluster, &shards, &partition);
                let ctx = format!("{name} ℓ = {machines}");
                assert_same_greedi_run((&r, &cluster.metrics()), (&reference, &want), &ctx);
                assert_eq!(cluster.link_errors(), 0, "{ctx}");
                assert_measured_transfers(cluster.timeline(), &ctx);
            }
        }
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
        let machines = 2;
        let net = NetworkModel::cluster_1gbps();
        let proc_root = std::env::temp_dir().join(format!(
            "dim-equiv-proc-snapshot-{}",
            std::process::id()
        ));
        let sim_root = std::env::temp_dir().join(format!(
            "dim-equiv-sim-snapshot-{}",
            std::process::id()
        ));

        let mut cluster = proc_cluster(machines, config.seed);
        setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
        let (_, r) = diimm_sample_on(&mut cluster, &g, &config, &proc_root, 1).unwrap();
        // The save phase is a control round: it models no shard traffic.
        let save = cluster.timeline().get(phase::STORE_SAVE);
        assert_eq!(save.total_bytes(), 0, "PersistShard ships no shard bytes");
        drop(cluster);

        diimm_sample_generation(&g, &config, machines, net, ExecMode::Sequential, &sim_root, 1)
            .unwrap();
        let select = |root: &std::path::Path| {
            StreamSession::open(&g, &config, root, net, ExecMode::Sequential)
                .unwrap()
                .select()
                .unwrap()
        };
        let (from_proc, from_sim) = (select(&proc_root), select(&sim_root));
        assert_eq!(from_proc.seeds, r.seeds);
        assert_eq!(from_proc.marginals, r.marginals);
        assert_eq!(from_proc.seeds, from_sim.seeds);
        assert_eq!(from_proc.coverage, from_sim.coverage);
        assert_eq!(from_proc.num_rr_sets, from_sim.num_rr_sets);
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
        let mut full = proc_cluster(2, config.seed);
        setup_im_cluster(&mut full, &g, config.sampler, false).unwrap();
        let r_full = diimm_on(&mut full, &g, &config, false).unwrap();

        let mut inc = proc_cluster(2, config.seed);
        setup_im_cluster(&mut inc, &g, config.sampler, false).unwrap();
        let r_inc = diimm_on(&mut inc, &g, &config, true).unwrap();

        assert_eq!(r_inc.seeds, r_full.seeds);
        assert_eq!(r_inc.coverage, r_full.coverage);
        assert!(
            r_inc.metrics.bytes_to_master <= r_full.metrics.bytes_to_master,
            "incremental {} B should not exceed full {} B",
            r_inc.metrics.bytes_to_master,
            r_full.metrics.bytes_to_master
        );
    }
}

/// The join backend is the fifth execution strategy: membership assembles
/// from pre-started workers registering with the master's rendezvous
/// point instead of the master spawning them. Same op protocol, same
/// answers — plus session reuse (a worker's resident graph survives into
/// the next run) and fail-stop on dead links.
mod join_backend {
    use std::thread;
    use std::time::Duration;

    use super::*;
    use dim_cluster::ops::expect_ok;
    use dim_cluster::rendezvous::{self, JoinConfig, JoinOptions, Rendezvous};
    use dim_core::diimm::{diimm_on, diimm_with_options};

    const JOIN_MACHINE_COUNTS: [usize; 3] = [1, 2, 4];

    fn join_config(machines: usize) -> JoinConfig {
        let mut config = JoinConfig::new(machines);
        config.join_timeout = Duration::from_secs(30);
        config
    }

    /// Pre-starts ℓ loopback join workers on threads, each pinned to its
    /// machine id and serving `sessions` consecutive sessions with one
    /// long-lived [`WorkerHost`] — the deployment shape of
    /// `dim-worker --connect ADDR --join`.
    fn start_workers(
        addr: std::net::SocketAddr,
        machines: usize,
        sessions: usize,
    ) -> Vec<thread::JoinHandle<Vec<SessionEnd>>> {
        (0..machines)
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
                                let host = host.get_or_insert_with(|| {
                                    WorkerHost::new(
                                        welcome.machine_id as usize,
                                        welcome.master_seed,
                                    )
                                });
                                host.reset_session(
                                    welcome.machine_id as usize,
                                    welcome.master_seed,
                                );
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

    /// DiIMM over registered (not spawned) workers reproduces the
    /// simulator bit for bit — seeds, coverage, modeled traffic — at every
    /// machine count, and the rendezvous latency lands in the timeline as
    /// a zero-traffic setup phase.
    #[test]
    fn diimm_join_matches_sequential() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = ImConfig {
            k: 6,
            ..ImConfig::paper_defaults(&g, 0.4, 29)
        };
        for machines in JOIN_MACHINE_COUNTS {
            let reference = diimm_with_options(
                &g,
                &config,
                machines,
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
                true,
            )
            .unwrap();
            let mut rendezvous = Rendezvous::bind("127.0.0.1:0", join_config(machines)).unwrap();
            let workers = start_workers(rendezvous.local_addr().unwrap(), machines, 1);
            let mut cluster = accept(&mut rendezvous, config.seed);
            assert_eq!(cluster.session_id(), 1, "join sessions count from 1");
            setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
            let r = diimm_on(&mut cluster, &g, &config, true).unwrap();
            let ctx = format!("ℓ = {machines}");
            assert_eq!(r.seeds, reference.seeds, "{ctx}");
            assert_eq!(r.coverage, reference.coverage, "{ctx}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
            assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
            // Rendezvous is bookkeeping, not traffic: modeled bytes and
            // message counts still match the simulator exactly.
            assert_eq!(
                r.metrics.bytes_to_master, reference.metrics.bytes_to_master,
                "{ctx}"
            );
            assert_eq!(
                r.metrics.bytes_from_master, reference.metrics.bytes_from_master,
                "{ctx}"
            );
            assert_eq!(r.metrics.messages, reference.metrics.messages, "{ctx}");
            let (_, rdv) = r
                .timeline
                .iter()
                .find(|(label, _)| *label == phase::RENDEZVOUS)
                .unwrap_or_else(|| panic!("{ctx}: no {} phase in timeline", phase::RENDEZVOUS));
            assert!(rdv.master_compute > Duration::ZERO, "{ctx}");
            assert_eq!(rdv.total_bytes(), 0, "{ctx}: rendezvous models no traffic");
            assert_eq!(cluster.link_errors(), 0, "{ctx}");
            drop(cluster); // Shutdown ops release the workers.
            for w in workers {
                assert_eq!(w.join().unwrap(), vec![SessionEnd::Shutdown], "{ctx}");
            }
        }
    }

    /// The reverse-BFS baseline on the join backend: registered (not
    /// spawned) workers running the per-edge sampler reproduce the
    /// sequential simulator bit for bit.
    #[test]
    fn diimm_reverse_bfs_join_matches_sequential() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = ImConfig {
            k: 6,
            sampler: SamplerKind::ReverseBfs,
            ..ImConfig::paper_defaults(&g, 0.4, 29)
        };
        let machines = 2;
        let reference = diimm_with_options(
            &g,
            &config,
            machines,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
            true,
        )
        .unwrap();
        let mut rendezvous = Rendezvous::bind("127.0.0.1:0", join_config(machines)).unwrap();
        let workers = start_workers(rendezvous.local_addr().unwrap(), machines, 1);
        let mut cluster = accept(&mut rendezvous, config.seed);
        setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
        let r = diimm_on(&mut cluster, &g, &config, true).unwrap();
        assert_eq!(r.seeds, reference.seeds);
        assert_eq!(r.marginals, reference.marginals);
        assert_eq!(r.coverage, reference.coverage);
        assert_eq!(r.num_rr_sets, reference.num_rr_sets);
        assert_eq!(r.total_rr_size, reference.total_rr_size);
        assert_eq!(cluster.link_errors(), 0);
        drop(cluster);
        for w in workers {
            assert_eq!(w.join().unwrap(), vec![SessionEnd::Shutdown]);
        }
    }

    /// OPIM-C and SSA over registered workers: the paired frameworks'
    /// join runs equal the sequential simulator's.
    #[test]
    fn paired_frameworks_join_match_sequential() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = ImConfig {
            k: 6,
            ..ImConfig::paper_defaults(&g, 0.4, 29)
        };
        let machines = 2;
        for (name, sim, rule) in PAIRED_FRAMEWORKS {
            let net = NetworkModel::cluster_1gbps();
            let reference = sim(&g, &config, machines, net, ExecMode::Sequential).unwrap();
            let mut rendezvous = Rendezvous::bind("127.0.0.1:0", join_config(machines)).unwrap();
            let workers = start_workers(rendezvous.local_addr().unwrap(), machines, 1);
            let mut cluster = accept(&mut rendezvous, config.seed);
            let r = paired_over(&mut cluster, &g, &config, rule);
            assert_same_paired_run(&r, &reference, name);
            assert_eq!(cluster.link_errors(), 0, "{name}");
            drop(cluster);
            for w in workers {
                assert_eq!(w.join().unwrap(), vec![SessionEnd::Shutdown], "{name}");
            }
        }
    }

    /// GreeDi and RandGreeDi over registered workers reproduce the
    /// simulator bit for bit.
    #[test]
    fn greedi_join_matches_sequential() {
        let g = DatasetProfile::Facebook.generate(0.15, 3);
        let problem = CoverageProblem::from_graph_neighborhoods(&g);
        let machines = 2;
        for (name, shuffle) in GREEDI_VARIANTS {
            let (shards, partition) = problem.shard_sets(machines, shuffle);
            let (reference, want) = greedi_reference(&shards, &partition);
            let mut rendezvous = Rendezvous::bind("127.0.0.1:0", join_config(machines)).unwrap();
            let workers = start_workers(rendezvous.local_addr().unwrap(), machines, 1);
            let mut cluster = accept(&mut rendezvous, 0xD1A7);
            let r = greedi_over(&mut cluster, &shards, &partition);
            assert_same_greedi_run((&r, &cluster.metrics()), (&reference, &want), name);
            assert_eq!(cluster.link_errors(), 0, "{name}");
            drop(cluster);
            for w in workers {
                assert_eq!(w.join().unwrap(), vec![SessionEnd::Shutdown], "{name}");
            }
        }
    }

    /// NewGreeDi seeds *and per-seed marginals* are byte-identical to the
    /// sequential simulator, and the same master serves two consecutive
    /// sessions to the same re-registering workers — the second session
    /// reuses each worker's resident state path end to end.
    #[test]
    fn newgreedi_join_matches_sequential_across_two_sessions() {
        let g = DatasetProfile::Facebook.generate(0.15, 3);
        let problem = CoverageProblem::from_graph_neighborhoods(&g);
        let k = 12;
        let machines = 2;
        let shards = problem.shard_elements(machines);
        let mut seq = SimCluster::new(
            shards.clone(),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let reference = newgreedi_with(&mut seq, problem.num_sets(), k).unwrap();

        let mut rendezvous = Rendezvous::bind("127.0.0.1:0", join_config(machines)).unwrap();
        let workers = start_workers(rendezvous.local_addr().unwrap(), machines, 2);
        for session in 1..=2u64 {
            let mut cluster = accept(&mut rendezvous, 0xD1A7);
            assert_eq!(cluster.session_id(), session);
            let replies = cluster
                .control(phase::SETUP, |i| WorkerOp::BuildShard {
                    num_sets: problem.num_sets() as u32,
                    elements: shards[i].elements().iter().map(<[u32]>::to_vec).collect(),
                })
                .unwrap();
            expect_ok(&replies, phase::SETUP).unwrap();
            let r = dim_coverage::newgreedi_with(&mut cluster, problem.num_sets(), k).unwrap();
            assert_eq!(r, reference, "session {session}");
            assert_eq!(r.marginals, reference.marginals, "session {session}");
            assert_eq!(cluster.link_errors(), 0, "session {session}");
        }
        for w in workers {
            assert_eq!(
                w.join().unwrap(),
                vec![SessionEnd::Shutdown, SessionEnd::Shutdown]
            );
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
    use dim_core::diimm::{diimm_on, DiimmWorker};

    const CHAOS_MACHINE_COUNTS: [usize; 2] = [2, 4];

    fn chaos_config(g: &Graph) -> ImConfig {
        ImConfig {
            k: 6,
            ..ImConfig::paper_defaults(g, 0.4, 29)
        }
    }

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

    fn sim_workers<'g>(g: &'g Graph, config: &ImConfig, machines: usize) -> Vec<DiimmWorker<'g>> {
        (0..machines).map(|i| DiimmWorker::new(g, config, i)).collect()
    }

    /// Single-machine loss during RR sampling on the simulated backend:
    /// the run completes via speculative shard rebuild and every output
    /// field — seeds, marginals, coverage, θ, RR mass, edge work — is
    /// byte-identical to the fault-free reference, at ℓ = 2 and ℓ = 4.
    #[test]
    fn single_kill_recovers_byte_identically_sim() {
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = chaos_config(&g);
        for machines in CHAOS_MACHINE_COUNTS {
            let reference = diimm(
                &g,
                &config,
                machines,
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            )
            .unwrap();
            let victim = machines - 1;
            let cluster = SimCluster::new(
                sim_workers(&g, &config, machines),
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            )
            .with_faults(FaultInjector::new(
                FaultPlan::kill_machine(victim as u32, 1),
                machines,
            ));
            let run = diimm_on_recovering(cluster, &g, &config, true, single_loss_policy())
                .unwrap();
            let ctx = format!("ℓ = {machines}");
            let r = &run.result;
            assert_eq!(r.seeds, reference.seeds, "{ctx}");
            assert_eq!(r.marginals, reference.marginals, "{ctx}");
            assert_eq!(r.coverage, reference.coverage, "{ctx}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
            assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
            assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
            let degraded = run.degraded.unwrap_or_else(|| panic!("{ctx}: kill not recorded"));
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
        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = chaos_config(&g);
        for machines in CHAOS_MACHINE_COUNTS {
            let reference = diimm(
                &g,
                &config,
                machines,
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            )
            .unwrap();
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
            let mut cluster = SimCluster::new(
                sim_workers(&g, &config, machines),
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            )
            .with_faults(FaultInjector::new(plan, machines));
            let r = diimm_on(&mut cluster, &g, &config, true).unwrap();
            let ctx = format!("ℓ = {machines}");
            assert_eq!(r.seeds, reference.seeds, "{ctx}");
            assert_eq!(r.marginals, reference.marginals, "{ctx}");
            assert_eq!(r.coverage, reference.coverage, "{ctx}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
            assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
            assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
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
        use dim_cluster::ProcCluster;

        let g = DatasetProfile::Facebook.generate(0.1, 11);
        let config = chaos_config(&g);
        for machines in CHAOS_MACHINE_COUNTS {
            let reference = diimm(
                &g,
                &config,
                machines,
                NetworkModel::cluster_1gbps(),
                ExecMode::Sequential,
            )
            .unwrap();
            let victim = machines - 1;
            let mut cluster =
                ProcCluster::spawn(machines, NetworkModel::cluster_1gbps(), config.seed)
                    .expect("spawn dim-worker processes");
            setup_im_cluster(&mut cluster, &g, config.sampler, false).unwrap();
            // Armed after setup so round 0 is the first algorithm op
            // round — the same clock the simulator's plan uses.
            cluster.set_chaos(Some(FaultInjector::new(
                FaultPlan::kill_machine(victim as u32, 1),
                machines,
            )));
            let run = diimm_on_recovering(cluster, &g, &config, true, single_loss_policy())
                .unwrap();
            let ctx = format!("ℓ = {machines} (proc)");
            let r = &run.result;
            assert_eq!(r.seeds, reference.seeds, "{ctx}");
            assert_eq!(r.marginals, reference.marginals, "{ctx}");
            assert_eq!(r.coverage, reference.coverage, "{ctx}");
            assert_eq!(r.num_rr_sets, reference.num_rr_sets, "{ctx}");
            assert_eq!(r.total_rr_size, reference.total_rr_size, "{ctx}");
            assert_eq!(r.edges_examined, reference.edges_examined, "{ctx}");
            let degraded = run.degraded.unwrap_or_else(|| panic!("{ctx}: kill not recorded"));
            assert_eq!(degraded.lost, vec![victim], "{ctx}");
            assert!(degraded.rebuilt_sets > 0, "{ctx}: rebuild produced no sets");
        }
    }

    /// Stall-only schedules on the process backend are real socket
    /// sleeps, well inside the 60 s reply timeout: no link dies,
    /// no recovery engages, and the answer does not diverge by a byte.
    #[test]
    fn stall_schedule_zero_divergence_proc() {
        use dim_cluster::ProcCluster;

        let g = DatasetProfile::Facebook.generate(0.08, 17);
        let config = ImConfig {
            k: 4,
            ..ImConfig::paper_defaults(&g, 0.5, 7)
        };
        let machines = 2;
        let reference = diimm(
            &g,
            &config,
            machines,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        let mut cluster = ProcCluster::spawn(machines, NetworkModel::cluster_1gbps(), config.seed)
            .expect("spawn dim-worker processes");
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
        assert_eq!(r.seeds, reference.seeds);
        assert_eq!(r.marginals, reference.marginals);
        assert_eq!(r.coverage, reference.coverage);
        assert_eq!(r.num_rr_sets, reference.num_rr_sets);
        assert_eq!(cluster.link_errors(), 0, "stalls within timeouts kill no link");
        let events = cluster
            .chaos_injector()
            .expect("injector stays armed")
            .events();
        assert!(!events.is_empty(), "no stall events fired");
    }
}
