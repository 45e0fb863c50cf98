//! The sample/select benchmark workloads the `dim-benchrec` binary times
//! to record `BENCH_sample_select.json`.

use std::time::{Duration, Instant};

use dim_cluster::{
    phase, ExecMode, FaultInjector, FaultPlan, NetworkModel, OpCluster, SimCluster, WorkerOp,
};
use dim_core::diimm::DiimmWorker;
use dim_core::recover::{RecoveringCluster, RecoveryPolicy};
use dim_core::{ImConfig, SamplerKind};
use dim_coverage::{constrained_greedy, CoverageShard, SketchCursors};
use dim_diffusion::rr::{AnySampler, RrSampler};
use dim_diffusion::visit::VisitTracker;
use dim_diffusion::DiffusionModel;
use dim_graph::rng::Rng;
use dim_graph::{DeltaBatch, EdgeOp, Graph};

/// Samples `theta` RR sets under IC and builds the per-machine coverage
/// shards — what one `dim sample` machine does before persisting.
///
/// Each RR set is pushed straight into its shard's pooled arena instead of
/// being staged through a `Vec<Vec<u32>>`: one allocation per shard rather
/// than one per RR set. The RNG draw order and the shard assignment
/// (`theta.div_ceil(shards)` consecutive sets per shard) are unchanged, so
/// the sketch — and every seed selected from it — is byte-identical to the
/// staged construction.
pub fn build_shards(graph: &Graph, theta: usize, shards: usize, seed: u64) -> Vec<CoverageShard> {
    let sampler = AnySampler::for_model(graph, DiffusionModel::IndependentCascade);
    let mut rng = Rng::new(seed);
    let mut visited = VisitTracker::new(graph.num_nodes());
    if theta == 0 {
        return Vec::new();
    }
    let per_shard = theta.div_ceil(shards.max(1));
    let num_shards = theta.div_ceil(per_shard);
    let mut result: Vec<CoverageShard> =
        (0..num_shards).map(|_| CoverageShard::new(theta)).collect();
    let mut out = Vec::new();
    for i in 0..theta {
        sampler.sample(&mut rng, &mut out, &mut visited);
        result[i / per_shard].push_element(&out);
    }
    for s in &mut result {
        s.prepare();
    }
    result
}

/// Greedy top-k over the sharded sketch — the selection hot path.
pub fn select_top_k(shards: &[CoverageShard], k: usize) -> Vec<u32> {
    constrained_greedy(shards, k, &[], &[]).seeds
}

/// The deterministic seed sets the spread-batch workload queries.
pub fn batch_seed_sets(num_nodes: usize, batch: usize, per_query: usize) -> Vec<Vec<u32>> {
    (0..batch as u32)
        .map(|i| {
            (0..per_query as u32)
                .map(|j| (i * 131 + j * 17) % num_nodes.max(1) as u32)
                .collect()
        })
        .collect()
}

/// A pipelined spread-query batch through one reused cursor set — the
/// `REQ_BATCH` fast path. Returns the summed coverage (a checksum).
pub fn spread_batch(shards: &[CoverageShard], seed_sets: &[Vec<u32>]) -> u64 {
    let mut cursors = SketchCursors::new(shards);
    seed_sets
        .iter()
        .map(|seeds| cursors.seed_set_coverage(seeds))
        .sum()
}

/// The deterministic edit batch the stream-apply workload applies:
/// `edits` ops cycling insert → reweight → delete over spread-out node
/// pairs. Delta semantics make every op valid on any graph of `num_nodes`
/// nodes: inserts overwrite, reweights/deletes of missing edges are
/// no-ops — so the batch needs no knowledge of the edge set.
pub fn stream_edit_batch(num_nodes: usize, edits: usize, seq: u64) -> DeltaBatch {
    let n = num_nodes.max(2) as u32;
    let ops = (0..edits as u32)
        .map(|i| {
            let u = (i * 131 + 7) % n;
            // `1 + offset` is in `[1, n − 1]`, so `v` can never equal `u`.
            let v = (u + 1 + (i * 37) % (n - 1)) % n;
            match i % 3 {
                0 => EdgeOp::Insert { u, v, p: 0.3 },
                1 => EdgeOp::Reweight { u, v, p: 0.6 },
                _ => EdgeOp::Delete { u, v },
            }
        })
        .collect();
    DeltaBatch::new(seq, ops)
}

/// What one stream-apply pass did, alongside its timing.
#[derive(Clone, Copy, Debug)]
pub struct StreamApplyOutcome {
    /// Edge ops the batch carried.
    pub edits: usize,
    /// RR sets the batch invalidated — each one re-sampled on its
    /// original per-set stream against the mutated graph.
    pub sets_resampled: usize,
}

/// Best-of-`iters` timing of the edge-stream repair hot path: one DiIMM
/// machine holding `theta` resident RR sets applies an `edits`-op batch
/// and incrementally re-samples exactly the invalidated sets — what
/// `WorkerOp::ApplyDelta` costs per machine in `dim stream`. Each
/// iteration rebuilds an identical resident worker outside the timed
/// region (including the shard index build), so the measurement covers
/// only validate + graph rebuild + invalidation scan + re-sample +
/// element replacement.
pub fn time_stream_apply(
    graph: &Graph,
    theta: usize,
    edits: usize,
    iters: usize,
    seed: u64,
) -> (Duration, StreamApplyOutcome) {
    assert!(iters >= 1);
    let config = ImConfig {
        k: 1,
        epsilon: 0.5,
        delta: 0.1,
        seed,
        sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
    };
    let batch = stream_edit_batch(graph.num_nodes(), edits, 0);
    let mut best: Option<Duration> = None;
    let mut outcome = None;
    for _ in 0..iters {
        let mut worker = DiimmWorker::new(graph, &config, 0);
        worker.generate(theta);
        worker.shard.prepare();
        let start = Instant::now();
        let repaired = worker
            .apply_delta(&batch)
            .expect("generated batch is valid for the graph");
        let elapsed = start.elapsed();
        if best.is_none_or(|b| elapsed < b) {
            best = Some(elapsed);
        }
        outcome = Some(StreamApplyOutcome {
            edits: batch.ops.len(),
            sets_resampled: repaired.len(),
        });
    }
    (best.unwrap(), outcome.unwrap())
}

/// What one speculative recovery pass rebuilt, alongside its timing.
#[derive(Clone, Copy, Debug)]
pub struct FaultRecoverOutcome {
    /// RR sets the surviving machine re-derived for the lost shard.
    pub rebuilt_sets: usize,
    /// Op rounds the victim completed before its link died.
    pub healthy_rounds: usize,
}

/// Best-of-`iters` timing of the speculative-recovery hot path: a 2-machine
/// cluster samples `theta` RR sets over `rounds` op rounds, machine 1's
/// link is killed on the final round, and the recovery layer rebuilds its
/// entire shard by replaying the op log on the lost machine's per-set RNG
/// streams. The timed region is exactly the killed round — quorum check,
/// source-fresh worker, full replay, and local service of the in-flight op
/// — which is what a real `Degraded` completion pays over a healthy run.
pub fn time_fault_recover(
    graph: &Graph,
    theta: usize,
    rounds: usize,
    iters: usize,
    seed: u64,
) -> (Duration, FaultRecoverOutcome) {
    assert!(iters >= 1 && rounds >= 2);
    let config = ImConfig {
        k: 1,
        epsilon: 0.5,
        delta: 0.1,
        seed,
        sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
    };
    let per_round = theta.div_ceil(rounds) as u64;
    let mut best: Option<Duration> = None;
    let mut outcome = None;
    for _ in 0..iters {
        let workers: Vec<DiimmWorker> =
            (0..2).map(|i| DiimmWorker::new(graph, &config, i)).collect();
        let sim = SimCluster::new(workers, NetworkModel::cluster_1gbps(), ExecMode::Sequential)
            .with_faults(FaultInjector::new(
                FaultPlan::kill_machine(1, rounds as u64 - 1),
                2,
            ));
        let policy = RecoveryPolicy {
            min_survivors: 1,
            ..RecoveryPolicy::resample()
        };
        let mut cluster = RecoveringCluster::new(sim, graph, &config, policy);
        for _ in 0..rounds - 1 {
            cluster
                .control(phase::RR_SAMPLING, |_| WorkerOp::SampleRr { count: per_round })
                .expect("rounds before the kill are healthy");
        }
        let start = Instant::now();
        cluster
            .control(phase::RR_SAMPLING, |_| WorkerOp::SampleRr { count: per_round })
            .expect("single loss recovers under min_survivors = 1");
        let elapsed = start.elapsed();
        if best.is_none_or(|b| elapsed < b) {
            best = Some(elapsed);
        }
        let degraded = cluster
            .degraded_outcome()
            .expect("the kill round engaged recovery");
        outcome = Some(FaultRecoverOutcome {
            rebuilt_sets: degraded.rebuilt_sets as usize,
            healthy_rounds: rounds - 1,
        });
    }
    (best.unwrap(), outcome.unwrap())
}

/// Best-of-`iters` wall-clock of `f` (minimum is the standard
/// noise-robust point estimate for CPU-bound microbenchmarks).
pub fn time_best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(iters >= 1);
    let mut best: Option<Duration> = None;
    let mut last = None;
    for _ in 0..iters {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        if best.is_none_or(|b| elapsed < b) {
            best = Some(elapsed);
        }
        last = Some(value);
    }
    (best.unwrap(), last.unwrap())
}

/// The record `dim-benchrec` writes to `BENCH_sample_select.json` (one
/// JSON object per line; the file accumulates labeled entries such as
/// `before`/`after` pairs across optimization passes).
#[derive(Clone, Debug)]
pub struct SampleSelectReport {
    /// What this entry measures relative to its neighbors in the file
    /// (e.g. `"before-flat-hot-paths"`, `"after-flat-hot-paths"`).
    pub label: String,
    pub provenance: String,
    pub graph: String,
    pub num_nodes: usize,
    pub theta: usize,
    pub shards: usize,
    pub k: usize,
    pub batch: usize,
    pub sample_build_ms: f64,
    pub select_top_k_ms: f64,
    pub spread_batch_ms: f64,
    pub stream_apply_ms: f64,
    /// Edge ops the stream-apply phase pushed through one machine.
    pub stream_edits: usize,
    /// RR sets those edits invalidated (and the repair re-sampled).
    pub stream_resampled: usize,
    pub fault_recover_ms: f64,
    /// RR sets the speculative-recovery phase rebuilt for the lost shard.
    pub recover_rebuilt: usize,
}

/// The timed-phase keys a report records, shared by the writer and the
/// `--check` regression guard. The guard skips any key the committed
/// baseline entry predates, so adding a phase here never breaks `--check`
/// against an older trajectory file.
pub const PHASE_KEYS: [&str; 5] = [
    "sample_build_ms",
    "select_top_k_ms",
    "spread_batch_ms",
    "stream_apply_ms",
    "fault_recover_ms",
];

impl SampleSelectReport {
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"bench\":\"sample_select\",\"label\":\"{}\",\"provenance\":\"{}\",",
                "\"graph\":\"{}\",\"num_nodes\":{},\"theta\":{},",
                "\"shards\":{},\"k\":{},\"batch\":{},",
                "\"sample_build_ms\":{:.3},\"select_top_k_ms\":{:.3},",
                "\"spread_batch_ms\":{:.3},\"stream_apply_ms\":{:.3},",
                "\"stream_edits\":{},\"stream_resampled\":{},",
                "\"fault_recover_ms\":{:.3},\"recover_rebuilt\":{}}}"
            ),
            self.label,
            self.provenance,
            self.graph,
            self.num_nodes,
            self.theta,
            self.shards,
            self.k,
            self.batch,
            self.sample_build_ms,
            self.select_top_k_ms,
            self.spread_batch_ms,
            self.stream_apply_ms,
            self.stream_edits,
            self.stream_resampled,
            self.fault_recover_ms,
            self.recover_rebuilt,
        )
    }

    /// Reads one phase timing back by key.
    pub fn phase_ms(&self, key: &str) -> Option<f64> {
        match key {
            "sample_build_ms" => Some(self.sample_build_ms),
            "select_top_k_ms" => Some(self.select_top_k_ms),
            "spread_batch_ms" => Some(self.spread_batch_ms),
            "stream_apply_ms" => Some(self.stream_apply_ms),
            "fault_recover_ms" => Some(self.fault_recover_ms),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cluster::json::Json;
    use dim_graph::generators::barabasi_albert;
    use dim_graph::WeightModel;

    #[test]
    fn workloads_are_deterministic_and_agree_with_direct_evaluation() {
        let graph = barabasi_albert(200, 3, WeightModel::WeightedCascade, 7);
        let shards = build_shards(&graph, 500, 3, 11);
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards
                .iter()
                .map(CoverageShard::num_elements)
                .sum::<usize>(),
            500
        );
        assert_eq!(
            shards
                .iter()
                .map(|s| s.num_sets())
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1,
            "all shards index the same universe"
        );
        let again = build_shards(&graph, 500, 3, 11);
        let seeds = select_top_k(&shards, 5);
        assert_eq!(seeds.len(), 5);
        assert_eq!(seeds, select_top_k(&again, 5), "same seed, same sketch");

        let seed_sets = batch_seed_sets(graph.num_nodes(), 16, 3);
        assert!(seed_sets
            .iter()
            .all(|s| s.iter().all(|&v| (v as usize) < 200)));
        let total = spread_batch(&shards, &seed_sets);
        let direct: u64 = seed_sets
            .iter()
            .map(|s| dim_coverage::seed_set_coverage(&shards, s))
            .sum();
        assert_eq!(total, direct, "reused cursors match fresh evaluation");
    }

    #[test]
    fn stream_apply_workload_is_deterministic_and_repairs_sets() {
        let graph = barabasi_albert(200, 3, WeightModel::WeightedCascade, 7);
        let batch = stream_edit_batch(graph.num_nodes(), 30, 0);
        assert_eq!(batch.ops.len(), 30);
        batch.validate(graph.num_nodes()).expect("generated batch is valid");

        let (_, first) = time_stream_apply(&graph, 400, 30, 1, 11);
        let (_, again) = time_stream_apply(&graph, 400, 30, 2, 11);
        assert_eq!(first.edits, 30);
        assert!(first.sets_resampled > 0, "30 edits must invalidate some sets");
        assert!(first.sets_resampled <= 400);
        assert_eq!(
            first.sets_resampled, again.sets_resampled,
            "same seed, same invalidation"
        );
    }

    #[test]
    fn fault_recover_workload_rebuilds_the_full_lost_shard() {
        let graph = barabasi_albert(200, 3, WeightModel::WeightedCascade, 7);
        let (_, first) = time_fault_recover(&graph, 400, 4, 1, 11);
        let (_, again) = time_fault_recover(&graph, 400, 4, 2, 11);
        // The victim had completed 3 of 4 rounds of ⌈400/4⌉ sets each.
        assert_eq!(first.healthy_rounds, 3);
        assert_eq!(first.rebuilt_sets, 300, "replay rebuilds the whole shard");
        assert_eq!(first.rebuilt_sets, again.rebuilt_sets);
    }

    #[test]
    fn report_serializes_every_field() {
        let report = SampleSelectReport {
            label: "after".into(),
            provenance: "unit-test".into(),
            graph: "facebook:1".into(),
            num_nodes: 4039,
            theta: 20_000,
            shards: 4,
            k: 50,
            batch: 64,
            sample_build_ms: 12.5,
            select_top_k_ms: 3.25,
            spread_batch_ms: 1.125,
            stream_apply_ms: 2.75,
            stream_edits: 64,
            stream_resampled: 301,
            fault_recover_ms: 6.5,
            recover_rebuilt: 15_000,
        };
        let json = report.to_json();
        for key in [
            "\"bench\":\"sample_select\"",
            "\"label\":\"after\"",
            "\"provenance\":\"unit-test\"",
            "\"graph\":\"facebook:1\"",
            "\"theta\":20000",
            "\"sample_build_ms\":12.500",
            "\"select_top_k_ms\":3.250",
            "\"spread_batch_ms\":1.125",
            "\"stream_apply_ms\":2.750",
            "\"stream_edits\":64",
            "\"stream_resampled\":301",
            "\"fault_recover_ms\":6.500",
            "\"recover_rebuilt\":15000",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
        let (elapsed, value) = time_best_of(3, || 41 + 1);
        assert_eq!(value, 42);
        assert!(elapsed < Duration::from_secs(1));
    }

    #[test]
    fn report_line_reads_back_by_key() {
        let report = SampleSelectReport {
            label: "before".into(),
            provenance: "unit-test".into(),
            graph: "facebook:1".into(),
            num_nodes: 4039,
            theta: 20_000,
            shards: 4,
            k: 50,
            batch: 64,
            sample_build_ms: 92.897,
            select_top_k_ms: 5.644,
            spread_batch_ms: 0.107,
            stream_apply_ms: 4.012,
            stream_edits: 64,
            stream_resampled: 512,
            fault_recover_ms: 9.301,
            recover_rebuilt: 15_000,
        };
        let line = Json::parse(&report.to_json()).unwrap();
        for key in PHASE_KEYS {
            assert_eq!(line.get(key), Some(&Json::Num(report.phase_ms(key).unwrap())), "{key}");
        }
        assert_eq!(line.get("theta"), Some(&Json::Num(20_000.0)));
        assert_eq!(line.str_of("label"), Some("before"));
        assert_eq!(line.get("no_such_key"), None);
    }
}
