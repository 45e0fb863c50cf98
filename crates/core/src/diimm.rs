//! DiIMM — distributed IMM (Algorithm 2 of the paper).
//!
//! Both IMM phases run distributed:
//!
//! * **Sampling** — each of the `ℓ` machines generates `(θ_t − θ_{t−1})/ℓ`
//!   RR sets from its own RNG stream into its own shard (distributed RIS,
//!   §III-A). The phase's virtual time is the slowest machine's — exactly
//!   the paper's model, and concentrated around the mean by Corollary 1.
//! * **Seed selection** — NewGreeDi (Algorithm 1) over the element shards,
//!   returning exactly the centralized greedy solution (Lemma 2), hence
//!   preserving IMM's `(1 − 1/e − ε)` guarantee (Theorem 1).

use std::sync::Arc;

use dim_cluster::ops::{expect_ok, expect_stats};
use dim_cluster::{
    phase, rr_set_seed, stream_seed, ExecMode, NetworkModel, OpCluster,
    OpExecutor, SimCluster, WireError, WorkerOp, WorkerReply, WorkerStats,
};
use dim_coverage::newgreedi::{newgreedi_incremental, newgreedi_with, NewGreediResult};
use dim_coverage::{execute_coverage_op, CoverageShard};
use dim_diffusion::rr::{AnySampler, RrSampler};
use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::{DeltaBatch, Graph, GraphRef};

use crate::config::{ImConfig, ImResult, SamplerKind, Timings};
use crate::imm::lower_bound_search;
use crate::params::ImParams;

/// One machine's state: the sampler over the graph it holds, its RNG
/// discipline, and its element shard.
///
/// RR set `j` of a machine is always drawn from the dedicated stream
/// `rr_set_seed(machine_seed, j)` rather than one sequential per-machine
/// stream. That makes every set's randomness a pure function of
/// `(master seed, machine, set index)` — the property edge-stream repair
/// rests on: re-sampling an invalidated set on the mutated graph
/// reproduces exactly what a from-scratch run on that graph would have
/// drawn for it, so an applied [`DeltaBatch`] is byte-identical to a full
/// re-sample (see [`DiimmWorker::apply_delta`]).
///
/// The sampler owns the machine's graph (borrowed, or shared with the
/// other holders of one copy) and is built once per graph: by
/// [`new`](Self::new)/`restore`, and again only when
/// [`apply_delta`](Self::apply_delta) installs the mutated graph.
pub struct DiimmWorker<'g> {
    sampler: AnySampler<'g>,
    sampler_kind: SamplerKind,
    machine_seed: u64,
    machine_id: u32,
    /// The machine's RR sets, stored directly as coverage elements
    /// (element record = the RR set's member nodes).
    pub shard: CoverageShard,
    buf: Vec<u32>,
    visited: EpochFlags,
    pub(crate) edges_examined: u64,
    /// RR sets generated so far — the next set's stream index.
    sets: u64,
}

impl<'g> DiimmWorker<'g> {
    /// Creates the worker for `machine_id` with its derived RNG stream,
    /// building its sampler over `graph`.
    pub fn new(graph: impl Into<GraphRef<'g>>, config: &ImConfig, machine_id: usize) -> Self {
        let graph = graph.into();
        let shard = CoverageShard::new(graph.num_nodes());
        Self::restore(graph, config, machine_id, shard, 0)
    }

    /// Restores a machine's worker from persisted state: the graph its
    /// resident RR sets are valid against (a streamed chain's tip), the
    /// sets themselves (stream position resumes after them) and prior
    /// sampling stats.
    pub(crate) fn restore(
        graph: GraphRef<'g>,
        config: &ImConfig,
        machine_id: usize,
        shard: CoverageShard,
        edges_examined: u64,
    ) -> Self {
        DiimmWorker {
            visited: EpochFlags::new(graph.num_nodes()),
            sampler: config.sampler.build(graph),
            sampler_kind: config.sampler,
            machine_seed: stream_seed(config.seed, machine_id),
            machine_id: machine_id as u32,
            sets: shard.num_elements() as u64,
            shard,
            buf: Vec::new(),
            edges_examined,
        }
    }

    /// The graph RR sets are currently drawn from.
    pub fn current_graph(&self) -> &Graph {
        self.sampler.graph()
    }

    /// Samples `count` RR sets into the shard (Algorithm 2, lines 6/12),
    /// each from its own per-set RNG stream.
    pub fn generate(&mut self, count: usize) {
        for _ in 0..count {
            let mut rng = Rng::new(rr_set_seed(self.machine_seed, self.sets));
            self.edges_examined += self
                .sampler
                .sample(&mut rng, &mut self.buf, &mut self.visited);
            self.shard.push_element(&self.buf);
            self.sets += 1;
        }
    }

    /// Applies an edge batch to the resident graph and repairs the shard
    /// incrementally: exactly the RR sets whose traversal touched a
    /// mutated in-list are re-sampled (on their original per-set streams,
    /// against the mutated graph); every other set is left untouched.
    ///
    /// Soundness: every sampler draws RNG only while scanning the in-lists
    /// of visited nodes, and an edge op on `u→v` changes only `v`'s
    /// in-list — so a set that contains no touched node replays
    /// byte-identically on the mutated graph, and a set that does is
    /// regenerated exactly as a fresh run would. The repaired shard is
    /// therefore byte-identical to a full re-sample of the mutated graph.
    ///
    /// The repair builds no index: the invalid sets are found by one scan
    /// of the shard's records, the re-sampled ones are spliced in, and the
    /// shard is left stale ([`CoverageShard::needs_prepare`]), so the
    /// transpose is rebuilt once by the next selection round rather than
    /// once per batch.
    ///
    /// Returns the repaired records `(set index, new member nodes)` in
    /// increasing index order.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<Vec<(u32, Vec<u32>)>, String> {
        let graph = self.sampler.graph();
        batch
            .validate(graph.num_nodes())
            .map_err(|e| e.to_string())?;
        let mutated = dim_graph::apply_batch(graph, batch).map_err(|e| e.to_string())?;
        self.sampler = self.sampler_kind.build(Arc::new(mutated));
        let invalid = self.shard.elements_containing(&batch.touched_nodes());
        let mut repaired = Vec::with_capacity(invalid.len());
        for &j in &invalid {
            let mut rng = Rng::new(rr_set_seed(self.machine_seed, j as u64));
            self.edges_examined += self
                .sampler
                .sample(&mut rng, &mut self.buf, &mut self.visited);
            repaired.push((j, self.buf.clone()));
        }
        self.shard.replace_elements(&repaired);
        Ok(repaired)
    }
}

/// The op vocabulary a DiIMM machine answers: RR sampling into its
/// resident shard, the coverage phases against that shard, and stats.
/// This single interpretation serves both the in-process simulator and the
/// `dim-worker` process (via `WorkerHost`), so the two backends execute
/// identical phase logic by construction.
impl OpExecutor for DiimmWorker<'_> {
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
        match op {
            WorkerOp::SampleRr { count } => {
                self.generate(*count as usize);
                WorkerReply::Ok
            }
            WorkerOp::Stats => WorkerReply::Stats(WorkerStats {
                num_elements: self.shard.num_elements() as u64,
                total_size: self.shard.total_size() as u64,
                edges_examined: self.edges_examined,
            }),
            // Persist the resident shard as one dim-store snapshot file.
            // The master supplies the run provenance (it owns θ and the
            // config); the worker contributes only what is resident here —
            // its RR sets and sampling stats. Failures come back as typed
            // `Err` replies, never a worker panic.
            WorkerOp::PersistShard {
                dir,
                fingerprint,
                seed,
                theta,
                shard_id,
                shard_count,
                sampler,
            } => {
                let header = dim_store::ShardHeader {
                    fingerprint: *fingerprint,
                    sampler: *sampler,
                    seed: *seed,
                    theta: *theta,
                    shard_id: *shard_id,
                    shard_count: *shard_count,
                    num_sets: self.shard.num_sets() as u64,
                    num_elements: self.shard.num_elements() as u64,
                    edges_examined: self.edges_examined,
                };
                match dim_store::write_shard(
                    std::path::Path::new(dir),
                    &header,
                    self.shard.elements(),
                ) {
                    Ok(_) => WorkerReply::Ok,
                    Err(e) => WorkerReply::Err(format!("PersistShard: {e}")),
                }
            }
            // Apply an edge batch and repair the resident shard in place
            // (the edge-stream half of sample-once/select-many). As with
            // PersistShard, the master supplies chain provenance and the
            // worker persists only its own repairs — shard bytes never
            // cross the wire. Replies with the number of repaired sets.
            WorkerOp::ApplyDelta {
                batch,
                persist_dir,
                base_generation,
                fingerprint,
                parent_fingerprint,
                seed,
                theta,
                shard_count,
                sampler,
            } => {
                let decoded = match DeltaBatch::decode(batch) {
                    Ok(b) => b,
                    Err(e) => return WorkerReply::Err(format!("ApplyDelta: {e}")),
                };
                let repaired = match self.apply_delta(&decoded) {
                    Ok(r) => r,
                    Err(e) => return WorkerReply::Err(format!("ApplyDelta: {e}")),
                };
                if let Some(dir) = persist_dir {
                    let header = dim_store::DeltaShardHeader {
                        base_generation: *base_generation,
                        parent_fingerprint: *parent_fingerprint,
                        fingerprint: *fingerprint,
                        sampler: *sampler,
                        seed: *seed,
                        theta: *theta,
                        batch_seq: decoded.seq,
                        shard_id: self.machine_id,
                        shard_count: *shard_count,
                        num_sets: self.shard.num_sets() as u64,
                        num_elements: self.shard.num_elements() as u64,
                        repaired_count: repaired.len() as u64,
                    };
                    if let Err(e) = dim_store::write_delta_shard(
                        std::path::Path::new(dir),
                        &header,
                        &decoded,
                        &repaired,
                    ) {
                        return WorkerReply::Err(format!("ApplyDelta: {e}"));
                    }
                }
                WorkerReply::Count(repaired.len() as u64)
            }
            other => execute_coverage_op(&mut self.shard, other)
                .unwrap_or_else(|| WorkerReply::Err("op unsupported by DiIMM worker".into())),
        }
    }
}

/// Splits `total` new RR sets across `machines`: machine `i` gets the base
/// share plus one of the remainder (deterministic, balanced to ±1).
pub(crate) fn split_counts(total: usize, machines: usize) -> Vec<usize> {
    let base = total / machines;
    let rem = total % machines;
    (0..machines)
        .map(|i| base + usize::from(i < rem))
        .collect()
}

/// One distributed-RIS round: `count` new RR sets (or pairs, on a
/// paired-collection machine) split across the machines.
pub(crate) fn sample_rr<B: OpCluster>(cluster: &mut B, count: usize) -> Result<(), WireError> {
    let counts = split_counts(count, cluster.num_machines());
    let replies = cluster.control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
        count: counts[i] as u64,
    })?;
    expect_ok(&replies, phase::RR_SAMPLING)
}

/// Closes a run on `cluster`: the resident shards' sizes and sampler work
/// come back through one `Stats` round, the rest from the master's state.
pub(crate) fn finish<B: OpCluster>(
    cluster: &mut B,
    selection: NewGreediResult,
    num_rr_sets: usize,
    est_spread: f64,
    lower_bound: f64,
    rounds: u32,
) -> Result<ImResult, WireError> {
    let replies = cluster.control(phase::SETUP, |_| WorkerOp::Stats)?;
    let stats = expect_stats(&replies, phase::SETUP)?;
    let timeline = cluster.timeline().clone();
    Ok(ImResult {
        seeds: selection.seeds,
        marginals: selection.marginals,
        coverage: selection.covered,
        num_rr_sets,
        total_rr_size: stats.iter().map(|s| s.total_size as usize).sum(),
        edges_examined: stats.iter().map(|s| s.edges_examined).sum(),
        est_spread,
        lower_bound,
        rounds,
        timings: Timings::from_timeline(&timeline),
        metrics: timeline.total(),
        timeline,
    })
}

fn select<B: OpCluster>(
    cluster: &mut B,
    n: usize,
    k: usize,
    base_coverage: &mut Option<Vec<u64>>,
) -> Result<NewGreediResult, WireError> {
    match base_coverage {
        // The paper's §III-C traffic optimization: machines report coverage
        // only over their newly generated RR sets; the master accumulates.
        Some(base) => newgreedi_incremental(cluster, k, base),
        // Ablation baseline: full coverage re-upload on every call.
        None => newgreedi_with(cluster, n, k),
    }
}

/// Runs DiIMM on `machines` simulated machines connected by `network`.
///
/// Phase structure follows Algorithm 2: a lower-bound search doubling the
/// RR-set budget until `n · F_R(S_t) ≥ (1 + ε′) · n/2^t`, then a final
/// top-up to `θ = λ*/LB` and one last NewGreeDi pass.
pub fn diimm(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
) -> Result<ImResult, WireError> {
    diimm_with_options(graph, config, machines, network, mode, true)
}

/// [`diimm`] with the incremental coverage-reporting optimization of
/// §III-C toggled explicitly (`incremental = false` re-uploads every
/// machine's full coverage vector on each NewGreeDi call — the ablation
/// baseline). Seed selection is identical either way.
pub fn diimm_with_options(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
    incremental: bool,
) -> Result<ImResult, WireError> {
    assert!(machines >= 1, "need at least one machine");
    let workers: Vec<DiimmWorker> = (0..machines)
        .map(|i| DiimmWorker::new(graph, config, i))
        .collect();
    let mut cluster = SimCluster::new(workers, network, mode);
    diimm_on(&mut cluster, graph, config, incremental)
}

/// Runs DiIMM on an already-constructed cluster — the entry point for
/// alternative [`OpCluster`]s (e.g. the TCP process backend), whose
/// construction the caller owns. Every machine must already hold a
/// DiIMM worker for this graph and `config.seed` (constructed in machine
/// order so RNG streams line up — for the process backend, via the
/// `LoadGraph`/`InitSampler` setup ops); this function only issues phase
/// ops, so it never touches worker state from the master side.
pub fn diimm_on<B: OpCluster>(
    cluster: &mut B,
    graph: &Graph,
    config: &ImConfig,
    incremental: bool,
) -> Result<ImResult, WireError> {
    let n = graph.num_nodes();
    let params = ImParams::derive(n, config.k, config.epsilon, config.delta);
    let mut base_coverage = incremental.then(|| vec![0u64; n]);
    let (selection, theta, lower_bound, rounds) = lower_bound_search(
        &params,
        cluster,
        sample_rr,
        |cluster| select(cluster, n, config.k, &mut base_coverage),
    )?;
    let est_spread = n as f64 * selection.covered as f64 / theta as f64;
    finish(cluster, selection, theta, est_spread, lower_bound, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::{barabasi_albert, erdos_renyi};
    use dim_graph::WeightModel;

    use crate::config::SamplerKind;

    fn config(k: usize, seed: u64) -> ImConfig {
        ImConfig {
            k,
            epsilon: 0.5,
            delta: 0.1,
            seed,
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
        }
    }

    #[test]
    fn split_counts_balanced() {
        assert_eq!(split_counts(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_counts(3, 5), vec![1, 1, 1, 0, 0]);
        assert_eq!(split_counts(0, 2), vec![0, 0]);
        let c = split_counts(1_000_003, 17);
        assert_eq!(c.iter().sum::<usize>(), 1_000_003);
        assert!(c.iter().max().unwrap() - c.iter().min().unwrap() <= 1);
    }

    #[test]
    fn returns_k_seeds() {
        let g = erdos_renyi(300, 1500, WeightModel::WeightedCascade, 2);
        let r = diimm(
            &g,
            &config(5, 1),
            4,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        assert_eq!(r.seeds.len(), 5);
        assert!(r.num_rr_sets > 0);
        assert!(r.total_rr_size >= r.num_rr_sets, "each RR set has ≥ 1 node");
        assert!(r.est_spread >= 5.0);
        assert!(r.est_spread <= 300.0);
        assert!(r.lower_bound >= 1.0);
    }

    #[test]
    fn deterministic_per_seed_and_machine_count() {
        let g = barabasi_albert(200, 3, WeightModel::WeightedCascade, 3);
        let a = diimm(
            &g,
            &config(4, 9),
            4,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        let b = diimm(
            &g,
            &config(4, 9),
            4,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.num_rr_sets, b.num_rr_sets);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn spread_stable_across_machine_counts() {
        // Different ℓ means different RNG streams, so seeds may differ —
        // but estimated spreads must agree within the approximation band.
        let g = barabasi_albert(300, 4, WeightModel::WeightedCascade, 5);
        let r1 = diimm(
            &g,
            &config(5, 11),
            1,
            NetworkModel::zero(),
            ExecMode::Sequential,
        )
        .unwrap();
        let r8 = diimm(
            &g,
            &config(5, 11),
            8,
            NetworkModel::zero(),
            ExecMode::Sequential,
        )
        .unwrap();
        let rel = (r1.est_spread - r8.est_spread).abs() / r1.est_spread;
        assert!(rel < 0.25, "ℓ=1: {}, ℓ=8: {}", r1.est_spread, r8.est_spread);
    }

    #[test]
    fn timings_and_traffic_populated() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 7);
        let r = diimm(
            &g,
            &config(3, 2),
            4,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        assert!(r.timings.sampling > std::time::Duration::ZERO);
        assert!(r.timings.selection > std::time::Duration::ZERO);
        assert!(r.timings.communication > std::time::Duration::ZERO);
        assert!(r.metrics.bytes_to_master > 0);
        assert!(r.edges_examined > 0);
        // The stacked bars are views of the phase timeline.
        assert_eq!(r.metrics, r.timeline.total());
        assert_eq!(
            r.timings.sampling,
            r.timeline.get(phase::RR_SAMPLING).compute()
        );
        assert!(r.timeline.get(phase::COVERAGE_UPLOAD).bytes_to_master > 0);
        assert!(r.timeline.get(phase::SEED_BROADCAST).bytes_from_master > 0);
    }

    #[test]
    fn subsim_sampler_works_distributed() {
        let g = barabasi_albert(200, 3, WeightModel::WeightedCascade, 4);
        // `Standard(IC)` is the SUBSIM sampler.
        let cfg = config(4, 6);
        let r = diimm(
            &g,
            &cfg,
            4,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        )
        .unwrap();
        assert_eq!(r.seeds.len(), 4);
        assert!(r.est_spread > 4.0);
    }

    #[test]
    fn delta_repair_matches_full_resample() {
        use dim_graph::EdgeOp;
        let g = erdos_renyi(120, 600, WeightModel::WeightedCascade, 21);
        for sampler in [
            SamplerKind::Standard(DiffusionModel::IndependentCascade),
            SamplerKind::ReverseBfs,
        ] {
            let mut cfg = config(3, 5);
            cfg.sampler = sampler;
            let mut incremental = DiimmWorker::new(&g, &cfg, 0);
            incremental.generate(400);
            let (u, v, _p) = g.edges().next().unwrap();
            let batch = DeltaBatch::new(
                0,
                vec![
                    EdgeOp::Delete { u, v },
                    EdgeOp::Insert { u: 1, v: 0, p: 0.9 },
                    EdgeOp::Reweight { u, v, p: 0.4 }, // deleted above: no-op
                ],
            );
            let repaired = incremental.apply_delta(&batch).unwrap();
            assert!(
                !repaired.is_empty() && repaired.len() < 400,
                "expected a partial repair, got {} of 400",
                repaired.len()
            );
            // The repaired shard must be byte-identical to sampling the
            // mutated graph from scratch — including sets generated AFTER
            // the batch (per-set streams keep their positions).
            let mutated = dim_graph::apply_batch(&g, &batch).unwrap();
            let mut full = DiimmWorker::new(&mutated, &cfg, 0);
            full.generate(400);
            incremental.generate(50);
            full.generate(50);
            assert_eq!(incremental.shard.num_elements(), full.shard.num_elements());
            for j in 0..incremental.shard.num_elements() {
                assert_eq!(
                    incremental.shard.elements().get(j),
                    full.shard.elements().get(j),
                    "set {j} diverged ({sampler:?})"
                );
            }
        }
    }

    #[test]
    fn delta_repair_rejects_invalid_batch() {
        use dim_graph::EdgeOp;
        let g = erdos_renyi(50, 200, WeightModel::WeightedCascade, 3);
        let mut w = DiimmWorker::new(&g, &config(2, 1), 0);
        w.generate(10);
        let oob = DeltaBatch::new(0, vec![EdgeOp::Delete { u: 0, v: 5000 }]);
        assert!(w.apply_delta(&oob).is_err());
        // The failed batch left the worker untouched and still usable.
        assert_eq!(w.shard.num_elements(), 10);
        w.generate(5);
        assert_eq!(w.shard.num_elements(), 15);
    }

    #[test]
    fn threads_mode_matches_sequential() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 8);
        let a = diimm(
            &g,
            &config(3, 13),
            3,
            NetworkModel::zero(),
            ExecMode::Sequential,
        )
        .unwrap();
        let b = diimm(
            &g,
            &config(3, 13),
            3,
            NetworkModel::zero(),
            ExecMode::Threads,
        )
        .unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.num_rr_sets, b.num_rr_sets);
    }
}
