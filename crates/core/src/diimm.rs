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

use std::path::{Path, PathBuf};
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
/// discipline, and its element shard — or, in pair mode, its two.
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
/// Every framework runs on this one worker. In pair mode (OPIM-C, SSA;
/// [`crate::opim`]) it deals ids `0, 1, 2, …` of the same streams
/// alternately: even ids to `shard` (`R₁`, selection), odd ids to the
/// validation collection `R₂`, which answers [`WorkerOp::Validate`].
///
/// The sampler owns the machine's graph (borrowed, or shared with the
/// other holders of one copy) and is built once per graph: by
/// [`new`](Self::new), and again only when
/// [`apply_delta`](Self::apply_delta) installs the mutated graph. A
/// [`WorkerOp::LoadShard`] restores a stored shard into the worker and
/// keeps its sampler.
pub struct DiimmWorker<'g> {
    sampler: AnySampler<'g>,
    sampler_kind: SamplerKind,
    /// The run's master seed, and this machine's stream derived from it:
    /// with `sampler_kind` and `machine_id`, the provenance this worker
    /// stamps into every shard header it writes.
    seed: u64,
    machine_seed: u64,
    machine_id: u32,
    /// The machine's RR sets, stored directly as coverage elements
    /// (element record = the RR set's member nodes): in pair mode, the
    /// selection collection `R₁`.
    pub shard: CoverageShard,
    /// Pair mode's validation collection `R₂`; `None` on a DiIMM worker.
    validation: Option<CoverageShard>,
    buf: Vec<u32>,
    visited: EpochFlags,
    pub(crate) edges_examined: u64,
    /// Ids drawn so far — the next set's stream index.
    sets: u64,
}

impl<'g> DiimmWorker<'g> {
    /// Creates the DiIMM worker for `machine_id` with its derived RNG
    /// stream, building its sampler over `graph`.
    pub fn new(graph: impl Into<GraphRef<'g>>, config: &ImConfig, machine_id: usize) -> Self {
        Self::build(graph, config.sampler, config.seed, machine_id, false)
    }

    /// The one constructor: machine `machine_id`'s worker for master seed
    /// `seed`, sampling `sampler` over `graph`, with a validation
    /// collection next to `shard` when `paired`.
    pub(crate) fn build(
        graph: impl Into<GraphRef<'g>>,
        sampler: SamplerKind,
        seed: u64,
        machine_id: usize,
        paired: bool,
    ) -> Self {
        let graph = graph.into();
        let n = graph.num_nodes();
        DiimmWorker {
            visited: EpochFlags::new(n),
            sampler: sampler.build(graph),
            sampler_kind: sampler,
            seed,
            machine_seed: stream_seed(seed, machine_id),
            machine_id: machine_id as u32,
            shard: CoverageShard::new(n),
            validation: paired.then(|| CoverageShard::new(n)),
            buf: Vec::new(),
            edges_examined: 0,
            sets: 0,
        }
    }

    /// Resumes this machine from its folded stored shard, whose header
    /// names this worker's sampler (the fold checked it): the RR sets
    /// (stream position resumes after them), their sampling work, and the
    /// master seed the header records, so every later draw and repair
    /// comes from the streams that drew the stored sets.
    fn restore(&mut self, stored: dim_store::ShardSnapshot) {
        let h = stored.header;
        self.seed = h.seed;
        self.machine_seed = stream_seed(h.seed, self.machine_id as usize);
        self.sets = h.num_elements;
        self.edges_examined = h.edges_examined;
        self.shard = CoverageShard::from_pooled(h.num_sets as usize, stored.elements);
    }

    /// The graph RR sets are currently drawn from.
    pub fn current_graph(&self) -> &Graph {
        self.sampler.graph()
    }

    /// Samples `count` RR sets into the shard (Algorithm 2, lines 6/12),
    /// each from its own per-set RNG stream — `count` pairs in pair mode.
    pub fn generate(&mut self, count: usize) {
        for _ in 0..count * (1 + usize::from(self.validation.is_some())) {
            self.draw(self.sets);
            match &mut self.validation {
                Some(r2) if self.sets % 2 == 1 => r2.push_element(&self.buf),
                _ => self.shard.push_element(&self.buf),
            }
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
        let mutated =
            dim_graph::apply_batch(self.sampler.graph(), batch).map_err(|e| e.to_string())?;
        self.sampler = self.sampler_kind.build(Arc::new(mutated));
        let invalid = self.shard.elements_containing(&batch.touched_nodes());
        let mut repaired = Vec::with_capacity(invalid.len());
        for &j in &invalid {
            self.draw(j as u64);
            repaired.push((j, self.buf.clone()));
        }
        self.shard.replace_elements(&repaired);
        Ok(repaired)
    }

    /// Draws set `id` of this machine into `buf`, from its own stream.
    fn draw(&mut self, id: u64) {
        let mut rng = Rng::new(rr_set_seed(self.machine_seed, id));
        self.edges_examined += self
            .sampler
            .sample(&mut rng, &mut self.buf, &mut self.visited);
    }
}

/// The op vocabulary every IM machine answers: RR sampling, the coverage
/// phases against `shard`, validation against `R₂` (a typed `Err` on a
/// DiIMM worker), and stats over both collections. This single
/// interpretation serves both the in-process simulator and the
/// `dim-worker` process (via `WorkerHost`), so the two backends execute
/// identical phase logic by construction.
impl OpExecutor for DiimmWorker<'_> {
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
        match op {
            WorkerOp::SampleRr { count } => {
                self.generate(*count as usize);
                WorkerReply::Ok
            }
            WorkerOp::Validate { .. } => match &mut self.validation {
                Some(r2) => r2.execute(op),
                None => WorkerReply::Err("Validate: this worker has no validation sets".into()),
            },
            WorkerOp::Stats => {
                let collections = std::iter::once(&self.shard).chain(&self.validation);
                WorkerReply::Stats(WorkerStats {
                    num_elements: collections.clone().map(|c| c.num_elements() as u64).sum(),
                    total_size: collections.map(|c| c.total_size() as u64).sum(),
                    edges_examined: self.edges_examined,
                })
            }
            WorkerOp::PersistShard { .. }
            | WorkerOp::ApplyDelta { .. }
            | WorkerOp::LoadShard { .. }
                if self.validation.is_some() =>
            {
                WorkerReply::Err("a paired worker neither stores nor repairs its sets".into())
            }
            // Restore this machine's own shard of the chain the master
            // resolved: the store reads only this machine's files, checking
            // each header against its id, the cluster size, the graph and
            // sampler this worker holds and the provenance sent.
            WorkerOp::LoadShard {
                dir,
                links,
                fingerprint,
                sampler: _,
                seed,
                theta,
                shard_count,
            } => {
                let files = dim_store::ChainFiles {
                    base_dir: dir.into(),
                    link_dirs: links.iter().map(PathBuf::from).collect(),
                    request: dim_store::SnapshotRequest {
                        fingerprint: *fingerprint,
                        sampler: self.sampler_kind,
                        num_sets: self.current_graph().num_nodes() as u64,
                    },
                    seed: *seed,
                    theta: *theta,
                    shard_count: *shard_count,
                };
                match files.fold_shard(self.machine_id) {
                    Ok(stored) => {
                        self.restore(stored);
                        WorkerReply::Ok
                    }
                    Err(e) => WorkerReply::Err(format!("LoadShard: {e}")),
                }
            }
            // Persist the resident shard as one dim-store snapshot file.
            // The master sends the run's fields (it owns θ); the worker
            // stamps the provenance only it holds — its seed, sampler and
            // shard id — next to its RR sets and sampling stats. Failures
            // come back as typed `Err` replies, never a worker panic.
            WorkerOp::PersistShard {
                dir,
                fingerprint,
                theta,
                shard_count,
            } => {
                let header = dim_store::ShardHeader {
                    fingerprint: *fingerprint,
                    sampler: self.sampler_kind,
                    seed: self.seed,
                    theta: *theta,
                    shard_id: self.machine_id,
                    shard_count: *shard_count,
                    num_sets: self.shard.num_sets() as u64,
                    num_elements: self.shard.num_elements() as u64,
                    edges_examined: self.edges_examined,
                };
                match dim_store::write_shard(Path::new(dir), &header, self.shard.elements()) {
                    Ok(_) => WorkerReply::Ok,
                    Err(e) => WorkerReply::Err(format!("PersistShard: {e}")),
                }
            }
            // Apply an edge batch and repair the resident shard in place
            // (the edge-stream half of sample-once/select-many). As with
            // PersistShard, the master sends the chain's fields, the worker
            // stamps its own provenance and persists only its own repairs —
            // shard bytes never cross the wire. Replies with the number of
            // repaired sets.
            WorkerOp::ApplyDelta {
                batch,
                persist_dir,
                base_generation,
                fingerprint,
                parent_fingerprint,
                theta,
                shard_count,
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
                        sampler: self.sampler_kind,
                        seed: self.seed,
                        theta: *theta,
                        batch_seq: decoded.seq,
                        shard_id: self.machine_id,
                        shard_count: *shard_count,
                        num_sets: self.shard.num_sets() as u64,
                        num_elements: self.shard.num_elements() as u64,
                        repaired_count: repaired.len() as u64,
                    };
                    let written =
                        dim_store::write_delta_shard(Path::new(dir), &header, &decoded, &repaired);
                    if let Err(e) = written {
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

/// One distributed-RIS round: `count` new RR sets (pairs, on paired
/// workers) split across the machines.
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

    /// Pair mode is DiIMM's stream dealt alternately: a paired worker's
    /// `R₁` and `R₂` after N pairs are the even and odd sets of a DiIMM
    /// worker on the same machine after 2N sets, record for record, and
    /// its stats are that worker's.
    #[test]
    fn pair_mode_is_one_diimm_stream_dealt_alternately() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 8);
        let cfg = config(3, 13);
        let mut single = DiimmWorker::new(&g, &cfg, 2);
        let mut paired = DiimmWorker::build(&g, cfg.sampler, cfg.seed, 2, true);
        single.generate(300);
        paired.generate(100);
        paired.generate(50);
        let (r1, r2) = (&paired.shard, paired.validation.as_ref().unwrap());
        assert_eq!((r1.num_elements(), r2.num_elements()), (150, 150));
        for j in 0..300 {
            let dealt = if j % 2 == 0 { r1 } else { r2 };
            assert_eq!(
                dealt.elements().get(j / 2),
                single.shard.elements().get(j),
                "set {j}"
            );
        }
        assert_eq!(
            paired.execute(&WorkerOp::Stats),
            single.execute(&WorkerOp::Stats)
        );
    }

    /// Each mode refuses the ops it cannot serve with a typed `Err`, and
    /// keeps serving: a DiIMM worker holds no validation collection, and a
    /// paired worker neither persists nor repairs its sets.
    #[test]
    fn each_mode_refuses_what_it_cannot_serve() {
        let g = erdos_renyi(60, 240, WeightModel::WeightedCascade, 4);
        let cfg = config(2, 3);
        let mut single = DiimmWorker::new(&g, &cfg, 0);
        let mut paired = DiimmWorker::build(&g, cfg.sampler, cfg.seed, 0, true);
        let validate = WorkerOp::Validate { seeds: vec![1] };
        assert!(matches!(single.execute(&validate), WorkerReply::Err(_)));
        let persist = WorkerOp::PersistShard {
            dir: String::new(),
            fingerprint: 0,
            theta: 0,
            shard_count: 1,
        };
        let apply = WorkerOp::ApplyDelta {
            batch: DeltaBatch::new(0, vec![]).encode(),
            persist_dir: None,
            base_generation: 0,
            fingerprint: 0,
            parent_fingerprint: 0,
            theta: 0,
            shard_count: 1,
        };
        let load = WorkerOp::LoadShard {
            dir: String::new(),
            links: vec![],
            fingerprint: 0,
            sampler: cfg.sampler,
            seed: 0,
            theta: 0,
            shard_count: 1,
        };
        for op in [&persist, &apply, &load] {
            assert!(matches!(paired.execute(op), WorkerReply::Err(_)), "{op:?}");
        }
        assert_eq!(
            paired.execute(&WorkerOp::SampleRr { count: 5 }),
            WorkerReply::Ok
        );
        assert!(matches!(paired.execute(&validate), WorkerReply::Count(_)));
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
