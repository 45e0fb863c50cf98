//! Sample-once / select-many: DiIMM runs persisted through dim-store.
//!
//! OPIM-C's online/offline split observes that RR sampling dominates end
//! to end cost, while selection is cheap — so a sampled sketch is worth
//! keeping. [`diimm_sample`] runs DiIMM and then has every machine
//! persist its resident shard ([`WorkerOp::PersistShard`], under the
//! [`phase::STORE_SAVE`] label); [`diimm_load_rr`] restores the shards
//! into an in-process cluster and reruns seed selection without any
//! sampling, producing byte-identical seeds and marginals — selection is
//! a deterministic function of the per-machine RR collections, which the
//! snapshot preserves exactly (including machine order).

use std::path::{Path, PathBuf};
use std::time::Instant;

use dim_cluster::ops::{expect_counts, expect_ok};
use dim_cluster::{
    phase, ClusterBackend, ClusterMetrics, ExecMode, FaultInjector, NetworkModel, OpCluster,
    SimCluster, WireError, WorkerOp,
};
use dim_coverage::newgreedi::newgreedi_with;
use dim_coverage::CoverageShard;
use dim_graph::{apply_batch, DeltaBatch, DeltaError, EdgeOp, Graph};
use dim_store::{
    graph_fingerprint, load_snapshot, Snapshot, SnapshotRequest, StoreError,
};

use crate::config::{ImConfig, ImResult, Timings};
use crate::diimm::{diimm_on, finish, DiimmWorker};

/// Failures of the persisted-sketch entry points: the snapshot layer
/// (I/O, corruption, provenance mismatch), the cluster layer, or a
/// streamed edge batch that does not apply to the resident graph.
#[derive(Debug)]
pub enum SnapshotError {
    Store(StoreError),
    Wire(WireError),
    Delta(DeltaError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Store(e) => write!(f, "{e}"),
            SnapshotError::Wire(e) => write!(f, "{e}"),
            SnapshotError::Delta(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Store(e) => Some(e),
            SnapshotError::Wire(e) => Some(e),
            SnapshotError::Delta(e) => Some(e),
        }
    }
}

impl From<StoreError> for SnapshotError {
    fn from(e: StoreError) -> Self {
        SnapshotError::Store(e)
    }
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

impl From<DeltaError> for SnapshotError {
    fn from(e: DeltaError) -> Self {
        SnapshotError::Delta(e)
    }
}

/// Has every machine of a finished run persist its resident RR shard
/// into `dir` (one file per machine, written by the machine that owns
/// the shard — the shard itself never crosses the wire). Works on any
/// [`OpCluster`] whose workers answer [`WorkerOp::PersistShard`]; wall
/// time accrues under [`phase::STORE_SAVE`].
pub fn persist_rr_shards<B: OpCluster>(
    cluster: &mut B,
    dir: &Path,
    graph: &Graph,
    config: &ImConfig,
    theta: u64,
) -> Result<(), WireError> {
    let fingerprint = graph_fingerprint(graph);
    let dir = dir.display().to_string();
    let shard_count = cluster.num_machines() as u32;
    let spec = config.sampler.into();
    let replies = cluster.control(phase::STORE_SAVE, |i| WorkerOp::PersistShard {
        dir: dir.clone(),
        fingerprint,
        seed: config.seed,
        theta,
        shard_id: i as u32,
        shard_count,
        spec,
    })?;
    expect_ok(&replies, phase::STORE_SAVE)
}

/// Runs DiIMM on `machines` simulated machines, then persists every
/// machine's RR shard into `dir` — the `dim sample` entry point. The
/// returned result is the full DiIMM outcome; its timeline additionally
/// carries the [`phase::STORE_SAVE`] cost.
pub fn diimm_sample(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
    dir: &Path,
) -> Result<ImResult, SnapshotError> {
    assert!(machines >= 1, "need at least one machine");
    let workers: Vec<DiimmWorker> = (0..machines)
        .map(|i| DiimmWorker::new(graph, config, i))
        .collect();
    let mut cluster = SimCluster::new(workers, network, mode);
    Ok(diimm_sample_on(&mut cluster, graph, config, dir)?)
}

/// [`diimm_sample`] on a cluster whose workers already hold the graph and
/// a sampler (built in process as above, or installed by
/// [`crate::setup_im_cluster`] on a TCP backend): DiIMM, then every
/// machine persists its own shard into `dir`.
pub fn diimm_sample_on<B: OpCluster>(
    cluster: &mut B,
    graph: &Graph,
    config: &ImConfig,
    dir: &Path,
) -> Result<ImResult, WireError> {
    let mut result = diimm_on(cluster, graph, config, true)?;
    persist_rr_shards(cluster, dir, graph, config, result.num_rr_sets as u64)?;
    // Re-derive the result's metric views so they include the save phase.
    let timeline = cluster.timeline().clone();
    result.timings = Timings::from_timeline(&timeline);
    result.metrics = timeline.total();
    result.timeline = timeline;
    Ok(result)
}

/// The provenance a snapshot must match to serve `graph` under `config`:
/// graph fingerprint and sampler kind, any shard count. This is what
/// `dim serve` hands to the hot-reload path, so reloads validate exactly
/// like the initial load.
pub fn rr_snapshot_request(graph: &Graph, config: &ImConfig) -> SnapshotRequest {
    SnapshotRequest {
        fingerprint: graph_fingerprint(graph),
        sampler: config.sampler.into(),
        shard_count: None,
    }
}

/// Loads and validates the snapshot in `dir` against `graph` and
/// `config` (graph fingerprint and sampler kind must match; any shard
/// count is accepted). A thin wrapper for callers that want the raw
/// [`Snapshot`] — `dim serve` loads through this.
pub fn load_rr_snapshot(
    graph: &Graph,
    config: &ImConfig,
    dir: &Path,
) -> Result<Snapshot, StoreError> {
    load_snapshot(dir, &rr_snapshot_request(graph, config))
}

/// Loads the newest committed generation under `root` that validates
/// against `graph`/`config`, returning its id with the snapshot. A root
/// with no generation directories falls back to the flat layout as
/// generation 0, so pre-generation stores keep loading.
pub fn load_latest_rr_snapshot(
    graph: &Graph,
    config: &ImConfig,
    root: &Path,
) -> Result<(u64, Snapshot), StoreError> {
    dim_store::load_latest_snapshot(root, &rr_snapshot_request(graph, config))
}

/// Runs DiIMM and persists the shards as a *new committed generation*
/// under `root` — the `dim sample --generations` entry point, and the
/// producer half of zero-downtime reload: shards land in a fresh
/// `gen-N/` directory that only becomes visible to loaders once its
/// manifest commits, so a concurrently serving `dim serve` never
/// observes a half-written snapshot. After the commit, old generations
/// beyond the newest `keep` are garbage-collected. Returns the new
/// generation id with the run result.
pub fn diimm_sample_generation(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
    root: &Path,
    keep: usize,
) -> Result<(u64, ImResult), SnapshotError> {
    let (id, dir) = dim_store::begin_generation(root)?;
    let result = diimm_sample(graph, config, machines, network, mode, &dir)?;
    dim_store::commit_generation(&dir, id)?;
    dim_store::gc_generations(root, keep)?;
    Ok((id, result))
}

/// What one streamed batch did to the session: the generation it
/// committed (if persisted), and the repair volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamApplied {
    /// Generation id the delta committed as, `None` for an in-memory
    /// apply (`persist = false`).
    pub generation: Option<u64>,
    /// Edge operations in the applied batch.
    pub ops: usize,
    /// RR sets invalidated and re-sampled, summed across machines.
    pub sets_repaired: u64,
}

/// A resident edge-stream session: the restored cluster plus the chain
/// bookkeeping needed to extend it — the `dim stream` entry point.
///
/// Opening a session restores the newest committed chain under `root`
/// (base shards + any stacked delta generations, folded by the store)
/// into per-machine [`DiimmWorker`]s, and replays the chain's batches
/// over the base graph so the resident graph matches the resident
/// shards. Each [`apply`](Self::apply) then broadcasts one batch to
/// every machine ([`WorkerOp::ApplyDelta`], under
/// [`phase::STREAM_APPLY`]): workers repair exactly the RR sets whose
/// traversal touched a mutated in-list — on their original per-set RNG
/// streams, so the repaired state is byte-identical to a full re-sample
/// of the mutated graph — and, when persisting, each writes its own
/// delta shard into a fresh generation that commits atomically.
///
/// The store is single-writer: run one streaming session per root at a
/// time. Mixing in-memory applies (`persist = false`) with persisted
/// ones breaks the on-disk chain (a missing link fails fingerprint
/// validation at the next load), so a persistent session should persist
/// every batch.
pub struct StreamSession<'g> {
    cluster: SimCluster<DiimmWorker<'g>>,
    config: ImConfig,
    root: PathBuf,
    request: SnapshotRequest,
    theta: u64,
    generation: u64,
    base_generation: u64,
    tip_fingerprint: u64,
    next_seq: u64,
    current: Graph,
}

impl<'g> StreamSession<'g> {
    /// Restores the newest committed chain under `root` (validated
    /// against `base`/`config`) into a resident cluster. `base` is the
    /// graph the *base snapshot* was sampled from; if the chain carries
    /// batches (or a compacted base), the session's resident graph is
    /// the replayed tip, not `base`.
    pub fn open(
        base: &'g Graph,
        config: &ImConfig,
        root: &Path,
        network: NetworkModel,
        mode: ExecMode,
    ) -> Result<Self, SnapshotError> {
        let request = rr_snapshot_request(base, config);
        let (generation, snapshot, chain) = dim_store::load_latest_chain(root, &request)?;
        // Graph lineage: a compacted base persists its mutated graph
        // next to its shards; an uncompacted one was sampled from the
        // boot graph itself.
        let mut current = match dim_store::read_graph_file(&chain.base_dir)? {
            Some(g) => g,
            None => base.clone(),
        };
        let mutated = chain.next_seq > 0 || graph_fingerprint(&current) != request.fingerprint;
        for batch in &chain.batches {
            current = apply_batch(&current, batch)?;
        }
        if graph_fingerprint(&current) != chain.tip_fingerprint {
            return Err(SnapshotError::Store(StoreError::Mismatch {
                path: chain.base_dir.clone(),
                field: "tip fingerprint",
                expected: chain.tip_fingerprint,
                found: graph_fingerprint(&current),
            }));
        }
        let theta = snapshot.theta;
        let n = snapshot.num_sets as usize;
        let workers: Vec<DiimmWorker<'g>> = snapshot
            .shards
            .into_iter()
            .map(|s| {
                let machine_id = s.header.shard_id as usize;
                let edges = s.header.edges_examined;
                let shard = CoverageShard::from_pooled(n, s.elements, s.index);
                DiimmWorker::restore(
                    base,
                    mutated.then(|| current.clone()),
                    config,
                    machine_id,
                    shard,
                    edges,
                )
            })
            .collect();
        Ok(StreamSession {
            cluster: SimCluster::new(workers, network, mode),
            config: *config,
            root: root.to_path_buf(),
            request,
            theta,
            generation,
            base_generation: chain.base_generation,
            tip_fingerprint: chain.tip_fingerprint,
            next_seq: chain.next_seq,
            current,
        })
    }

    /// Arms (or disarms) a fault injector on the resident cluster, so
    /// subsequent applies and compactions run their repair broadcasts
    /// under an injected stall/loss schedule — the chaos-test seam for
    /// the streaming path. Repairs are deterministic functions of the
    /// per-set RNG streams, so a schedule the link layer absorbs (stalls,
    /// lossy sends within retry budgets) must not change a committed
    /// byte.
    pub fn set_faults(&mut self, injector: Option<FaultInjector>) {
        self.cluster.set_faults(injector);
    }

    /// The armed injector, if any — inspect its event log to prove a
    /// chaos schedule actually fired.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.cluster.fault_injector()
    }

    /// Newest committed generation id under the root.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Sequence number the next applied batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The resident (tip) graph — base graph plus every applied batch.
    pub fn current_graph(&self) -> &Graph {
        &self.current
    }

    /// Number of machines holding shards.
    pub fn num_machines(&self) -> usize {
        self.cluster.num_machines()
    }

    /// Applies one batch of edge operations to every machine, repairing
    /// the resident RR shards incrementally. With `persist`, each worker
    /// writes its delta shard into a fresh generation which is committed
    /// atomically once all machines succeed; generations beyond the
    /// newest `keep` are then garbage-collected (chain bases are always
    /// retained). GC runs last: if it fails the batch is still committed
    /// and the session has advanced past it, so the error can be reported
    /// and the next batch applied.
    pub fn apply(
        &mut self,
        ops: Vec<EdgeOp>,
        persist: bool,
        keep: usize,
    ) -> Result<StreamApplied, SnapshotError> {
        let batch = DeltaBatch {
            seq: self.next_seq,
            ops,
        };
        batch.validate(self.current.num_nodes())?;
        let mutated = apply_batch(&self.current, &batch)?;
        let fingerprint = graph_fingerprint(&mutated);
        let staged = if persist {
            Some(dim_store::begin_generation(&self.root)?)
        } else {
            None
        };
        let persist_dir = staged.as_ref().map(|(_, dir)| dir.display().to_string());
        let encoded = batch.encode();
        let shard_count = self.cluster.num_machines() as u32;
        let spec = self.config.sampler.into();
        let replies = self.cluster.control(phase::STREAM_APPLY, |_| WorkerOp::ApplyDelta {
            batch: encoded.clone(),
            persist_dir: persist_dir.clone(),
            base_generation: self.base_generation,
            fingerprint,
            parent_fingerprint: self.tip_fingerprint,
            seed: self.config.seed,
            theta: self.theta,
            shard_count,
            spec,
        })?;
        let counts = expect_counts(&replies, phase::STREAM_APPLY)?;
        if let Some((id, dir)) = &staged {
            dim_store::commit_generation(dir, *id)?;
            self.generation = *id;
        }
        // The workers and (when persisting) the disk now hold the batch:
        // the session follows before anything else can fail.
        self.current = mutated;
        self.tip_fingerprint = fingerprint;
        self.next_seq += 1;
        if persist {
            dim_store::gc_generations(&self.root, keep)?;
        }
        Ok(StreamApplied {
            generation: staged.map(|(id, _)| id),
            ops: batch.ops.len(),
            sets_repaired: counts.iter().sum(),
        })
    }

    /// Folds the resident chain into a fresh standalone base generation
    /// (shards carry the chain's root fingerprint; the tip graph rides
    /// along as [`dim_store::GRAPH_FILE`]), then GCs down to `keep`.
    /// Returns the new base's id, or `None` when there is nothing to
    /// fold (no batches applied since the last base). Subsequent applies
    /// chain from the new base at sequence 0 — also when the trailing GC
    /// fails, which leaves the new base committed.
    pub fn compact(&mut self, keep: usize) -> Result<Option<u64>, SnapshotError> {
        match dim_store::compact_generation(&self.root, &self.request, &self.current)? {
            Some((id, _dir)) => {
                self.generation = id;
                self.base_generation = id;
                self.next_seq = 0;
                dim_store::gc_generations(&self.root, keep)?;
                Ok(Some(id))
            }
            None => Ok(None),
        }
    }

    /// Reruns seed selection over the resident (repaired) shards —
    /// byte-identical to a full re-sample + select on the tip graph.
    pub fn select(&mut self) -> Result<ImResult, SnapshotError> {
        let n = self.current.num_nodes();
        let sel = newgreedi_with(&mut self.cluster, n, self.config.k)?;
        let theta = self.theta as usize;
        let est_spread = n as f64 * sel.covered as f64 / theta as f64;
        Ok(finish(&mut self.cluster, sel, theta, est_spread, 0.0, 0)?)
    }
}

/// Restores a validated snapshot into per-machine coverage shards, in
/// shard order. The shards come out prepared (the persisted transpose
/// index is reused, not recomputed).
pub fn snapshot_shards(snapshot: Snapshot) -> Vec<CoverageShard> {
    let num_sets = snapshot.num_sets as usize;
    snapshot
        .shards
        .into_iter()
        .map(|s| CoverageShard::from_pooled(num_sets, s.elements, s.index))
        .collect()
}

/// The `dim im --load-rr` entry point: loads the snapshot in `dir`
/// (validated against `graph`/`config`), rebuilds the per-machine
/// coverage shards, and reruns seed selection only. Seeds and marginals
/// are byte-identical to the run that wrote the snapshot; load wall time
/// is recorded under [`phase::STORE_LOAD`]. Sampling-phase statistics
/// (`total_rr_size`, `edges_examined`) are restored from the snapshot
/// headers; `rounds` and `lower_bound` are not persisted and read 0.
pub fn diimm_load_rr(
    graph: &Graph,
    config: &ImConfig,
    dir: &Path,
    network: NetworkModel,
    mode: ExecMode,
) -> Result<ImResult, SnapshotError> {
    let n = graph.num_nodes();
    let start = Instant::now();
    let snapshot = load_rr_snapshot(graph, config, dir)?;
    let theta = snapshot.theta as usize;
    let total_rr_size = snapshot.total_size() as usize;
    let edges_examined = snapshot.edges_examined;
    let shards = snapshot_shards(snapshot);
    let load_time = start.elapsed();
    let mut cluster = SimCluster::new(shards, network, mode);
    cluster.record(
        phase::STORE_LOAD,
        ClusterMetrics {
            master_compute: load_time,
            phases: 1,
            ..Default::default()
        },
    );
    let sel = newgreedi_with(&mut cluster, n, config.k)?;
    let est_spread = n as f64 * sel.covered as f64 / theta as f64;
    let timeline = cluster.timeline().clone();
    Ok(ImResult {
        seeds: sel.seeds,
        marginals: sel.marginals,
        coverage: sel.covered,
        num_rr_sets: theta,
        total_rr_size,
        edges_examined,
        est_spread,
        lower_bound: 0.0,
        rounds: 0,
        timings: Timings::from_timeline(&timeline),
        metrics: timeline.total(),
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::erdos_renyi;
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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "dim-core-snapshot-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sample_then_load_is_byte_identical() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 2);
        let cfg = config(4, 17);
        let dir = temp_dir("roundtrip");
        let net = NetworkModel::cluster_1gbps();
        let sampled =
            diimm_sample(&g, &cfg, 3, net, ExecMode::Sequential, &dir).unwrap();
        let direct = diimm(&g, &cfg, 3, net, ExecMode::Sequential).unwrap();
        assert_eq!(sampled.seeds, direct.seeds);
        assert_eq!(sampled.marginals, direct.marginals);
        // Save-phase accounting is present and traffic-free.
        let save = sampled.timeline.get(phase::STORE_SAVE);
        assert_eq!(save.bytes_to_master + save.bytes_from_master, 0);
        let loaded = diimm_load_rr(&g, &cfg, &dir, net, ExecMode::Sequential).unwrap();
        assert_eq!(loaded.seeds, direct.seeds);
        assert_eq!(loaded.marginals, direct.marginals);
        assert_eq!(loaded.coverage, direct.coverage);
        assert_eq!(loaded.num_rr_sets, direct.num_rr_sets);
        assert_eq!(loaded.total_rr_size, direct.total_rr_size);
        assert_eq!(loaded.edges_examined, direct.edges_examined);
        assert!(loaded.timeline.get(phase::STORE_LOAD).master_compute
            > std::time::Duration::ZERO);
        // No sampling happened on the load path.
        assert_eq!(
            loaded.timeline.get(phase::RR_SAMPLING),
            ClusterMetrics::default()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_wrong_graph_and_wrong_sampler() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 3);
        let cfg = config(3, 5);
        let dir = temp_dir("mismatch");
        let net = NetworkModel::zero();
        diimm_sample(&g, &cfg, 2, net, ExecMode::Sequential, &dir).unwrap();
        // Different graph: fingerprint mismatch, typed — not a panic.
        let other = erdos_renyi(150, 700, WeightModel::WeightedCascade, 4);
        match diimm_load_rr(&other, &cfg, &dir, net, ExecMode::Sequential) {
            Err(SnapshotError::Store(StoreError::Mismatch { field, .. })) => {
                assert_eq!(field, "fingerprint")
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        // Different sampler kind.
        let mut cfg2 = cfg;
        cfg2.sampler = SamplerKind::ReverseBfs;
        match diimm_load_rr(&g, &cfg2, &dir, net, ExecMode::Sequential) {
            Err(SnapshotError::Store(StoreError::Mismatch { field, .. })) => {
                assert_eq!(field, "sampler")
            }
            other => panic!("expected sampler mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sketch written when the reverse BFS was the IC default carries
    /// tag 0. Requested as today's default `Standard(IC)` (tag 2) it is
    /// refused, for selection and for streaming alike: it must be
    /// re-sampled, never repaired under the other law.
    #[test]
    fn tag0_snapshot_is_refused_as_default_ic() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 3);
        let old = ImConfig { sampler: SamplerKind::ReverseBfs, ..config(3, 5) };
        let root = temp_dir("tag0");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &old, 2, net, ExecMode::Sequential, &root, 4).unwrap();
        let dir = root.join(dim_store::generation_dir_name(1));
        assert_eq!(load_rr_snapshot(&g, &old, &dir).unwrap().sampler.tag(), 0);

        let default_ic = config(3, 5);
        let refused = |e: &SnapshotError| {
            matches!(e, SnapshotError::Store(StoreError::Mismatch { field: "sampler", .. }))
        };
        let err = diimm_load_rr(&g, &default_ic, &dir, net, ExecMode::Sequential).unwrap_err();
        assert!(refused(&err), "load: {err:?}");
        let err = StreamSession::open(&g, &default_ic, &root, net, ExecMode::Sequential)
            .err()
            .expect("a tag-0 chain must not open as Standard(IC)");
        assert!(refused(&err), "stream: {err:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_surfaces_truncated_file_as_typed_error() {
        let g = erdos_renyi(120, 500, WeightModel::WeightedCascade, 9);
        let cfg = config(3, 8);
        let dir = temp_dir("truncated");
        diimm_sample(&g, &cfg, 2, NetworkModel::zero(), ExecMode::Sequential, &dir).unwrap();
        let victim = dir.join(dim_store::shard_file_name(1, 2));
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        match diimm_load_rr(&g, &cfg, &dir, NetworkModel::zero(), ExecMode::Sequential) {
            Err(SnapshotError::Store(StoreError::Corrupt { .. })) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_sample_commits_loads_latest_and_gcs() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 11);
        let root = temp_dir("generations");
        // Two runs with different seeds: two committed generations.
        let cfg1 = config(3, 21);
        let (id1, r1) =
            diimm_sample_generation(&g, &cfg1, 2, NetworkModel::zero(), ExecMode::Sequential, &root, 4)
                .unwrap();
        assert_eq!(id1, 1);
        let cfg2 = config(3, 22);
        let (id2, r2) =
            diimm_sample_generation(&g, &cfg2, 2, NetworkModel::zero(), ExecMode::Sequential, &root, 4)
                .unwrap();
        assert_eq!(id2, 2);
        // The latest load sees generation 2 and reproduces its run
        // byte-identically (selection is deterministic in the shards).
        let (id, snapshot) = load_latest_rr_snapshot(&g, &cfg2, &root).unwrap();
        assert_eq!(id, id2);
        assert_eq!(snapshot.seed, 22);
        assert_eq!(snapshot.theta as usize, r2.num_rr_sets);
        // Generation 1 is still on disk (keep = 4) and loads directly.
        let dir1 = root.join(dim_store::generation_dir_name(id1));
        let old = load_rr_snapshot(&g, &cfg1, &dir1).unwrap();
        assert_eq!(old.theta as usize, r1.num_rr_sets);
        // keep = 1 GCs everything but the newest.
        let (id3, _) =
            diimm_sample_generation(&g, &cfg2, 2, NetworkModel::zero(), ExecMode::Sequential, &root, 1)
                .unwrap();
        assert_eq!(id3, 3);
        let left: Vec<u64> = dim_store::list_generations(&root)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(left, vec![3]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn flat_store_loads_as_generation_zero() {
        let g = erdos_renyi(120, 500, WeightModel::WeightedCascade, 13);
        let cfg = config(3, 9);
        let dir = temp_dir("flat");
        diimm_sample(&g, &cfg, 2, NetworkModel::zero(), ExecMode::Sequential, &dir).unwrap();
        let (id, snapshot) = load_latest_rr_snapshot(&g, &cfg, &dir).unwrap();
        assert_eq!(id, 0);
        assert_eq!(snapshot.seed, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_apply_persists_chain_reloads_and_compacts() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 7);
        let cfg = config(4, 33);
        let root = temp_dir("stream");
        let net = NetworkModel::zero();
        let (base_id, _) =
            diimm_sample_generation(&g, &cfg, 3, net, ExecMode::Sequential, &root, 4).unwrap();
        assert_eq!(base_id, 1);

        // Apply one persisted batch: delete a real edge, add a fresh one.
        let (u, v, _) = g.edges().next().unwrap();
        let batch = vec![
            EdgeOp::Delete { u, v },
            EdgeOp::Insert {
                u: (u + 1) % 200,
                v: (u + 3) % 200,
                p: 0.6,
            },
        ];
        let mut session =
            StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!(session.generation(), 1);
        assert_eq!(session.next_seq(), 0);
        let applied = session.apply(batch.clone(), true, 4).unwrap();
        assert_eq!(applied.generation, Some(2));
        assert_eq!(applied.ops, 2);
        assert!(applied.sets_repaired > 0, "the deleted edge was sampled");
        let sel = session.select().unwrap();
        let tip = session.current_graph().clone();

        // A fresh session restores the committed chain byte-identically.
        let mut reloaded =
            StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!(reloaded.generation(), 2);
        assert_eq!(reloaded.next_seq(), 1);
        assert_eq!(
            dim_store::graph_fingerprint(reloaded.current_graph()),
            dim_store::graph_fingerprint(&tip)
        );
        let sel2 = reloaded.select().unwrap();
        assert_eq!(sel2.seeds, sel.seeds);
        assert_eq!(sel2.marginals, sel.marginals);

        // Compaction folds the chain into a standalone base; the next
        // session resumes from it (sequence restarts) and still selects
        // the same seeds.
        let compacted = reloaded.compact(1).unwrap();
        assert_eq!(compacted, Some(3));
        let mut resumed =
            StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!(resumed.generation(), 3);
        assert_eq!(resumed.next_seq(), 0);
        let sel3 = resumed.select().unwrap();
        assert_eq!(sel3.seeds, sel.seeds);
        assert_eq!(sel3.marginals, sel.marginals);

        // The compacted base keeps streaming: another persisted batch
        // chains from the tip graph file.
        let applied2 = resumed
            .apply(vec![EdgeOp::Reweight { u, v, p: 0.2 }], true, 4)
            .unwrap();
        assert_eq!(applied2.generation, Some(4));
        let final_reload =
            StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!(final_reload.generation(), 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A GC failure after the commit must not leave the session a step
    /// behind the workers and the disk.
    #[test]
    fn gc_failure_after_commit_leaves_session_in_step() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 7);
        let cfg = config(4, 33);
        let root = temp_dir("stream-gc");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 4).unwrap();
        let mut session =
            StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        let (u, v, _) = g.edges().next().unwrap();
        session.apply(vec![EdgeOp::Delete { u, v }], true, 4).unwrap();

        // Flip generation 2's header checksum: the next GC, walking the
        // chain back from generation 3 with `keep = 1`, cannot read its link.
        let victim = root
            .join(dim_store::generation_dir_name(2))
            .join("shard-0-of-2.rrd");
        let mut bytes = std::fs::read(&victim).unwrap();
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        bytes[12 + header_len] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
        let insert = EdgeOp::Insert {
            u: (u + 1) % 200,
            v: (u + 3) % 200,
            p: 0.6,
        };
        let err = session.apply(vec![insert], true, 1).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Store(StoreError::Corrupt { .. })),
            "got {err:?}"
        );
        // The batch is committed, nothing was deleted, the session moved on.
        assert_eq!(dim_store::list_generations(&root).unwrap().len(), 3);
        assert_eq!(session.generation(), 3);
        assert_eq!(session.next_seq(), 2);

        // With the disk repaired the same session carries on …
        bytes[12 + header_len] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();
        let applied = session
            .apply(vec![EdgeOp::Reweight { u, v: (u + 3) % 200, p: 0.2 }], true, 1)
            .unwrap();
        assert_eq!(applied.generation, Some(4));
        let selected = session.select().unwrap();

        // … and selects what a full re-sample of the tip graph selects.
        let tip = session.current_graph().clone();
        let fresh: Vec<DiimmWorker> = session
            .cluster
            .workers()
            .iter()
            .enumerate()
            .map(|(i, resident)| {
                let mut w = DiimmWorker::new(&tip, &cfg, i);
                w.generate(resident.shard.num_elements());
                w
            })
            .collect();
        let mut fresh = SimCluster::new(fresh, net, ExecMode::Sequential);
        let expected = newgreedi_with(&mut fresh, tip.num_nodes(), cfg.k).unwrap();
        assert_eq!(selected.seeds, expected.seeds);
        assert_eq!(selected.marginals, expected.marginals);

        // The chain it wrote is one a new session accepts.
        let mut reopened =
            StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!(reopened.generation(), 4);
        assert_eq!(reopened.next_seq(), 3);
        assert_eq!(reopened.select().unwrap().seeds, selected.seeds);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stream_apply_rejects_invalid_batch_without_side_effects() {
        let g = erdos_renyi(120, 500, WeightModel::WeightedCascade, 19);
        let cfg = config(3, 41);
        let root = temp_dir("stream-bad");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 4).unwrap();
        let mut session =
            StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        // Out-of-range endpoint: typed error, no generation staged.
        let err = session
            .apply(vec![EdgeOp::Insert { u: 0, v: 500, p: 0.5 }], true, 4)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Delta(_)), "got {err:?}");
        assert_eq!(session.next_seq(), 0, "failed apply advances nothing");
        let left = dim_store::list_generations(&root).unwrap();
        assert_eq!(left.len(), 1, "no new generation from the failed apply");
        // The session is still usable.
        let ok = session
            .apply(vec![EdgeOp::Reweight { u: 0, v: 1, p: 0.3 }], true, 4)
            .unwrap();
        assert_eq!(ok.generation, Some(2));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn diimm_result_carries_marginals() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 6);
        let r = diimm(
            &g,
            &config(4, 3),
            2,
            NetworkModel::zero(),
            ExecMode::Sequential,
        )
        .unwrap();
        assert_eq!(r.marginals.len(), r.seeds.len());
        assert!(r.marginals.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(r.marginals.iter().sum::<u64>(), r.coverage);
    }
}
