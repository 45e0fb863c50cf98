//! Sample-once / select-many: DiIMM runs persisted through dim-store.
//!
//! OPIM-C's online/offline split observes that RR sampling dominates end
//! to end cost, while selection is cheap — so a sampled sketch is worth
//! keeping. [`diimm_sample_on`] runs DiIMM and then has every machine
//! persist its resident shard ([`WorkerOp::PersistShard`], under the
//! [`phase::STORE_SAVE`] label) into a new committed generation of a store
//! root. [`StreamSession::open`] is the one restore path: it loads the
//! newest committed generation (delta chains included) into resident
//! workers, and [`StreamSession::select`] reruns seed selection without
//! any sampling, producing byte-identical seeds and marginals — selection
//! is a deterministic function of the per-machine RR collections, which
//! the store preserves exactly (including machine order).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dim_cluster::ops::{expect_counts, expect_ok};
use dim_cluster::{
    phase, ClusterBackend, ClusterMetrics, ExecMode, FaultInjector, NetworkModel, OpCluster,
    SimCluster, WireError, WorkerOp,
};
use dim_coverage::newgreedi::newgreedi_with;
use dim_coverage::CoverageShard;
use dim_graph::{apply_batch, DeltaBatch, DeltaError, EdgeOp, Graph, GraphRef};
use dim_store::{graph_fingerprint, RunParams, Snapshot, SnapshotRequest, StoreError};

use crate::config::{ImConfig, ImResult, Timings};
use crate::diimm::{diimm_on, finish, DiimmWorker};

/// Failures of the persisted-sketch entry points: the snapshot layer
/// (I/O, corruption, provenance mismatch), the cluster layer, a streamed
/// edge batch that does not apply to the resident graph, or a sketch
/// sampled for another run than the one asked of it.
#[derive(Debug)]
pub enum SnapshotError {
    Store(StoreError),
    Wire(WireError),
    Delta(DeltaError),
    /// The chain's manifests do not record the `(k, ε, δ)` it was sampled
    /// for (an older build wrote them), so no run can be matched to it.
    UnknownRun {
        dir: PathBuf,
    },
    /// The sketch was sampled for another `(k, ε, δ)`: its θ certifies
    /// only that run. `flag` names the first differing one.
    OtherRun {
        flag: &'static str,
        stored: f64,
        requested: f64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Store(e) => write!(f, "{e}"),
            SnapshotError::Wire(e) => write!(f, "{e}"),
            SnapshotError::Delta(e) => write!(f, "{e}"),
            SnapshotError::UnknownRun { dir } => write!(
                f,
                "stored sketch {} does not record the --k, --epsilon and --delta it was \
                 sampled for (an older build wrote it): re-sample it (`dim sample`)",
                dir.display()
            ),
            SnapshotError::OtherRun {
                flag,
                stored,
                requested,
            } => write!(
                f,
                "the stored sketch was sampled for {flag} {stored}, not {flag} {requested}: \
                 its RR-set count certifies only the run it was sampled for; pass {flag} \
                 {stored} or re-sample (`dim sample`)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Store(e) => Some(e),
            SnapshotError::Wire(e) => Some(e),
            SnapshotError::Delta(e) => Some(e),
            SnapshotError::UnknownRun { .. } | SnapshotError::OtherRun { .. } => None,
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

/// Has every machine persist its resident RR shard into `dir` (one file
/// per machine, written by the machine that owns the shard — the shard
/// itself never crosses the wire), with `fingerprint` as the headers'
/// graph fingerprint and `theta` as their global set count; each worker
/// stamps its own seed, sampler and shard id. Works on any [`OpCluster`]
/// whose workers answer [`WorkerOp::PersistShard`]; wall time accrues
/// under [`phase::STORE_SAVE`]. Both a finished sampling run and a stream
/// compaction persist through here.
pub fn persist_rr_shards<B: OpCluster>(
    cluster: &mut B,
    dir: &Path,
    fingerprint: u64,
    theta: u64,
) -> Result<(), WireError> {
    let dir = dir.display().to_string();
    let shard_count = cluster.num_machines() as u32;
    let replies = cluster.control(phase::STORE_SAVE, |_| WorkerOp::PersistShard {
        dir: dir.clone(),
        fingerprint,
        theta,
        shard_count,
    })?;
    expect_ok(&replies, phase::STORE_SAVE)
}

/// The run `config` asks for, as a generation's manifest records it.
fn run_params(config: &ImConfig) -> RunParams {
    RunParams {
        k: config.k as u64,
        epsilon: config.epsilon,
        delta: config.delta,
    }
}

/// Refuses a chain sampled for another run than `config`'s, naming the
/// first flag that differs, and a chain that does not say.
fn check_run(
    stored: Option<RunParams>,
    config: &ImConfig,
    dir: &Path,
) -> Result<(), SnapshotError> {
    let stored = stored.ok_or_else(|| SnapshotError::UnknownRun {
        dir: dir.to_path_buf(),
    })?;
    let requested = run_params(config);
    // `k` is far below 2⁵³, so as an f64 it compares and prints exactly.
    let flags = [
        ("--k", stored.k as f64, requested.k as f64),
        ("--epsilon", stored.epsilon, requested.epsilon),
        ("--delta", stored.delta, requested.delta),
    ];
    match flags.into_iter().find(|(_, stored, requested)| stored != requested) {
        None => Ok(()),
        Some((flag, stored, requested)) => Err(SnapshotError::OtherRun {
            flag,
            stored,
            requested,
        }),
    }
}

/// Runs DiIMM on `cluster`, whose workers already hold the graph and a
/// sampler (built in process by [`diimm_sample_generation`], or installed
/// by [`crate::setup_im_cluster`] on a TCP backend), and persists the
/// shards as a *new committed generation* under `root` — the `dim sample`
/// entry point, and the producer half of zero-downtime reload: every
/// machine writes its own shard into a fresh `gen-N/` directory that only
/// becomes visible to loaders once its manifest commits, so a concurrently
/// serving `dim serve` never observes a half-written sketch. After the
/// commit, old generations beyond the newest `keep` are garbage-collected.
/// Returns the new generation id with the run result, whose timeline also
/// carries the [`phase::STORE_SAVE`] cost.
pub fn diimm_sample_on<B: OpCluster>(
    cluster: &mut B,
    graph: &Graph,
    config: &ImConfig,
    root: &Path,
    keep: usize,
) -> Result<(u64, ImResult), SnapshotError> {
    let (id, dir) = dim_store::begin_generation(root)?;
    let mut result = diimm_on(cluster, graph, config, true)?;
    let fingerprint = graph_fingerprint(graph);
    persist_rr_shards(cluster, &dir, fingerprint, result.num_rr_sets as u64)?;
    dim_store::commit_generation(&dir, id, &run_params(config))?;
    dim_store::gc_generations(root, keep)?;
    // Re-derive the result's metric views so they include the save phase.
    let timeline = cluster.timeline().clone();
    result.timings = Timings::from_timeline(&timeline);
    result.metrics = timeline.total();
    result.timeline = timeline;
    Ok((id, result))
}

/// [`diimm_sample_on`] on `machines` simulated machines.
pub fn diimm_sample_generation(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
    root: &Path,
    keep: usize,
) -> Result<(u64, ImResult), SnapshotError> {
    assert!(machines >= 1, "need at least one machine");
    let workers: Vec<DiimmWorker> = (0..machines)
        .map(|i| DiimmWorker::new(graph, config, i))
        .collect();
    let mut cluster = SimCluster::new(workers, network, mode);
    diimm_sample_on(&mut cluster, graph, config, root, keep)
}

/// The provenance a snapshot must match to serve `graph` under `config`:
/// graph fingerprint, sampler kind and node count. This is what `dim
/// serve` hands to the hot-reload path, so reloads validate exactly like
/// the initial load.
pub fn rr_snapshot_request(graph: &Graph, config: &ImConfig) -> SnapshotRequest {
    SnapshotRequest {
        fingerprint: graph_fingerprint(graph),
        sampler: config.sampler,
        num_sets: graph.num_nodes() as u64,
    }
}

/// Loads the newest committed generation under `root` that validates
/// against `graph`/`config` — its delta chain folded in — returning its id
/// with the snapshot: what `dim serve` serves.
pub fn load_latest_rr_snapshot(
    graph: &Graph,
    config: &ImConfig,
    root: &Path,
) -> Result<(u64, Snapshot), StoreError> {
    dim_store::load_latest_snapshot(root, &rr_snapshot_request(graph, config))
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

/// A resident sketch session: the restored cluster plus the chain
/// bookkeeping needed to extend it — the `dim stream` and `dim im
/// --load-rr` entry point.
///
/// Opening a session restores the newest committed chain under `root`
/// (base shards + any stacked delta generations, folded by the store)
/// into per-machine [`DiimmWorker`]s, and replays the chain's batches
/// over the base graph so the resident graph matches the resident
/// shards. [`select`](Self::select) on a freshly opened session selects
/// the seeds and marginals of the run (and batches) that wrote the chain.
/// Each [`apply`](Self::apply) then broadcasts one batch to every machine
/// ([`WorkerOp::ApplyDelta`], under [`phase::STREAM_APPLY`]): workers
/// repair exactly the RR sets whose traversal touched a mutated in-list —
/// on their original per-set RNG streams, so the repaired state is
/// byte-identical to a full re-sample of the mutated graph — and, when
/// persisting, each writes its own delta shard into a fresh generation
/// that commits atomically.
///
/// The store is single-writer: run one streaming session per root at a
/// time. An in-memory apply (`persist = false`) leaves a gap in the
/// on-disk chain — a later persisted delta fails fingerprint validation
/// at the next load — until [`compact`](Self::compact) writes the
/// resident state as a fresh base, which heals the chain.
///
/// The tip graph lives with the workers: `open` restores every worker on
/// one copy of it, each `apply` leaves every worker holding the mutated
/// graph it built, and the session reads worker 0's
/// ([`current_graph`](Self::current_graph)) rather than keep its own.
pub struct StreamSession<'g> {
    cluster: SimCluster<DiimmWorker<'g>>,
    config: ImConfig,
    root: PathBuf,
    /// Fingerprint of the graph the chain's first base was sampled from:
    /// what every base's shard headers name, compacted ones included.
    root_fingerprint: u64,
    theta: u64,
    generation: u64,
    base_generation: u64,
    tip_fingerprint: u64,
    next_seq: u64,
}

impl<'g> StreamSession<'g> {
    /// Restores the newest committed chain under `root` (validated
    /// against `base`/`config`) into a resident cluster. `base` is the
    /// graph the *base snapshot* was sampled from; if the chain carries
    /// batches (or a compacted base), the session's resident graph is
    /// the replayed tip, not `base`. Every worker samples from that one
    /// graph: `base` itself, borrowed, or one shared copy of the tip. The
    /// resident shards hold the RR sets only: each builds its index in the
    /// first round of the next selection, and an `apply` never needs it.
    /// The restore's wall time is recorded under [`phase::STORE_LOAD`].
    ///
    /// A chain sampled for another `(k, ε, δ)` than `config`'s is refused
    /// ([`SnapshotError::OtherRun`]): its θ certifies only the run it was
    /// sampled for. So is one whose manifests do not record the run
    /// ([`SnapshotError::UnknownRun`]). The seed is the store's, whatever
    /// `config.seed` says: every repair and compaction redraws a set from
    /// the stream that first drew it.
    pub fn open(
        base: &'g Graph,
        config: &ImConfig,
        root: &Path,
        network: NetworkModel,
        mode: ExecMode,
    ) -> Result<Self, SnapshotError> {
        let start = Instant::now();
        let request = rr_snapshot_request(base, config);
        let (generation, snapshot, chain) = dim_store::load_latest_chain(root, &request)?;
        check_run(chain.params, config, &chain.base_dir)?;
        // Graph lineage: a compacted base persists its mutated graph
        // next to its shards; an uncompacted one was sampled from the
        // boot graph itself, which stays borrowed.
        let mut current = match dim_store::read_graph_file(&chain.base_dir)? {
            Some(g) => GraphRef::from(Arc::new(g)),
            None => GraphRef::from(base),
        };
        for batch in &chain.batches {
            current = Arc::new(apply_batch(&current, batch)?).into();
        }
        let found = graph_fingerprint(&current);
        if found != chain.tip_fingerprint {
            return Err(SnapshotError::Store(StoreError::Mismatch {
                path: chain.base_dir.clone(),
                field: "tip fingerprint",
                expected: chain.tip_fingerprint,
                found,
            }));
        }
        let (theta, n) = (snapshot.theta, snapshot.num_sets as usize);
        // Shards come back in shard-id order, all of one run: machine `i`
        // resumes shard `i`'s streams under the stored sampler and seed.
        let run = (snapshot.sampler, snapshot.seed);
        let workers: Vec<DiimmWorker<'g>> = snapshot
            .shards
            .into_iter()
            .enumerate()
            .map(|(machine_id, s)| {
                let edges = s.header.edges_examined;
                let shard = CoverageShard::from_pooled(n, s.elements);
                DiimmWorker::restore(current.clone(), run, machine_id, shard, edges)
            })
            .collect();
        let mut cluster = SimCluster::new(workers, network, mode);
        cluster.record(
            phase::STORE_LOAD,
            ClusterMetrics {
                master_compute: start.elapsed(),
                phases: 1,
                ..Default::default()
            },
        );
        Ok(StreamSession {
            cluster,
            config: *config,
            root: root.to_path_buf(),
            root_fingerprint: request.fingerprint,
            theta,
            generation,
            base_generation: chain.base_generation,
            tip_fingerprint: chain.tip_fingerprint,
            next_seq: chain.next_seq,
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

    /// The resident (tip) graph — base graph plus every applied batch —
    /// as worker 0 holds it: the session keeps no copy of its own. A
    /// loaded generation has at least one shard, so worker 0 exists.
    pub fn current_graph(&self) -> &Graph {
        self.cluster.workers()[0].current_graph()
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
        // `apply_batch` validates the batch. Its graph lives only to be
        // fingerprinted: each worker builds its own in the round below.
        let fingerprint = graph_fingerprint(&apply_batch(self.current_graph(), &batch)?);
        let staged = if persist {
            Some(dim_store::begin_generation(&self.root)?)
        } else {
            None
        };
        let persist_dir = staged.as_ref().map(|(_, dir)| dir.display().to_string());
        let encoded = batch.encode();
        let shard_count = self.cluster.num_machines() as u32;
        let replies = self.cluster.control(phase::STREAM_APPLY, |_| WorkerOp::ApplyDelta {
            batch: encoded.clone(),
            persist_dir: persist_dir.clone(),
            base_generation: self.base_generation,
            fingerprint,
            parent_fingerprint: self.tip_fingerprint,
            theta: self.theta,
            shard_count,
        })?;
        let counts = expect_counts(&replies, phase::STREAM_APPLY)?;
        if let Some((id, dir)) = &staged {
            dim_store::commit_generation(dir, *id, &run_params(&self.config))?;
            self.generation = *id;
        }
        // The workers and (when persisting) the disk now hold the batch:
        // the session follows before anything else can fail.
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

    /// Persists the resident state as a fresh standalone base generation,
    /// then GCs down to `keep`. The resident shards already equal the
    /// chain's fold (and a full re-sample of the tip graph), so nothing is
    /// read back: every worker writes its own shard
    /// ([`persist_rr_shards`], headers carrying the chain's root
    /// fingerprint) and the master adds the tip graph as
    /// [`dim_store::GRAPH_FILE`], under the same begin → commit protocol
    /// as a batch.
    ///
    /// Returns the new base's id, or `None` when there is nothing to
    /// compact (no batches applied since the last base). Refuses with
    /// [`StoreError::Mismatch`], writing nothing, when another writer
    /// committed a generation since this session's last. A failure before
    /// the commit leaves the session on its chain and an uncommitted
    /// directory for GC. Subsequent applies chain from the new base at
    /// sequence 0 — also when the trailing GC fails, which leaves the new
    /// base committed.
    pub fn compact(&mut self, keep: usize) -> Result<Option<u64>, SnapshotError> {
        if self.next_seq == 0 {
            return Ok(None);
        }
        let newest = dim_store::latest_generation(&self.root)?.unwrap_or(0);
        if newest != self.generation {
            return Err(SnapshotError::Store(StoreError::Mismatch {
                path: self.root.clone(),
                field: "generation",
                expected: self.generation,
                found: newest,
            }));
        }
        let (id, dir) = dim_store::begin_generation(&self.root)?;
        persist_rr_shards(&mut self.cluster, &dir, self.root_fingerprint, self.theta)?;
        dim_store::write_graph_file(&dir, self.current_graph())?;
        dim_store::commit_generation(&dir, id, &run_params(&self.config))?;
        self.generation = id;
        self.base_generation = id;
        self.next_seq = 0;
        dim_store::gc_generations(&self.root, keep)?;
        Ok(Some(id))
    }

    /// Reruns seed selection over the resident (repaired) shards —
    /// byte-identical to a full re-sample + select on the tip graph.
    /// `rounds` and `lower_bound` are not persisted and read 0.
    pub fn select(&mut self) -> Result<ImResult, SnapshotError> {
        let n = self.current_graph().num_nodes();
        let sel = newgreedi_with(&mut self.cluster, n, self.config.k)?;
        let theta = self.theta as usize;
        let est_spread = n as f64 * sel.covered as f64 / theta as f64;
        Ok(finish(&mut self.cluster, sel, theta, est_spread, 0.0, 0)?)
    }
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

    /// Opens the newest chain under `root` and selects on it: the `dim im
    /// --load-rr` path.
    fn load_and_select(
        g: &Graph,
        cfg: &ImConfig,
        root: &Path,
        net: NetworkModel,
    ) -> Result<ImResult, SnapshotError> {
        StreamSession::open(g, cfg, root, net, ExecMode::Sequential)?.select()
    }

    #[test]
    fn sample_then_load_is_byte_identical() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 2);
        let cfg = config(4, 17);
        let root = temp_dir("roundtrip");
        let net = NetworkModel::cluster_1gbps();
        let (id, sampled) =
            diimm_sample_generation(&g, &cfg, 3, net, ExecMode::Sequential, &root, 4).unwrap();
        assert_eq!(id, 1);
        let direct = diimm(&g, &cfg, 3, net, ExecMode::Sequential).unwrap();
        assert_eq!(sampled.seeds, direct.seeds);
        assert_eq!(sampled.marginals, direct.marginals);
        // Save-phase accounting is present and traffic-free.
        let save = sampled.timeline.get(phase::STORE_SAVE);
        assert_eq!(save.bytes_to_master + save.bytes_from_master, 0);
        let loaded = load_and_select(&g, &cfg, &root, net).unwrap();
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
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A restored session holds records only: every resident shard waits
    /// for the selection round to build its index, and that round selects
    /// what the run that wrote the store selected.
    #[test]
    fn open_leaves_every_shard_stale_until_select() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 5);
        let cfg = config(4, 29);
        let root = temp_dir("stale");
        let net = NetworkModel::zero();
        let (_, sampled) =
            diimm_sample_generation(&g, &cfg, 3, net, ExecMode::Sequential, &root, 4).unwrap();
        let mut session = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        let workers = session.cluster.workers();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|w| w.shard.needs_prepare()));
        let selected = session.select().unwrap();
        assert_eq!(selected.seeds, sampled.seeds);
        assert_eq!(selected.marginals, sampled.marginals);
        assert_eq!(selected.coverage, sampled.coverage);
        assert!(session.cluster.workers().iter().all(|w| !w.shard.needs_prepare()));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Every resident worker samples from the session's one tip graph: the
    /// boot graph itself on a chain sampled from it, one shared copy on a
    /// compacted chain with a batch on top. After a committed batch the
    /// session holds no tip of its own: it reads worker 0's.
    #[test]
    fn open_restores_every_worker_on_one_tip_graph() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 9);
        let cfg = config(4, 31);
        let root = temp_dir("one-tip");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 3, net, ExecMode::Sequential, &root, 4).unwrap();
        let one_tip = |session: &StreamSession| {
            let tip = session.current_graph();
            session.cluster.workers().iter().all(|w| std::ptr::eq(w.current_graph(), tip))
        };
        let mut session = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert!(std::ptr::eq(session.current_graph(), &g) && one_tip(&session));
        let (u, v, _) = g.edges().next().unwrap();
        session
            .apply(vec![EdgeOp::Delete { u, v }], true, 4)
            .unwrap();
        let worker0 = session.cluster.workers()[0].current_graph();
        assert!(std::ptr::eq(session.current_graph(), worker0));
        session.compact(4).unwrap();
        session.apply(vec![EdgeOp::Insert { u: v, v: u, p: 0.3 }], true, 4).unwrap();
        let tip = graph_fingerprint(session.current_graph());
        drop(session);
        let reopened = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!(graph_fingerprint(reopened.current_graph()), tip);
        assert!(!std::ptr::eq(reopened.current_graph(), &g));
        assert!(one_tip(&reopened), "a worker holds its own copy of the tip");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_rejects_wrong_graph_and_wrong_sampler() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 3);
        let cfg = config(3, 5);
        let root = temp_dir("mismatch");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 4).unwrap();
        // Different graph: fingerprint mismatch, typed — not a panic.
        let other = erdos_renyi(150, 700, WeightModel::WeightedCascade, 4);
        match load_and_select(&other, &cfg, &root, net) {
            Err(SnapshotError::Store(StoreError::Mismatch { field, .. })) => {
                assert_eq!(field, "fingerprint")
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        // Different sampler kind.
        let mut cfg2 = cfg;
        cfg2.sampler = SamplerKind::ReverseBfs;
        match load_and_select(&g, &cfg2, &root, net) {
            Err(SnapshotError::Store(StoreError::Mismatch { field, .. })) => {
                assert_eq!(field, "sampler")
            }
            other => panic!("expected sampler mismatch, got {other:?}"),
        }
        // Another run: the first differing flag is named.
        for (run, flag) in [
            (ImConfig { k: 4, ..cfg }, "--k"),
            (ImConfig { epsilon: 0.3, ..cfg }, "--epsilon"),
            (ImConfig { delta: 0.2, ..cfg }, "--delta"),
        ] {
            match load_and_select(&g, &run, &root, net) {
                Err(SnapshotError::OtherRun { flag: named, .. }) => assert_eq!(named, flag),
                other => panic!("expected {flag} refused, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A sketch written when the reverse BFS was the IC default carries
    /// tag 0. Requested as today's default `Standard(IC)` (tag 3) it is
    /// refused, for selection and for streaming alike — both open the
    /// same session: it must be re-sampled, never repaired under the other
    /// law.
    #[test]
    fn tag0_snapshot_is_refused_as_default_ic() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 3);
        let old = ImConfig { sampler: SamplerKind::ReverseBfs, ..config(3, 5) };
        let root = temp_dir("tag0");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &old, 2, net, ExecMode::Sequential, &root, 4).unwrap();
        assert_eq!(load_latest_rr_snapshot(&g, &old, &root).unwrap().1.sampler.tag(), 0);

        let default_ic = config(3, 5);
        let err = StreamSession::open(&g, &default_ic, &root, net, ExecMode::Sequential)
            .err()
            .expect("a tag-0 chain must not open as Standard(IC)");
        assert!(
            matches!(err, SnapshotError::Store(StoreError::Mismatch { field: "sampler", .. })),
            "{err:?}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn load_surfaces_truncated_file_as_typed_error() {
        let g = erdos_renyi(120, 500, WeightModel::WeightedCascade, 9);
        let cfg = config(3, 8);
        let root = temp_dir("truncated");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 4).unwrap();
        let victim = root
            .join(dim_store::generation_dir_name(1))
            .join(dim_store::shard_file_name(1, 2));
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        match load_and_select(&g, &cfg, &root, net) {
            Err(SnapshotError::Store(StoreError::Corrupt { .. })) => {}
            other => panic!("expected corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn generation_sample_commits_loads_latest_and_gcs() {
        let g = erdos_renyi(150, 700, WeightModel::WeightedCascade, 11);
        let root = temp_dir("generations");
        let net = NetworkModel::zero();
        let sample = |cfg: &ImConfig, keep| {
            diimm_sample_generation(&g, cfg, 2, net, ExecMode::Sequential, &root, keep).unwrap()
        };
        // Two runs with different seeds: two committed generations.
        let cfg1 = config(3, 21);
        let (id1, r1) = sample(&cfg1, 4);
        assert_eq!(id1, 1);
        // While it is the newest, generation 1 loads with its own θ.
        let (id, old) = load_latest_rr_snapshot(&g, &cfg1, &root).unwrap();
        assert_eq!((id, old.theta as usize), (id1, r1.num_rr_sets));
        let cfg2 = config(3, 22);
        let (id2, r2) = sample(&cfg2, 4);
        assert_eq!(id2, 2);
        // The latest load sees generation 2 and reproduces its run
        // byte-identically (selection is deterministic in the shards).
        let (id, snapshot) = load_latest_rr_snapshot(&g, &cfg2, &root).unwrap();
        assert_eq!(id, id2);
        assert_eq!(snapshot.seed, 22);
        assert_eq!(snapshot.theta as usize, r2.num_rr_sets);
        // Generation 1 is still on disk (keep = 4).
        assert_eq!(generation_ids(&root), [1, 2]);
        // keep = 1 GCs everything but the newest.
        let (id3, _) = sample(&cfg2, 1);
        assert_eq!(id3, 3);
        assert_eq!(generation_ids(&root), [3]);
        std::fs::remove_dir_all(&root).unwrap();
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

        // Compaction writes the resident state as a standalone base; the next
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

    /// The store owns its seed: a session opened under a foreign
    /// `config.seed` repairs from the streams that drew the stored sets, so
    /// it commits the same delta and compacted files, byte for byte, as one
    /// opened under the sampling seed — and the compacted base still names
    /// the sampling seed.
    #[test]
    fn foreign_seed_session_writes_the_sampling_seeds_bytes() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 7);
        let cfg = config(4, 1);
        let net = NetworkModel::zero();
        let (u, v, _) = g.edges().next().unwrap();
        let insert = EdgeOp::Insert {
            u: (u + 1) % 200,
            v: (u + 3) % 200,
            p: 0.9,
        };
        let stream = |seed: u64| {
            let root = temp_dir(&format!("foreign-seed-{seed}"));
            diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 4).unwrap();
            let open_cfg = ImConfig { seed, ..cfg };
            let mut session =
                StreamSession::open(&g, &open_cfg, &root, net, ExecMode::Sequential).unwrap();
            session
                .apply(vec![EdgeOp::Delete { u, v }, insert], true, 4)
                .unwrap();
            assert_eq!(session.compact(4).unwrap(), Some(3));
            let (_, compacted) = load_latest_rr_snapshot(&g, &open_cfg, &root).unwrap();
            assert_eq!(compacted.seed, 1, "--seed {seed}: compacted header seed");
            let mut files = Vec::new();
            for (id, dir) in dim_store::list_generations(&root).unwrap() {
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let path = entry.unwrap().path();
                    files.push((
                        id,
                        path.file_name().unwrap().to_owned(),
                        std::fs::read(&path).unwrap(),
                    ));
                }
            }
            files.sort();
            std::fs::remove_dir_all(&root).unwrap();
            files
        };
        let (own, foreign) = (stream(1), stream(2));
        assert_eq!(own.len(), foreign.len());
        for (a, b) in own.iter().zip(&foreign) {
            assert!(a == b, "gen {} {:?} differs under a foreign seed", a.0, a.1);
        }
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

    /// Three batches over real edges of `g`, each invalidating sets: a
    /// delete plus a low-probability insert, a reweight, a delete. Small
    /// probabilities keep every in-row a valid LT distribution.
    fn three_batches(g: &Graph) -> [Vec<EdgeOp>; 3] {
        let n = g.num_nodes() as u32;
        let mut edges = g.edges();
        let (u1, v1, _) = edges.next().unwrap();
        let (u2, v2, _) = edges.next().unwrap();
        let (u3, v3, _) = edges.next().unwrap();
        [
            vec![
                EdgeOp::Delete { u: u1, v: v1 },
                EdgeOp::Insert { u: (u1 + 1) % n, v: (u1 + 3) % n, p: 0.01 },
            ],
            vec![EdgeOp::Reweight { u: u2, v: v2, p: 0.001 }],
            vec![EdgeOp::Delete { u: u3, v: v3 }],
        ]
    }

    fn generation_ids(root: &Path) -> Vec<u64> {
        dim_store::list_generations(root).unwrap().into_iter().map(|(id, _)| id).collect()
    }

    /// Resident compaction writes exactly the base the old on-disk fold
    /// produced: same sets, same header but for
    /// `edges_examined`, which now carries the repairs too; the graph file
    /// hashes to the chain's tip, and a reopened session selects and
    /// counts what the compacting one did.
    #[test]
    fn resident_compaction_equals_the_fold() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 23);
        let net = NetworkModel::zero();
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            for machines in [1, 2, 4] {
                let cfg = ImConfig { sampler: SamplerKind::Standard(model), ..config(4, 51) };
                let case = format!("{model} ℓ = {machines}");
                let root = temp_dir("fold");
                diimm_sample_generation(&g, &cfg, machines, net, ExecMode::Sequential, &root, 8)
                    .unwrap();
                let mut session =
                    StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
                let mut repaired = 0;
                for ops in three_batches(&g) {
                    repaired += session.apply(ops, true, 8).unwrap().sets_repaired;
                }
                assert!(repaired > 0, "{case}: nothing repaired");
                let before = session.select().unwrap();
                let request = rr_snapshot_request(&g, &cfg);
                let (_, fold, chain) = dim_store::load_latest_chain(&root, &request).unwrap();
                assert_eq!(chain.next_seq, 3, "{case}");

                let id = session.compact(8).unwrap().expect("batches to compact");
                let dir = root.join(dim_store::generation_dir_name(id));
                let (newest, compacted) = dim_store::load_latest_snapshot(&root, &request).unwrap();
                assert_eq!(newest, id, "{case}");
                assert_eq!(compacted.shards.len(), fold.shards.len(), "{case}");
                for (c, f) in compacted.shards.iter().zip(&fold.shards) {
                    assert!(c.elements.iter().eq(f.elements.iter()), "{case}: elements");
                    let header = dim_store::ShardHeader {
                        edges_examined: f.header.edges_examined,
                        ..c.header
                    };
                    assert_eq!(header, f.header, "{case}: header");
                }
                let edges: u64 = compacted.shards.iter().map(|s| s.header.edges_examined).sum();
                assert_eq!(edges, before.edges_examined, "{case}");
                let image = std::fs::read(dir.join(dim_store::GRAPH_FILE)).unwrap();
                assert_eq!(dim_store::checksum(&image), chain.tip_fingerprint, "{case}");

                let mut reopened =
                    StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
                assert_eq!((reopened.generation(), reopened.next_seq()), (id, 0), "{case}");
                let after = reopened.select().unwrap();
                assert_eq!(after.seeds, before.seeds, "{case}");
                assert_eq!(after.marginals, before.marginals, "{case}");
                assert_eq!(after.edges_examined, before.edges_examined, "{case}");
                std::fs::remove_dir_all(&root).unwrap();
            }
        }
    }

    /// An in-memory apply leaves the on-disk chain a link short; the
    /// compaction writes the resident state, so a fresh session opens it
    /// and selects what the resident one selects.
    #[test]
    fn compact_after_in_memory_apply_heals_the_chain() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 7);
        let cfg = config(4, 33);
        let root = temp_dir("heal");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 4).unwrap();
        let mut session = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        let [first, second, _] = three_batches(&g);
        assert_eq!(session.apply(first, true, 4).unwrap().generation, Some(2));
        assert_eq!(session.apply(second, false, 4).unwrap().generation, None);
        let resident = session.select().unwrap();

        assert_eq!(session.compact(4).unwrap(), Some(3));
        let mut reopened = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!((reopened.generation(), reopened.next_seq()), (3, 0));
        assert_eq!(
            graph_fingerprint(reopened.current_graph()),
            graph_fingerprint(session.current_graph())
        );
        let selected = reopened.select().unwrap();
        assert_eq!(selected.seeds, resident.seeds);
        assert_eq!(selected.marginals, resident.marginals);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A machine lost during the compaction's persist round: a typed
    /// error, nothing committed, the session still on its chain — which
    /// it keeps extending once the link is back — and the half-written
    /// directory collected by a later GC.
    #[test]
    fn compact_killed_mid_persist_commits_nothing() {
        use dim_cluster::{FaultPlan, WireErrorKind};

        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 7);
        let cfg = config(4, 33);
        let root = temp_dir("compact-kill");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 8).unwrap();
        let mut session = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        let [first, second, third] = three_batches(&g);
        session.apply(first, true, 8).unwrap();
        session.apply(second, true, 8).unwrap();

        // Round 0 after arming is the compaction's PersistShard round.
        session.set_faults(Some(FaultInjector::new(FaultPlan::kill_machine(1, 0), 2)));
        match session.compact(8) {
            Err(SnapshotError::Wire(e)) => assert_eq!(e.kind, WireErrorKind::Link),
            other => panic!("expected a link error, got {other:?}"),
        }
        assert_eq!((session.generation(), session.next_seq()), (3, 2));
        assert_eq!(generation_ids(&root), [1, 2, 3, 4]);
        assert_eq!(dim_store::latest_generation(&root).unwrap(), Some(3));

        session.set_faults(None);
        assert_eq!(session.apply(third, true, 8).unwrap().generation, Some(5));
        let selected = session.select().unwrap();
        let mut reopened = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        assert_eq!((reopened.generation(), reopened.next_seq()), (5, 3));
        for (r, s) in reopened.cluster.workers().iter().zip(session.cluster.workers()) {
            assert!(r.shard.elements().iter().eq(s.shard.elements().iter()));
        }
        let replayed = reopened.select().unwrap();
        assert_eq!(replayed.seeds, selected.seeds);
        assert_eq!(replayed.marginals, selected.marginals);

        assert_eq!(session.compact(1).unwrap(), Some(6));
        assert_eq!(generation_ids(&root), [6], "the uncommitted attempt is collected");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A generation another writer committed after `open` makes
    /// `compact` refuse before it writes anything.
    #[test]
    fn compact_refuses_when_another_writer_committed() {
        let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 7);
        let cfg = config(4, 33);
        let root = temp_dir("compact-race");
        let net = NetworkModel::zero();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 8).unwrap();
        let mut session = StreamSession::open(&g, &cfg, &root, net, ExecMode::Sequential).unwrap();
        let [first, ..] = three_batches(&g);
        session.apply(first, true, 8).unwrap();
        diimm_sample_generation(&g, &cfg, 2, net, ExecMode::Sequential, &root, 8).unwrap();

        match session.compact(8) {
            Err(SnapshotError::Store(StoreError::Mismatch { field, expected, found, .. })) => {
                assert_eq!((field, expected, found), ("generation", 2, 3))
            }
            other => panic!("expected a generation mismatch, got {other:?}"),
        }
        assert_eq!(generation_ids(&root), [1, 2, 3], "nothing written");
        assert_eq!((session.generation(), session.next_seq()), (2, 1));
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
