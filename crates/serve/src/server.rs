//! The query server: a bounded worker pool over a shared accept queue,
//! serving a hot-swappable generation-tagged [`Sketch`].
//!
//! # Architecture
//!
//! One accept thread owns the listener. Each accepted connection is
//! registered (so shutdown can unblock its reader) and pushed onto an
//! mpsc queue; a fixed pool of worker threads pulls connections off the
//! queue and runs each request/reply loop to completion. The pool bounds
//! CPU concurrency — `workers` connections are served at once, further
//! accepted connections wait in the queue — while `max_conns` bounds
//! admission: past it, a connection gets one typed
//! `RESP_ERROR`/[`ERR_OVERLOADED`] reply and is closed (load shedding,
//! counted in [`ServeMetrics::shed`]).
//!
//! # Hot reload
//!
//! The serving sketch lives behind `RwLock<Arc<SketchState>>`. Every
//! request (or batch) clones the `Arc` once — pinning a generation — and
//! answers entirely against it, so a concurrent [`Server::reload`] swaps
//! the pointer without ever stalling or corrupting an in-flight query:
//! readers on the old generation finish there; the next request sees the
//! new one. Reloads re-scan a generation store
//! ([`dim_store::load_latest_snapshot`]) and swap only when a newer
//! committed generation exists.
//!
//! # Multi-tenant mode
//!
//! [`Server::start_multi`] binds one daemon to many tenants: each
//! [`TenantBind`] carries its own sketch, generation, and reload source,
//! so tenants hot-reload independently. A connection must authenticate
//! with one `REQ_AUTH` frame before anything else; every subsequent
//! opcode is scoped to that tenant — its sketch, its reload source, its
//! counters. Per-tenant quotas ([`crate::tenant::TenantQuota`]) shed
//! with `ERR_QUOTA` (connection survives, unlike the global
//! `ERR_OVERLOADED` admission shed): an in-flight ceiling, a queries/sec
//! token bucket (burst = one second's allowance), and a batch-size cap.
//! Single-tenant servers ([`Server::start`]) are the same machinery with
//! one implicit open tenant — no AUTH frame required, wire-compatible
//! with pre-tenant clients.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dim_cluster::wire::{read_frame, write_frame};
use dim_coverage::{constrained_greedy, seed_set_coverage, CoverageShard};
use dim_store::{Snapshot, SnapshotRequest, StoreError};

use crate::auth::failure_error;
use crate::metrics::{LatencyHistogram, ServeMetrics};
use crate::proto::{
    decode_batch, encode_response_batch, QueryRequest, QueryResponse, SketchStats, AUTH_VERSION,
    ERR_MALFORMED, ERR_OVERLOADED, ERR_QUOTA, ERR_RELOAD, ERR_UNAUTHORIZED, ERR_UNSUPPORTED,
    REQ_AUTH, REQ_BATCH, RESP_BATCH,
};
use crate::tenant::{TenantQuota, TenantSpec};

/// How often the accept loop polls the stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// How often an idle worker polls the stop flag.
const WORKER_POLL: Duration = Duration::from_millis(50);

/// An immutable in-memory RR sketch: the per-machine coverage shards of
/// one sampling run plus the scalars queries need. Queries read the
/// shards and keep their scratch per thread, so one sketch serves any
/// number of concurrent connections without locking.
pub struct Sketch {
    shards: Vec<CoverageShard>,
    num_nodes: usize,
    theta: u64,
    total_rr_size: u64,
}

impl Sketch {
    /// Wraps prepared coverage shards. Panics if any shard's set domain
    /// differs from `num_nodes` or its transpose index is stale.
    pub fn new(num_nodes: usize, theta: u64, total_rr_size: u64, shards: Vec<CoverageShard>) -> Self {
        for shard in &shards {
            assert_eq!(shard.num_sets(), num_nodes, "shard domain != num_nodes");
            assert!(!shard.needs_prepare(), "shard index is stale");
        }
        Sketch {
            shards,
            num_nodes,
            theta,
            total_rr_size,
        }
    }

    /// Builds the sketch from a validated dim-store snapshot; `num_nodes`
    /// comes from the graph the snapshot was checked against. The store
    /// hands back RR sets only, so each shard's index is built here, once,
    /// with one scoped thread per shard.
    pub fn from_snapshot(num_nodes: usize, snapshot: Snapshot) -> Self {
        let theta = snapshot.theta;
        let total_rr_size = snapshot.total_size();
        let num_sets = snapshot.num_sets as usize;
        let shards: Vec<CoverageShard> = std::thread::scope(|scope| {
            let builders: Vec<_> = snapshot
                .shards
                .into_iter()
                .map(|s| {
                    scope.spawn(move || {
                        let mut shard = CoverageShard::from_pooled(num_sets, s.elements);
                        shard.prepare();
                        shard
                    })
                })
                .collect();
            builders
                .into_iter()
                .map(|b| b.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        Sketch::new(num_nodes, theta, total_rr_size, shards)
    }

    /// Node count `n` of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total RR sets in the sketch (θ).
    pub fn theta(&self) -> u64 {
        self.theta
    }

    /// The coverage shards, for direct (in-process) evaluation.
    pub fn shards(&self) -> &[CoverageShard] {
        &self.shards
    }

    /// Answers one query against the frozen sketch. [`QueryRequest::Reload`]
    /// is a server-level operation, not a sketch query, and returns a
    /// typed [`ERR_UNSUPPORTED`] error here.
    pub fn answer(&self, req: &QueryRequest) -> QueryResponse {
        match req {
            QueryRequest::Spread { seeds } => QueryResponse::Spread {
                covered: seed_set_coverage(&self.shards, seeds),
                theta: self.theta,
                num_nodes: self.num_nodes as u64,
            },
            QueryRequest::TopK {
                k,
                include,
                exclude,
            } => {
                let r = constrained_greedy(&self.shards, *k as usize, include, exclude);
                QueryResponse::TopK {
                    seeds: r.seeds,
                    marginals: r.marginals,
                    covered: r.covered,
                    theta: self.theta,
                    num_nodes: self.num_nodes as u64,
                }
            }
            QueryRequest::Stats => QueryResponse::Stats(SketchStats {
                num_nodes: self.num_nodes as u64,
                theta: self.theta,
                shard_count: self.shards.len() as u32,
                total_rr_size: self.total_rr_size,
                queries_answered: 0, // filled in by the server
                ..SketchStats::default()
            }),
            QueryRequest::Reload => QueryResponse::Error {
                code: ERR_UNSUPPORTED,
                message: "reload is a server operation, not a sketch query".into(),
            },
            QueryRequest::Auth { .. } => QueryResponse::Error {
                code: ERR_UNSUPPORTED,
                message: "auth is a session operation, not a sketch query".into(),
            },
        }
    }
}

/// Where a server re-reads its sketch from on [`Server::reload`].
pub struct ReloadSource {
    /// Generation store root (see `dim_store::generation`).
    pub root: PathBuf,
    /// Provenance every loaded snapshot must match.
    pub request: SnapshotRequest,
    /// Node count of the graph the snapshots describe.
    pub num_nodes: usize,
}

/// Server tuning knobs; `Default` is a sketch built in process (generation
/// 0) with no reload source, 8 workers and 1024 admitted connections.
pub struct ServeOptions {
    /// Worker threads — connections served concurrently.
    pub workers: usize,
    /// Admission limit: connections past this are shed with
    /// [`ERR_OVERLOADED`].
    pub max_conns: usize,
    /// Committed generation id the initial sketch was loaded from; 0 for
    /// a sketch built in process, which no store generation carries (ids
    /// start at 1).
    pub generation: u64,
    /// Store to re-scan on reload; `None` makes reload a typed error.
    pub reload: Option<ReloadSource>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 8,
            max_conns: 1024,
            generation: 0,
            reload: None,
        }
    }
}

/// Why a [`Server::reload`] did not swap sketches.
#[derive(Debug)]
pub enum ReloadError {
    /// The server was started without a [`ReloadSource`].
    Unsupported,
    /// Scanning or loading the store failed; the serving sketch is
    /// unchanged.
    Store(StoreError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Unsupported => write!(f, "server has no snapshot store to reload from"),
            ReloadError::Store(e) => write!(f, "reload failed: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// What a reload reports: `(generation now served, whether it changed)`.
pub type ReloadOutcome = Result<(u64, bool), ReloadError>;

/// One generation of the serving sketch. Requests pin a generation by
/// cloning the `Arc` and answer entirely against it.
struct SketchState {
    generation: u64,
    sketch: Sketch,
}

/// One tenant's sketch plus one [`Server::start_multi`] slot: how the
/// caller binds registry entries to serving state.
pub struct TenantBind {
    /// Registry entry (id, token digest, quotas).
    pub spec: TenantSpec,
    /// Initial sketch.
    pub sketch: Sketch,
    /// Generation id of `sketch`.
    pub generation: u64,
    /// Store to re-scan on this tenant's reloads; `None` makes them a
    /// typed error.
    pub reload: Option<ReloadSource>,
}

/// A queries/sec token bucket: refills continuously at `max_qps`, caps
/// at one second's allowance (the burst), charges one token per query
/// (batch entries each count).
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(max_qps: u32) -> TokenBucket {
        TokenBucket {
            tokens: max_qps as f64,
            last: Instant::now(),
        }
    }

    /// Charges `cost` queries against a `max_qps` rate; `true` admits
    /// (tokens consumed), `false` refuses (tokens untouched). A zero
    /// rate means unlimited.
    fn admit(&mut self, max_qps: u32, cost: u64) -> bool {
        if max_qps == 0 {
            return true;
        }
        let rate = max_qps as f64;
        let now = Instant::now();
        self.tokens = (self.tokens + now.duration_since(self.last).as_secs_f64() * rate).min(rate);
        self.last = now;
        if self.tokens >= cost as f64 {
            self.tokens -= cost as f64;
            true
        } else {
            false
        }
    }
}

/// Everything one tenant's connections share: the hot-swappable sketch,
/// its reload machinery, quota state, and per-tenant accounting. A
/// single-tenant server is exactly one of these behind an open door.
struct TenantServing {
    spec: TenantSpec,
    state: RwLock<Arc<SketchState>>,
    reload_source: Option<ReloadSource>,
    /// Serializes this tenant's reloads (the state lock is only held for
    /// the swap).
    reload_lock: Mutex<()>,
    queries: AtomicU64,
    batches: AtomicU64,
    reloads: AtomicU64,
    /// Requests refused with `ERR_QUOTA`.
    quota_shed: AtomicU64,
    /// Request frames currently being answered for this tenant.
    in_flight: AtomicU64,
    /// Connections currently authenticated as this tenant.
    connections: AtomicU64,
    latency: LatencyHistogram,
    bucket: Mutex<TokenBucket>,
}

impl TenantServing {
    fn new(spec: TenantSpec, sketch: Sketch, generation: u64, reload: Option<ReloadSource>) -> Self {
        let bucket = TokenBucket::new(spec.quota.max_qps);
        TenantServing {
            spec,
            state: RwLock::new(Arc::new(SketchState { generation, sketch })),
            reload_source: reload,
            reload_lock: Mutex::new(()),
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            quota_shed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            bucket: Mutex::new(bucket),
        }
    }

    /// Pins the current generation.
    fn pinned(&self) -> Arc<SketchState> {
        Arc::clone(&self.state.read().unwrap())
    }

    /// This tenant's point-in-time metrics (global admission sheds are
    /// daemon-wide and excluded here).
    fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            active_generation: self.state.read().unwrap().generation,
            queries_answered: self.queries.load(Ordering::Relaxed),
            batches_answered: self.batches.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            shed: 0,
            quota_shed: self.quota_shed.load(Ordering::Relaxed),
            live_connections: self.connections.load(Ordering::Relaxed),
            p50_us: self.latency.quantile(0.5),
            p95_us: self.latency.quantile(0.95),
            p99_us: self.latency.quantile(0.99),
            max_us: self.latency.max(),
        }
    }

    /// Admits `cost` queries against the qps bucket and the in-flight
    /// ceiling, or names the limit that refused them. The returned guard
    /// holds the in-flight slot.
    fn admit<'a>(&'a self, cost: u64) -> Result<InFlightGuard<'a>, &'static str> {
        let quota = self.spec.quota;
        if !self.bucket.lock().unwrap().admit(quota.max_qps, cost) {
            return Err("queries/sec");
        }
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if quota.max_in_flight > 0 && prev >= quota.max_in_flight as u64 {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Err("in-flight");
        }
        Ok(InFlightGuard(&self.in_flight))
    }
}

/// Releases a tenant's in-flight slot when the answer is written.
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Shared {
    /// All tenants; exactly one in single-tenant mode.
    tenants: Vec<Arc<TenantServing>>,
    /// `true` iff connections must AUTH before querying
    /// ([`Server::start_multi`]).
    auth_required: bool,
    stop: AtomicBool,
    /// Connections refused with `ERR_OVERLOADED` (daemon-wide admission).
    shed: AtomicU64,
    /// Clones of every registered stream keyed by connection id, so
    /// shutdown can unblock readers; workers reap entries as their
    /// connections finish, keeping the map bounded by live connections.
    conns: Mutex<HashMap<u64, TcpStream>>,
    max_conns: usize,
}

impl Shared {
    fn find_tenant(&self, id: &str) -> Option<&Arc<TenantServing>> {
        self.tenants.iter().find(|t| t.spec.id == id)
    }
}

/// A running `dim serve` instance: one accept thread plus a bounded
/// worker pool, all sharing the (hot-swappable) sketch read-only.
///
/// Shutdown is deterministic: [`Server::shutdown`] (or drop) stops the
/// accept loop, closes every registered connection to unblock its reader,
/// and joins all threads — no orphan threads or sockets survive it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `sketch`
    /// with default [`ServeOptions`].
    pub fn start(addr: impl ToSocketAddrs, sketch: Sketch) -> io::Result<Server> {
        Server::start_with(addr, sketch, ServeOptions::default())
    }

    /// Binds `addr` and starts serving `sketch` with explicit options.
    /// Single-tenant: one implicit open tenant, no AUTH handshake.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        sketch: Sketch,
        mut options: ServeOptions,
    ) -> io::Result<Server> {
        let spec = TenantSpec {
            id: "default".into(),
            auth: [0; dim_cluster::auth::DIGEST_LEN],
            store: None,
            graph: None,
            quota: TenantQuota::default(),
        };
        let reload = options.reload.take();
        let tenant = TenantServing::new(spec, sketch, options.generation, reload);
        Server::launch(addr, vec![Arc::new(tenant)], false, &options)
    }

    /// Binds `addr` and starts serving every tenant in `binds` from one
    /// daemon. Connections must authenticate (`REQ_AUTH`) before their
    /// first query; each is then scoped to its tenant's sketch, reload
    /// source, quotas, and counters. Duplicate or empty tenant ids are
    /// an input error. `options.generation` / `options.reload` are
    /// ignored — each bind carries its own.
    pub fn start_multi(
        addr: impl ToSocketAddrs,
        binds: Vec<TenantBind>,
        options: ServeOptions,
    ) -> io::Result<Server> {
        if binds.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "start_multi needs at least one tenant",
            ));
        }
        for (i, b) in binds.iter().enumerate() {
            if b.spec.id.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "tenant id must be non-empty",
                ));
            }
            if binds[..i].iter().any(|prev| prev.spec.id == b.spec.id) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate tenant id {:?}", b.spec.id),
                ));
            }
        }
        let tenants = binds
            .into_iter()
            .map(|b| Arc::new(TenantServing::new(b.spec, b.sketch, b.generation, b.reload)))
            .collect();
        Server::launch(addr, tenants, true, &options)
    }

    fn launch(
        addr: impl ToSocketAddrs,
        tenants: Vec<Arc<TenantServing>>,
        auth_required: bool,
        options: &ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            tenants,
            auth_required,
            stop: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            max_conns: options.max_conns.max(1),
        });
        let (tx, rx) = mpsc::channel::<(u64, TcpStream)>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..options.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(rx, shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared, tx))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the OS-assigned port when `:0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries answered so far, summed over tenants (batch entries each
    /// count once; malformed frames and reloads do not).
    pub fn queries_answered(&self) -> u64 {
        self.shared
            .tenants
            .iter()
            .map(|t| t.queries.load(Ordering::Relaxed))
            .sum()
    }

    /// Store generation currently serving (the first tenant's, which in
    /// single-tenant mode is the only one).
    pub fn generation(&self) -> u64 {
        self.shared.tenants[0].state.read().unwrap().generation
    }

    /// A point-in-time snapshot of the daemon-wide serving metrics:
    /// counters summed over tenants, latency quantiles over the merged
    /// histogram, plus the global admission shed.
    pub fn metrics(&self) -> ServeMetrics {
        let s = &self.shared;
        let merged = LatencyHistogram::new();
        let mut m = ServeMetrics {
            active_generation: self.generation(),
            shed: s.shed.load(Ordering::Relaxed),
            live_connections: s.conns.lock().unwrap().len() as u64,
            ..ServeMetrics::default()
        };
        for t in &s.tenants {
            m.queries_answered += t.queries.load(Ordering::Relaxed);
            m.batches_answered += t.batches.load(Ordering::Relaxed);
            m.reloads += t.reloads.load(Ordering::Relaxed);
            m.quota_shed += t.quota_shed.load(Ordering::Relaxed);
            merged.merge(&t.latency);
        }
        m.p50_us = merged.quantile(0.5);
        m.p95_us = merged.quantile(0.95);
        m.p99_us = merged.quantile(0.99);
        m.max_us = merged.max();
        m
    }

    /// An admin handle to one tenant (any tenant id in multi mode;
    /// `"default"` in single-tenant mode).
    pub fn tenant(&self, id: &str) -> Option<TenantHandle> {
        self.shared.find_tenant(id).map(|t| TenantHandle {
            tenant: Arc::clone(t),
        })
    }

    /// The admin all-tenants view: `(tenant id, per-tenant metrics)` in
    /// bind order.
    pub fn tenant_metrics(&self) -> Vec<(String, ServeMetrics)> {
        self.shared
            .tenants
            .iter()
            .map(|t| (t.spec.id.clone(), t.metrics()))
            .collect()
    }

    /// Re-scans the reload source and atomically swaps to the newest
    /// committed generation — single-tenant form, reloading the first
    /// (only) tenant. Returns `(generation, changed)`; in-flight queries
    /// finish on their pinned generation either way. Also triggered over
    /// the wire by [`QueryRequest::Reload`] (and by SIGHUP in the CLI).
    pub fn reload(&self) -> ReloadOutcome {
        try_reload(&self.shared.tenants[0])
    }

    /// Reloads every tenant independently (the SIGHUP path in multi
    /// mode): one tenant's store error does not stop the others.
    pub fn reload_all(&self) -> Vec<(String, ReloadOutcome)> {
        self.shared
            .tenants
            .iter()
            .map(|t| (t.spec.id.clone(), try_reload(t)))
            .collect()
    }

    /// Stops accepting, closes every live connection, and joins all
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Join the accept loop first: afterwards the registry is complete
        // (and the queue's sender is dropped), so closing every
        // registered stream unblocks both in-service readers and queued
        // connections, and the workers drain to Disconnected.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Only the read half: a handler that has already answered (and
        // counted) a query must still be able to write that reply — it
        // then sees `stop`, returns, and drops the stream, which closes
        // the write half too.
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// An admin handle to one tenant of a running [`Server`]: per-tenant
/// generation, metrics, and reload without going over the wire.
pub struct TenantHandle {
    tenant: Arc<TenantServing>,
}

impl TenantHandle {
    /// The tenant id this handle is scoped to.
    pub fn id(&self) -> &str {
        &self.tenant.spec.id
    }

    /// This tenant's serving generation.
    pub fn generation(&self) -> u64 {
        self.tenant.state.read().unwrap().generation
    }

    /// This tenant's point-in-time metrics.
    pub fn metrics(&self) -> ServeMetrics {
        self.tenant.metrics()
    }

    /// Reloads only this tenant; other tenants' generations are
    /// untouched and their in-flight queries undisturbed.
    pub fn reload(&self) -> ReloadOutcome {
        try_reload(&self.tenant)
    }
}

fn try_reload(tenant: &TenantServing) -> ReloadOutcome {
    let src = tenant
        .reload_source
        .as_ref()
        .ok_or(ReloadError::Unsupported)?;
    let _guard = tenant.reload_lock.lock().unwrap();
    let current = tenant.state.read().unwrap().generation;
    let (generation, snapshot) =
        dim_store::load_latest_snapshot(&src.root, &src.request).map_err(ReloadError::Store)?;
    if generation == current {
        return Ok((generation, false));
    }
    let sketch = Sketch::from_snapshot(src.num_nodes, snapshot);
    *tenant.state.write().unwrap() = Arc::new(SketchState { generation, sketch });
    tenant.reloads.fetch_add(1, Ordering::Relaxed);
    Ok((generation, true))
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, queue: Sender<(u64, TcpStream)>) {
    let mut next_id = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let mut conns = shared.conns.lock().unwrap();
                if conns.len() >= shared.max_conns {
                    drop(conns);
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    let resp = QueryResponse::Error {
                        code: ERR_OVERLOADED,
                        message: format!(
                            "connection limit reached ({} live)",
                            shared.max_conns
                        ),
                    };
                    let _ = write_frame(&mut stream, resp.opcode(), &resp.encode());
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                if let Ok(clone) = stream.try_clone() {
                    let id = next_id;
                    next_id += 1;
                    conns.insert(id, clone);
                    drop(conns);
                    if queue.send((id, stream)).is_err() {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => break,
        }
    }
}

/// One worker: pull connections off the shared queue and serve each to
/// completion, then reap its registry entry.
fn worker_loop(queue: Arc<Mutex<Receiver<(u64, TcpStream)>>>, shared: Arc<Shared>) {
    loop {
        let next = {
            let queue = queue.lock().unwrap();
            queue.recv_timeout(WORKER_POLL)
        };
        match next {
            Ok((id, stream)) => {
                serve_connection(stream, &shared);
                if let Some(conn) = shared.conns.lock().unwrap().remove(&id) {
                    let _ = conn.shutdown(Shutdown::Both);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Answers one decoded query against a pinned generation, recording
/// latency and the query count on the owning tenant. Single frames and
/// batch entries alike go through [`Sketch::answer`].
fn answer_query(
    shared: &Shared,
    tenant: &TenantServing,
    state: &SketchState,
    req: &QueryRequest,
) -> QueryResponse {
    let start = Instant::now();
    let mut resp = state.sketch.answer(req);
    let answered = tenant.queries.fetch_add(1, Ordering::Relaxed) + 1;
    tenant
        .latency
        .record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
    if let QueryResponse::Stats(s) = &mut resp {
        s.queries_answered = answered;
        s.generation = state.generation;
        s.shed = shared.shed.load(Ordering::Relaxed);
        s.quota_shed = tenant.quota_shed.load(Ordering::Relaxed);
        s.p50_us = tenant.latency.quantile(0.5);
        s.p95_us = tenant.latency.quantile(0.95);
        s.p99_us = tenant.latency.quantile(0.99);
    }
    resp
}

/// Handles one AUTH frame; `Err` closes the connection after the reply.
fn handle_auth(
    shared: &Shared,
    version: u8,
    id: &str,
    auth: &dim_cluster::auth::Digest,
) -> Result<(Arc<TenantServing>, QueryResponse), QueryResponse> {
    if !shared.auth_required {
        // Single-tenant server: the handshake is not part of its
        // protocol, but an old connection survives the probe.
        return Err(QueryResponse::Error {
            code: ERR_UNSUPPORTED,
            message: "server is single-tenant; no auth required".into(),
        });
    }
    if version != AUTH_VERSION {
        return Err(QueryResponse::Error {
            code: ERR_UNSUPPORTED,
            message: format!("auth version {version} unsupported (speak {AUTH_VERSION})"),
        });
    }
    let tenant = match shared.find_tenant(id) {
        Some(t) => t,
        None => {
            let (code, message) = failure_error(id, crate::tenant::AuthFailure::UnknownTenant);
            return Err(QueryResponse::Error { code, message });
        }
    };
    if !dim_cluster::auth::verify_digest(auth, &tenant.spec.auth) {
        let (code, message) = failure_error(id, crate::tenant::AuthFailure::BadToken);
        return Err(QueryResponse::Error { code, message });
    }
    let generation = tenant.state.read().unwrap().generation;
    Ok((
        Arc::clone(tenant),
        QueryResponse::AuthOk {
            tenant: id.to_string(),
            generation,
        },
    ))
}

/// The typed refusal for a tripped per-tenant quota; counted on the
/// tenant, connection survives.
fn quota_refused(tenant: &TenantServing, limit: &str) -> QueryResponse {
    tenant.quota_shed.fetch_add(1, Ordering::Relaxed);
    QueryResponse::Error {
        code: ERR_QUOTA,
        message: format!("tenant {:?} over its {limit} quota", tenant.spec.id),
    }
}

/// One connection: a strict request/reply loop until EOF, a wire error,
/// or server shutdown (which closes the stream under us). On a
/// multi-tenant server the first frame must be AUTH; failed auth (or a
/// query before it) gets its typed error and the connection closes.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let mut tenant: Option<Arc<TenantServing>> = if shared.auth_required {
        None
    } else {
        Some(Arc::clone(&shared.tenants[0]))
    };
    if let Some(t) = &tenant {
        t.connections.fetch_add(1, Ordering::Relaxed);
    }
    let mut close = false;
    while !close {
        let (opcode, body) = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(_) => break, // EOF, shutdown, or a framing violation
        };
        let malformed = || QueryResponse::Error {
            code: ERR_MALFORMED,
            message: format!("malformed request frame (opcode {opcode:#04x})"),
        };
        let (resp_opcode, payload) = if opcode == REQ_AUTH {
            let resp = match QueryRequest::decode(opcode, &body) {
                Some(QueryRequest::Auth {
                    version,
                    tenant: id,
                    auth,
                }) => {
                    if tenant.is_some() && shared.auth_required {
                        QueryResponse::Error {
                            code: ERR_UNSUPPORTED,
                            message: "connection is already authenticated".into(),
                        }
                    } else {
                        match handle_auth(shared, version, &id, &auth) {
                            Ok((t, ok)) => {
                                t.connections.fetch_add(1, Ordering::Relaxed);
                                tenant = Some(t);
                                ok
                            }
                            Err(resp) => {
                                // Failed auth on an auth-required server
                                // ends the connection; a single-tenant
                                // server just reports the probe.
                                close = shared.auth_required;
                                resp
                            }
                        }
                    }
                }
                _ => {
                    close = shared.auth_required && tenant.is_none();
                    malformed()
                }
            };
            (resp.opcode(), resp.encode())
        } else if tenant.is_none() {
            // A query before AUTH on a multi-tenant server.
            let resp = QueryResponse::Error {
                code: ERR_UNAUTHORIZED,
                message: "authenticate first (REQ_AUTH)".into(),
            };
            close = true;
            (resp.opcode(), resp.encode())
        } else if opcode == REQ_BATCH {
            let t = tenant.as_ref().unwrap();
            match decode_batch(&body) {
                Some(requests) => {
                    let max_batch = t.spec.quota.max_batch;
                    if max_batch > 0 && requests.len() > max_batch as usize {
                        let resp = quota_refused(t, "batch-size");
                        (resp.opcode(), resp.encode())
                    } else {
                        match t.admit(requests.len() as u64) {
                            Ok(_guard) => {
                                // The whole batch answers against one
                                // pinned generation.
                                let state = t.pinned();
                                let responses: Vec<QueryResponse> = requests
                                    .iter()
                                    .map(|req| answer_query(shared, t, &state, req))
                                    .collect();
                                t.batches.fetch_add(1, Ordering::Relaxed);
                                (RESP_BATCH, encode_response_batch(&responses))
                            }
                            Err(limit) => {
                                let resp = quota_refused(t, limit);
                                (resp.opcode(), resp.encode())
                            }
                        }
                    }
                }
                None => {
                    let resp = malformed();
                    (resp.opcode(), resp.encode())
                }
            }
        } else {
            let t = tenant.as_ref().unwrap();
            let resp = match QueryRequest::decode(opcode, &body) {
                Some(QueryRequest::Reload) => match try_reload(t) {
                    Ok((generation, changed)) => QueryResponse::Reload {
                        generation,
                        changed,
                    },
                    Err(e) => QueryResponse::Error {
                        code: ERR_RELOAD,
                        message: e.to_string(),
                    },
                },
                Some(req) => match t.admit(1) {
                    Ok(_guard) => {
                        let state = t.pinned();
                        answer_query(shared, t, &state, &req)
                    }
                    Err(limit) => quota_refused(t, limit),
                },
                None => malformed(),
            };
            (resp.opcode(), resp.encode())
        };
        if write_frame(&mut stream, resp_opcode, &payload).is_err() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    if let Some(t) = &tenant {
        t.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::QueryClient;
    use crate::proto::encode_batch;
    use dim_coverage::PooledSets;
    use dim_diffusion::DiffusionModel::IndependentCascade as IC;
    use dim_diffusion::SamplerKind;
    use std::sync::atomic::AtomicUsize;

    /// The paper's Fig. 2 instance split over two shards.
    fn sketch() -> Sketch {
        let shards = vec![
            CoverageShard::from_records(5, [&[0u32][..], &[1, 2], &[0, 2]]),
            CoverageShard::from_records(5, [&[1u32, 4][..], &[0], &[1, 3]]),
        ];
        Sketch::new(5, 6, 10, shards)
    }

    #[test]
    fn spread_and_topk_match_direct_evaluation() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let reference = sketch();
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        let (covered, spread) = client.spread(&[0, 1]).unwrap();
        assert_eq!(covered, seed_set_coverage(reference.shards(), &[0, 1]));
        assert_eq!(covered, 6);
        assert!((spread - 5.0).abs() < 1e-12);
        let top = client.top_k(2, &[], &[]).unwrap();
        let direct = constrained_greedy(reference.shards(), 2, &[], &[]);
        assert_eq!(top.seeds, direct.seeds);
        assert_eq!(top.marginals, direct.marginals);
        assert_eq!(top.covered, direct.covered);
        let top = client.top_k(2, &[4], &[1]).unwrap();
        let direct = constrained_greedy(reference.shards(), 2, &[4], &[1]);
        assert_eq!(top.seeds, direct.seeds);
        server.shutdown();
    }

    #[test]
    fn stats_reports_sketch_shape_and_query_count() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        client.spread(&[0]).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.num_nodes, 5);
        assert_eq!(stats.theta, 6);
        assert_eq!(stats.shard_count, 2);
        assert_eq!(stats.total_rr_size, 10);
        assert_eq!(stats.queries_answered, 2); // the spread query + this one
        assert_eq!(stats.generation, 0);
        assert_eq!(stats.shed, 0);
        // Both answered queries are in the histogram by now.
        assert!(stats.p99_us >= stats.p50_us);
        assert_eq!(server.queries_answered(), 2);
        server.shutdown();
    }

    #[test]
    fn malformed_frame_gets_typed_error_and_connection_survives() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Truncated Spread body: count says 5 ids, none follow.
        let mut body = Vec::new();
        dim_cluster::ops::put_u64(&mut body, 5);
        write_frame(&mut stream, crate::proto::REQ_SPREAD, &body).unwrap();
        let (op, resp) = read_frame(&mut stream).unwrap();
        match QueryResponse::decode(op, &resp) {
            Some(QueryResponse::Error { code, .. }) => assert_eq!(code, ERR_MALFORMED),
            other => panic!("expected error response, got {other:?}"),
        }
        // The connection still answers well-formed queries afterwards.
        let req = QueryRequest::Stats;
        write_frame(&mut stream, req.opcode(), &req.encode()).unwrap();
        let (op, resp) = read_frame(&mut stream).unwrap();
        assert!(matches!(
            QueryResponse::decode(op, &resp),
            Some(QueryResponse::Stats(_))
        ));
        assert_eq!(server.queries_answered(), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_live_connections() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let addr = server.local_addr();
        let mut client = QueryClient::connect(addr).unwrap();
        client.spread(&[0]).unwrap();
        server.shutdown();
        // The server side is gone: the next query fails instead of hanging.
        assert!(client.spread(&[0]).is_err());
        assert!(QueryClient::connect(addr).is_err() || {
            // A racing TCP stack may still accept; the query must not.
            let mut c = QueryClient::connect(addr).unwrap();
            c.spread(&[0]).is_err()
        });
    }

    #[test]
    fn sketch_rejects_mismatched_domain() {
        let shard = CoverageShard::from_records(4, [&[0u32][..]]);
        let result = std::panic::catch_unwind(|| Sketch::new(5, 1, 1, vec![shard]));
        assert!(result.is_err());
    }

    #[test]
    fn batch_replies_equal_singles_in_request_order() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let mut single = QueryClient::connect(server.local_addr()).unwrap();
        let mut batched = QueryClient::connect(server.local_addr()).unwrap();
        let requests = vec![
            QueryRequest::Spread { seeds: vec![0, 1] },
            QueryRequest::TopK {
                k: 2,
                include: vec![],
                exclude: vec![1],
            },
            QueryRequest::Spread { seeds: vec![] },
            QueryRequest::Spread { seeds: vec![4] },
        ];
        let replies = batched.batch(&requests).unwrap();
        assert_eq!(replies.len(), requests.len());
        for (req, got) in requests.iter().zip(&replies) {
            // Stats replies embed counters, so compare non-stats queries
            // only — and they must match a fresh single-shot answer.
            let expect = single.request(req).unwrap();
            assert_eq!(got, &expect, "{req:?}");
        }
        // One frame, four queries.
        assert_eq!(server.metrics().batches_answered, 1);
        assert_eq!(server.queries_answered(), 4 + requests.len() as u64);
        server.shutdown();
    }

    #[test]
    fn batch_stats_count_every_entry() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        let replies = client
            .batch(&[
                QueryRequest::Spread { seeds: vec![0] },
                QueryRequest::Stats,
            ])
            .unwrap();
        match &replies[1] {
            QueryResponse::Stats(s) => {
                assert_eq!(s.queries_answered, 2);
                assert_eq!(s.generation, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn reload_inside_batch_is_malformed() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut body = Vec::new();
        dim_cluster::ops::put_u32(&mut body, 1);
        body.push(crate::proto::REQ_RELOAD);
        dim_cluster::ops::put_u32(&mut body, 0);
        write_frame(&mut stream, REQ_BATCH, &body).unwrap();
        let (op, resp) = read_frame(&mut stream).unwrap();
        match QueryResponse::decode(op, &resp) {
            Some(QueryResponse::Error { code, .. }) => assert_eq!(code, ERR_MALFORMED),
            other => panic!("expected malformed error, got {other:?}"),
        }
        assert_eq!(server.queries_answered(), 0);
        server.shutdown();
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        let server = Server::start_with(
            "127.0.0.1:0",
            sketch(),
            ServeOptions {
                workers: 2,
                max_conns: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut first = QueryClient::connect(addr).unwrap();
        first.spread(&[0]).unwrap(); // guarantees registration
        // The second connection is shed with a typed reply, then closed.
        let mut second = TcpStream::connect(addr).unwrap();
        let (op, body) = read_frame(&mut second).unwrap();
        match QueryResponse::decode(op, &body) {
            Some(QueryResponse::Error { code, .. }) => assert_eq!(code, ERR_OVERLOADED),
            other => panic!("expected overload error, got {other:?}"),
        }
        assert_eq!(server.metrics().shed, 1);
        // The first connection is unaffected, and its stats see the shed.
        let stats = first.stats().unwrap();
        assert_eq!(stats.shed, 1);
        // Releasing the slot re-admits new connections.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(mut c) = QueryClient::connect(addr) {
                if c.spread(&[0]).is_ok() {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "slot never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn finished_connections_are_reaped() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        for _ in 0..5 {
            let mut client = QueryClient::connect(server.local_addr()).unwrap();
            client.spread(&[0]).unwrap();
            drop(client);
        }
        // Workers reap asynchronously after EOF; the registry must drain
        // back to zero instead of growing per connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().live_connections > 0 {
            assert!(Instant::now() < deadline, "connections never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.queries_answered(), 5);
        server.shutdown();
    }

    #[test]
    fn reload_without_store_is_typed_error() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        assert!(matches!(server.reload(), Err(ReloadError::Unsupported)));
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        let err = client.reload().unwrap_err();
        assert!(err.to_string().contains("4"), "{err}");
        // The connection survives the failed reload.
        client.spread(&[0]).unwrap();
        server.shutdown();
    }

    /// Writes a complete one-shard snapshot whose single RR set is
    /// `{mark}` — so `spread([mark]) == 1` identifies the generation.
    fn write_generation(root: &std::path::Path, mark: u32) -> u64 {
        let (id, dir) = dim_store::begin_generation(root).unwrap();
        let mut elements = PooledSets::new();
        elements.push(&[mark]);
        let header = dim_store::ShardHeader {
            fingerprint: 0xabcd,
            sampler: SamplerKind::Standard(IC),
            seed: mark as u64,
            theta: 1,
            shard_id: 0,
            shard_count: 1,
            num_sets: 5,
            num_elements: 1,
            edges_examined: 0,
        };
        dim_store::write_shard(&dir, &header, &elements).unwrap();
        let run = dim_store::RunParams { k: 1, epsilon: 0.5, delta: 0.1 };
        dim_store::commit_generation(&dir, id, &run).unwrap();
        id
    }

    #[test]
    fn wire_reload_swaps_to_latest_generation() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "dim-serve-reload-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let request = SnapshotRequest {
            fingerprint: 0xabcd,
            sampler: SamplerKind::Standard(IC),
            num_sets: 5,
        };
        let gen1 = write_generation(&root, 0);
        let (id, snapshot) = dim_store::load_latest_snapshot(&root, &request).unwrap();
        assert_eq!(id, gen1);
        let server = Server::start_with(
            "127.0.0.1:0",
            Sketch::from_snapshot(5, snapshot),
            ServeOptions {
                generation: id,
                reload: Some(ReloadSource {
                    root: root.clone(),
                    request,
                    num_nodes: 5,
                }),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.spread(&[0]).unwrap().0, 1);
        assert_eq!(client.spread(&[3]).unwrap().0, 0);

        // Nothing new yet: reload reports unchanged.
        assert_eq!(client.reload().unwrap(), (gen1, false));

        // A new committed generation swaps in without dropping the
        // connection; answers now reflect the new sketch.
        let gen2 = write_generation(&root, 3);
        assert_eq!(client.reload().unwrap(), (gen2, true));
        assert_eq!(server.generation(), gen2);
        assert_eq!(client.spread(&[0]).unwrap().0, 0);
        assert_eq!(client.spread(&[3]).unwrap().0, 1);
        assert_eq!(client.stats().unwrap().generation, gen2);
        assert_eq!(server.metrics().reloads, 1);
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    /// A second, distinguishable instance: every RR set is `{4}`.
    fn other_sketch() -> Sketch {
        let shards = vec![CoverageShard::from_records(
            5,
            [&[4u32][..], &[4], &[4], &[4]],
        )];
        Sketch::new(5, 4, 4, shards)
    }

    fn tenant_spec(id: &str, token: &str, quota: TenantQuota) -> TenantSpec {
        TenantSpec {
            id: id.into(),
            auth: dim_cluster::auth::token_digest(token),
            store: None,
            graph: None,
            quota,
        }
    }

    fn two_tenant_server(quota_a: TenantQuota) -> Server {
        Server::start_multi(
            "127.0.0.1:0",
            vec![
                TenantBind {
                    spec: tenant_spec("acme", "acme-secret", quota_a),
                    sketch: sketch(),
                    generation: 0,
                    reload: None,
                },
                TenantBind {
                    spec: tenant_spec("globex", "globex-secret", TenantQuota::default()),
                    sketch: other_sketch(),
                    generation: 0,
                    reload: None,
                },
            ],
            ServeOptions::default(),
        )
        .unwrap()
    }

    fn raw_request(stream: &mut TcpStream, req: &QueryRequest) -> QueryResponse {
        write_frame(stream, req.opcode(), &req.encode()).unwrap();
        let (op, body) = read_frame(stream).unwrap();
        QueryResponse::decode(op, &body).unwrap()
    }

    fn auth_frame(tenant: &str, token: &str) -> QueryRequest {
        crate::auth::Credentials::new(tenant, token).auth_request()
    }

    #[test]
    fn multi_tenant_scopes_answers_and_rejects_bad_credentials() {
        let server = two_tenant_server(TenantQuota::default());
        let addr = server.local_addr();

        // A query before AUTH is refused with the typed error, then the
        // connection closes.
        let mut early = TcpStream::connect(addr).unwrap();
        match raw_request(&mut early, &QueryRequest::Stats) {
            QueryResponse::Error { code, .. } => assert_eq!(code, crate::proto::ERR_UNAUTHORIZED),
            other => panic!("expected unauthorized, got {other:?}"),
        }
        assert!(read_frame(&mut early).is_err(), "connection must close");

        // Wrong token and unknown tenant each get their distinct error.
        let mut bad = TcpStream::connect(addr).unwrap();
        match raw_request(&mut bad, &auth_frame("acme", "not-the-secret")) {
            QueryResponse::Error { code, .. } => assert_eq!(code, crate::proto::ERR_UNAUTHORIZED),
            other => panic!("expected unauthorized, got {other:?}"),
        }
        let mut nobody = TcpStream::connect(addr).unwrap();
        match raw_request(&mut nobody, &auth_frame("nobody", "x")) {
            QueryResponse::Error { code, .. } => {
                assert_eq!(code, crate::proto::ERR_UNKNOWN_TENANT)
            }
            other => panic!("expected unknown tenant, got {other:?}"),
        }

        // Authenticated tenants get their own sketches.
        let mut acme = TcpStream::connect(addr).unwrap();
        match raw_request(&mut acme, &auth_frame("acme", "acme-secret")) {
            QueryResponse::AuthOk { tenant, generation } => {
                assert_eq!(tenant, "acme");
                assert_eq!(generation, 0);
            }
            other => panic!("expected AuthOk, got {other:?}"),
        }
        let mut globex = TcpStream::connect(addr).unwrap();
        assert!(matches!(
            raw_request(&mut globex, &auth_frame("globex", "globex-secret")),
            QueryResponse::AuthOk { .. }
        ));
        // acme's sketch covers node 0 in 3 of 6 sets; globex's in none.
        let spread = QueryRequest::Spread { seeds: vec![0] };
        assert_eq!(
            raw_request(&mut acme, &spread),
            QueryResponse::Spread {
                covered: 3,
                theta: 6,
                num_nodes: 5
            }
        );
        assert_eq!(
            raw_request(&mut globex, &spread),
            QueryResponse::Spread {
                covered: 0,
                theta: 4,
                num_nodes: 5
            }
        );
        // Per-tenant stats: each tenant sees only its own query count.
        match raw_request(&mut acme, &QueryRequest::Stats) {
            QueryResponse::Stats(s) => {
                assert_eq!(s.queries_answered, 2);
                assert_eq!(s.theta, 6);
                assert_eq!(s.quota_shed, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // Admin view: both tenants accounted separately, aggregate sums.
        let per_tenant = server.tenant_metrics();
        assert_eq!(per_tenant.len(), 2);
        assert_eq!(per_tenant[0].0, "acme");
        assert_eq!(per_tenant[0].1.queries_answered, 2);
        assert_eq!(per_tenant[1].1.queries_answered, 1);
        assert_eq!(server.metrics().queries_answered, 3);
        server.shutdown();
    }

    #[test]
    fn auth_version_and_double_auth_are_refused() {
        let server = two_tenant_server(TenantQuota::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Future auth version: typed unsupported, connection closes.
        let req = QueryRequest::Auth {
            version: AUTH_VERSION + 1,
            tenant: "acme".into(),
            auth: dim_cluster::auth::token_digest("acme-secret"),
        };
        match raw_request(&mut stream, &req) {
            QueryResponse::Error { code, .. } => assert_eq!(code, ERR_UNSUPPORTED),
            other => panic!("expected unsupported, got {other:?}"),
        }
        assert!(read_frame(&mut stream).is_err());
        // Re-auth on an authenticated connection is refused but survives.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        assert!(matches!(
            raw_request(&mut stream, &auth_frame("acme", "acme-secret")),
            QueryResponse::AuthOk { .. }
        ));
        match raw_request(&mut stream, &auth_frame("globex", "globex-secret")) {
            QueryResponse::Error { code, .. } => assert_eq!(code, ERR_UNSUPPORTED),
            other => panic!("expected unsupported, got {other:?}"),
        }
        assert!(matches!(
            raw_request(&mut stream, &QueryRequest::Stats),
            QueryResponse::Stats(_)
        ));
        server.shutdown();
    }

    #[test]
    fn single_tenant_server_reports_auth_probe_and_survives() {
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        match raw_request(&mut stream, &auth_frame("anyone", "x")) {
            QueryResponse::Error { code, .. } => assert_eq!(code, ERR_UNSUPPORTED),
            other => panic!("expected unsupported, got {other:?}"),
        }
        // The probe does not cost the connection.
        assert!(matches!(
            raw_request(&mut stream, &QueryRequest::Stats),
            QueryResponse::Stats(_)
        ));
        server.shutdown();
    }

    #[test]
    fn batch_quota_sheds_typed_without_closing() {
        let server = two_tenant_server(TenantQuota {
            max_batch: 2,
            ..TenantQuota::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        assert!(matches!(
            raw_request(&mut stream, &auth_frame("acme", "acme-secret")),
            QueryResponse::AuthOk { .. }
        ));
        let spread = QueryRequest::Spread { seeds: vec![0] };
        let over = encode_batch(&[spread.clone(), spread.clone(), spread.clone()]);
        write_frame(&mut stream, REQ_BATCH, &over).unwrap();
        let (op, body) = read_frame(&mut stream).unwrap();
        match QueryResponse::decode(op, &body).unwrap() {
            QueryResponse::Error { code, message } => {
                assert_eq!(code, ERR_QUOTA);
                assert!(message.contains("batch-size"), "{message}");
            }
            other => panic!("expected quota error, got {other:?}"),
        }
        // The connection survives and an in-quota batch answers.
        let ok = encode_batch(&[spread.clone(), spread]);
        write_frame(&mut stream, REQ_BATCH, &ok).unwrap();
        let (op, _) = read_frame(&mut stream).unwrap();
        assert_eq!(op, RESP_BATCH);
        // The shed is accounted on the tenant, not globally.
        let m = server.tenant_metrics();
        assert_eq!(m[0].1.quota_shed, 1);
        assert_eq!(m[1].1.quota_shed, 0);
        assert_eq!(server.metrics().shed, 0);
        assert_eq!(server.metrics().quota_shed, 1);
        server.shutdown();
    }

    #[test]
    fn qps_bucket_and_in_flight_ceiling_admit_and_refuse() {
        // Unit-level: deterministic without wall-clock races.
        let t = TenantServing::new(
            tenant_spec(
                "a",
                "s",
                TenantQuota {
                    max_in_flight: 1,
                    ..TenantQuota::default()
                },
            ),
            sketch(),
            0,
            None,
        );
        let g1 = t.admit(1);
        assert!(g1.is_ok());
        assert!(matches!(t.admit(1), Err("in-flight")));
        drop(g1);
        assert!(t.admit(1).is_ok());

        // Token bucket: a burst of max_qps, then refusal until refill.
        let mut bucket = TokenBucket::new(2);
        assert!(bucket.admit(2, 1));
        assert!(bucket.admit(2, 1));
        assert!(!bucket.admit(2, 1), "burst exhausted");
        // An unlimited rate never refuses.
        let mut open = TokenBucket::new(0);
        for _ in 0..100 {
            assert!(open.admit(0, 1_000));
        }
        // A batch charges its entry count at once.
        let mut batchy = TokenBucket::new(10);
        assert!(batchy.admit(10, 10));
        assert!(!batchy.admit(10, 1));
    }

    #[test]
    fn qps_quota_sheds_over_the_wire() {
        let server = two_tenant_server(TenantQuota {
            max_qps: 1,
            ..TenantQuota::default()
        });
        let mut acme = TcpStream::connect(server.local_addr()).unwrap();
        assert!(matches!(
            raw_request(&mut acme, &auth_frame("acme", "acme-secret")),
            QueryResponse::AuthOk { .. }
        ));
        let spread = QueryRequest::Spread { seeds: vec![0] };
        // One second of burst = one query; back-to-back requests must
        // trip the bucket at least once (refill would need >3 s between
        // these frames).
        let mut refused = 0;
        let mut answered = 0;
        for _ in 0..4 {
            match raw_request(&mut acme, &spread) {
                QueryResponse::Spread { .. } => answered += 1,
                QueryResponse::Error { code, message } => {
                    assert_eq!(code, ERR_QUOTA);
                    assert!(message.contains("queries/sec"), "{message}");
                    refused += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(answered >= 1, "the burst token must admit the first query");
        assert!(refused >= 1, "the bucket never refused");
        // The other tenant is unaffected.
        let mut globex = TcpStream::connect(server.local_addr()).unwrap();
        assert!(matches!(
            raw_request(&mut globex, &auth_frame("globex", "globex-secret")),
            QueryResponse::AuthOk { .. }
        ));
        for _ in 0..5 {
            assert!(matches!(
                raw_request(&mut globex, &spread),
                QueryResponse::Spread { .. }
            ));
        }
        server.shutdown();
    }

    #[test]
    fn start_multi_rejects_bad_binds() {
        let dup = Server::start_multi(
            "127.0.0.1:0",
            vec![
                TenantBind {
                    spec: tenant_spec("a", "x", TenantQuota::default()),
                    sketch: sketch(),
                    generation: 0,
                    reload: None,
                },
                TenantBind {
                    spec: tenant_spec("a", "y", TenantQuota::default()),
                    sketch: sketch(),
                    generation: 0,
                    reload: None,
                },
            ],
            ServeOptions::default(),
        );
        assert!(dup.is_err());
        assert!(Server::start_multi("127.0.0.1:0", vec![], ServeOptions::default()).is_err());
    }

    #[test]
    fn batch_frame_opcode_roundtrip_over_wire() {
        // Drive REQ_BATCH at the frame level (no client sugar) to pin the
        // wire contract: one frame in, one RESP_BATCH frame out.
        let server = Server::start("127.0.0.1:0", sketch()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let body = encode_batch(&[
            QueryRequest::Spread { seeds: vec![0] },
            QueryRequest::Spread { seeds: vec![1] },
        ]);
        write_frame(&mut stream, REQ_BATCH, &body).unwrap();
        let (op, resp) = read_frame(&mut stream).unwrap();
        assert_eq!(op, RESP_BATCH);
        let replies = crate::proto::decode_response_batch(&resp).unwrap();
        assert_eq!(
            replies,
            vec![
                QueryResponse::Spread {
                    covered: 3,
                    theta: 6,
                    num_nodes: 5
                },
                QueryResponse::Spread {
                    covered: 3,
                    theta: 6,
                    num_nodes: 5
                },
            ]
        );
        server.shutdown();
    }
}
