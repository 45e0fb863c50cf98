//! Closed-loop load generation against a running `dim serve` instance —
//! the engine of the `dim-loadgen` binary and of the serve-tier CI
//! benchmark.
//!
//! A run drives the same query mix twice at equal concurrency: once as
//! single `REQ_SPREAD` frames (one decode per query) and once pipelined
//! through `REQ_BATCH` (one decode per N queries), so the report
//! quantifies exactly what batching buys. Client-side latencies go
//! through the serving tier's own [`LatencyHistogram`], and the final
//! report joins them with the server's `REQ_STATS` view into the
//! hand-rolled JSON that lands in `BENCH_serve.json`.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dim_graph::rng::Rng;
use dim_serve::{
    ConnectOptions, Credentials, LatencyHistogram, QueryClient, QueryRequest, QueryResponse,
    SketchStats,
};

/// One load-generation run's shape.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Client threads, each with its own connection.
    pub concurrency: usize,
    /// Queries each client issues per phase.
    pub requests_per_client: usize,
    /// Queries pipelined per `REQ_BATCH` frame in the batched phase.
    pub batch: usize,
    /// Seed nodes per spread query.
    pub seeds_per_query: usize,
    /// Node-id space to draw seed sets from (from `REQ_STATS` usually).
    pub num_nodes: u32,
    /// Jitter/workload seed — two runs with one seed issue identical
    /// query streams.
    pub seed: u64,
    /// Connect retry policy (loadgen usually starts with the server).
    pub connect: ConnectOptions,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7117".to_string(),
            concurrency: 8,
            requests_per_client: 200,
            batch: 32,
            seeds_per_query: 4,
            num_nodes: 1,
            seed: 42,
            connect: ConnectOptions::default(),
        }
    }
}

/// Measured outcome of one phase (unbatched or batched).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseResult {
    /// Queries per `REQ_BATCH` frame (1 = plain request/response).
    pub batch: usize,
    /// Spread queries answered successfully.
    pub queries: u64,
    /// Queries that came back as errors (wire or server-side).
    pub errors: u64,
    /// Wall-clock for the whole phase across all clients.
    pub elapsed: Duration,
    /// `queries / elapsed`.
    pub throughput_qps: f64,
    /// Client-observed wire latency per frame, µs.
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl PhaseResult {
    /// JSON object fragment (all fields; elapsed in seconds).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"batch\":{},\"queries\":{},\"errors\":{},",
                "\"elapsed_s\":{:.6},\"throughput_qps\":{:.1},",
                "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}"
            ),
            self.batch,
            self.queries,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.throughput_qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
        )
    }
}

/// The spread queries client `client_idx` issues in one phase.
/// Deterministic per (seed, client), so reruns and the two phases issue
/// the same queries.
fn client_queries(config: &LoadgenConfig, client_idx: usize) -> Vec<QueryRequest> {
    let mut rng = Rng::new(config.seed ^ (client_idx as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    (0..config.requests_per_client)
        .map(|_| {
            let seeds = (0..config.seeds_per_query)
                .map(|_| rng.below(config.num_nodes.max(1) as usize) as u32)
                .collect();
            QueryRequest::Spread { seeds }
        })
        .collect()
}

/// Runs one phase at `config.concurrency` clients. `batch == 1` sends
/// plain request/response frames; `batch > 1` pipelines that many
/// queries per `REQ_BATCH` frame (same total query count).
pub fn run_phase(config: &LoadgenConfig, batch: usize) -> io::Result<PhaseResult> {
    assert!(batch >= 1, "batch must be at least 1");
    let latency = Arc::new(LatencyHistogram::new());
    let ok = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.concurrency);
    for client_idx in 0..config.concurrency {
        let queries = client_queries(config, client_idx);
        let (latency, ok, errors) = (latency.clone(), ok.clone(), errors.clone());
        let (addr, connect) = (config.addr.clone(), config.connect.clone());
        handles.push(std::thread::spawn(move || -> io::Result<()> {
            let mut client = QueryClient::connect_with(&*addr, &connect)?;
            for chunk in queries.chunks(batch) {
                let sent = Instant::now();
                let replies = if batch == 1 {
                    vec![client.request(&chunk[0])?]
                } else {
                    client.batch(chunk)?
                };
                latency.record(sent.elapsed().as_micros() as u64);
                for reply in replies {
                    match reply {
                        QueryResponse::Spread { .. } => ok.fetch_add(1, Ordering::Relaxed),
                        _ => errors.fetch_add(1, Ordering::Relaxed),
                    };
                }
            }
            Ok(())
        }));
    }
    for handle in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            // A client that died mid-stream (e.g. shed) contributes its
            // unanswered queries as errors rather than aborting the run.
            Ok(Err(_)) => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    let elapsed = start.elapsed();
    let queries = ok.load(Ordering::Relaxed);
    Ok(PhaseResult {
        batch,
        queries,
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        throughput_qps: queries as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: latency.quantile(0.50),
        p95_us: latency.quantile(0.95),
        p99_us: latency.quantile(0.99),
        max_us: latency.max(),
    })
}

/// One `REQ_STATS` roundtrip (also how loadgen discovers `num_nodes`).
pub fn fetch_stats(addr: &str, connect: &ConnectOptions) -> io::Result<SketchStats> {
    QueryClient::connect_with(addr, connect)?.stats()
}

/// The credential convention `dim-loadgen --tenants N` assumes: tenant
/// ids `tenant-0 … tenant-{N-1}`, each with token `tenant-<i>-token`.
/// A server under multi-tenant bench must be started from a
/// `TENANTS.json` using the same ids/tokens.
pub fn default_tenant_credentials(n: usize) -> Vec<Credentials> {
    (0..n)
        .map(|i| Credentials::new(format!("tenant-{i}"), format!("tenant-{i}-token")))
        .collect()
}

/// One tenant's share of the multi-tenant phase.
#[derive(Clone, Debug)]
pub struct TenantThroughput {
    /// Tenant id the clients authenticated as.
    pub id: String,
    /// Spread queries this tenant's clients got answered.
    pub queries: u64,
    /// `queries / elapsed` of the whole phase.
    pub throughput_qps: f64,
}

/// Outcome of the multi-tenant phase: the same *total* concurrency as
/// the single-tenant phases, split round-robin across authenticated
/// tenant namespaces — so `throughput_qps` here is directly comparable
/// to the unbatched single-tenant baseline.
#[derive(Clone, Debug)]
pub struct MultiTenantResult {
    /// Tenants the clients were split across.
    pub tenants: usize,
    /// Spread queries answered across all tenants.
    pub queries: u64,
    /// Errored queries (wire or server-side, incl. quota shed).
    pub errors: u64,
    /// Wall-clock for the whole phase.
    pub elapsed: Duration,
    /// Aggregate `queries / elapsed`.
    pub throughput_qps: f64,
    /// Per-tenant rows, credential order.
    pub per_tenant: Vec<TenantThroughput>,
}

impl MultiTenantResult {
    /// JSON object fragment for the `multi_tenant` report key.
    pub fn to_json(&self) -> String {
        let per_tenant: Vec<String> = self
            .per_tenant
            .iter()
            .map(|t| {
                format!(
                    "{{\"id\":\"{}\",\"queries\":{},\"throughput_qps\":{:.1}}}",
                    t.id, t.queries, t.throughput_qps
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"tenants\":{},\"queries\":{},\"errors\":{},",
                "\"elapsed_s\":{:.6},\"throughput_qps\":{:.1},",
                "\"per_tenant\":[{}]}}"
            ),
            self.tenants,
            self.queries,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.throughput_qps,
            per_tenant.join(","),
        )
    }
}

/// Runs the multi-tenant phase: `config.concurrency` clients total,
/// client `i` authenticating as `tenants[i % tenants.len()]`, each
/// issuing its deterministic query stream as plain request/response
/// frames (the unbatched shape, so the aggregate compares 1:1 with the
/// single-tenant baseline).
pub fn run_multi_tenant(
    config: &LoadgenConfig,
    tenants: &[Credentials],
) -> io::Result<MultiTenantResult> {
    assert!(!tenants.is_empty(), "multi-tenant phase needs tenants");
    let ok: Arc<Vec<AtomicU64>> =
        Arc::new((0..tenants.len()).map(|_| AtomicU64::new(0)).collect());
    let errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.concurrency);
    for client_idx in 0..config.concurrency {
        let slot = client_idx % tenants.len();
        let queries = client_queries(config, client_idx);
        let (ok, errors) = (ok.clone(), errors.clone());
        let addr = config.addr.clone();
        let mut connect = config.connect.clone();
        connect.credentials = Some(tenants[slot].clone());
        handles.push(std::thread::spawn(move || -> io::Result<()> {
            let mut client = QueryClient::connect_with(&*addr, &connect)?;
            for query in &queries {
                match client.request(query)? {
                    QueryResponse::Spread { .. } => ok[slot].fetch_add(1, Ordering::Relaxed),
                    _ => errors.fetch_add(1, Ordering::Relaxed),
                };
            }
            Ok(())
        }));
    }
    for handle in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(_)) => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    let elapsed = start.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let per_tenant: Vec<TenantThroughput> = tenants
        .iter()
        .enumerate()
        .map(|(i, creds)| {
            let queries = ok[i].load(Ordering::Relaxed);
            TenantThroughput {
                id: creds.tenant.clone(),
                queries,
                throughput_qps: queries as f64 / secs,
            }
        })
        .collect();
    let queries: u64 = per_tenant.iter().map(|t| t.queries).sum();
    Ok(MultiTenantResult {
        tenants: tenants.len(),
        queries,
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        throughput_qps: queries as f64 / secs,
        per_tenant,
    })
}

/// The complete serve-tier benchmark record dumped to `BENCH_serve.json`.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    pub concurrency: usize,
    pub unbatched: PhaseResult,
    pub batched: PhaseResult,
    /// The multi-tenant phase, when `--tenants N` asked for one. Absent
    /// from older baselines — consumers must treat the key as optional.
    pub multi_tenant: Option<MultiTenantResult>,
    /// Server-side view after both phases.
    pub server: SketchStats,
    /// How the numbers were produced (e.g. `cargo-release`) — keeps
    /// trajectories comparable.
    pub provenance: String,
}

impl ServeBenchReport {
    /// Did pipelining pay for itself? The acceptance bar for the CI run.
    pub fn batching_wins(&self) -> bool {
        self.batched.throughput_qps >= self.unbatched.throughput_qps
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"bench\":\"serve\",\"provenance\":\"{}\",",
                "\"concurrency\":{},\"batching_wins\":{},",
                "\"unbatched\":{},\"batched\":{},",
                "\"server\":{{\"num_nodes\":{},\"theta\":{},\"shard_count\":{},",
                "\"queries_answered\":{},\"generation\":{},\"shed\":{},",
                "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}"
            ),
            self.provenance,
            self.concurrency,
            self.batching_wins(),
            self.unbatched.to_json(),
            self.batched.to_json(),
            self.server.num_nodes,
            self.server.theta,
            self.server.shard_count,
            self.server.queries_answered,
            self.server.generation,
            self.server.shed,
            self.server.p50_us,
            self.server.p95_us,
            self.server.p99_us,
        );
        if let Some(m) = &self.multi_tenant {
            out.push_str(",\"multi_tenant\":");
            out.push_str(&m.to_json());
        }
        out.push('}');
        out
    }
}

/// Runs the full two-phase benchmark against `config.addr`.
pub fn run(config: &LoadgenConfig, provenance: &str) -> io::Result<ServeBenchReport> {
    let unbatched = run_phase(config, 1)?;
    let batched = run_phase(config, config.batch.max(2))?;
    let server = fetch_stats(&config.addr, &config.connect)?;
    Ok(ServeBenchReport {
        concurrency: config.concurrency,
        unbatched,
        batched,
        multi_tenant: None,
        server,
        provenance: provenance.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_coverage::CoverageShard;
    use dim_serve::{ServeOptions, Server, Sketch};

    fn test_sketch() -> Sketch {
        let shards = vec![
            CoverageShard::from_records(5, [&[0u32][..], &[1, 2], &[0, 2]]),
            CoverageShard::from_records(5, [&[1u32, 4][..], &[0], &[1, 3]]),
        ];
        Sketch::new(5, 6, 10, shards)
    }

    fn test_server() -> Server {
        Server::start_with(
            "127.0.0.1:0",
            test_sketch(),
            ServeOptions {
                workers: 4,
                ..ServeOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn two_phase_run_answers_every_query_and_serializes() {
        let server = test_server();
        let config = LoadgenConfig {
            addr: server.local_addr().to_string(),
            concurrency: 3,
            requests_per_client: 20,
            batch: 8,
            seeds_per_query: 2,
            num_nodes: 5,
            ..LoadgenConfig::default()
        };
        let report = run(&config, "unit-test").unwrap();
        assert_eq!(report.unbatched.queries, 60);
        assert_eq!(report.unbatched.errors, 0);
        assert_eq!(report.batched.queries, 60);
        assert_eq!(report.batched.errors, 0);
        assert_eq!(report.batched.batch, 8);
        assert!(report.unbatched.throughput_qps > 0.0);
        // Server saw both phases plus the closing stats query's own count.
        assert_eq!(report.server.queries_answered, 121);
        let json = report.to_json();
        for key in [
            "\"bench\":\"serve\"",
            "\"provenance\":\"unit-test\"",
            "\"concurrency\":3",
            "\"unbatched\":{\"batch\":1",
            "\"batched\":{\"batch\":8",
            "\"queries_answered\":121",
            "\"batching_wins\":",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
        server.shutdown();
    }

    #[test]
    fn multi_tenant_phase_splits_clients_and_serializes() {
        use dim_serve::{TenantBind, TenantQuota, TenantSpec};
        let creds = default_tenant_credentials(2);
        let binds = creds
            .iter()
            .map(|c| TenantBind {
                spec: TenantSpec {
                    id: c.tenant.clone(),
                    auth: c.digest(),
                    store: None,
                    graph: None,
                    quota: TenantQuota::default(),
                },
                sketch: test_sketch(),
                generation: 1,
                reload: None,
            })
            .collect();
        let server = Server::start_multi(
            "127.0.0.1:0",
            binds,
            ServeOptions {
                workers: 4,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut config = LoadgenConfig {
            addr: server.local_addr().to_string(),
            concurrency: 4,
            requests_per_client: 20,
            batch: 8,
            seeds_per_query: 2,
            num_nodes: 5,
            ..LoadgenConfig::default()
        };
        // The single-tenant baseline runs authenticated as tenant-0.
        config.connect.credentials = Some(creds[0].clone());
        let mut report = run(&config, "unit-test").unwrap();
        assert_eq!(report.unbatched.errors + report.batched.errors, 0);
        // The report is old-shape JSON until the multi-tenant phase runs.
        assert!(!report.to_json().contains("multi_tenant"));
        let m = run_multi_tenant(&config, &creds).unwrap();
        assert_eq!(m.tenants, 2);
        assert_eq!(m.queries, 80);
        assert_eq!(m.errors, 0);
        assert_eq!(m.per_tenant.len(), 2);
        // 4 clients round-robin over 2 tenants: an even split.
        for t in &m.per_tenant {
            assert_eq!(t.queries, 40);
            assert!(t.throughput_qps > 0.0);
        }
        assert_eq!(m.per_tenant[0].id, "tenant-0");
        report.multi_tenant = Some(m);
        let json = report.to_json();
        for key in [
            "\"multi_tenant\":{\"tenants\":2",
            "\"queries\":80",
            "\"per_tenant\":[{\"id\":\"tenant-0\"",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
        assert!(json.ends_with("]}}"), "multi_tenant must close the report: {json}");
        server.shutdown();
    }

    #[test]
    fn workload_is_deterministic_and_in_range() {
        let config = LoadgenConfig {
            requests_per_client: 50,
            seeds_per_query: 3,
            num_nodes: 7,
            ..LoadgenConfig::default()
        };
        let a = client_queries(&config, 1);
        let b = client_queries(&config, 1);
        assert_eq!(a, b);
        assert_ne!(a, client_queries(&config, 2));
        for query in &a {
            let QueryRequest::Spread { seeds } = query else {
                panic!("loadgen only issues spread queries");
            };
            assert_eq!(seeds.len(), 3);
            assert!(seeds.iter().all(|&s| s < 7));
        }
    }
}
