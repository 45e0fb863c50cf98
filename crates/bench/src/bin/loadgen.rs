//! `dim-loadgen` — closed-loop load generator for a running `dim serve`
//! (each client connection sends its next query when the previous reply
//! has arrived; no arrival rate is imposed).
//!
//! ```text
//! dim-loadgen --addr 127.0.0.1:7117 [--concurrency 8] [--requests 200]
//!             [--batch 32] [--seeds-per-query 4] [--seed 42]
//!             [--timeout 10] [--out BENCH_serve.json]
//!             [--provenance LABEL] [--tenants N]
//! ```
//!
//! Drives the same deterministic spread-query stream twice at equal
//! concurrency — plain request/response, then pipelined `REQ_BATCH` —
//! prints a comparison table, and writes the joint client/server record
//! to `--out` (the `BENCH_serve.json` artifact CI uploads). Exits
//! non-zero if any query errored; the batched-vs-unbatched comparison is
//! recorded, not enforced, so a noisy runner cannot flake the build.
//!
//! `--tenants N` targets a multi-tenant server (`dim serve --tenants`)
//! whose registry uses the bench credential convention (`tenant-0` …
//! `tenant-{N-1}` with tokens `tenant-<i>-token`): the baseline phases
//! run authenticated as `tenant-0`, then a third phase splits the same
//! total concurrency round-robin across all N tenants and appends the
//! per-tenant throughput as the report's `multi_tenant` key (absent from
//! older baselines, so consumers must treat it as optional).

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use dim_bench::serve_bench::{
    default_tenant_credentials, run, run_multi_tenant, LoadgenConfig, PhaseResult,
};
use dim_serve::ConnectOptions;

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad --{name} value {s:?}")),
    }
}

fn phase_row(name: &str, p: &PhaseResult) {
    println!(
        "{name:>10} {:>6} {:>8} {:>12.1} {:>9} {:>9} {:>9} {:>9}",
        p.batch, p.queries, p.throughput_qps, p.p50_us, p.p95_us, p.p99_us, p.max_us
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_loadgen(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_loadgen(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7117".to_string());
    let tenants = num(&flags, "tenants", 0usize)?;
    let credentials = default_tenant_credentials(tenants);
    let connect = ConnectOptions {
        deadline: Duration::from_secs(num(&flags, "timeout", 10u64)?),
        // Against a multi-tenant server the baseline runs as tenant-0.
        credentials: credentials.first().cloned(),
        ..ConnectOptions::default()
    };
    // Discover the node-id space from the server itself.
    let stats = dim_bench::serve_bench::fetch_stats(&addr, &connect)
        .map_err(|e| format!("cannot reach server at {addr}: {e}"))?;
    let config = LoadgenConfig {
        addr,
        concurrency: num(&flags, "concurrency", 8usize)?,
        requests_per_client: num(&flags, "requests", 200usize)?,
        batch: num(&flags, "batch", 32usize)?,
        seeds_per_query: num(&flags, "seeds-per-query", 4usize)?,
        num_nodes: stats.num_nodes.min(u32::MAX as u64) as u32,
        seed: num(&flags, "seed", 42u64)?,
        connect,
    };
    println!(
        "dim-loadgen: {} clients x {} queries against {} \
         ({} RR sets, n = {}, generation {})",
        config.concurrency,
        config.requests_per_client,
        config.addr,
        stats.theta,
        stats.num_nodes,
        stats.generation
    );
    let mut report = run(&config, flags.get("provenance").map_or("local", |s| s))
        .map_err(|e| format!("load generation failed: {e}"))?;
    if !credentials.is_empty() {
        let m = run_multi_tenant(&config, &credentials)
            .map_err(|e| format!("multi-tenant phase failed: {e}"))?;
        println!(
            "multi-tenant: {} tenants x {:.1} qps each = {:.1} qps aggregate \
             ({} queries, {} errors)",
            m.tenants,
            m.per_tenant
                .iter()
                .map(|t| t.throughput_qps)
                .fold(f64::INFINITY, f64::min),
            m.throughput_qps,
            m.queries,
            m.errors
        );
        report.multi_tenant = Some(m);
    }
    println!(
        "{:>10} {:>6} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "phase", "batch", "queries", "qps", "p50_us", "p95_us", "p99_us", "max_us"
    );
    phase_row("unbatched", &report.unbatched);
    phase_row("batched", &report.batched);
    println!(
        "batching: {} ({:.2}x throughput at concurrency {})",
        if report.batching_wins() {
            "wins"
        } else {
            "LOSES"
        },
        report.batched.throughput_qps / report.unbatched.throughput_qps.max(1e-9),
        report.concurrency
    );
    let out = flags.get("out").map_or("BENCH_serve.json", |s| s);
    std::fs::write(out, format!("{}\n", report.to_json()))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    let errors = report.unbatched.errors
        + report.batched.errors
        + report.multi_tenant.as_ref().map_or(0, |m| m.errors);
    if errors > 0 {
        eprintln!("dim-loadgen: {errors} queries errored");
    }
    Ok(errors == 0)
}
