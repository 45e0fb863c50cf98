//! `dim-benchrec` — records the sample/select hot-path trajectory point
//! (`BENCH_sample_select.json`) in seconds on any machine. Tag the build
//! with `--provenance` (`cargo-release` for `cargo build --release`): rows
//! are only comparable within one provenance.
//!
//! ```text
//! dim-benchrec [--graph facebook] [--scale 1.0] [--theta 20000]
//!              [--shards 4] [--k 50] [--batch 64] [--edits 64]
//!              [--iters 3] [--out BENCH_sample_select.json]
//!              [--provenance LABEL] [--label NAME] [--append true]
//!              [--check FILE]
//! ```
//!
//! `--label` tags the recorded line (e.g. `before` / `after` around an
//! optimization). `--append true` appends to `--out` instead of
//! overwriting, building up the JSONL trajectory. `--check FILE` is the
//! CI regression guard: measure fresh, compare each timed phase against
//! the last entry of the committed FILE, and exit nonzero if any phase
//! regressed by more than 20% (plus a small absolute slack for
//! sub-millisecond phases); in check mode nothing is written unless
//! `--out` is given explicitly.

use std::collections::HashMap;
use std::process::ExitCode;

use dim_bench::sample_select::{
    batch_seed_sets, build_shards, select_top_k, spread_batch, time_best_of,
    time_fault_recover, time_stream_apply, SampleSelectReport, PHASE_KEYS,
};
use dim_cluster::json::Json;
use dim_graph::DatasetProfile;

/// Relative regression budget for `--check`.
const CHECK_TOLERANCE: f64 = 0.20;
/// Absolute slack in ms, so scheduler jitter on sub-millisecond phases
/// (spread_batch runs in ~0.1 ms) cannot trip the relative gate.
const CHECK_SLACK_MS: f64 = 0.5;

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match record(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn record(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let name = flags.get("graph").map_or("facebook", |s| s.as_str());
    let profile = DatasetProfile::parse(name).ok_or_else(|| format!("unknown profile {name:?}"))?;
    let scale: f64 = num(&flags, "scale", 1.0)?;
    let theta: usize = num(&flags, "theta", 20_000usize)?;
    let shards: usize = num(&flags, "shards", 4usize)?;
    let k: usize = num(&flags, "k", 50usize)?;
    let batch: usize = num(&flags, "batch", 64usize)?;
    let edits: usize = num(&flags, "edits", 64usize)?;
    let iters: usize = num(&flags, "iters", 3usize)?.max(1);
    let graph = profile.generate(scale, 42);

    let (sample_elapsed, sketch) = time_best_of(iters, || build_shards(&graph, theta, shards, 7));
    let (select_elapsed, seeds) = time_best_of(iters, || select_top_k(&sketch, k));
    let seed_sets = batch_seed_sets(graph.num_nodes(), batch, 4);
    let (batch_elapsed, coverage) = time_best_of(iters, || spread_batch(&sketch, &seed_sets));
    let (stream_elapsed, stream) = time_stream_apply(&graph, theta, edits, iters, 7);
    let (recover_elapsed, recover) = time_fault_recover(&graph, theta, 4, iters, 7);

    let report = SampleSelectReport {
        label: flags.get("label").map_or("current", |s| s).to_string(),
        provenance: flags.get("provenance").map_or("local", |s| s).to_string(),
        graph: format!("{name}:{scale}"),
        num_nodes: graph.num_nodes(),
        theta,
        shards,
        k,
        batch,
        sample_build_ms: sample_elapsed.as_secs_f64() * 1e3,
        select_top_k_ms: select_elapsed.as_secs_f64() * 1e3,
        spread_batch_ms: batch_elapsed.as_secs_f64() * 1e3,
        stream_apply_ms: stream_elapsed.as_secs_f64() * 1e3,
        stream_edits: stream.edits,
        stream_resampled: stream.sets_resampled,
        fault_recover_ms: recover_elapsed.as_secs_f64() * 1e3,
        recover_rebuilt: recover.rebuilt_sets,
    };
    println!(
        "dim-benchrec: {name}:{scale} (n = {}), θ = {theta} in {shards} shard(s), \
         best of {iters}",
        graph.num_nodes()
    );
    println!("  sample+build: {:>10.3} ms", report.sample_build_ms);
    println!(
        "  select top{k}: {:>10.3} ms (first seed {:?})",
        report.select_top_k_ms,
        seeds.first()
    );
    println!(
        "  spread x{batch}: {:>10.3} ms (coverage checksum {coverage})",
        report.spread_batch_ms
    );
    let edits_per_sec = report.stream_edits as f64 / (report.stream_apply_ms / 1e3).max(1e-9);
    println!(
        "  stream x{edits}: {:>10.3} ms ({edits_per_sec:.0} edits/s, {} sets resampled)",
        report.stream_apply_ms, report.stream_resampled
    );
    println!(
        "  fault recover: {:>9.3} ms ({} sets rebuilt after a single-machine loss)",
        report.fault_recover_ms, report.recover_rebuilt
    );
    let check_result = match flags.get("check") {
        Some(committed) => Some(check_regression(committed, &report)?),
        None => None,
    };

    // In check mode, only write when the caller names a destination —
    // the guard must never clobber the committed trajectory file.
    let out = match (flags.get("out"), check_result.is_some()) {
        (Some(o), _) => Some(o.as_str()),
        (None, true) => None,
        (None, false) => Some("BENCH_sample_select.json"),
    };
    if let Some(out) = out {
        let line = format!("{}\n", report.to_json());
        let append = flags.get("append").map(String::as_str) == Some("true");
        let payload = if append {
            let mut existing = std::fs::read_to_string(out).unwrap_or_default();
            existing.push_str(&line);
            existing
        } else {
            line
        };
        std::fs::write(out, payload).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    match check_result {
        Some(true) | None => Ok(()),
        Some(false) => Err("bench regression gate failed".into()),
    }
}

/// Compares the fresh measurement against the last recorded entry of
/// `committed`. Returns `Ok(false)` when any phase regressed beyond the
/// budget; errors only on unreadable/unparsable files.
fn check_regression(committed: &str, fresh: &SampleSelectReport) -> Result<bool, String> {
    let contents =
        std::fs::read_to_string(committed).map_err(|e| format!("cannot read {committed}: {e}"))?;
    let baseline = contents
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{committed} has no recorded entries"))?;
    let baseline = Json::parse(baseline).map_err(|e| format!("{committed}: last entry: {e}"))?;
    let label = baseline.str_of("label").unwrap_or("?");
    println!("checking against {committed} (entry {label:?}):");
    let mut ok = true;
    for key in PHASE_KEYS {
        // A committed entry may predate a phase (e.g. `stream_apply_ms`
        // landed after the trajectory started): skip it instead of
        // failing, so --check keeps working against older baselines.
        let Some(&Json::Num(was)) = baseline.get(key) else {
            println!("  {key}: not recorded in baseline entry, skipped");
            continue;
        };
        let now = fresh.phase_ms(key).expect("known phase key");
        let budget = was * (1.0 + CHECK_TOLERANCE) + CHECK_SLACK_MS;
        let verdict = if now <= budget { "ok" } else { "REGRESSED" };
        println!("  {key}: {now:.3} ms vs recorded {was:.3} ms (budget {budget:.3}) {verdict}");
        ok &= now <= budget;
    }
    Ok(ok)
}
