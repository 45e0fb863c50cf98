//! Runs that span several processes: the full benchmark (every workload,
//! several untraced runs and one traced run each, one process per run so
//! `peak_rss_mb` is per workload) and the smoke check.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use crate::{sys, Cli};

/// What `BENCHMARK.json` declares, as the harness needs it.
pub struct Declared {
    pub run_seconds: f64,
    /// `(name, unit, lower_is_better, bound)` per end-to-end metric.
    pub end_to_end: Vec<(String, String, bool, f64)>,
    pub per_layer: Vec<(String, String)>,
    pub workloads: Vec<String>,
}

impl Declared {
    /// `(name, unit)` of every end-to-end metric.
    fn end_to_end_table(&self) -> Vec<(String, String)> {
        self.end_to_end
            .iter()
            .map(|(n, u, _, _)| (n.clone(), u.clone()))
            .collect()
    }
}

/// The driver's form of one measured run.
fn run_args(workload: &str, seed: u64, seconds: f64, trace: u8) -> Vec<String> {
    [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        &trace.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

/// Reads `BENCHMARK.json` from the current directory (run.sh puts the
/// process at the repository root).
pub fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (looked in the current directory): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(json::list)
            .ok_or(format!("BENCHMARK.json: no {key} list"))
    };
    let text_of = |item: &Json, key: &str| -> Result<String, String> {
        item.str_of(key)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: entry without {key}"))
    };
    let mut end_to_end = Vec::new();
    for item in list("end_to_end")? {
        let better = text_of(item, "better")?;
        let bound = item
            .get("bound")
            .and_then(json::num)
            .ok_or("BENCHMARK.json: no bound")?;
        end_to_end.push((
            text_of(item, "name")?,
            text_of(item, "unit")?,
            better == "lower",
            bound,
        ));
    }
    let mut per_layer = Vec::new();
    for item in list("per_layer")? {
        per_layer.push((text_of(item, "name")?, text_of(item, "unit")?));
    }
    let mut workloads = Vec::new();
    for item in list("workloads")? {
        workloads.push(text_of(item, "name")?);
    }
    Ok(Declared {
        run_seconds: doc.get("run_seconds").and_then(json::num).unwrap_or(10.0),
        end_to_end,
        per_layer,
        workloads,
    })
}

/// The names and units the harness reports must be exactly the declared
/// ones, in both directions.
fn check_declaration(declared: &Declared) -> Result<(), String> {
    let mut problems = Vec::new();
    let mut compare = |what: &str, ours: Vec<(String, String)>, theirs: Vec<(String, String)>| {
        for entry in &ours {
            if !theirs.contains(entry) {
                problems.push(format!(
                    "{what} {} [{}] is reported but not declared",
                    entry.0, entry.1
                ));
            }
        }
        for entry in &theirs {
            if !ours.contains(entry) {
                problems.push(format!(
                    "{what} {} [{}] is declared but not reported",
                    entry.0, entry.1
                ));
            }
        }
    };
    let own = |table: &[(&str, &str)]| {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    compare(
        "end-to-end metric",
        own(&END_TO_END),
        declared.end_to_end_table(),
    );
    compare(
        "per-layer metric",
        own(&PER_LAYER),
        declared.per_layer.clone(),
    );
    compare(
        "workload",
        WORKLOADS
            .iter()
            .map(|w| (w.to_string(), String::new()))
            .collect(),
        declared
            .workloads
            .iter()
            .map(|w| (w.clone(), String::new()))
            .collect(),
    );
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json and the harness disagree:\n  {}",
            problems.join("\n  ")
        ))
    }
}

/// One child run: its parsed result line and everything else it printed.
pub struct ChildRun {
    pub result: Json,
    notes: Vec<String>,
    wall_s: f64,
}

pub fn run_child(extra: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("run {extra:?} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let notes = stdout
        .lines()
        .filter(|l| l.starts_with("#   "))
        .map(str::to_string)
        .collect();
    Ok(ChildRun {
        result,
        notes,
        wall_s,
    })
}

/// Checks one result line against the contract: exactly the four keys,
/// exactly the declared metrics with their units, finite values.
fn check_result(result: &Json, table: &[(String, String)]) -> Result<(), String> {
    let keys: Vec<&str> = json::fields(result)
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let metrics = result
        .get("metrics")
        .and_then(json::fields)
        .ok_or("metrics is not an object")?;
    for (name, unit) in table {
        let entry = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(format!("metric {name} is missing"))?;
        if entry.str_of("unit") != Some(unit) {
            return Err(format!("metric {name} has the wrong unit"));
        }
        if entry.get("value").and_then(json::num).is_none() {
            return Err(format!("metric {name} has no finite value"));
        }
    }
    if let Some((extra, _)) = metrics
        .iter()
        .find(|(k, _)| !table.iter().any(|(n, _)| n == k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(())
}

pub fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(json::num)
        .unwrap_or(f64::NAN)
}

fn tally(result: &Json) -> (bool, f64, f64) {
    (
        matches!(result.get("correct"), Some(Json::Bool(true))),
        result.get("attempted").and_then(json::num).unwrap_or(0.0),
        result.get("failed").and_then(json::num).unwrap_or(0.0),
    )
}

fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("results")))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// `run.sh [--seed N] [--out DIR] [--runs R] [--seconds S] [workload ...]`
pub fn full(cli: &Cli) -> Result<ExitCode, String> {
    let declared = declared()?;
    check_declaration(&declared)?;
    let seed: u64 = cli.num("--seed", 1)?;
    let runs: usize = cli.num("--runs", 3)?;
    let seconds: f64 = cli.num("--seconds", declared.run_seconds)?;
    let out_dir = cli.get("--out").map_or_else(default_out_dir, PathBuf::from);
    let workloads: Vec<&str> = if cli.positional.is_empty() {
        WORKLOADS.to_vec()
    } else {
        cli.positional.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = workloads.iter().find(|w| !WORKLOADS.contains(w)) {
        return Err(format!(
            "unknown workload {unknown:?}; expected some of {WORKLOADS:?}"
        ));
    }
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let provenance = sys::provenance(seed, seconds);
    println!("provenance {}", json::render(&provenance));
    println!(
        "closed loop everywhere, at most 2 callers; {runs} untraced run(s) of {seconds} s + 1 traced run per workload"
    );
    let mut lines = vec![json::render(&json::obj(vec![("provenance", provenance)]))];
    let mut all_correct = true;
    let e2e_table = declared.end_to_end_table();

    for workload in &workloads {
        println!("\n== {workload}: end to end (tracing off)");
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); e2e_table.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for i in 0..runs {
            let run_seed = seed + i as u64;
            let child = run_child(&run_args(workload, run_seed, seconds, 0))?;
            check_result(&child.result, &e2e_table)?;
            let (correct, a, f) = tally(&child.result);
            all_correct &= correct;
            attempted += a;
            failed += f;
            println!(
                "  run {} seed {run_seed} ({:.1} s wall){}",
                i + 1,
                child.wall_s,
                if correct { "" } else { "  INCORRECT" }
            );
            for note in &child.notes {
                println!("  {note}");
            }
            for (slot, (name, _)) in per_metric.iter_mut().zip(&e2e_table) {
                slot.push(metric(&child.result, name));
            }
            lines.push(json::render(&record(workload, run_seed, 0, child.result)));
        }
        println!(
            "  {:<14} {:>14} {:>14} {:>14}  unit   runs",
            "metric", "q1", "median", "q3"
        );
        for (values, (name, unit)) in per_metric.iter().zip(&e2e_table) {
            let (q1, med, q3) = quartiles(values);
            println!(
                "  {name:<14} {q1:>14.4} {med:>14.4} {q3:>14.4}  {unit:<6} {}",
                values.len()
            );
        }
        println!(
            "  {:<14} {:>44.6}  ratio  ({failed} failed of {attempted} attempted)",
            "error_rate",
            failed / attempted.max(1.0)
        );

        println!("== {workload}: per layer (tracing on)");
        let trace_path = out_dir.join(format!("trace-{workload}.json"));
        let mut args = run_args(workload, seed, seconds, 1);
        args.extend(["--trace-out".to_string(), trace_path.display().to_string()]);
        let child = run_child(&args)?;
        check_result(&child.result, &declared.per_layer)?;
        all_correct &= tally(&child.result).0;
        for note in &child.notes {
            println!("  {note}");
        }
        for (name, unit) in &declared.per_layer {
            let value = metric(&child.result, name);
            if value != 0.0 {
                println!("  {name:<32} {value:>18.6} {unit}");
            }
        }
        println!(
            "  (metrics not listed read 0 on this workload; spans: {})",
            trace_path.display()
        );
        lines.push(json::render(&record(workload, seed, 1, child.result)));
    }

    let results = out_dir.join("results.jsonl");
    std::fs::write(&results, lines.join("\n") + "\n")
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!("\nresults: {}", results.display());
    if all_correct {
        println!("every output check passed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("at least one run was INCORRECT");
        Ok(ExitCode::FAILURE)
    }
}

fn record(workload: &str, seed: u64, trace: u8, result: Json) -> Json {
    json::obj(vec![
        ("workload", json::text(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(trace as f64)),
        ("result", result),
    ])
}

/// `run.sh --smoke`: every workload at tiny sizes, traced and untraced.
/// Judges names, units, output checks and the trace file; never a timing.
pub fn smoke() -> Result<ExitCode, String> {
    let start = Instant::now();
    let declared = declared()?;
    check_declaration(&declared)?;
    let scratch = sys::Scratch::new("smoke").map_err(|e| e.to_string())?;
    let e2e_table = declared.end_to_end_table();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let trace_path = scratch.path().join(format!("trace-{workload}.json"));
            let mut args = run_args(workload, 7, 0.5, u8::from(trace == "1"));
            args.push("--smoke".to_string());
            if trace == "1" {
                args.extend(["--trace-out".to_string(), trace_path.display().to_string()]);
            }
            let child = run_child(&args)?;
            let table = if trace == "1" {
                &declared.per_layer
            } else {
                &e2e_table
            };
            check_result(&child.result, table)
                .map_err(|e| format!("{workload} trace {trace}: {e}"))?;
            let (correct, attempted, failed) = tally(&child.result);
            if !correct || failed != 0.0 || attempted < 1.0 {
                for note in &child.notes {
                    eprintln!("{note}");
                }
                return Err(format!("{workload} trace {trace}: output checks failed"));
            }
            if trace == "1" {
                check_trace_file(&trace_path, workload)?;
            }
            println!("smoke ok: {workload} trace {trace} ({:.1} s)", child.wall_s);
        }
    }
    println!(
        "smoke ok: names, units, output checks and trace files ({:.1} s)",
        start.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

fn check_trace_file(path: &Path, workload: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spans = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let spans = json::list(&spans).ok_or("trace file is not a list")?;
    if spans.is_empty() {
        return Err(format!("{workload}: the traced run recorded no span"));
    }
    for span in spans {
        for key in [
            "name", "layer", "workload", "rep", "start_ns", "end_ns", "parent",
        ] {
            if span.get(key).is_none() {
                return Err(format!("{workload}: a span lacks {key}"));
            }
        }
    }
    Ok(())
}
