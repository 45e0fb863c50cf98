//! `run.sh compare A B`: two result directories (or `results.jsonl` files),
//! one row per workload and end-to-end metric, one verdict per row.
//!
//! A is the base. A row is `unresolved` when either side's run-to-run
//! spread (interquartile range over its median) exceeds the metric's bound:
//! then a difference within the bound cannot be told from noise. Otherwise
//! it is `worse` when B's median is worse than A's by more than the bound,
//! `better` when it is better by more than A's own spread, else `same`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::orchestrate::declared;
use crate::stats::quartiles;

struct ResultSet {
    provenance: Json,
    /// `(workload, result)` of every untraced run.
    runs: Vec<(String, Json)>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let path = Path::new(path);
    let file = if path.is_dir() {
        path.join("results.jsonl")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut provenance = None;
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
        if let Some(p) = doc.get("provenance") {
            provenance = Some(p.clone());
        } else if doc.get("trace").and_then(json::num) == Some(0.0) {
            let workload = doc.str_of("workload").ok_or("run without workload")?;
            let result = doc.get("result").ok_or("run without result")?;
            runs.push((workload.to_string(), result.clone()));
        }
    }
    Ok(ResultSet {
        provenance: provenance.ok_or(format!("{}: no provenance line", file.display()))?,
        runs,
    })
}

impl ResultSet {
    fn field(&self, key: &str) -> String {
        self.provenance
            .get(key)
            .map(json::render)
            .unwrap_or_default()
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|(w, _)| w == workload)
            .filter_map(|(_, r)| json::num(r.get("metrics")?.get(metric)?.get("value")?))
            .collect()
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: run.sh compare A B   (two result directories, A is the base)".into());
    };
    let (a, b) = (load(a)?, load(b)?);
    for key in ["build", "opt_level"] {
        if a.field(key) != b.field(key) {
            return Err(format!(
                "refusing to compare: {key} differs ({} vs {}); an unoptimised or differently \
                 built binary is not a code change",
                a.field(key),
                b.field(key)
            ));
        }
    }
    for key in ["rustc", "nproc", "seconds"] {
        if a.field(key) != b.field(key) {
            println!("note: {key} differs ({} vs {})", a.field(key), b.field(key));
        }
    }
    let declared = declared()?;
    println!(
        "{:<13} {:<13} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "B vs A",
        "bound"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    for workload in &declared.workloads {
        for (metric, unit, lower_is_better, bound) in &declared.end_to_end {
            let (va, vb) = (a.values(workload, metric), b.values(workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a1, am, a3) = quartiles(&va);
            let (b1, bm, b3) = quartiles(&vb);
            // Positive = B is worse, as a share of the base median.
            let change = (bm - am) / am;
            let worsening = if *lower_is_better { change } else { -change };
            let spread_a = (a3 - a1) / am.abs();
            let spread_b = (b3 - b1) / bm.abs();
            let verdict = if spread_a.max(spread_b) > *bound {
                unresolved += 1;
                "unresolved"
            } else if worsening > *bound {
                worse += 1;
                "worse"
            } else if -worsening > spread_a && worsening < 0.0 {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<13} {metric:<13} {a1:>12.4} {am:>12.4} {a3:>12.4} {b1:>12.4} {bm:>12.4} {b3:>12.4} {:>+8.2}% {:>5.0}%  {verdict} [{unit}, n={}/{}]",
                change * 100.0,
                bound * 100.0,
                va.len(),
                vb.len()
            );
        }
    }
    println!(
        "B vs A is the change of the median with A's median as the base; {worse} worse, {unresolved} unresolved"
    );
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
