//! The repository's end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one measured run (the driver's form)
//! run.sh [--seed N] [--out DIR] [--runs R] [W ...]       every workload: R untraced runs + 1 traced
//! run.sh --smoke                                         tiny sizes; checks calls, checks and names
//! run.sh compare A B                                     two result directories, one verdict per row
//! ```

mod compare;
mod inputs;
mod json;
mod metrics;
mod orchestrate;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use workloads::RunArgs;

/// Parsed command line: `--key value` pairs, bare flags and positionals.
pub struct Cli {
    pub options: Vec<(String, String)>,
    pub flags: Vec<String>,
    pub positional: Vec<String>,
}

impl Cli {
    fn parse(args: Vec<String>) -> Result<Cli, String> {
        const VALUED: [&str; 7] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-out",
            "--out",
            "--runs",
        ];
        const BARE: [&str; 2] = ["--smoke", "--setup-only"];
        let mut cli = Cli {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if VALUED.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                cli.options.push((arg, value));
            } else if BARE.contains(&arg.as_str()) {
                cli.flags.push(arg);
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}"));
            } else {
                cli.positional.push(arg);
            }
        }
        Ok(cli)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Set-ups an untraced run measures: its own and two in fresh processes.
const SETUPS: usize = 3;

/// One measured run of one workload, in this process.
fn single(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let smoke = cli.flag("--smoke");
    let args = RunArgs {
        seed: cli.num("--seed", 1u64)?,
        seconds: cli.num("--seconds", if smoke { 0.5 } else { 10.0 })?,
        trace: match cli.get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke,
        setup_only: cli.flag("--setup-only"),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of (0, 600]", args.seconds));
    }
    // The other set-ups run first, one at a time, each in its own process.
    let mut setups = Vec::new();
    if !(args.trace || args.smoke || args.setup_only) {
        for _ in 1..SETUPS {
            let child = orchestrate::run_child(&[
                "--workload".into(),
                workload.to_string(),
                "--seed".into(),
                args.seed.to_string(),
                "--setup-only".into(),
            ])?;
            setups.push((
                orchestrate::metric(&child.result, "setup_s"),
                orchestrate::metric(&child.result, "cold_start_s"),
            ));
        }
    }
    let mut tracer = trace::Tracer::new(args.trace);
    let mut outcome = workloads::run(workload, &args, &mut tracer)?;
    if !setups.is_empty() {
        setups.push((outcome.get("setup_s"), outcome.get("cold_start_s")));
        let (setup_s, cold_s): (Vec<f64>, Vec<f64>) = setups.iter().copied().unzip();
        outcome.set("setup_s", stats::median(&setup_s));
        outcome.set("cold_start_s", stats::median(&cold_s));
        outcome.note(format!(
            "setup_s and cold_start_s: medians over {SETUPS} set-ups, each in its own process: {setups:.3?}"
        ));
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    println!(
        "# {workload} seed={} seconds={} trace={} build={} nproc={} loop=closed",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::build_info().route,
        sys::nproc()
    );
    for line in &outcome.notes {
        println!("#   {line}");
    }
    for (name, unit) in table {
        println!("{name:<32} {:>18.6} {unit}", outcome.get(name));
    }
    if let Some(path) = cli.get("--trace-out") {
        std::fs::write(path, json::render(&tracer.to_json(workload)))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", json::render(&outcome.result_line(table)));
    Ok(ExitCode::SUCCESS)
}

fn dispatch() -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err(
            "this binary was built without optimisation; build it with benchmark/build.sh \
                    (numbers from an unoptimised build are 6-10x off and must not be recorded)"
                .into(),
        );
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        args.remove(0);
        return compare::main(&args);
    }
    let cli = Cli::parse(args)?;
    match cli.get("--workload") {
        Some(workload) => single(&cli, workload),
        None if cli.flag("--smoke") => orchestrate::smoke(),
        None => orchestrate::full(&cli),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dim-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
