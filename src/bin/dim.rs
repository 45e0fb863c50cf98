//! `dim` — command-line influence maximization.
//!
//! ```text
//! dim stats    --graph <edges.txt|profile:NAME[:SCALE]> [--undirected]
//! dim im       --graph … --k 50 [--model ic|lt] [--epsilon 0.1] [--machines 8]
//!              [--algorithm imm|diimm|opim|subsim] [--backend B] [--evaluate]
//!              [--load-rr DIR]
//! dim sample   --graph … --k 50 --out DIR [--machines 8] [--backend B] [--keep N]
//! dim stream   --graph … --k 50 --store DIR --apply EDITS.jsonl [--batch-size N]
//!              [--keep N] [--compact] [--select] [--backend B]
//! dim serve    --graph … --store DIR [--addr 127.0.0.1:7117] [--max-queries N]
//!              [--workers N] [--max-conns N] [--tenants TENANTS.json]
//! dim query    --addr HOST:PORT (--stats | --reload | --seeds 1,2,3 |
//!              --k K [--include a,b] [--exclude c,d]) [--timeout SECS]
//!              [--tenant ID --token SECRET]
//! dim coverage --graph … --k 50 [--machines 8] [--backend B]
//! dim simulate --graph … --seeds 1,2,3 [--model ic|lt] [--sims 10000]
//! dim generate --profile NAME[:SCALE] --out edges.txt
//! dim chaos    --graph … --plan PLAN.json [--machines 2] [--backend B]
//!              [--min-survivors N] [--straggler-ms M]
//! ```
//!
//! A store is a root directory of committed generations. `sample` runs
//! DiIMM and commits every machine's RR shard as a new generation (a
//! `gen-N/` directory with its manifest) under `--out`, GC'ing generations
//! beyond `--keep`; `stream` repairs the newest one under streamed edge
//! edits, each batch committing a delta generation. `im --load-rr DIR`,
//! `stream` and `serve` all read the newest committed generation, delta
//! chain included: `im --load-rr` reruns seed selection on it
//! (byte-identical seeds, no sampling), and `serve` answers spread /
//! constrained-top-k queries over it until stopped (`--max-queries` bounds
//! the lifetime for scripted runs), hot-swapping to later generations on
//! SIGHUP or `query --reload` without dropping in-flight queries.
//!
//! `--backend` selects the cluster execution layer: `sequential` (default)
//! and `threads` run the simulated cluster in-process; `proc` spawns one
//! `dim-worker` process per machine over loopback TCP and `join` waits for
//! pre-started `dim-worker --join` processes, driving them through the
//! same phase-op protocol, so seeds and marginals are identical to the
//! simulator's. Every `im` algorithm but the single-thread `imm` baseline
//! runs on every backend; `imm` on `proc` or `join` exits 1 naming
//! `--backend`. `coverage` runs one path on every backend: ship each
//! machine its element shard (`BuildShard`), then NewGreeDi's op rounds.
//!
//! Graphs load from SNAP-style edge lists (`u v [p]`, `#` comments) or are
//! generated from the paper's dataset profiles (`profile:facebook`,
//! `profile:twitter:0.001`, …).

use std::collections::HashMap;
use std::process::ExitCode;

use dim::prelude::*;
use dim_cluster::json::Json;
use dim_cluster::{Backend, SimCluster};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return ExitCode::from(2);
    };
    let flags = match Flags::parse(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "stats" => cmd_stats(&flags),
        "im" => cmd_im(&flags),
        "sample" => cmd_sample(&flags),
        "stream" => cmd_stream(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags),
        "coverage" => cmd_coverage(&flags),
        "simulate" => cmd_simulate(&flags),
        "generate" => cmd_generate(&flags),
        "chaos" => cmd_chaos(&flags),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "dim — distributed influence maximization (ICDE 2022 reproduction)

commands:
  stats     --graph <src>                   graph statistics
  im        --graph <src> --k <k>           seed selection with (1-1/e-ε) guarantee
                                            (--load-rr DIR selects from the newest
                                            generation of a sketch store)
  sample    --graph <src> --k <k> --out DIR run DiIMM and commit the RR sketch as
                                            generation gen-N/ of the store DIR,
                                            GC'd down to --keep N (default 3)
  stream    --graph <src> --store DIR       apply streamed edge edits to a sketch:
            --apply EDITS.jsonl             each batch repairs the resident RR sets
                                            incrementally and commits a delta
                                            generation (--batch-size N ops/batch,
                                            --keep N, --compact writes a new base,
                                            --select reruns seed selection)
  serve     --graph <src> --store DIR       answer influence queries over a sketch
                                            (--addr A, --max-queries N,
                                            --workers N, --max-conns N; serves the
                                            newest generation, reloads on SIGHUP;
                                            --tenants TENANTS.json serves one
                                            namespace per tenant behind token auth
                                            with per-tenant quotas)
  query     --addr HOST:PORT                query a running server: --stats,
                                            --reload, --seeds a,b,c, or --k K
                                            [--include a,b] [--exclude c,d]
                                            (--timeout S retries the connect;
                                            --tenant ID --token SECRET or
                                            DIM_TENANT/DIM_TOKEN authenticate
                                            against a multi-tenant server)
  coverage  --graph <src> --k <k>           max-coverage over neighborhoods (NewGreeDi)
  simulate  --graph <src> --seeds a,b,c     Monte-Carlo spread of a seed set
  generate  --profile NAME[:SCALE] --out F  write a synthetic profile graph
  chaos     --graph <src> --plan PLAN.json  replay a fault schedule against a
                                            backend and assert seeds/marginals
                                            match a fault-free reference run
                                            (--min-survivors N, --straggler-ms M;
                                            lost shards are re-sampled)

graph sources: a SNAP edge-list path, or profile:NAME[:SCALE]
  (facebook, googleplus, livejournal, twitter)

common flags: --model ic|lt  --epsilon E  --delta D  --k K  --seed S
  --machines L  --algorithm imm|diimm|opim|subsim  --undirected
  --backend sequential|threads|proc|join   (diimm, subsim and opim run on
  every backend with the same seeds; imm, the single-thread baseline,
  runs on sequential|threads only)
  --weights wc|uniform:P|trivalency  --sims N  --evaluate  --breakdown

samplers: IC RR sets always use SUBSIM's count-first subset sampling;
  --algorithm subsim is diimm under its Fig. 7 name (IC only, same seeds)

stored sketches: im --load-rr, stream and serve take the run from the store:
  --k/--epsilon/--delta are refused unless the store's (serve: unchecked),
  --model must match the stored sampler, --machines the shard count (serve:
  unused), and --seed comes from the store (it still seeds a profile: graph
  and --evaluate's cascades)

join backend: workers are pre-started (dim-worker --connect ADDR --join)
  and register with this master; bind via DIM_MASTER_BIND (e.g.
  0.0.0.0:7070), bound by --join-timeout SECS (or DIM_JOIN_TIMEOUT_SECS)"
    );
}

/// Every flag `dim` knows, and whether it takes a value (`false`: a switch).
const FLAGS: &[(&str, bool)] = &[
    ("addr", true),
    ("algorithm", true),
    ("apply", true),
    ("backend", true),
    ("batch-size", true),
    ("breakdown", false),
    ("compact", false),
    ("delta", true),
    ("epsilon", true),
    ("evaluate", false),
    ("exclude", true),
    ("graph", true),
    ("include", true),
    ("join-timeout", true),
    ("k", true),
    ("keep", true),
    ("load-rr", true),
    ("machines", true),
    ("max-conns", true),
    ("max-queries", true),
    ("min-survivors", true),
    ("model", true),
    ("out", true),
    ("plan", true),
    ("profile", true),
    ("reload", false),
    ("seed", true),
    ("seeds", true),
    ("select", false),
    ("sims", true),
    ("stats", false),
    ("store", true),
    ("straggler-ms", true),
    ("tenant", true),
    ("tenants", true),
    ("timeout", true),
    ("token", true),
    ("undirected", false),
    ("weights", true),
    ("workers", true),
];

struct Flags(HashMap<String, String>);

impl Flags {
    /// Parses `--flag [value]` pairs against [`FLAGS`]: an unknown or
    /// repeated flag, or a missing value, is an error naming the flag.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let &(name, takes_value) = FLAGS
                .iter()
                .find(|(known, _)| *known == name)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = if takes_value {
                it.next().ok_or_else(|| format!("flag --{name} needs a value"))?.clone()
            } else {
                "true".to_string()
            };
            if map.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given more than once"));
            }
        }
        Ok(Flags(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(|s| s.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad --{name} value {s:?}")),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// `--machines`, which must be at least 1.
    fn machines(&self, default: usize) -> Result<usize, String> {
        match self.num("machines", default)? {
            0 => Err("--machines must be at least 1".into()),
            machines => Ok(machines),
        }
    }

    /// Refuses a given `--machines` that differs from the `shards` of the
    /// store a command restored; an omitted flag takes the store's count.
    fn store_machines(&self, shards: usize) -> Result<(), String> {
        match self.machines(shards)? {
            machines if machines == shards => Ok(()),
            machines => Err(format!(
                "--machines {machines} disagrees with the store, which holds {shards} shard(s)"
            )),
        }
    }

    /// A parameter that must lie strictly inside (0, 1): `--epsilon`, `--delta`.
    fn open_unit(&self, name: &str, default: f64) -> Result<f64, String> {
        let value = self.num(name, default)?;
        if value > 0.0 && value < 1.0 {
            Ok(value)
        } else {
            Err(format!("--{name} {value} out of (0, 1)"))
        }
    }
}

fn weight_model(flags: &Flags) -> Result<WeightModel, String> {
    match flags.get("weights").unwrap_or("wc") {
        "wc" | "weighted-cascade" => Ok(WeightModel::WeightedCascade),
        "trivalency" => Ok(WeightModel::Trivalency),
        other => {
            if let Some(p) = other.strip_prefix("uniform:") {
                let p: f64 = p.parse().map_err(|_| format!("bad probability {p:?}"))?;
                Ok(WeightModel::Uniform(p))
            } else {
                Err(format!("unknown weight model {other:?}"))
            }
        }
    }
}

fn load_graph(flags: &Flags) -> Result<Graph, String> {
    load_graph_spec(flags.required("graph")?, flags)
}

/// [`load_graph`] for an explicit source spec (per-tenant graphs in
/// `dim serve --tenants` name their own source; everything else uses
/// `--graph`).
fn load_graph_spec(src: &str, flags: &Flags) -> Result<Graph, String> {
    let model = weight_model(flags)?;
    if let Some(spec) = src.strip_prefix("profile:") {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let profile = DatasetProfile::parse(name)
            .ok_or_else(|| format!("unknown profile {name:?}"))?;
        let scale: f64 = match parts.next() {
            None => default_scale(profile),
            Some(s) => s.parse().map_err(|_| format!("bad scale {s:?}"))?,
        };
        let seed = flags.num("seed", 42u64)?;
        Ok(profile.generate_with(scale, model, seed))
    } else {
        let directed = flags.get("undirected").is_none();
        dim_graph::io::read_edge_list_file(src, directed, model)
            .map_err(|e| format!("cannot read {src}: {e}"))
    }
}

fn default_scale(profile: DatasetProfile) -> f64 {
    match profile {
        DatasetProfile::Facebook => 1.0,
        DatasetProfile::GooglePlus => 0.15,
        DatasetProfile::LiveJournal => 0.025,
        DatasetProfile::Twitter => 0.005,
    }
}

fn model_of(flags: &Flags) -> Result<DiffusionModel, String> {
    let name = flags.get("model").unwrap_or("ic");
    DiffusionModel::parse(name).ok_or_else(|| format!("unknown model {name:?}"))
}

fn backend_of(flags: &Flags) -> Result<Backend, String> {
    Backend::parse(flags.get("backend").unwrap_or("sequential"))
}

/// The TCP cluster for `--backend proc|join` ([`dim_cluster::tcp_cluster`]),
/// its rendezvous bounded by `--join-timeout` / `DIM_JOIN_TIMEOUT_SECS`; the
/// run's `--breakdown` shows the assembly latency under `rendezvous`.
fn tcp_cluster(
    spawn: bool,
    machines: usize,
    net: NetworkModel,
    seed: u64,
    flags: &Flags,
) -> Result<ProcCluster, String> {
    let mut config = JoinConfig::new(machines);
    let timeout_secs = flags.num("join-timeout", 0u64)?;
    if timeout_secs > 0 {
        config.join_timeout = std::time::Duration::from_secs(timeout_secs);
    }
    dim_cluster::tcp_cluster(spawn, config, net, seed)
        .map_err(|e| format!("cannot assemble the worker cluster: {e}"))
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let g = load_graph(flags)?;
    let stats = GraphStats::compute(&g);
    println!("{stats}");
    println!("memory: {:.1} MiB", g.memory_bytes() as f64 / (1 << 20) as f64);
    println!(
        "LT-compatible: {}",
        if g.satisfies_lt_constraint() { "yes" } else { "no (Σ in-probs > 1 somewhere)" }
    );
    Ok(())
}

/// Builds the run configuration shared by `im`, `sample`, and `serve`
/// from the common flags. The sampler kind follows `--model` alone, so a
/// snapshot written by `sample` validates on load under either
/// `--algorithm diimm` or `subsim`. Refuses the values no framework is
/// analysed for: `k = 0`, and `ε` or `δ` outside (0, 1).
fn im_config(flags: &Flags, g: &Graph) -> Result<(ImConfig, DiffusionModel), String> {
    let model = model_of(flags)?;
    let k = flags.num("k", 50usize)?.min(g.num_nodes());
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    // IC already samples with SUBSIM's count-first law: `subsim` is DiIMM
    // under its Fig. 7 name, and only says the model must be IC.
    if flags.get("algorithm") == Some("subsim") && model != DiffusionModel::IndependentCascade {
        return Err("subsim supports the IC model only".into());
    }
    let config = ImConfig {
        k,
        epsilon: flags.open_unit("epsilon", 0.1)?,
        delta: flags.open_unit("delta", 1.0 / g.num_nodes() as f64)?,
        seed: flags.num("seed", 42u64)?,
        sampler: SamplerKind::Standard(model),
    };
    Ok((config, model))
}

fn cmd_im(flags: &Flags) -> Result<(), String> {
    let g = load_graph(flags)?;
    let (config, model) = im_config(flags, &g)?;
    let machines = flags.machines(1)?;
    let algorithm = flags.get("algorithm").unwrap_or("diimm");
    let net = NetworkModel::shared_memory();
    let backend = backend_of(flags)?;
    let r = if let Some(root) = flags.get("load-rr") {
        if !matches!(algorithm, "diimm" | "subsim") {
            return Err("--load-rr replays a DiIMM sketch; use --algorithm diimm|subsim".into());
        }
        let mode = match backend {
            Backend::Sim(mode) => mode,
            _ => return Err("--load-rr selects locally; use a simulated backend".into()),
        };
        let mut session = StreamSession::open(&g, &config, std::path::Path::new(root), net, mode)
            .map_err(|e| e.to_string())?;
        flags.store_machines(session.num_machines())?;
        session.select().map_err(|e| e.to_string())?
    } else {
        match (algorithm, backend) {
            ("imm", Backend::Sim(_)) => imm(&g, &config),
            ("imm", Backend::Tcp { .. }) => {
                return Err("--algorithm imm runs on one machine; use a simulated --backend".into())
            }
            ("diimm" | "subsim", Backend::Sim(mode)) => {
                diimm(&g, &config, machines, net, mode).map_err(|e| e.to_string())?
            }
            ("opim", Backend::Sim(mode)) => {
                dopim_c(&g, &config, machines, net, mode).map_err(|e| e.to_string())?
            }
            (name @ ("diimm" | "subsim" | "opim"), Backend::Tcp { spawn }) => {
                let paired = name == "opim";
                let mut cluster = tcp_cluster(spawn, machines, net, config.seed, flags)?;
                setup_im_cluster(&mut cluster, &g, config.sampler, paired)
                    .map_err(|e| e.to_string())?;
                if paired {
                    paired_on(&mut cluster, g.num_nodes(), &config, PairedRule::OpimC)
                } else {
                    diimm_on(&mut cluster, &g, &config, true)
                }
                .map_err(|e| e.to_string())?
            }
            (other, _) => return Err(format!("unknown algorithm {other:?}")),
        }
    };
    println!("seeds: {:?}", r.seeds);
    println!("estimated spread: {:.1} ({} RR sets)", r.est_spread, r.num_rr_sets);
    println!(
        "time: sampling {:.3}s, selection {:.3}s, comm {:.3}s",
        r.timings.sampling.as_secs_f64(),
        r.timings.selection.as_secs_f64(),
        r.timings.communication.as_secs_f64()
    );
    if flags.get("breakdown").is_some() {
        print_breakdown(&r.timeline);
    }
    if flags.get("evaluate").is_some() {
        let sims = flags.num("sims", 10_000usize)?;
        let mc = estimate_spread(&g, model, &r.seeds, sims, config.seed ^ 0xE7A1);
        println!("simulated spread: {mc:.1} ({sims} cascades)");
    }
    Ok(())
}

fn cmd_sample(flags: &Flags) -> Result<(), String> {
    let g = load_graph(flags)?;
    let (config, _) = im_config(flags, &g)?;
    let algorithm = flags.get("algorithm").unwrap_or("diimm");
    if !matches!(algorithm, "diimm" | "subsim") {
        return Err("sample persists a DiIMM sketch; use --algorithm diimm|subsim".into());
    }
    let machines = flags.machines(1)?;
    let out = std::path::PathBuf::from(flags.required("out")?);
    let keep = flags.num("keep", 3usize)?;
    let net = NetworkModel::shared_memory();
    // The shards land in a fresh gen-N/ directory that becomes visible to
    // loaders only once its manifest commits, so a concurrently running
    // `dim serve --store OUT` never sees a half-written sketch.
    let (id, r) = match backend_of(flags)? {
        Backend::Sim(mode) => diimm_sample_generation(&g, &config, machines, net, mode, &out, keep)
            .map_err(|e| e.to_string())?,
        Backend::Tcp { spawn } => {
            let mut cluster = tcp_cluster(spawn, machines, net, config.seed, flags)?;
            setup_im_cluster(&mut cluster, &g, config.sampler, false).map_err(|e| e.to_string())?;
            diimm_sample_on(&mut cluster, &g, &config, &out, keep).map_err(|e| e.to_string())?
        }
    };
    println!("seeds: {:?}", r.seeds);
    println!(
        "estimated spread: {:.1} ({} RR sets)",
        r.est_spread, r.num_rr_sets
    );
    println!(
        "sketch: generation {id}, {machines} shard(s) in {}",
        out.join(generation_dir_name(id)).display()
    );
    if flags.get("breakdown").is_some() {
        print_breakdown(&r.timeline);
    }
    Ok(())
}

/// One edit line, a whole JSON object: `{"op":"insert","u":1,"v":2,"p":0.5}`
/// (or `delete` / `reweight`; `delete` needs no `p`).
fn parse_edit(line: &str) -> Result<EdgeOp, String> {
    let edit = Json::parse(line)?;
    let field = |key: &str| edit.get(key).ok_or(format!("missing \"{key}\""));
    let op = field("op")?.as_str("op")?;
    let node = |key: &str| -> Result<u32, String> {
        let v = field(key)?.as_u64(key)?;
        u32::try_from(v).map_err(|_| format!("{key}: {v} does not fit in u32"))
    };
    let prob = || match field("p")? {
        Json::Num(p) => Ok(*p as f32),
        other => Err(format!("p: expected a number, got {other:?}")),
    };
    let (u, v) = (node("u")?, node("v")?);
    match op {
        "insert" => Ok(EdgeOp::Insert { u, v, p: prob()? }),
        "delete" => Ok(EdgeOp::Delete { u, v }),
        "reweight" => Ok(EdgeOp::Reweight { u, v, p: prob()? }),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn cmd_stream(flags: &Flags) -> Result<(), String> {
    let g = load_graph(flags)?;
    let (config, _) = im_config(flags, &g)?;
    let algorithm = flags.get("algorithm").unwrap_or("diimm");
    if !matches!(algorithm, "diimm" | "subsim") {
        return Err("stream repairs a DiIMM sketch; use --algorithm diimm|subsim".into());
    }
    let root = std::path::PathBuf::from(flags.required("store")?);
    let edits_path = flags.required("apply")?;
    let keep = flags.num("keep", 3usize)?;
    let batch_size = flags.num("batch-size", 0usize)?;
    let mode = match backend_of(flags)? {
        Backend::Sim(mode) => mode,
        _ => return Err("stream repairs the sketch locally; use a simulated backend".into()),
    };

    let text = std::fs::read_to_string(edits_path)
        .map_err(|e| format!("cannot read {edits_path}: {e}"))?;
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ops.push(parse_edit(line).map_err(|e| format!("{edits_path}:{}: {e}", i + 1))?);
    }
    if ops.is_empty() {
        return Err(format!("{edits_path} holds no edits"));
    }

    let net = NetworkModel::shared_memory();
    let mut session = StreamSession::open(&g, &config, &root, net, mode)
        .map_err(|e| e.to_string())?;
    flags.store_machines(session.num_machines())?;
    println!(
        "stream: resumed at generation {} (seq {}, {} machine(s))",
        session.generation(),
        session.next_seq(),
        session.num_machines()
    );
    let chunk = if batch_size == 0 { ops.len() } else { batch_size };
    let mut total_ops = 0usize;
    let mut total_repaired = 0u64;
    let start = std::time::Instant::now();
    for batch in ops.chunks(chunk) {
        let applied = session
            .apply(batch.to_vec(), true, keep)
            .map_err(|e| e.to_string())?;
        total_ops += applied.ops;
        total_repaired += applied.sets_repaired;
        println!(
            "stream: batch seq {} ({} op(s)) -> generation {}, {} RR set(s) repaired",
            session.next_seq() - 1,
            applied.ops,
            applied.generation.expect("persisted apply commits"),
            applied.sets_repaired
        );
    }
    let elapsed = start.elapsed();
    println!(
        "stream: {total_ops} edit(s) applied, {total_repaired} RR set(s) repaired \
         in {:.3}s ({:.0} edits/s)",
        elapsed.as_secs_f64(),
        total_ops as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    if flags.get("compact").is_some() {
        match session.compact(keep).map_err(|e| e.to_string())? {
            Some(id) => println!("stream: compacted chain into base generation {id}"),
            None => println!("stream: nothing to compact"),
        }
    }
    if flags.get("select").is_some() {
        let r = session.select().map_err(|e| e.to_string())?;
        println!("seeds: {:?}", r.seeds);
        println!(
            "estimated spread: {:.1} ({} RR sets)",
            r.est_spread, r.num_rr_sets
        );
    }
    Ok(())
}

/// SIGHUP → hot reload, the classic daemon idiom. Raw FFI against libc's
/// `signal` keeps this dependency-free; the handler only flips an atomic,
/// the actual store re-scan runs on the serve loop below.
#[cfg(unix)]
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    static PENDING: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sighup(_signum: i32) {
        PENDING.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGHUP: i32 = 1;
        unsafe {
            signal(SIGHUP, on_sighup);
        }
    }

    pub fn take() -> bool {
        PENDING.swap(false, Ordering::SeqCst)
    }
}

/// The serve loop shared by `dim serve` and `dim serve --tenants`: polls
/// until `--max-queries` answers (forever when 0), calling `reload` on
/// every SIGHUP; `reload` prints its own outcome lines.
fn serve_until_done(server: &Server, max_queries: u64, reload: impl Fn(&Server)) {
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    #[cfg(unix)]
    sighup::install();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        #[cfg(unix)]
        if sighup::take() {
            reload(server);
            let _ = std::io::stdout().flush();
        }
        if max_queries > 0 && server.queries_answered() >= max_queries {
            break;
        }
    }
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    if let Some(path) = flags.get("tenants") {
        return cmd_serve_multi(flags, path);
    }
    let g = load_graph(flags)?;
    let (config, _) = im_config(flags, &g)?;
    let dir = std::path::PathBuf::from(flags.required("store")?);
    let (generation, snapshot) =
        load_latest_rr_snapshot(&g, &config, &dir).map_err(|e| e.to_string())?;
    let (theta, shard_count) = (snapshot.theta, snapshot.shard_count);
    let sketch = Sketch::from_snapshot(g.num_nodes(), snapshot);
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7117");
    let options = ServeOptions {
        workers: flags.num("workers", 8usize)?,
        max_conns: flags.num("max-conns", 1024usize)?,
        generation,
        reload: Some(ReloadSource {
            root: dir.clone(),
            request: rr_snapshot_request(&g, &config),
            num_nodes: g.num_nodes(),
        }),
    };
    let server = Server::start_with(addr, sketch, options)
        .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    let max_queries = flags.num("max-queries", 0u64)?;
    println!(
        "dim-serve: listening on {} ({theta} RR sets in {shard_count} shard(s), n = {}, \
         generation {generation})",
        server.local_addr(),
        g.num_nodes()
    );
    serve_until_done(&server, max_queries, |server| match server.reload() {
        Ok((id, true)) => println!("dim-serve: reloaded, now at generation {id}"),
        Ok((id, false)) => println!("dim-serve: already at generation {id}"),
        Err(e) => eprintln!("dim-serve: reload failed: {e}"),
    });
    let answered = server.queries_answered();
    let m = server.metrics();
    server.shutdown();
    println!("dim-serve: shut down after {answered} queries");
    println!(
        "dim-serve: generation {}, latency p50 {}µs p95 {}µs p99 {}µs, \
         {} shed, {} reload(s)",
        m.active_generation, m.p50_us, m.p95_us, m.p99_us, m.shed, m.reloads
    );
    Ok(())
}

/// `dim serve --tenants TENANTS.json`: one daemon, one namespace per
/// tenant. Each tenant's graph/store come from its registry entry,
/// falling back to the run-wide `--graph` / `--store`; every tenant gets
/// its own sketch, generation counter, and reload source, so a SIGHUP
/// reload of one store never disturbs the others.
fn cmd_serve_multi(flags: &Flags, path: &str) -> Result<(), String> {
    let registry = TenantRegistry::from_file(path)
        .map_err(|e| format!("cannot load tenant registry {path}: {e}"))?;
    let mut binds = Vec::with_capacity(registry.len());
    for spec in registry.iter() {
        let src = match &spec.graph {
            Some(src) => src.clone(),
            None => flags
                .required("graph")
                .map_err(|_| {
                    format!(
                        "tenant {:?} names no graph and no --graph fallback was given",
                        spec.id
                    )
                })?
                .to_string(),
        };
        let g = load_graph_spec(&src, flags)?;
        let (config, _) = im_config(flags, &g)?;
        let dir = match &spec.store {
            Some(dir) => dir.clone(),
            None => std::path::PathBuf::from(flags.required("store").map_err(|_| {
                format!(
                    "tenant {:?} names no store and no --store fallback was given",
                    spec.id
                )
            })?),
        };
        let (generation, snapshot) = load_latest_rr_snapshot(&g, &config, &dir)
            .map_err(|e| format!("tenant {:?}: {e}", spec.id))?;
        println!(
            "dim-serve: tenant {:?}: {} RR sets in {} shard(s), n = {}, generation {}",
            spec.id,
            snapshot.theta,
            snapshot.shard_count,
            g.num_nodes(),
            generation
        );
        binds.push(TenantBind {
            spec: spec.clone(),
            sketch: Sketch::from_snapshot(g.num_nodes(), snapshot),
            generation,
            reload: Some(ReloadSource {
                root: dir,
                request: rr_snapshot_request(&g, &config),
                num_nodes: g.num_nodes(),
            }),
        });
    }
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7117");
    let options = ServeOptions {
        workers: flags.num("workers", 8usize)?,
        max_conns: flags.num("max-conns", 1024usize)?,
        ..ServeOptions::default()
    };
    let tenant_count = binds.len();
    let server = Server::start_multi(addr, binds, options)
        .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    let max_queries = flags.num("max-queries", 0u64)?;
    println!(
        "dim-serve: listening on {} ({tenant_count} tenant(s), auth required)",
        server.local_addr()
    );
    serve_until_done(&server, max_queries, |server| {
        for (id, outcome) in server.reload_all() {
            match outcome {
                Ok((gen, true)) => {
                    println!("dim-serve: tenant {id:?} reloaded, now at generation {gen}")
                }
                Ok((gen, false)) => println!("dim-serve: tenant {id:?} already at generation {gen}"),
                Err(e) => eprintln!("dim-serve: tenant {id:?} reload failed: {e}"),
            }
        }
    });
    let answered = server.queries_answered();
    let per_tenant = server.tenant_metrics();
    let m = server.metrics();
    server.shutdown();
    println!("dim-serve: shut down after {answered} queries");
    for (id, t) in per_tenant {
        println!(
            "dim-serve: tenant {id:?}: generation {}, {} queries, {} quota-shed, \
             {} reload(s), p99 {}µs",
            t.active_generation, t.queries_answered, t.quota_shed, t.reloads, t.p99_us
        );
    }
    println!(
        "dim-serve: all tenants: latency p50 {}µs p95 {}µs p99 {}µs, {} shed",
        m.p50_us, m.p95_us, m.p99_us, m.shed
    );
    Ok(())
}

fn parse_ids(list: &str) -> Result<Vec<u32>, String> {
    list.split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad node id {s:?}")))
        .collect()
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    let addr = flags.required("addr")?;
    let timeout = flags.num("timeout", 0u64)?;
    // --tenant/--token beat the DIM_TENANT/DIM_TOKEN environment; either
    // way the token is hashed before it touches the wire.
    let credentials = match flags.get("tenant") {
        Some(tenant) => Some(Credentials::new(
            tenant,
            flags
                .get("token")
                .map(str::to_string)
                .or_else(|| std::env::var("DIM_TOKEN").ok())
                .unwrap_or_default(),
        )),
        None => Credentials::from_env(),
    };
    let mut client = if timeout > 0 {
        let options = ConnectOptions {
            deadline: std::time::Duration::from_secs(timeout),
            credentials,
        };
        QueryClient::connect_with(addr, &options)
    } else {
        QueryClient::connect(addr).and_then(|mut client| {
            if let Some(creds) = &credentials {
                client.authenticate(creds)?;
            }
            Ok(client)
        })
    }
    .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if flags.get("reload").is_some() {
        let (generation, changed) = client.reload().map_err(|e| e.to_string())?;
        println!(
            "generation {generation} ({})",
            if changed { "reloaded" } else { "unchanged" }
        );
        return Ok(());
    }
    if flags.get("stats").is_some() {
        let s = client.stats().map_err(|e| e.to_string())?;
        println!(
            "sketch: n = {}, {} RR sets in {} shard(s), total size {}",
            s.num_nodes, s.theta, s.shard_count, s.total_rr_size
        );
        println!("queries answered: {}", s.queries_answered);
        println!("generation: {}", s.generation);
        println!(
            "latency: p50 {}µs, p95 {}µs, p99 {}µs ({} connection(s) shed, \
             {} quota-shed)",
            s.p50_us, s.p95_us, s.p99_us, s.shed, s.quota_shed
        );
        return Ok(());
    }
    if let Some(seeds) = flags.get("seeds") {
        let seeds = parse_ids(seeds)?;
        let (covered, spread) = client.spread(&seeds).map_err(|e| e.to_string())?;
        println!("estimated spread: {spread:.2} ({covered} RR sets covered)");
        return Ok(());
    }
    let k: u32 = flags.num("k", 0u32)?;
    if k == 0 {
        return Err("query needs --stats, --reload, --seeds a,b,c, or --k K".into());
    }
    let include = flags.get("include").map(parse_ids).transpose()?.unwrap_or_default();
    let exclude = flags.get("exclude").map(parse_ids).transpose()?.unwrap_or_default();
    let r = client.top_k(k, &include, &exclude).map_err(|e| e.to_string())?;
    println!("seeds: {:?}", r.seeds);
    println!("marginals: {:?}", r.marginals);
    println!(
        "estimated spread: {:.1} ({} RR sets covered)",
        r.spread, r.covered
    );
    Ok(())
}

/// Per-phase stacked-bar rows (`--breakdown`): modeled compute and
/// communication, measured wall-clock transfer (process backend only),
/// and bytes in each direction.
fn print_breakdown(timeline: &PhaseTimeline) {
    if timeline.is_empty() {
        println!("breakdown: no phases recorded");
        return;
    }
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "phase", "compute (s)", "comm (s)", "measured (s)", "to master (B)", "from master (B)"
    );
    for (label, m) in timeline.iter() {
        println!(
            "{:<18} {:>12.6} {:>12.6} {:>12.6} {:>14} {:>14}",
            label,
            m.compute().as_secs_f64(),
            m.comm_time.as_secs_f64(),
            m.measured_comm.as_secs_f64(),
            m.bytes_to_master,
            m.bytes_from_master,
        );
    }
}

/// Runs NewGreeDi over any backend: ships each machine its element
/// partition (`BuildShard`), then drives the same phase ops everywhere.
fn coverage_on_ops<B: OpCluster>(
    cluster: &mut B,
    problem: &CoverageProblem,
    shards: &[CoverageShard],
    k: usize,
) -> Result<(dim_coverage::NewGreediResult, PhaseTimeline), dim_cluster::WireError> {
    let replies = cluster.control(phase::SETUP, |i| WorkerOp::BuildShard {
        num_sets: problem.num_sets() as u32,
        elements: shards[i].elements().iter().map(<[u32]>::to_vec).collect(),
    })?;
    dim_cluster::ops::expect_ok(&replies, phase::SETUP)?;
    let r = dim_coverage::newgreedi_with(cluster, problem.num_sets(), k)?;
    Ok((r, cluster.timeline().clone()))
}

fn cmd_coverage(flags: &Flags) -> Result<(), String> {
    let g = load_graph(flags)?;
    let k = flags.num("k", 50usize)?.min(g.num_nodes());
    let machines = flags.machines(1)?;
    let net = NetworkModel::shared_memory();
    let problem = CoverageProblem::from_graph_neighborhoods(&g);
    let shards = problem.shard_elements(machines);
    let (r, timeline) = match backend_of(flags)? {
        Backend::Sim(mode) => {
            let empty = (0..machines).map(|_| CoverageShard::new(0)).collect();
            coverage_on_ops(&mut SimCluster::new(empty, net, mode), &problem, &shards, k)
        }
        Backend::Tcp { spawn } => {
            let seed = flags.num("seed", 42u64)?;
            let mut cluster = tcp_cluster(spawn, machines, net, seed, flags)?;
            coverage_on_ops(&mut cluster, &problem, &shards, k)
        }
    }
    .map_err(|e| e.to_string())?;
    println!("sets: {:?}", r.seeds);
    println!(
        "covered {} / {} elements ({:.1}%)",
        r.covered,
        problem.num_elements(),
        100.0 * r.fraction(problem.num_elements())
    );
    println!("{}", timeline.total());
    if flags.get("breakdown").is_some() {
        print_breakdown(&timeline);
    }
    Ok(())
}

/// Replays a `FaultPlan` against a live run and asserts the recovered
/// result is byte-identical to a fault-free reference — the chaos-CI
/// entry point. The reference always runs on the deterministic
/// sequential simulator; the chaos run goes to `--backend` (sim modes
/// interpret the plan in virtual time, `proc` injects it at the socket
/// layer). Divergence is a hard error, so the exit code is the assertion.
fn cmd_chaos(flags: &Flags) -> Result<(), String> {
    let g = load_graph(flags)?;
    let (config, _) = im_config(flags, &g)?;
    let algorithm = flags.get("algorithm").unwrap_or("diimm");
    if !matches!(algorithm, "diimm" | "subsim") {
        return Err("chaos replays a DiIMM run; use --algorithm diimm|subsim".into());
    }
    let machines = flags.machines(2)?;
    let plan_path = flags.required("plan")?;
    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| format!("cannot read {plan_path}: {e}"))?;
    let plan = FaultPlan::from_json(&text).map_err(|e| format!("{plan_path}: {e}"))?;
    let policy = RecoveryPolicy {
        min_survivors: flags.num("min-survivors", 0usize)?,
        straggler_deadline: match flags.num("straggler-ms", 0u64)? {
            0 => std::time::Duration::MAX,
            ms => std::time::Duration::from_millis(ms),
        },
    };
    let net = NetworkModel::shared_memory();

    // The fault-free reference: same graph/config/ℓ on the deterministic
    // simulator. Backend equivalence makes this the right target for the
    // proc backend too.
    let reference = diimm(&g, &config, machines, net, ExecMode::Sequential)
        .map_err(|e| format!("reference run failed: {e}"))?;

    let injector = FaultInjector::new(plan, machines);
    let run = match backend_of(flags)? {
        Backend::Sim(mode) => {
            let workers: Vec<_> = (0..machines)
                .map(|i| dim_core::diimm::DiimmWorker::new(&g, &config, i))
                .collect();
            let cluster = SimCluster::new(workers, net, mode).with_faults(injector);
            diimm_on_recovering(cluster, &g, &config, true, policy).map_err(|e| e.to_string())?
        }
        Backend::Tcp { spawn: true } => {
            let mut cluster = tcp_cluster(true, machines, net, config.seed, flags)?;
            setup_im_cluster(&mut cluster, &g, config.sampler, false).map_err(|e| e.to_string())?;
            // Armed after setup, so plan rounds count op rounds from
            // the first algorithm phase — same clock as the simulator.
            cluster.set_chaos(Some(injector));
            diimm_on_recovering(cluster, &g, &config, true, policy).map_err(|e| e.to_string())?
        }
        Backend::Tcp { spawn: false } => {
            return Err("chaos replay drives sequential|threads|proc backends".into())
        }
    };

    println!("chaos: replayed {plan_path} on {machines} machine(s)");
    match &run.degraded {
        None => println!("chaos: completed clean (no machine lost, no stragglers)"),
        Some(d) => {
            println!(
                "chaos: degraded — lost machine(s) {:?}, {} RR set(s) rebuilt, \
                 {} straggler event(s)",
                d.lost,
                d.rebuilt_sets,
                d.stragglers.len()
            );
            for ev in &d.stragglers {
                println!(
                    "chaos:   straggler: {} took {:.3}s (deadline {:.3}s)",
                    ev.phase,
                    ev.observed.as_secs_f64(),
                    ev.deadline.as_secs_f64()
                );
            }
        }
    }
    if run.result.seeds != reference.seeds || run.result.marginals != reference.marginals {
        return Err(format!(
            "DIVERGENCE: chaos run selected {:?}, fault-free reference {:?}",
            run.result.seeds, reference.seeds
        ));
    }
    println!("chaos: seeds and marginals byte-identical to the fault-free reference");
    println!("seeds: {:?}", run.result.seeds);
    println!(
        "estimated spread: {:.1} ({} RR sets)",
        run.result.est_spread, run.result.num_rr_sets
    );
    if flags.get("breakdown").is_some() {
        print_breakdown(&run.result.timeline);
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let g = load_graph(flags)?;
    let model = model_of(flags)?;
    let seeds = parse_ids(flags.required("seeds")?)?;
    if let Some(&bad) = seeds.iter().find(|&&s| s as usize >= g.num_nodes()) {
        return Err(format!("seed {bad} out of range (n = {})", g.num_nodes()));
    }
    let sims = flags.num("sims", 10_000usize)?;
    let spread = estimate_spread(&g, model, &seeds, sims, flags.num("seed", 42u64)?);
    println!(
        "σ({:?}) ≈ {spread:.2} under {model} ({sims} cascades)",
        seeds
    );
    Ok(())
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let spec = flags.required("profile")?;
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or("");
    let profile =
        DatasetProfile::parse(name).ok_or_else(|| format!("unknown profile {name:?}"))?;
    let scale: f64 = match parts.next() {
        None => default_scale(profile),
        Some(s) => s.parse().map_err(|_| format!("bad scale {s:?}"))?,
    };
    let out = flags.required("out")?;
    let g = profile.generate_with(scale, weight_model(flags)?, flags.num("seed", 42u64)?);
    let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    dim_graph::io::write_edge_list(&g, file).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}
