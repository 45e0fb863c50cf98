//! The four workloads. Each is one process invocation, drives the program
//! only through the crates' public functions, checks its outputs untimed,
//! and reports either the end-to-end metrics (tracing off) or the per-layer
//! metrics (tracing on). All loops are closed: a caller issues its next
//! operation only when the previous one has returned.

pub mod im_ic;
pub mod maxcover_tcp;
pub mod serve_closed;
pub mod stream_apply;

use std::path::Path;
use std::time::Instant;

use dim_cluster::{phase, ClusterMetrics, PhaseTimeline};
use dim_core::{ImConfig, SamplerKind};
use dim_diffusion::DiffusionModel;
use dim_graph::Graph;

use crate::inputs::profile_graph;
use crate::metrics::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["im-ic", "maxcover-tcp", "serve-closed", "stream-apply"];

/// Machines in every cluster and client connections in every closed loop:
/// the box has two cores, so more would only measure the scheduler.
pub const MACHINES: usize = 2;

/// What one invocation was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes: exercises every call and check, judges no timing.
    pub smoke: bool,
    /// Stop after the set-up and report only `setup_s` and `cold_start_s`.
    /// An untraced run starts two such processes before its own set-up and
    /// reports the median of the three: each set-up then starts from a
    /// fresh process, as a user's would, and `peak_rss_mb` covers exactly
    /// one set-up and one timed region.
    pub setup_only: bool,
}

/// The outcome of a `--setup-only` run.
pub fn setup_outcome(setup_s: f64, cold_start_s: f64) -> Outcome {
    let mut out = Outcome::new(&crate::metrics::END_TO_END);
    out.attempted = 1;
    out.set("setup_s", setup_s);
    out.set("cold_start_s", cold_start_s);
    out
}

pub fn run(workload: &str, args: &RunArgs, tr: &mut Tracer) -> Result<Outcome, String> {
    match workload {
        "im-ic" => im_ic::run(args, tr),
        "maxcover-tcp" => maxcover_tcp::run(args, tr),
        "serve-closed" => serve_closed::run(args, tr),
        "stream-apply" => stream_apply::run(args, tr),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Runs `f` and returns its result with the wall time it took, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The repository's bench defaults on `graph`: ε = 0.1, δ = 1/n, IC, and
/// the workload's `k` (10 in smoke mode, with ε = 0.5).
pub fn im_config(graph: &Graph, seed: u64, k: usize, smoke: bool) -> ImConfig {
    ImConfig {
        k: if smoke { 10 } else { k }.min(graph.num_nodes()),
        epsilon: if smoke { 0.5 } else { 0.1 },
        delta: 1.0 / graph.num_nodes() as f64,
        seed,
        sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
    }
}

/// Seconds spent producing the graph file a workload starts from.
#[derive(Clone, Copy, Default)]
pub struct GraphTimes {
    pub generate_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
}

impl GraphTimes {
    pub fn record(&self, out: &mut Outcome) {
        out.set("graph.generate_s", self.generate_s);
        out.set("graph.encode_binary_s", self.encode_s);
        out.set("graph.decode_binary_s", self.decode_s);
    }
}

/// Generates the profile graph and writes it in dim-graph's binary format,
/// as `dim generate` would: every workload then starts from a file.
pub fn write_graph_file(
    scale: f64,
    seed: u64,
    path: &Path,
    rep: u32,
    tr: &mut Tracer,
) -> Result<GraphTimes, String> {
    let (graph, generate_s) = timed(|| {
        tr.span("graph.generate", "graph", rep, || {
            profile_graph(scale, seed)
        })
    });
    let (written, encode_s) = timed(|| {
        tr.span("graph.encode_binary", "graph", rep, || {
            dim_graph::binary::write_binary_file(&graph, path)
        })
    });
    written.map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(GraphTimes {
        generate_s,
        encode_s,
        decode_s: 0.0,
    })
}

pub fn read_graph_file(
    path: &Path,
    rep: u32,
    times: &mut GraphTimes,
    tr: &mut Tracer,
) -> Result<Graph, String> {
    let (graph, decode_s) = timed(|| {
        tr.span("graph.decode_binary", "graph", rep, || {
            dim_graph::binary::read_binary_file(path)
        })
    });
    times.decode_s = decode_s;
    graph.map_err(|e| format!("read {}: {e}", path.display()))
}

/// Per-label metrics a cluster accumulated between two timeline snapshots.
pub fn timeline_delta(
    before: &PhaseTimeline,
    after: &PhaseTimeline,
) -> Vec<(&'static str, ClusterMetrics)> {
    after
        .iter()
        .map(|(label, m)| (label, m.since(&before.get(label))))
        .collect()
}

/// Sum of the per-label deltas.
pub fn delta_total(delta: &[(&'static str, ClusterMetrics)]) -> ClusterMetrics {
    let mut total = ClusterMetrics::default();
    for (_, m) in delta {
        total.merge(m);
    }
    total
}

/// Turns the counters a cluster call returned into child spans of the span
/// around that call: the slowest worker's compute per phase (the result
/// waits for the slowest part), the master's serial compute, and measured
/// wire time. The parent's self time is then what the call spent on
/// neither, i.e. cluster orchestration.
pub fn add_phase_children(
    tr: &mut Tracer,
    parent: SpanId,
    delta: &[(&'static str, ClusterMetrics)],
) {
    for (label, m) in delta {
        // Worker-side compute belongs to the layer that implements the op.
        let (worker_name, worker_layer): (&'static str, &'static str) = match *label {
            l if l == phase::RR_SAMPLING => ("workers:rr-sampling", "diffusion"),
            l if l == phase::COVERAGE_UPLOAD => ("workers:initial-coverage", "coverage"),
            l if l == phase::DELTA_UPLOAD => ("workers:apply-seed", "coverage"),
            l if l == phase::COUNT_UPLOAD => ("workers:covered-count", "coverage"),
            l if l == phase::STORE_SAVE => ("workers:persist-shard", "store"),
            l if l == phase::STREAM_APPLY => ("workers:apply-delta", "core"),
            l if l == phase::SETUP => ("workers:setup-op", "coverage"),
            _ => ("workers:other", "cluster"),
        };
        tr.child_of(
            parent,
            worker_name,
            worker_layer,
            m.worker_compute.as_secs_f64(),
        );
        let master_name: &'static str = if *label == phase::SEED_SELECT {
            "master:seed-select"
        } else {
            "master:other"
        };
        tr.child_of(
            parent,
            master_name,
            "coverage",
            m.master_compute.as_secs_f64(),
        );
        tr.child_of(parent, "wire", "cluster", m.measured_comm.as_secs_f64());
    }
}

/// Latency samples of one operation class, in seconds.
#[derive(Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.0) * 1e3
    }

    /// The tail: nearest-rank p99 once a thousand samples back it (ten
    /// beyond it), p75 below that. A solve workload has a dozen to three
    /// dozen samples per run: their p99 is the single slowest one and their
    /// p90 one of the slowest three, which measures the box's worst moment
    /// rather than the program.
    pub fn tail_ms(&self) -> f64 {
        percentile(&self.0, self.tail_rank()) * 1e3
    }

    fn tail_rank(&self) -> f64 {
        if self.len() >= 1000 {
            0.99
        } else {
            0.75
        }
    }

    pub fn describe(&self, what: &str) -> String {
        let min = self.0.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.0.iter().copied().fold(0.0, f64::max);
        format!(
            "{what}: n={} p50={:.4} ms p{:.0}={:.4} ms min={:.4} ms max={:.4} ms",
            self.len(),
            self.p50_ms(),
            self.tail_rank() * 100.0,
            self.tail_ms(),
            min * 1e3,
            max * 1e3
        )
    }
}

/// Records the per-layer self times of the span tree rooted at `root`.
pub fn set_layer_self_times(out: &mut Outcome, tr: &Tracer, root: usize) {
    const NAMES: [&str; 8] = [
        "self.graph_s",
        "self.diffusion_s",
        "self.coverage_s",
        "self.cluster_s",
        "self.core_s",
        "self.store_s",
        "self.serve_s",
        "self.harness_s",
    ];
    for (name, secs) in NAMES.into_iter().zip(tr.layer_self_secs(root)) {
        out.set(name, secs);
    }
}

/// The traced run's own account: the traced and untraced operation medians
/// measured side by side in this process, and their difference.
pub fn set_trace_summary(out: &mut Outcome, tr: &Tracer, spanned: &Samples, plain: &Samples) {
    out.set("harness.build_s", crate::sys::build_info().build_s);
    out.set("trace.op_p50_ms", spanned.p50_ms());
    out.set("trace.untraced_op_p50_ms", plain.p50_ms());
    out.set(
        "trace.overhead_pct",
        (spanned.p50_ms() / plain.p50_ms() - 1.0) * 100.0,
    );
    out.set("trace.spans", tr.spans().len() as f64);
    out.set("trace.ops", spanned.len() as f64);
}
