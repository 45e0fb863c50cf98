//! `maxcover-tcp`: the paper's Fig. 10 problem. Maximum coverage over graph
//! neighbourhoods, solved by NewGreeDi on a `ProcCluster` whose two workers
//! are in-process threads behind real loopback TCP. Nothing is sampled:
//! dim-coverage and dim-cluster (op codec, framing, round latency) do all
//! the work, so a sampler change must read "no change" here, and a wire or
//! cluster refactor shows here first.
//!
//! Operation: ship both shards (`BuildShard`) and run `newgreedi_with`,
//! k = 200: about 800 messages and 29 MB of `⟨v, Δᵢ(v)⟩` tuples up.

use std::time::Instant;

use dim_cluster::ops::expect_ok;
use dim_cluster::{
    phase, ClusterBackend, ClusterMetrics, NetworkModel, OpCluster, ProcCluster, WorkerOp,
    WorkerReply,
};
use dim_coverage::greedy::bucket_greedy;
use dim_coverage::newgreedi::{newgreedi_with, NewGreediResult};
use dim_coverage::{CoverageProblem, CoverageShard};

use super::{
    add_phase_children, delta_total, read_graph_file, set_layer_self_times, set_trace_summary,
    setup_outcome, timed, timeline_delta, write_graph_file, GraphTimes, RunArgs, Samples, MACHINES,
};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::sys::{peak_rss_mb, Scratch};
use crate::trace::Tracer;

/// `profile:livejournal:0.05`: n ≈ 242 k sets and elements, m ≈ 6.9 M
/// incidences. One operation takes ≈ 0.6 s on this box.
const SCALE: f64 = 0.05;
const SMOKE_SCALE: f64 = 0.004;
const K: usize = 200;
const SMOKE_K: usize = 20;

struct Ready {
    problem: CoverageProblem,
    shards: Vec<CoverageShard>,
    cluster: ProcCluster,
    k: usize,
    /// The warm-up result; every timed operation must reproduce it.
    first: NewGreediResult,
    times: GraphTimes,
    cluster_start_s: f64,
}

fn ship(
    cluster: &mut ProcCluster,
    problem: &CoverageProblem,
    shards: &[CoverageShard],
) -> Result<(), String> {
    let replies = cluster
        .control(phase::SETUP, |i| WorkerOp::BuildShard {
            num_sets: problem.num_sets() as u32,
            elements: shards[i].elements().iter().map(<[u32]>::to_vec).collect(),
        })
        .map_err(|e| format!("BuildShard: {e}"))?;
    expect_ok(&replies, phase::SETUP).map_err(|e| format!("BuildShard: {e}"))
}

fn operation(ready: &mut Ready) -> Result<NewGreediResult, String> {
    ship(&mut ready.cluster, &ready.problem, &ready.shards)?;
    newgreedi_with(&mut ready.cluster, ready.problem.num_sets(), ready.k)
        .map_err(|e| format!("newgreedi: {e}"))
}

/// One set-up: graph file → coverage instance → shards → cluster up →
/// first shipped solve. Cold start is everything after the file exists.
fn set_up(
    args: &RunArgs,
    scratch: &Scratch,
    rep: u32,
    tr: &mut Tracer,
) -> Result<(Ready, f64, f64), String> {
    let start = Instant::now();
    let span = tr.begin("setup", "harness", rep);
    let path = scratch.path().join("graph.dimg");
    let scale = if args.smoke { SMOKE_SCALE } else { SCALE };
    let mut times = write_graph_file(scale, args.seed, &path, rep, tr)?;
    let cold = Instant::now();
    let graph = read_graph_file(&path, rep, &mut times, tr)?;
    let problem = tr.span("from_graph_neighborhoods", "coverage", rep, || {
        CoverageProblem::from_graph_neighborhoods(&graph)
    });
    drop(graph);
    let shards = tr.span("shard_elements", "coverage", rep, || {
        problem.shard_elements(MACHINES)
    });
    let (cluster, cluster_start_s) = timed(|| {
        tr.span("ProcCluster::local_with", "cluster", rep, || {
            ProcCluster::local_with(MACHINES, NetworkModel::cluster_1gbps(), args.seed, |_| {
                CoverageShard::new(0)
            })
        })
    });
    let cluster = cluster.map_err(|e| format!("start cluster: {e}"))?;
    let k = if args.smoke { SMOKE_K } else { K }.min(problem.num_sets());
    let mut ready = Ready {
        problem,
        shards,
        cluster,
        k,
        first: NewGreediResult {
            seeds: Vec::new(),
            covered: 0,
            marginals: Vec::new(),
        },
        times,
        cluster_start_s,
    };
    let id = tr.begin("ship+newgreedi", "cluster", rep);
    ready.first = operation(&mut ready)?;
    tr.end(id);
    let cold_s = cold.elapsed().as_secs_f64();
    tr.end(span);
    Ok((ready, start.elapsed().as_secs_f64(), cold_s))
}

pub fn run(args: &RunArgs, tr: &mut Tracer) -> Result<Outcome, String> {
    let scratch = Scratch::new("maxcover-tcp").map_err(|e| e.to_string())?;
    let (mut ready, setup_s, cold_s) = set_up(args, &scratch, 0, tr)?;
    if args.setup_only {
        return Ok(setup_outcome(setup_s, cold_s));
    }
    if args.trace {
        return traced(args, &mut ready, tr);
    }

    let mut out = Outcome::new(&END_TO_END);
    let mut ops = Samples::default();
    let region = Instant::now();
    while region.elapsed().as_secs_f64() < args.seconds || ops.len() < 3 {
        let (result, secs) = timed(|| operation(&mut ready));
        ops.push(secs);
        out.attempted += 1;
        if result.as_ref() != Ok(&ready.first) {
            out.failed += 1;
        }
    }
    let region_s = region.elapsed().as_secs_f64();
    out.set("setup_s", setup_s);
    out.set("cold_start_s", cold_s);
    out.set("op_p50_ms", ops.p50_ms());
    out.set("op_tail_ms", ops.tail_ms());
    out.set("ops_per_s", ops.len() as f64 / region_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(ops.describe("ship + newgreedi"));
    out.note(format!(
        "sets={} incidences={} k={} covered={} link_errors={}",
        ready.problem.num_sets(),
        ready.problem.total_size(),
        ready.k,
        ready.first.covered,
        ready.cluster.link_errors()
    ));
    verify(&ready, &mut out);
    Ok(out)
}

/// Output check, untimed: NewGreeDi covers exactly what the centralized
/// greedy covers (Lemma 2), and the seeds really cover that many elements.
fn verify(ready: &Ready, out: &mut Outcome) {
    let central = bucket_greedy(&mut ready.problem.single_shard(), ready.k);
    out.check(
        &format!(
            "NewGreeDi covered {} == centralized greedy covered {}",
            ready.first.covered, central.covered
        ),
        ready.first.covered == central.covered && ready.first.marginals == central.marginals,
    );
    let recount = ready.problem.coverage_of(&ready.first.seeds);
    out.check(
        &format!("coverage_of(seeds) = {recount} equals the reported count"),
        recount == ready.first.covered,
    );
}

/// One operation with a span around each public call and the cluster's own
/// counters as children. Returns the two calls' counter deltas.
fn traced_operation(
    ready: &mut Ready,
    rep: u32,
    tr: &mut Tracer,
) -> Result<
    (
        Vec<(&'static str, ClusterMetrics)>,
        Vec<(&'static str, ClusterMetrics)>,
    ),
    String,
> {
    let root = tr.begin("ship+newgreedi", "harness", rep);
    let before = ready.cluster.timeline().clone();
    let span = tr.begin("round:build-shard", "cluster", rep);
    let shipped = ship(&mut ready.cluster, &ready.problem, &ready.shards);
    let ship_delta = timeline_delta(&before, ready.cluster.timeline());
    add_phase_children(tr, span, &ship_delta);
    tr.end(span);
    shipped?;

    let before = ready.cluster.timeline().clone();
    let span = tr.begin("newgreedi", "cluster", rep);
    let solved = newgreedi_with(&mut ready.cluster, ready.problem.num_sets(), ready.k);
    let solve_delta = timeline_delta(&before, ready.cluster.timeline());
    add_phase_children(tr, span, &solve_delta);
    tr.end(span);
    tr.end(root);
    match solved {
        Ok(r) if r == ready.first => Ok((ship_delta, solve_delta)),
        Ok(_) => Err("traced operation selected different seeds".into()),
        Err(e) => Err(format!("newgreedi: {e}")),
    }
}

fn traced(args: &RunArgs, ready: &mut Ready, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(&PER_LAYER);
    let pairs = if args.smoke { 1 } else { 5 };
    let mut plain = Samples::default();
    let mut spanned = Samples::default();
    let mut deltas = None;
    for rep in 0..pairs {
        for traced_side in [rep % 2 == 0, rep % 2 != 0] {
            if traced_side {
                let (r, secs) = timed(|| traced_operation(ready, rep, tr));
                deltas = Some(r?);
                spanned.push(secs);
            } else {
                let (r, secs) = timed(|| operation(ready));
                r?;
                plain.push(secs);
            }
        }
    }
    let (ship_delta, solve_delta) = deltas.expect("at least one traced operation");
    let root_idx = tr.last_named("ship+newgreedi").expect("span just recorded");
    set_layer_self_times(&mut out, tr, root_idx);
    out.set("core.unattributed_s", tr.self_secs(root_idx));
    let build_shard_s = tr
        .spans()
        .iter()
        .rfind(|s| s.name == "round:build-shard")
        .map_or(0.0, |s| s.secs());

    let ship = delta_total(&ship_delta);
    let solve = delta_total(&solve_delta);
    let label = |l: &str| {
        solve_delta
            .iter()
            .find(|(name, _)| *name == l)
            .map(|(_, m)| *m)
            .unwrap_or_default()
    };
    ready.times.record(&mut out);
    out.set("coverage.shard_build_s", ship.worker_compute.as_secs_f64());
    out.set(
        "coverage.initial_coverage_s",
        label(phase::COVERAGE_UPLOAD).worker_compute.as_secs_f64(),
    );
    out.set(
        "coverage.apply_seed_s",
        label(phase::DELTA_UPLOAD).worker_compute.as_secs_f64(),
    );
    out.set(
        "coverage.select_master_s",
        label(phase::SEED_SELECT).master_compute.as_secs_f64(),
    );
    out.set("cluster.rounds", (ship.phases + solve.phases) as f64);
    out.set("cluster.msgs", solve.messages as f64);
    out.set("cluster.bytes_up", solve.bytes_to_master as f64);
    out.set("cluster.bytes_down", solve.bytes_from_master as f64);
    out.set("cluster.build_shard_s", build_shard_s);
    out.set(
        "cluster.measured_comm_s",
        (ship.measured_comm + solve.measured_comm).as_secs_f64(),
    );
    out.set(
        "cluster.worker_busy_max_s",
        (ship.worker_compute + solve.worker_compute).as_secs_f64(),
    );
    out.set(
        "cluster.worker_busy_sum_s",
        (ship.worker_busy + solve.worker_busy).as_secs_f64(),
    );

    // Round-trip floor of one op on the live cluster: no payload, no work.
    let mut rtt = Samples::default();
    for _ in 0..if args.smoke { 50 } else { 500 } {
        let (r, secs) = timed(|| {
            ready
                .cluster
                .control(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
        });
        r.map_err(|e| format!("CoveredCount: {e}"))?;
        rtt.push(secs);
    }
    out.set("cluster.op_rtt_us", rtt.p50_ms() * 1e3);

    // Codec throughput on a real `Deltas` reply (one machine's initial
    // coverage), through the public encode/decode.
    let reply = WorkerReply::Deltas(ready.shards[0].initial_coverage());
    let bytes = reply.encode();
    let mb = bytes.len() as f64 / 1e6;
    let loops = if args.smoke { 3 } else { 20 };
    let ((), encode_s) = timed(|| {
        for _ in 0..loops {
            std::hint::black_box(std::hint::black_box(&reply).encode());
        }
    });
    let ((), decode_s) = timed(|| {
        for _ in 0..loops {
            std::hint::black_box(WorkerReply::decode(std::hint::black_box(&bytes)));
        }
    });
    out.set("cluster.wire_encode_MBps", mb * loops as f64 / encode_s);
    out.set("cluster.wire_decode_MBps", mb * loops as f64 / decode_s);

    // Parallel efficiency against the plain single-threaded solve of the
    // same problem: build one shard, run the bucket greedy.
    let mut sequential = Samples::default();
    for _ in 0..if args.smoke { 1 } else { 3 } {
        let (r, secs) = timed(|| bucket_greedy(&mut ready.problem.single_shard(), ready.k));
        std::hint::black_box(&r);
        sequential.push(secs);
    }
    let op_s = spanned.p50_ms() / 1e3;
    out.set(
        "cluster.parallel_efficiency",
        sequential.p50_ms() / 1e3 / (MACHINES as f64 * op_s),
    );

    set_trace_summary(&mut out, tr, &spanned, &plain);
    out.attempted += (spanned.len() + plain.len()) as u64;
    out.note(spanned.describe("traced ship + newgreedi"));
    out.note(plain.describe("untraced ship + newgreedi"));
    out.note(format!(
        "cluster start {:.4} s; sequential bucket greedy {:.3} s; RR sets sampled: 0",
        ready.cluster_start_s,
        sequential.p50_ms() / 1e3
    ));
    Ok(out)
}
