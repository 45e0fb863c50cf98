//! `im-ic`: the paper's headline path. DiIMM under independent cascade with
//! weighted-cascade probabilities on a LiveJournal-shaped graph, two
//! simulated machines on real threads, no TCP and no disk in the timed
//! region. dim-diffusion does about three quarters of the work, so a
//! sampler, RNG or arena change shows here and nowhere else.
//!
//! Operation: one full `dim_core::diimm` solve (k = 50, ε = 0.1, δ = 1/n).

use std::time::Instant;

use dim_cluster::{
    phase, ClusterBackend, ExecMode, NetworkModel, OpCluster, PhaseTimeline, SimCluster, WorkerOp,
};
use dim_core::diimm::DiimmWorker;
use dim_core::{ImConfig, ImParams, ImResult};
use dim_coverage::newgreedi::{newgreedi_incremental, NewGreediResult};
use dim_coverage::CoverageShard;
use dim_diffusion::forward::estimate_spread;
use dim_graph::Graph;

use super::{
    add_phase_children, im_config, read_graph_file, set_layer_self_times, set_trace_summary,
    setup_outcome, timed, timeline_delta, write_graph_file, GraphTimes, RunArgs, Samples, MACHINES,
};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::sys::{peak_rss_mb, Scratch};
use crate::trace::Tracer;

/// `profile:livejournal:0.02`: n ≈ 97 k, m ≈ 2.76 M. One solve draws
/// θ ≈ 232 k RR sets and takes ≈ 0.8 s on this box.
const SCALE: f64 = 0.02;
const SMOKE_SCALE: f64 = 0.002;
/// Not the paper's 50: on this graph k = 50 leaves the spread estimate
/// within 2 % of the threshold that ends the lower-bound search at round 2,
/// so the search takes 2 rounds on some seeds and 3 on others and the solve
/// time is bimodal (1.27 s or 1.82 s). k = 20 sits 16 % below the threshold:
/// 3 rounds on every seed tried.
pub const K: usize = 20;

fn solve(graph: &Graph, config: &ImConfig, mode: ExecMode) -> Result<ImResult, String> {
    dim_core::diimm(graph, config, MACHINES, NetworkModel::cluster_1gbps(), mode)
        .map_err(|e| format!("diimm: {e}"))
}

struct Ready {
    graph: Graph,
    config: ImConfig,
    /// The warm-up solve; every timed solve must reproduce it exactly.
    first: ImResult,
    times: GraphTimes,
}

/// One set-up: graph file on disk → graph in memory → first solve.
/// Returns the state, the whole set-up's seconds and the cold start's.
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
    let config = im_config(&graph, args.seed, K, args.smoke);
    let first = tr.span("diimm", "core", rep, || {
        solve(&graph, &config, ExecMode::Threads)
    })?;
    let cold_s = cold.elapsed().as_secs_f64();
    tr.end(span);
    Ok((
        Ready {
            graph,
            config,
            first,
            times,
        },
        start.elapsed().as_secs_f64(),
        cold_s,
    ))
}

pub fn run(args: &RunArgs, tr: &mut Tracer) -> Result<Outcome, String> {
    let scratch = Scratch::new("im-ic").map_err(|e| e.to_string())?;
    let (ready, setup_s, cold_s) = set_up(args, &scratch, 0, tr)?;
    if args.setup_only {
        return Ok(setup_outcome(setup_s, cold_s));
    }
    if args.trace {
        return traced(args, &ready, tr);
    }

    let mut out = Outcome::new(&END_TO_END);
    let mut solves = Samples::default();
    let region = Instant::now();
    while region.elapsed().as_secs_f64() < args.seconds || solves.len() < 3 {
        let (result, secs) = timed(|| solve(&ready.graph, &ready.config, ExecMode::Threads));
        solves.push(secs);
        out.attempted += 1;
        match result {
            Ok(r) if r.seeds == ready.first.seeds && r.marginals == ready.first.marginals => {}
            _ => out.failed += 1,
        }
    }
    let region_s = region.elapsed().as_secs_f64();
    out.set("setup_s", setup_s);
    out.set("cold_start_s", cold_s);
    out.set("op_p50_ms", solves.p50_ms());
    out.set("op_tail_ms", solves.tail_ms());
    out.set("ops_per_s", solves.len() as f64 / region_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(solves.describe("diimm solve"));
    out.note(format!(
        "n={} m={} theta={} rounds={} est_spread={:.1}",
        ready.graph.num_nodes(),
        ready.graph.num_edges(),
        ready.first.num_rr_sets,
        ready.first.rounds,
        ready.first.est_spread
    ));
    verify(args, &ready, &mut out)?;
    Ok(out)
}

/// Output checks, untimed: the thread-parallel result is byte-identical to
/// the sequential one, and the coverage-based spread estimate agrees with
/// an independent forward Monte-Carlo simulation of the returned seeds.
fn verify(args: &RunArgs, ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    let sequential = solve(&ready.graph, &ready.config, ExecMode::Sequential)?;
    out.check(
        "seeds and marginals identical between ExecMode::Threads and ExecMode::Sequential",
        sequential.seeds == ready.first.seeds && sequential.marginals == ready.first.marginals,
    );
    let runs = if args.smoke { 64 } else { 128 };
    let simulated = estimate_spread(
        &ready.graph,
        ready.config.sampler.model(),
        &ready.first.seeds,
        runs,
        args.seed ^ 0x5111,
    );
    let gap = (ready.first.est_spread - simulated).abs() / simulated;
    // ε = 0.5 in smoke mode leaves the estimate looser than the 5 % the
    // full-size run is held to.
    let tolerance = if args.smoke { 0.25 } else { 0.05 };
    out.check(
        &format!(
            "est_spread {:.1} within {:.0} % of forward Monte-Carlo {simulated:.1} ({runs} cascades, gap {:.2} %)",
            ready.first.est_spread,
            tolerance * 100.0,
            gap * 100.0
        ),
        gap <= tolerance,
    );
    Ok(())
}

/// `diimm_on` replayed through the same public op rounds, with a span
/// around each: what `dim_core::diimm` does inside one call, made visible.
struct Staged<'g> {
    result: NewGreediResult,
    theta: usize,
    cluster: SimCluster<DiimmWorker<'g>>,
}

fn staged_diimm<'g>(
    graph: &'g Graph,
    config: &ImConfig,
    rep: u32,
    tr: &mut Tracer,
) -> Result<Staged<'g>, String> {
    let n = graph.num_nodes();
    let params = ImParams::derive(n, config.k, config.epsilon, config.delta);
    let workers: Vec<DiimmWorker> = (0..MACHINES)
        .map(|i| DiimmWorker::new(graph, config, i))
        .collect();
    let mut cluster = SimCluster::new(workers, NetworkModel::cluster_1gbps(), ExecMode::Threads);
    let mut base = vec![0u64; n];

    let sample_up_to = |cluster: &mut SimCluster<DiimmWorker<'g>>,
                        tr: &mut Tracer,
                        from: usize,
                        to: usize|
     -> Result<(), String> {
        if to <= from {
            return Ok(());
        }
        let total = to - from;
        let before = cluster.timeline().clone();
        let span = tr.begin("round:sample-rr", "cluster", rep);
        let replies = cluster.control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
            count: (total / MACHINES + usize::from(i < total % MACHINES)) as u64,
        });
        add_phase_children(tr, span, &timeline_delta(&before, cluster.timeline()));
        tr.end(span);
        replies.map(drop).map_err(|e| format!("sample round: {e}"))
    };
    let mut select = |cluster: &mut SimCluster<DiimmWorker<'g>>,
                      tr: &mut Tracer|
     -> Result<NewGreediResult, String> {
        let before = cluster.timeline().clone();
        let span = tr.begin("newgreedi", "cluster", rep);
        let r = newgreedi_incremental(cluster, config.k, &mut base);
        add_phase_children(tr, span, &timeline_delta(&before, cluster.timeline()));
        tr.end(span);
        r.map_err(|e| format!("newgreedi: {e}"))
    };

    let mut theta = 0usize;
    let mut lower_bound = 1.0f64;
    let mut last = None;
    for t in 1..=params.max_rounds() {
        let target = params.theta_at(t);
        sample_up_to(&mut cluster, tr, theta, target)?;
        theta = theta.max(target);
        let r = select(&mut cluster, tr)?;
        let estimate = n as f64 * r.covered as f64 / theta as f64;
        last = Some(r);
        if estimate >= (1.0 + params.epsilon_prime) * (n as f64 / 2f64.powi(t as i32)) {
            lower_bound = estimate / (1.0 + params.epsilon_prime);
            break;
        }
    }
    let target = params.theta_final(lower_bound);
    let result = match last {
        Some(last) if target <= theta => last,
        _ => {
            sample_up_to(&mut cluster, tr, theta, target)?;
            theta = theta.max(target);
            select(&mut cluster, tr)?
        }
    };
    Ok(Staged {
        result,
        theta,
        cluster,
    })
}

/// Replays `push_element` + `prepare` over the RR sets a worker drew, to
/// split the sampling round's worker time into sampler and arena. Returns
/// the slowest machine's `(push, prepare)` seconds.
fn replay_shard_build(workers: &[DiimmWorker], n: usize) -> (f64, f64) {
    let mut slowest = (0.0f64, 0.0f64);
    for w in workers {
        let sets = w.shard.elements();
        let mut shard = CoverageShard::new(n);
        let ((), push_s) = timed(|| {
            for j in 0..sets.len() {
                shard.push_element(sets.get(j));
            }
        });
        let ((), prepare_s) = timed(|| shard.prepare());
        std::hint::black_box(&shard);
        slowest = (slowest.0.max(push_s), slowest.1.max(prepare_s));
    }
    slowest
}

fn traced(args: &RunArgs, ready: &Ready, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(&PER_LAYER);
    let pairs = if args.smoke { 1 } else { 3 };
    let mut plain = Samples::default();
    let mut spanned = Samples::default();
    for rep in 0..pairs {
        // Alternate which side runs first, so drift hits both alike.
        for traced_side in [rep % 2 == 0, rep % 2 != 0] {
            if traced_side {
                let span = tr.begin("diimm", "core", rep);
                let (r, secs) = timed(|| solve(&ready.graph, &ready.config, ExecMode::Threads));
                let r = r?;
                add_phase_children(
                    tr,
                    span,
                    &timeline_delta(&PhaseTimeline::new(), &r.timeline),
                );
                tr.end(span);
                spanned.push(secs);
            } else {
                let (r, secs) = timed(|| solve(&ready.graph, &ready.config, ExecMode::Threads));
                r?;
                plain.push(secs);
            }
        }
    }

    // The staged replay: same op rounds, one span each.
    let root = tr.begin("staged-diimm", "harness", 0);
    let staged = staged_diimm(&ready.graph, &ready.config, 0, tr)?;
    tr.end(root);
    out.check(
        "staged replay selects the seeds diimm() selects",
        staged.result.seeds == ready.first.seeds && staged.theta == ready.first.num_rr_sets,
    );
    let root_idx = tr.last_named("staged-diimm").expect("span just recorded");
    let solve_s = spanned.p50_ms() / 1e3;
    out.set("core.unattributed_s", solve_s - tr.children_secs(root_idx));

    let timeline = staged.cluster.timeline().clone();
    let total = timeline.total();
    let workers = staged.cluster.into_workers();
    let (push_s, prepare_s) = replay_shard_build(&workers, ready.graph.num_nodes());
    let sampling_workers_s = timeline
        .get(phase::RR_SAMPLING)
        .worker_compute
        .as_secs_f64();
    let sample_s = sampling_workers_s - push_s;
    // The sampling rounds' worker time is sampler plus arena push; hand the
    // replayed push time to dim-coverage, in proportion to each round.
    let rounds: Vec<(usize, f64)> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(i, s)| *i > root_idx && s.name == "workers:rr-sampling")
        .map(|(i, s)| (i, s.secs()))
        .collect();
    for (i, secs) in rounds {
        tr.child_at(
            i,
            "arena:push_element",
            "coverage",
            push_s * secs / sampling_workers_s,
        );
    }
    set_layer_self_times(&mut out, tr, root_idx);
    let first = &ready.first;
    ready.times.record(&mut out);
    out.set("diffusion.sample_s", sample_s);
    out.set("diffusion.rr_sets", first.num_rr_sets as f64);
    out.set(
        "diffusion.rr_sets_per_s",
        first.num_rr_sets as f64 / sample_s,
    );
    out.set("diffusion.edges_examined", first.edges_examined as f64);
    out.set(
        "diffusion.edges_per_s",
        first.edges_examined as f64 / sample_s,
    );
    out.set(
        "diffusion.mean_rr_size",
        first.total_rr_size as f64 / first.num_rr_sets as f64,
    );
    out.set("coverage.shard_build_s", push_s + prepare_s);
    out.set(
        "coverage.initial_coverage_s",
        timeline
            .get(phase::COVERAGE_UPLOAD)
            .worker_compute
            .as_secs_f64(),
    );
    out.set(
        "coverage.apply_seed_s",
        timeline
            .get(phase::DELTA_UPLOAD)
            .worker_compute
            .as_secs_f64(),
    );
    out.set(
        "coverage.select_master_s",
        timeline
            .get(phase::SEED_SELECT)
            .master_compute
            .as_secs_f64(),
    );
    out.set("cluster.rounds", total.phases as f64);
    out.set("cluster.msgs", total.messages as f64);
    out.set("cluster.bytes_up", total.bytes_to_master as f64);
    out.set("cluster.bytes_down", total.bytes_from_master as f64);
    out.set(
        "cluster.worker_busy_max_s",
        total.worker_compute.as_secs_f64(),
    );
    out.set("cluster.worker_busy_sum_s", total.worker_busy.as_secs_f64());
    out.set("core.theta", first.num_rr_sets as f64);
    out.set("core.diimm_rounds", first.rounds as f64);
    out.set(
        "core.sampling_phase_s",
        first.timings.sampling.as_secs_f64(),
    );
    out.set(
        "core.selection_phase_s",
        first.timings.selection.as_secs_f64(),
    );

    // Parallel efficiency against the plain single-threaded solve of the
    // same problem: sequential time ÷ (machines × parallel time).
    let mut sequential = Samples::default();
    for _ in 0..if args.smoke { 1 } else { 3 } {
        let (r, secs) = timed(|| dim_core::imm(&ready.graph, &ready.config));
        std::hint::black_box(&r);
        sequential.push(secs);
    }
    let sequential_s = sequential.p50_ms() / 1e3;
    out.set(
        "cluster.parallel_efficiency",
        sequential_s / (MACHINES as f64 * solve_s),
    );

    set_trace_summary(&mut out, tr, &spanned, &plain);
    out.attempted += (spanned.len() + plain.len()) as u64;
    out.note(spanned.describe("traced diimm solve"));
    out.note(plain.describe("untraced diimm solve"));
    out.note(format!(
        "sequential imm(): {sequential_s:.3} s; sampling round workers {sampling_workers_s:.3} s = sampler {sample_s:.3} s + arena push {push_s:.3} s; sampler share of solve {:.1} %",
        100.0 * sample_s / solve_s
    ));
    Ok(out)
}
