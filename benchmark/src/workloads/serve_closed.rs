//! `serve-closed`: the read side. A sketch sampled once and persisted, an
//! in-process `dim_serve::Server` with two workers on loopback, and two
//! closed-loop `QueryClient` connections (each sends its next request only
//! when the previous reply has arrived; no rate is imposed, so the numbers
//! below are latency and throughput at concurrency 2, not a sustainable
//! rate). Evaluation is ~30 µs of a ~100-450 µs round trip, so transport,
//! queue and codec dominate and nothing is sampled: this is the workload
//! for serve-loop, proto and observability-overhead changes, and the one
//! that catches a selection-side layout change that slows read-only cursors.
//!
//! Phase A (55 % of the timed region): single-frame queries, 94 % `Spread`
//! of 4 seeds, 5 % `Spread` of 50 seeds, 1 % `TopK` k = 10, seeds Zipf(1.0).
//! `op_p50_ms` / `op_tail_ms` rank the 4-seed class exactly.
//! Phase B (30 %): the same spread stream as `REQ_BATCH` x 32: `ops_per_s`.
//! Phase C (the rest, 3 to 7 of them): cold starts, newest generation on
//! disk to first reply: `cold_start_s`, together with the set-ups' own.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dim_cluster::{phase, ExecMode, NetworkModel};
use dim_core::{diimm_sample_generation, load_latest_rr_snapshot, ImConfig, ImResult};
use dim_coverage::{constrained_greedy, seed_set_coverage, SketchCursors};
use dim_graph::Graph;
use dim_serve::{QueryClient, QueryRequest, QueryResponse, ServeOptions, Server, Sketch};

use super::{
    im_config, read_graph_file, set_layer_self_times, set_trace_summary, setup_outcome, timed,
    write_graph_file, GraphTimes, RunArgs, Samples, MACHINES,
};
use crate::inputs::{query_pool, QueryClass, Zipf};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::sys::{dir_bytes, peak_rss_mb, Scratch};
use crate::trace::Tracer;

/// Same graph and k as `im-ic`, so θ ≈ 232 k RR sets in 2 shards.
const SCALE: f64 = 0.02;
const SMOKE_SCALE: f64 = 0.002;
const CLIENTS: usize = 2;
const BATCH: usize = 32;
const POOL: usize = 1 << 16;
const SMOKE_POOL: usize = 1 << 10;

type Pool = Vec<(QueryClass, QueryRequest)>;

struct Ready {
    graph: Graph,
    config: ImConfig,
    root: PathBuf,
    server: Server,
    pools: Vec<Pool>,
    sampled: ImResult,
    times: GraphTimes,
    sample_persist_s: f64,
    store_bytes: u64,
    cold: ColdStart,
}

/// The stages of one cold start, in seconds.
#[derive(Clone, Copy, Default)]
struct ColdStart {
    load_s: f64,
    sketch_s: f64,
    start_s: f64,
    first_reply_s: f64,
}

impl ColdStart {
    fn total(&self) -> f64 {
        self.load_s + self.sketch_s + self.start_s + self.first_reply_s
    }
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: CLIENTS,
        ..ServeOptions::default()
    }
}

/// Newest generation on disk → sketch → server → first reply.
fn cold_start(
    graph: &Graph,
    config: &ImConfig,
    root: &Path,
    probe: &QueryRequest,
    rep: u32,
    tr: &mut Tracer,
) -> Result<(Server, ColdStart), String> {
    let span = tr.begin("cold-start", "harness", rep);
    let (loaded, load_s) = timed(|| {
        tr.span("load_latest_rr_snapshot", "store", rep, || {
            load_latest_rr_snapshot(graph, config, root)
        })
    });
    let (generation, snapshot) = loaded.map_err(|e| format!("load snapshot: {e}"))?;
    let (sketch, sketch_s) = timed(|| {
        tr.span("Sketch::from_snapshot", "serve", rep, || {
            Sketch::from_snapshot(graph.num_nodes(), snapshot)
        })
    });
    let (server, start_s) = timed(|| {
        tr.span("Server::start_with", "serve", rep, || {
            Server::start_with(
                "127.0.0.1:0",
                sketch,
                ServeOptions {
                    generation,
                    ..options()
                },
            )
        })
    });
    let server = server.map_err(|e| format!("start server: {e}"))?;
    let (reply, first_reply_s) = timed(|| {
        tr.span("first-reply", "serve", rep, || {
            QueryClient::connect(server.local_addr())?.request(probe)
        })
    });
    tr.end(span);
    match reply {
        Ok(QueryResponse::Spread { .. }) => Ok((
            server,
            ColdStart {
                load_s,
                sketch_s,
                start_s,
                first_reply_s,
            },
        )),
        other => Err(format!("first reply after cold start: {other:?}")),
    }
}

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
    let graph = read_graph_file(&path, rep, &mut times, tr)?;
    let config = im_config(&graph, args.seed, super::im_ic::K, args.smoke);
    let root = scratch.fresh("store").map_err(|e| e.to_string())?;
    let (sampled, sample_persist_s) = timed(|| {
        tr.span("diimm_sample_generation", "core", rep, || {
            diimm_sample_generation(
                &graph,
                &config,
                MACHINES,
                NetworkModel::cluster_1gbps(),
                ExecMode::Threads,
                &root,
                2,
            )
        })
    });
    let (_, sampled) = sampled.map_err(|e| format!("sample generation: {e}"))?;
    let store_bytes = dir_bytes(&root);

    let zipf = Zipf::new(graph.num_nodes());
    let pool_len = if args.smoke { SMOKE_POOL } else { POOL };
    let pools: Vec<Pool> = (0..CLIENTS)
        .map(|c| query_pool(&zipf, args.seed, c, pool_len))
        .collect();
    let probe = first_spread(&pools[0]);
    let (server, cold) = cold_start(&graph, &config, &root, &probe, rep, tr)?;
    // Warm-up: both connections' first few hundred requests (thread
    // start, allocator, page faults on the sketch) stay out of phase A.
    let warm = phase_a(
        server.local_addr(),
        &pools,
        Duration::from_millis(200),
        false,
    )?;
    if warm.iter().any(|c| c.failed > 0) {
        return Err("warm-up queries were refused".into());
    }
    tr.end(span);
    let ready = Ready {
        graph,
        config,
        root,
        server,
        pools,
        sampled,
        times,
        sample_persist_s,
        store_bytes,
        cold,
    };
    Ok((ready, start.elapsed().as_secs_f64(), cold.total()))
}

fn first_spread(pool: &Pool) -> QueryRequest {
    pool.iter()
        .find(|(class, _)| *class == QueryClass::Spread4)
        .map(|(_, q)| q.clone())
        .expect("94 % of the pool is 4-seed spreads")
}

/// What one client connection saw during a phase.
struct ClientReport {
    spread4: Samples,
    spread50: Samples,
    topk: Samples,
    /// Batch frames (phase B only).
    frames: Samples,
    answered: u64,
    failed: u64,
    /// Replies kept for the untimed output check: one in a hundred.
    kept: Vec<(QueryRequest, QueryResponse)>,
    started: Instant,
    ended: Instant,
    tracer: Tracer,
}

impl ClientReport {
    fn new(trace: bool) -> Self {
        let now = Instant::now();
        ClientReport {
            spread4: Samples::default(),
            spread50: Samples::default(),
            topk: Samples::default(),
            frames: Samples::default(),
            answered: 0,
            failed: 0,
            kept: Vec::new(),
            started: now,
            ended: now,
            tracer: Tracer::new(trace),
        }
    }
}

/// Runs one closed-loop client per pool until `length` has passed, all
/// released together. A wire failure aborts the run; a typed refusal is
/// counted as a failed operation.
fn run_clients<F>(
    pools: usize,
    length: Duration,
    trace: bool,
    client: F,
) -> Result<Vec<ClientReport>, String>
where
    F: Fn(usize, Instant, &mut ClientReport) -> std::io::Result<()> + Sync,
{
    let barrier = Barrier::new(pools);
    let reports: Vec<std::io::Result<ClientReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pools)
            .map(|c| {
                let (barrier, client) = (&barrier, &client);
                scope.spawn(move || {
                    let mut report = ClientReport::new(trace);
                    barrier.wait();
                    report.started = Instant::now();
                    client(c, report.started + length, &mut report)?;
                    report.ended = Instant::now();
                    Ok(report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    reports
        .into_iter()
        .map(|r| r.map_err(|e| format!("client connection: {e}")))
        .collect()
}

/// Phase A: single-frame requests, the full mix.
fn phase_a(
    addr: SocketAddr,
    pools: &[Pool],
    length: Duration,
    trace: bool,
) -> Result<Vec<ClientReport>, String> {
    run_clients(pools.len(), length, trace, |c, deadline, report| {
        let mut client = QueryClient::connect(addr)?;
        let pool = &pools[c];
        let mut i = 0usize;
        while Instant::now() < deadline {
            let (class, request) = &pool[i % pool.len()];
            let name = match class {
                QueryClass::Spread4 => "request:spread4",
                QueryClass::Spread50 => "request:spread50",
                QueryClass::TopK => "request:topk",
            };
            let span = report.tracer.begin(name, "serve", c as u32);
            let sent = Instant::now();
            let reply = client.request(request)?;
            let secs = sent.elapsed().as_secs_f64();
            report.tracer.end(span);
            match (class, &reply) {
                (QueryClass::Spread4, QueryResponse::Spread { .. }) => report.spread4.push(secs),
                (QueryClass::Spread50, QueryResponse::Spread { .. }) => report.spread50.push(secs),
                (QueryClass::TopK, QueryResponse::TopK { .. }) => report.topk.push(secs),
                _ => report.failed += 1,
            }
            report.answered += 1;
            if i % 100 == 0 {
                report.kept.push((request.clone(), reply));
            }
            i += 1;
        }
        Ok(())
    })
}

/// Phase B: the spread stream of the same pools, 32 queries per frame.
fn phase_b(
    addr: SocketAddr,
    pools: &[Pool],
    length: Duration,
    trace: bool,
) -> Result<Vec<ClientReport>, String> {
    let spreads: Vec<Vec<QueryRequest>> = pools
        .iter()
        .map(|pool| {
            pool.iter()
                .filter(|(class, _)| *class != QueryClass::TopK)
                .map(|(_, q)| q.clone())
                .collect()
        })
        .collect();
    run_clients(pools.len(), length, trace, |c, deadline, report| {
        let mut client = QueryClient::connect(addr)?;
        let stream = &spreads[c];
        let frames = stream.len() / BATCH;
        let mut b = 0usize;
        while Instant::now() < deadline {
            let at = (b % frames) * BATCH;
            let chunk = &stream[at..at + BATCH];
            let span = report.tracer.begin("request:batch32", "serve", c as u32);
            let sent = Instant::now();
            let replies = client.batch(chunk)?;
            report.frames.push(sent.elapsed().as_secs_f64());
            report.tracer.end(span);
            report.failed += replies
                .iter()
                .filter(|r| !matches!(r, QueryResponse::Spread { .. }))
                .count() as u64;
            report.answered += replies.len() as u64;
            if b % 3 == 0 {
                let pick = (b / 3) % BATCH;
                report
                    .kept
                    .push((chunk[pick].clone(), replies[pick].clone()));
            }
            b += 1;
        }
        Ok(())
    })
}

/// Wall time of a phase: first release to last client done.
fn phase_wall(reports: &[ClientReport]) -> f64 {
    let start = reports
        .iter()
        .map(|r| r.started)
        .min()
        .expect("clients ran");
    let end = reports.iter().map(|r| r.ended).max().expect("clients ran");
    end.duration_since(start).as_secs_f64()
}

fn merged(reports: &[ClientReport], pick: impl Fn(&ClientReport) -> &Samples) -> Samples {
    Samples(
        reports
            .iter()
            .flat_map(|r| pick(r).0.iter().copied())
            .collect(),
    )
}

/// Output check, untimed: every kept reply equals direct evaluation on a
/// sketch loaded separately from the same store.
fn verify_replies(sketch: &Sketch, reports: &[ClientReport], out: &mut Outcome, what: &str) {
    let mut checked = 0u64;
    let mut wrong = 0u64;
    let unconstrained = constrained_greedy(sketch.shards(), 10, &[], &[]);
    for (request, reply) in reports.iter().flat_map(|r| &r.kept) {
        checked += 1;
        let ok = match (request, reply) {
            (QueryRequest::Spread { seeds }, QueryResponse::Spread { covered, theta, .. }) => {
                *covered == seed_set_coverage(sketch.shards(), seeds) && *theta == sketch.theta()
            }
            (QueryRequest::TopK { .. }, QueryResponse::TopK { seeds, covered, .. }) => {
                *seeds == unconstrained.seeds && *covered == unconstrained.covered
            }
            _ => false,
        };
        wrong += u64::from(!ok);
    }
    out.check(
        &format!(
            "{what}: {checked} sampled replies equal direct seed_set_coverage ({wrong} differ)"
        ),
        wrong == 0 && checked > 0,
    );
}

/// The sketch the server serves, loaded again for direct evaluation.
fn load_sketch(graph: &Graph, config: &ImConfig, root: &Path) -> Result<Sketch, String> {
    let (_, snapshot) = load_latest_rr_snapshot(graph, config, root)
        .map_err(|e| format!("load snapshot for checking: {e}"))?;
    Ok(Sketch::from_snapshot(graph.num_nodes(), snapshot))
}

pub fn run(args: &RunArgs, tr: &mut Tracer) -> Result<Outcome, String> {
    let scratch = Scratch::new("serve-closed").map_err(|e| e.to_string())?;
    let (ready, setup_s, first_cold_s) = set_up(args, &scratch, 0, tr)?;
    if args.setup_only {
        ready.server.shutdown();
        return Ok(setup_outcome(setup_s, first_cold_s));
    }
    if args.trace {
        return traced(args, ready, tr);
    }
    let mut cold_s = vec![first_cold_s];

    let mut out = Outcome::new(&END_TO_END);
    let addr = ready.server.local_addr();
    let a = phase_a(
        addr,
        &ready.pools,
        Duration::from_secs_f64(args.seconds * 0.55),
        false,
    )?;
    let b = phase_b(
        addr,
        &ready.pools,
        Duration::from_secs_f64(args.seconds * 0.30),
        false,
    )?;
    let stats = QueryClient::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| e.to_string())?;

    // Phase C: the serving process is gone; bring it back from disk.
    let Ready {
        server,
        graph,
        config,
        root,
        pools,
        sampled,
        ..
    } = ready;
    server.shutdown();
    let probe = first_spread(&pools[0]);
    let budget = Instant::now() + Duration::from_secs_f64(args.seconds * 0.15);
    let mut phase_c = 0u32;
    while phase_c < 3 || (phase_c < 7 && Instant::now() < budget) {
        let (server, cold) = cold_start(&graph, &config, &root, &probe, phase_c, tr)?;
        server.shutdown();
        cold_s.push(cold.total());
        phase_c += 1;
    }
    out.set("peak_rss_mb", peak_rss_mb());

    let spread4 = merged(&a, |r| &r.spread4);
    let answered_a: u64 = a.iter().map(|r| r.answered).sum();
    let answered_b: u64 = b.iter().map(|r| r.answered).sum();
    out.attempted += answered_a + answered_b + phase_c as u64;
    out.failed += a.iter().chain(&b).map(|r| r.failed).sum::<u64>() + stats.shed;
    out.set("setup_s", setup_s);
    out.set("cold_start_s", median(&cold_s));
    out.set("op_p50_ms", spread4.p50_ms());
    out.set("op_tail_ms", spread4.tail_ms());
    out.set("ops_per_s", answered_b as f64 / phase_wall(&b));
    out.note(spread4.describe("phase A Spread(4 seeds), single frame"));
    out.note(merged(&a, |r| &r.spread50).describe("phase A Spread(50 seeds)"));
    out.note(merged(&a, |r| &r.topk).describe("phase A TopK(k=10)"));
    out.note(format!(
        "phase A: {answered_a} queries, {:.0} queries/s on {CLIENTS} connections",
        answered_a as f64 / phase_wall(&a)
    ));
    out.note(merged(&b, |r| &r.frames).describe("phase B REQ_BATCH x 32 frame"));
    out.note(format!(
        "phase B: {answered_b} queries; phase C: {phase_c} cold starts (+1 in set-up); theta={} shed={}",
        sampled.num_rr_sets,
        stats.shed
    ));

    let sketch = load_sketch(&graph, &config, &root)?;
    verify_replies(&sketch, &a, &mut out, "phase A");
    verify_replies(&sketch, &b, &mut out, "phase B");
    Ok(out)
}

/// Median seconds per call of `f` over `calls` calls.
fn per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Samples::default();
    for i in 0..calls {
        let ((), secs) = timed(|| f(i));
        samples.push(secs);
    }
    samples.p50_ms() / 1e3
}

fn traced(args: &RunArgs, ready: Ready, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(&PER_LAYER);
    let addr = ready.server.local_addr();
    let slice = Duration::from_secs_f64(args.seconds * 0.15);
    // Untraced and traced slices of both phases, back to back.
    let plain_a = phase_a(addr, &ready.pools, slice, false)?;
    let traced_a = phase_a(addr, &ready.pools, slice, true)?;
    let plain_b = phase_b(addr, &ready.pools, slice, false)?;
    let traced_b = phase_b(addr, &ready.pools, slice, true)?;

    // The round-trip floor: a request the server answers without touching
    // the sketch's shards (transport + queue + codec, no evaluation).
    let mut floor = Samples::default();
    let mut client = QueryClient::connect(addr).map_err(|e| e.to_string())?;
    for _ in 0..if args.smoke { 200 } else { 4000 } {
        let (r, secs) = timed(|| client.stats());
        r.map_err(|e| format!("REQ_STATS: {e}"))?;
        floor.push(secs);
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    drop(client);

    let sketch = load_sketch(&ready.graph, &ready.config, &ready.root)?;
    verify_replies(&sketch, &traced_a, &mut out, "traced phase A");
    verify_replies(&sketch, &traced_b, &mut out, "traced phase B");

    // In-process probes on the same sketch and the same query stream.
    let spreads: Vec<&QueryRequest> = ready.pools[0]
        .iter()
        .filter(|(class, _)| *class == QueryClass::Spread4)
        .map(|(_, q)| q)
        .take(if args.smoke { 200 } else { 4000 })
        .collect();
    let answer_s = per_call(spreads.len(), |i| {
        std::hint::black_box(sketch.answer(spreads[i]));
    });
    let mut cursors = SketchCursors::new(sketch.shards());
    let eval_s = per_call(spreads.len(), |i| {
        if let QueryRequest::Spread { seeds } = spreads[i] {
            std::hint::black_box(cursors.seed_set_coverage(seeds));
        }
    });
    let topk_s = per_call(if args.smoke { 3 } else { 20 }, |_| {
        std::hint::black_box(constrained_greedy(sketch.shards(), 10, &[], &[]));
    });
    let reply = sketch.answer(spreads[0]);
    let loops = 20_000;
    let ((), encode_s) = timed(|| {
        for i in 0..loops {
            std::hint::black_box(std::hint::black_box(spreads[i % spreads.len()]).encode());
            std::hint::black_box(std::hint::black_box(&reply).encode());
        }
    });
    let request_bytes = spreads[0].encode();
    let reply_bytes = reply.encode();
    let ((), decode_s) = timed(|| {
        for _ in 0..loops {
            std::hint::black_box(QueryRequest::decode(
                spreads[0].opcode(),
                std::hint::black_box(&request_bytes),
            ));
            std::hint::black_box(QueryResponse::decode(
                reply.opcode(),
                std::hint::black_box(&reply_bytes),
            ));
        }
    });

    let spread4 = merged(&traced_a, |r| &r.spread4);
    let plain4 = merged(&plain_a, |r| &r.spread4);
    let p50_s = spread4.p50_ms() / 1e3;
    // Spans: each client's requests, then the median request taken apart
    // with the probes above (evaluation is a child measured in process).
    for report in traced_a.into_iter().chain(traced_b) {
        tr.absorb(report.tracer);
    }
    let root = tr.begin("median-spread4-request", "serve", 0);
    tr.end(root);
    let root_idx = tr
        .last_named("median-spread4-request")
        .expect("span just recorded");
    tr.stretch(root_idx, p50_s);
    tr.child_at(
        root_idx,
        "SketchCursors::seed_set_coverage",
        "coverage",
        eval_s.min(p50_s),
    );
    set_layer_self_times(&mut out, tr, root_idx);

    let answered_a: u64 = plain_a.iter().map(|r| r.answered).sum();
    let answered_b: u64 = plain_b.iter().map(|r| r.answered).sum();
    out.attempted += answered_a + answered_b;
    ready.times.record(&mut out);
    out.set("coverage.spread_eval_us", eval_s * 1e6);
    out.set("coverage.topk_eval_us", topk_s * 1e6);
    out.set("core.theta", ready.sampled.num_rr_sets as f64);
    out.set("core.diimm_rounds", ready.sampled.rounds as f64);
    let persist_s = ready
        .sampled
        .timeline
        .get(phase::STORE_SAVE)
        .worker_compute
        .as_secs_f64();
    out.set("store.persist_s", persist_s);
    out.set("store.bytes_written", ready.store_bytes as f64);
    out.set(
        "store.write_MBps",
        ready.store_bytes as f64 / 1e6 / persist_s,
    );
    out.set("store.load_snapshot_s", ready.cold.load_s);
    out.set(
        "store.read_MBps",
        ready.store_bytes as f64 / 1e6 / ready.cold.load_s,
    );
    out.set("serve.proto_encode_ns", encode_s / loops as f64 * 1e9);
    out.set("serve.proto_decode_ns", decode_s / loops as f64 * 1e9);
    out.set("serve.answer_us", answer_s * 1e6);
    out.set("serve.server_p50_us", stats.p50_us as f64);
    out.set("serve.rtt_floor_us", floor.p50_ms() * 1e3);
    out.set("serve.transport_share", 1.0 - answer_s / p50_s);
    out.set("serve.start_s", ready.cold.sketch_s + ready.cold.start_s);
    out.set("serve.shed", stats.shed as f64);
    out.set("serve.queries_answered", stats.queries_answered as f64);
    out.set("serve.single_qps", answered_a as f64 / phase_wall(&plain_a));
    out.set(
        "serve.spread50_p50_us",
        merged(&plain_a, |r| &r.spread50).p50_ms() * 1e3,
    );
    out.set(
        "serve.topk_p50_us",
        merged(&plain_a, |r| &r.topk).p50_ms() * 1e3,
    );
    set_trace_summary(&mut out, tr, &spread4, &plain4);
    out.note(spread4.describe("traced Spread(4 seeds)"));
    out.note(plain4.describe("untraced Spread(4 seeds)"));
    out.note(format!(
        "untraced batch throughput {:.0} queries/s; sample+persist in set-up {:.3} s; RR sets sampled while serving: 0",
        answered_b as f64 / phase_wall(&plain_b),
        ready.sample_persist_s
    ));
    ready.server.shutdown();
    Ok(out)
}
