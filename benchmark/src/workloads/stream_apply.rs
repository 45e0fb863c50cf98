//! `stream-apply`: the same layers as `serve-closed`, used the other way
//! round. A `StreamSession` on a persisted sketch applies batches of 64
//! edge edits (insert / reweight / delete, endpoints Zipf-skewed towards
//! the hubs), each committed as one delta generation, then compacts and
//! re-selects. dim-coverage shards are *mutated*, dim-store *writes*,
//! dim-diffusion re-samples on per-set streams: a gain for the read or scan
//! path that costs the write or repair path shows here.
//!
//! Operation: one `StreamSession::apply(ops, persist = true)`. The timed
//! region is whole rounds of 8 batches + `compact` + `select`, because the
//! store's per-commit cost grows with the length of the delta chain (its GC
//! re-reads every delta shard): a batch at chain position 8 costs about
//! 1.5x one at position 1. Whole rounds keep the mix of chain positions the
//! same in every run. `ops_per_s` is edits per second over the region,
//! `compact` and `select` included.

use std::path::PathBuf;
use std::time::Instant;

use dim_cluster::{ExecMode, NetworkModel, SimCluster};
use dim_core::diimm::DiimmWorker;
use dim_core::{diimm_sample_generation, rr_snapshot_request, ImConfig, ImResult, StreamSession};
use dim_coverage::newgreedi::newgreedi_with;
use dim_graph::{apply_batch, DeltaBatch, EdgeOp, Graph};
use dim_store::{graph_fingerprint, write_delta_shard, DeltaShardHeader};

use super::{
    im_config, read_graph_file, set_layer_self_times, set_trace_summary, setup_outcome, timed,
    write_graph_file, GraphTimes, RunArgs, Samples, MACHINES,
};
use crate::inputs::{edit_batch, substream, SplitMix, Zipf};
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::sys::{dir_bytes, peak_rss_mb, Scratch};
use crate::trace::Tracer;

/// `profile:livejournal:0.005`: n ≈ 24 k, m ≈ 0.69 M, θ ≈ 253 k RR sets. A
/// quarter of the `serve-closed` graph: at full size a committed batch takes
/// 0.9 s and a compaction 3 s, which leaves a 10 s region four samples.
const SCALE: f64 = 0.005;
const SMOKE_SCALE: f64 = 0.002;
const EDITS: usize = 64;
/// The paper's k. On this graph the spread estimate sits 17 % above the
/// round-2 threshold of the lower-bound search (see `im_ic::K`).
const K: usize = 50;
/// Batches per round (each round ends with `compact` + `select`).
const ROUND: usize = 8;
const SMOKE_ROUND: usize = 2;
/// Generations kept by the store's GC after each commit (a live delta
/// chain pins its own links on top of that).
const KEEP: usize = 2;

/// Everything a session is opened on.
struct Base {
    graph: Graph,
    config: ImConfig,
    root: PathBuf,
    sampled: ImResult,
    times: GraphTimes,
}

fn prepare(args: &RunArgs, scratch: &Scratch, rep: u32, tr: &mut Tracer) -> Result<Base, String> {
    let path = scratch.path().join("graph.dimg");
    let scale = if args.smoke { SMOKE_SCALE } else { SCALE };
    let mut times = write_graph_file(scale, args.seed, &path, rep, tr)?;
    let graph = read_graph_file(&path, rep, &mut times, tr)?;
    let config = im_config(&graph, args.seed, K, args.smoke);
    let root = scratch.fresh("store").map_err(|e| e.to_string())?;
    let sampled = tr.span("diimm_sample_generation", "core", rep, || {
        diimm_sample_generation(
            &graph,
            &config,
            MACHINES,
            NetworkModel::cluster_1gbps(),
            ExecMode::Threads,
            &root,
            KEEP,
        )
    });
    let (_, sampled) = sampled.map_err(|e| format!("sample generation: {e}"))?;
    Ok(Base {
        graph,
        config,
        root,
        sampled,
        times,
    })
}

fn open<'g>(base: &'g Base, rep: u32, tr: &mut Tracer) -> Result<StreamSession<'g>, String> {
    tr.span("StreamSession::open", "core", rep, || {
        StreamSession::open(
            &base.graph,
            &base.config,
            &base.root,
            NetworkModel::cluster_1gbps(),
            ExecMode::Threads,
        )
    })
    .map_err(|e| format!("open session: {e}"))
}

/// The edit stream: one generator per run, so batch `i` is the same ops in
/// the untraced run, the traced run and the probes.
struct Edits {
    zipf: Zipf,
    rng: SplitMix,
    nodes: usize,
}

impl Edits {
    fn new(graph: &Graph, seed: u64) -> Self {
        Edits {
            zipf: Zipf::new(graph.num_nodes()),
            rng: substream(seed, 0xED17),
            nodes: graph.num_nodes(),
        }
    }

    fn next(&mut self) -> Vec<EdgeOp> {
        edit_batch(&self.zipf, &mut self.rng, self.nodes, EDITS)
    }
}

pub fn run(args: &RunArgs, tr: &mut Tracer) -> Result<Outcome, String> {
    let scratch = Scratch::new("stream-apply").map_err(|e| e.to_string())?;
    let start = Instant::now();
    let span = tr.begin("setup", "harness", 0);
    let base = prepare(args, &scratch, 0, tr)?;
    // Cold start: sketch on disk → resident session → first committed batch.
    let cold = Instant::now();
    let mut session = open(&base, 0, tr)?;
    let mut edits = Edits::new(&base.graph, args.seed);
    let first = edits.next();
    let warm = tr.span("StreamSession::apply", "core", 0, || {
        session.apply(first.clone(), true, KEEP)
    });
    warm.map_err(|e| format!("warm-up batch: {e}"))?;
    let cold_s = cold.elapsed().as_secs_f64();
    tr.end(span);
    let setup_s = start.elapsed().as_secs_f64();
    if args.setup_only {
        return Ok(setup_outcome(setup_s, cold_s));
    }
    if args.trace {
        return traced(args, &base, session, edits, first, &scratch, tr);
    }
    let mut out = measure(args, &base, session, edits)?;
    out.set("setup_s", setup_s);
    out.set("cold_start_s", cold_s);
    Ok(out)
}

fn measure(
    args: &RunArgs,
    base: &Base,
    mut session: StreamSession<'_>,
    mut edits: Edits,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(&END_TO_END);
    let mut batches = Samples::default();
    let mut compactions = Samples::default();
    let mut selections = Samples::default();
    let mut repaired = 0u64;
    let mut selected = None;
    let round = if args.smoke { SMOKE_ROUND } else { ROUND };
    let region = Instant::now();
    while region.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..round {
            let ops = edits.next();
            let (applied, secs) = timed(|| session.apply(ops, true, KEEP));
            batches.push(secs);
            out.attempted += 1;
            match applied {
                Ok(a) if a.generation.is_some() && a.ops == EDITS => repaired += a.sets_repaired,
                _ => out.failed += 1,
            }
        }
        let (compacted, secs) = timed(|| session.compact(KEEP));
        compactions.push(secs);
        let (result, secs) = timed(|| session.select());
        selections.push(secs);
        out.attempted += 2;
        out.failed += u64::from(!matches!(compacted, Ok(Some(_)))) + u64::from(result.is_err());
        selected = Some(result.map_err(|e| format!("select: {e}"))?);
    }
    let region_s = region.elapsed().as_secs_f64();
    let selected = selected.expect("at least one round ran");

    out.set("op_p50_ms", batches.p50_ms());
    out.set("op_tail_ms", batches.tail_ms());
    out.set("ops_per_s", (batches.len() * EDITS) as f64 / region_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.note(batches.describe("apply(64 edits, persist)"));
    out.note(format!(
        "{} rounds of {round} batches; {:.3} of the {} RR sets repaired per batch; compact p50 {:.1} ms; select p50 {:.1} ms; store {:.1} MB",
        compactions.len(),
        repaired as f64 / batches.len() as f64 / base.sampled.num_rr_sets as f64,
        base.sampled.num_rr_sets,
        compactions.p50_ms(),
        selections.p50_ms(),
        dir_bytes(&base.root) as f64 / 1e6
    ));
    verify(base, &session, &selected, &mut out)?;
    Ok(out)
}

/// Output check, untimed: selecting from the repaired shards gives exactly
/// what selecting from a full re-sample of the mutated graph gives.
fn verify(
    base: &Base,
    session: &StreamSession<'_>,
    selected: &ImResult,
    out: &mut Outcome,
) -> Result<(), String> {
    let request = rr_snapshot_request(&base.graph, &base.config);
    let (_, snapshot) = dim_store::load_latest_snapshot(&base.root, &request)
        .map_err(|e| format!("load snapshot for checking: {e}"))?;
    let mutated = session.current_graph();
    let workers: Vec<DiimmWorker> = snapshot
        .shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let mut w = DiimmWorker::new(mutated, &base.config, i);
            w.generate(shard.header.num_elements as usize);
            w
        })
        .collect();
    let mut cluster = SimCluster::new(workers, NetworkModel::cluster_1gbps(), ExecMode::Threads);
    let fresh = newgreedi_with(&mut cluster, mutated.num_nodes(), base.config.k)
        .map_err(|e| format!("select on the full re-sample: {e}"))?;
    out.check(
        &format!(
            "select() after the last batch is identical to selecting from a full re-sample of the mutated graph (covered {} vs {})",
            selected.coverage, fresh.covered
        ),
        selected.seeds == fresh.seeds
            && selected.marginals == fresh.marginals
            && selected.coverage == fresh.covered,
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &RunArgs,
    base: &Base,
    mut session: StreamSession<'_>,
    mut edits: Edits,
    first: Vec<EdgeOp>,
    scratch: &Scratch,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(&PER_LAYER);
    // Two whole rounds, untraced and traced batches alternating, so both
    // sides see the same mix of chain positions.
    let (rounds, pairs) = if args.smoke {
        (1, SMOKE_ROUND / 2)
    } else {
        (2, ROUND / 2)
    };
    let mut plain = Samples::default();
    let mut spanned = Samples::default();
    let mut repaired = 0u64;
    let mut compact_s = 0.0;
    for round in 0..rounds {
        for pair in 0..pairs {
            for traced_side in [(round + pair) % 2 == 0, (round + pair) % 2 != 0] {
                let ops = edits.next();
                let rep = (round * pairs + pair) as u32;
                let span = traced_side.then(|| tr.begin("StreamSession::apply", "core", rep));
                let (applied, secs) = timed(|| session.apply(ops, true, KEEP));
                if let Some(span) = span {
                    tr.end(span);
                    spanned.push(secs);
                } else {
                    plain.push(secs);
                }
                repaired += applied.map_err(|e| format!("apply: {e}"))?.sets_repaired;
            }
        }
        let (compacted, secs) = timed(|| {
            tr.span("StreamSession::compact", "store", round as u32, || {
                session.compact(KEEP)
            })
        });
        compacted.map_err(|e| format!("compact: {e}"))?;
        compact_s = secs;
    }
    let (selected, reselect_s) =
        timed(|| tr.span("StreamSession::select", "core", 0, || session.select()));
    let selected = selected.map_err(|e| format!("select: {e}"))?;
    let ((), gc_s) = timed(|| {
        tr.span("gc_generations", "store", 0, || {
            let _ = dim_store::gc_generations(&base.root, KEEP);
        })
    });
    verify(base, &session, &selected, &mut out)?;
    drop(session);

    // Probes: machine 0's share of the first batch, taken apart through the
    // public calls `WorkerOp::ApplyDelta` makes.
    let batch = DeltaBatch::new(0, first);
    let machine0 = base.sampled.num_rr_sets.div_ceil(MACHINES);
    let mut worker = DiimmWorker::new(&base.graph, &base.config, 0);
    worker.generate(machine0);
    worker.shard.prepare();
    let (mutated, apply_batch_s) = timed(|| apply_batch(&base.graph, &batch));
    let mutated = mutated.map_err(|e| format!("apply_batch: {e}"))?;
    let (records, apply_delta_s) = timed(|| worker.apply_delta(&batch));
    let records = records.map_err(|e| format!("apply_delta: {e}"))?;
    let ((), replace_s) = timed(|| worker.shard.replace_elements(&records));
    let header = DeltaShardHeader {
        base_generation: 1,
        parent_fingerprint: graph_fingerprint(&base.graph),
        fingerprint: graph_fingerprint(&mutated),
        sampler: base.config.sampler.into(),
        seed: base.config.seed,
        theta: base.sampled.num_rr_sets as u64,
        batch_seq: 0,
        shard_id: 0,
        shard_count: MACHINES as u32,
        num_sets: base.graph.num_nodes() as u64,
        num_elements: machine0 as u64,
        repaired_count: records.len() as u64,
    };
    let probe_dir = scratch.fresh("delta-probe").map_err(|e| e.to_string())?;
    let (written, delta_write_s) =
        timed(|| write_delta_shard(&probe_dir, &header, &batch, &records));
    written.map_err(|e| format!("write_delta_shard: {e}"))?;
    let delta_bytes = dir_bytes(&probe_dir);
    let resample_s = (apply_delta_s - apply_batch_s - replace_s).max(0.0);

    // The median traced batch, taken apart with the probes.
    let p50_s = spanned.p50_ms() / 1e3;
    let root = tr.begin("median-apply", "core", 0);
    tr.end(root);
    let root_idx = tr.last_named("median-apply").expect("span just recorded");
    tr.stretch(root_idx, p50_s);
    tr.child_at(root_idx, "master:apply_batch", "graph", apply_batch_s);
    tr.child_at(root_idx, "worker:apply_delta", "core", apply_delta_s);
    let worker_idx = tr
        .last_named("worker:apply_delta")
        .expect("span just recorded");
    tr.child_at(worker_idx, "apply_batch", "graph", apply_batch_s);
    tr.child_at(worker_idx, "scan+resample", "diffusion", resample_s);
    tr.child_at(worker_idx, "replace_elements", "coverage", replace_s);
    tr.child_at(root_idx, "worker:write_delta_shard", "store", delta_write_s);
    set_layer_self_times(&mut out, tr, root_idx);

    let theta = base.sampled.num_rr_sets as f64;
    let batches = (spanned.len() + plain.len()) as f64;
    out.attempted += batches as u64 + 3;
    base.times.record(&mut out);
    out.set("graph.apply_batch_ms", apply_batch_s * 1e3);
    out.set("diffusion.sample_s", resample_s);
    out.set("diffusion.rr_sets", records.len() as f64);
    out.set("diffusion.rr_sets_per_s", records.len() as f64 / resample_s);
    out.set(
        "diffusion.mean_rr_size",
        records.iter().map(|(_, r)| r.len()).sum::<usize>() as f64 / records.len().max(1) as f64,
    );
    out.set("coverage.replace_elements_ms", replace_s * 1e3);
    out.set("core.theta", theta);
    out.set("core.apply_delta_ms", apply_delta_s * 1e3);
    out.set("core.sets_resampled", repaired as f64 / batches);
    out.set("core.resample_ratio", repaired as f64 / batches / theta);
    out.set("core.reselect_s", reselect_s);
    out.set("core.unattributed_s", tr.self_secs(root_idx));
    let persist_s = base
        .sampled
        .timeline
        .get(dim_cluster::phase::STORE_SAVE)
        .worker_compute
        .as_secs_f64();
    out.set("store.persist_s", persist_s);
    out.set("store.delta_write_ms", delta_write_s * 1e3);
    out.set("store.delta_bytes", delta_bytes as f64);
    out.set("store.write_MBps", delta_bytes as f64 / 1e6 / delta_write_s);
    out.set("store.compact_s", compact_s);
    out.set("store.gc_s", gc_s);
    set_trace_summary(&mut out, tr, &spanned, &plain);
    out.note(spanned.describe("traced apply(64 edits, persist)"));
    out.note(plain.describe("untraced apply(64 edits, persist)"));
    out.note(format!(
        "probe on machine 0, first batch: apply_delta {:.1} ms = apply_batch {:.1} + scan and re-sample {:.1} + replace_elements {:.1}; {} of {machine0} sets re-sampled",
        apply_delta_s * 1e3,
        apply_batch_s * 1e3,
        resample_s * 1e3,
        replace_s * 1e3,
        records.len()
    ));
    Ok(out)
}
