//! Figs. 5, 6, 7, 8, 9 — DiIMM / distributed-SUBSIM running time vs the
//! number of machines or cores, with the per-phase breakdown (RR
//! generation / computation / communication) the paper plots as stacked
//! bars.
//!
//! The stacked bars are read straight off the run's phase-labeled
//! [`dim_cluster::PhaseTimeline`]: sampling is the `rr-sampling` label's
//! compute, selection is every other label's compute, and communication
//! is the timeline total's modeled transfer time. The JSON rows also
//! carry the raw per-label breakdown for finer-grained plots.

use dim_cluster::{phase, tcp_cluster, Backend, JoinConfig, NetworkModel, PhaseTimeline};
use dim_core::diimm::{diimm, diimm_on};
use dim_core::{setup_im_cluster, ImConfig, ImResult, SamplerKind};
use dim_diffusion::DiffusionModel;
use dim_graph::Graph;

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    /// One timeline label, flattened for the JSON dump.
    struct PhaseRow {
        phase: &'static str,
        compute_s: f64,
        comm_s: f64,
        measured_s: f64,
        messages: u64,
        bytes: u64,
    }
}

fn phase_rows(timeline: &PhaseTimeline) -> Vec<PhaseRow> {
    timeline
        .iter()
        .map(|(label, m)| PhaseRow {
            phase: label,
            compute_s: m.compute().as_secs_f64(),
            comm_s: m.comm_time.as_secs_f64(),
            measured_s: m.measured_comm.as_secs_f64(),
            messages: m.messages,
            bytes: m.total_bytes(),
        })
        .collect()
}

report::json_row! {
    struct Row {
        figure: &'static str,
        dataset: &'static str,
        model: &'static str,
        sampler: &'static str,
        machines: usize,
        sampling_s: f64,
        selection_s: f64,
        comm_s: f64,
        measured_comm_s: f64,
        total_s: f64,
        speedup: f64,
        rr_sets: usize,
        bytes_up: u64,
        bytes_down: u64,
        est_spread: f64,
        phases: Vec<PhaseRow>,
    }
}

struct Setup {
    figure: &'static str,
    sampler: SamplerKind,
    network: NetworkModel,
    network_label: &'static str,
    multicore: bool,
}

/// One DiIMM run on the configured backend.
fn run_one(
    ctx: &Context,
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
) -> ImResult {
    match ctx.backend {
        Backend::Sim(mode) => diimm(graph, config, machines, network, mode),
        Backend::Tcp { spawn } => {
            // One session per row; its bind→membership latency lands in
            // the timeline (`rendezvous` label) and so in the JSON rows.
            let mut cluster = tcp_cluster(spawn, JoinConfig::new(machines), network, config.seed)
                .expect("assemble the TCP cluster (DIM_WORKER_BIN / DIM_MASTER_BIND)");
            setup_im_cluster(&mut cluster, graph, config.sampler, false).expect("well-formed wire");
            diimm_on(&mut cluster, graph, config, true)
        }
    }
    .expect("well-formed wire")
}

fn run_setup(ctx: &Context, setup: Setup) {
    let machine_counts = if setup.multicore {
        &ctx.core_counts
    } else {
        &ctx.cluster_machines
    };
    // Rows name the law: the paper's standard samplers (reverse BFS, LT
    // walk), or SUBSIM for Fig. 7.
    let sampler_label = match setup.sampler {
        SamplerKind::Standard(DiffusionModel::IndependentCascade) => "subsim",
        SamplerKind::Standard(DiffusionModel::LinearThreshold) | SamplerKind::ReverseBfs => {
            "standard"
        }
    };
    println!(
        "model = {}, sampler = {sampler_label}, network = {}, ε = {}, k = {}\n",
        setup.sampler.model(),
        setup.network_label,
        ctx.epsilon,
        ctx.k
    );
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let config = ImConfig {
            k: ctx.k.min(graph.num_nodes()),
            epsilon: ctx.epsilon,
            delta: 1.0 / graph.num_nodes() as f64,
            seed: ctx.seed,
            sampler: setup.sampler,
        };
        println!(
            "--- {} (n = {}, m = {}) ---",
            profile.name(),
            graph.num_nodes(),
            graph.num_edges()
        );
        report::header(&[
            ("ℓ", 4),
            ("sampling(s)", 12),
            ("selection(s)", 13),
            ("comm(s)", 9),
            ("measured(s)", 12),
            ("total(s)", 10),
            ("speedup", 8),
            ("#RR", 10),
        ]);
        let mut baseline = None;
        for &machines in machine_counts {
            let r = run_one(ctx, &graph, &config, machines, setup.network);
            // Stacked bars straight off the timeline, not the derived
            // `timings` view: sampling = the rr-sampling label's compute,
            // selection = all remaining compute, comm = modeled transfers.
            let flat = r.timeline.total();
            let sampling = r.timeline.get(phase::RR_SAMPLING).compute();
            let selection = flat.compute().saturating_sub(sampling);
            let total = (sampling + selection + flat.comm_time).as_secs_f64();
            let base = *baseline.get_or_insert(total);
            let row = Row {
                figure: setup.figure,
                dataset: profile.name(),
                model: if setup.sampler.model() == DiffusionModel::IndependentCascade {
                    "ic"
                } else {
                    "lt"
                },
                sampler: sampler_label,
                machines,
                sampling_s: sampling.as_secs_f64(),
                selection_s: selection.as_secs_f64(),
                comm_s: flat.comm_time.as_secs_f64(),
                measured_comm_s: flat.measured_comm.as_secs_f64(),
                total_s: total,
                speedup: base / total,
                rr_sets: r.num_rr_sets,
                bytes_up: flat.bytes_to_master,
                bytes_down: flat.bytes_from_master,
                est_spread: r.est_spread,
                phases: phase_rows(&r.timeline),
            };
            println!(
                "{:>4} {:>12.3} {:>13.3} {:>9.4} {:>12.4} {:>10.3} {:>7.1}x {:>10}",
                row.machines,
                row.sampling_s,
                row.selection_s,
                row.comm_s,
                row.measured_comm_s,
                row.total_s,
                row.speedup,
                row.rr_sets,
            );
            report::dump_json(&ctx.out_dir, setup.figure, &row.to_json());
        }
        println!();
    }
}

/// Fig. 5: DiIMM, IC model, 1 Gbps cluster.
pub fn fig5(ctx: &Context) {
    run_setup(
        ctx,
        Setup {
            figure: "fig5",
            sampler: SamplerKind::ReverseBfs,
            network: NetworkModel::cluster_1gbps(),
            network_label: "1 Gbps cluster",
            multicore: false,
        },
    );
}

/// Fig. 6: DiIMM, IC model, multi-core server (shared-memory MPI).
pub fn fig6(ctx: &Context) {
    run_setup(
        ctx,
        Setup {
            figure: "fig6",
            sampler: SamplerKind::ReverseBfs,
            network: NetworkModel::shared_memory(),
            network_label: "shared memory",
            multicore: true,
        },
    );
}

/// Fig. 7: distributed SUBSIM, IC model, multi-core server.
pub fn fig7(ctx: &Context) {
    run_setup(
        ctx,
        Setup {
            figure: "fig7",
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
            network: NetworkModel::shared_memory(),
            network_label: "shared memory",
            multicore: true,
        },
    );
}

/// Fig. 8: DiIMM, LT model, 1 Gbps cluster.
pub fn fig8(ctx: &Context) {
    run_setup(
        ctx,
        Setup {
            figure: "fig8",
            sampler: SamplerKind::Standard(DiffusionModel::LinearThreshold),
            network: NetworkModel::cluster_1gbps(),
            network_label: "1 Gbps cluster",
            multicore: false,
        },
    );
}

/// Fig. 9: DiIMM, LT model, multi-core server.
pub fn fig9(ctx: &Context) {
    run_setup(
        ctx,
        Setup {
            figure: "fig9",
            sampler: SamplerKind::Standard(DiffusionModel::LinearThreshold),
            network: NetworkModel::shared_memory(),
            network_label: "shared memory",
            multicore: true,
        },
    );
}
