//! Extension experiment: OPIM-C's adaptive stopping vs IMM's worst-case
//! sample budget (the paper names OPIM-C among the frameworks its building
//! blocks support; this quantifies why that matters).

use dim_cluster::NetworkModel;
use dim_core::diimm::diimm;
use dim_core::opim::dopim_c;
use dim_core::{ImConfig, SamplerKind};

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct Row {
        dataset: &'static str,
        machines: usize,
        imm_rr_sets: usize,
        opim_rr_sets: usize,
        sample_saving: f64,
        imm_total_s: f64,
        opim_total_s: f64,
        spread_ratio: f64,
    }
}

/// Compares DiIMM and distributed OPIM-C at ℓ = 8 on every dataset.
pub fn run(ctx: &Context) {
    let machines = 8;
    println!("ℓ = {machines}, ε = {}, k = {}\n", ctx.epsilon, ctx.k);
    report::header(&[
        ("dataset", 12),
        ("IMM #RR", 10),
        ("OPIM #RR", 10),
        ("saving", 8),
        ("IMM(s)", 9),
        ("OPIM(s)", 9),
        ("spread ratio", 13),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let config = ImConfig {
            k: ctx.k.min(graph.num_nodes()),
            epsilon: ctx.epsilon,
            delta: 1.0 / graph.num_nodes() as f64,
            seed: ctx.seed,
            sampler: SamplerKind::ReverseBfs,
        };
        let net = NetworkModel::shared_memory();
        let imm_r = diimm(&graph, &config, machines, net, ctx.exec_mode()).expect("well-formed wire");
        let opim_r = dopim_c(&graph, &config, machines, net, ctx.exec_mode()).expect("well-formed wire");
        let row = Row {
            dataset: profile.name(),
            machines,
            imm_rr_sets: imm_r.num_rr_sets,
            opim_rr_sets: opim_r.num_rr_sets,
            sample_saving: imm_r.num_rr_sets as f64 / opim_r.num_rr_sets as f64,
            imm_total_s: imm_r.timings.total().as_secs_f64(),
            opim_total_s: opim_r.timings.total().as_secs_f64(),
            spread_ratio: opim_r.est_spread / imm_r.est_spread,
        };
        println!(
            "{:>12} {:>10} {:>10} {:>7.1}x {:>9.3} {:>9.3} {:>13.3}",
            row.dataset,
            row.imm_rr_sets,
            row.opim_rr_sets,
            row.sample_saving,
            row.imm_total_s,
            row.opim_total_s,
            row.spread_ratio,
        );
        report::dump_json(&ctx.out_dir, "ext_opim", &row.to_json());
    }
}
