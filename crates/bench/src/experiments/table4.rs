//! Table IV — number and total size of RR sets under the IC model.

use dim_core::{imm, ImConfig, SamplerKind};

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct Row {
        dataset: &'static str,
        epsilon: f64,
        k: usize,
        rr_sets: usize,
        total_size: usize,
        avg_rr_size: f64,
        edges_examined: u64,
    }
}

/// Runs sequential IMM per dataset and reports θ and Σ|R| — the workload
/// volumes that the distributed experiments then split across machines.
pub fn run(ctx: &Context) {
    report::header(&[
        ("dataset", 12),
        ("#RR sets", 12),
        ("total size", 14),
        ("avg |R|", 9),
        ("Σ w(R)", 14),
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
        let r = imm(&graph, &config);
        let row = Row {
            dataset: profile.name(),
            epsilon: ctx.epsilon,
            k: config.k,
            rr_sets: r.num_rr_sets,
            total_size: r.total_rr_size,
            avg_rr_size: r.total_rr_size as f64 / r.num_rr_sets as f64,
            edges_examined: r.edges_examined,
        };
        println!(
            "{:>12} {:>12} {:>14} {:>9.2} {:>14}",
            row.dataset, row.rr_sets, row.total_size, row.avg_rr_size, row.edges_examined,
        );
        report::dump_json(&ctx.out_dir, "table4", &row.to_json());
    }
}
