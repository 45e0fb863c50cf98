//! Table III — dataset statistics.

use dim_graph::GraphStats;

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct Row {
        dataset: &'static str,
        scale: f64,
        nodes: usize,
        edges: usize,
        avg_degree: f64,
        paper_nodes: usize,
        paper_avg_degree: f64,
        directed: bool,
    }
}

/// Prints the generated profiles next to the paper's real dataset sizes.
pub fn run(ctx: &Context) {
    report::header(&[
        ("dataset", 12),
        ("scale", 8),
        ("#nodes", 10),
        ("#edges", 12),
        ("avg.deg", 8),
        ("paper #nodes", 13),
        ("paper avg.deg", 14),
        ("type", 10),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let stats = GraphStats::compute(&graph);
        let row = Row {
            dataset: profile.name(),
            scale: ctx.scale_of(profile),
            nodes: stats.nodes,
            edges: stats.edges,
            avg_degree: stats.avg_degree,
            paper_nodes: profile.full_nodes(),
            paper_avg_degree: profile.avg_degree(),
            directed: profile.directed(),
        };
        println!(
            "{:>12} {:>8} {:>10} {:>12} {:>8.1} {:>13} {:>14.1} {:>10}",
            row.dataset,
            row.scale,
            row.nodes,
            row.edges,
            row.avg_degree,
            row.paper_nodes,
            row.paper_avg_degree,
            if row.directed { "directed" } else { "undirected" },
        );
        report::dump_json(&ctx.out_dir, "table3", &row.to_json());
    }
}
