//! Seed-quality comparison: DiIMM's guaranteed seeds vs the guarantee-free
//! heuristics the paper's introduction contrasts against (IPA/CMD-style
//! parallel heuristics are degree/community rules at heart).
//!
//! All seed sets are evaluated by independent forward Monte-Carlo
//! simulation, normalized to DiIMM's spread.

use dim_cluster::NetworkModel;
use dim_core::diimm::diimm;
use dim_core::heuristics::{degree_discount, random_seeds, top_degree, top_pagerank};
use dim_core::{ImConfig, SamplerKind};
use dim_diffusion::forward::estimate_spread;
use dim_diffusion::DiffusionModel;

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct Row {
        dataset: &'static str,
        k: usize,
        diimm_spread: f64,
        degree_ratio: f64,
        degree_discount_ratio: f64,
        pagerank_ratio: f64,
        random_ratio: f64,
    }
}

/// Runs the comparison on every selected dataset (IC model, 1k cascades
/// per evaluation).
pub fn run(ctx: &Context) {
    let sims = 1_000;
    println!("k = {}, ε = {}, spreads normalized to DiIMM's\n", ctx.k, ctx.epsilon);
    report::header(&[
        ("dataset", 12),
        ("DiIMM spread", 13),
        ("degree", 9),
        ("deg-disc", 9),
        ("pagerank", 9),
        ("random", 9),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let k = ctx.k.min(graph.num_nodes());
        let config = ImConfig {
            k,
            epsilon: ctx.epsilon,
            delta: 1.0 / graph.num_nodes() as f64,
            seed: ctx.seed,
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
        };
        let ris = diimm(
            &graph,
            &config,
            8,
            NetworkModel::shared_memory(),
            ctx.exec_mode(),
        )
        .expect("well-formed wire");
        let avg_p = graph.num_edges() as f64 / graph.num_nodes() as f64;
        let candidates = [
            top_degree(&graph, k),
            degree_discount(&graph, k, 1.0 / avg_p),
            top_pagerank(&graph, k),
            random_seeds(&graph, k, ctx.seed),
        ];
        let eval = |seeds: &[u32]| {
            estimate_spread(
                &graph,
                DiffusionModel::IndependentCascade,
                seeds,
                sims,
                ctx.seed ^ 0xFEED,
            )
        };
        let base = eval(&ris.seeds);
        let ratios: Vec<f64> = candidates.iter().map(|s| eval(s) / base).collect();
        let row = Row {
            dataset: profile.name(),
            k,
            diimm_spread: base,
            degree_ratio: ratios[0],
            degree_discount_ratio: ratios[1],
            pagerank_ratio: ratios[2],
            random_ratio: ratios[3],
        };
        println!(
            "{:>12} {:>13.1} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            row.dataset,
            row.diimm_spread,
            row.degree_ratio,
            row.degree_discount_ratio,
            row.pagerank_ratio,
            row.random_ratio,
        );
        report::dump_json(&ctx.out_dir, "quality", &row.to_json());
    }
}
