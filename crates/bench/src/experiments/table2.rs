//! Table II — empirical counterpart: approximation quality of the
//! distributed max-coverage baselines relative to the centralized greedy.
//!
//! The paper's Table II lists *proved* ratios; here we measure the achieved
//! coverage of each method on the §IV-C workload, normalized by the
//! centralized greedy's coverage (NewGreeDi's is 1.0 by construction).

use dim_cluster::{NetworkModel, SimCluster};
use dim_coverage::greedi::greedi;
use dim_coverage::greedy::bucket_greedy;
use dim_coverage::{newgreedi_with, CoverageProblem};

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct Row {
        dataset: &'static str,
        machines: usize,
        greedy_coverage: u64,
        newgreedi_ratio: f64,
        greedi_ratio: f64,
        randgreedi_ratio: f64,
    }
}

/// Measures the coverage ratio of each distributed method at ℓ = 8.
pub fn run(ctx: &Context) {
    let machines = 8;
    println!("k = {}, ℓ = {machines}\n", ctx.k);
    report::header(&[
        ("dataset", 12),
        ("greedy cov.", 12),
        ("NewGreeDi", 10),
        ("GreeDi", 10),
        ("RandGreeDi", 11),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let problem = CoverageProblem::from_graph_neighborhoods(&graph);
        let mut shard = problem.single_shard();
        let central = bucket_greedy(&mut shard, ctx.k);

        let mut ng_cluster = SimCluster::new(
            problem.shard_elements(machines),
            NetworkModel::zero(),
            ctx.exec_mode(),
        );
        let ng =
            newgreedi_with(&mut ng_cluster, problem.num_sets(), ctx.k).expect("well-formed wire");

        let set_distributed = |shuffle| {
            let (shards, partition) = problem.shard_sets(machines, shuffle);
            let mut cluster = SimCluster::new(shards, NetworkModel::zero(), ctx.exec_mode());
            greedi(&mut cluster, &partition, ctx.k, ctx.k).expect("well-formed wire")
        };
        let gd = set_distributed(None);
        let rg = set_distributed(Some(ctx.seed));

        let base = central.covered as f64;
        let row = Row {
            dataset: profile.name(),
            machines,
            greedy_coverage: central.covered,
            newgreedi_ratio: ng.covered as f64 / base,
            greedi_ratio: gd.covered as f64 / base,
            randgreedi_ratio: rg.covered as f64 / base,
        };
        println!(
            "{:>12} {:>12} {:>10.4} {:>10.4} {:>11.4}",
            row.dataset,
            row.greedy_coverage,
            row.newgreedi_ratio,
            row.greedi_ratio,
            row.randgreedi_ratio,
        );
        report::dump_json(&ctx.out_dir, "table2", &row.to_json());
    }
}
