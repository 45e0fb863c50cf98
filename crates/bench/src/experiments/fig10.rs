//! Fig. 10 — maximum coverage: (a) NewGreeDi running time vs cores,
//! (b) speedup of NewGreeDi and GreeDi over the sequential greedy,
//! (c) coverage ratio of GreeDi to NewGreeDi.

use std::time::Instant;

use dim_cluster::{ClusterBackend, NetworkModel, SimCluster};
use dim_coverage::greedi::greedi;
use dim_coverage::greedy::bucket_greedy;
use dim_coverage::{newgreedi_with, CoverageProblem};

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct Row {
        dataset: &'static str,
        cores: usize,
        newgreedi_s: f64,
        newgreedi_comm_s: f64,
        newgreedi_speedup: f64,
        greedi_s: f64,
        greedi_speedup: f64,
        newgreedi_coverage: u64,
        greedi_coverage: u64,
        coverage_ratio: f64,
    }
}

/// Runs the paper's §IV-C workload: the graph as `|V|` sets over `|V|`
/// elements (set `u` = out-neighborhood of `u`), k = 50 by default.
pub fn run(ctx: &Context) {
    println!("k = {}, network = shared memory\n", ctx.k);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let problem = CoverageProblem::from_graph_neighborhoods(&graph);
        println!(
            "--- {} ({} sets, {} elements, total size {}) ---",
            profile.name(),
            problem.num_sets(),
            problem.num_elements(),
            problem.total_size()
        );

        // Sequential greedy baseline (ℓ = 1 time base for both methods).
        let start = Instant::now();
        let mut shard = problem.single_shard();
        let seq = bucket_greedy(&mut shard, ctx.k);
        let seq_time = start.elapsed().as_secs_f64();
        println!(
            "sequential greedy: {:.3}s, coverage {}\n",
            seq_time, seq.covered
        );

        report::header(&[
            ("cores", 6),
            ("NG time(s)", 11),
            ("NG comm(s)", 11),
            ("NG speedup", 11),
            ("GD time(s)", 11),
            ("GD speedup", 11),
            ("cov ratio", 10),
        ]);
        for &cores in &ctx.core_counts {
            let mut ng_cluster = SimCluster::new(
                problem.shard_elements(cores),
                NetworkModel::shared_memory(),
                ctx.exec_mode(),
            );
            let ng = newgreedi_with(&mut ng_cluster, problem.num_sets(), ctx.k)
                .expect("well-formed wire");
            let ng_metrics = ng_cluster.metrics();
            let ng_time = ng_metrics.elapsed().as_secs_f64();
            assert_eq!(
                ng.covered, seq.covered,
                "NewGreeDi must match the sequential greedy (Lemma 2)"
            );

            let (shards, partition) = problem.shard_sets(cores, None);
            let mut gd_cluster =
                SimCluster::new(shards, NetworkModel::shared_memory(), ctx.exec_mode());
            let gd = greedi(&mut gd_cluster, &partition, ctx.k, ctx.k).expect("well-formed wire");
            let gd_time = gd_cluster.metrics().elapsed().as_secs_f64();

            let row = Row {
                dataset: profile.name(),
                cores,
                newgreedi_s: ng_time,
                newgreedi_comm_s: ng_metrics.comm_time.as_secs_f64(),
                newgreedi_speedup: seq_time / ng_time,
                greedi_s: gd_time,
                greedi_speedup: seq_time / gd_time,
                newgreedi_coverage: ng.covered,
                greedi_coverage: gd.covered,
                coverage_ratio: gd.covered as f64 / ng.covered as f64,
            };
            println!(
                "{:>6} {:>11.3} {:>11.4} {:>10.1}x {:>11.3} {:>10.1}x {:>10.4}",
                row.cores,
                row.newgreedi_s,
                row.newgreedi_comm_s,
                row.newgreedi_speedup,
                row.greedi_s,
                row.greedi_speedup,
                row.coverage_ratio,
            );
            report::dump_json(&ctx.out_dir, "fig10", &row.to_json());
        }
        println!();
    }
}
