//! Extension experiment: sensitivity to heterogeneous machines.
//!
//! Corollary 1 proves the RR workload balances across *equal* machines;
//! real clusters have stragglers. This experiment runs NewGreeDi on the
//! Fig. 10 workload with one machine at half speed and reports the
//! virtual-time inflation relative to a homogeneous cluster — quantifying
//! how much the paper's max-over-machines phase rule punishes skew.

use dim_cluster::{ClusterBackend, NetworkModel, SimCluster};
use dim_coverage::{newgreedi, CoverageProblem};

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct Row {
        dataset: &'static str,
        cores: usize,
        even_s: f64,
        straggler_s: f64,
        inflation: f64,
    }
}

/// Runs the comparison on every selected dataset.
pub fn run(ctx: &Context) {
    println!("k = {}, one machine at 0.5x speed\n", ctx.k);
    report::header(&[
        ("dataset", 12),
        ("cores", 6),
        ("even(s)", 9),
        ("straggler(s)", 13),
        ("inflation", 10),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let problem = CoverageProblem::from_graph_neighborhoods(&graph);
        for &cores in &[4usize, 16, 64] {
            let mut even = SimCluster::new(
                problem.shard_elements(cores),
                NetworkModel::shared_memory(),
                ctx.exec_mode(),
            );
            let even_r = newgreedi(&mut even, ctx.k).expect("well-formed wire");
            let mut speeds = vec![1.0; cores];
            speeds[0] = 0.5;
            let mut skew = SimCluster::with_speeds(
                problem.shard_elements(cores),
                NetworkModel::shared_memory(),
                ctx.exec_mode(),
                speeds,
            );
            let skew_r = newgreedi(&mut skew, ctx.k).expect("well-formed wire");
            assert_eq!(even_r.seeds, skew_r.seeds, "speeds change time, not output");
            let even_s = even.metrics().elapsed().as_secs_f64();
            let straggler_s = skew.metrics().elapsed().as_secs_f64();
            let row = Row {
                dataset: profile.name(),
                cores,
                even_s,
                straggler_s,
                inflation: straggler_s / even_s,
            };
            println!(
                "{:>12} {:>6} {:>9.4} {:>13.4} {:>9.2}x",
                row.dataset, row.cores, row.even_s, row.straggler_s, row.inflation,
            );
            report::dump_json(&ctx.out_dir, "straggler", &row.to_json());
        }
    }
}
