//! Ablations for the design choices called out in DESIGN.md §6.

use std::time::Instant;

use dim_cluster::{ClusterBackend, NetworkModel, SimCluster};
use dim_core::diimm::diimm_with_options;
use dim_core::{ImConfig, SamplerKind};
use dim_coverage::greedy::{bucket_greedy, naive_greedy};
use dim_coverage::{newgreedi_with, CoverageProblem, PooledSets};
use dim_diffusion::rr::{sample_batch, AnySampler, IcRrSampler, SubsimRrSampler};
use dim_graph::rng::Rng;

use crate::context::Context;
use crate::report::{self, ToJson};

report::json_row! {
    struct TrafficRow {
        dataset: &'static str,
        machines: usize,
        pulled_bytes: u64,
        dense_bytes: u64,
        saving_factor: f64,
    }
}

/// What NewGreeDi uploads — the sparse initial `⟨v, Δ⟩` coverage, then one
/// marginal per pulled candidate — vs the naive alternative of
/// re-uploading every node's coverage each round (§III-B2's "dramatically
/// save the traffic" claim).
pub fn traffic(ctx: &Context) {
    let machines = 8;
    println!("ℓ = {machines}, k = {}\n", ctx.k);
    report::header(&[
        ("dataset", 12),
        ("pulled (KiB)", 13),
        ("dense (KiB)", 12),
        ("saving", 9),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let problem = CoverageProblem::from_graph_neighborhoods(&graph);
        let mut cluster = SimCluster::new(
            problem.shard_elements(machines),
            NetworkModel::zero(),
            ctx.exec_mode(),
        );
        let r = newgreedi_with(&mut cluster, problem.num_sets(), ctx.k).expect("well-formed wire");
        let pulled = cluster.metrics().bytes_to_master;
        // Dense alternative: every machine uploads all n coverages once for
        // initialization and once per selected seed (8 bytes per tuple).
        let n = problem.num_sets() as u64;
        let rounds = 1 + r.seeds.len() as u64;
        let dense = machines as u64 * rounds * (4 + 8 * n);
        let row = TrafficRow {
            dataset: profile.name(),
            machines,
            pulled_bytes: pulled,
            dense_bytes: dense,
            saving_factor: dense as f64 / pulled as f64,
        };
        println!(
            "{:>12} {:>13.1} {:>12.1} {:>8.1}x",
            row.dataset,
            row.pulled_bytes as f64 / 1024.0,
            row.dense_bytes as f64 / 1024.0,
            row.saving_factor,
        );
        report::dump_json(&ctx.out_dir, "ablation_traffic", &row.to_json());
    }
}

report::json_row! {
    struct GreedyRow {
        dataset: &'static str,
        lazy_s: f64,
        naive_s: f64,
        coverage: u64,
    }
}

/// The lazy selector every greedy runs vs a naive per-round rescan. The
/// two select the same seeds.
pub fn greedy(ctx: &Context) {
    println!("k = {}\n", ctx.k);
    report::header(&[
        ("dataset", 12),
        ("lazy(s)", 10),
        ("naive(s)", 10),
        ("coverage", 10),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let problem = CoverageProblem::from_graph_neighborhoods(&graph);

        let time_of = |f: fn(&mut dim_coverage::CoverageShard, usize) -> dim_coverage::GreedyResult| {
            let mut shard = problem.single_shard();
            let start = Instant::now();
            let r = f(&mut shard, ctx.k);
            (start.elapsed().as_secs_f64(), r.covered)
        };
        let (lazy_s, coverage) = time_of(bucket_greedy);
        let (naive_s, _) = time_of(naive_greedy);
        let row = GreedyRow {
            dataset: profile.name(),
            lazy_s,
            naive_s,
            coverage,
        };
        println!(
            "{:>12} {:>10.3} {:>10.3} {:>10}",
            row.dataset, row.lazy_s, row.naive_s, row.coverage,
        );
        report::dump_json(&ctx.out_dir, "ablation_greedy", &row.to_json());
    }
}

report::json_row! {
    struct SamplerRow {
        dataset: &'static str,
        rr_sets: usize,
        bfs_s: f64,
        bfs_edges: u64,
        subsim_s: f64,
        subsim_edges: u64,
        work_saving: f64,
    }
}

/// SUBSIM's count-first subset sampling vs the standard per-edge reverse
/// BFS, on the same number of RR sets.
pub fn sampler(ctx: &Context) {
    let count = 20_000;
    println!("RR sets per run: {count}\n");
    report::header(&[
        ("dataset", 12),
        ("BFS(s)", 9),
        ("BFS work", 12),
        ("SUBSIM(s)", 10),
        ("SUBSIM work", 12),
        ("saving", 8),
    ]);
    for &profile in &ctx.datasets {
        let graph = ctx.graph(profile);
        let run = |sampler: AnySampler| {
            let mut sets = PooledSets::new();
            let mut rng = Rng::new(ctx.seed);
            let start = Instant::now();
            let edges = sample_batch(&sampler, count, &mut rng, |rr| {
                sets.push(rr);
            });
            (start.elapsed().as_secs_f64(), edges)
        };
        let (bfs_s, bfs_edges) = run(AnySampler::ReverseBfs(IcRrSampler::new(&graph)));
        let (subsim_s, subsim_edges) = run(AnySampler::Subsim(SubsimRrSampler::new(&graph)));
        let row = SamplerRow {
            dataset: profile.name(),
            rr_sets: count,
            bfs_s,
            bfs_edges,
            subsim_s,
            subsim_edges,
            work_saving: bfs_edges as f64 / subsim_edges as f64,
        };
        println!(
            "{:>12} {:>9.3} {:>12} {:>10.3} {:>12} {:>7.1}x",
            row.dataset, row.bfs_s, row.bfs_edges, row.subsim_s, row.subsim_edges, row.work_saving,
        );
        report::dump_json(&ctx.out_dir, "ablation_sampler", &row.to_json());
    }
}

report::json_row! {
    struct IncrementalRow {
        dataset: &'static str,
        machines: usize,
        full_bytes_up: u64,
        incremental_bytes_up: u64,
        saving_factor: f64,
        same_seeds: bool,
    }
}

/// The paper's §III-C optimization inside DiIMM: each NewGreeDi call
/// reports coverage only over newly generated RR sets vs re-uploading the
/// full coverage every call. Output must be identical; only bytes move.
pub fn incremental(ctx: &Context) {
    let machines = 8;
    println!("ℓ = {machines}, ε = {}, k = {}\n", ctx.epsilon, ctx.k);
    report::header(&[
        ("dataset", 12),
        ("full (KiB)", 12),
        ("incremental (KiB)", 18),
        ("saving", 9),
        ("same seeds", 11),
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
        let full = diimm_with_options(
            &graph,
            &config,
            machines,
            NetworkModel::cluster_1gbps(),
            ctx.exec_mode(),
            false,
        )
        .expect("well-formed wire");
        let incr = diimm_with_options(
            &graph,
            &config,
            machines,
            NetworkModel::cluster_1gbps(),
            ctx.exec_mode(),
            true,
        )
        .expect("well-formed wire");
        let row = IncrementalRow {
            dataset: profile.name(),
            machines,
            full_bytes_up: full.metrics.bytes_to_master,
            incremental_bytes_up: incr.metrics.bytes_to_master,
            saving_factor: full.metrics.bytes_to_master as f64
                / incr.metrics.bytes_to_master as f64,
            same_seeds: full.seeds == incr.seeds,
        };
        println!(
            "{:>12} {:>12.1} {:>18.1} {:>8.2}x {:>11}",
            row.dataset,
            row.full_bytes_up as f64 / 1024.0,
            row.incremental_bytes_up as f64 / 1024.0,
            row.saving_factor,
            row.same_seeds,
        );
        report::dump_json(&ctx.out_dir, "ablation_incremental", &row.to_json());
    }
}
