//! Cross-crate equivalence tests: the distributed algorithms must match
//! their centralized counterparts exactly (the paper's Lemma 2 / Theorem 1
//! machinery), and the incremental traffic optimization must not change
//! any output.

use dim::prelude::*;
use dim_core::diimm::diimm_with_options;
use dim_coverage::greedi::greedi;

/// The §III-C incremental coverage reporting changes traffic only: seeds,
/// coverage, θ, and spread are bit-identical with and without it.
#[test]
fn incremental_reporting_preserves_output() {
    // (graph, whether a traffic tie would be a bug). On the dense Google+
    // profile every search round's RR sets touch every node, so the
    // incremental report legitimately ships as many tuples as the full one;
    // on the sparse LiveJournal profile later rounds leave most nodes
    // untouched and the incremental report must be strictly smaller.
    let cases = [
        (DatasetProfile::GooglePlus.generate(0.02, 5), false),
        (DatasetProfile::LiveJournal.generate(0.002, 5), true),
    ];
    for (g, strict) in &cases {
        let config = ImConfig {
            k: 10,
            ..ImConfig::paper_defaults(g, 0.3, 17)
        };
        for machines in [1, 4, 8] {
            let run = |incremental| {
                diimm_with_options(
                    g,
                    &config,
                    machines,
                    NetworkModel::cluster_1gbps(),
                    ExecMode::Sequential,
                    incremental,
                )
                .unwrap()
            };
            let (full, incr) = (run(false), run(true));
            assert_eq!(full.seeds, incr.seeds, "ℓ = {machines}");
            assert_eq!(full.num_rr_sets, incr.num_rr_sets);
            assert_eq!(full.coverage, incr.coverage);
            let (incr_b, full_b) = (incr.metrics.bytes_to_master, full.metrics.bytes_to_master);
            assert!(
                incr_b < full_b || (!strict && incr_b == full_b),
                "ℓ = {machines}, strict = {strict}: incremental {incr_b} B vs full {full_b} B"
            );
        }
    }
}

/// NewGreeDi over RIS-derived instances equals centralized greedy for any
/// sharding of the same RR-set collection (not just the synthetic
/// instances covered by unit tests).
#[test]
fn newgreedi_exact_on_ris_instances() {
    use dim_cluster::SimCluster;
    use dim_coverage::greedy::bucket_greedy;
    use dim_coverage::{CoverageShard, PooledSets};
    use dim_diffusion::rr::sample_batch;
    use dim_graph::rng::Rng;

    let g = DatasetProfile::Facebook.generate(0.1, 8);
    let sampler = SamplerKind::Standard(DiffusionModel::IndependentCascade).build(&g);
    let mut store = PooledSets::new();
    let mut rng = Rng::new(3);
    sample_batch(&sampler, 4000, &mut rng, |rr| {
        store.push(rr);
    });

    let mut central = CoverageShard::from_records(g.num_nodes(), store.iter());
    let reference = bucket_greedy(&mut central, 12);

    for machines in [2usize, 5, 16] {
        let mut shards: Vec<CoverageShard> = (0..machines)
            .map(|_| CoverageShard::new(g.num_nodes()))
            .collect();
        for (i, rr) in store.iter().enumerate() {
            shards[i % machines].push_element(rr);
        }
        let mut cluster = SimCluster::new(
            shards,
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let r = newgreedi_with(&mut cluster, g.num_nodes(), 12).unwrap();
        assert_eq!(r.seeds, reference.seeds, "ℓ = {machines}");
        assert_eq!(r.covered, reference.covered, "ℓ = {machines}");
    }
}

/// GreeDi is bounded by NewGreeDi on the Fig. 10 workload. NewGreeDi is
/// the exact greedy (here: equal to the naive rescan), which covers at
/// least (1 − 1/e) of the optimum, and GreeDi covers at most the optimum:
/// GreeDi ≤ NewGreeDi / (1 − 1/e). Neither dominates the other instance by
/// instance — greedy is not optimal, and its tie rule decides which of
/// several greedy runs is made — so the bound is the theorem's.
#[test]
fn greedi_bounded_by_newgreedi_on_neighborhoods() {
    use dim_cluster::SimCluster;
    use dim_coverage::greedy::naive_greedy;

    let g = DatasetProfile::Facebook.generate(0.2, 4);
    let problem = CoverageProblem::from_graph_neighborhoods(&g);
    for machines in [2usize, 8, 32] {
        let mut ng_cluster = SimCluster::new(
            problem.shard_elements(machines),
            NetworkModel::zero(),
            ExecMode::Sequential,
        );
        let ng = newgreedi_with(&mut ng_cluster, problem.num_sets(), 20).unwrap();
        assert_eq!(
            ng,
            naive_greedy(&mut problem.single_shard(), 20),
            "ℓ = {machines}"
        );
        let (shards, partition) = problem.shard_sets(machines, Some(7));
        let mut gd_cluster = SimCluster::new(shards, NetworkModel::zero(), ExecMode::Sequential);
        let gd = greedi(&mut gd_cluster, &partition, 20, 20).unwrap();
        assert!(
            gd.covered as f64 * (1.0 - (-1.0f64).exp()) <= ng.covered as f64,
            "ℓ = {machines}: GreeDi {} > NewGreeDi {} / (1 − 1/e)",
            gd.covered,
            ng.covered
        );
        // And it is never catastrophically bad on this workload either.
        assert!(gd.covered as f64 >= 0.5 * ng.covered as f64);
    }
}

/// Per-machine RNG streams: permuting machine count changes which machine
/// draws what, but a fixed (seed, ℓ) is exactly reproducible.
#[test]
fn reproducibility_fixed_seed_and_machines() {
    let g = DatasetProfile::LiveJournal.generate(0.002, 6);
    let config = ImConfig {
        k: 6,
        ..ImConfig::paper_defaults(&g, 0.3, 77)
    };
    let a = diimm(&g, &config, 8, NetworkModel::cluster_1gbps(), ExecMode::Sequential).unwrap();
    let b = diimm(&g, &config, 8, NetworkModel::cluster_1gbps(), ExecMode::Sequential).unwrap();
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.coverage, b.coverage);
    assert_eq!(a.metrics.bytes_to_master, b.metrics.bytes_to_master);
    assert_eq!(a.metrics.messages, b.metrics.messages);
}
