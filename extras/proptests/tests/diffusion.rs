//! Property-based tests for diffusion and RR sampling.

use dim_diffusion::exact::{exact_spread, LiveEdgeEnsemble};
use dim_diffusion::forward::estimate_spread;
use dim_diffusion::rr::{sample_batch, AnySampler};
use dim_diffusion::visit::VisitTracker;
use dim_diffusion::{DiffusionModel, RrSampler, RrStore};
use dim_graph::rng::Rng;
use dim_graph::{Graph, GraphBuilder, WeightModel};
use proptest::prelude::*;

/// Tiny random weighted digraphs (≤ 6 nodes, ≤ 8 edges) small enough for
/// exact live-edge enumeration under both models.
fn tiny_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u32..6, 0u32..6, 0.05f32..0.95), 1..8).prop_map(|edges| {
        let mut b = GraphBuilder::new(6);
        // Scale probabilities down per target so the LT constraint holds.
        let mut seen_targets: Vec<u32> = edges.iter().map(|e| e.1).collect();
        seen_targets.sort_unstable();
        for &(u, v, p) in &edges {
            let indeg = seen_targets.iter().filter(|&&t| t == v).count() as f32;
            b.add_weighted_edge(u, v, (p / indeg).min(1.0));
        }
        b.build(WeightModel::WeightedCascade)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 1 property: the RIS estimate of σ({v}) converges to the exact
    /// live-edge value under both models.
    #[test]
    fn lemma1_matches_exact(g in tiny_graph(), root in 0u32..6, seed in 0u64..1000) {
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            let n = g.num_nodes();
            let exact = exact_spread(&g, model, &[root]);
            let sampler = AnySampler::for_model(&g, model);
            let mut rng = Rng::new(seed);
            let mut out = Vec::new();
            let mut visited = VisitTracker::new(n);
            let trials = 30_000;
            let mut hits = 0usize;
            for _ in 0..trials {
                sampler.sample(&mut rng, &mut out, &mut visited);
                if out.contains(&root) {
                    hits += 1;
                }
            }
            let est = n as f64 * hits as f64 / trials as f64;
            prop_assert!(
                (est - exact).abs() < 0.15 + 0.05 * exact,
                "{model}: RIS {est} vs exact {exact}"
            );
        }
    }

    /// Forward Monte-Carlo matches exact spread on tiny graphs, both models.
    #[test]
    fn forward_mc_matches_exact(g in tiny_graph(), seed in 0u64..1000) {
        let seeds = [0u32, 3];
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            let exact = exact_spread(&g, model, &seeds);
            let mc = estimate_spread(&g, model, &seeds, 30_000, seed);
            prop_assert!(
                (mc - exact).abs() < 0.15 + 0.05 * exact,
                "{model}: MC {mc} vs exact {exact}"
            );
        }
    }

    /// Spread is monotone in the seed set (exact evaluation).
    #[test]
    fn spread_monotone(g in tiny_graph()) {
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            let e = LiveEdgeEnsemble::build(&g, model);
            let mut prev = 0.0;
            let mut seeds: Vec<u32> = Vec::new();
            for v in 0..6u32 {
                seeds.push(v);
                let s = e.spread(&seeds);
                prop_assert!(s >= prev - 1e-9, "{model}: spread dropped {prev} -> {s}");
                prev = s;
            }
            prop_assert!((prev - 6.0).abs() < 1e-9, "all seeds cover everything");
        }
    }

    /// Spread is submodular in the exact evaluation: adding a node helps a
    /// subset at least as much as a superset.
    #[test]
    fn spread_submodular(g in tiny_graph(), extra in 0u32..6) {
        for model in [DiffusionModel::IndependentCascade, DiffusionModel::LinearThreshold] {
            let e = LiveEdgeEnsemble::build(&g, model);
            let small = vec![0u32];
            let big = vec![0u32, 1, 2];
            if big.contains(&extra) || small.contains(&extra) {
                continue;
            }
            let gain_small = e.spread(&[0, extra]) - e.spread(&small);
            let mut big_plus = big.clone();
            big_plus.push(extra);
            let gain_big = e.spread(&big_plus) - e.spread(&big);
            prop_assert!(
                gain_small >= gain_big - 1e-9,
                "{model}: submodularity violated ({gain_small} < {gain_big})"
            );
        }
    }

    /// Every RR set contains its root, has no duplicates, and all three
    /// samplers respect node-id bounds.
    #[test]
    fn rr_sets_well_formed(g in tiny_graph(), seed in 0u64..1000) {
        let samplers = [
            AnySampler::for_model(&g, DiffusionModel::IndependentCascade),
            AnySampler::for_model(&g, DiffusionModel::LinearThreshold),
            AnySampler::subsim(&g),
        ];
        for sampler in &samplers {
            let mut store = RrStore::new();
            let mut rng = Rng::new(seed);
            sample_batch(sampler, 200, &mut rng, &mut store);
            for rr in store.iter() {
                prop_assert!(!rr.is_empty());
                prop_assert!(rr.iter().all(|&v| (v as usize) < g.num_nodes()));
                let mut sorted = rr.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), rr.len());
            }
        }
    }

    /// The inverted index agrees with a direct scan of the store.
    #[test]
    fn inverted_index_consistent(g in tiny_graph(), seed in 0u64..1000) {
        let sampler = AnySampler::for_model(&g, DiffusionModel::IndependentCascade);
        let mut store = RrStore::new();
        let mut rng = Rng::new(seed);
        sample_batch(&sampler, 300, &mut rng, &mut store);
        let idx = store.invert(g.num_nodes());
        for v in 0..g.num_nodes() as u32 {
            let direct: Vec<u32> = (0..store.num_sets() as u32)
                .filter(|&i| store.get(i as usize).contains(&v))
                .collect();
            prop_assert_eq!(idx.sets_covering(v), direct.as_slice());
        }
    }
}
