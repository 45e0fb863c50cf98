//! Seeding heuristics without approximation guarantees.
//!
//! The paper's introduction contrasts RIS-based algorithms with "heuristics
//! that have unbounded approximation ratio" (IPA, CMD, degree-based rules).
//! This module provides the standard ones as comparison baselines for the
//! seed-quality experiment (`repro quality`):
//!
//! * [`top_degree`] — the `k` highest out-degree users.
//! * [`degree_discount`] — DegreeDiscount (Chen, Wang, Yang; KDD'09): after
//!   a neighbor is seeded, a node's effective degree is discounted by
//!   `2t + (d − t)·t·p` where `t` counts seeded in-neighbors.
//! * [`top_pagerank`] — the `k` highest PageRank users.
//! * [`random_seeds`] — uniform random seeds (the sanity floor).
//! * [`monte_carlo_greedy`] — Kempe et al.'s original greedy with
//!   Monte-Carlo spread estimation and CELF lazy evaluation; `(1−1/e−ε)`
//!   in expectation but orders of magnitude slower than RIS (which is why
//!   IMM exists). Tiny graphs only.

use dim_graph::analysis::influence_pagerank;
use dim_graph::rng::Rng;
use dim_graph::Graph;

use crate::config::SamplerKind;

/// The `k` nodes of highest out-degree (ties toward smaller id).
pub fn top_degree(graph: &Graph, k: usize) -> Vec<u32> {
    let mut nodes: Vec<u32> = graph.nodes().collect();
    nodes.sort_by_key(|&u| (std::cmp::Reverse(graph.out_degree(u)), u));
    nodes.truncate(k);
    nodes
}

/// DegreeDiscount (Chen et al., KDD'09) with discount parameter `p` (the
/// assumed uniform propagation probability; the paper's WC experiments use
/// the average edge probability).
pub fn degree_discount(graph: &Graph, k: usize, p: f64) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut dd: Vec<f64> = graph.nodes().map(|u| graph.out_degree(u) as f64).collect();
    let mut t = vec![0u32; n]; // seeded in-neighbors per node
    let mut selected = vec![false; n];
    let mut seeds = Vec::with_capacity(k);
    for _ in 0..k.min(n) {
        let Some(best) = (0..n)
            .filter(|&v| !selected[v])
            .max_by(|&a, &b| dd[a].total_cmp(&dd[b]).then(b.cmp(&a)))
        else {
            break;
        };
        selected[best] = true;
        seeds.push(best as u32);
        // Discount the out-neighbors of the new seed.
        for &v in graph.out_neighbors(best as u32) {
            let vi = v as usize;
            if selected[vi] {
                continue;
            }
            t[vi] += 1;
            let d = graph.out_degree(v) as f64;
            let tv = t[vi] as f64;
            dd[vi] = d - 2.0 * tv - (d - tv) * tv * p;
        }
    }
    seeds
}

/// The `k` nodes of highest *influence* PageRank (PageRank on the
/// transposed graph, damping 0.85) — the orientation that rewards
/// reaching others rather than being reached.
pub fn top_pagerank(graph: &Graph, k: usize) -> Vec<u32> {
    let pr = influence_pagerank(graph, 0.85, 100, 1e-10);
    let mut nodes: Vec<u32> = graph.nodes().collect();
    nodes.sort_by(|&a, &b| {
        pr[b as usize]
            .total_cmp(&pr[a as usize])
            .then(a.cmp(&b))
    });
    nodes.truncate(k);
    nodes
}

/// `k` uniformly random distinct nodes.
pub fn random_seeds(graph: &Graph, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let mut nodes: Vec<u32> = graph.nodes().collect();
    rng.shuffle(&mut nodes);
    nodes.truncate(k);
    nodes
}

/// Kempe et al.'s original greedy: CELF lazy evaluation with Monte-Carlo
/// spread estimates (`sims` cascades per evaluation). Exact same objective
/// as RIS-based methods, estimated the slow way — use on small graphs only.
pub fn monte_carlo_greedy(
    graph: &Graph,
    sampler: SamplerKind,
    k: usize,
    sims: usize,
    seed: u64,
) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let model = sampler.model();
    let estimate = |seeds: &[u32], salt: u64| {
        dim_diffusion::forward::estimate_spread(graph, model, seeds, sims, seed ^ salt)
    };
    let mut seeds: Vec<u32> = Vec::with_capacity(k);
    let mut current = 0.0f64;
    // CELF heap of (stale marginal ×1e6 as u64 for ordering, node).
    let scale = 1e6;
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = graph
        .nodes()
        .map(|v| (u64::MAX, Reverse(v)))
        .collect();
    while seeds.len() < k {
        let Some((stale, Reverse(v))) = heap.pop() else {
            break;
        };
        seeds.push(v);
        let fresh_total = estimate(&seeds, seeds.len() as u64);
        seeds.pop();
        let fresh = ((fresh_total - current).max(0.0) * scale) as u64;
        let next_best = heap.peek().map(|&(c, _)| c).unwrap_or(0);
        // Select when the recomputed marginal still tops the heap and is
        // not a first-touch placeholder, or when nothing else has positive
        // stale value left.
        if (stale != u64::MAX && fresh >= next_best) || next_best == 0 {
            seeds.push(v);
            current = fresh_total;
        } else {
            heap.push((fresh, Reverse(v)));
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::barabasi_albert;
    use dim_graph::{GraphBuilder, WeightModel};

    fn star() -> Graph {
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        b.add_edge(1, 2);
        b.build(WeightModel::WeightedCascade)
    }

    #[test]
    fn top_degree_picks_hub() {
        let g = star();
        assert_eq!(top_degree(&g, 1), vec![0]);
        assert_eq!(top_degree(&g, 2), vec![0, 1]);
    }

    #[test]
    fn degree_discount_avoids_covered_neighbors() {
        // After seeding the hub, its neighbors are discounted, so the
        // second pick is NOT the hub's best-connected neighbor when an
        // equally good node outside the neighborhood exists.
        let mut b = GraphBuilder::new(8);
        for v in 1..4u32 {
            b.add_edge(0, v); // hub 0 → {1,2,3}
        }
        b.add_edge(1, 2); // node 1 has degree 2 but is hub-adjacent
        for v in 5..8u32 {
            b.add_edge(4, v); // node 4 → {5,6,7}, disjoint
        }
        let g = b.build(WeightModel::WeightedCascade);
        let seeds = degree_discount(&g, 2, 0.1);
        assert_eq!(seeds[0], 0);
        assert_eq!(seeds[1], 4, "disjoint star beats discounted neighbor");
    }

    #[test]
    fn pagerank_seeds_distinct_and_k() {
        let g = barabasi_albert(100, 3, WeightModel::WeightedCascade, 1);
        let seeds = top_pagerank(&g, 10);
        assert_eq!(seeds.len(), 10);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn random_seeds_deterministic_per_seed() {
        let g = star();
        assert_eq!(random_seeds(&g, 3, 7), random_seeds(&g, 3, 7));
        assert_eq!(random_seeds(&g, 100, 7).len(), 6, "capped at n");
    }

    #[test]
    fn mc_greedy_finds_hub() {
        let g = star();
        let seeds = monte_carlo_greedy(
            &g,
            SamplerKind::Standard(DiffusionModel::IndependentCascade),
            1,
            2_000,
            3,
        );
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn mc_greedy_matches_ris_quality_on_small_graph() {
        let g = barabasi_albert(60, 2, WeightModel::WeightedCascade, 5);
        let sampler = SamplerKind::Standard(DiffusionModel::IndependentCascade);
        let mc_seeds = monte_carlo_greedy(&g, sampler, 3, 3_000, 9);
        let cfg = crate::ImConfig {
            k: 3,
            epsilon: 0.3,
            delta: 0.1,
            seed: 9,
            sampler,
        };
        let ris = crate::imm::imm(&g, &cfg);
        let model = DiffusionModel::IndependentCascade;
        let mc_spread =
            dim_diffusion::forward::estimate_spread(&g, model, &mc_seeds, 20_000, 1);
        let ris_spread =
            dim_diffusion::forward::estimate_spread(&g, model, &ris.seeds, 20_000, 1);
        let rel = (mc_spread - ris_spread).abs() / ris_spread;
        assert!(rel < 0.1, "MC greedy {mc_spread} vs RIS {ris_spread}");
    }
}
