//! Forward Monte-Carlo simulation of diffusion processes.
//!
//! Used to evaluate the true influence spread `σ(S)` of seed sets returned
//! by the optimization algorithms (the paper evaluates seed quality this
//! way; Kempe et al. introduced the estimator).

use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::Graph;

use crate::model::DiffusionModel;

/// Reusable scratch buffers for repeated simulations on one graph.
struct SimScratch {
    visited: EpochFlags,
    frontier: Vec<u32>,
    /// LT only: accumulated incoming weight per touched node.
    lt_weight: Vec<f32>,
    /// LT only: lazily drawn threshold per touched node.
    lt_threshold: Vec<f32>,
    /// LT only: epoch stamps validating `lt_weight` / `lt_threshold`.
    lt_stamp: EpochFlags,
}

impl SimScratch {
    /// Allocates scratch for a graph with `n` nodes.
    fn new(n: usize) -> Self {
        SimScratch {
            visited: EpochFlags::new(n),
            frontier: Vec::new(),
            lt_weight: vec![0.0; n],
            lt_threshold: vec![0.0; n],
            lt_stamp: EpochFlags::new(n),
        }
    }
}

/// Runs one forward simulation and returns the number of activated nodes.
#[inline]
fn simulate(
    graph: &Graph,
    model: DiffusionModel,
    seeds: &[u32],
    rng: &mut Rng,
    scratch: &mut SimScratch,
) -> usize {
    match model {
        DiffusionModel::IndependentCascade => simulate_ic(graph, seeds, rng, scratch),
        DiffusionModel::LinearThreshold => simulate_lt(graph, seeds, rng, scratch),
    }
}

/// One IC cascade: BFS over out-edges, each edge fires once with `p(u,v)`.
#[inline]
fn simulate_ic(
    graph: &Graph,
    seeds: &[u32],
    rng: &mut Rng,
    scratch: &mut SimScratch,
) -> usize {
    let visited = &mut scratch.visited;
    let frontier = &mut scratch.frontier;
    visited.clear();
    frontier.clear();
    for &s in seeds {
        if visited.set(s as usize) {
            frontier.push(s);
        }
    }
    let mut head = 0;
    while head < frontier.len() {
        let u = frontier[head];
        head += 1;
        let nbrs = graph.out_neighbors(u);
        let probs = graph.out_probs(u);
        for (&v, &p) in nbrs.iter().zip(probs) {
            if !visited.is_set(v as usize) && rng.f32() < p {
                visited.set(v as usize);
                frontier.push(v);
            }
        }
    }
    frontier.len()
}

/// One LT cascade: thresholds are drawn lazily the first time a node
/// receives incoming weight; a node activates when accumulated weight
/// reaches its threshold.
#[inline]
fn simulate_lt(
    graph: &Graph,
    seeds: &[u32],
    rng: &mut Rng,
    scratch: &mut SimScratch,
) -> usize {
    let visited = &mut scratch.visited;
    let frontier = &mut scratch.frontier;
    let weight = &mut scratch.lt_weight;
    let threshold = &mut scratch.lt_threshold;
    let stamp = &mut scratch.lt_stamp;
    visited.clear();
    stamp.clear();
    frontier.clear();
    for &s in seeds {
        if visited.set(s as usize) {
            frontier.push(s);
        }
    }
    let mut head = 0;
    while head < frontier.len() {
        let u = frontier[head];
        head += 1;
        let nbrs = graph.out_neighbors(u);
        let probs = graph.out_probs(u);
        for (&v, &p) in nbrs.iter().zip(probs) {
            if visited.is_set(v as usize) {
                continue;
            }
            let vi = v as usize;
            if stamp.set(v as usize) {
                weight[vi] = 0.0;
                // λ_v ∈ (0,1]: a node with threshold exactly 0 would
                // self-activate; drawing in (0,1] matches Pr[λ ≤ w] = w.
                threshold[vi] = 1.0 - rng.f32();
            }
            weight[vi] += p;
            if weight[vi] >= threshold[vi] {
                visited.set(v as usize);
                frontier.push(v);
            }
        }
    }
    frontier.len()
}

/// Sum of cascade sizes over `num_samples` independent cascades.
///
/// Samples are partitioned into fixed 256-cascade chunks, each with an RNG
/// stream derived from `(seed, chunk start)`, and the chunk list is split
/// into at most [`std::thread::available_parallelism`] contiguous runs, one
/// scoped thread each. Integer sums merge exactly, so the result does not
/// depend on the thread count.
fn cascade_sum(
    graph: &Graph,
    model: DiffusionModel,
    seeds: &[u32],
    num_samples: usize,
    seed: u64,
) -> u64 {
    const CHUNK: usize = 256;
    let starts: Vec<usize> = (0..num_samples).step_by(CHUNK).collect();
    let run = |starts: &[usize]| {
        let mut scratch = SimScratch::new(graph.num_nodes());
        let mut sum = 0u64;
        for &start in starts {
            let mut rng = Rng::new(seed ^ (start as u64).wrapping_mul(0x9E3779B97F4A7C15));
            for _ in 0..CHUNK.min(num_samples - start) {
                sum += simulate(graph, model, seeds, &mut rng, &mut scratch) as u64;
            }
        }
        sum
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per = starts.len().div_ceil(cores).max(1);
    if per >= starts.len() {
        return run(&starts);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = starts
            .chunks(per)
            .map(|part| scope.spawn(move || run(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cascade thread panicked"))
            .sum()
    })
}

/// Monte-Carlo estimate of the influence spread `σ(S)` using
/// `num_samples` independent cascades, parallelized across scoped threads.
///
/// Deterministic for a fixed `(seed, num_samples)` regardless of thread
/// count: samples are partitioned into fixed chunks, each with a derived
/// RNG stream, and the integer sums merge exactly.
pub fn estimate_spread(
    graph: &Graph,
    model: DiffusionModel,
    seeds: &[u32],
    num_samples: usize,
    seed: u64,
) -> f64 {
    if num_samples == 0 {
        return 0.0;
    }
    cascade_sum(graph, model, seeds, num_samples, seed) as f64 / num_samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_graph::{GraphBuilder, WeightModel};

    /// The Fig. 1 example graph: v1→v2 (1.0), v1→v3 (1.0), v1→v4 (0.4),
    /// v2→v4 (0.3), v3→v4 (0.2). Node ids are shifted down by one.
    pub(crate) fn fig1() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(0, 3, 0.4);
        b.add_weighted_edge(1, 3, 0.3);
        b.add_weighted_edge(2, 3, 0.2);
        b.build(WeightModel::WeightedCascade)
    }

    #[test]
    fn example1_ic_spread() {
        // Paper Example 1: σ({v1}) = 3.664 under IC.
        let g = fig1();
        let est = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0], 200_000, 42);
        assert!((est - 3.664).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn example1_lt_spread() {
        // Paper Example 1: σ({v1}) = 3.9 under LT.
        let g = fig1();
        let est = estimate_spread(&g, DiffusionModel::LinearThreshold, &[0], 200_000, 43);
        assert!((est - 3.9).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn spread_at_least_seed_count() {
        let g = fig1();
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let est = estimate_spread(&g, model, &[1, 2], 2_000, 1);
            assert!(est >= 2.0);
            assert!(est <= g.num_nodes() as f64);
        }
    }

    #[test]
    fn duplicate_seeds_ignored() {
        let g = fig1();
        let mut rng = Rng::new(5);
        let mut scratch = SimScratch::new(4);
        let n = simulate_ic(&g, &[0, 0, 0], &mut rng, &mut scratch);
        assert!(n >= 3, "v1 deterministically activates v2 and v3");
    }

    #[test]
    fn empty_seed_set_spreads_nothing() {
        let g = fig1();
        assert_eq!(
            estimate_spread(&g, DiffusionModel::IndependentCascade, &[], 100, 2),
            0.0
        );
    }

    #[test]
    fn deterministic_estimates() {
        let g = fig1();
        let a = estimate_spread(&g, DiffusionModel::LinearThreshold, &[0], 5_000, 9);
        let b = estimate_spread(&g, DiffusionModel::LinearThreshold, &[0], 5_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn all_seeds_full_spread() {
        let g = fig1();
        let est = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0, 1, 2, 3], 100, 3);
        assert_eq!(est, 4.0);
    }
}
