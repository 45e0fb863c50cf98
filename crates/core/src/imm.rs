//! Sequential IMM (Tang, Shi, Xiao, SIGMOD'15) with Chen's δ′ fix.
//!
//! This is the single-machine baseline that every speedup figure in the
//! paper compares against, and Algorithm 2's search loop
//! (`lower_bound_search`) lives here once for both IMM and
//! [`mod@crate::diimm`]. `imm` draws machine 0's RR sets through a
//! [`DiimmWorker`] and selects with bucket greedy, so `imm(cfg) ==
//! diimm(cfg, ℓ=1)` field for field (`tests/properties.rs`), exactly as the
//! paper treats "IMM" and "DiIMM with one machine" as the same algorithm.
//!
//! It is not *implemented* as `diimm(ℓ = 1)`: it calls the worker and the
//! greedy directly, with no op protocol, so the speedups it anchors
//! (`repro table4`, the benchmark's `cluster.parallel_efficiency`) time
//! the algorithm and nothing else. On `livejournal:0.02` (k = 20, ε = 0.1,
//! θ ≈ 232 k; a 2-core VM shared with other jobs, 15 runs each)
//! `diimm(ℓ = 1)` takes 0.52–0.76 s (median 0.65 s) against 0.51–0.80 s
//! (median 0.63 s) here, and selection 0.12–0.17 s against 0.13–0.19 s:
//! equal within this host's noise.

use std::convert::Infallible;
use std::time::Instant;

use dim_cluster::{ClusterMetrics, PhaseTimeline};
use dim_coverage::greedy::bucket_greedy;
use dim_coverage::GreedyResult;
use dim_graph::Graph;

use crate::config::{ImConfig, ImResult, Timings};
use crate::diimm::DiimmWorker;
use crate::params::ImParams;

/// Algorithm 2, lines 3–13: the lower-bound search grows the collection to
/// `θ_t` and selects until `n·F_R(S_t) ≥ (1 + ε′)·n/2^t`, which sets
/// `LB = n·F_R(S_t)/(1 + ε′)`; then it tops the collection up to
/// `θ = λ*/LB` and selects once more. `grow(ctx, count)` adds `count` RR
/// sets and `select(ctx)` runs greedy over all of them. Returns
/// `(S_k, θ, LB, rounds)`.
pub(crate) fn lower_bound_search<C, E>(
    params: &ImParams,
    ctx: &mut C,
    mut grow: impl FnMut(&mut C, usize) -> Result<(), E>,
    mut select: impl FnMut(&mut C) -> Result<GreedyResult, E>,
) -> Result<(GreedyResult, usize, f64, u32), E> {
    let n = params.n as f64;
    let mut theta = 0usize;
    let mut lower_bound = 1.0f64;
    let mut rounds = 0u32;
    let mut last = None;
    for t in 1..=params.max_rounds() {
        rounds = t;
        let x = n / 2f64.powi(t as i32);
        let theta_t = params.theta_at(t);
        if theta_t > theta {
            grow(ctx, theta_t - theta)?;
            theta = theta_t;
        }
        let r = select(ctx)?;
        let est = n * r.covered as f64 / theta as f64;
        last = Some(r);
        if est >= (1.0 + params.epsilon_prime) * x {
            lower_bound = est / (1.0 + params.epsilon_prime);
            break;
        }
    }

    let theta_final = params.theta_final(lower_bound);
    if theta_final <= theta {
        // The last S_t was computed over this exact collection.
        let last = last.expect("max_rounds() ≥ 1");
        return Ok((last, theta, lower_bound, rounds));
    }
    grow(ctx, theta_final - theta)?;
    Ok((select(ctx)?, theta_final, lower_bound, rounds))
}

/// Runs sequential IMM.
pub fn imm(graph: &Graph, config: &ImConfig) -> ImResult {
    let n = graph.num_nodes();
    let params = ImParams::derive(n, config.k, config.epsilon, config.delta);
    let mut worker = DiimmWorker::new(graph, config, 0);
    let mut timings = Timings::default();
    let Ok((selection, theta, lower_bound, rounds)) = lower_bound_search(
        &params,
        &mut worker,
        |worker, count| {
            let start = Instant::now();
            worker.generate(count);
            timings.sampling += start.elapsed();
            Ok::<_, Infallible>(())
        },
        |worker| {
            let start = Instant::now();
            let r = bucket_greedy(&mut worker.shard, config.k);
            timings.selection += start.elapsed();
            Ok(r)
        },
    );

    ImResult {
        seeds: selection.seeds,
        marginals: selection.marginals,
        coverage: selection.covered,
        num_rr_sets: theta,
        total_rr_size: worker.shard.total_size(),
        edges_examined: worker.edges_examined,
        est_spread: n as f64 * selection.covered as f64 / theta as f64,
        lower_bound,
        rounds,
        timings,
        metrics: ClusterMetrics::default(),
        timeline: PhaseTimeline::default(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dim_diffusion::exact::{exact_opt, exact_spread};
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::{barabasi_albert, erdos_renyi};
    use dim_graph::{GraphBuilder, WeightModel};

    use crate::config::SamplerKind;

    /// An IC run with δ = 0.1, the configuration every framework's unit
    /// tests start from.
    pub(crate) fn config(k: usize, epsilon: f64, seed: u64) -> ImConfig {
        ImConfig {
            k,
            epsilon,
            delta: 0.1,
            seed,
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
        }
    }

    /// Two stars of unequal value plus a chain: small enough to brute-force.
    pub(crate) fn two_stars_and_a_chain() -> Graph {
        let mut b = GraphBuilder::new(8);
        for (u, v, p) in [
            (0u32, 1u32, 0.8f32),
            (0, 2, 0.8),
            (0, 3, 0.6),
            (4, 5, 0.7),
            (4, 6, 0.4),
            (6, 7, 0.5),
        ] {
            b.add_weighted_edge(u, v, p);
        }
        b.build(WeightModel::WeightedCascade)
    }

    /// End-to-end guarantee on a brute-forceable graph: the true spread of
    /// `seeds` under `cfg`'s model is within (1 − 1/e − ε)·OPT.
    pub(crate) fn assert_guarantee(g: &Graph, cfg: &ImConfig, seeds: &[u32]) {
        let model = cfg.sampler.model();
        let achieved = exact_spread(g, model, seeds);
        let (_, opt) = exact_opt(g, model, cfg.k);
        let bound = (1.0 - (-1.0f64).exp() - cfg.epsilon) * opt;
        assert!(
            achieved >= bound,
            "σ(S) = {achieved} < (1 − 1/e − ε)·OPT = {bound}"
        );
    }

    #[test]
    fn approximation_guarantee_ic() {
        let g = two_stars_and_a_chain();
        let cfg = config(2, 0.3, 23);
        assert_guarantee(&g, &cfg, &imm(&g, &cfg).seeds);
    }

    #[test]
    fn approximation_guarantee_lt() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6)] {
            b.add_edge(u, v);
        }
        let g = b.build(WeightModel::WeightedCascade);
        let mut cfg = config(2, 0.3, 31);
        cfg.sampler = SamplerKind::Standard(DiffusionModel::LinearThreshold);
        assert_guarantee(&g, &cfg, &imm(&g, &cfg).seeds);
    }

    #[test]
    fn est_spread_close_to_true_spread() {
        let g = erdos_renyi(400, 2400, WeightModel::WeightedCascade, 12);
        let cfg = config(8, 0.3, 3);
        let r = imm(&g, &cfg);
        let mc = dim_diffusion::forward::estimate_spread(
            &g,
            DiffusionModel::IndependentCascade,
            &r.seeds,
            20_000,
            99,
        );
        let rel = (r.est_spread - mc).abs() / mc;
        assert!(rel < cfg.epsilon, "RIS {} vs MC {mc}", r.est_spread);
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        let g = barabasi_albert(300, 3, WeightModel::WeightedCascade, 8);
        let loose = imm(&g, &config(5, 0.5, 4));
        let tight = imm(&g, &config(5, 0.2, 4));
        assert!(
            tight.num_rr_sets > 2 * loose.num_rr_sets,
            "tight {} vs loose {}",
            tight.num_rr_sets,
            loose.num_rr_sets
        );
    }

    #[test]
    fn subsim_matches_standard_quality() {
        let g = barabasi_albert(300, 4, WeightModel::WeightedCascade, 10);
        // The default IC sampler is SUBSIM; the paper's standard one is
        // the per-edge reverse BFS.
        let sub_r = imm(&g, &config(5, 0.4, 21));
        let mut cfg = config(5, 0.4, 21);
        cfg.sampler = SamplerKind::ReverseBfs;
        let std_r = imm(&g, &cfg);
        let rel = (std_r.est_spread - sub_r.est_spread).abs() / std_r.est_spread;
        assert!(rel < 0.2, "std {} vs subsim {}", std_r.est_spread, sub_r.est_spread);
        // SUBSIM examines fewer edges for the same sample counts on
        // WC-weighted graphs (that is its entire point).
        let per_set_std = std_r.edges_examined as f64 / std_r.num_rr_sets as f64;
        let per_set_sub = sub_r.edges_examined as f64 / sub_r.num_rr_sets as f64;
        assert!(
            per_set_sub < per_set_std,
            "subsim {per_set_sub} ≥ standard {per_set_std}"
        );
    }
}
