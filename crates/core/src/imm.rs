//! Sequential IMM (Tang, Shi, Xiao, SIGMOD'15) with Chen's δ′ fix.
//!
//! This is the single-machine baseline that every speedup figure in the
//! paper compares against. The implementation deliberately mirrors
//! [`mod@crate::diimm`] step for step — same parameter math, same RNG stream as
//! DiIMM's machine 0, same bucket-greedy selector — so that
//! `imm(cfg) == diimm(cfg, ℓ=1)` seed-for-seed (verified by an integration
//! test), exactly as the paper treats "IMM" and "DiIMM with one machine" as
//! the same algorithm.

use std::time::Instant;

use dim_cluster::{rr_set_seed, stream_seed, ClusterMetrics, PhaseTimeline};
use dim_coverage::greedy::bucket_greedy;
use dim_coverage::CoverageShard;
use dim_diffusion::rr::RrSampler;
use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::Graph;

use crate::config::{ImConfig, ImResult, Timings};
use crate::params::ImParams;

/// Runs sequential IMM.
pub fn imm(graph: &Graph, config: &ImConfig) -> ImResult {
    let n = graph.num_nodes();
    let params = ImParams::derive(n, config.k, config.epsilon, config.delta);
    let sampler = config.sampler.make(graph);
    // Machine-0 per-set streams: keeps imm() bit-identical to diimm() with
    // ℓ = 1 (each RR set draws from its own seeded RNG, so a set's bytes
    // depend only on its index, never on how sets were batched).
    let machine_seed = stream_seed(config.seed, 0);
    let mut sets = 0u64;
    let mut shard = CoverageShard::new(n);
    let mut buf = Vec::new();
    let mut visited = EpochFlags::new(n);
    let mut edges_examined = 0u64;
    let mut timings = Timings::default();

    let mut generate = |shard: &mut CoverageShard,
                        count: usize,
                        timings: &mut Timings,
                        edges: &mut u64| {
        let start = Instant::now();
        for _ in 0..count {
            let mut rng = Rng::new(rr_set_seed(machine_seed, sets));
            *edges += sampler.sample(&mut rng, &mut buf, &mut visited);
            shard.push_element(&buf);
            sets += 1;
        }
        timings.sampling += start.elapsed();
    };

    let mut theta_cur = 0usize;
    let mut lower_bound = 1.0f64;
    let mut rounds = 0u32;
    let mut last = None;
    for t in 1..=params.max_rounds() {
        rounds = t;
        let x = n as f64 / 2f64.powi(t as i32);
        let theta_t = params.theta_at(t);
        if theta_t > theta_cur {
            generate(&mut shard, theta_t - theta_cur, &mut timings, &mut edges_examined);
            theta_cur = theta_t;
        }
        let start = Instant::now();
        let r = bucket_greedy(&mut shard, config.k);
        timings.selection += start.elapsed();
        let est = n as f64 * r.covered as f64 / theta_cur as f64;
        last = Some(r);
        if est >= (1.0 + params.epsilon_prime) * x {
            lower_bound = est / (1.0 + params.epsilon_prime);
            break;
        }
    }

    let theta = params.theta_final(lower_bound);
    let final_result = if theta > theta_cur || last.is_none() {
        generate(&mut shard, theta - theta_cur, &mut timings, &mut edges_examined);
        theta_cur = theta_cur.max(theta);
        let start = Instant::now();
        let r = bucket_greedy(&mut shard, config.k);
        timings.selection += start.elapsed();
        r
    } else if let Some(last) = last {
        last
    } else {
        unreachable!("guarded by last.is_none() above")
    };

    let coverage = final_result.covered;
    ImResult {
        seeds: final_result.seeds,
        marginals: final_result.marginals,
        coverage,
        num_rr_sets: theta_cur,
        total_rr_size: shard.total_size(),
        edges_examined,
        est_spread: n as f64 * coverage as f64 / theta_cur as f64,
        lower_bound,
        rounds,
        timings,
        metrics: ClusterMetrics::default(),
        timeline: PhaseTimeline::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cluster::{ExecMode, NetworkModel};
    use dim_diffusion::exact::{exact_opt, exact_spread};
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::{barabasi_albert, erdos_renyi};
    use dim_graph::{GraphBuilder, WeightModel};

    use crate::config::SamplerKind;
    use crate::diimm::diimm;

    fn config(k: usize, epsilon: f64, seed: u64) -> ImConfig {
        ImConfig {
            k,
            epsilon,
            delta: 0.1,
            seed,
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
        }
    }

    #[test]
    fn equals_diimm_with_one_machine() {
        let g = barabasi_albert(250, 3, WeightModel::WeightedCascade, 6);
        let cfg = config(5, 0.5, 17);
        let a = imm(&g, &cfg);
        let b = diimm(&g, &cfg, 1, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.num_rr_sets, b.num_rr_sets);
        assert_eq!(a.total_rr_size, b.total_rr_size);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.edges_examined, b.edges_examined);
        assert!((a.lower_bound - b.lower_bound).abs() < 1e-9);
    }

    /// End-to-end guarantee on a brute-forceable graph: the returned seed
    /// set's true spread is within (1 − 1/e − ε)·OPT.
    #[test]
    fn approximation_guarantee_ic() {
        let mut b = GraphBuilder::new(8);
        // Two stars of unequal value plus a chain.
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
        let g = b.build(WeightModel::WeightedCascade);
        let cfg = config(2, 0.3, 23);
        let r = imm(&g, &cfg);
        let model = DiffusionModel::IndependentCascade;
        let achieved = exact_spread(&g, model, &r.seeds);
        let (_, opt) = exact_opt(&g, model, 2);
        let bound = (1.0 - (-1.0f64).exp() - cfg.epsilon) * opt;
        assert!(
            achieved >= bound,
            "σ(S) = {achieved} < (1 − 1/e − ε)·OPT = {bound}"
        );
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
        let r = imm(&g, &cfg);
        let model = DiffusionModel::LinearThreshold;
        let achieved = exact_spread(&g, model, &r.seeds);
        let (_, opt) = exact_opt(&g, model, 2);
        let bound = (1.0 - (-1.0f64).exp() - cfg.epsilon) * opt;
        assert!(
            achieved >= bound,
            "σ(S) = {achieved} < (1 − 1/e − ε)·OPT = {bound}"
        );
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
