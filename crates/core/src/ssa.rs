//! SSA — Stop-and-Stare (Nguyen, Thai, Dinh; SIGMOD'16) — sequential and
//! distributed.
//!
//! The last of the four `(1 − 1/e − ε)` frameworks the paper names
//! (IMM, SSA, OPIM-C, SUBSIM). SSA alternates two moves:
//!
//! * **Stop**: double the selection collection `R₁`, run greedy, get `S_t`
//!   and its inflated coverage estimate `f₁ = Λ₁(S_t)/θ`.
//! * **Stare**: estimate the same seed set on an *independent* collection
//!   `R₂` of equal size, `f₂ = Λ₂(S_t)/θ`. Greedy overfits its own samples,
//!   so `f₁ ≥ f₂` in expectation; once the two agree within `1 + ε₁` *and*
//!   the validation coverage clears a concentration floor
//!   `Λ_min = (2 + ⅔ε)·ln(i_max/δ)/ε²`, the estimate is trustworthy and
//!   the algorithm stops.
//!
//! This implementation follows the simplified exposition above (the
//! original's ε₁/ε₂/ε₃ split is folded into `ε₁ = ε/2` and the floor);
//! the end-to-end guarantee is exercised empirically against brute-force
//! optima, exactly like the other frameworks in this crate.
//!
//! The distributed variant (D-SSA here ≠ the original authors' "DSSA",
//! which is their dynamic algorithm) runs both collections through
//! distributed RIS and the selection through NewGreeDi, mirroring
//! [`crate::opim`].

use dim_cluster::ops::{expect_counts, expect_ok};
use dim_cluster::{
    phase, stream_seed, ClusterBackend, ClusterMetrics, ExecMode, NetworkModel, OpCluster,
    PhaseTimeline, SimCluster, WireError, WorkerOp,
};
use dim_coverage::greedy::bucket_greedy;
use dim_coverage::newgreedi::newgreedi_incremental;
use dim_coverage::CoverageShard;
use dim_diffusion::rr::RrSampler;
use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::Graph;

use crate::config::{ImConfig, ImResult, Timings};
use crate::opim::{shard_coverage, PairedRisWorker};

struct SsaSchedule {
    theta_0: usize,
    i_max: u32,
    lambda_min: f64,
    eps_1: f64,
}

fn schedule(n: usize, k: usize, epsilon: f64, delta: f64) -> SsaSchedule {
    // Worst-case ceiling mirrors IMM's budget with OPT ≥ k; the stare rule
    // almost always stops far earlier.
    let t_max = {
        let nf = n as f64;
        let one_minus_inv_e = 1.0 - (-1.0f64).exp();
        let ln2 = std::f64::consts::LN_2;
        let alpha = ((2.0 / delta).ln() + ln2).sqrt();
        let beta = (one_minus_inv_e
            * (crate::params::log_choose(n, k) + (2.0 / delta).ln() + ln2))
        .sqrt();
        (2.0 * nf * (one_minus_inv_e * alpha + beta).powi(2)
            / (epsilon * epsilon * k as f64))
            .ceil() as usize
    };
    let theta_0 = ((t_max as f64 * epsilon * epsilon * k as f64 / n as f64).ceil() as usize)
        .max(32);
    let i_max = ((t_max as f64 / theta_0 as f64).log2().ceil() as u32).max(1);
    let lambda_min =
        (2.0 + 2.0 * epsilon / 3.0) * (i_max as f64 / delta).ln() / (epsilon * epsilon);
    SsaSchedule {
        theta_0,
        i_max,
        lambda_min,
        eps_1: epsilon / 2.0,
    }
}

/// Sequential SSA.
pub fn ssa(graph: &Graph, config: &ImConfig) -> ImResult {
    let n = graph.num_nodes();
    let sched = schedule(n, config.k, config.epsilon, config.delta);
    let sampler = config.sampler.make(graph);
    let mut rng = Rng::new(stream_seed(config.seed, 0));
    let mut r1 = CoverageShard::new(n);
    let mut r2 = CoverageShard::new(n);
    let mut buf = Vec::new();
    let mut visited = EpochFlags::new(n);
    let mut marked = EpochFlags::new(n);
    let mut edges = 0u64;
    let mut timings = Timings::default();

    let mut theta = sched.theta_0;
    let mut best = None;
    for round in 1..=sched.i_max {
        let start = std::time::Instant::now();
        while r1.num_elements() < theta {
            edges += sampler.sample(&mut rng, &mut buf, &mut visited);
            r1.push_element(&buf);
            edges += sampler.sample(&mut rng, &mut buf, &mut visited);
            r2.push_element(&buf);
        }
        timings.sampling += start.elapsed();

        let start = std::time::Instant::now();
        let sel = bucket_greedy(&mut r1, config.k);
        r2.prepare();
        let cov2 = shard_coverage(&r2, &sel.seeds, &mut marked);
        timings.selection += start.elapsed();

        let f1 = sel.covered as f64 / r1.num_elements() as f64;
        let f2 = cov2 as f64 / r2.num_elements() as f64;
        let est = n as f64 * f2; // report the unbiased validation estimate
        let stare_ok =
            cov2 as f64 >= sched.lambda_min && f1 <= (1.0 + sched.eps_1) * f2.max(f64::MIN_POSITIVE);
        best = Some((sel, est, round));
        if stare_ok || round == sched.i_max {
            break;
        }
        theta *= 2;
    }

    let (sel, est_spread, rounds) = best.expect("at least one round");
    ImResult {
        seeds: sel.seeds,
        marginals: sel.marginals,
        coverage: sel.covered,
        num_rr_sets: r1.num_elements() + r2.num_elements(),
        total_rr_size: r1.total_size() + r2.total_size(),
        edges_examined: edges,
        est_spread,
        lower_bound: 0.0,
        rounds,
        timings,
        metrics: ClusterMetrics::default(),
        timeline: PhaseTimeline::default(),
    }
}

/// Distributed SSA: distributed RIS for both collections, NewGreeDi for
/// selection, per-machine coverage counts for the stare step.
pub fn dssa(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
) -> Result<ImResult, WireError> {
    assert!(machines >= 1);
    let n = graph.num_nodes();
    let sched = schedule(n, config.k, config.epsilon, config.delta);
    let workers: Vec<PairedRisWorker> = (0..machines)
        .map(|i| PairedRisWorker::new(graph, config, i))
        .collect();
    let mut cluster = SimCluster::new(workers, network, mode);
    let mut base_coverage = vec![0u64; n];

    let mut theta = sched.theta_0;
    let mut generated = 0usize;
    let mut best = None;
    for round in 1..=sched.i_max {
        let counts = crate::diimm::split_counts(theta.saturating_sub(generated), machines);
        let replies = cluster.control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
            count: counts[i] as u64,
        })?;
        expect_ok(&replies, phase::RR_SAMPLING)?;
        generated = theta;

        let sel = newgreedi_incremental(&mut cluster, config.k, &mut base_coverage)?;
        let replies = cluster.op_broadcast_gather(
            phase::SEED_BROADCAST,
            dim_cluster::wire::ids_wire_size(sel.seeds.len()),
            phase::VALIDATION,
            |_| WorkerOp::Validate {
                seeds: sel.seeds.clone(),
            },
        )?;
        let cov2: u64 = expect_counts(&replies, phase::VALIDATION)?.iter().sum();

        let theta1: usize = cluster.workers().iter().map(|w| w.r1.num_elements()).sum();
        let theta2: usize = cluster.workers().iter().map(|w| w.r2.num_elements()).sum();
        let f1 = sel.covered as f64 / theta1 as f64;
        let f2 = cov2 as f64 / theta2 as f64;
        let est = n as f64 * f2;
        let stare_ok =
            cov2 as f64 >= sched.lambda_min && f1 <= (1.0 + sched.eps_1) * f2.max(f64::MIN_POSITIVE);
        best = Some((sel, est, round));
        if stare_ok || round == sched.i_max {
            break;
        }
        theta *= 2;
    }

    let (sel, est_spread, rounds) = best.expect("at least one round");
    let timeline = cluster.timeline().clone();
    Ok(ImResult {
        seeds: sel.seeds,
        marginals: sel.marginals,
        coverage: sel.covered,
        num_rr_sets: cluster
            .workers()
            .iter()
            .map(|w| w.r1.num_elements() + w.r2.num_elements())
            .sum(),
        total_rr_size: cluster
            .workers()
            .iter()
            .map(|w| w.r1.total_size() + w.r2.total_size())
            .sum(),
        edges_examined: cluster.workers().iter().map(|w| w.edges_examined).sum(),
        est_spread,
        lower_bound: 0.0,
        rounds,
        timings: Timings::from_timeline(&timeline),
        metrics: timeline.total(),
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_diffusion::exact::{exact_opt, exact_spread};
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::barabasi_albert;
    use dim_graph::{GraphBuilder, WeightModel};

    use crate::config::SamplerKind;
    use crate::imm::imm;

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
    fn guarantee_on_small_graph() {
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
        let g = b.build(WeightModel::WeightedCascade);
        let cfg = config(2, 0.3, 7);
        let r = ssa(&g, &cfg);
        let model = DiffusionModel::IndependentCascade;
        let achieved = exact_spread(&g, model, &r.seeds);
        let (_, opt) = exact_opt(&g, model, 2);
        let bound = (1.0 - (-1.0f64).exp() - cfg.epsilon) * opt;
        assert!(achieved >= bound, "σ(S) = {achieved} < {bound}");
    }

    #[test]
    fn stops_earlier_than_imm() {
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 9);
        let cfg = config(10, 0.2, 7);
        let s = ssa(&g, &cfg);
        let i = imm(&g, &cfg);
        assert!(
            s.num_rr_sets < i.num_rr_sets,
            "SSA {} ≥ IMM {}",
            s.num_rr_sets,
            i.num_rr_sets
        );
        assert_eq!(s.seeds.len(), 10);
    }

    #[test]
    fn validation_estimate_not_inflated() {
        // The stare rule reports the unbiased R₂ estimate; it must agree
        // with an independent Monte-Carlo evaluation within ε.
        let g = barabasi_albert(300, 3, WeightModel::WeightedCascade, 4);
        let cfg = config(6, 0.2, 13);
        let r = ssa(&g, &cfg);
        let mc = dim_diffusion::forward::estimate_spread(
            &g,
            DiffusionModel::IndependentCascade,
            &r.seeds,
            30_000,
            55,
        );
        let rel = (r.est_spread - mc).abs() / mc;
        assert!(rel < cfg.epsilon, "SSA est {} vs MC {mc}", r.est_spread);
    }

    #[test]
    fn distributed_matches_sequential_with_one_machine() {
        let g = barabasi_albert(250, 3, WeightModel::WeightedCascade, 2);
        let cfg = config(5, 0.3, 21);
        let a = ssa(&g, &cfg);
        let b = dssa(&g, &cfg, 1, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.num_rr_sets, b.num_rr_sets);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn distributed_quality_stable() {
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 6);
        let cfg = config(8, 0.25, 5);
        let spreads: Vec<f64> = [1usize, 4, 12]
            .iter()
            .map(|&l| dssa(&g, &cfg, l, NetworkModel::zero(), ExecMode::Sequential).unwrap().est_spread)
            .collect();
        let max = spreads.iter().cloned().fold(f64::MIN, f64::max);
        let min = spreads.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min) / max < 0.2, "spreads {spreads:?}");
    }

    #[test]
    fn schedule_sane() {
        let s = schedule(10_000, 50, 0.1, 1e-4);
        assert!(s.theta_0 >= 32);
        assert!(s.i_max >= 1);
        assert!(s.lambda_min > 0.0);
        assert!(s.eps_1 > 0.0 && s.eps_1 < 0.1 + 1e-12);
    }
}
