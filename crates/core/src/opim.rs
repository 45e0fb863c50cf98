//! OPIM-C — Online Processing of Influence Maximization (Tang, Tang, Xiao,
//! Yuan; SIGMOD'18) — sequential and distributed.
//!
//! The paper states its two building blocks apply to OPIM-C as well as IMM
//! ("our distributed RIS and NewGreeDi approaches are compatible with all
//! the aforementioned frameworks", §III-C). OPIM-C differs from IMM in its
//! stopping rule: it keeps **two independent RR-set collections** — `R₁`
//! for seed selection, `R₂` for validation — doubling both each round, and
//! stops as soon as concentration bounds certify
//! `σ_lower(S_k) / σ_upper(OPT) ≥ 1 − 1/e − ε`, which often needs far
//! fewer samples than IMM's worst-case budget.
//!
//! Bounds per round (with per-round failure budget `δ/(3·i_max)` and
//! `a = ln(3·i_max/δ)`):
//!
//! * lower bound on `σ(S_k)` from the validation collection `R₂`:
//!   `σ_l = ((√(Λ₂(S_k) + 2a/9) − √(a/2))² − a/18) · n/θ₂`;
//! * upper bound on `σ(S°)` from the selection collection `R₁`, using the
//!   greedy certificate `Λ₁(S°) ≤ Λ₁(S_k)/(1 − 1/e)`:
//!   `σ_u = (√(Λ₁(S_k)/(1−1/e) + a/2) + √(a/2))² · n/θ₁`.
//!
//! The distributed variant keeps both collections sharded: selection runs
//! through NewGreeDi on the `R₁` shards; validation gathers one coverage
//! count per machine over the `R₂` shards.

use dim_cluster::ops::{expect_counts, expect_ok};
use dim_cluster::{
    phase, stream_seed, ClusterBackend, ClusterMetrics, ExecMode, NetworkModel, OpCluster,
    OpExecutor, PhaseTimeline, SimCluster, WireError, WorkerOp, WorkerReply, WorkerStats,
};
use dim_coverage::greedy::bucket_greedy;
use dim_coverage::newgreedi::newgreedi_incremental;
use dim_coverage::{execute_coverage_op, CoverageShard};
use dim_diffusion::rr::{AnySampler, RrSampler};
use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::Graph;

use crate::config::{ImConfig, ImResult, Timings};
use crate::params::log_choose;

/// θ_max: the IMM-style worst-case budget with the trivial `OPT ≥ k`
/// bound, so OPIM-C never exceeds IMM's asymptotic sample count.
fn theta_max(n: usize, k: usize, epsilon: f64, delta: f64) -> usize {
    let nf = n as f64;
    let one_minus_inv_e = 1.0 - (-1.0f64).exp();
    let ln2 = std::f64::consts::LN_2;
    let alpha = ((2.0 / delta).ln() + ln2).sqrt();
    let beta = (one_minus_inv_e * (log_choose(n, k) + (2.0 / delta).ln() + ln2)).sqrt();
    let lambda = 2.0 * nf * (one_minus_inv_e * alpha + beta).powi(2) / (epsilon * epsilon);
    ((lambda / k as f64).ceil() as usize).max(64)
}

/// OPIM-C's lower bound on `σ(S)` given validation coverage `cov` over
/// `theta` RR sets.
fn sigma_lower(cov: u64, theta: usize, n: usize, a: f64) -> f64 {
    let c = cov as f64;
    let inner = (c + 2.0 * a / 9.0).sqrt() - (a / 2.0).sqrt();
    ((inner * inner) - a / 18.0).max(0.0) * n as f64 / theta as f64
}

/// OPIM-C's upper bound on `σ(S°)` given selection coverage `cov` of the
/// greedy solution over `theta` RR sets.
fn sigma_upper(cov: u64, theta: usize, n: usize, a: f64) -> f64 {
    let one_minus_inv_e = 1.0 - (-1.0f64).exp();
    let ub_cov = cov as f64 / one_minus_inv_e;
    let inner = (ub_cov + a / 2.0).sqrt() + (a / 2.0).sqrt();
    inner * inner * n as f64 / theta as f64
}

/// Coverage of `seeds` over one RR-set shard (validation side): number of
/// local elements intersecting the seed set.
pub(crate) fn shard_coverage(
    shard: &CoverageShard,
    seeds: &[u32],
    marked: &mut EpochFlags,
) -> u64 {
    marked.clear();
    for &s in seeds {
        marked.set(s as usize);
    }
    shard
        .elements()
        .iter()
        .filter(|rr| rr.iter().any(|&v| marked.is_set(v as usize)))
        .count() as u64
}

/// Sequential OPIM-C. Interface-compatible with [`crate::imm::imm`]; the
/// returned [`ImResult`] counts both collections in `num_rr_sets`.
pub fn opim_c(graph: &Graph, config: &ImConfig) -> ImResult {
    let n = graph.num_nodes();
    let sampler = config.sampler.make(graph);
    let mut rng = Rng::new(stream_seed(config.seed, 0));
    let t_max = theta_max(n, config.k, config.epsilon, config.delta);
    let theta_0 = ((t_max as f64 * config.epsilon * config.epsilon * config.k as f64
        / n as f64)
        .ceil() as usize)
        .max(32);
    let i_max = ((t_max as f64 / theta_0 as f64).log2().ceil() as u32).max(1);
    let a = (3.0 * i_max as f64 / config.delta).ln();

    let mut r1 = CoverageShard::new(n);
    let mut r2 = CoverageShard::new(n);
    let mut buf = Vec::new();
    let mut visited = EpochFlags::new(n);
    let mut marked = EpochFlags::new(n);
    let mut edges = 0u64;
    let mut timings = Timings::default();
    let mut theta = theta_0;
    let target = 1.0 - (-1.0f64).exp() - config.epsilon;

    let mut best = None;
    for round in 1..=i_max {
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

        let lower = sigma_lower(cov2, r2.num_elements(), n, a);
        let upper = sigma_upper(sel.covered, r1.num_elements(), n, a);
        let est = n as f64 * sel.covered as f64 / r1.num_elements() as f64;
        let ratio = lower / upper;
        best = Some((sel, est, round));
        if ratio >= target || round == i_max {
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

/// One machine's state for the paired-collection frameworks (distributed
/// OPIM-C and distributed SSA): its shards of both collections plus its
/// sampler/RNG.
pub(crate) struct PairedRisWorker<'g> {
    sampler: AnySampler<'g>,
    rng: Rng,
    /// Selection collection shard (`R₁,ᵢ`).
    pub r1: CoverageShard,
    /// Validation collection shard (`R₂,ᵢ`).
    pub r2: CoverageShard,
    buf: Vec<u32>,
    visited: EpochFlags,
    marked: EpochFlags,
    pub(crate) edges_examined: u64,
}

impl<'g> PairedRisWorker<'g> {
    pub(crate) fn new(graph: &'g Graph, config: &ImConfig, machine_id: usize) -> Self {
        PairedRisWorker {
            sampler: config.sampler.make(graph),
            rng: Rng::new(stream_seed(config.seed, machine_id)),
            r1: CoverageShard::new(graph.num_nodes()),
            r2: CoverageShard::new(graph.num_nodes()),
            buf: Vec::new(),
            visited: EpochFlags::new(graph.num_nodes()),
            marked: EpochFlags::new(graph.num_nodes()),
            edges_examined: 0,
        }
    }

    fn generate_pairs(&mut self, count: usize) {
        for _ in 0..count {
            self.edges_examined +=
                self.sampler
                    .sample(&mut self.rng, &mut self.buf, &mut self.visited);
            self.r1.push_element(&self.buf);
            self.edges_examined +=
                self.sampler
                    .sample(&mut self.rng, &mut self.buf, &mut self.visited);
            self.r2.push_element(&self.buf);
        }
    }
}

/// The op vocabulary a paired-collection machine answers: paired sampling
/// into both resident collections, NewGreeDi's coverage phases against
/// `R₁`, and validation coverage of a broadcast seed set against `R₂`
/// (OPIM-C's bound check, SSA's stare step).
impl OpExecutor for PairedRisWorker<'_> {
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
        match op {
            WorkerOp::SampleRr { count } => {
                self.generate_pairs(*count as usize);
                WorkerReply::Ok
            }
            WorkerOp::Validate { seeds } => {
                self.r2.prepare();
                WorkerReply::Count(shard_coverage(&self.r2, seeds, &mut self.marked))
            }
            WorkerOp::Stats => WorkerReply::Stats(WorkerStats {
                num_elements: (self.r1.num_elements() + self.r2.num_elements()) as u64,
                total_size: (self.r1.total_size() + self.r2.total_size()) as u64,
                edges_examined: self.edges_examined,
            }),
            other => execute_coverage_op(&mut self.r1, other)
                .unwrap_or_else(|| WorkerReply::Err("op unsupported by paired-RIS worker".into())),
        }
    }
}

/// Distributed OPIM-C: distributed RIS for both collections, NewGreeDi for
/// selection, a one-count-per-machine gather for validation.
pub fn dopim_c(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
) -> Result<ImResult, WireError> {
    assert!(machines >= 1);
    let n = graph.num_nodes();
    let t_max = theta_max(n, config.k, config.epsilon, config.delta);
    let theta_0 = ((t_max as f64 * config.epsilon * config.epsilon * config.k as f64
        / n as f64)
        .ceil() as usize)
        .max(32);
    let i_max = ((t_max as f64 / theta_0 as f64).log2().ceil() as u32).max(1);
    let a = (3.0 * i_max as f64 / config.delta).ln();
    let target = 1.0 - (-1.0f64).exp() - config.epsilon;

    let workers: Vec<PairedRisWorker> = (0..machines)
        .map(|i| PairedRisWorker::new(graph, config, i))
        .collect();
    let mut cluster = SimCluster::new(workers, network, mode);
    let mut base_coverage = vec![0u64; n];

    let mut theta = theta_0;
    let mut generated = 0usize;
    let mut best = None;
    for round in 1..=i_max {
        let counts = crate::diimm::split_counts(theta.saturating_sub(generated), machines);
        let replies = cluster.control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
            count: counts[i] as u64,
        })?;
        expect_ok(&replies, phase::RR_SAMPLING)?;
        generated = theta;

        let sel = newgreedi_incremental(&mut cluster, config.k, &mut base_coverage)?;
        // Validation: broadcast S_k, gather one covered-count per machine.
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
        let lower = sigma_lower(cov2, theta2, n, a);
        let upper = sigma_upper(sel.covered, theta1, n, a);
        let est = n as f64 * sel.covered as f64 / theta1 as f64;
        let ratio = lower / upper;
        best = Some((sel, est, round));
        if ratio >= target || round == i_max {
            break;
        }
        theta *= 2;
    }

    let (sel, est_spread, rounds) = best.expect("at least one round");
    let theta_total: usize = cluster
        .workers()
        .iter()
        .map(|w| w.r1.num_elements() + w.r2.num_elements())
        .sum();
    let total_rr_size: usize = cluster
        .workers()
        .iter()
        .map(|w| w.r1.total_size() + w.r2.total_size())
        .sum();
    let edges_examined: u64 = cluster.workers().iter().map(|w| w.edges_examined).sum();
    let timeline = cluster.timeline().clone();
    Ok(ImResult {
        seeds: sel.seeds,
        marginals: sel.marginals,
        coverage: sel.covered,
        num_rr_sets: theta_total,
        total_rr_size,
        edges_examined,
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
    fn bounds_are_ordered() {
        // For the same coverage/θ, the lower bound is below the naive
        // estimate and the upper bound above it.
        let (cov, theta, n, a) = (500u64, 1000usize, 100usize, 3.0);
        let naive = n as f64 * cov as f64 / theta as f64;
        assert!(sigma_lower(cov, theta, n, a) < naive);
        assert!(sigma_upper(cov, theta, n, a) > naive);
    }

    #[test]
    fn bounds_tighten_with_theta() {
        let n = 100;
        let a = 3.0;
        // Same empirical coverage fraction at 4x the samples.
        let gap_small = sigma_upper(100, 200, n, a) - sigma_lower(100, 200, n, a);
        let gap_big = sigma_upper(400, 800, n, a) - sigma_lower(400, 800, n, a);
        assert!(gap_big < gap_small);
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
        let cfg = config(2, 0.3, 5);
        let r = opim_c(&g, &cfg);
        let model = DiffusionModel::IndependentCascade;
        let achieved = exact_spread(&g, model, &r.seeds);
        let (_, opt) = exact_opt(&g, model, 2);
        let bound = (1.0 - (-1.0f64).exp() - cfg.epsilon) * opt;
        assert!(achieved >= bound, "σ(S) = {achieved} < {bound}");
    }

    #[test]
    fn uses_fewer_samples_than_imm() {
        // OPIM-C's whole point: early stopping on easy instances.
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 9);
        let cfg = config(10, 0.2, 7);
        let o = opim_c(&g, &cfg);
        let i = imm(&g, &cfg);
        assert!(
            o.num_rr_sets < i.num_rr_sets,
            "OPIM-C {} ≥ IMM {}",
            o.num_rr_sets,
            i.num_rr_sets
        );
        assert_eq!(o.seeds.len(), 10);
    }

    #[test]
    fn distributed_matches_sequential_with_one_machine() {
        let g = barabasi_albert(300, 3, WeightModel::WeightedCascade, 4);
        let cfg = config(5, 0.3, 11);
        let a = opim_c(&g, &cfg);
        let b = dopim_c(&g, &cfg, 1, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.num_rr_sets, b.num_rr_sets);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn distributed_quality_stable_across_machines() {
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 13);
        let cfg = config(8, 0.25, 3);
        let spreads: Vec<f64> = [1usize, 4, 16]
            .iter()
            .map(|&l| {
                dopim_c(&g, &cfg, l, NetworkModel::zero(), ExecMode::Sequential).unwrap().est_spread
            })
            .collect();
        let max = spreads.iter().cloned().fold(f64::MIN, f64::max);
        let min = spreads.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min) / max < 0.2, "spreads {spreads:?}");
    }

    #[test]
    fn traffic_cheaper_than_diimm_when_stopping_early() {
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 21);
        let cfg = config(10, 0.2, 5);
        let o = dopim_c(&g, &cfg, 8, NetworkModel::cluster_1gbps(), ExecMode::Sequential).unwrap();
        assert!(o.metrics.bytes_to_master > 0);
        assert!(o.rounds >= 1);
    }
}
