//! OPIM-C — Online Processing of Influence Maximization (Tang, Tang, Xiao,
//! Yuan; SIGMOD'18) — and the paired-collection loop it shares with SSA
//! ([`crate::ssa`]). Both run distributed; ℓ = 1 is the sequential run.
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
//! Both collections stay sharded: each machine samples its share of
//! `(R₁, R₂)` pairs, selection runs through NewGreeDi on the `R₁` shards,
//! and validation gathers one coverage count per machine over the `R₂`
//! shards. OPIM-C and SSA differ only in their stop test (`PairedRule`);
//! the doubling schedule, the rounds and the traffic are one loop.

use dim_cluster::ops::expect_counts;
use dim_cluster::{
    phase, stream_seed, ExecMode, NetworkModel, OpCluster, OpExecutor, SimCluster, WireError,
    WorkerOp, WorkerReply, WorkerStats,
};
use dim_coverage::newgreedi::newgreedi_incremental;
use dim_coverage::{execute_coverage_op, seed_set_coverage, CoverageShard};
use dim_diffusion::rr::{AnySampler, RrSampler};
use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::Graph;

use crate::config::{ImConfig, ImResult};
use crate::diimm::{finish, sample_rr};
use crate::params::{assert_domain, lambda_star_of};

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

/// One machine's state for the paired-collection frameworks (distributed
/// OPIM-C and distributed SSA): its shards of both collections plus its
/// sampler/RNG.
pub(crate) struct PairedRisWorker<'g> {
    sampler: AnySampler<'g>,
    rng: Rng,
    /// Selection collection shard (`R₁,ᵢ`).
    r1: CoverageShard,
    /// Validation collection shard (`R₂,ᵢ`).
    r2: CoverageShard,
    buf: Vec<u32>,
    visited: EpochFlags,
    edges_examined: u64,
}

impl<'g> PairedRisWorker<'g> {
    pub(crate) fn new(graph: &'g Graph, config: &ImConfig, machine_id: usize) -> Self {
        PairedRisWorker {
            sampler: config.sampler.build(graph),
            rng: Rng::new(stream_seed(config.seed, machine_id)),
            r1: CoverageShard::new(graph.num_nodes()),
            r2: CoverageShard::new(graph.num_nodes()),
            buf: Vec::new(),
            visited: EpochFlags::new(graph.num_nodes()),
            edges_examined: 0,
        }
    }

    fn generate_pairs(&mut self, count: usize) {
        for _ in 0..count {
            for shard in [&mut self.r1, &mut self.r2] {
                self.edges_examined +=
                    self.sampler
                        .sample(&mut self.rng, &mut self.buf, &mut self.visited);
                shard.push_element(&self.buf);
            }
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
                WorkerReply::Count(seed_set_coverage(std::slice::from_ref(&self.r2), seeds))
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

/// The stop test that tells the paired-collection frameworks apart.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum PairedRule {
    /// OPIM-C: reports `n·cov₁/θ`; stops once `σₗ/σᵤ ≥ 1 − 1/e − ε`.
    OpimC,
    /// SSA: reports the unbiased `n·cov₂/θ`; stops once `cov₂ ≥ Λ_min` and
    /// `f₁ ≤ (1 + ε/2)·f₂` (see [`crate::ssa`]).
    Ssa,
}

impl PairedRule {
    /// `(θ₀, i_max)`: θ doubles from `θ₀` towards IMM's worst-case budget
    /// with the trivial `OPT ≥ k` bound, `⌈λ*(n, k, ε, δ)/k⌉` (at least 64
    /// for OPIM-C), so neither framework exceeds IMM's asymptotic sample
    /// count; `i_max` rounds reach it. Panics outside the domain
    /// [`crate::ImParams::derive`] accepts.
    pub(crate) fn schedule(self, n: usize, k: usize, epsilon: f64, delta: f64) -> (usize, u32) {
        assert_domain(n, k, epsilon, delta);
        let floor = if self == PairedRule::OpimC { 64 } else { 0 };
        let t_max = ((lambda_star_of(n, k, epsilon, delta) / k as f64).ceil() as usize).max(floor);
        let theta_0 =
            ((t_max as f64 * epsilon * epsilon * k as f64 / n as f64).ceil() as usize).max(32);
        let i_max = ((t_max as f64 / theta_0 as f64).log2().ceil() as u32).max(1);
        (theta_0, i_max)
    }
}

/// Runs a paired-collection framework on `machines` simulated machines.
pub(crate) fn paired(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
    rule: PairedRule,
) -> Result<ImResult, WireError> {
    assert!(machines >= 1, "need at least one machine");
    let workers = (0..machines)
        .map(|i| PairedRisWorker::new(graph, config, i))
        .collect();
    let mut cluster = SimCluster::new(workers, network, mode);
    paired_on(&mut cluster, graph.num_nodes(), config, rule)
}

/// The paired-collection loop over any [`OpCluster`] whose machines hold
/// `PairedRisWorker`s: sample `θ − generated` pairs, select on `R₁` with
/// NewGreeDi, validate on `R₂` by broadcast, apply `rule`, double `θ`.
fn paired_on<B: OpCluster>(
    cluster: &mut B,
    n: usize,
    config: &ImConfig,
    rule: PairedRule,
) -> Result<ImResult, WireError> {
    let (k, epsilon, delta) = (config.k, config.epsilon, config.delta);
    let (theta_0, i_max) = rule.schedule(n, k, epsilon, delta);
    let mut base_coverage = vec![0u64; n];
    let mut theta = theta_0;
    let mut generated = 0usize;
    let mut best = None;
    for round in 1..=i_max {
        sample_rr(cluster, theta - generated)?;
        generated = theta;

        let sel = newgreedi_incremental(cluster, k, &mut base_coverage)?;
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

        let (nf, thetaf) = (n as f64, theta as f64);
        let (est, stop) = match rule {
            PairedRule::OpimC => {
                let a = (3.0 * i_max as f64 / delta).ln();
                let ratio = sigma_lower(cov2, theta, n, a) / sigma_upper(sel.covered, theta, n, a);
                let est = nf * sel.covered as f64 / thetaf;
                (est, ratio >= 1.0 - (-1.0f64).exp() - epsilon)
            }
            PairedRule::Ssa => {
                let lambda_min =
                    (2.0 + 2.0 * epsilon / 3.0) * (i_max as f64 / delta).ln() / (epsilon * epsilon);
                let f1 = sel.covered as f64 / thetaf;
                let f2 = cov2 as f64 / thetaf;
                let stare = cov2 as f64 >= lambda_min
                    && f1 <= (1.0 + epsilon / 2.0) * f2.max(f64::MIN_POSITIVE);
                (nf * f2, stare)
            }
        };
        best = Some((sel, est, round));
        if stop || round == i_max {
            break;
        }
        theta *= 2;
    }

    let (sel, est_spread, rounds) = best.expect("at least one round");
    finish(cluster, sel, 2 * generated, est_spread, 0.0, rounds)
}

/// Distributed OPIM-C: distributed RIS for both collections, NewGreeDi for
/// selection, a one-count-per-machine gather for validation. The returned
/// [`ImResult`] counts both collections in `num_rr_sets`.
pub fn dopim_c(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
) -> Result<ImResult, WireError> {
    paired(graph, config, machines, network, mode, PairedRule::OpimC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::barabasi_albert;
    use dim_graph::WeightModel;

    use crate::config::SamplerKind;
    use crate::imm::imm;
    use crate::imm::tests::{assert_guarantee, config, two_stars_and_a_chain};
    use crate::ssa::dssa;

    /// The sequential run: one machine, free network.
    fn sequential(g: &Graph, cfg: &ImConfig) -> ImResult {
        dopim_c(g, cfg, 1, NetworkModel::zero(), ExecMode::Sequential).unwrap()
    }

    /// FNV-1a over every outward field of DOPIM-C and D-SSA at ℓ ∈ {1, 3}
    /// under IC and LT on one BA(400, 4) fixture, pinned to the digest the
    /// two separate loops printed before they were merged: the shared one,
    /// its schedule and its index-based validation count reproduce them bit
    /// for bit, traffic included. Re-pinned once when NewGreeDi began
    /// pulling marginals under one tie rule: the traffic words moved, and
    /// the seeds (with D-SSA's estimate) where marginals tie. Re-pinned
    /// again (from `0xe411_04c6_57f0_f88d`) when the IC default became the
    /// count-first law: every IC run's words moved, no LT run's.
    #[test]
    fn paired_frameworks_reproduce_their_pinned_runs() {
        const PINNED: u64 = 0x26ff_ea6b_9fae_6f5c;
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 9);
        let mut bytes = Vec::new();
        for model in [
            DiffusionModel::IndependentCascade,
            DiffusionModel::LinearThreshold,
        ] {
            let cfg = ImConfig {
                sampler: SamplerKind::Standard(model),
                ..config(10, 0.2, 7)
            };
            for machines in [1, 3] {
                for run in [dopim_c, dssa] {
                    let net = NetworkModel::cluster_1gbps();
                    let r = run(&g, &cfg, machines, net, ExecMode::Sequential).unwrap();
                    let m = &r.metrics;
                    bytes.extend(r.seeds.iter().flat_map(|s| s.to_le_bytes()));
                    let words = r.marginals.iter().copied().chain([
                        r.num_rr_sets as u64,
                        r.total_rr_size as u64,
                        r.edges_examined,
                        u64::from(r.rounds),
                        r.est_spread.to_bits(),
                        m.bytes_to_master,
                        m.bytes_from_master,
                        m.messages,
                    ]);
                    bytes.extend(words.flat_map(u64::to_le_bytes));
                }
            }
        }
        assert_eq!(crate::fnv::fnv1a(&bytes), PINNED);
    }

    /// Library callers get `ImParams::derive`'s contract: out of its domain
    /// both paired frameworks panic instead of stopping after round 1 with
    /// no guarantee (OPIM-C's target `1 − 1/e − ε` is ≤ 0 once ε ≥ 1 − 1/e).
    #[test]
    fn paired_frameworks_assert_the_imm_domain() {
        let g = barabasi_albert(50, 2, WeightModel::WeightedCascade, 1);
        for (k, epsilon, delta) in [(0, 0.2, 0.1), (3, 1.5, 0.1), (3, 0.0, 0.1), (3, 0.2, 2.0)] {
            let cfg = ImConfig {
                k,
                epsilon,
                delta,
                ..config(3, 0.2, 1)
            };
            for run in [dopim_c, dssa] {
                let r = std::panic::catch_unwind(|| {
                    run(&g, &cfg, 1, NetworkModel::zero(), ExecMode::Sequential)
                });
                assert!(r.is_err(), "k = {k}, ε = {epsilon}, δ = {delta} accepted");
            }
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
        let g = two_stars_and_a_chain();
        let cfg = config(2, 0.3, 5);
        assert_guarantee(&g, &cfg, &sequential(&g, &cfg).seeds);
    }

    #[test]
    fn uses_fewer_samples_than_imm() {
        // OPIM-C's whole point: early stopping on easy instances.
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 9);
        let cfg = config(10, 0.2, 7);
        let o = sequential(&g, &cfg);
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
