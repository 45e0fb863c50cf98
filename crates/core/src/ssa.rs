//! SSA — Stop-and-Stare (Nguyen, Thai, Dinh; SIGMOD'16) — distributed, with
//! ℓ = 1 as the sequential run.
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
//! D-SSA here (≠ the original authors' "DSSA", which is their dynamic
//! algorithm) is OPIM-C's paired-collection loop in [`crate::opim`] with
//! the stare test as its stop rule: both collections through distributed
//! RIS, the selection through NewGreeDi.

use dim_cluster::{ExecMode, NetworkModel, WireError};
use dim_graph::Graph;

use crate::config::{ImConfig, ImResult};
use crate::opim::{paired, PairedRule};

/// Distributed SSA: distributed RIS for both collections, NewGreeDi for
/// selection, per-machine coverage counts for the stare step.
pub fn dssa(
    graph: &Graph,
    config: &ImConfig,
    machines: usize,
    network: NetworkModel,
    mode: ExecMode,
) -> Result<ImResult, WireError> {
    paired(graph, config, machines, network, mode, PairedRule::Ssa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_diffusion::DiffusionModel;
    use dim_graph::generators::barabasi_albert;
    use dim_graph::WeightModel;

    use crate::imm::imm;
    use crate::imm::tests::{assert_guarantee, config, two_stars_and_a_chain};

    /// The sequential run: one machine, free network.
    fn sequential(g: &Graph, cfg: &ImConfig) -> ImResult {
        dssa(g, cfg, 1, NetworkModel::zero(), ExecMode::Sequential).unwrap()
    }

    #[test]
    fn guarantee_on_small_graph() {
        let g = two_stars_and_a_chain();
        let cfg = config(2, 0.3, 7);
        assert_guarantee(&g, &cfg, &sequential(&g, &cfg).seeds);
    }

    #[test]
    fn stops_earlier_than_imm() {
        let g = barabasi_albert(400, 4, WeightModel::WeightedCascade, 9);
        let cfg = config(10, 0.2, 7);
        let s = sequential(&g, &cfg);
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
        let r = sequential(&g, &cfg);
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
        let (theta_0, i_max) = PairedRule::Ssa.schedule(10_000, 50, 0.1, 1e-4);
        assert!(theta_0 >= 32);
        assert!(i_max >= 1);
    }
}
