//! Property-based tests for the IM algorithm layer.

use dim_cluster::{ExecMode, NetworkModel};
use dim_core::diimm::diimm;
use dim_core::imm::imm;
use dim_core::params::{log_choose, ImParams};
use dim_core::{ImConfig, SamplerKind};
use dim_diffusion::DiffusionModel;
use dim_graph::generators::erdos_renyi;
use dim_graph::WeightModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// log C(n,k) respects Pascal's rule: C(n,k) = C(n−1,k−1) + C(n−1,k).
    #[test]
    fn log_choose_pascal(n in 2usize..200, k in 1usize..100) {
        let k = k.min(n - 1);
        let lhs = log_choose(n, k);
        let a = log_choose(n - 1, k - 1);
        let b = log_choose(n - 1, k);
        // ln(e^a + e^b) computed stably.
        let m = a.max(b);
        let rhs = m + ((a - m).exp() + (b - m).exp()).ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.max(1.0), "{lhs} vs {rhs}");
    }

    /// The δ′ fixed point always satisfies eq. (7) and shrinks δ.
    #[test]
    fn delta_prime_fixed_point(n in 10usize..100_000, k in 1usize..64,
                               eps in 0.05f64..0.9, delta_exp in 1u32..12) {
        let k = k.min(n);
        let delta = 0.5f64.powi(delta_exp as i32);
        let p = ImParams::derive(n, k, eps, delta);
        let residual = (p.lambda_star.ceil() * p.delta_prime - delta).abs();
        prop_assert!(residual < 1e-6 * delta, "residual {residual}");
        prop_assert!(p.delta_prime <= delta);
        prop_assert!(p.lambda_prime > 0.0 && p.lambda_star > 0.0);
    }

    /// θ_t is non-decreasing in t and θ_final is non-increasing in LB.
    #[test]
    fn theta_monotonicity(n in 16usize..10_000, k in 1usize..32,
                          eps in 0.1f64..0.8) {
        let k = k.min(n);
        let p = ImParams::derive(n, k, eps, 0.01);
        for t in 1..p.max_rounds() {
            prop_assert!(p.theta_at(t + 1) >= p.theta_at(t));
        }
        prop_assert!(p.theta_final(2.0) <= p.theta_final(1.0));
        prop_assert!(p.theta_final(n as f64 / 2.0) >= 1);
    }

    /// DiIMM is deterministic and structurally sound on random graphs:
    /// fixed (graph, config, ℓ) reproduces exactly; seeds are distinct,
    /// in-range, and the estimate stays within [k, n].
    #[test]
    fn diimm_structural_soundness(seed in 0u64..500, l in 1usize..6) {
        let g = erdos_renyi(120, 600, WeightModel::WeightedCascade, seed);
        let config = ImConfig {
            k: 4,
            epsilon: 0.5,
            delta: 0.2,
            seed,
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
        };
        let a = diimm(&g, &config, l, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        let b = diimm(&g, &config, l, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        prop_assert_eq!(&a.seeds, &b.seeds);
        prop_assert_eq!(a.num_rr_sets, b.num_rr_sets);
        let mut sorted = a.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), a.seeds.len(), "duplicate seeds");
        prop_assert!(a.seeds.iter().all(|&s| (s as usize) < g.num_nodes()));
        prop_assert!(a.est_spread >= a.seeds.len() as f64 - 1e-9);
        prop_assert!(a.est_spread <= g.num_nodes() as f64 + 1e-9);
        prop_assert!(a.coverage as usize <= a.num_rr_sets);
    }

    /// imm ≡ diimm(ℓ=1) across random graphs and seeds (not just the one
    /// fixture the unit test uses).
    #[test]
    fn imm_diimm_equivalence(seed in 0u64..500) {
        let g = erdos_renyi(100, 500, WeightModel::WeightedCascade, seed);
        let config = ImConfig {
            k: 3,
            epsilon: 0.5,
            delta: 0.2,
            seed,
            sampler: SamplerKind::Standard(DiffusionModel::LinearThreshold),
        };
        let a = imm(&g, &config);
        let b = diimm(&g, &config, 1, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        prop_assert_eq!(a.seeds, b.seeds);
        prop_assert_eq!(a.num_rr_sets, b.num_rr_sets);
        prop_assert_eq!(a.coverage, b.coverage);
    }
}
