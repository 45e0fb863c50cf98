//! IMM sample-complexity parameters (eqs. (3)–(7) of the paper).
//!
//! DiIMM inherits IMM's analysis: generate `θ_t = λ′ · 2^t / n` RR sets per
//! lower-bound-search iteration, and `θ = λ* / LB` for the final solution,
//! where `λ′` and `λ*` are functions of `(n, k, ε, δ′)`. The paper adopts
//! Chen's fix to IMM's martingale analysis: `δ′` is the root of
//! `⌈λ*⌉ · δ′ = δ` rather than `δ` itself (eq. (7)).

/// The derived parameters of one IMM/DiIMM run.
#[derive(Clone, Copy, Debug)]
pub struct ImParams {
    /// Number of nodes `n`.
    pub n: usize,
    /// Seed-set size `k`.
    pub k: usize,
    /// Error threshold `ε`.
    pub epsilon: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// `ε′ = √2 · ε` used during the lower-bound search.
    pub epsilon_prime: f64,
    /// The martingale-fix `δ′` — root of `⌈λ*⌉ · δ′ = δ`.
    pub delta_prime: f64,
    /// `λ′` (eq. (3)): RR-set budget scale of the lower-bound search.
    pub lambda_prime: f64,
    /// `λ*` (eq. (6)): RR-set budget scale of the final solution.
    pub lambda_star: f64,
}

impl ImParams {
    /// Derives all parameters, solving the `δ′` fixed point of eq. (7).
    ///
    /// # Panics
    /// Panics unless `n ≥ 2`, `1 ≤ k ≤ n`, `ε ∈ (0, 1)`, and `δ ∈ (0, 1)`.
    pub fn derive(n: usize, k: usize, epsilon: f64, delta: f64) -> Self {
        assert_domain(n, k, epsilon, delta);
        let epsilon_prime = std::f64::consts::SQRT_2 * epsilon;

        // Fixed point: δ′ → λ*(δ′) → δ′ = δ / ⌈λ*⌉. λ* grows only
        // logarithmically as δ′ shrinks, so iteration converges fast.
        let mut delta_prime = delta;
        let mut lambda_star = lambda_star_of(n, k, epsilon, delta_prime);
        for _ in 0..64 {
            let next = delta / lambda_star.ceil();
            if (next - delta_prime).abs() <= 1e-15 * delta_prime {
                delta_prime = next;
                break;
            }
            delta_prime = next;
            lambda_star = lambda_star_of(n, k, epsilon, delta_prime);
        }
        lambda_star = lambda_star_of(n, k, epsilon, delta_prime);

        let lambda_prime = lambda_prime_of(n, k, epsilon_prime, delta_prime);
        ImParams {
            n,
            k,
            epsilon,
            delta,
            epsilon_prime,
            delta_prime,
            lambda_prime,
            lambda_star,
        }
    }

    /// `θ_t = ⌈λ′ / x⌉` with `x = n / 2^t` — the cumulative RR-set target of
    /// lower-bound-search iteration `t ≥ 1`.
    pub fn theta_at(&self, t: u32) -> usize {
        let x = self.n as f64 / 2f64.powi(t as i32);
        (self.lambda_prime / x).ceil() as usize
    }

    /// `θ = ⌈λ* / LB⌉` — the final RR-set target given a lower bound on OPT.
    pub fn theta_final(&self, lower_bound: f64) -> usize {
        assert!(lower_bound >= 1.0, "LB must be at least 1");
        (self.lambda_star / lower_bound).ceil() as usize
    }

    /// Number of lower-bound-search iterations, `log₂(n) − 1`.
    pub fn max_rounds(&self) -> u32 {
        ((self.n as f64).log2() as u32).saturating_sub(1).max(1)
    }
}

/// The domain every framework here is analysed on: `n ≥ 2`, `1 ≤ k ≤ n`,
/// `ε ∈ (0, 1)` and `δ ∈ (0, 1)`. Outside it the bounds are vacuous (OPIM-C's
/// target `1 − 1/e − ε` drops to 0 or below) or the budgets are undefined.
pub(crate) fn assert_domain(n: usize, k: usize, epsilon: f64, delta: f64) {
    assert!(n >= 2, "need at least two nodes");
    assert!(k >= 1 && k <= n, "k = {k} out of [1, {n}]");
    assert!(epsilon > 0.0 && epsilon < 1.0, "ε = {epsilon} out of (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "δ = {delta} out of (0,1)");
}

/// `ln C(n, k)` without overflow: `Σ_{i=1..k} ln((n − k + i) / i)`.
pub fn log_choose(n: usize, k: usize) -> f64 {
    assert!(k <= n);
    let k = k.min(n - k);
    (1..=k)
        .map(|i| (((n - k + i) as f64) / i as f64).ln())
        .sum()
}

/// Eq. (3): `λ′ = (2 + 2ε′/3)(ln C(n,k) + ln(2/δ′) + ln log₂ n) · n / ε′²`.
fn lambda_prime_of(n: usize, k: usize, eps_prime: f64, delta_prime: f64) -> f64 {
    let nf = n as f64;
    (2.0 + 2.0 * eps_prime / 3.0)
        * (log_choose(n, k) + (2.0 / delta_prime).ln() + nf.log2().ln())
        * nf
        / (eps_prime * eps_prime)
}

/// Eqs. (4)–(6): `λ* = 2n((1 − 1/e)·α + β)² / ε²`. IMM/DiIMM pass Chen's
/// `δ′`; the paired frameworks take `δ` itself for their worst-case budget.
pub(crate) fn lambda_star_of(n: usize, k: usize, epsilon: f64, delta_prime: f64) -> f64 {
    let nf = n as f64;
    let one_minus_inv_e = 1.0 - (-1.0f64).exp();
    let ln2 = std::f64::consts::LN_2;
    let alpha = ((2.0 / delta_prime).ln() + ln2).sqrt();
    let beta = (one_minus_inv_e * (log_choose(n, k) + (2.0 / delta_prime).ln() + ln2)).sqrt();
    2.0 * nf * (one_minus_inv_e * alpha + beta).powi(2) / (epsilon * epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_choose_small_values() {
        assert!((log_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((log_choose(10, 0) - 0.0).abs() < 1e-12);
        assert!((log_choose(10, 10) - 0.0).abs() < 1e-12);
        assert!((log_choose(52, 5) - (2_598_960f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn log_choose_symmetry() {
        assert!((log_choose(100, 3) - log_choose(100, 97)).abs() < 1e-9);
    }

    #[test]
    fn delta_prime_satisfies_fixed_point() {
        let p = ImParams::derive(10_000, 50, 0.1, 1e-4);
        // Eq. (7): ⌈λ*⌉ · δ′ = δ.
        let residual = p.lambda_star.ceil() * p.delta_prime - p.delta;
        assert!(
            residual.abs() < 1e-9 * p.delta,
            "residual {residual}, δ′ = {}",
            p.delta_prime
        );
        assert!(p.delta_prime < p.delta, "the fix strictly shrinks δ′");
    }

    #[test]
    fn lambda_monotone_in_epsilon() {
        let loose = ImParams::derive(1000, 10, 0.5, 0.01);
        let tight = ImParams::derive(1000, 10, 0.1, 0.01);
        assert!(tight.lambda_star > loose.lambda_star);
        assert!(tight.lambda_prime > loose.lambda_prime);
    }

    #[test]
    fn theta_progression_doubles() {
        let p = ImParams::derive(4096, 5, 0.3, 0.01);
        // θ_t ≈ λ′·2^t/n: consecutive targets roughly double.
        let t1 = p.theta_at(1) as f64;
        let t2 = p.theta_at(2) as f64;
        assert!((t2 / t1 - 2.0).abs() < 0.01, "ratio {}", t2 / t1);
    }

    #[test]
    fn theta_final_scales_inversely_with_lb() {
        let p = ImParams::derive(1000, 10, 0.2, 0.01);
        assert!(p.theta_final(100.0) > p.theta_final(200.0));
        assert_eq!(
            p.theta_final(1.0),
            p.lambda_star.ceil() as usize
        );
    }

    #[test]
    fn max_rounds_log2() {
        assert_eq!(ImParams::derive(1024, 2, 0.3, 0.1).max_rounds(), 9);
        assert_eq!(ImParams::derive(4, 2, 0.3, 0.1).max_rounds(), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_epsilon() {
        ImParams::derive(100, 5, 1.5, 0.1);
    }

    #[test]
    #[should_panic]
    fn rejects_k_zero() {
        ImParams::derive(100, 0, 0.5, 0.1);
    }
}
