//! End-to-end integration tests: the full DiIMM pipeline against ground
//! truth, across machine counts, models, and samplers.

use dim::prelude::*;

fn small_config(k: usize, epsilon: f64, seed: u64, model: DiffusionModel) -> ImConfig {
    ImConfig {
        k,
        epsilon,
        delta: 0.1,
        seed,
        sampler: SamplerKind::Standard(model),
    }
}

/// Theorem 1 for every framework on a brute-forceable graph: the returned
/// seed set achieves (1 − 1/e − ε)·OPT in *exact* spread — IMM, OPIM-C and
/// SSA centrally; DiIMM at every machine count given; DOPIM-C, D-SSA and
/// (under IC, whose distribution it samples) DiIMM on the paper's per-edge
/// reverse BFS at ℓ ∈ {1, 3}. Every other IC run here samples with SUBSIM,
/// the default.
fn assert_guarantee(g: &Graph, model: DiffusionModel, k: usize, seed: u64, machine_counts: &[usize]) {
    let config = small_config(k, 0.3, seed, model);
    let (_, opt) = exact_opt(g, model, k);
    let bound = (1.0 - (-1.0f64).exp() - config.epsilon) * opt;
    let check = |framework: &str, machines: usize, r: ImResult| {
        let achieved = exact_spread(g, model, &r.seeds);
        assert!(
            achieved >= bound,
            "{framework}, ℓ = {machines}: σ(S) = {achieved} < {bound} (OPT = {opt})"
        );
    };
    let (net, mode) = (NetworkModel::cluster_1gbps(), ExecMode::Sequential);
    check("imm", 1, imm(g, &config));
    check("opim_c", 1, opim_c(g, &config));
    check("ssa", 1, ssa(g, &config));
    for &machines in machine_counts {
        check("diimm", machines, diimm(g, &config, machines, net, mode).unwrap());
    }
    for machines in [1, 3] {
        check("dopim_c", machines, dopim_c(g, &config, machines, net, mode).unwrap());
        check("dssa", machines, dssa(g, &config, machines, net, mode).unwrap());
        if model == DiffusionModel::IndependentCascade {
            let bfs = ImConfig { sampler: SamplerKind::ReverseBfs, ..config };
            check("diimm on reverse bfs", machines, diimm(g, &bfs, machines, net, mode).unwrap());
        }
    }
}

#[test]
fn diimm_guarantee_ic_all_machine_counts() {
    let mut b = GraphBuilder::new(9);
    for (u, v, p) in [
        (0u32, 1u32, 0.9f32),
        (0, 2, 0.7),
        (1, 3, 0.5),
        (2, 3, 0.4),
        (4, 5, 0.8),
        (4, 6, 0.6),
        (7, 8, 0.9),
    ] {
        b.add_weighted_edge(u, v, p);
    }
    let g = b.build(WeightModel::WeightedCascade);
    assert_guarantee(&g, DiffusionModel::IndependentCascade, 3, 77, &[1, 2, 4, 7]);
}

/// Same guarantee under the LT model.
#[test]
fn diimm_guarantee_lt() {
    let mut b = GraphBuilder::new(8);
    for (u, v) in [(0u32, 1u32), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)] {
        b.add_edge(u, v);
    }
    let g = b.build(WeightModel::WeightedCascade);
    assert_guarantee(&g, DiffusionModel::LinearThreshold, 2, 13, &[1, 3, 5]);
}

/// The RIS spread estimate agrees with forward Monte-Carlo simulation
/// within the configured ε, end-to-end on a realistic profile graph.
#[test]
fn ris_estimate_matches_forward_simulation() {
    let g = DatasetProfile::Facebook.generate(0.25, 3);
    let config = ImConfig {
        k: 10,
        ..ImConfig::paper_defaults(&g, 0.2, 5)
    };
    let r = diimm(&g, &config, 4, NetworkModel::shared_memory(), ExecMode::Sequential).unwrap();
    let mc = estimate_spread(
        &g,
        DiffusionModel::IndependentCascade,
        &r.seeds,
        30_000,
        123,
    );
    let rel = (r.est_spread - mc).abs() / mc;
    assert!(
        rel < config.epsilon,
        "RIS {} vs MC {mc} (rel {rel})",
        r.est_spread
    );
}

/// Seed quality is invariant to the machine count: different ℓ draw
/// different RR sets, but the estimated spreads of the returned seed sets
/// agree within the approximation band.
#[test]
fn quality_invariant_to_machine_count() {
    let g = DatasetProfile::Facebook.generate(0.25, 9);
    let config = ImConfig {
        k: 8,
        ..ImConfig::paper_defaults(&g, 0.2, 21)
    };
    let spreads: Vec<f64> = [1usize, 2, 8, 16]
        .iter()
        .map(|&l| {
            diimm(&g, &config, l, NetworkModel::zero(), ExecMode::Sequential)
                .unwrap()
                .est_spread
        })
        .collect();
    let max = spreads.iter().cloned().fold(f64::MIN, f64::max);
    let min = spreads.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (max - min) / max < 0.15,
        "spreads vary too much across ℓ: {spreads:?}"
    );
}

/// SUBSIM sampling (the IC default) in the full distributed pipeline
/// returns seeds of the same quality as the paper's standard per-edge
/// sampler (Fig. 7's premise).
#[test]
fn distributed_subsim_equivalent_quality() {
    let g = DatasetProfile::Facebook.generate(0.25, 31);
    let sub_cfg = ImConfig {
        k: 8,
        ..ImConfig::paper_defaults(&g, 0.25, 11)
    };
    let sub_r = diimm(&g, &sub_cfg, 4, NetworkModel::zero(), ExecMode::Sequential).unwrap();
    let base = ImConfig {
        sampler: SamplerKind::ReverseBfs,
        ..sub_cfg
    };
    let std_r = diimm(&g, &base, 4, NetworkModel::zero(), ExecMode::Sequential).unwrap();
    let model = DiffusionModel::IndependentCascade;
    let std_mc = estimate_spread(&g, model, &std_r.seeds, 20_000, 55);
    let sub_mc = estimate_spread(&g, model, &sub_r.seeds, 20_000, 55);
    let rel = (std_mc - sub_mc).abs() / std_mc;
    assert!(rel < 0.1, "standard {std_mc} vs subsim {sub_mc}");
}

/// k larger than the number of useful nodes still terminates and returns
/// at most n seeds.
#[test]
fn k_saturating_terminates() {
    let mut b = GraphBuilder::new(4);
    b.add_weighted_edge(0, 1, 1.0);
    b.add_weighted_edge(0, 2, 1.0);
    b.add_weighted_edge(0, 3, 1.0);
    let g = b.build(WeightModel::WeightedCascade);
    let config = small_config(4, 0.4, 3, DiffusionModel::IndependentCascade);
    let r = diimm(&g, &config, 2, NetworkModel::zero(), ExecMode::Sequential).unwrap();
    assert!(r.seeds.len() <= 4);
    assert!(!r.seeds.is_empty());
    assert!(r.seeds.contains(&0), "the root dominates this graph");
}
