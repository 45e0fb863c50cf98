//! Statistical integration tests for the paper's concentration results.

use dim::prelude::*;
use dim_coverage::PooledSets;
use dim_diffusion::rr::{sample_batch, AnySampler};
use dim_graph::rng::Rng;

/// Corollary 1: the total size of T RR sets concentrates around T·EPS —
/// across many independent batches, the batch totals stay within ±20% of
/// the mean (far looser than the martingale bound, so this cannot flake).
#[test]
fn corollary1_rr_size_concentration() {
    let g = DatasetProfile::Facebook.generate(0.2, 12);
    let sampler = AnySampler::for_model(&g, DiffusionModel::IndependentCascade);
    let batch = 2_000;
    let batches = 24;
    let totals: Vec<usize> = (0..batches)
        .map(|i| {
            let mut total = 0;
            let mut rng = Rng::new(1000 + i);
            sample_batch(&sampler, batch, &mut rng, |rr| total += rr.len());
            total
        })
        .collect();
    let mean = totals.iter().sum::<usize>() as f64 / batches as f64;
    for (i, &t) in totals.iter().enumerate() {
        let rel = (t as f64 - mean).abs() / mean;
        assert!(rel < 0.2, "batch {i}: total {t} vs mean {mean} (rel {rel})");
    }
}

/// The same concentration justifies the balanced-workload claim: the
/// slowest of ℓ machines generating θ/ℓ RR sets each does at most ~15% more
/// node-work than the average at realistic batch sizes.
#[test]
fn workload_balanced_across_machines() {
    let g = DatasetProfile::GooglePlus.generate(0.02, 4);
    let sampler = AnySampler::for_model(&g, DiffusionModel::IndependentCascade);
    let machines = 8;
    let per_machine = 3_000;
    let sizes: Vec<usize> = (0..machines)
        .map(|i| {
            let mut total = 0;
            let mut rng = Rng::new(stream_seed(9, i));
            sample_batch(&sampler, per_machine, &mut rng, |rr| total += rr.len());
            total
        })
        .collect();
    let avg = sizes.iter().sum::<usize>() as f64 / machines as f64;
    let max = *sizes.iter().max().unwrap() as f64;
    assert!(
        max / avg < 1.15,
        "imbalance too high: sizes {sizes:?} (max/avg = {})",
        max / avg
    );
}

/// Lemma 1 at integration scope: the RIS estimator is unbiased for a
/// multi-node seed set on a generated profile graph, validated against
/// forward Monte-Carlo.
#[test]
fn lemma1_multi_node_unbiasedness() {
    let g = DatasetProfile::Facebook.generate(0.1, 44);
    let n = g.num_nodes();
    let seeds: Vec<u32> = vec![0, 5, 11];
    let sampler = AnySampler::for_model(&g, DiffusionModel::IndependentCascade);
    let mut rng = Rng::new(2);
    let mut store = PooledSets::new();
    let count = 60_000;
    sample_batch(&sampler, count, &mut rng, |rr| {
        store.push(rr);
    });
    let covered = store
        .iter()
        .filter(|rr| rr.iter().any(|v| seeds.contains(v)))
        .count();
    let ris = n as f64 * covered as f64 / count as f64;
    let mc = estimate_spread(
        &g,
        DiffusionModel::IndependentCascade,
        &seeds,
        60_000,
        71,
    );
    let rel = (ris - mc).abs() / mc;
    assert!(rel < 0.05, "RIS {ris} vs MC {mc} (rel {rel})");
}

/// EPS (Lemma 3) via the sampler agrees between the paper's per-edge BFS
/// sampler and SUBSIM, the IC default — they draw the same distribution.
#[test]
fn samplers_agree_on_eps() {
    let g = DatasetProfile::LiveJournal.generate(0.001, 3);
    let count = 40_000;
    let eps_of = |sampler: AnySampler| {
        let mut total = 0;
        let mut rng = Rng::new(5);
        sample_batch(&sampler, count, &mut rng, |rr| total += rr.len());
        total as f64 / count as f64
    };
    let bfs = eps_of(AnySampler::reverse_bfs(&g));
    let subsim = eps_of(AnySampler::for_model(&g, DiffusionModel::IndependentCascade));
    let rel = (bfs - subsim).abs() / bfs;
    assert!(rel < 0.05, "BFS EPS {bfs} vs SUBSIM EPS {subsim}");
}
