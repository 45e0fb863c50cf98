//! Property-based tests for maximum coverage.

use dim_cluster::{ExecMode, NetworkModel, SimCluster};
use dim_coverage::greedi::greedi;
use dim_coverage::greedy::{bucket_greedy, celf_greedy, naive_greedy};
use dim_coverage::{newgreedi, CoverageProblem};
use proptest::prelude::*;

/// Random instances: up to 12 sets, up to 40 elements, each element covered
/// by 0–5 sets.
fn instance_strategy() -> impl Strategy<Value = CoverageProblem> {
    (2usize..=12, 1usize..=40)
        .prop_flat_map(|(num_sets, num_elements)| {
            prop::collection::vec(
                prop::collection::vec(0u32..num_sets as u32, 0..=5),
                num_elements,
            )
            .prop_map(move |mut records| {
                for r in &mut records {
                    r.sort_unstable();
                    r.dedup();
                }
                CoverageProblem::from_element_records(
                    num_sets,
                    records.iter().map(|r| r.as_slice()),
                )
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's Lemma 2 mechanism: NewGreeDi returns the exact
    /// centralized-greedy solution for every machine count.
    #[test]
    fn newgreedi_equals_centralized(problem in instance_strategy(), k in 1usize..=6,
                                    l in 1usize..=5) {
        let mut shard = problem.single_shard();
        let central = bucket_greedy(&mut shard, k);
        let mut cluster = SimCluster::new(
            problem.shard_elements(l),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let distributed = newgreedi(&mut cluster, k).unwrap();
        prop_assert_eq!(&distributed.seeds, &central.seeds);
        prop_assert_eq!(&distributed.marginals, &central.marginals);
        prop_assert_eq!(distributed.covered, central.covered);
    }

    /// Greedy achieves at least (1 − 1/e) of the brute-force optimum
    /// (Feige's bound; Lemma 2).
    #[test]
    fn greedy_within_1_minus_1_over_e(problem in instance_strategy(), k in 1usize..=4) {
        let (_, opt) = problem.brute_force_opt(k);
        let mut shard = problem.single_shard();
        let r = bucket_greedy(&mut shard, k);
        let bound = (1.0 - (-1.0f64).exp()) * opt as f64;
        prop_assert!(
            r.covered as f64 >= bound - 1e-9,
            "greedy {} < (1-1/e)·OPT = {bound}", r.covered
        );
    }

    /// All three centralized greedies respect the greedy invariant: every
    /// selection maximizes the marginal at its point in the sequence.
    #[test]
    fn greedy_invariant_all_variants(problem in instance_strategy(), k in 1usize..=5) {
        for algo in [bucket_greedy, celf_greedy, naive_greedy] {
            let mut shard = problem.single_shard();
            let r = algo(&mut shard, k);
            let mut replay = problem.single_shard();
            replay.prepare();
            for (&u, &m) in r.seeds.iter().zip(&r.marginals) {
                let max = (0..problem.num_sets() as u32)
                    .map(|v| replay.marginal(v) as u64)
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(replay.marginal(u) as u64, m);
                prop_assert_eq!(m, max);
                replay.apply_seed(u);
            }
            // Reported coverage matches a from-scratch evaluation.
            prop_assert_eq!(r.covered, problem.coverage_of(&r.seeds));
        }
    }

    /// Marginal sequences are non-increasing (submodularity surfaced).
    #[test]
    fn marginals_non_increasing(problem in instance_strategy(), k in 1usize..=6) {
        let mut shard = problem.single_shard();
        let r = bucket_greedy(&mut shard, k);
        prop_assert!(r.marginals.windows(2).all(|w| w[0] >= w[1]));
    }

    /// GreeDi reports coverage consistent with global evaluation and never
    /// exceeds the centralized greedy's guarantee territory arbitrarily:
    /// its coverage is at most OPT and at least a 1/min(ℓ,k)-ish fraction —
    /// we check the hard invariants only (≤ OPT, consistency).
    #[test]
    fn greedi_consistent(problem in instance_strategy(), k in 1usize..=4, l in 1usize..=4) {
        let mut cluster = SimCluster::new(
            problem.shard_sets(l, None),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let r = greedi(&mut cluster, k, k);
        prop_assert_eq!(r.covered, problem.coverage_of(&r.seeds));
        let (_, opt) = problem.brute_force_opt(k.min(problem.num_sets()));
        prop_assert!(r.covered <= opt);
        prop_assert!(r.seeds.len() <= k);
    }

    /// Element sharding is a partition: per-shard element counts sum to the
    /// instance's, and NewGreeDi's covered count never exceeds the element
    /// count.
    #[test]
    fn sharding_partition(problem in instance_strategy(), l in 1usize..=6) {
        let shards = problem.shard_elements(l);
        let total: usize = shards.iter().map(|s| s.num_elements()).sum();
        prop_assert_eq!(total, problem.num_elements());
        let mut cluster = SimCluster::new(
            shards, NetworkModel::zero(), ExecMode::Sequential);
        let r = newgreedi(&mut cluster, 3).unwrap();
        prop_assert!(r.covered as usize <= problem.num_elements());
    }
}
