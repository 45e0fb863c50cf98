//! Algebraic and algorithmic properties of every layer on generated
//! inputs: graph CSR invariants, Lemma 1 against the exact live-edge
//! evaluator, monotone and submodular spread, Lemma 2 (`newgreedi ≡
//! bucket_greedy`), the `(1 − 1/e)` bound against brute force, the sample
//! complexity of eqs. (3)–(7), DiIMM's structure, and the cluster
//! substrate's accounting. Cases come from `common::forall`: fixed seeds,
//! fixed counts, a failure names its case and reproduces on a re-run.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use common::{any_u64, forall, in_range, vec_of};
use dim::dim_cluster::wire::ids_wire_size;
use dim::dim_cluster::OpExecutor;
use dim::dim_core::params::log_choose;
use dim::dim_coverage::greedy::naive_greedy;
use dim::dim_coverage::{
    constrained_greedy, execute_coverage_op, seed_set_coverage, PooledSets, SketchCursors,
};
use dim::dim_diffusion::exact::LiveEdgeEnsemble;
use dim::dim_diffusion::rr::sample_batch;
use dim::dim_graph::scratch::EpochFlags;
use dim::prelude::*;

const IC: DiffusionModel = DiffusionModel::IndependentCascade;
const LT: DiffusionModel = DiffusionModel::LinearThreshold;

/// Cases per property: 256 where cheap, fewer where every case samples.
const GRAPH_CASES: u64 = 256;
const DIFFUSION_CASES: u64 = 24;
const COVERAGE_CASES: u64 = 64;
const CORE_CASES: u64 = 32;
const CLUSTER_CASES: u64 = 256;

// Graph substrate.

/// An arbitrary edge list over up to 64 nodes, built under `model`.
fn any_graph(model: WeightModel) -> impl Fn(&mut Rng) -> Graph {
    move |rng| {
        let mut b = GraphBuilder::new(64);
        for (u, v) in vec_of(rng, 0..200, |r| (r.below(64) as u32, r.below(64) as u32)) {
            b.add_edge(u, v);
        }
        b.build(model)
    }
}

fn edges(g: &Graph) -> Vec<(u32, u32, f32)> {
    g.edges().collect()
}

/// Forward and reverse CSR views describe the same edge set, both degree
/// sums equal the edge count, and the stats never contradict the graph.
#[test]
fn forward_and_reverse_csr_agree() {
    forall("forward_reverse_csr", GRAPH_CASES, any_graph(WeightModel::Uniform(0.5)), |g, _| {
        let mut fwd: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let mut rev: Vec<(u32, u32)> = g
            .nodes()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (u, v)))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
        assert_eq!(g.nodes().map(|u| g.out_degree(u)).sum::<usize>(), g.num_edges());
        assert_eq!(g.nodes().map(|v| g.in_degree(v)).sum::<usize>(), g.num_edges());
        let s = GraphStats::compute(g);
        assert_eq!((s.nodes, s.edges), (g.num_nodes(), g.num_edges()));
        assert!(s.max_in_degree <= g.num_edges() && s.sources <= s.nodes);
    });
}

/// Weighted cascade meets the LT constraint with equality on every node
/// that has in-neighbors: Σ p(u, v) = 1.
#[test]
fn weighted_cascade_sums_to_one() {
    forall("weighted_cascade", GRAPH_CASES, any_graph(WeightModel::WeightedCascade), |g, _| {
        assert!(g.satisfies_lt_constraint());
        for v in g.nodes().filter(|&v| g.in_degree(v) > 0) {
            assert!((g.in_prob_sum(v) - 1.0).abs() < 1e-4);
        }
    });
}

/// Building is idempotent on the deduplicated edge set, and the edge-list
/// text form round-trips exactly (probabilities print in full precision).
#[test]
fn rebuild_and_edge_list_io_are_fixed_points() {
    forall("rebuild_fixed_point", GRAPH_CASES, any_graph(WeightModel::Trivalency), |g, _| {
        let mut b = GraphBuilder::new(g.num_nodes());
        for (u, v, p) in g.edges() {
            b.add_weighted_edge(u, v, p);
        }
        assert_eq!(edges(&b.build(WeightModel::WeightedCascade)), edges(g));
        let mut text = Vec::new();
        dim::dim_graph::io::write_edge_list(g, &mut text).unwrap();
        let read =
            dim::dim_graph::io::read_edge_list(text.as_slice(), true, WeightModel::Trivalency)
                .unwrap();
        assert_eq!(edges(&read), edges(g));
    });
}

/// A graph and a chain of edit batches over it. Endpoints come from the
/// graph's own edges half the time (so deletes and reweights hit) and from
/// a pool of eight sources otherwise (so one row takes many ops and one
/// edge is edited repeatedly); a batch may be empty.
fn graph_and_batches(rng: &mut Rng) -> (Graph, Vec<Vec<EdgeOp>>) {
    let model = [WeightModel::WeightedCascade, WeightModel::Trivalency][rng.below(2)];
    let g = any_graph(model)(rng);
    let existing = edges(&g);
    let batches = vec_of(rng, 1..5, |r| {
        vec_of(r, 0..40, |r| {
            let (u, v) = match existing.get(r.below(2 * existing.len().max(1))) {
                Some(&(u, v, _)) => (u, v),
                None => (r.below(8) as u32, r.below(64) as u32),
            };
            let v = if u == v { (v + 1) % 64 } else { v };
            let p = [0.0, 1.0, 0.25, r.f32()][r.below(4)];
            match r.below(3) {
                0 => EdgeOp::Insert { u, v, p },
                1 => EdgeOp::Delete { u, v },
                _ => EdgeOp::Reweight { u, v, p },
            }
        })
    });
    (g, batches)
}

/// Every array of both CSR directions plus the per-node summaries.
fn assert_same_csr(a: &Graph, b: &Graph) {
    assert_eq!((a.num_nodes(), a.num_edges()), (b.num_nodes(), b.num_edges()));
    for v in a.nodes() {
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out row {v}");
        assert_eq!(a.out_probs(v), b.out_probs(v), "out probs {v}");
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in row {v}");
        assert_eq!(a.in_probs(v), b.in_probs(v), "in probs {v}");
        assert_eq!(a.in_prob_sum(v), b.in_prob_sum(v), "in sum {v}");
        assert_eq!(a.in_uniform_prob(v), b.in_uniform_prob(v), "uniform {v}");
    }
}

/// The spliced `apply_batch` is a from-scratch rebuild of the edited edge
/// list: same arrays, same summaries, same fingerprint through DIMG — one
/// batch at a time or the whole chain folded into one batch.
#[test]
fn spliced_apply_batch_equals_rebuild() {
    forall("apply_batch_splice", GRAPH_CASES, graph_and_batches, |(g, batches), _| {
        let mut state: BTreeMap<(u32, u32), f32> =
            g.edges().map(|(u, v, p)| ((u, v), p)).collect();
        let mut chained = g.clone();
        for (seq, ops) in batches.iter().enumerate() {
            for op in ops {
                match *op {
                    EdgeOp::Insert { u, v, p } => {
                        state.insert((u, v), p);
                    }
                    EdgeOp::Delete { u, v } => {
                        state.remove(&(u, v));
                    }
                    EdgeOp::Reweight { u, v, p } => {
                        state.entry((u, v)).and_modify(|w| *w = p);
                    }
                }
            }
            chained = apply_batch(&chained, &DeltaBatch::new(seq as u64, ops.clone())).unwrap();
            let mut b = GraphBuilder::new(g.num_nodes());
            for (&(u, v), &p) in &state {
                b.add_weighted_edge(u, v, p);
            }
            assert_same_csr(&chained, &b.build(WeightModel::WeightedCascade));
        }
        let folded = apply_batch(g, &DeltaBatch::new(0, batches.concat())).unwrap();
        assert_same_csr(&folded, &chained);
        assert_same_csr(&apply_batch(&folded, &DeltaBatch::new(9, vec![])).unwrap(), &folded);
        for v in folded.nodes() {
            let uniform = match folded.in_probs(v) {
                [first, rest @ ..] if rest.iter().all(|p| p == first) => Some(*first),
                _ => None,
            };
            assert_eq!(folded.in_uniform_prob(v), uniform, "node {v}");
        }
        let mut image = Vec::new();
        dim::dim_graph::binary::write_binary(&folded, &mut image).unwrap();
        let decoded = dim::dim_graph::binary::decode_binary(&image).unwrap();
        assert_same_csr(&decoded, &chained);
        assert_eq!(graph_fingerprint(&decoded), graph_fingerprint(&chained));
        assert_eq!(graph_fingerprint(&chained), dim::dim_store::checksum(&image));
    });
}

/// Graphs of up to 2 000 nodes whose rows are often empty: a node other
/// than the last has out-edges with probability ½ (up to 60), the last
/// node none. The largest images run to hundreds of kilobytes, many times
/// the writer's batch.
fn sparse_rows_graph(rng: &mut Rng) -> Graph {
    let n = in_range(rng, 1..2_000) as u32;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n - 1 {
        if rng.below(2) == 0 {
            for v in vec_of(rng, 0..60, |r| r.below(n as usize) as u32) {
                b.add_edge(u, v);
            }
        }
    }
    b.build(WeightModel::Trivalency)
}

/// The DIMG image one value at a time: header, offsets, targets, probs.
fn dimg_one_value_at_a_time(g: &Graph) -> Vec<u8> {
    let mut out = b"DIMG".to_vec();
    out.extend(1u32.to_le_bytes());
    out.extend((g.num_nodes() as u64).to_le_bytes());
    out.extend((g.num_edges() as u64).to_le_bytes());
    let mut offset = 0u64;
    out.extend(offset.to_le_bytes());
    for u in g.nodes() {
        offset += g.out_degree(u) as u64;
        out.extend(offset.to_le_bytes());
    }
    for u in g.nodes() {
        for &v in g.out_neighbors(u) {
            out.extend(v.to_le_bytes());
        }
    }
    for u in g.nodes() {
        for &p in g.out_probs(u) {
            out.extend(p.to_le_bytes());
        }
    }
    out
}

/// The batched `write_binary` writes byte for byte the image a writer of
/// one value at a time writes, and the fingerprint is its checksum.
#[test]
fn batched_dimg_writer_equals_one_value_at_a_time() {
    forall("batched_dimg_writer", GRAPH_CASES, sparse_rows_graph, |g, _| {
        assert_eq!(g.out_degree(g.num_nodes() as u32 - 1), 0);
        let mut image = Vec::new();
        dim::dim_graph::binary::write_binary(g, &mut image).unwrap();
        let reference = dimg_one_value_at_a_time(g);
        assert!(image == reference, "images of {} bytes differ", reference.len());
        assert_eq!(graph_fingerprint(g), dim::dim_store::checksum(&reference));
    });
}

// Diffusion and RR sampling.

/// Tiny weighted digraphs (6 nodes, ≤ 7 edges): small enough for exact
/// live-edge enumeration under both models. Probabilities are scaled down
/// per target so the LT constraint holds.
fn tiny_graph(rng: &mut Rng) -> Graph {
    let edges = vec_of(rng, 1..8, |r| {
        (r.below(6) as u32, r.below(6) as u32, 0.05 + 0.9 * r.f32())
    });
    let mut b = GraphBuilder::new(6);
    for &(u, v, p) in &edges {
        let indeg = edges.iter().filter(|e| e.1 == v).count() as f32;
        b.add_weighted_edge(u, v, (p / indeg).min(1.0));
    }
    b.build(WeightModel::WeightedCascade)
}

/// Lemma 1: n · Pr[v ∈ RR set] converges to the exact σ({v}), and forward
/// Monte-Carlo converges to the exact σ(S), under both models.
#[test]
fn ris_and_forward_estimates_match_exact_spread() {
    let gen = |r: &mut Rng| (tiny_graph(r), r.below(6) as u32, in_range(r, 0..1000));
    forall("lemma1_matches_exact", DIFFUSION_CASES, gen, |(g, root, seed), _| {
        for model in [IC, LT] {
            let within = |est: f64, exact: f64| (est - exact).abs() < 0.15 + 0.05 * exact;
            let sampler = SamplerKind::Standard(model).build(g);
            let (mut rng, mut rr, mut visited) = (Rng::new(*seed), Vec::new(), EpochFlags::new(6));
            let trials = 30_000;
            let hits = (0..trials)
                .filter(|_| {
                    sampler.sample(&mut rng, &mut rr, &mut visited);
                    rr.contains(root)
                })
                .count();
            let (ris, exact) = (6.0 * hits as f64 / trials as f64, exact_spread(g, model, &[*root]));
            assert!(within(ris, exact), "{model}: RIS {ris} vs exact {exact}");
            let (mc, exact) =
                (estimate_spread(g, model, &[0, 3], trials, *seed), exact_spread(g, model, &[0, 3]));
            assert!(within(mc, exact), "{model}: MC {mc} vs exact {exact}");
        }
    });
}

/// Exact spread is monotone in the seed set and submodular: a node helps a
/// subset at least as much as a superset.
#[test]
fn exact_spread_is_monotone_and_submodular() {
    let gen = |r: &mut Rng| (tiny_graph(r), r.below(6) as u32);
    forall("spread_monotone_submodular", DIFFUSION_CASES, gen, |(g, extra), _| {
        for model in [IC, LT] {
            let e = LiveEdgeEnsemble::build(g, model);
            let mut prev = 0.0;
            for v in 0..6 {
                let s = e.spread(&(0..=v).collect::<Vec<u32>>());
                assert!(s >= prev - 1e-9, "{model}: spread dropped {prev} -> {s}");
                prev = s;
            }
            assert!((prev - 6.0).abs() < 1e-9, "all seeds cover everything");
            if *extra > 2 {
                let gain_small = e.spread(&[0, *extra]) - e.spread(&[0]);
                let gain_big = e.spread(&[0, 1, 2, *extra]) - e.spread(&[0, 1, 2]);
                assert!(gain_small >= gain_big - 1e-9, "{model}: {gain_small} < {gain_big}");
            }
        }
    });
}

/// Every RR set is non-empty, duplicate-free and within node-id bounds for
/// all three samplers, and the transpose agrees with a direct scan.
#[test]
fn rr_sets_are_well_formed_and_indexed() {
    let gen = |r: &mut Rng| (tiny_graph(r), in_range(r, 0..1000));
    forall("rr_sets_well_formed", DIFFUSION_CASES, gen, |(g, seed), _| {
        let samplers = [SamplerKind::Standard(IC), SamplerKind::Standard(LT), SamplerKind::ReverseBfs]
            .map(|kind| kind.build(g));
        for sampler in &samplers {
            let mut store = PooledSets::new();
            sample_batch(sampler, 300, &mut Rng::new(*seed), |rr| {
                store.push(rr);
            });
            for rr in store.iter() {
                assert!(!rr.is_empty() && rr.iter().all(|&v| v < 6));
                let mut distinct = rr.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), rr.len());
            }
            let index = store.transpose(6);
            for v in 0..6 {
                let direct: Vec<u32> = (0..store.len() as u32)
                    .filter(|&i| store.get(i as usize).contains(&v))
                    .collect();
                assert_eq!(index.get(v as usize), direct);
            }
        }
    });
}

// Maximum coverage.

/// Random instances: 2–12 sets, 1–40 elements, each covered by 0–5 sets.
fn any_problem(rng: &mut Rng) -> CoverageProblem {
    let num_sets = in_range(rng, 2..13);
    let records = vec_of(rng, 1..41, |r| {
        let mut record = vec_of(r, 0..6, |r| in_range(r, 0..num_sets) as u32);
        record.sort_unstable();
        record.dedup();
        record
    });
    CoverageProblem::from_element_records(num_sets as usize, records.iter().map(Vec::as_slice))
}

/// A problem with a budget `k` in `1..=max_k` and a machine count in
/// `1..=max_l`.
fn with_k_and_l(max_k: u64, max_l: u64) -> impl Fn(&mut Rng) -> (CoverageProblem, usize, usize) {
    move |r| (any_problem(r), in_range(r, 1..max_k + 1) as usize, in_range(r, 1..max_l + 1) as usize)
}

/// Lemma 2's mechanism: NewGreeDi returns exactly the centralized greedy
/// solution for every machine count, over an element partition — and so do
/// the naive rescan and the unconstrained top-k: one tie rule (the largest
/// marginal, then the smallest id), so seeds, marginals and covered agree
/// even where the small instances tie, which they often do.
#[test]
fn newgreedi_equals_centralized_greedy() {
    forall("newgreedi_equals_centralized", COVERAGE_CASES, with_k_and_l(6, 6), |(p, k, l), _| {
        let shards = p.shard_elements(*l);
        let total: usize = shards.iter().map(|s| s.num_elements()).sum();
        assert_eq!(total, p.num_elements(), "sharding is a partition");
        let top_k = constrained_greedy(&shards, *k, &[], &[]);
        let mut cluster = SimCluster::new(shards, NetworkModel::cluster_1gbps(), ExecMode::Sequential);
        let distributed = newgreedi_with(&mut cluster, p.num_sets(), *k).unwrap();
        assert_eq!(distributed, bucket_greedy(&mut p.single_shard(), *k), "bucket_greedy");
        assert_eq!(distributed, naive_greedy(&mut p.single_shard(), *k), "naive_greedy");
        assert_eq!(distributed, top_k, "constrained_greedy");
        assert!(distributed.covered as usize <= p.num_elements());
    });
}

/// Greedy covers at least (1 − 1/e) of the brute-force optimum, with
/// non-increasing marginals (submodularity surfaced).
#[test]
fn greedy_is_within_1_minus_1_over_e_of_brute_force() {
    forall("greedy_within_bound", COVERAGE_CASES, with_k_and_l(6, 1), |(p, k, _), _| {
        let r = bucket_greedy(&mut p.single_shard(), *k);
        assert!(r.marginals.windows(2).all(|w| w[0] >= w[1]));
        let (_, opt) = p.brute_force_opt(*k);
        let bound = (1.0 - (-1.0f64).exp()) * opt as f64;
        assert!(r.covered as f64 >= bound - 1e-9, "greedy {} < (1 − 1/e)·OPT = {bound}", r.covered);
    });
}

/// Both centralized greedies respect the greedy invariant — every
/// pick maximizes the marginal at its point in the sequence — and report
/// the coverage a from-scratch evaluation finds.
#[test]
fn greedy_variants_agree_on_the_invariant() {
    forall("greedy_invariant", COVERAGE_CASES, with_k_and_l(5, 1), |(p, k, _), _| {
        for algo in [bucket_greedy, naive_greedy] {
            let r = algo(&mut p.single_shard(), *k);
            let mut replay = p.single_shard();
            replay.prepare();
            for (&u, &m) in r.seeds.iter().zip(&r.marginals) {
                let max = (0..p.num_sets() as u32).map(|v| replay.marginal(v) as u64).max();
                assert_eq!(replay.marginal(u) as u64, m);
                assert_eq!(Some(m), max);
                replay.apply_seed(u);
            }
            assert_eq!(r.covered, p.coverage_of(&r.seeds));
        }
    });
}

/// GreeDi's hard invariants: reported coverage is the global evaluation
/// of its seeds, never above OPT, within budget.
#[test]
fn greedi_is_consistent() {
    forall("greedi_consistent", COVERAGE_CASES, with_k_and_l(4, 4), |(p, k, l), _| {
        let (shards, partition) = p.shard_sets(*l, None);
        let mut cluster = SimCluster::new(shards, NetworkModel::cluster_1gbps(), ExecMode::Sequential);
        let r = greedi(&mut cluster, &partition, *k, *k).unwrap();
        assert_eq!(r.covered, p.coverage_of(&r.seeds));
        assert!(r.covered <= p.brute_force_opt((*k).min(p.num_sets())).1);
        assert!(r.seeds.len() <= *k);
    });
}

/// The one spread kernel, its `SketchCursors` shell and brute-force `|∪|`
/// agree for every sharding, with duplicate and out-of-range seed ids in
/// the list — and evaluations of different instances on one thread never
/// see each other's marks in the pooled flags.
#[test]
fn seed_set_coverage_equals_cursors_equals_brute_force() {
    let gen = |r: &mut Rng| {
        let (p, _, l) = with_k_and_l(1, 6)(r);
        let ids = p.num_sets() as u64 + 4;
        (p, l, vec_of(r, 0..10, |r| in_range(r, 0..ids) as u32))
    };
    forall("seed_set_coverage_brute_force", COVERAGE_CASES, gen, |(p, l, seeds), _| {
        let shards = p.shard_elements(*l);
        let expected = p.coverage_of(seeds);
        assert_eq!(seed_set_coverage(&shards, seeds), expected);
        let mut cursors = SketchCursors::new(&shards);
        assert_eq!(cursors.seed_set_coverage(seeds), expected);
        assert_eq!(cursors.seed_set_coverage(&[]), 0);
        assert_eq!(seed_set_coverage(&[p.single_shard()], seeds), expected);
    });
}

/// The repair path's invalidation scan finds exactly what the transpose
/// index lists — the sorted, deduped union of `elements().transpose(n)`
/// lists — on a prepared shard, on one left stale by `push_element`, and
/// on one left stale by `replace_elements`, for empty touched lists and
/// touched lists with repeated ids.
#[test]
fn elements_containing_equals_the_transpose() {
    let gen = |r: &mut Rng| {
        let p = any_problem(r);
        let n = p.num_sets() as u64;
        let record = |r: &mut Rng| {
            let mut record = vec_of(r, 0..6, |r| in_range(r, 0..n) as u32);
            record.sort_unstable();
            record.dedup();
            record
        };
        let appended = vec_of(r, 1..4, record);
        let mut replacements = Vec::new();
        for id in 0..(p.num_elements() + appended.len()) as u32 {
            if r.below(3) == 0 {
                replacements.push((id, record(r)));
            }
        }
        let touched = vec_of(r, 1..6, |r| in_range(r, 0..n) as u32);
        (p, appended, replacements, touched)
    };
    forall("scan_equals_transpose", COVERAGE_CASES, gen, |(p, appended, replacements, touched), _| {
        let check = |shard: &CoverageShard, state: &str| {
            let index = shard.elements().transpose(shard.num_sets());
            let mut expected: Vec<u32> =
                touched.iter().flat_map(|&v| index.get(v as usize).iter().copied()).collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(shard.elements_containing(touched), expected, "{state}");
            let repeated: Vec<u32> = touched.iter().chain(touched).copied().collect();
            assert_eq!(shard.elements_containing(&repeated), expected, "{state}, repeated ids");
            assert_eq!(shard.elements_containing(&[]), Vec::<u32>::new(), "{state}, none touched");
        };
        let mut shard = p.single_shard();
        check(&shard, "prepared");
        for record in appended {
            shard.push_element(record);
        }
        assert!(shard.needs_prepare());
        check(&shard, "stale after push_element");
        shard.prepare();
        shard.replace_elements(replacements);
        assert!(shard.needs_prepare());
        check(&shard, "stale after replace_elements");
    });
}

/// A shard whose index grew over several prepares, with batches of
/// records appended between them (some batches empty), answers as a
/// `from_records` rebuild of the same records: initial coverage, every
/// marginal after each random seed and the covered count.
#[test]
fn a_grown_index_answers_as_a_rebuild() {
    let gen = |r: &mut Rng| {
        let p = any_problem(r);
        let ends = p.num_elements() as u64 + 1;
        let cuts = vec_of(r, 0..5, |r| in_range(r, 0..ends) as usize);
        let seeds = vec_of(r, 1..6, |r| in_range(r, 0..p.num_sets() as u64) as u32);
        (p, cuts, seeds)
    };
    forall("grown_index_equals_rebuild", COVERAGE_CASES, gen, |(p, cuts, seeds), _| {
        let records = p.single_shard().elements().clone();
        let mut rebuilt = CoverageShard::from_records(p.num_sets(), records.iter());
        let mut grown = CoverageShard::new(p.num_sets());
        let mut cuts = cuts.clone();
        cuts.push(records.len());
        cuts.sort_unstable();
        let mut appended = 0;
        for cut in cuts {
            for e in appended..cut {
                grown.push_element(records.get(e));
            }
            appended = appended.max(cut);
            grown.prepare();
        }
        assert_eq!(grown.initial_coverage(), rebuilt.initial_coverage());
        let sets = 0..p.num_sets() as u32;
        let marginals = |s: &CoverageShard| sets.clone().map(|v| s.marginal(v)).collect::<Vec<_>>();
        let covered = |s: &mut CoverageShard| execute_coverage_op(s, &WorkerOp::CoveredCount);
        for &seed in seeds {
            grown.apply_seed(seed);
            rebuilt.apply_seed(seed);
            assert_eq!(marginals(&grown), marginals(&rebuilt), "after seed {seed}");
            assert_eq!(covered(&mut grown), covered(&mut rebuilt), "after seed {seed}");
        }
    });
}

/// A touched id outside the set universe is a caller bug, and the scan
/// refuses it rather than ignoring it.
#[test]
#[should_panic(expected = "outside the universe")]
fn elements_containing_rejects_an_out_of_range_id() {
    let p = any_problem(&mut Rng::new(1));
    p.single_shard().elements_containing(&[0, p.num_sets() as u32]);
}

/// Greedy is prefix-consistent: the first `k` picks of a longer
/// unconstrained run are the run for `k`, ties and early stops (fewer
/// useful sets than asked for) included, and the coverage of a prefix is
/// the sum of its marginals.
#[test]
fn constrained_greedy_is_prefix_consistent() {
    forall("greedy_prefix_consistent", COVERAGE_CASES, with_k_and_l(14, 4), |(p, big_k, l), _| {
        let shards = p.shard_elements(*l);
        let long = constrained_greedy(&shards, *big_k, &[], &[]);
        assert!(long.seeds.len() <= *big_k);
        for k in 0..=*big_k {
            let short = constrained_greedy(&shards, k, &[], &[]);
            let kept = k.min(long.seeds.len());
            assert_eq!(short.seeds, long.seeds[..kept], "k = {k}");
            assert_eq!(short.marginals, long.marginals[..kept], "k = {k}");
            assert_eq!(short.covered, long.marginals[..kept].iter().sum::<u64>(), "k = {k}");
        }
    });
}

// Sample complexity and DiIMM.

/// log C(n, k) respects Pascal's rule: C(n, k) = C(n−1, k−1) + C(n−1, k).
#[test]
fn log_choose_obeys_pascal() {
    let gen = |r: &mut Rng| {
        let n = in_range(r, 2..200);
        (n as usize, in_range(r, 1..100).min(n - 1) as usize)
    };
    forall("log_choose_pascal", CORE_CASES, gen, |&(n, k), _| {
        let (a, b) = (log_choose(n - 1, k - 1), log_choose(n - 1, k));
        let m = a.max(b);
        let (lhs, rhs) = (log_choose(n, k), m + ((a - m).exp() + (b - m).exp()).ln());
        assert!((lhs - rhs).abs() < 1e-9 * lhs.max(1.0), "{lhs} vs {rhs}");
    });
}

/// δ′ is Chen's fixed point of eq. (7), ⌈λ*⌉·δ′ = δ — and strictly below
/// δ, so using δ itself (the bound-breaking shortcut) fails here; θ_t is
/// non-decreasing in t and θ_final non-increasing in the lower bound.
#[test]
fn delta_prime_fixed_point_and_theta_monotonicity() {
    let gen = |r: &mut Rng| {
        let n = in_range(r, 10..100_000);
        let k = in_range(r, 1..64).min(n);
        (n as usize, k as usize, 0.05 + 0.85 * r.f64(), 0.5f64.powi(in_range(r, 1..12) as i32))
    };
    forall("delta_prime_fixed_point", CORE_CASES, gen, |&(n, k, eps, delta), _| {
        let p = ImParams::derive(n, k, eps, delta);
        let residual = (p.lambda_star.ceil() * p.delta_prime - delta).abs();
        assert!(residual < 1e-6 * delta, "residual {residual}");
        assert!(p.delta_prime < delta, "δ′ = δ: the fixed point was bypassed");
        assert!(p.lambda_prime > 0.0 && p.lambda_star > 0.0);
        assert!((1..p.max_rounds()).all(|t| p.theta_at(t + 1) >= p.theta_at(t)));
        assert!(p.theta_final(2.0) <= p.theta_final(1.0));
        assert!(p.theta_final(n as f64 / 2.0) >= 1);
    });
}

fn im_config(k: usize, seed: u64, model: DiffusionModel) -> ImConfig {
    ImConfig { k, epsilon: 0.5, delta: 0.2, seed, sampler: SamplerKind::Standard(model) }
}

/// DiIMM is deterministic and structurally sound on random graphs: a
/// fixed (graph, config, ℓ) reproduces exactly; seeds are distinct and in
/// range, and the estimate stays within [k, n].
#[test]
fn diimm_is_structurally_sound() {
    let gen = |r: &mut Rng| (in_range(r, 0..500), in_range(r, 1..6) as usize);
    forall("diimm_structural_soundness", CORE_CASES, gen, |&(seed, l), _| {
        let g = erdos_renyi(120, 600, WeightModel::WeightedCascade, seed);
        let run = || diimm(&g, &im_config(4, seed, IC), l, NetworkModel::zero(), ExecMode::Sequential);
        let (a, b) = (run().unwrap(), run().unwrap());
        assert_eq!((&a.seeds, a.num_rr_sets), (&b.seeds, b.num_rr_sets));
        let mut distinct = a.seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.seeds.len(), "duplicate seeds");
        assert!(a.seeds.iter().all(|&s| (s as usize) < g.num_nodes()));
        assert!(a.est_spread >= a.seeds.len() as f64 - 1e-9);
        assert!(a.est_spread <= g.num_nodes() as f64 + 1e-9);
        assert!(a.coverage as usize <= a.num_rr_sets);
    });
}

/// imm ≡ diimm(ℓ = 1) in every field but the timings and the cluster
/// accounting, under both models, on random graphs and seeds and on one
/// Facebook-profile graph.
#[test]
fn imm_equals_diimm_on_one_machine() {
    let outward = |r: ImResult| {
        let bits = (r.est_spread.to_bits(), r.lower_bound.to_bits(), r.rounds);
        (r.seeds, r.marginals, r.coverage, r.num_rr_sets, r.total_rr_size, r.edges_examined, bits)
    };
    let check = |g: &Graph, config: &ImConfig| {
        let b = diimm(g, config, 1, NetworkModel::zero(), ExecMode::Sequential).unwrap();
        assert_eq!(outward(imm(g, config)), outward(b));
    };
    forall("imm_diimm_equivalence", CORE_CASES, |r| in_range(r, 0..500), |&seed, _| {
        let g = erdos_renyi(100, 500, WeightModel::WeightedCascade, seed);
        for model in [IC, LT] {
            check(&g, &im_config(3, seed, model));
        }
    });
    let g = DatasetProfile::Facebook.generate(0.2, 7);
    check(&g, &ImConfig { k: 6, ..ImConfig::paper_defaults(&g, 0.3, 7) });
}

// Cluster substrate.

/// Transfer time is monotone in bytes and messages, and a collective never
/// costs more than the point-to-point fan-in.
#[test]
fn network_model_is_monotone() {
    let gen = |r: &mut Rng| {
        [in_range(r, 0..1_000_000), in_range(r, 0..1_000_000), in_range(r, 1..64), in_range(r, 1..64)]
    };
    forall("transfer_monotone", CLUSTER_CASES, gen, |&[b1, b2, m1, m2], _| {
        let (lo_b, hi_b, lo_m, hi_m) = (b1.min(b2), b1.max(b2), m1.min(m2), m1.max(m2));
        let net = NetworkModel::cluster_1gbps();
        assert!(net.transfer_time(lo_m, lo_b) <= net.transfer_time(hi_m, hi_b));
        assert!(net.collective_time(lo_m, lo_b) <= net.collective_time(hi_m, hi_b));
        assert!(net.collective_time(hi_m, hi_b) <= net.transfer_time(hi_m, hi_b));
    });
}

/// Stream seeds are collision-free over realistic machine ranges and
/// differ across master seeds.
#[test]
fn stream_seeds_are_unique() {
    forall("stream_seeds_unique", CLUSTER_CASES, any_u64, |&master, _| {
        let seeds: std::collections::HashSet<u64> = (0..128).map(|i| stream_seed(master, i)).collect();
        assert_eq!(seeds.len(), 128);
        assert_ne!(stream_seed(master, 0), stream_seed(master.wrapping_add(1), 0));
    });
}

/// A machine of the accounting property: counts the ops it runs and
/// answers a pull of `n` candidates with `n` marginals, each its own id.
struct Echo {
    id: u32,
    ran: u32,
}

impl OpExecutor for Echo {
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
        self.ran += 1;
        match op {
            WorkerOp::ApplySeed { candidates, .. } => WorkerReply::Marginals(vec![self.id; candidates.len()]),
            _ => WorkerReply::Err("unsupported".into()),
        }
    }
}

/// `op_gather` visits every machine exactly once, in machine order, in
/// both execution modes, accounts exactly the bytes its replies carry, and
/// attributes them to the round's label.
#[test]
fn sim_cluster_accounts_every_gather() {
    let gen = |r: &mut Rng| (in_range(r, 1..12) as usize, in_range(r, 1..2_500) as usize);
    forall("cluster_accounting", CLUSTER_CASES, gen, |&(l, n), _| {
        for mode in [ExecMode::Sequential, ExecMode::Threads] {
            let machines = (0..l as u32).map(|id| Echo { id, ran: 0 }).collect();
            let mut c = SimCluster::new(machines, NetworkModel::cluster_1gbps(), mode);
            let pull = |_| WorkerOp::ApplySeed {
                seed: None,
                candidates: vec![0; n],
            };
            let replies = c.op_gather(phase::COUNT_UPLOAD, pull).unwrap();
            let marginals = |i| WorkerReply::Marginals(vec![i; n]);
            let ids: Vec<_> = (0..l as u32).map(marginals).collect();
            assert_eq!(replies, ids);
            assert!(c.workers().iter().all(|w| w.ran == 1));
            let m = c.metrics();
            let payload = ids_wire_size(n);
            assert_eq!((m.messages, m.bytes_to_master, m.phases), (l as u64, payload * l as u64, 1));
            assert!(m.worker_busy >= m.worker_compute);
            // The flat aggregate equals the single labeled entry.
            assert_eq!(c.timeline().get(phase::COUNT_UPLOAD), m);
            assert_eq!(c.timeline().len(), 1);
        }
    });
}

/// Metrics algebra: `since` of `merge` restores the original.
#[test]
fn metrics_since_inverts_merge() {
    let gen = |r: &mut Rng| (in_range(r, 0..1000), in_range(r, 0..100_000), in_range(r, 0..50));
    forall("metrics_algebra", CLUSTER_CASES, gen, |&(messages, bytes_to_master, phases), _| {
        let comm_time = Duration::from_micros(messages);
        let a = ClusterMetrics { messages, bytes_to_master, phases, comm_time, ..Default::default() };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.since(&a), a);
    });
}

/// The chaos seed fully determines the schedule: injectors built from the
/// same plan emit identical event logs when driven through the same op
/// rounds, whichever execution mode interprets them — which is why a
/// replayed `dim chaos` plan reproduces an incident.
#[test]
fn same_chaos_seed_gives_the_same_event_log() {
    let gen = |r: &mut Rng| (any_u64(r), in_range(r, 1..6), in_range(r, 2..6) as usize);
    forall("same_chaos_seed_same_events", CLUSTER_CASES, gen, |&(chaos_seed, rounds, machines), _| {
        // Kill-free and high-probability: every round injects on most
        // links, so log equality is never vacuous.
        let plan = FaultPlan {
            chaos_seed,
            link_faults: (0..machines as u32)
                .map(|machine| LinkFault {
                    machine, extra_latency_us: 200, jitter_us: 100, stall_ms: 1,
                    loss_prob_ppm: 500_000, loss_retry_us: 700, stall_prob_ppm: 300_000,
                    kill_at_round: None,
                })
                .collect(),
            partitions: vec![Partition { from_round: 1, to_round: 3, heal_us: 400, machines: vec![0] }],
        };
        let log_of = |mode| {
            // Empty coverage shards: resident state enough to answer real
            // op rounds under the armed injector.
            let workers = (0..machines).map(|_| CoverageShard::new(1)).collect();
            let mut cluster = SimCluster::new(workers, NetworkModel::cluster_1gbps(), mode)
                .with_faults(FaultInjector::new(plan.clone(), machines));
            for _ in 0..rounds {
                let replies = cluster
                    .control(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
                    .expect("kill-free plan fails no round");
                assert_eq!(replies, vec![WorkerReply::Count(0); machines]);
            }
            let injector = cluster.fault_injector().expect("injector stays armed");
            assert_eq!(injector.round(), rounds);
            assert!(!injector.events().is_empty(), "no events fired");
            injector.events().to_vec()
        };
        assert_eq!(log_of(ExecMode::Sequential), log_of(ExecMode::Threads));
    });
}
