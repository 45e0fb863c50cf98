//! The general triggering model (Kempe et al., KDD'03).
//!
//! Lemma 3 of the paper is stated "under the triggering model, which
//! generalizes both the IC and LT models": every node `v` independently
//! samples a *triggering set* `T_v ⊆ N_v^in`; `v` activates as soon as an
//! active in-neighbor lies in `T_v`. Equivalently, the live-edge graph
//! keeps exactly the edges `⟨u, v⟩` with `u ∈ T_v`, and influence is
//! reachability from the seeds.
//!
//! * IC: each in-neighbor joins `T_v` independently with `p(u,v)`.
//! * LT: at most one in-neighbor joins, `u` with probability `p(u,v)`.
//!
//! This module provides the model as a first-class abstraction —
//! [`TriggeringDistribution`] — with a forward simulator and an RR-set
//! sampler that work for *any* instance, plus the IC/LT instances used to
//! cross-validate against the specialized code paths.

use dim_graph::rng::Rng;
use dim_graph::Graph;

use crate::rr::RrSampler;
use crate::visit::VisitTracker;

/// A per-node distribution over triggering sets.
///
/// `sample_into` must push the *indices into `graph.in_neighbors(v)`* of
/// the chosen in-neighbors (not node ids); this keeps implementations
/// allocation-free and lets callers map indices to ids or probabilities.
pub trait TriggeringDistribution: Sync {
    /// Samples `T_v` for node `v`, pushing in-neighbor indices into `out`
    /// (cleared by the caller). Returns the work performed (≈ RNG draws).
    fn sample_into(&self, graph: &Graph, v: u32, rng: &mut Rng, out: &mut Vec<u32>)
        -> u64;
}

/// IC as a triggering distribution: independent inclusion per in-edge.
pub struct IcTriggering;

impl TriggeringDistribution for IcTriggering {
    #[inline]
    fn sample_into(
        &self,
        graph: &Graph,
        v: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
    ) -> u64 {
        let probs = graph.in_probs(v);
        for (i, &p) in probs.iter().enumerate() {
            if rng.f32() < p {
                out.push(i as u32);
            }
        }
        probs.len() as u64
    }
}

/// LT as a triggering distribution: at most one in-neighbor, `u` with
/// probability `p(u,v)` (none with `1 − Σ p`).
pub struct LtTriggering;

impl TriggeringDistribution for LtTriggering {
    #[inline]
    fn sample_into(
        &self,
        graph: &Graph,
        v: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
    ) -> u64 {
        let probs = graph.in_probs(v);
        if probs.is_empty() {
            return 1;
        }
        let x = rng.f32();
        let mut acc = 0f32;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if x < acc {
                out.push(i as u32);
                break;
            }
        }
        probs.len() as u64
    }
}

/// Forward simulation under an arbitrary triggering distribution:
/// triggering sets are sampled lazily the first time a node is exposed,
/// then membership decides activation. Returns the number activated.
pub fn simulate_triggering<D: TriggeringDistribution>(
    graph: &Graph,
    dist: &D,
    seeds: &[u32],
    rng: &mut Rng,
    scratch: &mut TriggeringScratch,
) -> usize {
    let TriggeringScratch {
        visited,
        exposed,
        triggering,
        frontier,
        buf,
    } = scratch;
    visited.clear();
    exposed.clear();
    frontier.clear();
    for &s in seeds {
        if visited.mark(s) {
            frontier.push(s);
        }
    }
    let mut head = 0;
    while head < frontier.len() {
        let u = frontier[head];
        head += 1;
        for &v in graph.out_neighbors(u) {
            if visited.is_marked(v) {
                continue;
            }
            if exposed.mark(v) {
                buf.clear();
                dist.sample_into(graph, v, rng, buf);
                // Store T_v as node ids for O(|T_v|) membership checks.
                let t = &mut triggering[v as usize];
                t.clear();
                t.extend(buf.iter().map(|&i| graph.in_neighbors(v)[i as usize]));
            }
            if triggering[v as usize].contains(&u) {
                visited.mark(v);
                frontier.push(v);
            }
        }
    }
    frontier.len()
}

/// Reusable buffers for [`simulate_triggering`].
pub struct TriggeringScratch {
    visited: VisitTracker,
    exposed: VisitTracker,
    triggering: Vec<Vec<u32>>,
    frontier: Vec<u32>,
    buf: Vec<u32>,
}

impl TriggeringScratch {
    /// Allocates scratch for `n` nodes.
    pub fn new(n: usize) -> Self {
        TriggeringScratch {
            visited: VisitTracker::new(n),
            exposed: VisitTracker::new(n),
            triggering: vec![Vec::new(); n],
            frontier: Vec::new(),
            buf: Vec::new(),
        }
    }
}

/// Generic RR-set sampler for any triggering distribution: reverse BFS
/// where leaving node `u` traverses exactly `u`'s sampled triggering set.
pub struct TriggeringRrSampler<'g, D> {
    graph: &'g Graph,
    dist: D,
}

impl<'g, D: TriggeringDistribution> TriggeringRrSampler<'g, D> {
    /// Creates a sampler over `graph` with distribution `dist`.
    pub fn new(graph: &'g Graph, dist: D) -> Self {
        TriggeringRrSampler { graph, dist }
    }
}

impl<D: TriggeringDistribution> RrSampler for TriggeringRrSampler<'_, D> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn sample_rooted(
        &self,
        root: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut VisitTracker,
    ) -> u64 {
        out.clear();
        visited.clear();
        visited.mark(root);
        out.push(root);
        let mut work = 0u64;
        let mut head = 0;
        let mut tset = Vec::new();
        while head < out.len() {
            let u = out[head];
            head += 1;
            tset.clear();
            work += self.dist.sample_into(self.graph, u, rng, &mut tset);
            let sources = self.graph.in_neighbors(u);
            for &idx in &tset {
                let w = sources[idx as usize];
                if visited.mark(w) {
                    out.push(w);
                }
            }
        }
        work.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dim_graph::{GraphBuilder, WeightModel};

    use crate::exact::exact_spread;
    use crate::model::DiffusionModel;
    use crate::rr::estimate_eps;

    fn fig1() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(0, 3, 0.4);
        b.add_weighted_edge(1, 3, 0.3);
        b.add_weighted_edge(2, 3, 0.2);
        b.build(WeightModel::WeightedCascade)
    }

    /// Triggering-model forward simulation with the IC instance matches
    /// the exact IC spread of Example 1 (σ({v1}) = 3.664).
    #[test]
    fn triggering_ic_matches_exact() {
        let g = fig1();
        let mut rng = Rng::new(1);
        let mut scratch = TriggeringScratch::new(4);
        let trials = 200_000;
        let total: usize = (0..trials)
            .map(|_| simulate_triggering(&g, &IcTriggering, &[0], &mut rng, &mut scratch))
            .sum();
        let est = total as f64 / trials as f64;
        assert!((est - 3.664).abs() < 0.01, "estimate {est}");
    }

    /// Same for LT (σ({v1}) = 3.9).
    #[test]
    fn triggering_lt_matches_exact() {
        let g = fig1();
        let mut rng = Rng::new(2);
        let mut scratch = TriggeringScratch::new(4);
        let trials = 200_000;
        let total: usize = (0..trials)
            .map(|_| simulate_triggering(&g, &LtTriggering, &[0], &mut rng, &mut scratch))
            .sum();
        let est = total as f64 / trials as f64;
        assert!((est - 3.9).abs() < 0.01, "estimate {est}");
    }

    /// The generic triggering RR sampler draws the same distribution as
    /// the specialized IC sampler: Lemma 1 check against the exact spread.
    #[test]
    fn triggering_rr_sampler_ic_lemma1() {
        let g = fig1();
        let sampler = TriggeringRrSampler::new(&g, IcTriggering);
        let mut rng = Rng::new(3);
        let mut out = Vec::new();
        let mut visited = VisitTracker::new(4);
        let trials = 300_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            sampler.sample(&mut rng, &mut out, &mut visited);
            if out.contains(&0) {
                hits += 1;
            }
        }
        let est = 4.0 * hits as f64 / trials as f64;
        let exact = exact_spread(&g, DiffusionModel::IndependentCascade, &[0]);
        assert!((est - exact).abs() < 0.02, "RIS {est} vs exact {exact}");
    }

    /// Lemma 3 under the general triggering model: EPS equals the average
    /// single-node spread, for the LT instance.
    #[test]
    fn lemma3_triggering_lt() {
        let g = fig1();
        let exact_avg: f64 = (0..4)
            .map(|v| exact_spread(&g, DiffusionModel::LinearThreshold, &[v]))
            .sum::<f64>()
            / 4.0;
        let sampler = TriggeringRrSampler::new(&g, LtTriggering);
        let mut rng = Rng::new(4);
        let eps = estimate_eps(&sampler, 200_000, &mut rng);
        assert!(
            (eps - exact_avg).abs() < 0.02,
            "EPS {eps} vs exact {exact_avg}"
        );
    }

    /// The LT triggering instance picks at most one in-neighbor.
    #[test]
    fn lt_triggering_at_most_one() {
        let g = fig1();
        let mut rng = Rng::new(5);
        let mut out = Vec::new();
        for _ in 0..1000 {
            out.clear();
            LtTriggering.sample_into(&g, 3, &mut rng, &mut out);
            assert!(out.len() <= 1);
        }
    }

    /// Deterministic edges always end up in the IC triggering set.
    #[test]
    fn ic_triggering_includes_certain_edges() {
        let g = fig1();
        let mut rng = Rng::new(6);
        let mut out = Vec::new();
        for _ in 0..100 {
            out.clear();
            IcTriggering.sample_into(&g, 1, &mut rng, &mut out);
            assert_eq!(out, vec![0], "p = 1 edge always triggers");
        }
    }
}
