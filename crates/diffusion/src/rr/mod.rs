//! Random reverse-reachable (RR) set generation — Definition 1 of the paper.
//!
//! An RR set `R` is generated by (1) picking a uniformly random root
//! `v ∈ V`, (2) sampling a live-edge graph `g` per the diffusion model,
//! (3) collecting the nodes that reach `v` in `g`. Lemma 1 links RR sets to
//! influence: `σ(S) = n · Pr[S ∩ R ≠ ∅]`.
//!
//! Three samplers are provided:
//! * [`SubsimRrSampler`] — SUBSIM-style subset sampling for IC: a node
//!   whose in-probabilities are uniform (every node under weighted cascade)
//!   draws its live-edge count from a tabulated Binomial CDF and picks that
//!   many in-edges, in O(#successes) and with no transcendental function.
//!   It is the IC default (`SamplerKind::Standard(IC)`);
//! * [`IcRrSampler`] — the paper's stochastic reverse BFS (IC model, §III-A
//!   step list), one coin per in-edge. It draws the same RR-set law and is
//!   kept as the named baseline ([`SamplerKind::ReverseBfs`]);
//! * [`LtRrSampler`] — reverse random walk (LT model).
//!
//! [`SamplerKind`] is the one name of each law: runs, worker ops and
//! persisted sketches all carry it, and [`SamplerKind::build`] makes its
//! sampler. The two IC samplers consume their RNG streams differently, so
//! the same stream gives different sets: a persisted sketch records which
//! one drew it ([`SamplerKind::tag`]), and is only ever extended or
//! repaired by that one.
//!
//! A sampler holds the graph it samples as a [`GraphRef`] and derives all
//! its tables from it once, so it is built once per graph a machine holds.

pub mod ic;
pub mod lt;
pub mod subsim;

pub use ic::IcRrSampler;
pub use lt::LtRrSampler;
pub use subsim::SubsimRrSampler;

use dim_graph::rng::Rng;
use dim_graph::scratch::EpochFlags;
use dim_graph::{Graph, GraphRef};

use crate::model::DiffusionModel;

/// A generator of random RR sets over a fixed graph.
///
/// The concrete samplers mark `sample_rooted` `#[inline]`: the sampling
/// loop lives in the calling crate (a DiIMM worker, a bench), and the
/// per-edge coin loop is only optimised together with it when the body is
/// available there.
pub trait RrSampler: Sync {
    /// The graph being sampled.
    fn graph(&self) -> &Graph;

    /// Samples the RR set rooted at `root` into `out` (cleared first).
    /// Returns the sampler work units spent — the `w(R)` work measure of
    /// the paper's time-complexity analysis (§III-D): one per in-edge
    /// examined, except that a SUBSIM count row with `L` live edges counts
    /// `1 + L`.
    fn sample_rooted(
        &self,
        root: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
    ) -> u64;

    /// Samples one RR set with a uniformly random root (Definition 1 step 1).
    fn sample(
        &self,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
    ) -> u64 {
        let root = rng.below(self.graph().num_nodes()) as u32;
        self.sample_rooted(root, rng, out, visited)
    }
}

/// Which RR-set sampler a run uses. Each kind draws one RR-set law, and
/// its [`tag`](Self::tag) is bound to that law in every file ever written:
/// the IC default is SUBSIM's count-first law (tag 3), so a tag-0 sketch
/// can only be extended or repaired by the reverse BFS that drew it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// The model's default sampler: SUBSIM's count-first subset sampler for
    /// IC (the Fig. 7 sampler, tag 3) and the reverse walk for LT (tag 1).
    /// What IMM/DiIMM, `dim` and the benchmark use.
    Standard(DiffusionModel),
    /// The paper's §III-A per-edge reverse BFS for IC (tag 0): the same
    /// law as `Standard(IC)` drawn coin by coin, kept as the baseline that
    /// Figs. 5/6 and Table IV measure.
    ReverseBfs,
}

impl SamplerKind {
    /// Builds the sampler over `graph`.
    pub fn build<'g>(self, graph: impl Into<GraphRef<'g>>) -> AnySampler<'g> {
        match self {
            SamplerKind::Standard(DiffusionModel::IndependentCascade) => {
                AnySampler::Subsim(SubsimRrSampler::new(graph))
            }
            SamplerKind::Standard(DiffusionModel::LinearThreshold) => {
                AnySampler::Lt(LtRrSampler::new(graph))
            }
            SamplerKind::ReverseBfs => AnySampler::ReverseBfs(IcRrSampler::new(graph)),
        }
    }

    /// The diffusion model whose RR distribution is sampled.
    pub fn model(self) -> DiffusionModel {
        match self {
            SamplerKind::Standard(m) => m,
            SamplerKind::ReverseBfs => DiffusionModel::IndependentCascade,
        }
    }

    /// The law's canonical tag: its byte in worker ops and in `dim-store`
    /// shard headers.
    pub fn tag(self) -> u8 {
        match self {
            SamplerKind::ReverseBfs => 0,
            SamplerKind::Standard(DiffusionModel::LinearThreshold) => 1,
            SamplerKind::Standard(DiffusionModel::IndependentCascade) => 3,
        }
    }

    /// Inverse of [`SamplerKind::tag`]: `None` for a retired tag too.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SamplerKind::ReverseBfs),
            1 => Some(SamplerKind::Standard(DiffusionModel::LinearThreshold)),
            3 => Some(SamplerKind::Standard(DiffusionModel::IndependentCascade)),
            _ => None,
        }
    }

    /// Whether `tag` names a law no build draws any more: 2, SUBSIM's
    /// jump sampler (one geometric skip per live edge), replaced as the IC
    /// default by the count-first law (tag 3). A sketch drawn under it can
    /// be neither extended nor repaired, and must be re-sampled.
    pub fn is_retired(tag: u8) -> bool {
        tag == 2
    }
}

/// The sampler of a [`SamplerKind`], as [`SamplerKind::build`] makes it.
pub enum AnySampler<'g> {
    /// IC per-edge reverse BFS (the §III-A baseline).
    ReverseBfs(IcRrSampler<'g>),
    /// LT reverse random walk.
    Lt(LtRrSampler<'g>),
    /// SUBSIM count-first sampler (IC distribution).
    Subsim(SubsimRrSampler<'g>),
}

impl RrSampler for AnySampler<'_> {
    fn graph(&self) -> &Graph {
        match self {
            AnySampler::ReverseBfs(s) => s.graph(),
            AnySampler::Lt(s) => s.graph(),
            AnySampler::Subsim(s) => s.graph(),
        }
    }

    #[inline]
    fn sample_rooted(
        &self,
        root: u32,
        rng: &mut Rng,
        out: &mut Vec<u32>,
        visited: &mut EpochFlags,
    ) -> u64 {
        match self {
            AnySampler::ReverseBfs(s) => s.sample_rooted(root, rng, out, visited),
            AnySampler::Lt(s) => s.sample_rooted(root, rng, out, visited),
            AnySampler::Subsim(s) => s.sample_rooted(root, rng, out, visited),
        }
    }
}

/// Samples `count` RR sets, handing each to `sink` in order (callers push
/// them into a `dim_coverage::PooledSets`). Returns the total sampler work
/// units (Σ w(R)).
pub fn sample_batch<S: RrSampler>(
    sampler: &S,
    count: usize,
    rng: &mut Rng,
    mut sink: impl FnMut(&[u32]),
) -> u64 {
    let mut out = Vec::new();
    let mut visited = EpochFlags::new(sampler.graph().num_nodes());
    let mut edges = 0u64;
    for _ in 0..count {
        edges += sampler.sample(rng, &mut out, &mut visited);
        sink(&out);
    }
    edges
}

/// Appends `w` (already marked visited) to the IC samplers' RR set, which
/// doubles as their BFS queue. `w` is dequeued later, so its in-list starts
/// loading now: the first cache line is hinted into L1 (a no-op off
/// x86-64).
#[inline(always)]
fn enqueue(graph: &Graph, w: u32, out: &mut Vec<u32>) {
    out.push(w);
    let row = graph.in_neighbors(w);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch of any address is architecturally a hint and
    // never faults; SSE is part of the x86-64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(row.as_ptr().cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

#[cfg(test)]
mod tests {
    use super::*;

    use dim_graph::{GraphBuilder, WeightModel};

    /// Monte-Carlo estimate of EPS — the expected RR-set size, which Lemma 3
    /// shows equals the average single-node influence `(1/n)·Σ_v σ({v})`.
    fn estimate_eps<S: RrSampler>(sampler: &S, samples: usize, rng: &mut Rng) -> f64 {
        let mut out = Vec::new();
        let mut visited = EpochFlags::new(sampler.graph().num_nodes());
        let mut total = 0usize;
        for _ in 0..samples {
            sampler.sample(rng, &mut out, &mut visited);
            total += out.len();
        }
        total as f64 / samples as f64
    }

    fn fig1() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 1.0);
        b.add_weighted_edge(0, 3, 0.4);
        b.add_weighted_edge(1, 3, 0.3);
        b.add_weighted_edge(2, 3, 0.2);
        b.build(WeightModel::WeightedCascade)
    }

    #[test]
    fn batch_fills_store() {
        let g = fig1();
        let sampler = SamplerKind::Standard(DiffusionModel::IndependentCascade).build(&g);
        let mut sets = Vec::new();
        let mut rng = Rng::new(1);
        let edges = sample_batch(&sampler, 100, &mut rng, |rr| sets.push(rr.to_vec()));
        assert_eq!(sets.len(), 100);
        assert!(edges > 0);
        assert!(sets.iter().all(|rr| !rr.is_empty()), "RR sets contain their root");
    }

    /// Lemma 3: EPS = (1/n)·Σ_v σ({v}), checked by Monte Carlo on Fig. 1.
    #[test]
    fn lemma3_eps_equals_avg_single_spread() {
        let g = fig1();
        let exact_avg: f64 = (0..4)
            .map(|v| {
                crate::exact::exact_spread(&g, DiffusionModel::IndependentCascade, &[v])
            })
            .sum::<f64>()
            / 4.0;
        let sampler = SamplerKind::Standard(DiffusionModel::IndependentCascade).build(&g);
        let mut rng = Rng::new(2);
        let eps = estimate_eps(&sampler, 200_000, &mut rng);
        assert!(
            (eps - exact_avg).abs() < 0.02,
            "EPS {eps} vs exact {exact_avg}"
        );
    }

    /// Lemma 3 under LT.
    #[test]
    fn lemma3_lt() {
        let g = fig1();
        let exact_avg: f64 = (0..4)
            .map(|v| crate::exact::exact_spread(&g, DiffusionModel::LinearThreshold, &[v]))
            .sum::<f64>()
            / 4.0;
        let sampler = SamplerKind::Standard(DiffusionModel::LinearThreshold).build(&g);
        let mut rng = Rng::new(3);
        let eps = estimate_eps(&sampler, 200_000, &mut rng);
        assert!(
            (eps - exact_avg).abs() < 0.02,
            "EPS {eps} vs exact {exact_avg}"
        );
    }
}
