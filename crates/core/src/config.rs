//! Shared configuration and result types for IMM/DiIMM runs.

use std::time::Duration;

use dim_cluster::{phase, ClusterMetrics, PhaseTimeline};
pub use dim_diffusion::rr::SamplerKind;
use dim_diffusion::DiffusionModel;
use dim_graph::Graph;

/// Configuration of one influence-maximization run.
#[derive(Clone, Copy, Debug)]
pub struct ImConfig {
    /// Seed-set size `k` (paper default: 50).
    pub k: usize,
    /// Approximation error `ε` (paper default: 0.01; this reproduction's
    /// bench default is 0.1 — see DESIGN.md §4).
    pub epsilon: f64,
    /// Failure probability `δ` (paper default: 1/n).
    pub delta: f64,
    /// Master RNG seed; machine `i` derives its independent stream via
    /// [`dim_cluster::stream_seed`].
    pub seed: u64,
    /// RR-set sampler selection.
    pub sampler: SamplerKind,
}

impl ImConfig {
    /// The paper's default parameters for `graph`: `k = 50`, `ε` as given,
    /// `δ = 1/n`, IC model.
    pub fn paper_defaults(graph: &Graph, epsilon: f64, seed: u64) -> Self {
        ImConfig {
            k: 50.min(graph.num_nodes()),
            epsilon,
            delta: 1.0 / graph.num_nodes() as f64,
            seed,
            sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
        }
    }
}

/// Per-phase timing breakdown matching the paper's stacked bars
/// (Figs. 5, 6, 8, 9): RR generation / computation / communication.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timings {
    /// RR-set generation (the sampling phase's worker compute).
    pub sampling: Duration,
    /// Seed-selection computation (worker prepare/map + master reduce).
    pub selection: Duration,
    /// Modeled network transfer time.
    pub communication: Duration,
}

impl Timings {
    /// Total virtual running time.
    pub fn total(&self) -> Duration {
        self.sampling + self.selection + self.communication
    }

    /// Derives the paper's three stacked bars from a phase-labeled
    /// timeline: sampling is the [`phase::RR_SAMPLING`] compute, selection
    /// is every other phase's compute (worker pull rounds + master
    /// reduce/select), and communication is the modeled transfer time of
    /// the whole run.
    pub(crate) fn from_timeline(timeline: &PhaseTimeline) -> Self {
        let total = timeline.total();
        let sampling = timeline.get(phase::RR_SAMPLING).compute();
        Timings {
            sampling,
            selection: total.compute().saturating_sub(sampling),
            communication: total.comm_time,
        }
    }
}

/// Outcome of an IMM/DiIMM/SUBSIM run.
#[derive(Clone, Debug)]
pub struct ImResult {
    /// The selected seed set `S*`, in selection order.
    pub seeds: Vec<u32>,
    /// Marginal RR-set coverage of each seed at its selection point
    /// (non-increasing; same length as `seeds`).
    pub marginals: Vec<u64>,
    /// RR sets covered by `S*` out of `num_rr_sets`.
    pub coverage: u64,
    /// Total RR sets generated (θ; Table IV column 1).
    pub num_rr_sets: usize,
    /// Σ over RR sets of their size (Table IV column 2).
    pub total_rr_size: usize,
    /// Total sampler work units spent (Σ w(R), the EPT mass): one per
    /// in-edge examined on a coin row, `1 + L` on a SUBSIM count row with
    /// `L` live edges.
    pub edges_examined: u64,
    /// Estimated influence spread `n · F_R(S*)`.
    pub est_spread: f64,
    /// The lower bound LB on OPT found by the search phase.
    pub lower_bound: f64,
    /// Lower-bound-search iterations executed.
    pub rounds: u32,
    /// Per-phase timing breakdown.
    pub timings: Timings,
    /// Raw cluster metrics (traffic, messages; zeros for sequential runs).
    pub metrics: ClusterMetrics,
    /// Phase-labeled metrics timeline of the run (empty for sequential
    /// runs). `timings` and `metrics` are derived views of this.
    pub timeline: PhaseTimeline,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_cluster::rr_set_seed;
    use dim_diffusion::rr::{AnySampler, RrSampler};
    use dim_graph::rng::Rng;
    use dim_graph::scratch::EpochFlags;
    use dim_graph::{GraphBuilder, WeightModel};

    #[test]
    fn paper_defaults() {
        let mut b = GraphBuilder::new(1000);
        b.add_edge(0, 1);
        let g = b.build(WeightModel::WeightedCascade);
        let c = ImConfig::paper_defaults(&g, 0.1, 7);
        assert_eq!(c.k, 50);
        assert!((c.delta - 1e-3).abs() < 1e-12);
        assert_eq!(c.sampler.model(), DiffusionModel::IndependentCascade);
    }

    #[test]
    fn k_capped_at_n() {
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 1);
        let g = b.build(WeightModel::WeightedCascade);
        assert_eq!(ImConfig::paper_defaults(&g, 0.1, 7).k, 10);
    }

    #[test]
    fn timings_total() {
        let t = Timings {
            sampling: Duration::from_secs(3),
            selection: Duration::from_secs(2),
            communication: Duration::from_millis(100),
        };
        assert_eq!(t.total(), Duration::from_millis(5100));
    }

    #[test]
    fn timings_derived_from_timeline() {
        let mut tl = PhaseTimeline::new();
        tl.record(
            phase::RR_SAMPLING,
            ClusterMetrics {
                worker_compute: Duration::from_secs(4),
                ..Default::default()
            },
        );
        tl.record(
            phase::DELTA_UPLOAD,
            ClusterMetrics {
                worker_compute: Duration::from_secs(1),
                comm_time: Duration::from_millis(250),
                ..Default::default()
            },
        );
        tl.record(
            phase::SEED_SELECT,
            ClusterMetrics {
                master_compute: Duration::from_secs(2),
                ..Default::default()
            },
        );
        let t = Timings::from_timeline(&tl);
        assert_eq!(t.sampling, Duration::from_secs(4));
        assert_eq!(t.selection, Duration::from_secs(3));
        assert_eq!(t.communication, Duration::from_millis(250));
        assert_eq!(t.total(), tl.total().elapsed());
    }

    #[test]
    fn subsim_kind_is_ic() {
        let ic = DiffusionModel::IndependentCascade;
        assert_eq!(SamplerKind::ReverseBfs.model(), ic);
        let g = mixed_fixture();
        assert!(matches!(
            SamplerKind::Standard(ic).build(&g),
            AnySampler::Subsim(_)
        ));
        assert!(matches!(
            SamplerKind::ReverseBfs.build(&g),
            AnySampler::ReverseBfs(_)
        ));
    }

    /// `dim_diffusion`'s SUBSIM test fixture: a 200-node double ring whose
    /// nodes also point at hub 0, every row a count row of its own degree.
    fn mixed_fixture() -> Graph {
        let n = 200u32;
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n);
            b.add_edge(i, (i + 2) % n);
            if (1..=197).contains(&i) {
                b.add_edge(i, 0);
            }
        }
        b.build(WeightModel::WeightedCascade)
    }

    /// FNV-1a over 10 000 RR sets drawn by `kind` on the mixed fixture, set
    /// `j` from its own stream `rr_set_seed(7, j)` as a DiIMM worker draws
    /// it: each set's size, members and work units.
    fn law_digest(kind: SamplerKind) -> u64 {
        let g = mixed_fixture();
        let sampler = kind.build(&g);
        let (mut out, mut visited) = (Vec::new(), EpochFlags::new(g.num_nodes()));
        let mut bytes = Vec::new();
        for j in 0..10_000 {
            let mut rng = Rng::new(rr_set_seed(7, j));
            let work = sampler.sample(&mut rng, &mut out, &mut visited);
            bytes.extend((out.len() as u32).to_le_bytes());
            for &v in &out {
                bytes.extend(v.to_le_bytes());
            }
            bytes.extend(work.to_le_bytes());
        }
        crate::fnv::fnv1a(&bytes)
    }

    /// The two IC laws, pinned draw for draw: `ReverseBfs` to the digest it
    /// has printed since it was the default, `Standard(IC)` to the digest
    /// of the count-first law (tag 3), re-pinned once when it replaced the
    /// jump sampler (tag 2, `0xcb90_df32_694e_65b9`). A sketch on disk
    /// stays reproducible under the tag it was written with.
    #[test]
    fn ic_laws_reproduce_their_pinned_draws() {
        const SUBSIM: u64 = 0x2fcb_3000_ab47_d6b9;
        const REVERSE_BFS: u64 = 0x80b1_78dc_8e6e_2d3a;
        let ic = SamplerKind::Standard(DiffusionModel::IndependentCascade);
        assert_eq!(law_digest(ic), SUBSIM);
        assert_eq!(law_digest(SamplerKind::ReverseBfs), REVERSE_BFS);
    }
}
