//! Shared configuration and result types for IMM/DiIMM runs.

use std::time::Duration;

use dim_cluster::{phase, ClusterMetrics, PhaseTimeline};
use dim_diffusion::rr::AnySampler;
use dim_diffusion::DiffusionModel;
use dim_graph::Graph;

/// Which RR-set sampler the run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// The model's standard sampler: reverse BFS (IC) or reverse walk (LT).
    /// This is what IMM/DiIMM use.
    Standard(DiffusionModel),
    /// SUBSIM's geometric-jump sampler (IC distribution, faster generation)
    /// — the Fig. 7 configuration.
    Subsim,
}

impl SamplerKind {
    /// Instantiates the sampler over a graph.
    pub(crate) fn make<'g>(&self, graph: &'g Graph) -> AnySampler<'g> {
        match self {
            SamplerKind::Standard(model) => AnySampler::for_model(graph, *model),
            SamplerKind::Subsim => AnySampler::subsim(graph),
        }
    }

    /// The diffusion model whose RR distribution is sampled.
    pub fn model(&self) -> DiffusionModel {
        match self {
            SamplerKind::Standard(m) => *m,
            SamplerKind::Subsim => DiffusionModel::IndependentCascade,
        }
    }
}

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
    /// is every other phase's compute (worker map stages + master
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
    /// Total edges examined while sampling (Σ w(R), the EPT mass).
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
        assert_eq!(
            SamplerKind::Subsim.model(),
            DiffusionModel::IndependentCascade
        );
    }
}
