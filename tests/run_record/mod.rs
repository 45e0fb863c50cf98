//! One definition of "the same run": the fields a run must reproduce bit
//! for bit on every backend, gathered from each framework's result type.
//! `tests/backend_equivalence.rs` compares whole records across backends;
//! `tests/fixed_points.rs` pins some of their fields by name.

use dim::dim_coverage::greedi::GreediResult;
use dim::dim_coverage::NewGreediResult;
use dim::prelude::*;

/// A run's answer, its sampling work and its modeled traffic, from its
/// result and the timeline of the cluster it ran on. Fields a framework
/// does not produce stay zero (GreeDi reports no marginals; coverage runs
/// sample nothing).
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    pub seeds: Vec<u32>,
    pub marginals: Vec<u64>,
    pub coverage: u64,
    /// θ: the RR sets sampled.
    pub theta: u64,
    pub total_rr_size: u64,
    pub edges_examined: u64,
    pub bytes_to_master: u64,
    pub bytes_from_master: u64,
    pub messages: u64,
    pub phases: u64,
    /// The timeline's phase labels, in first-use order.
    pub labels: Vec<&'static str>,
}

impl RunRecord {
    /// This record with the traffic of `timeline`, the run's own.
    fn with_traffic(self, timeline: &PhaseTimeline) -> Self {
        let m = timeline.total();
        RunRecord {
            bytes_to_master: m.bytes_to_master,
            bytes_from_master: m.bytes_from_master,
            messages: m.messages,
            phases: m.phases,
            labels: timeline.labels().collect(),
            ..self
        }
    }

    /// Every field by name, as printed.
    fn fields(&self) -> [(&'static str, String); 11] {
        [
            ("seeds", format!("{:?}", self.seeds)),
            ("marginals", format!("{:?}", self.marginals)),
            ("coverage", self.coverage.to_string()),
            ("theta", self.theta.to_string()),
            ("total_rr_size", self.total_rr_size.to_string()),
            ("edges_examined", self.edges_examined.to_string()),
            ("bytes_to_master", self.bytes_to_master.to_string()),
            ("bytes_from_master", self.bytes_from_master.to_string()),
            ("messages", self.messages.to_string()),
            ("phases", self.phases.to_string()),
            ("labels", format!("{:?}", self.labels)),
        ]
    }
}

impl From<&ImResult> for RunRecord {
    fn from(r: &ImResult) -> Self {
        RunRecord {
            seeds: r.seeds.clone(),
            marginals: r.marginals.clone(),
            coverage: r.coverage,
            theta: r.num_rr_sets as u64,
            total_rr_size: r.total_rr_size as u64,
            edges_examined: r.edges_examined,
            ..RunRecord::default()
        }
        .with_traffic(&r.timeline)
    }
}

impl From<(&NewGreediResult, &PhaseTimeline)> for RunRecord {
    fn from((r, timeline): (&NewGreediResult, &PhaseTimeline)) -> Self {
        RunRecord {
            seeds: r.seeds.clone(),
            marginals: r.marginals.clone(),
            coverage: r.covered,
            ..RunRecord::default()
        }
        .with_traffic(timeline)
    }
}

impl From<(&GreediResult, &PhaseTimeline)> for RunRecord {
    fn from((r, timeline): (&GreediResult, &PhaseTimeline)) -> Self {
        RunRecord {
            seeds: r.seeds.clone(),
            coverage: r.covered,
            ..RunRecord::default()
        }
        .with_traffic(timeline)
    }
}

/// Asserts `got` equals `want` field by field, naming every field that
/// differs, not only the first.
pub fn assert_same(got: &RunRecord, want: &RunRecord, context: &str) {
    let differ: Vec<String> = got
        .fields()
        .into_iter()
        .zip(want.fields())
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: {got} (want {want})"))
        .collect();
    assert!(differ.is_empty(), "{context}: {}", differ.join(", "));
}
