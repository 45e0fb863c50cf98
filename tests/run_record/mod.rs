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
    /// Every file of the store the run wrote ([`store_files`]).
    pub files: Vec<(String, u64, u64)>,
}

/// Every file of every generation under the store `root`, in order, as
/// `("gen <id> <name>", length, XXH64 checksum)`.
pub fn store_files(root: &std::path::Path) -> Vec<(String, u64, u64)> {
    let mut files = Vec::new();
    for (id, dir) in dim::dim_store::list_generations(root).expect("the root lists") {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("a generation lists")
            .map(|e| e.expect("a directory entry").file_name())
            .collect();
        names.sort();
        for name in names {
            let bytes = std::fs::read(dir.join(&name)).expect("a stored file reads");
            let name = format!("gen {id} {}", name.to_string_lossy());
            files.push((name, bytes.len() as u64, dim::dim_store::checksum(&bytes)));
        }
    }
    files
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
    fn fields(&self) -> [(&'static str, String); 12] {
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
            ("files", format!("{:?}", self.files)),
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
