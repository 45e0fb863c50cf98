//! The cluster contract: accounting here, ops in [`crate::ops`].
//!
//! Every distributed algorithm in this workspace (NewGreeDi, DiIMM,
//! distributed OPIM-C/SSA, streams, recovery) is written against the
//! supertrait pair [`ClusterBackend`] + [`crate::OpCluster`], not against
//! a concrete runtime:
//!
//! * [`ClusterBackend`] is the **accounting/topology** half — how many
//!   machines, which [`NetworkModel`] prices their messages, and the
//!   phase-labeled [`PhaseTimeline`] every charge funnels into through
//!   [`ClusterBackend::record`]. On top of those four it provides
//!   [`ClusterBackend::master`] (timed serial master-side work),
//!   [`ClusterBackend::charge_upload`] and [`ClusterBackend::broadcast`]
//!   (one tree collective each) and [`ClusterBackend::metrics`].
//! * [`crate::OpCluster`] is the **execution** half — serialized
//!   [`crate::WorkerOp`] rounds, the only way work reaches a machine on
//!   every backend.
//!
//! There is no closure phase: every algorithm, the GreeDi baseline
//! included, reaches its machines through op rounds alone, so whatever
//! runs on [`crate::SimCluster`] runs unchanged on the TCP backends.
//!
//! Per-machine RNG streams are derived outside the traits via
//! [`crate::stream_seed`] — workers own their streams, so determinism
//! depends only on the seed/machine-id pair, never on how a backend
//! schedules the work.
//!
//! Every phase call takes a `&'static str` label (see [`phase`]); metrics
//! accumulate per label in a [`PhaseTimeline`], which experiment harnesses
//! read directly for stacked time breakdowns (paper Figs. 5/8).

use std::time::Instant;

use crate::metrics::{ClusterMetrics, PhaseTimeline};
use crate::network::NetworkModel;
use crate::runtime::ExecMode;

/// Which cluster execution layer a run uses — the one `--backend`
/// vocabulary of `dim` and `repro`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// In-process [`crate::SimCluster`] in one of its [`ExecMode`]s
    /// (`sequential`, `threads`).
    Sim(ExecMode),
    /// [`crate::ProcCluster`] assembled by [`crate::tcp_cluster`]: with
    /// `spawn` the master launches one `dim-worker` per machine (`proc`);
    /// without, pre-started `dim-worker --join` processes register at
    /// `DIM_MASTER_BIND` (`join`).
    Tcp { spawn: bool },
}

impl Backend {
    /// Parses a `--backend` value: `sequential|threads|proc|join`.
    pub fn parse(name: &str) -> Result<Backend, String> {
        match name {
            "sequential" => Ok(Backend::Sim(ExecMode::Sequential)),
            "threads" => Ok(Backend::Sim(ExecMode::Threads)),
            "proc" => Ok(Backend::Tcp { spawn: true }),
            "join" => Ok(Backend::Tcp { spawn: false }),
            other => Err(format!("unknown backend {other:?}")),
        }
    }
}

/// Canonical phase labels used by the distributed algorithms.
///
/// Labels are plain `&'static str`s, so algorithms may invent their own;
/// these constants keep the vocabulary consistent across crates and let
/// the bench harness pull out e.g. the RR-sampling bar of a stacked
/// breakdown without string drift.
pub mod phase {
    /// Distributed RR-set generation (DiIMM/SUBSIM/OPIM/SSA sampling).
    pub const RR_SAMPLING: &str = "rr-sampling";
    /// Initial upload of per-shard coverage counts to the master.
    pub const COVERAGE_UPLOAD: &str = "coverage-upload";
    /// Master-side greedy seed selection (the lazy selector's work).
    pub const SEED_SELECT: &str = "seed-select";
    /// Broadcast of a chosen seed (or seed set, or pull round) to workers.
    pub const SEED_BROADCAST: &str = "seed-broadcast";
    /// NewGreeDi's pull-round replies: the candidates' local marginals.
    pub const DELTA_UPLOAD: &str = "delta-upload";
    /// Final per-shard covered-count upload.
    pub const COUNT_UPLOAD: &str = "count-upload";
    /// Validation-set coverage upload (OPIM-C / SSA bound checks).
    pub const VALIDATION: &str = "validation";
    /// Core-set candidate upload (GreeDi / RandGreeDi).
    pub const CORESET_UPLOAD: &str = "coreset-upload";
    /// Master-side core-set merge greedy (GreeDi / RandGreeDi).
    pub const CORESET_MERGE: &str = "coreset-merge";
    /// One-time worker setup (graph load, sampler init, shard build) and
    /// stats collection. Charges no modeled traffic: the paper's
    /// accounting starts after data placement.
    pub const SETUP: &str = "setup";
    /// Cluster rendezvous: bind → full membership, recorded by
    /// `Rendezvous::accept_session` (clusters of operator-started workers).
    /// Like [`SETUP`], charges no modeled traffic — it measures the real
    /// wall-clock cost of assembling the cluster before the algorithms
    /// start.
    pub const RENDEZVOUS: &str = "rendezvous";
    /// Persisting RR-sketch snapshot shards to disk (`dim sample` /
    /// `WorkerOp::PersistShard`). Like [`SETUP`], charges no modeled
    /// traffic — the shard never crosses the wire, each worker writes its
    /// own file.
    pub const STORE_SAVE: &str = "store_save";
    /// Loading RR-sketch snapshot shards from disk (`dim im --load-rr`,
    /// `dim serve`). Master-side wall clock; no modeled traffic.
    pub const STORE_LOAD: &str = "store_load";
    /// Applying a streamed edge batch and incrementally repairing the
    /// resident RR shards (`dim stream` / `WorkerOp::ApplyDelta`). The
    /// encoded batch is broadcast to every machine; repaired sets stay
    /// local (workers persist their own delta shards).
    pub const STREAM_APPLY: &str = "stream-apply";
}

/// Accounting and topology of a master/worker cluster of `ℓ` machines.
///
/// Implementations store one [`PhaseTimeline`] and merge deltas into it in
/// [`ClusterBackend::record`]; everything else here is provided on top of
/// the four required methods, so every backend prices master work, uploads
/// and broadcasts identically.
pub trait ClusterBackend {
    /// Number of machines `ℓ`.
    fn num_machines(&self) -> usize;

    /// The network model pricing this cluster's messages.
    fn network(&self) -> NetworkModel;

    /// Phase-labeled metrics accumulated so far.
    fn timeline(&self) -> &PhaseTimeline;

    /// Merges a metrics delta into the phase labeled `label`.
    fn record(&mut self, label: &'static str, delta: ClusterMetrics);

    /// Runs serial master-side work, charging its elapsed time under
    /// `label`.
    fn master<R, F>(&mut self, label: &'static str, f: F) -> R
    where
        F: FnOnce() -> R,
    {
        let start = Instant::now();
        let r = f();
        self.record(
            label,
            ClusterMetrics {
                master_compute: start.elapsed(),
                ..Default::default()
            },
        );
        r
    }

    /// Flat aggregate of the whole run — [`PhaseTimeline::total`].
    fn metrics(&self) -> ClusterMetrics {
        self.timeline().total()
    }

    /// Charges a gather of `bytes` from `messages` workers to the master,
    /// priced as one tree collective (MPI_Gatherv).
    fn charge_upload(&mut self, label: &'static str, messages: u64, bytes: u64) {
        let comm_time = self.network().collective_time(messages, bytes);
        self.record(
            label,
            ClusterMetrics {
                comm_time,
                messages,
                bytes_to_master: bytes,
                ..Default::default()
            },
        );
    }

    /// Charges a broadcast of `bytes_per_machine` from the master to every
    /// machine, priced as one tree collective (MPI_Bcast; each tree level
    /// re-sends the payload, so the master link sees `ℓ` copies of it).
    fn broadcast(&mut self, label: &'static str, bytes_per_machine: u64) {
        let l = self.num_machines() as u64;
        let total = bytes_per_machine * l;
        let comm_time = self.network().collective_time(l, total);
        self.record(
            label,
            ClusterMetrics {
                comm_time,
                messages: l,
                bytes_from_master: total,
                ..Default::default()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{expect_counts, OpCluster, OpExecutor, WorkerOp, WorkerReply};
    use crate::runtime::SimCluster;
    use std::time::Duration;

    #[test]
    fn parses_backend() {
        for (name, backend) in [
            ("sequential", Backend::Sim(ExecMode::Sequential)),
            ("threads", Backend::Sim(ExecMode::Threads)),
            ("proc", Backend::Tcp { spawn: true }),
            ("join", Backend::Tcp { spawn: false }),
        ] {
            assert_eq!(Backend::parse(name), Ok(backend));
        }
        let unknown = Backend::parse("mpi").unwrap_err();
        assert_eq!(unknown, r#"unknown backend "mpi""#);
    }

    /// A shard of numbers that answers `CoveredCount` with its sum.
    struct Numbers(Vec<u64>);

    impl OpExecutor for Numbers {
        fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
            match op {
                WorkerOp::CoveredCount => WorkerReply::Count(self.0.iter().sum()),
                _ => WorkerReply::Err("unsupported".into()),
            }
        }
    }

    #[test]
    fn gather_then_provided_master_on_sim_backend() {
        let shards = [vec![1u64, 2], vec![3], vec![4, 5, 6], vec![]].map(Numbers);
        let mut cluster = SimCluster::new(
            shards.into(),
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let replies = cluster
            .op_gather(phase::COVERAGE_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap();
        let partials = expect_counts(&replies, phase::COVERAGE_UPLOAD).unwrap();
        let total: u64 = cluster.master(phase::SEED_SELECT, || partials.iter().sum());
        assert_eq!(total, 21);
        let tl = cluster.timeline();
        assert_eq!(tl.get(phase::COVERAGE_UPLOAD).bytes_to_master, 32);
        assert_eq!(tl.get(phase::COVERAGE_UPLOAD).messages, 4);
        assert!(tl.get(phase::SEED_SELECT).master_compute >= Duration::ZERO);
        assert_eq!(cluster.metrics(), tl.total());
    }

    #[test]
    fn broadcast_records_under_its_label() {
        let mut cluster = SimCluster::new(
            vec![0u64; 5],
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        cluster.broadcast(phase::SEED_BROADCAST, 40);
        let m = cluster.timeline().get(phase::SEED_BROADCAST);
        assert_eq!(m.bytes_from_master, 200);
        assert_eq!(m.messages, 5);
        assert!(m.comm_time > Duration::ZERO);
        // Nothing leaked into other labels.
        assert_eq!(cluster.timeline().len(), 1);
    }
}
