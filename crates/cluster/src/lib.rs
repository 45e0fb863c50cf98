//! Pluggable master/worker cluster substrate.
//!
//! The paper evaluates on a 17-node Open-MPI cluster (1 Gbps switch) and an
//! 80-core MS-MPI server. Neither is available to this reproduction (the
//! benchmark host has a single CPU core), so this crate provides the
//! cluster contract every distributed algorithm in the workspace is written
//! against — [`ClusterBackend`] for accounting and topology (`record`,
//! `master`, `charge_upload`, `broadcast` over a phase-labeled timeline)
//! plus [`OpCluster`] for execution (serialized [`WorkerOp`] rounds) — and
//! two implementations: the **deterministic simulated cluster**
//! [`SimCluster`] and the process-per-machine TCP backend [`ProcCluster`],
//! whose workers — launched by the master or started by an operator — are
//! all admitted through one front door, [`Rendezvous`]. The simulator
//! preserves the quantities the paper measures:
//!
//! * **Computation time** — every simulated machine *really executes* its
//!   partition of the work and is individually wall-clock timed. A parallel
//!   phase's elapsed time is the **maximum** over machines, exactly the rule
//!   the paper itself uses ("the total generation time is determined by the
//!   longest one", §III-A). Master-side work is timed separately and added
//!   serially.
//! * **Communication time** — worker↔master messages are *actually
//!   serialized* (see [`wire`]) so byte counts are exact, then priced
//!   through a configurable latency/bandwidth [`NetworkModel`]. The master's
//!   link is the bottleneck in a star topology: a gather of `ℓ` messages
//!   costs `latency + Σ bytes / bandwidth`.
//! * **Phase attribution** — every phase carries a static label and metrics
//!   accumulate per label in a [`PhaseTimeline`], so stacked time
//!   breakdowns (paper Figs. 5/8) read straight off the run.
//!
//! [`SimCluster`] executes phases in one of two [`ExecMode`]s:
//! deterministic sequential (virtual time) or bounded OS threads (capped at
//! the host's available parallelism). Because its worker state lives in
//! the master's address space it also offers closure phases —
//! [`SimCluster::par_step`] and [`SimCluster::gather`] — as in-process
//! primitives; they are not part of the contract the TCP backend honours.
//!
//! Randomness: seed derivation ([`rng`]), the chaos schedule ([`faults`])
//! and reconnect jitter ([`Backoff`]) all call the one SplitMix64 finalizer
//! in `dim_graph::rng`, which also defines the workspace's generator and
//! states its distribution properties.
//!
//! # Example
//!
//! ```
//! use dim_cluster::{phase, ClusterBackend, ExecMode, NetworkModel, SimCluster};
//!
//! // Four machines each holding a shard of numbers; master sums the sums.
//! let shards: Vec<Vec<u64>> = vec![vec![1, 2], vec![3], vec![4, 5, 6], vec![]];
//! let mut cluster = SimCluster::new(shards, NetworkModel::cluster_1gbps(), ExecMode::Sequential);
//! let partials = cluster.gather(
//!     phase::COUNT_UPLOAD,
//!     |_, shard| shard.iter().sum::<u64>(),
//!     |_| dim_cluster::wire::u64_wire_size(), // each machine uploads one u64
//! );
//! let total: u64 = cluster.master(phase::SEED_SELECT, || partials.iter().sum());
//! assert_eq!(total, 21);
//! assert_eq!(cluster.metrics().bytes_to_master, 32);
//! assert_eq!(cluster.timeline().get(phase::COUNT_UPLOAD).messages, 4);
//! ```
//!
//! Distributed phases are expressed as serializable [`ops::WorkerOp`] /
//! [`ops::WorkerReply`] messages executed through the [`OpCluster`] seam:
//! [`SimCluster`] interprets them in process, and [`tcp::ProcCluster`]
//! ships the *identical* ops to process-per-machine workers over TCP
//! (workers own their graph partition, RNG stream, and coverage shard),
//! recording wall-clock transfer time in
//! [`ClusterMetrics::measured_comm`] next to the modeled
//! [`ClusterMetrics::comm_time`].

pub mod auth;
pub mod backend;
pub mod backoff;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod network;
pub mod ops;
pub mod rendezvous;
pub mod rng;
pub mod runtime;
pub mod tcp;
pub mod wire;

pub use auth::{token_digest, Digest};
pub use backend::{phase, Backend, ClusterBackend};
pub use backoff::Backoff;
pub use faults::{
    FaultEvent, FaultEventKind, FaultInjector, FaultPlan, LinkDecision, LinkFault, Partition,
};
pub use metrics::{ClusterMetrics, PhaseTimeline};
pub use network::NetworkModel;
pub use ops::{OpCluster, OpExecutor, WorkerOp, WorkerReply, WorkerStats};
pub use rendezvous::{
    run_join_worker, tcp_cluster, JoinConfig, JoinOptions, JoinedSession, Rendezvous,
};
pub use rng::{rr_set_seed, stream_seed};
pub use runtime::{ExecMode, SimCluster};
pub use tcp::{ProcCluster, SessionEnd, WorkerFault};
pub use wire::{WireError, WireErrorKind};
