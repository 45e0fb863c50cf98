//! Influence maximization with `(1 − 1/e − ε)` guarantees — sequential and
//! distributed.
//!
//! The paper's primary contribution, built on the workspace substrates:
//!
//! * [`params`] — the IMM sample-complexity machinery: `λ′`, `λ*`, and the
//!   martingale-fix `δ′` (eqs. (3)–(7)) of Chen's correction.
//! * [`mod@imm`] — sequential IMM (Tang et al., SIGMOD'15, with the δ′ fix):
//!   the baseline every speedup figure compares against.
//! * [`mod@diimm`] — **DiIMM** (Algorithm 2): IMM with distributed RIS for the
//!   sampling phase and NewGreeDi for seed selection, generic over any
//!   [`dim_cluster::OpCluster`] (with [`dim_cluster::SimCluster`] as the
//!   stock backend).
//! * [`config`] — shared run configuration ([`ImConfig`]) and result type
//!   ([`ImResult`]) with per-phase timing breakdowns matching the paper's
//!   stacked bars (RR generation / computation / communication).
//!
//! * [`snapshot`] — sample-once / select-many: [`diimm_sample_on`] persists
//!   every machine's RR shard as a committed `dim-store` generation, and a
//!   [`StreamSession`] restores the newest one and reruns seed selection with
//!   byte-identical seeds and marginals.
//!
//! IC runs sample with SUBSIM's count-first subset sampler by default (the
//! Fig. 7 configuration); [`SamplerKind::ReverseBfs`] selects the paper's
//! per-edge reverse BFS, which draws the same law. [`opim`] and [`ssa`] add
//! OPIM-C and SSA — the adaptive-stopping frameworks the paper names as
//! equally compatible with its building blocks — as one paired-collection
//! loop with two stop rules, on DiIMM's worker in pair mode, so every
//! framework runs on every backend. Each framework has one implementation,
//! the distributed one; ℓ = 1 is its sequential run ([`imm()`] stays the
//! plain single-thread baseline the speedups are measured against).
//!
//! # Example
//!
//! ```
//! use dim_core::{diimm, ImConfig, SamplerKind};
//! use dim_cluster::{ExecMode, NetworkModel};
//! use dim_diffusion::DiffusionModel;
//! use dim_graph::generators::erdos_renyi;
//! use dim_graph::WeightModel;
//!
//! let g = erdos_renyi(200, 1000, WeightModel::WeightedCascade, 1);
//! let config = ImConfig {
//!     k: 5,
//!     epsilon: 0.5,
//!     delta: 0.1,
//!     seed: 42,
//!     sampler: SamplerKind::Standard(DiffusionModel::IndependentCascade),
//! };
//! let result = diimm::diimm(&g, &config, 4, NetworkModel::cluster_1gbps(), ExecMode::Sequential)
//!     .expect("wire messages from SimCluster workers are well-formed");
//! assert_eq!(result.seeds.len(), 5);
//! assert!(result.est_spread > 5.0);
//! ```

pub mod config;
pub mod diimm;
pub mod imm;
pub mod opim;
pub mod params;
pub mod recover;
pub mod snapshot;
pub mod ssa;
pub mod worker;

#[cfg(test)]
#[path = "../../store/src/fnv.rs"]
mod fnv;

pub use config::{ImConfig, ImResult, SamplerKind, Timings};
pub use recover::{
    diimm_on_recovering, DegradedOutcome, RecoveredRun, RecoveringCluster, RecoveryPolicy,
    StragglerEvent,
};
pub use snapshot::{
    diimm_sample_generation, diimm_sample_on, load_latest_rr_snapshot, persist_rr_shards,
    rr_snapshot_request, SnapshotError, StreamApplied, StreamSession,
};
pub use worker::{setup_im_cluster, WorkerHost};
pub use diimm::diimm;
pub use imm::imm;
pub use opim::dopim_c;
pub use ssa::dssa;
pub use params::ImParams;
