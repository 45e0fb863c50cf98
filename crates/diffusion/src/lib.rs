//! Diffusion models and reverse influence sampling (RIS).
//!
//! Implements the substrate of §II–III of the paper:
//!
//! * [`model::DiffusionModel`] — the independent cascade (IC) and linear
//!   threshold (LT) models of Kempe et al.
//! * [`forward`] — forward Monte-Carlo simulation of a diffusion from a
//!   seed set, and the parallel spread estimator `σ̂(S)`.
//! * [`exact`] — exact influence spread by live-edge enumeration on tiny
//!   graphs (used to validate Example 1 and the approximation guarantees).
//! * [`rr`] — random reverse-reachable (RR) set generation (Definition 1):
//!   SUBSIM-style count-first subset sampling (Guo et al., SIGMOD'20), the
//!   IC default; the paper's per-edge reverse BFS for IC, kept as the named
//!   baseline; and the reverse random walk for LT.
//!
//! The crate owns no storage: samplers hand each RR set to their caller,
//! which keeps the machine's collection `R_i` and its transpose `I_i(v)` in
//! one `dim_coverage::PooledSets`, and the visited set is the shared
//! `dim_graph::scratch::EpochFlags`.
//!
//! # Example: estimating influence spread
//!
//! ```
//! use dim_diffusion::forward::estimate_spread;
//! use dim_diffusion::model::DiffusionModel;
//! use dim_graph::{GraphBuilder, WeightModel};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_weighted_edge(0, 1, 1.0);
//! b.add_weighted_edge(1, 2, 1.0);
//! let g = b.build(WeightModel::WeightedCascade);
//! // Deterministic chain: seeding node 0 activates everyone.
//! let s = estimate_spread(&g, DiffusionModel::IndependentCascade, &[0], 1000, 7);
//! assert!((s - 3.0).abs() < 1e-9);
//! ```

pub mod exact;
pub mod forward;
pub mod model;
pub mod rr;

pub use model::DiffusionModel;
pub use rr::{IcRrSampler, LtRrSampler, RrSampler, SubsimRrSampler};
