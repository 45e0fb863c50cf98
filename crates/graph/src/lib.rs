//! Directed, weighted graph substrate for influence maximization.
//!
//! This crate provides the graph representation shared by every other crate
//! in the workspace:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) graph storing both
//!   forward (out-edge) and reverse (in-edge) adjacency together with a
//!   propagation probability per edge. Reverse adjacency is first-class
//!   because reverse influence sampling (RIS) traverses incoming edges.
//! * [`GraphBuilder`] — the mutable builder used by parsers and generators.
//! * [`codec`] — the one strict little-endian byte cursor ([`codec::Reader`])
//!   every binary format in the workspace decodes through.
//! * [`delta`] — edge-stream mutations ([`EdgeOp`] / [`DeltaBatch`]) and
//!   [`apply_batch`], which splices a batch into the CSR rows.
//! * [`WeightModel`] — the standard ways of assigning propagation
//!   probabilities (weighted-cascade `1/indeg`, uniform, trivalency).
//! * [`generators`] — synthetic social-network generators plus the dataset
//!   profiles substituting for the SNAP datasets of the paper (Table III).
//! * [`io`] — plain-text edge-list reading and writing.
//! * [`rng`] — the workspace's one generator ([`Rng`], SplitMix64) and the
//!   `splitmix64` finalizer every seed derivation calls.
//! * [`scratch`] — the workspace's one visited set ([`scratch::EpochFlags`],
//!   O(1) clear), shared by the RR samplers and the coverage hot paths.
//!
//! # Example
//!
//! ```
//! use dim_graph::{GraphBuilder, WeightModel};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(0, 2);
//! b.add_edge(2, 3);
//! let g = b.build(WeightModel::WeightedCascade);
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 3);
//! // Weighted cascade: p(u,v) = 1 / indeg(v).
//! assert_eq!(g.in_probs(3), &[1.0]);
//! ```

mod alias;
pub mod analysis;
pub mod binary;
pub mod builder;
pub mod codec;
pub mod csr;
pub mod delta;
pub mod error;
pub mod generators;
pub mod io;
pub mod rng;
pub mod scratch;
pub mod weights;

pub use analysis::GraphStats;
pub use builder::GraphBuilder;
pub use csr::Graph;
pub use delta::{apply_batch, DeltaBatch, DeltaError, EdgeOp};
pub use error::GraphError;
pub use generators::profiles::DatasetProfile;
pub use rng::Rng;
pub use weights::WeightModel;

/// Node identifier. Graphs in this workspace are limited to `u32::MAX`
/// nodes, which keeps adjacency arrays compact (the paper's largest dataset,
/// Twitter, has 41.7M nodes — well within range).
pub type NodeId = u32;
