//! Synthetic social-network generators.
//!
//! Real OSN snapshots (the SNAP datasets in the paper's Table III) cannot be
//! redistributed with this repository, so the benchmark harness generates
//! graphs whose size, directedness, and degree skew match each dataset's
//! published statistics — see [`profiles`]. Erdős–Rényi and Barabási–Albert
//! are also public for tests and examples building their own workloads;
//! Chung-Lu is reached through the directed profiles.

pub mod barabasi_albert;
mod chung_lu;
pub mod erdos_renyi;
pub mod profiles;

pub use barabasi_albert::barabasi_albert;
pub(crate) use chung_lu::chung_lu_directed;
pub use erdos_renyi::erdos_renyi;
pub use profiles::DatasetProfile;
