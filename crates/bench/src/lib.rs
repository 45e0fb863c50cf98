//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§IV). See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! The entry point is the `repro` binary, the crate's only one:
//!
//! ```text
//! repro all                  # every experiment at the default scale
//! repro fig5 --quick         # one experiment, reduced scale
//! repro table4 --epsilon 0.1 --datasets facebook,googleplus
//! ```
//!
//! Performance is not measured here: `benchmark/` is the repo's one
//! performance harness.

pub mod context;
pub mod experiments;
pub mod report;

pub use context::Context;
