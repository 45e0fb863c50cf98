//! Maximum coverage, centralized and distributed.
//!
//! Influence maximization reduces to maximum coverage over RR sets
//! (Lemma 1 of the paper): pick `k` *sets* (nodes) covering the most
//! *elements* (RR sets). This crate implements that optimization layer:
//!
//! * [`PooledSets`] — flat pooled storage of u32 lists, the common currency
//!   of instances and shards.
//! * [`CoverageProblem`] — a global set-element instance, with builders from
//!   arbitrary set lists or a graph's neighborhoods (the paper's §IV-C
//!   workload), and exact brute-force optimum for tiny instances.
//! * [`LazySelector`] — the one greedy selector: lazy evaluation (CELF)
//!   over a heap of stale marginals, under one tie rule (the largest
//!   marginal, then the smallest id). It asks a callback for exact
//!   marginals and knows nothing of where they come from.
//! * [`greedy`] — the centralized greedy (the selector on one shard) and a
//!   naive per-round rescan oracle.
//! * [`mod@newgreedi`] — **NewGreeDi** (Algorithm 1): element-distributed greedy
//!   generic over any [`dim_cluster::OpCluster`], returning *exactly* the
//!   centralized greedy solution (Lemma 2). The selector pulls the exact
//!   marginals it needs from the machines, one round per seed.
//! * [`greedi`] — the set-distributed composable core-sets baselines GreeDi
//!   (Mirzasoleiman et al.) and RandGreeDi (Barbosa et al.), used by
//!   Fig. 10's comparison: one [`dim_cluster::WorkerOp::CoreSet`] round
//!   over any [`dim_cluster::OpCluster`], then a master-side merge.
//! * [`query`] — read-only influence queries over frozen shards: seed-set
//!   spread ([`seed_set_coverage`], over the pooled [`dim_graph::scratch`]
//!   flags) and constrained top-k ([`constrained_greedy`], the selector
//!   again), the substrate of `dim serve`.
//!
//! # Example
//!
//! ```
//! use dim_coverage::{CoverageProblem, greedy};
//!
//! // Paper Fig. 2: six RR sets over five nodes; {v1, v2} covers all six.
//! let problem = CoverageProblem::from_element_records(5, [
//!     &[0u32][..], &[1, 2], &[0, 2], &[1, 4], &[0], &[1, 3],
//! ]);
//! let mut shard = problem.single_shard();
//! let result = greedy::bucket_greedy(&mut shard, 2);
//! // v1 and v2 tie at 3: the smaller id goes first.
//! assert_eq!(result.seeds, vec![0, 1]);
//! assert_eq!(result.covered, 6);
//! ```

pub mod greedi;
pub mod greedy;
pub mod newgreedi;
pub mod pooled;
pub mod problem;
pub mod query;
pub mod selector;
pub mod shard;

pub use greedy::GreedyResult;
pub use newgreedi::{newgreedi_incremental, newgreedi_with, NewGreediResult};
pub use pooled::PooledSets;
pub use problem::{CoverageProblem, SetPartition};
pub use query::{constrained_greedy, seed_set_coverage, SketchCursors};
pub use selector::LazySelector;
pub use shard::{execute_coverage_op, CoverageShard};
