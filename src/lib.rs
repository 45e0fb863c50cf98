//! # dim — Distributed Influence Maximization
//!
//! A Rust reproduction of *"Distributed Influence Maximization for
//! Large-Scale Online Social Networks"* (Tang, Tang, Zhu, Han — ICDE 2022):
//! RIS-based influence maximization with the state-of-the-art
//! `(1 − 1/e − ε)` approximation guarantee, horizontally scaled across a
//! cluster of machines via
//!
//! * **distributed reverse influence sampling** — each machine generates
//!   and keeps its own share of the random RR sets, and
//! * **NewGreeDi** — element-distributed maximum coverage that returns
//!   *exactly* the centralized greedy solution (unlike set-distributed
//!   composable core-sets, whose ratio degrades with the machine count).
//!
//! This facade crate re-exports the workspace's public API. See the
//! individual crates for the full surface:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`dim_graph`] | CSR graphs, edge-list IO, synthetic social-network generators, dataset profiles |
//! | [`dim_diffusion`] | IC/LT diffusion, Monte-Carlo + exact spread, RR-set samplers (BFS / walk / SUBSIM) |
//! | [`dim_cluster`] | the cluster contract (`ClusterBackend` accounting + `OpCluster` ops) and its sim / TCP backends |
//! | [`dim_coverage`] | maximum coverage: lazy greedy, NewGreeDi, GreeDi/RandGreeDi baselines |
//! | [`dim_core`] | IMM, DiIMM, and SUBSIM with the `(1 − 1/e − ε)` guarantee |
//! | [`dim_store`] | versioned on-disk RR-sketch snapshots (`dim sample` / `--load-rr`) |
//! | [`dim_serve`] | concurrent influence-query service over a persisted sketch (`dim serve`) |
//!
//! # Quickstart
//!
//! ```
//! use dim::prelude::*;
//!
//! // A small scale-free network with weighted-cascade probabilities.
//! let graph = barabasi_albert(500, 4, WeightModel::WeightedCascade, 7);
//!
//! // Find 10 seeds with (1 − 1/e − ε) guarantee on 4 simulated machines.
//! let config = ImConfig::paper_defaults(&graph, 0.3, 42);
//! let config = ImConfig { k: 10, ..config };
//! let result = diimm(&graph, &config, 4, NetworkModel::cluster_1gbps(), ExecMode::Sequential)
//!     .expect("simulated-cluster wire messages are well-formed");
//!
//! assert_eq!(result.seeds.len(), 10);
//! println!("estimated spread: {:.1}", result.est_spread);
//! ```

pub use dim_cluster;
pub use dim_core;
pub use dim_coverage;
pub use dim_diffusion;
pub use dim_graph;
pub use dim_serve;
pub use dim_store;

/// The commonly needed types and functions in one import.
pub mod prelude {
    pub use dim_cluster::{
        phase, stream_seed, ClusterBackend, ClusterMetrics, ExecMode, FaultInjector, FaultPlan,
        JoinConfig, JoinOptions, LinkFault, NetworkModel, OpCluster, Partition, PhaseTimeline,
        ProcCluster, Rendezvous, SessionEnd, SimCluster, WireErrorKind, WorkerOp, WorkerReply,
        WorkerStats,
    };
    pub use dim_core::diimm::{diimm, diimm_on, diimm_with_options};
    pub use dim_core::imm::imm;
    pub use dim_core::opim::{dopim_c, paired_on, PairedRule};
    pub use dim_core::recover::{diimm_on_recovering, RecoveringCluster, RecoveryPolicy};
    pub use dim_core::snapshot::{
        diimm_sample_generation, diimm_sample_on, load_latest_rr_snapshot, persist_rr_shards,
        rr_snapshot_request, StreamSession,
    };
    pub use dim_core::ssa::dssa;
    pub use dim_core::{setup_im_cluster, ImConfig, ImParams, ImResult, SamplerKind, WorkerHost};
    pub use dim_coverage::greedi::greedi;
    pub use dim_coverage::greedy::bucket_greedy;
    pub use dim_coverage::{newgreedi_with, CoverageProblem, CoverageShard};
    pub use dim_diffusion::exact::{exact_opt, exact_spread};
    pub use dim_diffusion::forward::estimate_spread;
    pub use dim_diffusion::{DiffusionModel, RrSampler};
    pub use dim_graph::generators::{barabasi_albert, erdos_renyi};
    pub use dim_graph::{
        apply_batch, DatasetProfile, DeltaBatch, EdgeOp, Graph, GraphBuilder, GraphStats, Rng,
        WeightModel,
    };
    pub use dim_serve::{
        ConnectOptions, Credentials, QueryClient, QueryRequest, QueryResponse, ReloadSource,
        ServeMetrics, ServeOptions, Server, Sketch, SketchStats, TenantBind, TenantQuota,
        TenantRegistry, TenantSpec,
    };
    pub use dim_store::{
        begin_generation, commit_generation, gc_generations, generation_dir_name,
        graph_fingerprint, list_generations, load_latest_snapshot, RunParams, StoreError,
    };
}
