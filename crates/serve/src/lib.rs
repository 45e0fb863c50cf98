//! dim-serve — a long-running influence-query service over a persisted
//! RR sketch.
//!
//! OPIM-C's observation motivates the shape: sampling dominates cost,
//! selection and estimation are cheap. So `dim sample` pays the sampling
//! cost once and persists the sketch through `dim-store`; this crate then
//! serves unboundedly many cheap queries against the frozen sketch:
//!
//! * **Spread estimation** for arbitrary seed sets — coverage fraction
//!   times `n` (Eq. 2), the paper's own quality metric.
//! * **Constrained top-k** — greedy maximum coverage re-run with forced
//!   includes and excludes, reusing the lazy selector every greedy runs,
//!   so the unconstrained answer is exactly the persisted run's seed set.
//! * **Stats/health** — sketch shape plus a query counter.
//!
//! The wire protocol rides the cluster crate's length-prefixed frames
//! with its own strict codecs ([`proto`]), including a pipelined
//! `REQ_BATCH` opcode (one frame, N queries, replies in request order)
//! and an admin `REQ_RELOAD`. The [`Server`] is a bounded worker pool
//! over a shared accept queue serving a hot-swappable generation-tagged
//! [`Sketch`] (every query, single frame or batch entry, evaluates
//! read-only against one pinned generation with per-thread scratch, so
//! no locking sits on the answer path), with connection-limit load shedding
//! and latency/throughput metrics ([`ServeMetrics`]). [`QueryClient`] is
//! the matching blocking client used by `dim query` and the tests,
//! with rendezvous-style retrying connects ([`ConnectOptions`]).
//!
//! One daemon can serve many tenants: [`Server::start_multi`] takes a
//! [`TenantRegistry`] plus one sketch per tenant and scopes every
//! connection to the tenant it authenticated as ([`auth`], [`tenant`]) —
//! independent generations and hot reloads, per-tenant quotas
//! ([`TenantQuota`]) with typed `ERR_QUOTA` shedding, and per-tenant
//! metrics behind a tenant-scoped `REQ_STATS`.

pub mod auth;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod tenant;

pub use auth::Credentials;
pub use client::{ConnectOptions, QueryClient, TopKResult};
pub use metrics::{LatencyHistogram, ServeMetrics};
pub use proto::{
    decode_batch, decode_response_batch, encode_batch, encode_response_batch, QueryRequest,
    QueryResponse, SketchStats,
};
pub use server::{
    ReloadError, ReloadOutcome, ReloadSource, ServeOptions, Server, Sketch, TenantBind,
    TenantHandle,
};
pub use tenant::{AuthFailure, TenantQuota, TenantRegistry, TenantSpec};
