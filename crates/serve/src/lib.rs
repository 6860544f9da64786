//! # atlas-serve
//!
//! The network front of the Atlas reproduction: a dependency-free,
//! concurrent exploration server that puts the prepared engine on the wire.
//!
//! The paper frames data maps as an *interactive* aid — a user submits a
//! query, gets maps back, drills into a region, goes back — and the engine
//! underneath was built for concurrent traffic (`Atlas` is `Send + Sync`,
//! prepared statistics ride `Arc`s, `Atlas::append` re-prepares
//! incrementally). This crate adds the missing subsystem between that engine
//! and a million impatient users:
//!
//! * [`http`] — a minimal HTTP/1.1 layer on `std::net::TcpListener`:
//!   request parsing, keep-alive, `Content-Length`-bounded bodies, defensive
//!   caps;
//! * [`wire`] — the hand-rolled JSON encoder/decoder; numbers round-trip
//!   bit-for-bit, so ranked-map scores survive the wire exactly;
//! * [`registry`] — datasets loaded at boot (CSV or the seeded generators),
//!   one prepared `Arc<Atlas>` each, plus a bounded LRU cache of shared
//!   answers and incremental appends;
//! * [`sessions`] — token-addressed [`atlas_explorer::History`]s with TTL
//!   eviction, so explore / drill / back work over the wire as a `Session`
//!   does in-process, each step answered on the dataset's current snapshot;
//! * [`metrics`] — everything the server says about itself: request
//!   counters, the recent-latency window, coordinator and per-shard
//!   counters, and the one walk that renders `GET /metrics` (JSON or the
//!   Prometheus text format by `Accept` negotiation) and `GET /healthz`;
//! * [`trace`] — span ↔ JSON conversion for `GET /debug/traces`, the
//!   `?trace=1` inline tree, and shard span propagation (`atlas_obs`);
//! * [`server`] — accept loop, worker pool (`ATLAS_SERVE_THREADS`),
//!   admission control with `503` + `Retry-After` on overload, deadline
//!   propagation (`X-Atlas-Deadline-Ms` → `504` with work-done metadata),
//!   graceful shutdown;
//! * [`resilience`] — deadlines, [`RetryPolicy`] with deterministic seeded
//!   jitter, hedged reads, per-shard circuit breakers, and the [`Coverage`]
//!   metadata of degraded distributed answers;
//! * [`client`] — the small blocking client the tests, example and load
//!   generator use, and the connection a coordinator keeps alive per shard.
//!
//! ```no_run
//! use atlas_serve::{Registry, DatasetOptions, Server, ServeConfig};
//!
//! let mut registry = Registry::new();
//! registry.add_spec("census:20000", DatasetOptions::default()).unwrap();
//! let handle = Server::start(registry, ServeConfig::default()).unwrap();
//! println!("serving on http://{}", handle.addr());
//! handle.join(); // runs until killed
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod distributed;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod resilience;
pub mod server;
pub mod sessions;
mod shard;
pub mod trace;
pub mod wire;

pub use client::Client;
pub use distributed::{Coordinator, CoordinatorOptions, DistributedResult};
pub use metrics::{CoordinatorMetrics, ServerMetrics};
pub use registry::{DatasetOptions, Registry};
pub use resilience::{
    CircuitConfig, CircuitState, Coverage, Deadline, ExploreMode, HedgePolicy, RetryPolicy,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use sessions::SessionManager;
pub use wire::Json;
