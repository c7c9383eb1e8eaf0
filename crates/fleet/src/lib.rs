//! `hpceval-fleet` — fault-tolerant orchestration of power evaluations.
//!
//! The paper's method evaluates one server at a time; this crate scales
//! it to a *fleet*: a long-lived daemon owning a registry of simulated
//! servers, a persistent job queue, and a scheduler that dispatches
//! evaluation jobs onto the workspace's worker pool. The design centers
//! on surviving the failures long evaluation campaigns actually hit:
//!
//! - **Durability** ([`wal`]): every queue transition is written ahead
//!   to a JSON-lines log and synced, so `kill -9` loses no accepted job
//!   and a restarted daemon resumes exactly where the old one died.
//! - **Checkpointing** ([`runner`], `hpceval_core::jobs`): the
//!   five-state evaluation persists per state row; a resumed job is
//!   bitwise identical to an uninterrupted one.
//! - **Fault injection** ([`fault`]): deterministic node crashes,
//!   straggler preemptions, and meter dropouts, with retry + bounded
//!   exponential backoff and graceful degradation — a degraded fleet
//!   still ranks the servers it could finish and *flags* partial
//!   results instead of silently averaging them.
//! - **Wire protocol** ([`wire`], [`client`]): length-prefixed strict
//!   JSON over TCP, multiplexed since v2 — every request envelope
//!   carries a u64 request id, responses are tagged with it, and mixed-
//!   version frames are rejected with a clear error. Request batching
//!   and queue-cap backpressure ride on top.
//! - **Readiness-loop front-end** ([`server`]): a single-threaded
//!   epoll/poll event loop with per-connection read/write state
//!   machines — no handler thread per connection, so connection count
//!   stops being a thread count. Handlers answer tagged frames in
//!   *completion* order while the loop keeps interleaving connections.
//! - **Federation** ([`router`], [`pool`]): N sharded daemons each
//!   owning a splitmix64 job-key range behind a router that fans out
//!   requests over pipelined connection pools — multiple sockets per
//!   shard, many in-flight tagged requests per socket, per-socket
//!   backpressure caps — and merges status/ranking responses; a dead
//!   shard's WAL replays into a replacement bitwise.
//! - **Performance** lives outside this crate: the `fleet-sweep` and
//!   `fleet-status` workloads of the repository's `benchmark/` package
//!   time the router, shards, WAL and runner end to end and by layer,
//!   and CI compares each change against its merge base on one runner
//!   (`.github/perf_ab.py`).
//! - **DVFS sweep driver** ([`sweep`]): runs every `hpceval-tune`
//!   autotuner cell as a WAL-backed `Tune` job through the sharded
//!   router; a killed shard's replay reproduces the energy-delay
//!   Pareto frontier bitwise.
//! - **Observability** ([`events`]): job lifecycle events, bridged into
//!   the `hpceval-telemetry` stream.

pub mod client;
pub mod codec;
pub mod daemon;
pub mod error;
pub mod events;
pub mod fault;
pub mod job;
pub mod pool;
pub mod registry;
pub mod router;
pub mod runner;
mod server;
pub mod sweep;
pub mod wal;
pub mod wire;

pub use client::{FleetClient, RankedServer, RemoteJob};
pub use daemon::{Fleet, FleetConfig};
pub use error::FleetError;
pub use events::{EventKind, FleetEvent};
pub use fault::{AttemptFaults, FaultInjector, FaultPlan};
pub use job::{JobId, JobKind, JobResult, JobState, JobStatus};
pub use pool::{PendingReply, PoolConfig, ShardPool};
pub use registry::{NodeInfo, Registry};
pub use router::Router;
pub use sweep::{run_sweep, SweepConfig};
