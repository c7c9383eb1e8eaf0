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
//! - **Blocking front-end** (`Fleet::serve`, `Router::serve`): an
//!   accept loop hands each connection to a reused connection thread
//!   (a fixed cap of a few tens), which reads a frame, answers it and
//!   writes the tagged reply, in order. A slow request such as a drain
//!   holds up its own connection only.
//! - **Federation** ([`router`], [`pool`]): N sharded daemons each
//!   owning a splitmix64 job-key range behind a router that fans out
//!   requests over pipelined connection pools — multiple sockets per
//!   shard, many in-flight tagged requests per socket, per-socket
//!   backpressure caps, reads kept off the lane drains ride — and
//!   merges status/ranking responses; a dead shard's WAL replays into
//!   a replacement bitwise.
//! - **Performance** lives outside this crate: the `fleet-sweep` and
//!   `fleet-status` workloads of the repository's `benchmark/` package
//!   time the router, shards, WAL and runner end to end and by layer,
//!   and CI compares each change against its merge base on one runner
//!   (`.github/perf_ab.py`).
//! - **DVFS sweep driver** ([`sweep`]): runs every `hpceval-tune`
//!   autotuner cell as a WAL-backed `Tune` job through the sharded
//!   router; a killed shard's replay reproduces the energy-delay
//!   Pareto frontier bitwise.
//! - **Observability** ([`events`]): per-kind lifecycle counters
//!   (`Fleet::event_count`), bounded for a daemon of any age; the WAL
//!   holds each job's durable history.

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

pub use client::FleetClient;
pub use daemon::{Fleet, FleetConfig};
pub use error::FleetError;
pub use events::EventKind;
pub use fault::{AttemptFaults, FaultInjector, FaultPlan};
/// The old name of [`JobStatus`]. Its one user is
/// `benchmark/src/fleet.rs`; the alias goes when that file moves off it.
pub use job::JobStatus as RemoteJob;
pub use job::{JobId, JobKind, JobResult, JobState, JobStatus, RankedServer};
pub use pool::{PendingReply, PoolConfig, ShardPool};
pub use registry::{NodeInfo, Registry};
pub use router::Router;
pub use sweep::{run_sweep, SweepConfig};
