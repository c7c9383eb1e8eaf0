//! Address-trace capture and trace-driven cache replay.
//!
//! The paper's §VI regression trains on PMU counters; this crate closes
//! the loop between the kernel implementations and those counters:
//!
//! ```text
//! kernel hot loop ──hooks──▶ Trace ──replay──▶ TraceCounters ──bridge──▶ LocalityProfile
//! ```
//!
//! * [`capture`] — global, near-zero-cost instrumentation hooks the
//!   kernel crates call from their chunked hot loops; per-chunk logs
//!   that encode each burst as it is recorded, bounded per chunk and
//!   framed into a [`capture::Trace`] in width-invariant order. The
//!   compact delta/varint bytes are the only form a trace takes,
//! * [`event`] — block-descriptor events (base/stride/count over
//!   *logical* addresses) and their varint/zigzag wire encoding,
//! * [`replay`](mod@replay) — drives a trace through the `hpceval-machine` LRU
//!   write-back hierarchy and bridges the resulting counters back into locality profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod event;
pub mod replay;

pub use capture::{
    hooks, splitmix64, CaptureConfig, CaptureGuard, ChunkLog, Region, Trace, TraceMode,
};
pub use event::{AccessKind, TraceEvent};
pub use replay::{replay, ReplayOptions, TraceCounters};
