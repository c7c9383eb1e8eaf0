//! The fleet's typed error.

use std::fmt;
use std::io;

/// Everything that can go wrong between a client and a finished job.
#[derive(Debug)]
pub enum FleetError {
    /// Socket/file-level failure.
    Io(io::Error),
    /// A value contained a non-finite float at `path` and was rejected
    /// rather than rendered as `null` and silently reinterpreted.
    NonFinite {
        /// Dotted path to the offending field, e.g. `result.score`.
        path: String,
    },
    /// A frame or WAL line was not the JSON the protocol expects.
    Protocol(String),
    /// The daemon's queue is full; retry after the given backoff.
    Backlog {
        /// Suggested client-side retry delay.
        retry_after_ms: u64,
    },
    /// The submitted job names a server the registry does not host.
    UnknownServer(String),
    /// The daemon reported an error message.
    Remote(String),
    /// An earlier WAL write, flush or sync failed (the text names that
    /// failure); the log accepts nothing more.
    WalPoisoned(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "i/o error: {e}"),
            FleetError::NonFinite { path } => {
                write!(f, "non-finite float at {path}: refusing to serialize")
            }
            FleetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            FleetError::Backlog { retry_after_ms } => {
                write!(f, "queue full; retry after {retry_after_ms} ms")
            }
            FleetError::UnknownServer(name) => write!(f, "unknown server {name:?}"),
            FleetError::Remote(msg) => write!(f, "daemon error: {msg}"),
            FleetError::WalPoisoned(cause) => {
                write!(f, "WAL poisoned by an earlier failed write ({cause}); refusing to append")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<io::Error> for FleetError {
    fn from(e: io::Error) -> Self {
        FleetError::Io(e)
    }
}
