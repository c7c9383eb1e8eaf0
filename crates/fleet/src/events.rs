//! Fleet lifecycle events.
//!
//! The daemon narrates every job's life — submitted, started,
//! checkpointed, preempted, retried, finished — as [`FleetEvent`]s.

use crate::job::JobId;

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The job was accepted into the queue.
    Submitted,
    /// An attempt started on a node.
    Started {
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A state row was checkpointed to the WAL.
    Checkpointed {
        /// Row index just made durable.
        row: usize,
    },
    /// A state's meter dropped out; its row is flagged suspect.
    MeterDropout {
        /// The suspect row.
        row: usize,
    },
    /// A straggler attempt was preempted after completing `row`.
    Preempted {
        /// Last completed row.
        row: usize,
    },
    /// The job was requeued after a crash, with backoff.
    Retried {
        /// The attempt that will run next.
        attempt: u32,
        /// Backoff applied before it may start.
        backoff_ms: u64,
        /// Why the previous attempt died.
        reason: String,
    },
    /// The job's node crashed mid-attempt.
    NodeCrashed,
    /// Finished clean.
    Done,
    /// Finished degraded (partial or flagged result).
    Degraded {
        /// Why.
        reason: String,
    },
    /// Rejected or unrecoverable.
    Failed {
        /// Why.
        reason: String,
    },
}

/// One fleet event.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// Simulated-time stamp (seconds of job progress, `STATE_SLOT_S`
    /// per completed state).
    pub t_s: f64,
    /// The job.
    pub job: JobId,
    /// The node it runs on.
    pub node: usize,
    /// What happened.
    pub kind: EventKind,
}

impl std::fmt::Display for FleetEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} node {}: ", self.job, self.node)?;
        match &self.kind {
            EventKind::Submitted => write!(f, "submitted"),
            EventKind::Started { attempt } => write!(f, "attempt {attempt} started"),
            EventKind::Checkpointed { row } => write!(f, "row {row} checkpointed"),
            EventKind::MeterDropout { row } => write!(f, "meter dropout on row {row}"),
            EventKind::Preempted { row } => write!(f, "preempted after row {row}"),
            EventKind::Retried { attempt, backoff_ms, reason } => {
                write!(f, "retry as attempt {attempt} in {backoff_ms} ms ({reason})")
            }
            EventKind::NodeCrashed => write!(f, "node crashed"),
            EventKind::Done => write!(f, "done"),
            EventKind::Degraded { reason } => write!(f, "degraded ({reason})"),
            EventKind::Failed { reason } => write!(f, "failed ({reason})"),
        }
    }
}
