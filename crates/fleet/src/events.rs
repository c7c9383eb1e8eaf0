//! Fleet lifecycle events.
//!
//! The daemon counts every step of a job's life — submitted, started,
//! checkpointed, preempted, retried, finished — per [`EventKind`], in a
//! fixed array of atomic counters (`Fleet::event_count`). Counting
//! takes no lock and allocates nothing, and the counts stay bounded for
//! a daemon of any age; the WAL keeps each job's durable history.

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The job was accepted into the queue.
    Submitted,
    /// An attempt started on a node.
    Started,
    /// A state row was checkpointed to the WAL.
    Checkpointed,
    /// A state's meter dropped out; its row is flagged suspect.
    MeterDropout,
    /// A straggler attempt was preempted.
    Preempted,
    /// The job was requeued after a crash, with backoff.
    Retried,
    /// The job's node crashed mid-attempt.
    NodeCrashed,
    /// Finished clean.
    Done,
    /// Finished degraded (partial or flagged result).
    Degraded,
    /// Rejected or unrecoverable.
    Failed,
}

impl EventKind {
    /// Number of kinds: the length of the daemon's counter array.
    pub const COUNT: usize = EventKind::Failed as usize + 1;
}
