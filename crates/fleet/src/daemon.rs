//! The fleet daemon: durable queue, scheduler, and TCP front-end.
//!
//! [`Fleet`] owns the whole orchestration state: the job table (rebuilt
//! from the WAL on open), the node registry, the fault injector, and
//! the rayon worker pool the scheduler dispatches onto. The state
//! machine is WAL-first — every transition is logged *before* the
//! in-memory table reflects it — so `kill -9` at any instant loses no
//! accepted job and at most the state rows that were in flight.
//!
//! The log is written per batch, one synced group each (see
//! [`crate::wal`]): a submit batch's `submit` lines before any of its
//! jobs is admitted or acked, a scheduler tick's `claim` lines before
//! any of its jobs runs, and the tick's `done` lines once every attempt
//! in it has ended. Checkpoint rows stay synced one at a time (the
//! runner moves on only once a row is durable), as do crash `retry`
//! lines. The trade-off: a job's `Done` becomes visible when its
//! scheduler batch commits, not the moment its own attempt ends. The
//! scheduler already waits for the whole batch before it claims again,
//! so queue progress was batch-granular before the log was.
//!
//! The WAL is fail-stop. Once a write or sync fails, the writer is
//! poisoned: submits are refused with the original failure, nothing
//! more is claimed, and [`Fleet::drain`] returns once nothing is left
//! running instead of waiting for jobs that can never finish.
//!
//! Scheduling policy:
//! - A queued job runs once its backoff deadline has passed and its
//!   pinned node is healthy (crash hold-offs park the node briefly).
//! - Crashes count against [`FleetConfig::max_attempts`] and retry
//!   with exponential backoff; straggler preemptions requeue for free
//!   (the runner guarantees each preempted attempt made progress).
//! - A job whose attempts are exhausted degrades gracefully: it
//!   finishes `Degraded` carrying whatever rows were checkpointed,
//!   scored over the clean rows only — partial results are flagged,
//!   never silently averaged into fleet rankings.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use serde::Value;

use hpceval_core::jobs::evaluation_plan;

use crate::error::FleetError;
use crate::events::EventKind;
use crate::fault::{FaultInjector, FaultPlan};
use crate::job::{self, JobId, JobKind, JobRecord, JobResult, JobState, JobStatus, RankedServer};
use crate::registry::Registry;
use crate::runner::{run_attempt, AttemptOutcome};
use crate::server;
use crate::wal::{self, WalEntry, WalWriter};
use crate::wire::{self, Request};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker-pool width (0: the rayon default, i.e. the
    /// `HPCEVAL_THREADS` pin or the machine's parallelism).
    pub workers: usize,
    /// Maximum live (non-terminal) jobs; submits beyond it are pushed
    /// back with a retry hint.
    pub queue_cap: usize,
    /// Crashed attempts allowed before a job degrades.
    pub max_attempts: u32,
    /// First retry backoff.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// How long a crashed node stays down.
    pub crash_holdoff_ms: u64,
    /// Fault-injection plan.
    pub faults: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_cap: 256,
            max_attempts: 4,
            backoff_base_ms: 10,
            backoff_cap_ms: 160,
            crash_holdoff_ms: 20,
            faults: FaultPlan::none(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    jobs: BTreeMap<JobId, JobRecord>,
    next_id: JobId,
    accepting: bool,
}

/// A terminal attempt awaiting its batch's group commit: the `done`
/// line to log, and the node to release once that line is durable.
struct Finished {
    entry: WalEntry,
    node: usize,
}

impl Finished {
    /// A completed attempt, `Degraded` when its result is flagged.
    fn completed(job: JobId, node: usize, result: JobResult) -> Finished {
        let state = if result.degraded { JobState::Degraded } else { JobState::Done };
        Finished { entry: WalEntry::Done { job, state, result: Some(result) }, node }
    }
}

/// The orchestration daemon.
pub struct Fleet {
    config: FleetConfig,
    inner: Mutex<Inner>,
    cond: Condvar,
    wal: Mutex<WalWriter>,
    registry: Mutex<Registry>,
    injector: FaultInjector,
    /// Lifecycle event counts, indexed by [`EventKind`].
    events: [AtomicU64; EventKind::COUNT],
    pool: ThreadPool,
    shutdown: AtomicBool,
}

impl Fleet {
    /// Open (or re-open) a fleet over `registry`, replaying the WAL at
    /// `wal_path` to restore any earlier daemon's accepted jobs.
    pub fn open(
        config: FleetConfig,
        registry: Registry,
        wal_path: &Path,
    ) -> Result<Arc<Fleet>, FleetError> {
        let entries = wal::replay(wal_path)?;
        let wal = WalWriter::open(wal_path)?;
        let pool = ThreadPoolBuilder::new()
            .num_threads(config.workers)
            .build()
            .expect("pool construction cannot fail");
        let injector = FaultInjector::new(config.faults);
        let fleet = Fleet {
            config,
            inner: Mutex::new(Inner { accepting: true, ..Inner::default() }),
            cond: Condvar::new(),
            wal: Mutex::new(wal),
            registry: Mutex::new(registry),
            injector,
            events: Default::default(),
            pool,
            shutdown: AtomicBool::new(false),
        };
        fleet.restore(entries);
        Ok(Arc::new(fleet))
    }

    fn restore(&self, entries: Vec<WalEntry>) {
        let registry = self.registry.lock();
        let mut inner = self.inner.lock();
        for entry in entries {
            match entry {
                WalEntry::Submit { job, kind } => {
                    let Some(node) = registry.find_for(kind.server()).map(|n| n.id) else {
                        continue; // server no longer registered: drop
                    };
                    let total_steps = match &kind {
                        JobKind::Evaluate { .. } => {
                            evaluation_plan(&registry.node(node).expect("exists").spec).len()
                        }
                        _ => 1,
                    };
                    inner.next_id = inner.next_id.max(job + 1);
                    inner.jobs.insert(
                        job,
                        JobRecord {
                            id: job,
                            kind,
                            state: JobState::Queued,
                            attempts: 0,
                            checkpoint: Vec::new(),
                            suspect_rows: Vec::new(),
                            total_steps,
                            result: None,
                            node,
                            next_due: Instant::now(),
                        },
                    );
                }
                WalEntry::Claim { .. } => {
                    // A claim without a matching done means the attempt
                    // was in flight at the kill; the job stays Queued
                    // and resumes from its checkpointed rows.
                }
                WalEntry::Checkpoint { job, row, suspect, data } => {
                    if let Some(rec) = inner.jobs.get_mut(&job) {
                        if rec.checkpoint.len() == row {
                            rec.checkpoint.push(data);
                            if suspect {
                                rec.suspect_rows.push(row);
                            }
                        }
                    }
                }
                WalEntry::Retry { job, attempt, .. } => {
                    if let Some(rec) = inner.jobs.get_mut(&job) {
                        rec.attempts = attempt.saturating_sub(1);
                    }
                }
                WalEntry::Done { job, state, result } => {
                    if let Some(rec) = inner.jobs.get_mut(&job) {
                        rec.state = state;
                        rec.result = result;
                    }
                }
            }
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Submit a batch of jobs atomically; returns their ids.
    ///
    /// The whole batch is rejected on the first invalid job, pushed
    /// back with [`FleetError::Backlog`] when it would overflow
    /// [`FleetConfig::queue_cap`], and refused with the original
    /// failure once the WAL is poisoned. The batch's `submit` lines are
    /// synced as one group before any job is admitted; if they cannot
    /// be, none is.
    pub fn submit(&self, kinds: Vec<JobKind>) -> Result<Vec<JobId>, FleetError> {
        if kinds.is_empty() {
            return Ok(Vec::new());
        }
        let registry = self.registry.lock();
        let mut inner = self.inner.lock();
        if !inner.accepting {
            return Err(FleetError::Remote("fleet is draining; submits rejected".to_string()));
        }
        self.wal.lock().check()?;
        let live = inner.jobs.values().filter(|j| !j.state.is_terminal()).count();
        if live + kinds.len() > self.config.queue_cap {
            return Err(FleetError::Backlog { retry_after_ms: self.config.backoff_cap_ms });
        }
        let mut placed = Vec::with_capacity(kinds.len());
        for kind in &kinds {
            let node = registry
                .find_for(kind.server())
                .map(|n| n.id)
                .ok_or_else(|| FleetError::UnknownServer(kind.server().to_string()))?;
            let total_steps = match kind {
                JobKind::Evaluate { .. } => {
                    evaluation_plan(&registry.node(node).expect("exists").spec).len()
                }
                _ => 1,
            };
            placed.push((node, total_steps));
        }
        // Batch is valid: log it as one group, then admit all of it.
        let first = inner.next_id;
        let ids: Vec<JobId> = (first..).take(kinds.len()).collect();
        let group: Vec<WalEntry> = ids
            .iter()
            .zip(&kinds)
            .map(|(&job, kind)| WalEntry::Submit { job, kind: kind.clone() })
            .collect();
        self.wal.lock().append_all(&group)?;
        inner.next_id = first + ids.len() as JobId;
        for ((&id, kind), (node, total_steps)) in ids.iter().zip(kinds).zip(placed) {
            inner.jobs.insert(
                id,
                JobRecord {
                    id,
                    kind,
                    state: JobState::Queued,
                    attempts: 0,
                    checkpoint: Vec::new(),
                    suspect_rows: Vec::new(),
                    total_steps,
                    result: None,
                    node,
                    next_due: Instant::now(),
                },
            );
        }
        self.count(EventKind::Submitted, ids.len());
        drop(inner);
        self.cond.notify_all();
        Ok(ids)
    }

    /// Status snapshots, optionally filtered to one job.
    pub fn status(&self, job: Option<JobId>) -> Vec<JobStatus> {
        let inner = self.inner.lock();
        match job {
            Some(id) => inner.jobs.get(&id).map(JobRecord::status).into_iter().collect(),
            None => inner.jobs.values().map(JobRecord::status).collect(),
        }
    }

    /// The full result of a terminal job — including the kind-specific
    /// `output` payload, which status snapshots deliberately omit (a
    /// merged wire drain of a big sweep would blow the frame cap).
    /// In-process collectors (the tune sweep driver) read it directly.
    pub fn result_of(&self, job: JobId) -> Option<JobResult> {
        self.inner.lock().jobs.get(&job).and_then(|rec| rec.result.clone())
    }

    /// Stop accepting submits and block until every job is terminal,
    /// or, once the WAL is poisoned, until nothing is left running.
    /// Requires a running scheduler (see [`Fleet::start_scheduler`]).
    pub fn drain(&self) -> Vec<JobStatus> {
        let mut inner = self.inner.lock();
        inner.accepting = false;
        while !self.settled(&inner) {
            if self.is_shutting_down() {
                break; // report what finished rather than hang forever
            }
            self.cond.wait_for(&mut inner, Duration::from_millis(10));
        }
        inner.jobs.values().map(JobRecord::status).collect()
    }

    /// True when no job can move any more: all are terminal, or the
    /// WAL is poisoned (nothing more can be claimed) and none is
    /// running.
    fn settled(&self, inner: &Inner) -> bool {
        let mut live = inner.jobs.values().filter(|j| !j.state.is_terminal()).peekable();
        if live.peek().is_none() {
            return true;
        }
        live.all(|j| j.state != JobState::Running) && self.wal.lock().check().is_err()
    }

    /// How many `kind` events this daemon has seen since it opened.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        self.events[kind as usize].load(Ordering::Relaxed)
    }

    fn count(&self, kind: EventKind, n: usize) {
        self.events[kind as usize].fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Rank the servers the fleet could finish evaluating, best mean
    /// clean PPW first (see [`job::rank`]). Degraded results keep their
    /// flag; unfinished or unscorable jobs are excluded — a degraded
    /// fleet still ranks what it completed rather than reporting
    /// nothing.
    pub fn ranking(&self) -> Vec<RankedServer> {
        let inner = self.inner.lock();
        let mut rows: Vec<RankedServer> = inner
            .jobs
            .values()
            .filter(|j| matches!(j.kind, JobKind::Evaluate { .. }))
            .filter(|j| matches!(j.state, JobState::Done | JobState::Degraded))
            .filter_map(|j| {
                let r = j.result.as_ref()?;
                Some(RankedServer {
                    server: j.kind.server().to_string(),
                    ppw: r.score?,
                    degraded: r.degraded,
                })
            })
            .collect();
        job::rank(&mut rows);
        rows
    }

    /// Ask the daemon loops to stop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cond.notify_all();
    }

    /// True once shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Spawn the scheduler thread. It claims due jobs, dispatches the
    /// batch onto the worker pool, and parks briefly when idle.
    pub fn start_scheduler(self: &Arc<Self>) -> JoinHandle<()> {
        let fleet = Arc::clone(self);
        std::thread::spawn(move || {
            while !fleet.is_shutting_down() {
                let batch = fleet.claim_due();
                if batch.is_empty() {
                    let mut inner = fleet.inner.lock();
                    fleet.cond.wait_for(&mut inner, Duration::from_millis(5));
                    continue;
                }
                let finished: Vec<Finished> = fleet
                    .pool
                    .install(|| batch.par_iter().filter_map(|&id| fleet.execute(id)).collect());
                fleet.commit(finished);
                fleet.cond.notify_all();
            }
        })
    }

    /// Claim every queued job whose backoff has elapsed and whose node
    /// is healthy: logs the claims as one group, then marks them
    /// Running. Nothing is claimed when the group cannot be logged.
    fn claim_due(&self) -> Vec<JobId> {
        let registry = self.registry.lock();
        let mut inner = self.inner.lock();
        let now = Instant::now();
        let due: Vec<JobId> = inner
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .filter(|j| j.next_due <= now)
            .filter(|j| registry.is_healthy(j.node))
            .map(|j| j.id)
            .collect();
        let group: Vec<WalEntry> = due
            .iter()
            .map(|&job| {
                let rec = &inner.jobs[&job];
                WalEntry::Claim { job, attempt: rec.attempts + 1, node: rec.node }
            })
            .collect();
        if self.wal.lock().append_all(&group).is_err() {
            return Vec::new(); // unloggable claims don't run
        }
        for job in &due {
            inner.jobs.get_mut(job).expect("listed above").state = JobState::Running;
        }
        self.count(EventKind::Started, due.len());
        due
    }

    /// Run one claimed job attempt to its outcome. A requeue (preempt,
    /// crash with attempts left) is applied here; a terminal outcome is
    /// returned for the batch's [`Fleet::commit`].
    fn execute(&self, id: JobId) -> Option<Finished> {
        let (kind, checkpoint, suspect, attempt, node, total_steps) = {
            let inner = self.inner.lock();
            let rec = &inner.jobs[&id];
            (
                rec.kind.clone(),
                rec.checkpoint.clone(),
                rec.suspect_rows.clone(),
                rec.attempts + 1,
                rec.node,
                rec.total_steps,
            )
        };
        let spec = {
            let registry = self.registry.lock();
            registry.node(node).expect("pinned at submit").spec.clone()
        };
        let faults = self.injector.attempt_faults(id, attempt, total_steps);
        let outcome = run_attempt(&kind, &spec, &checkpoint, &suspect, faults, |row, data, sus| {
            // Lock order is inner → wal fleet-wide; the append still
            // happens before the in-memory row (WAL before memory).
            let mut inner = self.inner.lock();
            let logged = self
                .wal
                .lock()
                .append(&WalEntry::Checkpoint { job: id, row, suspect: sus, data: data.clone() })
                .is_ok();
            if let Some(rec) = inner.jobs.get_mut(&id) {
                if logged && rec.checkpoint.len() == row {
                    rec.checkpoint.push(data.clone());
                    if sus {
                        rec.suspect_rows.push(row);
                    }
                }
            }
            drop(inner);
            self.count(EventKind::Checkpointed, 1);
            if sus {
                self.count(EventKind::MeterDropout, 1);
            }
        });
        match outcome {
            AttemptOutcome::Completed { result } => Some(Finished::completed(id, node, result)),
            AttemptOutcome::Preempted => {
                {
                    let mut inner = self.inner.lock();
                    let rec = inner.jobs.get_mut(&id).expect("running");
                    rec.state = JobState::Queued;
                    rec.next_due = Instant::now();
                }
                self.count(EventKind::Preempted, 1);
                self.cond.notify_all();
                None
            }
            AttemptOutcome::Crashed { at_step } => self.handle_crash(id, node, at_step),
            AttemptOutcome::BadCheckpoint { .. } => Some(Finished {
                entry: WalEntry::Done { job: id, state: JobState::Failed, result: None },
                node,
            }),
        }
    }

    /// Log the `done` lines of a scheduler batch as one group; only once
    /// it is synced, apply the batch to memory and count its events. If
    /// the group cannot be logged, every job in it goes back to the
    /// queue so a later attempt re-finishes it (none will while the WAL
    /// is poisoned).
    fn commit(&self, finished: Vec<Finished>) {
        if finished.is_empty() {
            return;
        }
        let (group, nodes): (Vec<WalEntry>, Vec<usize>) =
            finished.into_iter().map(|f| (f.entry, f.node)).unzip();
        let logged = {
            let mut wal = self.wal.lock();
            match wal.append_all(&group) {
                Ok(()) => vec![true; group.len()],
                Err(_) if wal.check().is_err() => vec![false; group.len()],
                // A line that does not encode (a non-finite result)
                // fails the group before anything is written; log the
                // rest alone so one bad job cannot stall its batch.
                Err(_) => group.iter().map(|entry| wal.append(entry).is_ok()).collect(),
            }
        };
        let mut ended = Vec::with_capacity(nodes.len());
        {
            let mut inner = self.inner.lock();
            for ((entry, node), logged) in group.into_iter().zip(nodes).zip(logged) {
                let WalEntry::Done { job, state, result } = entry else {
                    unreachable!("the done group holds done lines only")
                };
                let Some(rec) = inner.jobs.get_mut(&job) else { continue };
                if logged {
                    rec.state = state;
                    rec.result = result;
                    ended.push((node, state));
                } else {
                    rec.state = JobState::Queued;
                    rec.next_due =
                        Instant::now() + Duration::from_millis(self.config.backoff_cap_ms);
                }
            }
        }
        let mut registry = self.registry.lock();
        for (node, state) in ended {
            let kind = match state {
                JobState::Done => EventKind::Done,
                JobState::Degraded => EventKind::Degraded,
                _ => EventKind::Failed,
            };
            if kind != EventKind::Failed {
                registry.mark_finished(node);
            }
            self.count(kind, 1);
        }
    }

    fn handle_crash(&self, id: JobId, node: usize, at_step: usize) -> Option<Finished> {
        self.registry
            .lock()
            .mark_crashed(node, Duration::from_millis(self.config.crash_holdoff_ms));
        self.count(EventKind::NodeCrashed, 1);
        let attempts = {
            let mut inner = self.inner.lock();
            let rec = inner.jobs.get_mut(&id).expect("running");
            rec.attempts += 1;
            rec.attempts
        };
        if attempts >= self.config.max_attempts {
            // Graceful degradation: finish with what was checkpointed.
            let (rows, suspect) = {
                let inner = self.inner.lock();
                let rec = &inner.jobs[&id];
                (rec.checkpoint.clone(), rec.suspect_rows.clone())
            };
            let score = JobResult::clean_score(&rows, &suspect);
            let result = JobResult {
                score,
                degraded: true,
                notes: vec![format!(
                    "exhausted {attempts} attempts; {} of {} rows completed",
                    rows.len(),
                    self.inner.lock().jobs[&id].total_steps
                )],
                rows,
                suspect_rows: suspect,
                output: None,
            };
            return Some(Finished::completed(id, node, result));
        }
        let backoff = self
            .config
            .backoff_base_ms
            .saturating_mul(1 << (attempts.saturating_sub(1)).min(16))
            .min(self.config.backoff_cap_ms);
        let reason = format!("node crashed before state {at_step}");
        let retry = WalEntry::Retry { job: id, attempt: attempts + 1, reason };
        let logged = self.wal.lock().append(&retry);
        {
            let mut inner = self.inner.lock();
            if let Some(rec) = inner.jobs.get_mut(&id) {
                rec.state = JobState::Queued;
                rec.next_due = Instant::now() + Duration::from_millis(backoff);
            }
        }
        if logged.is_ok() {
            self.count(EventKind::Retried, 1);
        }
        self.cond.notify_all();
        None
    }

    /// Serve the wire protocol on `listener` until shutdown, on the
    /// single-threaded readiness loop (see the [`crate::server`]
    /// module): no handler thread per connection, and a shutdown
    /// request is honored within one poll tick.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> Result<(), FleetError> {
        server::serve_readiness(&**self, listener)
    }

    /// Stop accepting submits without waiting for the queue to dry —
    /// the non-blocking half of [`Fleet::drain`], paired with
    /// [`Fleet::drained_statuses`] for completion polling.
    pub fn begin_drain(&self) {
        self.inner.lock().accepting = false;
        self.cond.notify_all();
    }

    /// Non-blocking drain-completion check: the full status report once
    /// a requested drain has settled, as [`Fleet::drain`] defines it.
    pub fn drained_statuses(&self) -> Option<Vec<JobStatus>> {
        let inner = self.inner.lock();
        if !inner.accepting && self.settled(&inner) {
            Some(inner.jobs.values().map(JobRecord::status).collect())
        } else {
            None
        }
    }

    pub(crate) fn respond(&self, req: Request) -> String {
        match req {
            Request::Ping => wire::ok_response(vec![(
                "pong".to_string(),
                Value::Str("hpceval-fleet".to_string()),
            )])
            .expect("static response encodes"),
            Request::Submit { jobs } => match self.submit(jobs) {
                Ok(ids) => wire::submit_response(&ids),
                Err(e) => wire::error_to_response(&e),
            },
            Request::Status { job } => wire::status_response(&self.status(job)),
            Request::Drain => wire::status_response(&self.drain()),
            Request::Ranking => wire::ranking_response(&self.ranking()),
            Request::Shutdown => wire::shutdown_response(),
        }
    }
}

impl server::Service for Fleet {
    fn handle(&self, req: Request) -> server::Action {
        match req {
            // Drain completes only when the queue is dry; answering
            // inline would stall the event loop, so defer it. Drain
            // completion is a global condition (the queue is dry for
            // everyone at once), so every drain shares ticket 0.
            Request::Drain => {
                self.begin_drain();
                server::Action::Defer(0)
            }
            Request::Shutdown => server::Action::ReplyThenShutdown(self.respond(Request::Shutdown)),
            other => server::Action::Reply(self.respond(other)),
        }
    }

    fn poll_ticket(&self, _ticket: u64) -> Option<String> {
        self.drained_statuses().map(|jobs| wire::status_response(&jobs))
    }

    fn begin_shutdown(&self) {
        self.request_shutdown();
    }

    fn shutting_down(&self) -> bool {
        self.is_shutting_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::path::PathBuf;

    fn wal_path(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("hpceval-fleet-{}-{name}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn eval(server: &str, seed: u64) -> JobKind {
        JobKind::Evaluate { server: server.to_string(), seed }
    }

    #[test]
    fn fault_free_queue_drains_done() {
        let path = wal_path("clean");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let sched = fleet.start_scheduler();
        fleet
            .submit(vec![
                eval("xeon-e5462", 1),
                JobKind::Green500 { server: "xeon-4870".into() },
                JobKind::Specpower { server: "opteron-8347".into() },
            ])
            .unwrap();
        let statuses = fleet.drain();
        assert_eq!(statuses.len(), 3);
        assert!(statuses.iter().all(|s| s.state == "Done"), "{statuses:?}");
        assert!(statuses.iter().all(|s| !s.degraded));
        fleet.request_shutdown();
        sched.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_server_rejects_the_batch_atomically() {
        let path = wal_path("unknown");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let err = fleet.submit(vec![eval("xeon-e5462", 1), eval("cray-1", 2)]).unwrap_err();
        assert!(matches!(err, FleetError::UnknownServer(_)));
        assert!(fleet.status(None).is_empty(), "nothing admitted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn queue_cap_pushes_back_with_a_retry_hint() {
        let path = wal_path("cap");
        let config = FleetConfig { queue_cap: 2, ..FleetConfig::default() };
        let fleet = Fleet::open(config, Registry::with_presets(), &path).unwrap();
        fleet.submit(vec![eval("xeon-e5462", 1), eval("xeon-e5462", 2)]).unwrap();
        match fleet.submit(vec![eval("xeon-e5462", 3)]) {
            Err(FleetError::Backlog { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected backlog, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Fail-stop: one failed WAL write refuses every later submit with
    /// the original failure, even once the file is healthy again, and a
    /// drain over jobs that can no longer be claimed returns instead of
    /// polling forever.
    #[test]
    fn a_poisoned_wal_refuses_submits_and_drain_returns() {
        let path = wal_path("poison");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        fleet.submit(vec![eval("xeon-e5462", 1), eval("xeon-4870", 2)]).unwrap();
        let healthy = fleet.wal.lock().swap_file(File::open(&path).unwrap());
        let cause = fleet.submit(vec![eval("opteron-8347", 3), eval("xeon-e5462", 4)]).unwrap_err();
        fleet.wal.lock().swap_file(healthy);
        match fleet.submit(vec![eval("opteron-8347", 3)]) {
            Err(FleetError::WalPoisoned(msg)) => {
                assert!(cause.to_string().contains(&msg), "{msg} vs {cause}")
            }
            other => panic!("a poisoned WAL admitted a submit: {other:?}"),
        }
        assert_eq!(fleet.status(None).len(), 2, "the failed batch admitted nothing");

        let sched = fleet.start_scheduler();
        let (tx, rx) = std::sync::mpsc::channel();
        let draining = Arc::clone(&fleet);
        std::thread::spawn(move || tx.send(draining.drain()).unwrap());
        let statuses = rx.recv_timeout(Duration::from_secs(10)).expect("drain returned");
        fleet.request_shutdown();
        sched.join().unwrap();
        assert!(statuses.iter().all(|s| s.state == "Queued"), "nothing claimed: {statuses:?}");
        assert_eq!(wal::replay(&path).unwrap().len(), 2, "only the first batch was logged");
        std::fs::remove_file(&path).unwrap();
    }

    /// Group commit, pinned: a 200-job tune batch costs one sync for its
    /// submit and O(scheduler ticks) in all, while still logging one
    /// submit, one claim and one done line per job.
    #[test]
    fn a_tune_batch_syncs_per_group_not_per_line() {
        let path = wal_path("syncs");
        let cells = hpceval_tune::plan_sweep(&hpceval_tune::SweepOptions::default()).unwrap();
        let jobs: Vec<JobKind> = cells.iter().take(200).map(crate::sweep::cell_to_job).collect();
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let ids = fleet.submit(jobs).unwrap();
        assert_eq!(fleet.wal.lock().syncs(), 1, "one sync for the whole submit batch");
        let sched = fleet.start_scheduler();
        let statuses = fleet.drain();
        fleet.request_shutdown();
        sched.join().unwrap();
        assert!(statuses.iter().all(|s| s.state == "Done"), "{statuses:?}");
        let syncs = fleet.wal.lock().syncs();
        assert!(syncs <= 8, "{syncs} syncs for 200 jobs: per line, not per group");

        let mut lines: Vec<(&str, JobId)> = wal::replay(&path)
            .unwrap()
            .iter()
            .map(|entry| match entry {
                WalEntry::Claim { job, .. } => ("claim", *job),
                WalEntry::Done { job, .. } => ("done", *job),
                WalEntry::Submit { job, .. } => ("submit", *job),
                other => panic!("unexpected line {other:?}"),
            })
            .collect();
        lines.sort_unstable();
        let want: Vec<(&str, JobId)> = ["claim", "done", "submit"]
            .into_iter()
            .flat_map(|e| ids.iter().map(move |&job| (e, job)))
            .collect();
        assert_eq!(lines, want, "one submit, one claim and one done line per job");
        std::fs::remove_file(&path).unwrap();
    }

    /// A done line that cannot be encoded (a non-finite score) fails on
    /// its own: the rest of its batch still commits, and only it counts.
    #[test]
    fn an_unencodable_done_line_does_not_stall_its_batch() {
        let path = wal_path("nonfinite");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let ids = fleet
            .submit(vec![
                JobKind::Green500 { server: "xeon-e5462".into() },
                JobKind::Green500 { server: "xeon-4870".into() },
            ])
            .unwrap();
        assert_eq!(fleet.claim_due(), ids);
        let finished = |id: JobId, score: f64| {
            let node = fleet.inner.lock().jobs[&id].node;
            let result = JobResult {
                score: Some(score),
                degraded: false,
                notes: Vec::new(),
                rows: Vec::new(),
                suspect_rows: Vec::new(),
                output: None,
            };
            Finished::completed(id, node, result)
        };
        fleet.commit(vec![finished(ids[0], f64::NAN), finished(ids[1], 1.0)]);
        let states: Vec<String> = fleet.status(None).into_iter().map(|s| s.state).collect();
        assert_eq!(states, ["Queued", "Done"]);
        // Only the logged line counts as finished.
        let counts = [EventKind::Submitted, EventKind::Started, EventKind::Done]
            .map(|kind| fleet.event_count(kind));
        assert_eq!(counts, [2, 2, 1]);
        let done: Vec<JobId> = wal::replay(&path)
            .unwrap()
            .iter()
            .filter_map(|e| match e {
                WalEntry::Done { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(done, ids[1..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ranking_orders_finished_servers_and_keeps_flags() {
        let path = wal_path("ranking");
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let sched = fleet.start_scheduler();
        fleet
            .submit(vec![eval("xeon-e5462", 1), eval("xeon-4870", 1), eval("opteron-8347", 1)])
            .unwrap();
        fleet.drain();
        let ranking = fleet.ranking();
        assert_eq!(ranking.len(), 3);
        assert!(ranking.windows(2).all(|w| w[0].ppw >= w[1].ppw), "sorted best-first");
        assert!(ranking.iter().all(|r| !r.degraded));
        fleet.request_shutdown();
        sched.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
