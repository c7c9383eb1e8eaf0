//! Fleet quickstart: a faulty in-process fleet that still ranks servers.
//!
//! ```sh
//! cargo run --example fleet_quickstart
//! ```
//!
//! Opens a fleet daemon in-process (no TCP needed — see
//! `hpceval fleet serve` for the socket version), submits a five-state
//! evaluation of every Table I preset plus a training run, injects node
//! crashes and meter dropouts, drains the queue, and prints the
//! Green500-style ranking the degraded fleet could still produce. The
//! write-ahead log means a `kill -9` of this process would lose nothing:
//! re-running `Fleet::open` on the same WAL resumes from the last
//! checkpointed state row.

use hpceval::fleet::fault::FaultPlan;
use hpceval::fleet::{Fleet, FleetConfig, JobKind, Registry};

fn main() {
    let wal = std::env::temp_dir().join("hpceval_fleet_quickstart.wal");
    let _ = std::fs::remove_file(&wal); // fresh demo; keep it to see resume

    let config = FleetConfig {
        max_attempts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        crash_holdoff_ms: 2,
        faults: FaultPlan { crash_p: 0.35, straggler_p: 0.2, dropout_p: 0.1, seed: 2015 },
        ..FleetConfig::default()
    };
    let fleet = Fleet::open(config, Registry::with_presets(), &wal).expect("fleet opens");
    let scheduler = fleet.start_scheduler();

    let jobs = vec![
        JobKind::Evaluate { server: "xeon-e5462".into(), seed: 42 },
        JobKind::Evaluate { server: "opteron-8347".into(), seed: 42 },
        JobKind::Evaluate { server: "xeon-4870".into(), seed: 42 },
        JobKind::Train { server: "xeon-e5462".into(), seed: 7 },
    ];
    let ids = fleet.submit(jobs).expect("all servers are known presets");
    println!("submitted jobs {ids:?}; draining under injected faults…\n");

    for job in fleet.drain() {
        println!(
            "  job {:>2}  {:<9} {:<12} {:<9} {} / {} rows{}",
            job.id,
            job.kind,
            job.server,
            job.state,
            job.rows_done,
            job.total_steps,
            if job.notes.is_empty() {
                String::new()
            } else {
                format!("  [{}]", job.notes.join("; "))
            }
        );
    }

    println!("\nranking (mean clean PPW, degraded results flagged, never averaged in):");
    for row in fleet.ranking() {
        let flag = if row.degraded { "  (degraded)" } else { "" };
        println!("  {:<12} {:.4} GFLOPS/W{flag}", row.server, row.ppw);
    }

    let crashes = fleet.event_count(hpceval::fleet::EventKind::NodeCrashed);
    println!("\n{crashes} node crash(es) injected");

    fleet.request_shutdown();
    scheduler.join().expect("scheduler exits");
    let _ = std::fs::remove_file(&wal);
}
