//! The fleet-backed DVFS sweep driver: every autotuner cell runs as a
//! WAL-logged `JobKind::Tune` job on sharded daemons behind the
//! fan-out router.
//!
//! The driver is the bridge between `hpceval-tune` (which plans cells
//! and analyzes results but knows nothing about fleets) and the fleet
//! front-end (sharded daemons + router). Shape:
//!
//! 1. stand up N shard daemons (each with its own WAL) and a router;
//! 2. submit the planned cells through the router in one batch per
//!    backpressure window — global ids come back in submission order,
//!    so the id↔cell mapping is positional;
//! 3. drain every shard and read each cell's [`JobResult::output`]
//!    **in-process** via [`Fleet::result_of`] (a merged wire drain of
//!    a full sweep would exceed the 1 MiB frame cap);
//! 4. decode the outputs back into [`CellResult`]s, in cell order.
//!
//! Determinism end to end: cells are measured by seeded simulation, a
//! crashed attempt replays bitwise, WAL floats round-trip value-exact
//! (shortest-round-trip encoding), and the analysis layer orders
//! canonically — so a sweep interrupted by `kill -9` of a shard and
//! replayed from its WAL produces a bitwise-identical Pareto frontier
//! (`tests/tune_sweep.rs` proves it).

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpceval_tune::{CellResult, TuneCell};

use crate::client::FleetClient;
use crate::daemon::{Fleet, FleetConfig};
use crate::error::FleetError;
use crate::fault::FaultPlan;
use crate::job::{JobId, JobKind, JobResult};
use crate::registry::Registry;
use crate::router::Router;

/// Sweep-execution shape.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Shard daemons behind the router.
    pub shards: usize,
    /// Fault plan injected into every shard (crashes retry, dropouts
    /// flag; neither changes the measured values).
    pub faults: FaultPlan,
    /// Directory for the shard WALs. `None` uses per-run temp files
    /// deleted on success; tests pin a directory to replay from.
    pub wal_dir: Option<PathBuf>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { shards: 2, faults: FaultPlan::none(), wal_dir: None }
    }
}

/// Distinguishes concurrent sweeps inside one process (unit tests) so
/// their temp WALs cannot collide.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Turn a cell into its fleet job.
pub fn cell_to_job(cell: &TuneCell) -> JobKind {
    JobKind::Tune {
        server: cell.server.clone(),
        kernel: cell.kernel.clone(),
        freq_state: cell.freq_state,
        processes: cell.processes,
        seed: cell.seed,
    }
}

/// Decode one terminal tune job back into its measured cell. `None`
/// when the job carried no output (rejected cell).
pub fn result_to_cell(cell: &TuneCell, result: &JobResult) -> Option<CellResult> {
    let output = result.output.as_ref()?;
    let measure = hpceval_tune::CellMeasure::from_value(output)?;
    Some(CellResult { cell: cell.clone(), measure })
}

/// Read the full results of `ids` (global, positional with `cells`)
/// from the in-process shard daemons, in cell order. Errors if any job
/// is non-terminal or its output is missing/undecodable — collection
/// runs strictly after a drain, so absence means a bug, not a race.
pub fn collect_results(
    fleets: &[Arc<Fleet>],
    router: &Router,
    cells: &[TuneCell],
    ids: &[JobId],
) -> Result<Vec<CellResult>, FleetError> {
    if cells.len() != ids.len() {
        return Err(FleetError::Protocol("cell/id batches differ in length".to_string()));
    }
    cells
        .iter()
        .zip(ids)
        .map(|(cell, &global)| {
            let (shard, local) = router.split_global(global);
            let result = fleets[shard].result_of(local).ok_or_else(|| {
                FleetError::Protocol(format!("job {global} has no result after drain"))
            })?;
            result_to_cell(cell, &result).ok_or_else(|| {
                FleetError::Protocol(format!(
                    "job {global} ({}) finished without a cell measure: {:?}",
                    cell.kernel, result.notes
                ))
            })
        })
        .collect()
}

/// Run every planned cell as a fleet job through the router and return
/// the measured results in cell order.
pub fn run_sweep(cells: &[TuneCell], config: &SweepConfig) -> Result<Vec<CellResult>, FleetError> {
    if config.shards == 0 {
        return Err(FleetError::Protocol("sweep needs at least one shard".to_string()));
    }
    let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);

    // --- shard daemons --------------------------------------------
    let mut fleets = Vec::with_capacity(config.shards);
    let mut wal_paths: Vec<PathBuf> = Vec::with_capacity(config.shards);
    let mut shard_addrs = Vec::with_capacity(config.shards);
    let mut threads = Vec::new();
    for s in 0..config.shards {
        let path = match &config.wal_dir {
            Some(dir) => dir.join(format!("tune-shard-{s}.wal")),
            None => {
                let p = std::env::temp_dir()
                    .join(format!("hpceval-tune-sweep-{}-{run}-{s}.wal", std::process::id()));
                let _ = std::fs::remove_file(&p);
                p
            }
        };
        let fleet_config = FleetConfig {
            queue_cap: cells.len().max(16),
            faults: config.faults,
            ..Default::default()
        };
        let fleet = Fleet::open(fleet_config, Registry::with_presets(), &path)?;
        threads.push(fleet.start_scheduler());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        shard_addrs.push(listener.local_addr()?.to_string());
        let f = Arc::clone(&fleet);
        threads.push(std::thread::spawn(move || {
            let _ = f.serve(listener);
        }));
        wal_paths.push(path);
        fleets.push(fleet);
    }

    // --- router ---------------------------------------------------
    let router = Arc::new(Router::connect(&shard_addrs)?);
    let router_listener = TcpListener::bind("127.0.0.1:0")?;
    let router_addr = router_listener.local_addr()?.to_string();
    {
        let r = Arc::clone(&router);
        threads.push(std::thread::spawn(move || {
            let _ = r.serve(router_listener);
        }));
    }

    // --- submit through the router, drain, collect ----------------
    let mut client = FleetClient::connect(&router_addr)?;
    let jobs: Vec<JobKind> = cells.iter().map(cell_to_job).collect();
    let ids = client.submit_with_backoff(jobs, 8)?;
    for fleet in &fleets {
        fleet.drain();
    }
    let results = collect_results(&fleets, &router, cells, &ids);

    // --- tear down ------------------------------------------------
    client.shutdown()?;
    for handle in threads {
        let _ = handle.join();
    }
    drop(fleets);
    if config.wal_dir.is_none() && results.is_ok() {
        for path in &wal_paths {
            let _ = std::fs::remove_file(path);
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpceval_tune::{plan_sweep, run_cell, SweepOptions};

    fn smoke_cells() -> Vec<TuneCell> {
        let opts = SweepOptions {
            servers: vec!["Xeon-E5462".to_string()],
            kernels: vec!["ep".to_string(), "stream".to_string()],
            max_states: 2,
            ..SweepOptions::default()
        };
        plan_sweep(&opts).unwrap()
    }

    /// Also the one live run of the router above two shards.
    #[test]
    fn sweep_jobs_reproduce_in_process_measurement() {
        let cells = smoke_cells();
        for shards in [1, 2, 4] {
            let results = run_sweep(&cells, &SweepConfig { shards, ..SweepConfig::default() });
            let results = results.unwrap();
            assert_eq!(results.len(), cells.len());
            for r in &results {
                let direct = run_cell(&r.cell).unwrap();
                assert_eq!(
                    r.measure, direct,
                    "{:?} on {shards} shard(s): fleet path must be bitwise-identical",
                    r.cell
                );
            }
        }
    }

    #[test]
    fn sweep_survives_injected_crashes_and_dropouts() {
        let cells = smoke_cells();
        let clean = run_sweep(&cells, &SweepConfig::default()).unwrap();
        let faulty = SweepConfig {
            faults: FaultPlan { crash_p: 0.2, straggler_p: 0.0, dropout_p: 0.3, seed: 11 },
            ..SweepConfig::default()
        };
        let stressed = run_sweep(&cells, &faulty).unwrap();
        // Crashes retry into the same value; dropouts only flag the
        // job. Either way the measured cells are bitwise-identical.
        assert_eq!(clean, stressed);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let cfg = SweepConfig { shards: 0, ..SweepConfig::default() };
        assert!(run_sweep(&[], &cfg).is_err());
    }
}
