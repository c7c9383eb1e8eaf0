//! The fleet workloads, each shaped after an in-repo caller of the fleet.
//!
//! * `fleet-sweep` is `hpceval tune sweep`, the fleet's heaviest caller.
//!   One operation is one `run_sweep` of the planned DVFS cells: it
//!   stands up two shard daemons behind the router, submits every cell
//!   as a `Tune` job in one `submit_with_backoff` batch that the router
//!   splits across the shards, drains, collects the results in process
//!   and shuts the fleet down. Every job writes synced WAL lines and
//!   runs one runner attempt, so this is the write path.
//! * `fleet-status` is `hpceval fleet status` run in a loop against a
//!   serving router, as a user or a script watching a fleet does. One
//!   operation is what one CLI invocation does: connect, ask for every
//!   job's status (the router fans out to both shards and merges their
//!   replies) and disconnect. The fleet holds the `hpceval fleet smoke`
//!   batch, submitted and drained during set-up, so this is the request
//!   path — connect, codec, readiness loops, fan-out, pooled shard
//!   connections — with no WAL or runner work. One caller polls at a
//!   time, as the CLI does.
//!
//! A traced run times each layer from outside: the stages of a sweep,
//! assembled from the same public calls `run_sweep` makes; the connect
//! and the request of a status call; and, in process, the router, one
//! shard pool, a shard's `status`, the codec, WAL appends of a `Tune`
//! job's entries and the runner. Line and byte counts come exactly from
//! the sweeps' WALs.

use std::hint::black_box;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Serialize, Value};

use hpceval_fleet::fault::AttemptFaults;
use hpceval_fleet::job::{JobKind, JobState};
use hpceval_fleet::runner::{run_attempt, AttemptOutcome};
use hpceval_fleet::sweep::{cell_to_job, collect_results};
use hpceval_fleet::wal::{self, WalEntry, WalWriter};
use hpceval_fleet::wire::{self, Request};
use hpceval_fleet::{
    run_sweep, Fleet, FleetClient, FleetConfig, PoolConfig, Registry, RemoteJob, Router, ShardPool,
    SweepConfig,
};
use hpceval_machine::presets;
use hpceval_tune::{plan_sweep, run_cell, CellResult, SweepOptions, TuneCell};

use crate::{end_to_end, stats, tracing_overhead, Ctx, Report, Spans};

/// The per-layer metrics this layer reports.
pub const LAYER_METRICS: [(&str, &str); 17] = [
    ("sweep.start_ms", "ms"),
    ("sweep.submit_ms", "ms"),
    ("sweep.drain_ms", "ms"),
    ("sweep.collect_ms", "ms"),
    ("sweep.stop_ms", "ms"),
    ("wal.append_p50_us", "us"),
    ("wal.append_p99_us", "us"),
    ("wal.lines_per_job", "count"),
    ("wal.bytes_per_job", "B"),
    ("runner.tune_us", "us"),
    ("status.connect_us", "us"),
    ("status.call_us", "us"),
    ("router.status_p50_us", "us"),
    ("router.status_p99_us", "us"),
    ("pool.status_us", "us"),
    ("daemon.status_us", "us"),
    ("wire.envelope_us", "us"),
];

/// Sweeps per second of run budget (one sweep takes about 0.1 s on the
/// reference host).
const SWEEPS_PER_S: f64 = 9.0;
/// Status calls per second of run budget.
const CALLS_PER_S: f64 = 5500.0;
/// Status fleet set-ups per run; the median is reported.
const STATUS_SETUP_REPEATS: usize = 11;
/// Untimed status calls after set-up, so lazily built state (socket
/// buffers, pooled shard connections) is in place before timing.
const WARMUP_CALLS: usize = 200;
/// Shards behind the router: `run_sweep`'s default, and the topology
/// the CLI documents.
const SHARDS: usize = 2;
/// Retries on a pushed-back batch: `run_sweep`'s and `fleet submit`'s.
const SWEEP_RETRIES: u32 = 8;
const CLI_RETRIES: u32 = 10;
/// Traced sweeps and status calls when another workload probes a layer.
const PROBE_SWEEPS: usize = 4;
const PROBE_CALLS: usize = 1000;
/// Samples per in-process probe (1000: enough for a p99 with ten
/// beyond it).
const PROBE_SAMPLES: usize = 1000;
const WIRE_BATCHES: usize = 20;
const WIRE_BATCH: usize = 500;
const RUNNER_PROBES: usize = 200;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as u64, out)
}

fn median_us(ns: &[u64]) -> f64 {
    stats::median_ns(ns) as f64 / 1e3
}

/// Shard daemons with running schedulers, each serving loopback TCP,
/// and the router serving over them: what `run_sweep` stands up, and
/// what `fleet serve` and `fleet route` start.
struct LiveFleet {
    shards: Vec<Arc<Fleet>>,
    shard_addrs: Vec<String>,
    router: Arc<Router>,
    router_addr: String,
    threads: Vec<JoinHandle<()>>,
}

impl LiveFleet {
    fn start(wals: &[PathBuf], config: &FleetConfig) -> Result<LiveFleet, String> {
        let (mut shards, mut shard_addrs, mut threads) = (Vec::new(), Vec::new(), Vec::new());
        for path in wals {
            let fleet = Fleet::open(config.clone(), Registry::with_presets(), path).map_err(err)?;
            threads.push(fleet.start_scheduler());
            let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
            shard_addrs.push(listener.local_addr().map_err(err)?.to_string());
            let serving = Arc::clone(&fleet);
            threads.push(std::thread::spawn(move || drop(serving.serve(listener))));
            shards.push(fleet);
        }
        let router = Arc::new(Router::connect(&shard_addrs).map_err(err)?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let router_addr = listener.local_addr().map_err(err)?.to_string();
        let serving = Arc::clone(&router);
        threads.push(std::thread::spawn(move || drop(serving.serve(listener))));
        Ok(LiveFleet { shards, shard_addrs, router, router_addr, threads })
    }

    fn client(&self) -> Result<FleetClient, String> {
        FleetClient::connect(&self.router_addr).map_err(err)
    }

    /// Shut the router down through `client` (it stops the shards) and
    /// join every thread.
    fn stop(self, client: &mut FleetClient) -> Result<(), String> {
        client.shutdown().map_err(err)?;
        for t in self.threads {
            t.join().map_err(|_| "a fleet thread panicked".to_string())?;
        }
        Ok(())
    }
}

fn shard_wals(dir: &Path) -> Vec<PathBuf> {
    // `run_sweep`'s names for the shard WALs of a pinned directory.
    (0..SHARDS).map(|s| dir.join(format!("tune-shard-{s}.wal"))).collect()
}

// --- fleet-sweep --------------------------------------------------------

/// The cells to sweep and their in-process measurements, which every
/// sweep through the fleet must reproduce bitwise.
struct Sweep {
    cells: Vec<TuneCell>,
    reference: Vec<CellResult>,
}

impl Sweep {
    fn plan(seed: u64) -> Result<Vec<TuneCell>, String> {
        plan_sweep(&SweepOptions { seed, ..SweepOptions::default() })
    }

    fn new(cells: Vec<TuneCell>) -> Result<Sweep, String> {
        let reference = cells
            .iter()
            .map(|cell| Ok(CellResult { cell: cell.clone(), measure: run_cell(cell)? }))
            .collect::<Result<_, String>>()?;
        Ok(Sweep { cells, reference })
    }

    /// One sweep with its WALs in `dir`, through `run_sweep` itself or,
    /// traced, through the same calls with a span around each stage.
    fn run(&self, dir: &Path, trace: Option<(&mut Spans, u64)>) -> Result<Vec<CellResult>, String> {
        let Some((spans, op)) = trace else {
            let config = SweepConfig { wal_dir: Some(dir.to_path_buf()), ..SweepConfig::default() };
            return run_sweep(&self.cells, &config).map_err(err);
        };
        let id = spans.open("sweep", None, op);
        let root = Some(id);
        let config = FleetConfig { queue_cap: self.cells.len().max(16), ..FleetConfig::default() };
        let live =
            spans.time("sweep.start", root, op, || LiveFleet::start(&shard_wals(dir), &config))?;
        let (mut client, ids) = spans.time("sweep.submit", root, op, || {
            let mut client = live.client()?;
            let jobs = self.cells.iter().map(cell_to_job).collect();
            let ids = client.submit_with_backoff(jobs, SWEEP_RETRIES).map_err(err)?;
            Ok::<_, String>((client, ids))
        })?;
        spans.time("sweep.drain", root, op, || live.shards.iter().for_each(|f| drop(f.drain())));
        let results = spans.time("sweep.collect", root, op, || {
            collect_results(&live.shards, &live.router, &self.cells, &ids).map_err(err)
        });
        spans.time("sweep.stop", root, op, || live.stop(&mut client))?;
        spans.close(id);
        results
    }
}

/// Counts from one sweep's shard WALs.
#[derive(Debug, Default)]
struct WalCounts {
    submits: usize,
    dones: usize,
    lines: usize,
    bytes: u64,
}

fn wal_counts(dir: &Path) -> Result<WalCounts, String> {
    let mut c = WalCounts::default();
    for path in shard_wals(dir) {
        let entries = wal::replay(&path).map_err(err)?;
        c.submits += entries.iter().filter(|e| matches!(e, WalEntry::Submit { .. })).count();
        c.dones += entries.iter().filter(|e| matches!(e, WalEntry::Done { .. })).count();
        c.lines += entries.len();
        c.bytes += std::fs::metadata(&path).map_err(err)?.len();
    }
    Ok(c)
}

/// Run sweep `op` in a fresh directory under `ctx.dir`, check it, and
/// remove the directory; returns the sweep's time and its WAL counts.
fn checked_sweep(
    sweep: &Sweep,
    ctx: &mut Ctx,
    op: u64,
    traced: bool,
    ok: &mut bool,
) -> Result<(u64, WalCounts), String> {
    let dir = ctx.dir.join(format!("sweep-{op}"));
    std::fs::create_dir_all(&dir).map_err(err)?;
    let trace = traced.then_some((&mut ctx.spans, op));
    let (ns, results) = timed(|| sweep.run(&dir, trace));
    *ok &= results? == sweep.reference;
    let counts = wal_counts(&dir)?;
    *ok &= counts.submits == sweep.cells.len() && counts.dones == sweep.cells.len();
    std::fs::remove_dir_all(&dir).map_err(err)?;
    Ok((ns, counts))
}

/// The `fleet-sweep` workload.
pub fn run_sweeps(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let n = ctx.work(SWEEPS_PER_S);
    let sweep = Sweep::new(Sweep::plan(ctx.seed)?)?;
    let mut ok = true;
    checked_sweep(&sweep, ctx, u64::MAX, false, &mut ok)?; // warm-up, untimed
    let (mut setups, mut untraced, mut traced) =
        (Vec::with_capacity(n), Vec::with_capacity(n), Vec::new());
    let mut last = WalCounts::default();
    for i in 0..n as u64 {
        // Every `tune sweep` plans its cells before it sweeps them: that
        // planning is the set-up, timed once per sweep over the whole run.
        let (plan_ns, cells) = timed(|| Sweep::plan(ctx.seed));
        setups.push(plan_ns as f64 / 1e9);
        ok &= cells? == sweep.cells;
        let tracing = ctx.traces(i);
        let (ns, counts) = checked_sweep(&sweep, ctx, i, tracing, &mut ok)?;
        if tracing {
            traced.push(ns);
            last = counts;
        } else {
            untraced.push(ns);
        }
    }
    report.ops((n * sweep.cells.len()) as u64, 0);
    let what = format!("every plan and sweep of {} cells reproduces run_cell", sweep.cells.len());
    report.check(ok, &format!("{what}; each WAL set logs every job's submit and done"));
    if ctx.traced {
        sweep_layers(&ctx.spans, &last, sweep.cells.len(), report);
        let cover = ctx.spans.coverage("sweep");
        tracing_overhead(report, &traced, &untraced, cover);
        status_probe(ctx, report)?;
        in_process_probes(&sweep, ctx, report)?;
    } else {
        let jobs_per_s = (untraced.len() * sweep.cells.len()) as f64
            / (untraced.iter().sum::<u64>() as f64 / 1e9);
        end_to_end(report, &setups, &untraced, jobs_per_s);
    }
    Ok(())
}

/// Median time of every sweep stage, and the exact WAL volume per job.
fn sweep_layers(spans: &Spans, wal: &WalCounts, jobs: usize, report: &mut Report) {
    for stage in ["sweep.start", "sweep.submit", "sweep.drain", "sweep.collect", "sweep.stop"] {
        let ms = stats::median_ns(&spans.per_op_ns(stage)) as f64 / 1e6;
        report.metric(format!("{stage}_ms"), ms, "ms");
    }
    report.metric("wal.lines_per_job", wal.lines as f64 / jobs as f64, "count");
    report.metric("wal.bytes_per_job", wal.bytes as f64 / jobs as f64, "B");
}

/// The sweep layer metrics for another workload's traced run.
fn sweep_probe(ctx: &mut Ctx, report: &mut Report) -> Result<Sweep, String> {
    let sweep = Sweep::new(Sweep::plan(ctx.seed)?)?;
    let mut ok = true;
    let mut last = WalCounts::default();
    for p in 0..PROBE_SWEEPS as u64 {
        last = checked_sweep(&sweep, ctx, (1 << 52) + p, true, &mut ok)?.1;
    }
    report.ops((PROBE_SWEEPS * sweep.cells.len()) as u64, 0);
    report.check(ok, "traced sweeps reproduce run_cell bitwise and log every job");
    sweep_layers(&ctx.spans, &last, sweep.cells.len(), report);
    Ok(sweep)
}

// --- fleet-status -------------------------------------------------------

/// The `hpceval fleet smoke` batch: every preset evaluated, one
/// training run and one Green500 submission, seeded from `seed`.
fn smoke_batch(seed: u64) -> Vec<JobKind> {
    let mut jobs: Vec<JobKind> = ["xeon-e5462", "opteron-8347", "xeon-4870"]
        .iter()
        .enumerate()
        .map(|(k, server)| JobKind::Evaluate {
            server: server.to_string(),
            seed: seed.wrapping_add(k as u64),
        })
        .collect();
    jobs.push(JobKind::Train { server: "xeon-4870".to_string(), seed });
    jobs.push(JobKind::Green500 { server: "xeon-e5462".to_string() });
    jobs
}

/// A serving fleet holding the finished smoke batch, and the status
/// snapshot every call must return.
struct StatusFleet {
    live: LiveFleet,
    want: Vec<RemoteJob>,
}

impl StatusFleet {
    /// `fleet serve` twice and `fleet route`, then the CLI's `fleet
    /// submit` of the smoke batch and `fleet drain`.
    fn start(dir: &Path, seed: u64) -> Result<StatusFleet, String> {
        let wals: Vec<PathBuf> = (0..SHARDS).map(|s| dir.join(format!("shard{s}.wal"))).collect();
        let live = LiveFleet::start(&wals, &FleetConfig::default())?;
        live.client()?
            .submit_with_backoff(smoke_batch(seed), CLI_RETRIES)
            .map_err(err)?;
        let want = live.client()?.drain().map_err(err)?;
        Ok(StatusFleet { live, want })
    }

    fn settled(&self) -> bool {
        self.want.len() == smoke_batch(0).len() && self.want.iter().all(|j| j.state == "Done")
    }

    /// One `fleet status` invocation: connect, ask, disconnect.
    fn call(&self, trace: Option<(&mut Spans, u64)>) -> Result<Vec<RemoteJob>, String> {
        let Some((spans, op)) = trace else {
            let mut client = self.live.client()?;
            return client.status(None).map_err(err);
        };
        let id = spans.open("status", None, op);
        let root = Some(id);
        let mut client = spans.time("status.connect", root, op, || self.live.client())?;
        let jobs = spans.time("status.call", root, op, || client.status(None)).map_err(err);
        spans.time("status.close", root, op, || drop(client));
        spans.close(id);
        jobs
    }

    /// `calls` status calls, traced where `traces` says; returns the
    /// traced and untraced latencies and whether every answer matched.
    fn poll(
        &self,
        calls: usize,
        spans: &mut Spans,
        traces: impl Fn(u64) -> bool,
    ) -> Result<(Vec<u64>, Vec<u64>, bool), String> {
        let (mut traced, mut untraced, mut ok) = (Vec::new(), Vec::with_capacity(calls), true);
        for i in 0..calls as u64 {
            let tracing = traces(i);
            let (ns, jobs) = timed(|| self.call(tracing.then_some((&mut *spans, i))));
            ok &= jobs? == self.want;
            (if tracing { &mut traced } else { &mut untraced }).push(ns);
        }
        Ok((traced, untraced, ok))
    }

    fn stop(self) -> Result<(), String> {
        let mut client = self.live.client()?;
        self.live.stop(&mut client)
    }
}

/// The `fleet-status` workload.
pub fn run_status(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let calls = ctx.work(CALLS_PER_S);
    let mut setups = Vec::with_capacity(STATUS_SETUP_REPEATS);
    let mut ready: Option<StatusFleet> = None;
    for r in 0..STATUS_SETUP_REPEATS {
        if let Some(previous) = ready.take() {
            previous.stop()?;
        }
        let dir = ctx.dir.join(format!("status-{r}"));
        std::fs::create_dir_all(&dir).map_err(err)?;
        let (ns, fleet) = timed(|| StatusFleet::start(&dir, ctx.seed));
        setups.push(ns as f64 / 1e9);
        ready = Some(fleet?);
    }
    let fleet = ready.expect("STATUS_SETUP_REPEATS ≥ 1");
    report.check(fleet.settled(), "the smoke batch's 5 jobs end Done");
    let (_, _, warm_ok) = fleet.poll(WARMUP_CALLS, &mut ctx.spans, |_| false)?;
    let started = Instant::now();
    let tracing = ctx.traced;
    let (traced, untraced, ok) =
        fleet.poll(calls, &mut ctx.spans, |i| tracing && crate::traced_op(i))?;
    let loop_s = started.elapsed().as_secs_f64();
    report.ops((WARMUP_CALLS + calls) as u64, 0);
    report.check(warm_ok && ok, "every status call returns the drained snapshot");
    if ctx.traced {
        status_layers(&fleet, &ctx.spans, report)?;
        let cover = ctx.spans.coverage("status");
        tracing_overhead(report, &traced, &untraced, cover);
        fleet.stop()?;
        let sweep = sweep_probe(ctx, report)?;
        in_process_probes(&sweep, ctx, report)?;
    } else {
        fleet.stop()?;
        end_to_end(report, &setups, &untraced, calls as f64 / loop_s);
    }
    Ok(())
}

/// The status call's stages from the spans, and the request path's
/// layers timed in process against `fleet`: the router's fan-out, one
/// shard pool, a shard's own `status` and the codec.
fn status_layers(fleet: &StatusFleet, spans: &Spans, report: &mut Report) -> Result<(), String> {
    for (span, metric) in
        [("status.connect", "status.connect_us"), ("status.call", "status.call_us")]
    {
        report.metric(metric, median_us(&spans.per_op_ns(span)), "us");
    }
    let live = &fleet.live;
    let mut ok = true;
    let mut router: Vec<u64> = (0..PROBE_SAMPLES)
        .map(|_| {
            let (ns, jobs) = timed(|| live.router.status(None));
            ok &= jobs.is_ok_and(|j| j == fleet.want);
            ns
        })
        .collect();
    router.sort_unstable();
    report.metric("router.status_p50_us", stats::percentile(&router, 500) as f64 / 1e3, "us");
    report.metric("router.status_p99_us", stats::percentile(&router, 990) as f64 / 1e3, "us");
    let pool = ShardPool::connect(&live.shard_addrs[0], PoolConfig::default()).map_err(err)?;
    let shard0 = live.shards[0].status(None).len();
    let request = Request::Status { job: None };
    let pooled: Vec<u64> = (0..PROBE_SAMPLES)
        .map(|_| {
            let (ns, v) = timed(|| pool.call(&request));
            let jobs = v.ok().and_then(|v| Some(v.get("jobs")?.as_seq()?.len()));
            ok &= jobs == Some(shard0);
            ns
        })
        .collect();
    drop(pool);
    report.metric("pool.status_us", median_us(&pooled), "us");
    let daemon: Vec<u64> = (0..PROBE_SAMPLES)
        .map(|_| timed(|| black_box(live.shards[0].status(None))).0)
        .collect();
    report.metric("daemon.status_us", median_us(&daemon), "us");
    let envelope_us = wire_probe(&live.shards[0], &mut ok)?;
    report.metric("wire.envelope_us", envelope_us, "us");
    report.ops((3 * PROBE_SAMPLES + WIRE_BATCHES * WIRE_BATCH) as u64, 0);
    report.check(ok, "router, pool and codec probes return the fleet's jobs");
    Ok(())
}

/// Median µs of one status round through the codec: the client encodes
/// the request envelope, the server decodes it and tags its response
/// (the shard's jobs), and the client decodes the tagged response.
fn wire_probe(shard: &Fleet, ok: &mut bool) -> Result<f64, String> {
    let jobs = shard.status(None).iter().map(Serialize::to_value).collect();
    let body = wire::ok_response(vec![("jobs".to_string(), Value::Seq(jobs))]).map_err(err)?;
    let request = Request::Status { job: None };
    let mut batches = Vec::with_capacity(WIRE_BATCHES);
    for b in 0..WIRE_BATCHES {
        let (ns, ()) = timed(|| {
            for i in 0..WIRE_BATCH {
                let id = (b * WIRE_BATCH + i) as u64;
                let round = || -> Option<bool> {
                    let frame = wire::encode_envelope(id, &request).ok()?;
                    let (got, parsed) = wire::decode_envelope(&frame).ok()?;
                    black_box(parsed.ok()?);
                    let (tag, resp) =
                        wire::decode_tagged_response(&wire::attach_id(got, &body)).ok()?;
                    Some(tag == Some(id) && resp.is_ok())
                };
                *ok &= round() == Some(true);
            }
        });
        batches.push(ns / WIRE_BATCH as u64);
    }
    Ok(median_us(&batches))
}

/// The status layer metrics for another workload's traced run.
fn status_probe(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let dir = ctx.dir.join("status-probe");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let fleet = StatusFleet::start(&dir, ctx.seed)?;
    let (_, _, warm_ok) = fleet.poll(WARMUP_CALLS, &mut ctx.spans, |_| false)?;
    let (_, _, ok) = fleet.poll(PROBE_CALLS, &mut ctx.spans, |_| true)?;
    report.ops((WARMUP_CALLS + PROBE_CALLS) as u64, 0);
    report.check(fleet.settled() && warm_ok && ok, "traced status calls return the snapshot");
    status_layers(&fleet, &ctx.spans, report)?;
    fleet.stop()
}

// --- WAL and runner -------------------------------------------------------

/// WAL appends and runner attempts of `sweep`'s jobs, in process.
fn in_process_probes(sweep: &Sweep, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut runner = Vec::with_capacity(RUNNER_PROBES);
    let mut entries = Vec::new();
    for cell in sweep.cells.iter().cycle().take(RUNNER_PROBES) {
        let kind = cell_to_job(cell);
        let spec = presets::by_name(kind.server()).ok_or("a cell names an unknown preset")?;
        let mut rows = Vec::new();
        let (ns, outcome) = timed(|| {
            run_attempt(&kind, &spec, &[], &[], AttemptFaults::NONE, |row, data, suspect| {
                rows.push(WalEntry::Checkpoint { job: 0, row, suspect, data: data.clone() });
            })
        });
        let AttemptOutcome::Completed { result } = outcome else {
            return Err(format!("a fault-free tune attempt ended {outcome:?}"));
        };
        runner.push(ns);
        if entries.is_empty() {
            // The lines the daemon logs for one job, in order.
            entries.push(WalEntry::Submit { job: 0, kind: kind.clone() });
            entries.push(WalEntry::Claim { job: 0, attempt: 1, node: 0 });
            entries.append(&mut rows);
            entries.push(WalEntry::Done { job: 0, state: JobState::Done, result: Some(result) });
        }
    }
    report.metric("runner.tune_us", median_us(&runner), "us");
    let mut writer = WalWriter::open(&ctx.dir.join("probe-append.wal")).map_err(err)?;
    let mut appends = Vec::with_capacity(PROBE_SAMPLES);
    for e in entries.iter().cycle().take(PROBE_SAMPLES.next_multiple_of(entries.len())) {
        let (ns, out) = timed(|| writer.append(e));
        out.map_err(err)?;
        appends.push(ns);
    }
    appends.sort_unstable();
    report.metric("wal.append_p50_us", stats::percentile(&appends, 500) as f64 / 1e3, "us");
    report.metric("wal.append_p99_us", stats::percentile(&appends, 990) as f64 / 1e3, "us");
    report.ops((RUNNER_PROBES + appends.len()) as u64, 0);
    Ok(())
}

/// The fleet layer metrics for a non-fleet workload's traced run.
pub fn probe(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    status_probe(ctx, report)?;
    let sweep = sweep_probe(ctx, report)?;
    in_process_probes(&sweep, ctx, report)
}
