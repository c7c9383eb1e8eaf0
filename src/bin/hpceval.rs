//! `hpceval` — command-line driver for the power evaluation method.
//!
//! ```text
//! hpceval servers                     list the built-in server presets
//! hpceval evaluate <server>           run the five-state evaluation
//! hpceval green500 <server>           peak-HPL PPW (the Green500 method)
//! hpceval specpower <server>          graduated-load ssj_ops/W
//! hpceval rankings                    all three methods on all presets
//! hpceval study <server>              §IV power study (Fig 3/4 series)
//! hpceval train [seed]                §VI regression on the Xeon-4870
//! hpceval monitor <server> [seed]     streaming monitor with fault injection
//! hpceval verify                      run every kernel's verification
//! hpceval trace capture|replay|stats  address-trace capture and replay (JSON)
//! hpceval fleet serve|route|submit|status|drain|shutdown|smoke
//!                                     fault-tolerant orchestration daemon
//! hpceval tune sweep|frontier|report|smoke
//!                                     DVFS energy-optimal autotuner (JSON)
//! ```
//!
//! Unknown subcommands and malformed flags print usage and exit
//! non-zero (pinned by `tests/cli.rs`).

use std::process::ExitCode;

use hpceval::core::evaluation::Evaluator;
use hpceval::core::motivation::power_study;
use hpceval::core::rankings::{compare, green500_score, specpower_score};
use hpceval::core::regression_experiment::run_experiment;
use hpceval::kernels::hpcc;
use hpceval::kernels::hpl::HplConfig;
use hpceval::kernels::npb::ep::Ep;
use hpceval::kernels::npb::{Class, Program};
use hpceval::kernels::suite::Benchmark;
use hpceval::machine::presets;
use hpceval::machine::spec::ServerSpec;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("servers") => servers(),
        Some("evaluate") => with_server(&args, evaluate),
        Some("green500") => with_server(&args, |s| {
            println!(
                "{}: Green500-style peak-HPL PPW = {:.4} GFLOPS/W",
                s.name,
                green500_score(&s)
            );
            ExitCode::SUCCESS
        }),
        Some("specpower") => with_server(&args, |s| {
            println!("{}: SPECpower-style score = {:.1} ssj_ops/W", s.name, specpower_score(&s));
            ExitCode::SUCCESS
        }),
        Some("rankings") => rankings(),
        Some("report") => with_server(&args, |s| {
            print!("{}", hpceval::core::report::markdown_report(&s));
            ExitCode::SUCCESS
        }),
        Some("cluster") => with_server(&args, cluster),
        Some("study") => with_server(&args, study),
        Some("train") => with_seed(args.get(1), train),
        Some("monitor") => with_server(&args, |s| with_seed(args.get(2), |seed| monitor(s, seed))),
        Some("verify") => verify(),
        Some("trace") => trace_cmd(&args[1..]),
        Some("fleet") => fleet_cmd(&args[1..]),
        Some("tune") => tune_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: hpceval <servers|evaluate|green500|specpower|rankings|study|train|monitor|report|cluster|verify|trace|fleet|tune> [server|seed]"
            );
            eprintln!(
                "  monitor <server> [seed]: stream three simulated copies of <server> (one clean,\n\
                 \x20 one with meter dropout, one with a clock step) through the telemetry\n\
                 \x20 collector; prints live windowed power, the online RLS power-model\n\
                 \x20 coefficients, and every detected anomaly."
            );
            ExitCode::FAILURE
        }
    }
}

fn with_server(args: &[String], f: impl Fn(ServerSpec) -> ExitCode) -> ExitCode {
    let Some(name) = args.get(1) else {
        eprintln!("expected a server name; try `hpceval servers`");
        return ExitCode::FAILURE;
    };
    match presets::by_name(name) {
        Some(spec) => f(spec),
        None => {
            eprintln!("unknown server {name:?}; try `hpceval servers`");
            ExitCode::FAILURE
        }
    }
}

/// Run `f` with the seed argument (42 when absent); a malformed seed is
/// an error, never a silent default.
fn with_seed(raw: Option<&String>, f: impl FnOnce(u64) -> ExitCode) -> ExitCode {
    match raw.map(|raw| raw.parse().map_err(|_| raw)) {
        None => f(42),
        Some(Ok(seed)) => f(seed),
        Some(Err(raw)) => {
            eprintln!("seed must be an integer, got {raw:?}");
            ExitCode::FAILURE
        }
    }
}

fn servers() -> ExitCode {
    println!(
        "{:<14} {:>6} {:>10} {:>14} {:>10}",
        "Name", "Cores", "Freq(MHz)", "Peak(GFLOPS)", "Mem(GiB)"
    );
    for s in presets::all_servers() {
        println!(
            "{:<14} {:>6} {:>10} {:>14.1} {:>10}",
            s.name,
            s.total_cores(),
            s.freq_mhz,
            s.peak_gflops(),
            s.memory_gib
        );
    }
    ExitCode::SUCCESS
}

fn evaluate(spec: ServerSpec) -> ExitCode {
    let table = Evaluator::new(spec).run();
    print!("{}", table.render());
    ExitCode::SUCCESS
}

fn cluster(spec: ServerSpec) -> ExitCode {
    use hpceval::core::cluster::{score_cluster_sizes, Interconnect};
    println!("cluster scaling of {} nodes over gigabit ethernet:", spec.name);
    println!(
        "{:>6} {:>14} {:>12} {:>12} {:>12}",
        "Nodes", "HPL(GFLOPS)", "Power(W)", "G500 PPW", "5-state PPW"
    );
    for s in score_cluster_sizes(&spec, Interconnect::gigabit_ethernet(), &[1, 2, 4, 8, 16, 32]) {
        println!(
            "{:>6} {:>14.1} {:>12.1} {:>12.4} {:>12.4}",
            s.nodes, s.hpl_gflops, s.hpl_power_w, s.green500_ppw, s.five_state_ppw
        );
    }
    ExitCode::SUCCESS
}

fn rankings() -> ExitCode {
    print!("{}", compare(&presets::all_servers()).render());
    ExitCode::SUCCESS
}

fn study(spec: ServerSpec) -> ExitCode {
    print!("{}", power_study(&spec, Class::C).render());
    ExitCode::SUCCESS
}

fn train(seed: u64) -> ExitCode {
    let spec = presets::xeon_4870();
    let Some(exp) = run_experiment(&spec, seed) else {
        eprintln!("training failed: degenerate sample set");
        return ExitCode::FAILURE;
    };
    let s = exp.model.summary();
    println!("trained on {} HPCC observations (seed {seed})", exp.observations);
    println!(
        "  R² {:.4}  adjusted {:.4}  std err {:.4}",
        s.r_square, s.adjusted_r_square, s.standard_error
    );
    println!("  coefficients (normalized): {:?}", exp.model.coefficients());
    println!("validation: NPB-B R² {:.4}, NPB-C R² {:.4}", exp.npb_b.r2, exp.npb_c.r2);
    ExitCode::SUCCESS
}

fn monitor(spec: ServerSpec, seed: u64) -> ExitCode {
    use hpceval::telemetry::{LiveServer, Monitor, SampleSource};

    let full = spec.total_cores();
    let schedule = vec![
        ("ep.C.1".to_string(), Ep::new(Class::C).signature(), 1),
        (format!("ep.C.{full}"), Ep::new(Class::C).signature(), full),
        (
            format!("HPL P{full}"),
            HplConfig::for_memory_fraction(&spec, 0.92, full).signature(),
            full,
        ),
    ];
    let sources: Vec<Box<dyn SampleSource>> = vec![
        Box::new(LiveServer::new(0, format!("{}/clean", spec.name), &spec, &schedule, seed)),
        Box::new(
            LiveServer::new(
                1,
                format!("{}/dropout", spec.name),
                &spec,
                &schedule,
                seed.wrapping_add(1),
            )
            .with_dropout(0.05),
        ),
        Box::new(
            LiveServer::new(
                2,
                format!("{}/clock-step", spec.name),
                &spec,
                &schedule,
                seed.wrapping_add(2),
            )
            .with_clock_jump(90.0, -6.0),
        ),
    ];
    println!(
        "streaming {} programs on 3 copies of {} (seed {seed}; dropout + clock-step injected)",
        schedule.len(),
        spec.name
    );
    let report = Monitor.run_with(sources, |line| println!("{line}"));
    print!("{}", report.render());
    // Injections that go undetected are a monitor failure, not a pass.
    let skew_seen = report.servers[2].stats.clock_skew_rejects > 0;
    let dropout_seen = report.servers[1].stats.dropout_events > 0;
    if skew_seen && dropout_seen {
        ExitCode::SUCCESS
    } else {
        eprintln!("injected faults were not detected (skew {skew_seen}, dropout {dropout_seen})");
        ExitCode::FAILURE
    }
}

const TRACE_USAGE: &str = "\
usage: hpceval trace <capture|replay|stats> [flags]
  capture <kernel>  capture the kernel's address trace; print a JSON summary
  replay  <kernel>  [--server NAME]
                    capture, then replay through the server's miniaturized
                    hierarchy; print replayed counters and the measured
                    locality profile as JSON
  stats             [--server NAME] [--seed N]
                    run the full trace-driven regression experiment (N is
                    the regression seed); print per-kernel profiles and
                    the R² triple as JSON
  kernels: dgemm stream cg mg is randomaccess ft hpl ep sp bt lu";

fn trace_usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{TRACE_USAGE}");
    ExitCode::FAILURE
}

fn trace_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("capture") => trace_capture(&args[1..]),
        Some("replay") => trace_replay(&args[1..]),
        Some("stats") => trace_stats(&args[1..]),
        Some(other) => trace_usage_error(&format!("unknown trace subcommand {other:?}")),
        None => trace_usage_error("missing trace subcommand"),
    }
}

/// The one positional `<kernel>` argument as a trace region.
fn trace_region(positional: &[&str]) -> Result<hpceval::trace::Region, String> {
    match positional {
        [] => Err("expected a kernel name".to_string()),
        [name] => hpceval::trace::Region::parse(name).ok_or(format!("unknown kernel {name:?}")),
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

/// The `--server` flag as a spec (default: the Xeon-4870, the paper's
/// regression testbed).
fn trace_server(flags: &[(&str, &str)]) -> Result<ServerSpec, String> {
    match flag(flags, "server") {
        None => Ok(presets::xeon_4870()),
        Some(name) => presets::by_name(name).ok_or(format!("unknown server {name:?}")),
    }
}

fn json_locality(p: &hpceval::machine::workload::LocalityProfile) -> String {
    format!(
        "{{\"l1_hit\":{},\"l2_hit\":{},\"l3_hit\":{},\"mem\":{},\"write_fraction\":{}}}",
        p.l1_hit, p.l2_hit, p.l3_hit, p.mem, p.write_fraction
    )
}

fn trace_capture(args: &[String]) -> ExitCode {
    let result = (|| -> Result<String, String> {
        let (_, positional) = parse_flags(args, &[])?;
        let region = trace_region(&positional)?;
        let trace = hpceval::core::trace_experiment::capture_kernel(region, Default::default())
            .ok_or("capture produced no trace")?;
        let (reads, writes) = trace.access_split();
        Ok(format!(
            "{{\"kernel\":\"{}\",\"chunks\":{},\"events\":{},\"accesses\":{},\
             \"reads\":{},\"writes\":{},\"dropped\":{},\"encoded_bytes\":{}}}",
            region.name(),
            trace.chunk_count(),
            trace.total_events(),
            trace.total_accesses(),
            reads,
            writes,
            trace.dropped,
            trace.bytes().len(),
        ))
    })();
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => trace_usage_error(&e),
    }
}

fn trace_replay(args: &[String]) -> ExitCode {
    use hpceval::core::trace_experiment::{analytic_locality, capture_kernel, replay_options};
    let result = (|| -> Result<String, String> {
        let (flags, positional) = parse_flags(args, &["server"])?;
        let region = trace_region(&positional)?;
        let spec = trace_server(&flags)?;
        let trace =
            capture_kernel(region, Default::default()).ok_or("capture produced no trace")?;
        let opts = replay_options(region);
        let counters = hpceval::trace::replay(&trace, &spec, opts);
        let measured = counters.locality_profile(&analytic_locality(region));
        Ok(format!(
            "{{\"kernel\":\"{}\",\"server\":\"{}\",\"cache_scale\":{},\
             \"accesses\":{},\"l1_hits\":{},\"l2_hits\":{},\"l3_hits\":{},\
             \"mem_reads\":{},\"mem_writes\":{},\"hit_ratio\":{},\
             \"measured\":{},\"analytic\":{}}}",
            region.name(),
            spec.name,
            opts.cache_scale,
            counters.accesses,
            counters.l1_hits,
            counters.l2_hits,
            counters.l3_hits,
            counters.mem_reads,
            counters.mem_writes,
            counters.hit_ratio(),
            json_locality(&measured),
            json_locality(&analytic_locality(region)),
        ))
    })();
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => trace_usage_error(&e),
    }
}

fn trace_stats(args: &[String]) -> ExitCode {
    use hpceval::core::trace_experiment::run_trace_experiment;
    let parsed = (|| -> Result<(ServerSpec, u64), String> {
        let (flags, positional) = parse_flags(args, &["server", "seed"])?;
        if let Some(extra) = positional.first() {
            return Err(format!("unexpected argument {extra:?}"));
        }
        Ok((trace_server(&flags)?, parse_flag(&flags, "seed", 42u64)?))
    })();
    let (spec, seed) = match parsed {
        Ok(p) => p,
        Err(e) => return trace_usage_error(&e),
    };
    let Some(exp) = run_trace_experiment(&spec, Default::default(), seed) else {
        eprintln!("trace-driven training failed (degenerate sample set)");
        return ExitCode::FAILURE;
    };
    let kernels = exp
        .localities
        .captures
        .iter()
        .map(|c| {
            format!(
                "{{\"kernel\":\"{}\",\"events\":{},\"accesses\":{},\"dropped\":{},\
                 \"hit_ratio\":{},\"measured\":{}}}",
                c.kernel,
                c.events,
                c.accesses,
                c.dropped,
                c.hit_ratio,
                json_locality(&c.locality)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let s = exp.experiment.model.summary();
    println!(
        "{{\"server\":\"{}\",\"seed\":{},\"observations\":{},\
         \"kernels\":[{kernels}],\
         \"train_r2\":{},\"npb_b_r2\":{},\"npb_c_r2\":{}}}",
        spec.name,
        seed,
        exp.experiment.observations,
        s.r_square,
        exp.experiment.npb_b.r2,
        exp.experiment.npb_c.r2,
    );
    ExitCode::SUCCESS
}

const FLEET_USAGE: &str = "\
usage: hpceval fleet <serve|route|submit|status|drain|shutdown|smoke> [flags]
  serve    --wal <path> [--addr HOST:PORT] [--workers N] [--queue-cap N]
           [--max-attempts N] [--crash-p X] [--straggler-p X]
           [--dropout-p X] [--fault-seed N]
  route    --shards ADDR[,ADDR...] [--addr HOST:PORT]
           fan-out router over running shard daemons (shard order is
           baked into global job ids — keep it stable across restarts)
  submit   [--addr HOST:PORT] <kind>:<server>[:<seed>] ...
           kinds: evaluate green500 specpower train report
  status   [--addr HOST:PORT] [--job N]
  drain    [--addr HOST:PORT]
  shutdown [--addr HOST:PORT]
  smoke    [--seed N]   self-contained daemon smoke test (CI entry point)";

const DEFAULT_ADDR: &str = "127.0.0.1:7621";
const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:7620";

/// `(--key, value)` pairs plus the leftover positional arguments.
type ParsedArgs<'a> = (Vec<(&'a str, &'a str)>, Vec<&'a str>);

/// `--key value` flag scanner; rejects unknown flags so typos fail
/// loudly instead of being silently ignored.
fn parse_flags<'a>(args: &'a [String], known: &[&str]) -> Result<ParsedArgs<'a>, String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if !known.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{key} needs a value"));
            };
            flags.push((key, value.as_str()));
        } else {
            positional.push(arg.as_str());
        }
    }
    Ok((flags, positional))
}

fn flag<'a>(flags: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn parse_flag<T: std::str::FromStr>(
    flags: &[(&str, &str)],
    key: &str,
    default: T,
) -> Result<T, String> {
    match flag(flags, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad value {raw:?} for --{key}")),
    }
}

fn fleet_usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{FLEET_USAGE}");
    ExitCode::FAILURE
}

fn fleet_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("serve") => fleet_serve(&args[1..]),
        Some("route") => fleet_route(&args[1..]),
        Some("submit") => fleet_submit(&args[1..]),
        Some("status") => fleet_status(&args[1..]),
        Some("drain") => fleet_drain(&args[1..]),
        Some("shutdown") => fleet_shutdown(&args[1..]),
        Some("smoke") => fleet_smoke(&args[1..]),
        Some(other) => fleet_usage_error(&format!("unknown fleet subcommand {other:?}")),
        None => fleet_usage_error("missing fleet subcommand"),
    }
}

fn fleet_serve(args: &[String]) -> ExitCode {
    use hpceval::fleet::{FaultPlan, Fleet, FleetConfig, Registry};

    let parsed = parse_flags(
        args,
        &[
            "wal",
            "addr",
            "workers",
            "queue-cap",
            "max-attempts",
            "crash-p",
            "straggler-p",
            "dropout-p",
            "fault-seed",
        ],
    );
    let (flags, positional) = match parsed {
        Ok(p) => p,
        Err(e) => return fleet_usage_error(&e),
    };
    if !positional.is_empty() {
        return fleet_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let Some(wal) = flag(&flags, "wal") else {
        return fleet_usage_error("serve requires --wal <path>");
    };
    let addr = flag(&flags, "addr").unwrap_or(DEFAULT_ADDR);
    let config = match (|| -> Result<FleetConfig, String> {
        Ok(FleetConfig {
            workers: parse_flag(&flags, "workers", 0)?,
            queue_cap: parse_flag(&flags, "queue-cap", 256)?,
            max_attempts: parse_flag(&flags, "max-attempts", 4)?,
            faults: FaultPlan {
                crash_p: parse_flag(&flags, "crash-p", 0.0)?,
                straggler_p: parse_flag(&flags, "straggler-p", 0.0)?,
                dropout_p: parse_flag(&flags, "dropout-p", 0.0)?,
                seed: parse_flag(&flags, "fault-seed", 0)?,
            },
            ..FleetConfig::default()
        })
    })() {
        Ok(c) => c,
        Err(e) => return fleet_usage_error(&e),
    };

    let fleet = match Fleet::open(config, Registry::with_presets(), std::path::Path::new(wal)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let restored = fleet.status(None).len();
    println!(
        "fleet daemon listening on {} ({restored} job(s) restored from WAL)",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string())
    );
    let scheduler = fleet.start_scheduler();
    let result = fleet.serve(listener);
    scheduler.join().expect("scheduler thread");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fleet_route(args: &[String]) -> ExitCode {
    use hpceval::fleet::Router;

    let (flags, positional) = match parse_flags(args, &["shards", "addr"]) {
        Ok(p) => p,
        Err(e) => return fleet_usage_error(&e),
    };
    if !positional.is_empty() {
        return fleet_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let Some(shards) = flag(&flags, "shards") else {
        return fleet_usage_error("route requires --shards ADDR[,ADDR...]");
    };
    let shard_addrs: Vec<&str> = shards.split(',').filter(|s| !s.is_empty()).collect();
    if shard_addrs.is_empty() {
        return fleet_usage_error("--shards needs at least one daemon address");
    }
    let addr = flag(&flags, "addr").unwrap_or(DEFAULT_ROUTER_ADDR);
    let router = match Router::connect(&shard_addrs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot connect to shards: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fleet router listening on {} over {} shard(s)",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string()),
        router.shard_count()
    );
    match router.serve(listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("router error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `kind:server[:seed]` job specs.
fn parse_job_specs(specs: &[&str]) -> Result<Vec<hpceval::fleet::JobKind>, String> {
    use hpceval::fleet::JobKind;
    if specs.is_empty() {
        return Err("submit needs at least one <kind>:<server>[:<seed>] spec".to_string());
    }
    specs
        .iter()
        .map(|spec| {
            let mut parts = spec.splitn(3, ':');
            let kind = parts.next().unwrap_or_default();
            let server =
                parts.next().ok_or_else(|| format!("{spec:?} lacks a server name"))?.to_string();
            let seed = match parts.next() {
                None => 42,
                Some(raw) => raw.parse().map_err(|_| format!("bad seed {raw:?} in {spec:?}"))?,
            };
            match kind {
                "evaluate" => Ok(JobKind::Evaluate { server, seed }),
                "green500" => Ok(JobKind::Green500 { server }),
                "specpower" => Ok(JobKind::Specpower { server }),
                "train" => Ok(JobKind::Train { server, seed }),
                "report" => Ok(JobKind::Report { server }),
                other => Err(format!("unknown job kind {other:?} in {spec:?}")),
            }
        })
        .collect()
}

fn connect(flags: &[(&str, &str)]) -> Result<hpceval::fleet::FleetClient, ExitCode> {
    let addr = flag(flags, "addr").unwrap_or(DEFAULT_ADDR);
    hpceval::fleet::FleetClient::connect(addr).map_err(|e| {
        eprintln!("cannot reach fleet daemon at {addr}: {e}");
        ExitCode::FAILURE
    })
}

fn print_jobs(jobs: &[hpceval::fleet::RemoteJob]) {
    println!(
        "{:>5} {:<10} {:<14} {:<9} {:>8} {:>7} {:>10}  notes",
        "Job", "Kind", "Server", "State", "Rows", "Tries", "Score"
    );
    for j in jobs {
        let score = j.score.map_or_else(|| "-".to_string(), |s| format!("{s:.4}"));
        println!(
            "{:>5} {:<10} {:<14} {:<9} {:>5}/{:<2} {:>7} {:>10}  {}",
            j.id,
            j.kind,
            j.server,
            j.state,
            j.rows_done,
            j.total_steps,
            j.attempts,
            score,
            j.notes.join("; ")
        );
    }
}

fn fleet_submit(args: &[String]) -> ExitCode {
    let (flags, positional) = match parse_flags(args, &["addr"]) {
        Ok(p) => p,
        Err(e) => return fleet_usage_error(&e),
    };
    let jobs = match parse_job_specs(&positional) {
        Ok(j) => j,
        Err(e) => return fleet_usage_error(&e),
    };
    let mut client = match connect(&flags) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.submit_with_backoff(jobs, 10) {
        Ok(ids) => {
            println!(
                "accepted {} job(s): {}",
                ids.len(),
                ids.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fleet_status(args: &[String]) -> ExitCode {
    let (flags, positional) = match parse_flags(args, &["addr", "job"]) {
        Ok(p) => p,
        Err(e) => return fleet_usage_error(&e),
    };
    if !positional.is_empty() {
        return fleet_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let job = match flag(&flags, "job").map(str::parse).transpose() {
        Ok(j) => j,
        Err(_) => return fleet_usage_error("--job takes a numeric id"),
    };
    let mut client = match connect(&flags) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.status(job) {
        Ok(jobs) => {
            print_jobs(&jobs);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("status failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fleet_drain(args: &[String]) -> ExitCode {
    let (flags, positional) = match parse_flags(args, &["addr"]) {
        Ok(p) => p,
        Err(e) => return fleet_usage_error(&e),
    };
    if !positional.is_empty() {
        return fleet_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let mut client = match connect(&flags) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.drain() {
        Ok(jobs) => {
            print_jobs(&jobs);
            let failed = jobs.iter().filter(|j| j.state == "Failed").count();
            let degraded = jobs.iter().filter(|j| j.state == "Degraded").count();
            println!("drained: {} job(s), {} degraded, {} failed", jobs.len(), degraded, failed);
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("drain failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fleet_shutdown(args: &[String]) -> ExitCode {
    let (flags, positional) = match parse_flags(args, &["addr"]) {
        Ok(p) => p,
        Err(e) => return fleet_usage_error(&e),
    };
    if !positional.is_empty() {
        return fleet_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let mut client = match connect(&flags) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.shutdown() {
        Ok(()) => {
            println!("daemon stopping");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Self-contained smoke test: daemon on an ephemeral port, evaluate +
/// train submitted over TCP, one node crash injected, queue drained;
/// success iff every job ends Done or Degraded. This is the CI entry
/// point for the fleet matrix job.
fn fleet_smoke(args: &[String]) -> ExitCode {
    use hpceval::fleet::{EventKind, FaultPlan, Fleet, FleetClient, FleetConfig, Registry};

    let (flags, positional) = match parse_flags(args, &["seed"]) {
        Ok(p) => p,
        Err(e) => return fleet_usage_error(&e),
    };
    if !positional.is_empty() {
        return fleet_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let seed = match parse_flag(&flags, "seed", 2015u64) {
        Ok(s) => s,
        Err(e) => return fleet_usage_error(&e),
    };

    let wal = std::env::temp_dir().join(format!("hpceval-smoke-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let config = FleetConfig {
        max_attempts: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        crash_holdoff_ms: 2,
        // High enough that this seeded run provably injects a crash.
        faults: FaultPlan { crash_p: 0.35, straggler_p: 0.2, dropout_p: 0.1, seed },
        ..FleetConfig::default()
    };
    let fleet = match Fleet::open(config, Registry::with_presets(), &wal) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("smoke: cannot open fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("smoke: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener.local_addr().expect("bound socket has an address");
    let scheduler = fleet.start_scheduler();
    let server = {
        let fleet = std::sync::Arc::clone(&fleet);
        std::thread::spawn(move || fleet.serve(listener))
    };

    let outcome = (|| -> Result<Vec<hpceval::fleet::RemoteJob>, hpceval::fleet::FleetError> {
        let mut client = FleetClient::connect(addr)?;
        client.ping()?;
        let mut jobs = Vec::new();
        for (k, name) in ["xeon-e5462", "opteron-8347", "xeon-4870"].iter().enumerate() {
            jobs.push(hpceval::fleet::JobKind::Evaluate {
                server: (*name).to_string(),
                seed: seed + k as u64,
            });
        }
        jobs.push(hpceval::fleet::JobKind::Train { server: "xeon-4870".to_string(), seed });
        jobs.push(hpceval::fleet::JobKind::Green500 { server: "xeon-e5462".to_string() });
        client.submit_with_backoff(jobs, 20)?;
        client.drain()
    })();

    let crashes = fleet.event_count(EventKind::NodeCrashed);
    // Tear the daemon down regardless of the verdict.
    fleet.request_shutdown();
    scheduler.join().expect("scheduler thread");
    let _ = server.join().expect("server thread");
    let _ = std::fs::remove_file(&wal);

    let jobs = match outcome {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("smoke: client error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_jobs(&jobs);
    let bad: Vec<_> = jobs.iter().filter(|j| j.state != "Done" && j.state != "Degraded").collect();
    println!(
        "smoke: {} job(s) drained, {} node crash(es) injected, {} degraded",
        jobs.len(),
        crashes,
        jobs.iter().filter(|j| j.state == "Degraded").count()
    );
    if jobs.len() == 5 && bad.is_empty() && crashes > 0 {
        println!("smoke: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: FAILED (crashes={crashes}, non-terminal/failed jobs: {bad:?})");
        ExitCode::FAILURE
    }
}

const TUNE_USAGE: &str = "\
usage: hpceval tune <sweep|frontier|report|smoke> [flags]
  sweep    [--servers A,B] [--kernels a,b] [--seed N] [--max-states N]
           [--shards N] [--crash-p X] [--straggler-p X] [--dropout-p X]
           [--fault-seed N] [--check BENCH_tune.json] [--tolerance X]
           run every planned DVFS cell as a WAL-backed fleet job through
           the sharded router; print the strict-JSON report and
           optionally drift-check it against a committed baseline
  frontier [--servers A,B] [--kernels a,b] [--seed N] [--max-states N]
           measure the cells in-process and print each server's §V
           score with its per-kernel energy-delay Pareto frontiers
  report   [--servers A,B] [--kernels a,b] [--seed N] [--max-states N]
           [--check BENCH_tune.json] [--tolerance X]
           measure in-process and print the full report JSON (the
           regeneration path for BENCH_tune.json)
  smoke    [--shards N]   tiny fault-injected sweep (two kernels, two
           DVFS states) cross-checked bitwise against the in-process
           measurement; the CI entry point for the tune matrix job
  --servers/--kernels default to the three paper presets and the full
  NPB + HPCC catalog; --max-states 0 sweeps every DVFS state";

fn tune_usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{TUNE_USAGE}");
    ExitCode::FAILURE
}

fn tune_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("sweep") => tune_sweep(&args[1..]),
        Some("frontier") => tune_frontier(&args[1..]),
        Some("report") => tune_report(&args[1..]),
        Some("smoke") => tune_smoke(&args[1..]),
        Some(other) => tune_usage_error(&format!("unknown tune subcommand {other:?}")),
        None => tune_usage_error("missing tune subcommand"),
    }
}

/// The `--servers/--kernels/--seed/--max-states` flags as sweep options.
fn tune_options(flags: &[(&str, &str)]) -> Result<hpceval::tune::SweepOptions, String> {
    let defaults = hpceval::tune::SweepOptions::default();
    let list = |key: &str, default: Vec<String>| -> Vec<String> {
        match flag(flags, key) {
            None => default,
            Some(raw) => raw.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect(),
        }
    };
    let opts = hpceval::tune::SweepOptions {
        servers: list("servers", defaults.servers),
        kernels: list("kernels", defaults.kernels),
        seed: parse_flag(flags, "seed", defaults.seed)?,
        max_states: parse_flag(flags, "max-states", defaults.max_states)?,
    };
    if opts.servers.is_empty() {
        return Err("--servers needs at least one preset name".to_string());
    }
    if opts.kernels.is_empty() {
        return Err("--kernels needs at least one kernel id".to_string());
    }
    Ok(opts)
}

/// Optional `--check <baseline> [--tolerance X]` gate on a built report.
fn tune_check(report: &hpceval::tune::TuneReport, flags: &[(&str, &str)]) -> ExitCode {
    use hpceval::tune::{check, parse_baseline};
    let Some(path) = flag(flags, "check") else {
        return ExitCode::SUCCESS;
    };
    let tolerance = match parse_flag(flags, "tolerance", 0.001f64) {
        Ok(t) if t >= 0.0 && t.is_finite() => t,
        _ => return tune_usage_error("--tolerance takes a non-negative number"),
    };
    let baseline = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|s| parse_baseline(&s))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = check(&baseline, report, tolerance);
    if failures.is_empty() {
        eprintln!("tune check passed: {} metrics within tolerance {tolerance}", baseline.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("tune check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

/// Run the planned cells in-process (no fleet) — the analysis path
/// `tune frontier`/`tune report` share; the fleet path is proven
/// bitwise-identical by `tests/tune_sweep.rs`.
fn tune_measure_inline(
    opts: &hpceval::tune::SweepOptions,
) -> Result<Vec<hpceval::tune::CellResult>, String> {
    let cells = hpceval::tune::plan_sweep(opts)?;
    cells
        .into_iter()
        .map(|cell| {
            hpceval::tune::run_cell(&cell)
                .map(|measure| hpceval::tune::CellResult { cell, measure })
        })
        .collect()
}

fn tune_sweep(args: &[String]) -> ExitCode {
    use hpceval::fleet::{run_sweep, FaultPlan, SweepConfig};
    let parsed = parse_flags(
        args,
        &[
            "servers",
            "kernels",
            "seed",
            "max-states",
            "shards",
            "crash-p",
            "straggler-p",
            "dropout-p",
            "fault-seed",
            "check",
            "tolerance",
        ],
    );
    let (flags, positional) = match parsed {
        Ok(p) => p,
        Err(e) => return tune_usage_error(&e),
    };
    if !positional.is_empty() {
        return tune_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let (opts, config) = match (|| -> Result<_, String> {
        let opts = tune_options(&flags)?;
        let config = SweepConfig {
            shards: parse_flag(&flags, "shards", 2usize)?,
            faults: FaultPlan {
                crash_p: parse_flag(&flags, "crash-p", 0.0)?,
                straggler_p: parse_flag(&flags, "straggler-p", 0.0)?,
                dropout_p: parse_flag(&flags, "dropout-p", 0.0)?,
                seed: parse_flag(&flags, "fault-seed", 0)?,
            },
            wal_dir: None,
        };
        Ok((opts, config))
    })() {
        Ok(p) => p,
        Err(e) => return tune_usage_error(&e),
    };
    let cells = match hpceval::tune::plan_sweep(&opts) {
        Ok(c) => c,
        Err(e) => return tune_usage_error(&e),
    };
    let results = match run_sweep(&cells, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = hpceval::tune::build_report(&results, opts.seed);
    match serde_json::to_string_pretty(&report) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("cannot encode report: {e}");
            return ExitCode::FAILURE;
        }
    }
    tune_check(&report, &flags)
}

fn tune_frontier(args: &[String]) -> ExitCode {
    let (flags, positional) = match parse_flags(args, &["servers", "kernels", "seed", "max-states"])
    {
        Ok(p) => p,
        Err(e) => return tune_usage_error(&e),
    };
    if !positional.is_empty() {
        return tune_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let report = match tune_options(&flags).and_then(|opts| {
        tune_measure_inline(&opts).map(|r| hpceval::tune::build_report(&r, opts.seed))
    }) {
        Ok(r) => r,
        Err(e) => return tune_usage_error(&e),
    };
    match serde_json::to_string_pretty(&report.servers) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot encode frontiers: {e}");
            ExitCode::FAILURE
        }
    }
}

fn tune_report(args: &[String]) -> ExitCode {
    let parsed =
        parse_flags(args, &["servers", "kernels", "seed", "max-states", "check", "tolerance"]);
    let (flags, positional) = match parsed {
        Ok(p) => p,
        Err(e) => return tune_usage_error(&e),
    };
    if !positional.is_empty() {
        return tune_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let report = match tune_options(&flags).and_then(|opts| {
        tune_measure_inline(&opts).map(|r| hpceval::tune::build_report(&r, opts.seed))
    }) {
        Ok(r) => r,
        Err(e) => return tune_usage_error(&e),
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("cannot encode report: {e}");
            return ExitCode::FAILURE;
        }
    }
    tune_check(&report, &flags)
}

/// Self-contained tune smoke test: a tiny two-kernel, two-state sweep
/// runs as fleet jobs with crashes and meter dropouts injected, and
/// every measured cell must come back bitwise-identical to the direct
/// in-process measurement. This is the CI entry point for the tune
/// matrix job.
fn tune_smoke(args: &[String]) -> ExitCode {
    use hpceval::fleet::{run_sweep, FaultPlan, SweepConfig};
    let (flags, positional) = match parse_flags(args, &["shards"]) {
        Ok(p) => p,
        Err(e) => return tune_usage_error(&e),
    };
    if !positional.is_empty() {
        return tune_usage_error(&format!("unexpected argument {:?}", positional[0]));
    }
    let shards = match parse_flag(&flags, "shards", 2usize) {
        Ok(s) if s > 0 => s,
        _ => return tune_usage_error("--shards takes a positive integer"),
    };
    let opts = hpceval::tune::SweepOptions {
        servers: vec!["Xeon-E5462".to_string()],
        kernels: vec!["ep".to_string(), "stream".to_string()],
        max_states: 2,
        ..hpceval::tune::SweepOptions::default()
    };
    let cells = match hpceval::tune::plan_sweep(&opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tune smoke: planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = SweepConfig {
        shards,
        faults: FaultPlan { crash_p: 0.2, straggler_p: 0.1, dropout_p: 0.3, seed: 11 },
        wal_dir: None,
    };
    let results = match run_sweep(&cells, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune smoke: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut mismatches = 0;
    for r in &results {
        match hpceval::tune::run_cell(&r.cell) {
            Ok(direct) if direct == r.measure => {}
            other => {
                eprintln!("tune smoke: {:?} diverged from direct measurement: {other:?}", r.cell);
                mismatches += 1;
            }
        }
    }
    let frontiers = hpceval::tune::kernel_frontiers(&results);
    println!(
        "tune smoke: {} cell(s) over {} shard(s) with faults injected, {} frontier(s)",
        results.len(),
        shards,
        frontiers.len()
    );
    if results.len() == cells.len() && mismatches == 0 && frontiers.len() == 2 {
        println!("tune smoke: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tune smoke: FAILED ({} of {} cells, {mismatches} mismatch(es))",
            results.len(),
            cells.len()
        );
        ExitCode::FAILURE
    }
}

fn verify() -> ExitCode {
    let mut failed = 0;
    let mut run = |name: String, out: hpceval::kernels::suite::VerifyOutcome| {
        println!("{:<14} {:<5} {}", name, if out.passed { "ok" } else { "FAIL" }, out.detail);
        if !out.passed {
            failed += 1;
        }
    };
    for prog in Program::ALL {
        let b = prog.benchmark(Class::C);
        run(b.display_name(), b.verify(4));
    }
    let hpl = HplConfig::tuned(30_000, 4);
    run("hpl".to_string(), hpl.verify(4));
    for b in hpcc::full_suite(&presets::xeon_e5462()) {
        run(b.id().to_string(), b.verify(4));
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} verification(s) failed");
        ExitCode::FAILURE
    }
}
