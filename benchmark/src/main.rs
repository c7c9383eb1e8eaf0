//! `benchmark` — one benchmark for the fleet, the kernels and the paper
//! pipeline.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One invocation runs one workload in this process, so set-up time and
//! peak memory belong to that workload alone. The amount of work is
//! fixed by `--seconds` (operations per second of budget, calibrated on
//! the reference host; see `README.md`), so every commit measured with
//! the same settings does the same work. Every output is checked; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is non-zero
//! when a check failed. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` instead records spans around each layer call, reports
//! the per-layer metrics and the tracing overhead, and writes the spans
//! to `target/benchmark/<workload>.spans.jsonl`.

mod fleet;
mod host;
mod kernels;
mod paper;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;

use spans::Spans;

/// The workloads, as `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 4] = ["fleet-sweep", "fleet-status", "kernels", "paper"];

/// The end-to-end metrics every untraced run reports: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Tracing metrics every traced run reports about itself.
const TRACE_METRICS: [(&str, &str); 2] =
    [("trace.overhead_ratio", "ratio"), ("trace.span_coverage", "ratio")];

/// Environment pins that would change what is measured; cleared before
/// any library reads them.
const SCRUBBED_ENV: [&str; 4] =
    ["HPCEVAL_TRACE", "HPCEVAL_SIMD", "HPCEVAL_SPEC", "HPCEVAL_THREADS"];

/// Every per-layer metric a traced run reports, in report order.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        fleet::LAYER_METRICS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(kernels::layer_metrics());
    all.extend(paper::layer_metrics());
    all.extend(TRACE_METRICS.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count measured operations, `failed` of them unsuccessful.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one correctness check and print its verdict.
    pub fn check(&mut self, ok: bool, what: &str) {
        println!("check {} {what}", if ok { "ok" } else { "FAILED" });
        self.ops(1, u64::from(!ok));
    }

    /// Record one metric and print it.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name} {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.clone(), Value::Map(v))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("the stand-in serializer never fails")
    }
}

/// The state one run threads through its workload.
pub struct Ctx {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Run budget; fixes the amount of work.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Scratch directory for write-ahead logs, removed when the run ends.
    pub dir: PathBuf,
    /// Spans recorded so far.
    pub spans: Spans,
}

impl Ctx {
    /// Work items for a fixed-work run: `per_second` for each second of
    /// the budget; at least one, or two when traced so that both traced
    /// and untraced operations occur.
    pub fn work(&self, per_second: f64) -> usize {
        ((self.seconds * per_second).round() as usize).max(1 + usize::from(self.traced))
    }

    /// Whether operation `i` is traced: in a traced run, see
    /// [`traced_op`].
    pub fn traces(&self, i: u64) -> bool {
        self.traced && traced_op(i)
    }
}

/// The operations a traced run traces: operations 1 and 2 of every 4,
/// so traced and untraced operations interleave and each half sees
/// both phases of anything that alternates (the FFT's direction).
pub fn traced_op(i: u64) -> bool {
    matches!(i % 4, 1 | 2)
}

/// Report the end-to-end metrics shared by every workload: the median
/// set-up time, completed work per second, the median and tail
/// operation latency, and the peak resident set.
pub fn end_to_end(report: &mut Report, setup_s: &[f64], latencies_ns: &[u64], throughput: f64) {
    let mut setups = setup_s.to_vec();
    setups.sort_by(f64::total_cmp);
    let quarters: Vec<String> = latencies_ns
        .chunks(latencies_ns.len().div_ceil(4).max(1))
        .map(|q| format!("{:.4}", stats::median_ns(q) as f64 / 1e6))
        .collect();
    println!("info quarter_p50_ms {}", quarters.join(" "));
    let mut lat = latencies_ns.to_vec();
    lat.sort_unstable();
    let tail = stats::tail_per_mille(lat.len());
    println!("info latency samples {} tail p{}", lat.len(), f64::from(tail) / 10.0);
    report.metric("setup_s", stats::percentile(&setups, 500), "s");
    report.metric("throughput_per_s", throughput, "1/s");
    report.metric("latency_p50_ms", stats::percentile(&lat, 500) as f64 / 1e6, "ms");
    report.metric("latency_tail_ms", stats::percentile(&lat, tail) as f64 / 1e6, "ms");
    match host::peak_rss_kb() {
        Some(kb) => report.metric("peak_rss_mb", kb as f64 / 1024.0, "MB"),
        None => report.check(false, "peak RSS readable from /proc/self/status"),
    }
}

/// Report what tracing cost: the median traced operation over the
/// median untraced one (operations interleave, so both see the same
/// state), and the share of traced operation time the layer spans
/// cover.
pub fn tracing_overhead(report: &mut Report, traced_ns: &[u64], untraced_ns: &[u64], cover: f64) {
    let ratio = stats::median_ns(traced_ns) as f64 / stats::median_ns(untraced_ns) as f64;
    report.metric("trace.overhead_ratio", ratio, "ratio");
    report.metric("trace.span_coverage", cover, "ratio");
}

/// Check that a pass's layer spans cover at least 95% of it; less means
/// the traced pass misses a layer.
pub fn check_coverage(report: &mut Report, cover: f64) {
    let what = format!("layer spans cover {:.1}% of traced pass time", cover * 100.0);
    report.check(cover >= 0.95, &what);
}

/// Run one workload; `Err` means it could not run to the end.
fn run(workload: &str, ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "fleet-sweep" | "fleet-status" => {
            if workload == "fleet-sweep" {
                fleet::run_sweeps(ctx, &mut report)?;
            } else {
                fleet::run_status(ctx, &mut report)?;
            }
            if ctx.traced {
                kernels::probe(ctx, &mut report)?;
                paper::probe(ctx, &mut report)?;
            }
        }
        "kernels" => {
            kernels::run(ctx, &mut report)?;
            if ctx.traced {
                fleet::probe(ctx, &mut report)?;
                paper::probe(ctx, &mut report)?;
            }
        }
        "paper" => {
            paper::run(ctx, &mut report)?;
            if ctx.traced {
                fleet::probe(ctx, &mut report)?;
                kernels::probe(ctx, &mut report)?;
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    let mut want: Vec<(String, &str)> = if ctx.traced {
        per_layer_catalog()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut got: Vec<(String, &str)> =
        report.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
    want.sort();
    got.sort();
    report.check(got == want, "reported metric set matches BENCHMARK.json");
    Ok(report)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str =
    "usage: benchmark --workload <fleet-sweep|fleet-status|kernels|paper> --seed <u64> \
     [--seconds <n>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => return Err(format!("bad --seconds {value:?}")),
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

/// The run's scratch directory under `target/benchmark`, removed on
/// drop so a failed run leaves no write-ahead logs behind.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    // Single-threaded here, and nothing has read these yet.
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from("target/benchmark");
    let scratch = ScratchDir(out.join(format!("{}-{}", args.workload, std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!("host {}", serde_json::to_string(&host::fingerprint()).expect("never fails"));
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        dir: scratch.0.clone(),
        spans: Spans::new(Instant::now()),
    };
    let report = match run(&args.workload, &mut ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} did not complete: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.traced {
        let path = out.join(format!("{}.spans.jsonl", args.workload));
        match ctx.spans.write_jsonl(&path) {
            Ok(()) => {
                println!("info spans {} written to {}", ctx.spans.all().len(), path.display())
            }
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    drop(scratch);
    println!("{}", report.to_json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json is strict JSON")
    }

    fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_seq)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let v = bench_json();
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = names_and_units(&v, "end_to_end");
        let want: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(e2e, want);
        let layers = names_and_units(&v, "per_layer");
        let catalog: Vec<(String, String)> =
            per_layer_catalog().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(layers, catalog);
    }

    #[test]
    fn metric_names_fit_the_charset_and_count_limits() {
        let v = bench_json();
        let (e2e, layers) = (names_and_units(&v, "end_to_end"), names_and_units(&v, "per_layer"));
        assert!((1..=16).contains(&e2e.len()), "{} end-to-end metrics", e2e.len());
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut all: Vec<&str> = e2e.iter().chain(&layers).map(|(n, _)| n.as_str()).collect();
        for name in WORKLOADS.iter().copied().chain(all.iter().copied()) {
            assert!(valid_name(name), "{name:?} breaks the name rules");
        }
        for (_, unit) in e2e.iter().chain(&layers) {
            assert!(unit.len() <= 16, "{unit:?}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "metric names are used once");
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload paper --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.traced), ("paper", 7, 3.0, true));
        let d = parse_args(&argv("--seed 1 --workload kernels")).unwrap();
        assert_eq!((d.seconds, d.traced), (10.0, false));
        for bad in [
            "--workload paper",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload paper --seed x",
            "--workload paper --seed 1 --trace 2",
            "--workload paper --seed 1 --seconds 0",
            "--workload paper --seed 1 --frob 1",
            "--workload paper --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The trace recorder is process-global: a kernel running in one
    /// test would land in another test's capture, so workload runs take
    /// turns.
    static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny_run(workload: &str, traced: bool) -> Report {
        let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let dir = PathBuf::from(format!("target/benchmark/test-{workload}-{}", u8::from(traced)));
        std::fs::create_dir_all(&dir).unwrap();
        let scratch = ScratchDir(dir.clone());
        // One pass, one job or two requests: the smallest run there is.
        let mut ctx =
            Ctx { seed: 3, seconds: 1e-6, traced, dir, spans: Spans::new(Instant::now()) };
        let report = run(workload, &mut ctx).unwrap_or_else(|e| panic!("{workload}: {e}"));
        drop(scratch);
        report
    }

    #[test]
    fn every_workload_runs_and_passes_its_checks_at_tiny_size() {
        for workload in WORKLOADS {
            let report = tiny_run(workload, false);
            assert_eq!(report.failed, 0, "{workload} failed a check");
            let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            assert_eq!(names, END_TO_END.map(|(n, _)| n), "{workload}");
            assert!(report.metrics.iter().all(|(_, v, _)| *v > 0.0), "{workload}: a zero metric");
        }
    }

    #[test]
    fn a_traced_run_reports_every_layer_metric() {
        let mut want: Vec<String> = per_layer_catalog().into_iter().map(|(n, _)| n).collect();
        want.sort();
        // Every workload's own traced loop, and every layer probe.
        for workload in WORKLOADS {
            let report = tiny_run(workload, true);
            assert_eq!(report.failed, 0, "{workload}: a traced check failed");
            let mut names: Vec<String> = report.metrics.iter().map(|(n, _, _)| n.clone()).collect();
            names.sort();
            assert_eq!(names, want, "{workload}");
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.metric("setup_s", 0.25, "s");
        let v = serde_json::from_str(&r.to_json()).unwrap();
        let Value::Map(pairs) = &v else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        r.check(false, "a failing check");
        let v = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
    }
}
