//! Kernel-perf regression harness.
//!
//! Times every NPB program and every HPCC kernel at pinned, scaled
//! sizes (best-of-N wall time, so scheduler noise is filtered the same
//! way the scaling study filters it) and writes `BENCH_kernels.json` at
//! the repo root: per-kernel seconds and a nominal GFLOP/s, plus the
//! thread width and `available_parallelism` the numbers were taken on.
//!
//! `kernel_perf --check BENCH_kernels.json [--tolerance 0.5]` re-runs
//! the measurement and fails (non-zero exit) if any kernel's wall time
//! exceeds the committed baseline by more than the tolerance, or if the
//! kernel sets have drifted apart — the CI gate against silent
//! performance collapses. The tolerance is a fraction: 0.5 means "fail
//! beyond 1.5x the baseline time". CI passes a generous value because
//! shared runners are slower and noisier than the baseline host; the
//! gate is meant to catch collapses, not jitter. On *pass* the check
//! still prints one `trend` line per kernel (signed delta vs the
//! baseline), so CI logs double as a perf trend record.
//!
//! The report carries the resolved SIMD path — `scalar` or `avx2`,
//! from the `HPCEVAL_SIMD` pin or auto-detect — and a check refuses a
//! baseline recorded on the other path. The committed baseline is
//! recorded at `HPCEVAL_SIMD=scalar` so it stays comparable across
//! hosts with and without AVX2 — see DESIGN.md §13 for the
//! re-baselining procedure.
//!
//! The GFLOP/s column uses nominal operation counts (NPB reported-op
//! conventions scaled to the pinned grids); for the integer kernels
//! (is, random_access) it is Gop/s and for b_eff it is effective GB/s.
//! The regression check compares seconds only.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use hpceval_bench::{heading, json_requested};
use hpceval_kernels::fft::{fft_batched_with, Direction, TwiddleTable, C64};
use hpceval_kernels::hpcc::dgemm::{dgemm_with, DgemmWorkspace};
use hpceval_kernels::hpcc::{beff, ptrans, random_access, stream};
use hpceval_kernels::hpl::lu as hpl_lu;
use hpceval_kernels::npb::ft::{fft3_with, Field3, FtWorkspace};
use hpceval_kernels::npb::lu::SsorProblem;
use hpceval_kernels::npb::{bt, cg, ep, is, mg, sp};
use hpceval_kernels::rng::NpbRng;
use hpceval_kernels::tile::TilePlan;
use serde::{Serialize, Value};

/// Timed runs per kernel; the minimum is reported.
const BEST_OF: u32 = 3;
/// Default `--tolerance` (fractional slowdown allowed vs baseline).
const DEFAULT_TOLERANCE: f64 = 0.5;

#[derive(Serialize, Clone, Copy)]
struct KernelPoint {
    seconds: f64,
    gflops: f64,
}

/// The DGEMM blocking the run used, straight from
/// [`TilePlan::active`] — recorded so a baseline pins not just *how
/// fast* but *under which plan* the numbers were taken.
#[derive(Serialize, Clone, Copy)]
struct TileInfo {
    mc: usize,
    kc: usize,
    nc: usize,
}

#[derive(Serialize)]
struct Report {
    /// `std::thread::available_parallelism()` on the measuring host.
    available_parallelism: usize,
    /// Effective executor width (HPCEVAL_THREADS pin included).
    threads: usize,
    /// Resolved SIMD path (`HPCEVAL_SIMD` pin or auto-detect).
    simd: String,
    /// Active DGEMM tile plan (`HPCEVAL_SPEC` pin or reference geometry).
    tiles: TileInfo,
    best_of: u32,
    note: String,
    kernels: BTreeMap<String, KernelPoint>,
}

fn best_of(runs: u32, mut f: impl FnMut()) -> f64 {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run the full suite at the pinned sizes.
fn measure() -> Report {
    let mut kernels = BTreeMap::new();
    let mut put = |name: &str, seconds: f64, ops: f64| {
        kernels.insert(name.to_string(), KernelPoint { seconds, gflops: ops / seconds / 1e9 });
    };

    // --- HPCC ------------------------------------------------------
    {
        let n = 384;
        let mut rng = NpbRng::new(17);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut c = vec![0.0; n * n];
        // Warm workspace: measure the allocation-free hot path.
        let mut ws = DgemmWorkspace::new(n);
        let secs = best_of(BEST_OF, || dgemm_with(n, 1.0, &a, &b, 0.0, &mut c, &mut ws));
        put("hpcc_dgemm", secs, 2.0 * (n as f64).powi(3));
    }
    {
        let n = 384;
        let a = hpl_lu::Matrix::random(n, 5);
        let threads = rayon::current_num_threads();
        let secs = best_of(BEST_OF, || {
            hpl_lu::factor(a.clone(), 32, threads).expect("nonsingular");
        });
        put("hpcc_hpl", secs, 2.0 * (n as f64).powi(3) / 3.0);
    }
    {
        // Cache-resident arrays (3×8 KiB) cycled many times: at the
        // DRAM-bound full size the wall time measures the host's memory
        // bus, which a code change cannot regress — resident, it
        // measures the kernel's compute path (and shows the SIMD
        // speedup), which is exactly what this harness gates.
        let (n, reps) = (1 << 10, 2000u32);
        let secs = best_of(BEST_OF, || {
            stream::run(n, reps);
        });
        // copy 0 + scale 1 + add 1 + triad 2 flops per element per rep.
        put("hpcc_stream", secs, 4.0 * n as f64 * f64::from(reps));
    }
    {
        let (n, reps) = (768usize, 8);
        let mut rng = NpbRng::new(23);
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64()).collect();
        let mut a = vec![0.0; n * n];
        let secs = best_of(BEST_OF, || {
            for _ in 0..reps {
                ptrans::add_transpose(n, &mut a, &b);
            }
        });
        put("hpcc_ptrans", secs, (n * n * reps) as f64);
    }
    {
        let (log2_table, updates) = (22u32, 1u64 << 21);
        let secs = best_of(BEST_OF, || {
            random_access::run(log2_table, updates, 1);
        });
        put("hpcc_random_access", secs, updates as f64);
    }
    {
        let (line, lines) = (4096usize, 64usize);
        let table = TwiddleTable::new(line);
        let mut rng = NpbRng::new(29);
        let mut data: Vec<C64> =
            (0..line * lines).map(|_| C64::new(rng.next_f64() - 0.5, 0.0)).collect();
        let secs = best_of(BEST_OF, || {
            fft_batched_with(&table, &mut data, Direction::Forward);
        });
        put("hpcc_fft", secs, 5.0 * (line * lines) as f64 * (line as f64).log2());
    }
    {
        let b = beff::Beff { max_log2_size: 18, reps: 16 };
        let secs = best_of(BEST_OF, || {
            beff::run(b.max_log2_size, b.reps);
        });
        // Effective GB/s, not flops: b_eff moves bytes.
        put("hpcc_beff", secs, b.total_bytes());
    }

    // --- NPB -------------------------------------------------------
    {
        let threads = rayon::current_num_threads();
        let m = 19u32;
        let secs = best_of(BEST_OF, || {
            ep::run(m, threads);
        });
        put("npb_ep", secs, 20.0 * (1u64 << m) as f64);
    }
    {
        let (n, nonzer, niter, shift) = (2000usize, 7u32, 2u32, 12.0);
        let secs = best_of(BEST_OF, || {
            cg::run(n, nonzer, niter, shift);
        });
        // ~25 inner CG iterations per outer step, matvec-dominated.
        let nnz = n as f64 * f64::from(nonzer).powi(2);
        put("npb_cg", secs, f64::from(niter) * 25.0 * (2.0 * nnz + 12.0 * n as f64));
    }
    {
        let (nx, ny, nz) = (64usize, 32, 32);
        let mut ws = FtWorkspace::new(nx, ny, nz);
        let mut f = Field3::random(nx, ny, nz, 31);
        let pts = (nx * ny * nz) as f64;
        let secs = best_of(BEST_OF, || {
            fft3_with(&mut f, Direction::Forward, &mut ws);
            fft3_with(&mut f, Direction::Inverse, &mut ws);
        });
        put("npb_ft", secs, 2.0 * 5.0 * pts * pts.log2());
    }
    {
        let (log2_keys, log2_max) = (22u32, 13u32);
        let keys = is::generate_keys(1usize << log2_keys, 1u32 << log2_max, 37);
        let secs = best_of(BEST_OF, || {
            is::rank_keys(&keys, 1 << log2_max);
        });
        put("npb_is", secs, (1u64 << log2_keys) as f64);
    }
    {
        let n = 64usize;
        let v = mg::Grid::random_rhs(n, 41);
        let mut u = mg::Grid::zeros(n);
        let mut ws = mg::MgWorkspace::new(n);
        let secs = best_of(BEST_OF, || {
            mg::v_cycle_with(&mut u, &v, &mut ws);
        });
        // ~4 smooths + residual + grid transfers, coarse levels ≈ 8/7.
        put("npb_mg", secs, 60.0 * (n * n * n) as f64);
    }
    {
        let n = 20usize;
        let prob = bt::AdiProblem::new(n, 43);
        let mut rng = NpbRng::new(44);
        let b: Vec<[f64; 5]> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let mut u = vec![[0.0f64; 5]; n * n * n];
        let secs = best_of(BEST_OF, || {
            prob.adi_step(&mut u, &b);
        });
        put("npb_bt", secs, bt::FLOPS_PER_POINT_STEP * (n * n * n) as f64);
    }
    {
        let n = 24usize;
        let prob = sp::SpProblem::new(n, 47);
        let mut rng = NpbRng::new(48);
        let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
        let mut u = vec![0.0f64; n * n * n * 5];
        let secs = best_of(BEST_OF, || {
            prob.adi_step(&mut u, &b);
        });
        put("npb_sp", secs, sp::FLOPS_PER_POINT_STEP * (n * n * n) as f64);
    }
    {
        let n = 24usize;
        let prob = SsorProblem::new(n, 53);
        let mut rng = NpbRng::new(54);
        let b: Vec<[f64; 5]> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let mut u = vec![[0.0f64; 5]; n * n * n];
        let secs = best_of(BEST_OF, || {
            prob.ssor_step(&mut u, &b, 1.2);
        });
        // Official LU.A reported ops per point per step.
        put("npb_lu", secs, 1820.0 * (n * n * n) as f64);
    }

    let plan = TilePlan::active();
    Report {
        available_parallelism: std::thread::available_parallelism().map_or(1, |v| v.get()),
        threads: rayon::current_num_threads(),
        simd: hpceval_kernels::simd::mode().label().to_string(),
        tiles: TileInfo { mc: plan.mc, kc: plan.kc, nc: plan.nc },
        best_of: BEST_OF,
        note: "best-of-N wall seconds per kernel at pinned scaled sizes; gflops is \
               nominal (Gop/s for is/random_access, GB/s for beff); the regression \
               check compares seconds only"
            .to_string(),
        kernels,
    }
}

/// What a check run needs from the committed baseline file.
struct Baseline {
    /// The SIMD mode the baseline was recorded under, if recorded.
    simd: Option<String>,
    seconds: BTreeMap<String, f64>,
}

/// Extract the `kernels.*.seconds` map (and the recorded SIMD mode)
/// from a parsed baseline file. (The vendored serde_json deserializes
/// to a dynamic [`Value`] only.)
fn load_baseline(v: &Value) -> Result<Baseline, String> {
    let kernels = v.get("kernels").ok_or("baseline has no `kernels` object")?;
    let Value::Map(pairs) = kernels else {
        return Err("baseline `kernels` is not an object".to_string());
    };
    let seconds = pairs
        .iter()
        .map(|(name, point)| {
            point
                .get("seconds")
                .and_then(Value::as_f64)
                .map(|s| (name.clone(), s))
                .ok_or_else(|| format!("baseline kernel {name:?} has no numeric `seconds`"))
        })
        .collect::<Result<_, _>>()?;
    let simd = match v.get("simd") {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    Ok(Baseline { simd, seconds })
}

/// Compare `current` against the baseline; returns one message per
/// violation (SIMD-mode mismatch, regression beyond tolerance, or
/// kernel-set drift). Comparing seconds taken under different SIMD
/// paths is meaningless, so a mode mismatch fails outright with the
/// remedy spelled out.
fn check(bl: &Baseline, current: &Report, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(base_simd) = &bl.simd {
        if *base_simd != current.simd {
            return vec![format!(
                "simd mode mismatch: baseline was recorded at simd={base_simd} but this run \
                 resolved simd={} — pin HPCEVAL_SIMD={base_simd} for the check, or re-record \
                 the baseline at the new mode",
                current.simd
            )];
        }
    }
    let baseline = &bl.seconds;
    for (name, &base_secs) in baseline {
        match current.kernels.get(name) {
            None => failures.push(format!("{name}: in baseline but no longer measured")),
            Some(cur) => {
                let limit = base_secs * (1.0 + tolerance);
                if cur.seconds > limit {
                    failures.push(format!(
                        "{name}: {:.4}s vs baseline {base_secs:.4}s (limit {limit:.4}s at \
                         tolerance {tolerance})",
                        cur.seconds
                    ));
                }
            }
        }
    }
    for name in current.kernels.keys() {
        if !baseline.contains_key(name) {
            failures.push(format!("{name}: measured but missing from baseline — regenerate it"));
        }
    }
    failures
}

struct Cli {
    /// Baseline path to check against; `None` records a new baseline.
    check: Option<String>,
    tolerance: f64,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { check: None, tolerance: DEFAULT_TOLERANCE };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {
                cli.check = Some(args.get(i + 1).ok_or("--check needs a baseline path")?.clone());
                i += 2;
            }
            "--tolerance" => {
                let raw = args.get(i + 1).ok_or("--tolerance needs a value, e.g. 0.5")?;
                cli.tolerance = match raw.parse::<f64>() {
                    Ok(t) if t >= 0.0 && t.is_finite() => t,
                    _ => return Err(format!("bad tolerance {raw:?}")),
                };
                i += 2;
            }
            "--json" => i += 1, // handled by json_requested()
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: kernel_perf [--check BENCH_kernels.json] [--tolerance 0.5] [--json]");
            return ExitCode::FAILURE;
        }
    };
    heading("Kernel perf", "best-of-N wall time for every NPB and HPCC kernel");

    let report = measure();
    let baseline = match &cli.check {
        None => None,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
            .and_then(|v| load_baseline(&v))
        {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("error: cannot load baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Pure JSON under `--json` (matching every other bench bin); the
    // table always shows in check mode, where it is the CI log.
    let show_table = !json_requested() || cli.check.is_some();
    if show_table {
        println!(
            "{:>20} {:>11} {:>11} {:>11} {:>7}",
            "kernel", "seconds", "gflops", "base_s", "ratio"
        );
    }
    for (name, p) in report.kernels.iter().filter(|_| show_table) {
        let base = baseline.as_ref().and_then(|b| b.seconds.get(name));
        match base {
            Some(&b) => println!(
                "{:>20} {:>11.4} {:>11.3} {:>11.4} {:>6.2}x",
                name,
                p.seconds,
                p.gflops,
                b,
                p.seconds / b
            ),
            None => println!(
                "{:>20} {:>11.4} {:>11.3} {:>11} {:>7}",
                name, p.seconds, p.gflops, "-", "-"
            ),
        }
    }

    if let Some(base) = &baseline {
        let failures = check(base, &report, cli.tolerance);
        if failures.is_empty() {
            println!(
                "\nperf check passed: {} kernels within {:.0}% of baseline (simd {})",
                report.kernels.len(),
                cli.tolerance * 100.0,
                report.simd
            );
            // Perf trend record: the signed per-kernel delta, slowest
            // first, printed on pass so CI logs accumulate a history.
            let mut deltas: Vec<(f64, &str)> = report
                .kernels
                .iter()
                .filter_map(|(name, p)| {
                    base.seconds.get(name).map(|&b| (100.0 * (p.seconds / b - 1.0), name.as_str()))
                })
                .collect();
            deltas.sort_by(|a, b| b.0.total_cmp(&a.0));
            for (delta, name) in deltas {
                println!("  trend {name}: {delta:+.1}% vs baseline");
            }
            return ExitCode::SUCCESS;
        }
        eprintln!("\nperf check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }

    let json = serde_json::to_string_pretty(&report).expect("serializable");
    if json_requested() {
        println!("{json}");
    } else {
        std::fs::write("BENCH_kernels.json", json + "\n").expect("write BENCH_kernels.json");
        println!(
            "\nwrote BENCH_kernels.json ({} kernels, threads {}, simd {}, host parallelism {})",
            report.kernels.len(),
            report.threads,
            report.simd,
            report.available_parallelism
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_defaults_and_flags() {
        let c = parse_cli(&args(&[])).unwrap();
        assert!(c.check.is_none());
        assert_eq!(c.tolerance, DEFAULT_TOLERANCE);
        let c = parse_cli(&args(&["--check", "b.json", "--tolerance", "3.0"])).unwrap();
        assert_eq!(c.check.as_deref(), Some("b.json"));
        assert_eq!(c.tolerance, 3.0);
    }

    #[test]
    fn bad_cli_is_rejected() {
        for bad in [
            &["--check"][..],
            &["--tolerance"][..],
            &["--tolerance", "-1"][..],
            &["--tolerance", "nan"][..],
            &["--frobnicate"][..],
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?}");
        }
    }

    fn report(kernels: &[(&str, f64)]) -> Report {
        Report {
            available_parallelism: 1,
            threads: 1,
            simd: "scalar".to_string(),
            tiles: TileInfo { mc: 64, kc: 48, nc: 48 },
            best_of: BEST_OF,
            note: String::new(),
            kernels: kernels
                .iter()
                .map(|&(n, s)| (n.to_string(), KernelPoint { seconds: s, gflops: 1.0 }))
                .collect(),
        }
    }

    fn seconds(kernels: &[(&str, f64)]) -> BTreeMap<String, f64> {
        kernels.iter().map(|&(n, s)| (n.to_string(), s)).collect()
    }

    fn scalar_baseline(kernels: &[(&str, f64)]) -> Baseline {
        Baseline { simd: Some("scalar".to_string()), seconds: seconds(kernels) }
    }

    #[test]
    fn check_flags_regressions_and_drift() {
        let base = scalar_baseline(&[("a", 1.0), ("b", 1.0), ("gone", 1.0)]);
        let cur = report(&[("a", 1.4), ("b", 1.6), ("new", 1.0)]);
        let failures = check(&base, &cur, 0.5);
        // a is within 1.5x; b regressed; `gone` vanished; `new` is unknown.
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.starts_with("b:")));
        assert!(failures.iter().any(|f| f.contains("gone")));
        assert!(failures.iter().any(|f| f.contains("new")));
    }

    #[test]
    fn check_passes_within_tolerance() {
        let base = scalar_baseline(&[("a", 1.0)]);
        let cur = report(&[("a", 1.49)]);
        assert!(check(&base, &cur, 0.5).is_empty());
    }

    #[test]
    fn check_fails_fast_on_simd_mode_mismatch() {
        // Same timings, different path: the numbers are incomparable,
        // so the gate must fail with the remedy, not a perf verdict.
        let base = Baseline { simd: Some("avx2".to_string()), seconds: seconds(&[("a", 1.0)]) };
        let cur = report(&[("a", 1.0)]);
        let failures = check(&base, &cur, 0.5);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("simd mode mismatch"), "{failures:?}");
        assert!(failures[0].contains("HPCEVAL_SIMD=avx2"), "{failures:?}");
        // A baseline without a recorded mode (older format) still
        // compares on seconds alone.
        let legacy = Baseline { simd: None, seconds: seconds(&[("a", 1.0)]) };
        assert!(check(&legacy, &cur, 0.5).is_empty());
    }

    #[test]
    fn baseline_round_trips_through_the_writer_format() {
        let rep = report(&[("npb_ft", 0.25), ("hpcc_dgemm", 0.5)]);
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let parsed = serde_json::from_str(&json).unwrap();
        let bl = load_baseline(&parsed).unwrap();
        assert_eq!(bl.seconds, seconds(&[("npb_ft", 0.25), ("hpcc_dgemm", 0.5)]));
        assert_eq!(bl.simd.as_deref(), Some("scalar"));
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        for bad in ["{}", "{\"kernels\": 3}", "{\"kernels\": {\"a\": {\"gflops\": 1.0}}}"] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(load_baseline(&v).is_err(), "{bad}");
        }
    }
}
