//! The `kernels` workload: the fifteen NPB and HPCC kernels at pinned
//! sizes, run in interleaved passes at the host's width.
//!
//! This is the compute layer (`kernels::{simd, tile, npb, hpcc}` and the
//! vendored executor) with no fleet and no tracing: the trace hooks stay
//! idle, one relaxed load each. A pass calls every kernel once, in a
//! fixed order, so a slow kernel and a fast one see the same machine
//! state over the run. Sizes and operation counts are those of the
//! `kernel_perf` bin. There is no DRAM-bandwidth kernel: the arrays
//! would have to be four times the last-level cache, which is far more
//! memory than the benchmark may take on large-cache hosts, so bytes are
//! reported as computed from array sizes, without a roofline ratio.

use std::hint::black_box;
use std::time::Instant;

use hpceval_kernels::fft::{fft_batched_with, Direction, TwiddleTable, C64};
use hpceval_kernels::hpcc::dgemm::{dgemm_with, DgemmWorkspace};
use hpceval_kernels::hpcc::{self, beff, ptrans, random_access, stream};
use hpceval_kernels::hpl::lu as hpl_lu;
use hpceval_kernels::npb::ft::{fft3_with, Field3, FtWorkspace};
use hpceval_kernels::npb::lu::SsorProblem;
use hpceval_kernels::npb::{bt, cg, ep, is, mg, sp, Class, Program};
use hpceval_kernels::rng::NpbRng;
use hpceval_machine::presets;

use crate::{check_coverage, end_to_end, stats, tracing_overhead, Ctx, Report};

/// Kernel ids, in pass order; each is also the span name of its call.
pub const KERNELS: [&str; 15] = [
    "hpcc_dgemm",
    "hpcc_hpl",
    "hpcc_stream",
    "hpcc_ptrans",
    "hpcc_random_access",
    "hpcc_fft",
    "hpcc_beff",
    "npb_ep",
    "npb_cg",
    "npb_ft",
    "npb_is",
    "npb_mg",
    "npb_bt",
    "npb_sp",
    "npb_lu",
];

/// Passes per second of run budget (one pass takes ~0.1 s at width 2
/// on the reference host).
const PASSES_PER_S: f64 = 10.0;
/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Traced passes when another workload's traced run probes this layer.
const PROBE_PASSES: usize = 5;
/// Single-thread passes for the width-1 baseline.
const WIDTH1_PASSES: usize = 3;

// Pinned sizes (those of `kernel_perf`).
const DGEMM_N: usize = 384;
const HPL_N: usize = 384;
const HPL_NB: usize = 32;
const STREAM_N: usize = 1 << 10;
const STREAM_REPS: u32 = 2000;
const PTRANS_N: usize = 768;
const PTRANS_REPS: usize = 8;
const RA_LOG2_TABLE: u32 = 22;
const RA_UPDATES: u64 = 1 << 21;
const FFT_LINE: usize = 4096;
const FFT_LINES: usize = 64;
const BEFF: beff::Beff = beff::Beff { max_log2_size: 18, reps: 16 };
const EP_M: u32 = 19;
const CG: (usize, u32, u32, f64) = (2000, 7, 2, 12.0);
const FT: (usize, usize, usize) = (64, 32, 32);
const IS_LOG2_KEYS: u32 = 22;
const IS_LOG2_MAX: u32 = 13;
const MG_N: usize = 64;
const BT_N: usize = 20;
const SP_N: usize = 24;
const LU_N: usize = 24;

/// The per-layer metrics this layer reports.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut m = Vec::new();
    for id in KERNELS {
        m.push((format!("kernel.{id}.s"), "s"));
        m.push((format!("kernel.{id}.gflops"), "GFLOP/s"));
    }
    m.push(("kernels.speedup_vs_width1".to_string(), "ratio"));
    m
}

/// Nominal operations (flops; integer updates for is/random_access,
/// bytes for b_eff) and computed bytes (arrays read plus written once,
/// ignoring cache reuse) of one call of kernel `k`.
pub fn work(k: usize) -> (f64, f64) {
    let cube = |n: usize| (n * n * n) as f64;
    match KERNELS[k] {
        "hpcc_dgemm" => (2.0 * (DGEMM_N as f64).powi(3), 3.0 * 8.0 * (DGEMM_N * DGEMM_N) as f64),
        "hpcc_hpl" => (2.0 * (HPL_N as f64).powi(3) / 3.0, 2.0 * 8.0 * (HPL_N * HPL_N) as f64),
        "hpcc_stream" => {
            let elems = STREAM_N as f64 * f64::from(STREAM_REPS);
            (4.0 * elems, 10.0 * 8.0 * elems)
        }
        "hpcc_ptrans" => {
            let elems = (PTRANS_N * PTRANS_N * PTRANS_REPS) as f64;
            (elems, 3.0 * 8.0 * elems)
        }
        "hpcc_random_access" => (RA_UPDATES as f64, 16.0 * RA_UPDATES as f64),
        "hpcc_fft" => {
            let pts = (FFT_LINE * FFT_LINES) as f64;
            (5.0 * pts * (FFT_LINE as f64).log2(), 2.0 * 16.0 * pts)
        }
        "hpcc_beff" => (BEFF.total_bytes(), BEFF.total_bytes()),
        "npb_ep" => (20.0 * (1u64 << EP_M) as f64, 0.0),
        "npb_cg" => {
            let (n, nonzer, niter, _) = CG;
            let nnz = n as f64 * f64::from(nonzer).powi(2);
            let inner = f64::from(niter) * 25.0;
            (inner * (2.0 * nnz + 12.0 * n as f64), inner * (12.0 * nnz + 40.0 * n as f64))
        }
        "npb_ft" => {
            let pts = (FT.0 * FT.1 * FT.2) as f64;
            (2.0 * 5.0 * pts * pts.log2(), 2.0 * 2.0 * 16.0 * pts)
        }
        "npb_is" => ((1u64 << IS_LOG2_KEYS) as f64, 8.0 * (1u64 << IS_LOG2_KEYS) as f64),
        "npb_mg" => (60.0 * cube(MG_N), 4.0 * 8.0 * cube(MG_N)),
        "npb_bt" => (bt::FLOPS_PER_POINT_STEP * cube(BT_N), 3.0 * 40.0 * cube(BT_N)),
        "npb_sp" => (sp::FLOPS_PER_POINT_STEP * cube(SP_N), 3.0 * 40.0 * cube(SP_N)),
        "npb_lu" => (1820.0 * cube(LU_N), 3.0 * 40.0 * cube(LU_N)),
        other => unreachable!("unknown kernel {other}"),
    }
}

/// Inputs and workspaces of every kernel, built once per set-up.
struct Suite {
    dgemm: (Vec<f64>, Vec<f64>, Vec<f64>, DgemmWorkspace),
    hpl: hpl_lu::Matrix,
    ptrans: (Vec<f64>, Vec<f64>),
    fft: (TwiddleTable, Vec<C64>, Direction),
    ft: (Field3, FtWorkspace),
    is_keys: Vec<u32>,
    mg: (mg::Grid, mg::Grid, mg::MgWorkspace),
    bt: (bt::AdiProblem, Vec<[f64; 5]>, Vec<[f64; 5]>),
    sp: (sp::SpProblem, Vec<f64>, Vec<f64>),
    lu: (SsorProblem, Vec<[f64; 5]>, Vec<[f64; 5]>),
    /// Bits of the DGEMM output's sum after the latest call.
    dgemm_checksum: u64,
}

fn uniform(n: usize, seed: u64, offset: f64) -> Vec<f64> {
    let mut rng = NpbRng::new(seed);
    (0..n).map(|_| rng.next_f64() - offset).collect()
}

fn five_vectors(n: usize, seed: u64) -> Vec<[f64; 5]> {
    let mut rng = NpbRng::new(seed);
    (0..n).map(|_| std::array::from_fn(|_| rng.next_f64())).collect()
}

impl Suite {
    fn new(seed: u64) -> Suite {
        // Distinct streams per kernel, all derived from the run seed.
        let s = |k: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k) | 1;
        let n3 = |n: usize| n * n * n;
        Suite {
            dgemm: (
                uniform(DGEMM_N * DGEMM_N, s(1), 0.5),
                uniform(DGEMM_N * DGEMM_N, s(2), 0.5),
                vec![0.0; DGEMM_N * DGEMM_N],
                DgemmWorkspace::new(DGEMM_N),
            ),
            hpl: hpl_lu::Matrix::random(HPL_N, s(3)),
            ptrans: (vec![0.0; PTRANS_N * PTRANS_N], uniform(PTRANS_N * PTRANS_N, s(4), 0.0)),
            fft: (
                TwiddleTable::new(FFT_LINE),
                uniform(FFT_LINE * FFT_LINES, s(5), 0.5)
                    .into_iter()
                    .map(|x| C64::new(x, 0.0))
                    .collect(),
                Direction::Forward,
            ),
            ft: (Field3::random(FT.0, FT.1, FT.2, s(6)), FtWorkspace::new(FT.0, FT.1, FT.2)),
            is_keys: is::generate_keys(1 << IS_LOG2_KEYS, 1 << IS_LOG2_MAX, s(7)),
            mg: (
                mg::Grid::random_rhs(MG_N, s(8)),
                mg::Grid::zeros(MG_N),
                mg::MgWorkspace::new(MG_N),
            ),
            bt: (
                bt::AdiProblem::new(BT_N, s(9)),
                five_vectors(n3(BT_N), s(10)),
                vec![[0.0; 5]; n3(BT_N)],
            ),
            sp: (
                sp::SpProblem::new(SP_N, s(11)),
                uniform(n3(SP_N) * 5, s(12), 0.5),
                vec![0.0; n3(SP_N) * 5],
            ),
            lu: (
                SsorProblem::new(LU_N, s(13)),
                five_vectors(n3(LU_N), s(14)),
                vec![[0.0; 5]; n3(LU_N)],
            ),
            dgemm_checksum: 0,
        }
    }

    /// One call of kernel `k` at the executor width in force.
    fn call(&mut self, k: usize) -> Result<(), String> {
        let threads = rayon::current_num_threads();
        match KERNELS[k] {
            "hpcc_dgemm" => {
                let (a, b, c, ws) = &mut self.dgemm;
                dgemm_with(DGEMM_N, 1.0, a, b, 0.0, c, ws);
                self.dgemm_checksum = c.iter().sum::<f64>().to_bits();
            }
            "hpcc_hpl" => {
                let lu = hpl_lu::factor(self.hpl.clone(), HPL_NB, threads)
                    .map_err(|e| format!("hpcc_hpl: {e:?}"))?;
                black_box(lu);
            }
            "hpcc_stream" => {
                black_box(stream::run(STREAM_N, STREAM_REPS));
            }
            "hpcc_ptrans" => {
                let (a, b) = &mut self.ptrans;
                for _ in 0..PTRANS_REPS {
                    ptrans::add_transpose(PTRANS_N, a, b);
                }
            }
            "hpcc_random_access" => {
                black_box(random_access::run(RA_LOG2_TABLE, RA_UPDATES, 1));
            }
            "hpcc_fft" => {
                // Alternate directions: the inverse is 1/n-normalized, so
                // the data stays bounded over any number of passes.
                let (table, data, dir) = &mut self.fft;
                fft_batched_with(table, data, *dir);
                *dir = if *dir == Direction::Forward {
                    Direction::Inverse
                } else {
                    Direction::Forward
                };
            }
            "hpcc_beff" => {
                black_box(beff::run(BEFF.max_log2_size, BEFF.reps));
            }
            "npb_ep" => {
                black_box(ep::run(EP_M, threads));
            }
            "npb_cg" => {
                black_box(cg::run(CG.0, CG.1, CG.2, CG.3));
            }
            "npb_ft" => {
                let (f, ws) = &mut self.ft;
                fft3_with(f, Direction::Forward, ws);
                fft3_with(f, Direction::Inverse, ws);
            }
            "npb_is" => {
                black_box(is::rank_keys(&self.is_keys, 1 << IS_LOG2_MAX));
            }
            "npb_mg" => {
                let (v, u, ws) = &mut self.mg;
                mg::v_cycle_with(u, v, ws);
            }
            "npb_bt" => {
                let (prob, b, u) = &mut self.bt;
                prob.adi_step(u, b);
            }
            "npb_sp" => {
                let (prob, b, u) = &mut self.sp;
                prob.adi_step(u, b);
            }
            "npb_lu" => {
                let (prob, b, u) = &mut self.lu;
                prob.ssor_step(u, b, 1.2);
            }
            other => unreachable!("unknown kernel {other}"),
        }
        Ok(())
    }

    /// One pass over every kernel, traced as `kernels.pass` with a child
    /// span per kernel when `trace` is given. Returns its wall time.
    fn pass(&mut self, trace: Option<(&mut crate::Spans, u64)>) -> Result<u64, String> {
        let start = Instant::now();
        match trace {
            None => (0..KERNELS.len()).try_for_each(|k| self.call(k))?,
            Some((spans, op)) => {
                let root = spans.open("kernels.pass", None, op);
                for (k, id) in KERNELS.iter().enumerate() {
                    spans.time(id, Some(root), op, || self.call(k))?;
                }
                spans.close(root);
            }
        }
        Ok(start.elapsed().as_nanos() as u64)
    }
}

/// Build the suite `SETUP_REPEATS` times, then warm the last one up
/// with an untimed pass; returns it and every set-up time.
fn set_up(seed: u64) -> Result<(Suite, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut suite = None;
    for _ in 0..SETUP_REPEATS {
        drop(suite.take());
        let t = Instant::now();
        suite = Some(Suite::new(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    let mut suite = suite.expect("SETUP_REPEATS ≥ 1");
    suite.pass(None)?;
    Ok((suite, times))
}

/// Run every kernel's own scaled verification once, untimed.
fn verify_all(report: &mut Report) {
    let threads = rayon::current_num_threads();
    let hpcc = hpcc::full_suite(&presets::xeon_e5462());
    let npb = Program::ALL.map(|p| p.benchmark(Class::C));
    for b in hpcc.iter().chain(&npb) {
        let out = b.verify(threads);
        report.check(out.passed, &format!("{} verifies: {}", b.display_name(), out.detail));
    }
}

/// The `kernels` workload.
pub fn run(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let passes = ctx.work(PASSES_PER_S);
    let (mut suite, setups) = set_up(ctx.seed)?;
    let reference = suite.dgemm_checksum;
    let (mut untraced, mut traced) = (Vec::with_capacity(passes), Vec::new());
    let mut same_checksum = true;
    let started = Instant::now();
    for p in 0..passes {
        if ctx.traces(p as u64) {
            traced.push(suite.pass(Some((&mut ctx.spans, p as u64)))?);
        } else {
            untraced.push(suite.pass(None)?);
        }
        same_checksum &= suite.dgemm_checksum == reference;
    }
    let wall_s = started.elapsed().as_secs_f64();
    report.ops((passes * KERNELS.len()) as u64, 0);
    report.check(same_checksum, "hpcc_dgemm output is bitwise identical in every pass");
    verify_all(report);
    if ctx.traced {
        let cover = ctx.spans.coverage("kernels.pass");
        layer_report(&mut suite, &ctx.spans, &untraced, report)?;
        tracing_overhead(report, &traced, &untraced, cover);
        check_coverage(report, cover);
    } else {
        end_to_end(report, &setups, &untraced, passes as f64 / wall_s);
    }
    Ok(())
}

/// The kernel layer metrics for another workload's traced run.
pub fn probe(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let mut suite = Suite::new(ctx.seed);
    suite.pass(None)?;
    let mut host = Vec::with_capacity(PROBE_PASSES);
    for p in 0..PROBE_PASSES {
        host.push(suite.pass(Some((&mut ctx.spans, (1 << 50) + p as u64)))?);
    }
    report.ops((PROBE_PASSES * KERNELS.len()) as u64, 0);
    layer_report(&mut suite, &ctx.spans, &host, report)
}

/// Per-kernel median call time and rate from the traced passes, the
/// computed intensity, and the speed-up of the host width over a plain
/// single-thread pass.
fn layer_report(
    suite: &mut Suite,
    spans: &crate::Spans,
    host_pass_ns: &[u64],
    report: &mut Report,
) -> Result<(), String> {
    for (k, id) in KERNELS.iter().enumerate() {
        let s = stats::median_ns(&spans.per_op_ns(id)) as f64 / 1e9;
        let (ops, bytes) = work(k);
        println!("info {id} ops_per_byte {} (computed)", ops / bytes);
        report.metric(format!("kernel.{id}.s"), s, "s");
        report.metric(format!("kernel.{id}.gflops"), ops / s / 1e9, "GFLOP/s");
    }
    let width1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?
        .install(|| (0..WIDTH1_PASSES).map(|_| suite.pass(None)).collect::<Result<Vec<_>, _>>())?;
    report.ops((WIDTH1_PASSES * KERNELS.len()) as u64, 0);
    let ratio = stats::median_ns(&width1) as f64 / stats::median_ns(host_pass_ns) as f64;
    report.metric("kernels.speedup_vs_width1", ratio, "ratio");
    Ok(())
}
