//! Per-op SIMD microbenchmark for the `hpceval_kernels::simd` layer.
//!
//! Times each primitive on the scalar path and, where the host has
//! AVX2, on the avx2 path, printing best-of-5 wall times and the avx2
//! speedup over scalar. This is the triage tool behind the
//! EXPERIMENTS.md sweep rows: kernel-level speedups (the `kernels`
//! workload of `benchmark/`) decompose into these per-op numbers — e.g. the dot keeps its full
//! vector gain at any footprint while axpy/triad collapse toward 1×
//! beyond L1, where the memory bus, not the instruction width, is the
//! limit.
//!
//! ```sh
//! cargo run --release -p hpceval-bench --example simd_microbench
//! ```

use std::hint::black_box;
use std::time::Instant;

use hpceval_kernels::simd::{self, SimdMode};
use hpceval_kernels::tile::TilePlan;

/// Best-of-5 wall time after 3 warm-up calls.
fn best_of(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Run `f` on the scalar path and, with AVX2, on the avx2 path, and
/// report the speedup.
fn sweep(name: &str, mut f: impl FnMut(SimdMode)) {
    let scalar = best_of(|| f(SimdMode::Scalar));
    let mut line = format!("{name:>14}  scalar {:8.3} ms", scalar * 1e3);
    if simd::avx2_available() {
        let avx2 = best_of(|| f(SimdMode::Avx2));
        line.push_str(&format!("  avx2 {:8.3} ms ({:.2}x)", avx2 * 1e3, scalar / avx2));
    }
    println!("{line}");
}

fn main() {
    if !simd::avx2_available() {
        println!("note: no AVX2 detected — only the scalar path runs");
    }
    let n = 1 << 16; // 512 KiB/vector: past L1, short of L3
    let a: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let mut c = vec![0.0f64; n];
    let reps = 2000;

    sweep("axpy", |m| {
        for _ in 0..reps {
            simd::axpy(m, &mut c, &a, 1.000_000_1);
        }
        black_box(&c);
    });
    sweep("triad", |m| {
        for _ in 0..reps {
            simd::triad(m, &mut c, &a, &b, 3.0);
        }
        black_box(&c);
    });
    sweep("dot", |m| {
        let mut s = 0.0;
        for _ in 0..reps {
            s += simd::dot(m, &a, &b);
        }
        black_box(s);
    });

    // The DGEMM register tile at the legacy 48×48 shape and at the
    // autotuner's active KC×NC pick (48×48 again at the reference
    // geometry; differs under an HPCEVAL_SPEC pin).
    let bt: Vec<f64> = (0..48 * 48).map(|i| (i as f64).cos()).collect();
    let mut crow = vec![0.0f64; 48];
    sweep("tile 48x48", |m| {
        for _ in 0..reps * 20 {
            simd::tile_row_update(m, &mut crow, &bt, &a[..48], 1.000_000_1);
        }
        black_box(&crow);
    });
    let plan = TilePlan::active();
    let (kc, nc) = (plan.kc, plan.nc);
    let bt: Vec<f64> = (0..kc * nc).map(|i| (i as f64).cos()).collect();
    let mut crow = vec![0.0f64; nc];
    // Same flop budget as the 48×48 row for comparable times.
    let tile_reps = (reps * 20 * 48 * 48 / (kc * nc)).max(1);
    sweep(&format!("tile {kc}x{nc}"), |m| {
        for _ in 0..tile_reps {
            simd::tile_row_update(m, &mut crow, &bt, &a[..kc], 1.000_000_1);
        }
        black_box(&crow);
    });
}
