//! HPCC DGEMM — dense matrix-matrix multiply.
//!
//! `C ← α·A·B + β·C` with square matrices, blocked for cache and
//! rayon-parallel over row panels. The HPCC suite's pure compute-bound
//! member: arithmetic intensity grows linearly with the blocking factor,
//! so its signature anchors the high end of the regression training set.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::simd;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};
use crate::tile::TilePlan;

/// The pre-autotuner cache block edge. The multiply itself now blocks
/// by a [`TilePlan`] (cache-geometry-derived MC/KC/NC); this constant
/// survives as the analytic blocking factor in [`Dgemm::signature`],
/// which models the paper-era machines and must stay bitwise-stable
/// under the committed tune/trace baselines.
pub const BLOCK: usize = 48;

// Logical trace addresses. The multiply reads A and the *packed* B
// tiles (that is its real access stream), and reads+writes C; packing
// streams B once. Chunk ids: row panels use their panel index, packing
// strips use `TRACE_PACK_CHUNK + tk` so the two phases never collide.
const TRACE_A: u64 = 0x1_0000_0000;
const TRACE_B: u64 = 0x2_0000_0000;
const TRACE_C: u64 = 0x3_0000_0000;
const TRACE_PACKED: u64 = 0x4_0000_0000;
const TRACE_PACK_CHUNK: u64 = 1 << 32;

/// Caller-owned scratch for [`dgemm_with`]: B packed once per call into
/// KC×NC tiles at a fixed stride, blocked by a [`TilePlan`]. Owning it
/// across calls (the `FtWorkspace` pattern) makes the multiply
/// allocation-free after warm-up — `tests/alloc_free.rs` pins zero
/// allocations per call at width 1 — and packing *once* replaces the
/// old per-row-panel packing, which re-copied every tile of B for each
/// row panel.
#[derive(Debug, Clone)]
pub struct DgemmWorkspace {
    n: usize,
    /// The blocking plan every phase of the multiply follows.
    plan: TilePlan,
    /// Tile columns (`⌈n/NC⌉`); tile rows are `⌈n/KC⌉`.
    jtiles: usize,
    /// Tile `(tk, tj)` starts at `(tk·jtiles + tj)·KC·NC`, holding its
    /// `kw×jw` elements row-major and contiguous.
    packed: Vec<f64>,
}

impl DgemmWorkspace {
    /// Workspace for multiplies of order `n`, blocked by the
    /// process-wide [`TilePlan::active`] plan.
    pub fn new(n: usize) -> Self {
        Self::with_plan(n, TilePlan::active())
    }

    /// Workspace blocked by an explicit plan (the determinism suite
    /// uses this to pin plan-invariance; `kc` must be a multiple of 4
    /// for the bitwise contract, which every [`TilePlan`] constructor
    /// guarantees).
    pub fn with_plan(n: usize, plan: TilePlan) -> Self {
        let ktiles = n.div_ceil(plan.kc).max(1);
        let jtiles = n.div_ceil(plan.nc).max(1);
        Self { n, plan, jtiles, packed: vec![0.0; ktiles * jtiles * plan.tile_elems()] }
    }

    /// The blocking plan this workspace was sized for.
    pub fn plan(&self) -> TilePlan {
        self.plan
    }

    /// Pack `b` (row-major `n×n`) into the tile layout. Parallel over
    /// tile rows — disjoint writes, so width-invariant.
    fn pack_b(&mut self, b: &[f64]) {
        let n = self.n;
        let TilePlan { kc, nc, .. } = self.plan;
        let slot = self.plan.tile_elems();
        let jtiles = self.jtiles;
        self.packed.par_chunks_mut(jtiles * slot).enumerate().for_each(|(tk, strip)| {
            let mut log = hooks::chunk(Region::Dgemm, TRACE_PACK_CHUNK + tk as u64);
            let kb = tk * kc;
            let kw = kc.min(n - kb);
            for (tj, tile) in strip.chunks_mut(slot).enumerate() {
                let jb = tj * nc;
                let jw = nc.min(n - jb);
                for (kk, trow) in tile.chunks_mut(jw).take(kw).enumerate() {
                    let src = (kb + kk) * n + jb;
                    trow.copy_from_slice(&b[src..src + jw]);
                    if let Some(log) = log.as_mut() {
                        let dst = (tk * jtiles + tj) * slot + kk * jw;
                        let w = jw as u32;
                        log.record(AccessKind::Read, TRACE_B + (src * 8) as u64, 8, w);
                        log.record(AccessKind::Write, TRACE_PACKED + (dst * 8) as u64, 8, w);
                    }
                }
            }
        });
    }

    /// The packed `kw×jw` tile covering `B[kb.., jb..]`.
    #[inline]
    fn tile(&self, tk: usize, tj: usize, kw: usize, jw: usize) -> &[f64] {
        let at = (tk * self.jtiles + tj) * self.plan.tile_elems();
        &self.packed[at..at + kw * jw]
    }
}

/// The DGEMM benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Dgemm {
    /// Matrix order.
    pub n: u64,
}

impl Dgemm {
    /// Size the three matrices to occupy `bytes` of memory.
    pub fn for_memory(bytes: f64) -> Self {
        Self { n: ((bytes / 24.0).sqrt() as u64).max(64) }
    }

    /// Total multiply-add flops `2·n³` plus the scale/accumulate `2·n²`.
    pub fn flops(&self) -> f64 {
        let n = self.n as f64;
        2.0 * n.powi(3) + 2.0 * n * n
    }
}

/// `c ← alpha·a·b + beta·c` for row-major square matrices, blocked and
/// parallel over row panels. Allocates a fresh [`DgemmWorkspace`] per
/// call; hot loops should hold one and call [`dgemm_with`].
pub fn dgemm(n: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64]) {
    let mut ws = DgemmWorkspace::new(n);
    dgemm_with(n, alpha, a, b, beta, c, &mut ws);
}

/// [`dgemm`] against a caller-owned workspace; performs no heap
/// allocation. B is packed once into the workspace plan's KC×NC tiles
/// (L1-resident by construction, see [`TilePlan`]) shared by every row
/// panel, then each MC-row panel streams its C rows through the SIMD
/// micro-kernel: a fused broadcast-A register tile
/// (`simd::tile_row_update`) over unit-stride packed-B rows, with the
/// C row held in registers across the whole k loop.
/// Per-element arithmetic and association order are independent of the
/// pool width, the bitwise SIMD path *and* the tile plan (interior KC
/// is a multiple of 4, so the micro-kernel's quad/single k grouping is
/// plan-invariant), so results are bitwise deterministic across
/// `HPCEVAL_THREADS` × bitwise `HPCEVAL_SIMD` modes × tile plans.
pub fn dgemm_with(
    n: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    ws: &mut DgemmWorkspace,
) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert_eq!(c.len(), n * n);
    assert_eq!(ws.n, n, "workspace must match the matrix order");
    // Resolve the SIMD path once on the caller's thread and capture it
    // into the parallel closure (workers never consult the mode).
    let m = simd::mode();
    // Pack and panel phases get separate trace epochs: repeated dgemm
    // calls reuse the same chunk ids, and within one call the pack
    // happens before the panels even though its ids sort after them.
    hooks::begin_epoch(Region::Dgemm);
    ws.pack_b(b);
    let ws = &*ws;
    let TilePlan { mc, kc, nc } = ws.plan;
    hooks::begin_epoch(Region::Dgemm);
    c.par_chunks_mut(n * mc.max(1)).enumerate().for_each(|(panel, cpanel)| {
        let mut log = hooks::chunk(Region::Dgemm, panel as u64);
        let r0 = panel * mc;
        let rows = cpanel.len() / n;
        // Scale the C panel by beta once.
        simd::scale_in_place(m, cpanel, beta);
        if let Some(log) = log.as_mut() {
            let at = TRACE_C + (r0 * n * 8) as u64;
            log.record(AccessKind::Read, at, 8, (rows * n) as u32);
            log.record(AccessKind::Write, at, 8, (rows * n) as u32);
        }
        let mut kb = 0;
        let mut tk = 0;
        while kb < n {
            let kw = kc.min(n - kb);
            let mut jb = 0;
            let mut tj = 0;
            while jb < n {
                let jw = nc.min(n - jb);
                let bt = ws.tile(tk, tj, kw, jw);
                if let Some(log) = log.as_mut() {
                    let at =
                        TRACE_PACKED + ((tk * ws.jtiles + tj) * ws.plan.tile_elems() * 8) as u64;
                    log.record(AccessKind::Read, at, 8, (kw * jw) as u32);
                }
                for r in 0..rows {
                    let arow = &a[(r0 + r) * n + kb..(r0 + r) * n + kb + kw];
                    let crow = &mut cpanel[r * n + jb..r * n + jb + jw];
                    if let Some(log) = log.as_mut() {
                        let a_at = TRACE_A + (((r0 + r) * n + kb) * 8) as u64;
                        let c_at = TRACE_C + (((r0 + r) * n + jb) * 8) as u64;
                        log.record(AccessKind::Read, a_at, 8, kw as u32);
                        log.record(AccessKind::Read, c_at, 8, jw as u32);
                        log.record(AccessKind::Write, c_at, 8, jw as u32);
                    }
                    simd::tile_row_update(m, crow, bt, arow, alpha);
                }
                jb += jw;
                tj += 1;
            }
            kb += kw;
            tk += 1;
        }
    });
}

/// Naive triple loop for verification.
pub fn dgemm_naive(n: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64]) {
    for r in 0..n {
        for col in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += a[r * n + k] * b[k * n + col];
            }
            c[r * n + col] = alpha * s + beta * c[r * n + col];
        }
    }
}

impl Benchmark for Dgemm {
    fn id(&self) -> &'static str {
        "dgemm"
    }

    fn display_name(&self) -> String {
        format!("dgemm.n{}", self.n)
    }

    fn signature(&self) -> WorkloadSignature {
        let n = self.n as f64;
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: self.flops(),
            work_ops: self.flops(),
            // Each element re-read n/BLOCK times across block sweeps.
            dram_bytes: 8.0 * n * n * (n / BLOCK as f64) * 1.2,
            footprint_bytes: 24.0 * n * n,
            footprint_per_proc_bytes: 8.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.005,
            cpu_intensity: 1.0,
            kind: ComputeKind::Vector,
            locality: LocalityProfile::dense_blocked(),
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::Any
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let n = 96;
        let mut rng = NpbRng::new(4242);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let c0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut fast = c0.clone();
        let mut slow = c0;
        dgemm(n, 1.5, &a, &b, 0.5, &mut fast);
        dgemm_naive(n, 1.5, &a, &b, 0.5, &mut slow);
        let max_err = fast.iter().zip(&slow).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
        if max_err < 1e-10 {
            VerifyOutcome::pass(
                format!("n={n} blocked vs naive max err {max_err:.2e}"),
                2.0 * (n as f64).powi(3),
            )
        } else {
            VerifyOutcome::fail(format!("blocked multiply diverges: {max_err:.3e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiply_by_identity_is_identity_map() {
        let n = 16;
        let mut rng = NpbRng::new(8);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64()).collect();
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut c = vec![0.0; n * n];
        dgemm(n, 1.0, &a, &eye, 0.0, &mut c);
        for (x, y) in c.iter().zip(&a) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_scaling_applied() {
        let n = 8;
        let a = vec![0.0; n * n];
        let b = vec![0.0; n * n];
        let mut c = vec![2.0; n * n];
        dgemm(n, 1.0, &a, &b, 0.25, &mut c);
        assert!(c.iter().all(|&v| (v - 0.5).abs() < 1e-15));
    }

    #[test]
    fn verify_passes() {
        let out = Dgemm { n: 512 }.verify(4);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn blocked_handles_non_multiple_sizes() {
        let n = BLOCK + 13;
        let mut rng = NpbRng::new(77);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut fast = vec![0.0; n * n];
        let mut slow = vec![0.0; n * n];
        dgemm(n, 1.0, &a, &b, 0.0, &mut fast);
        dgemm_naive(n, 1.0, &a, &b, 0.0, &mut slow);
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn tile_plan_choice_is_bitwise_neutral() {
        // Any plan with KC ≡ 0 (mod 4) must produce the exact bits of
        // any other: tile boundaries never change the micro-kernel's
        // quad/single k grouping, and MC/NC only repartition work.
        let n = 160;
        let mut rng = NpbRng::new(2015);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let c0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let plans = [
            TilePlan { mc: 48, kc: 48, nc: 48 }, // the legacy BLOCK shape
            TilePlan { mc: 64, kc: 128, nc: 128 },
            TilePlan { mc: 8, kc: 4, nc: 8 },
            TilePlan::active(),
        ];
        let mut base: Option<Vec<f64>> = None;
        for plan in plans {
            let mut c = c0.clone();
            let mut ws = DgemmWorkspace::with_plan(n, plan);
            dgemm_with(n, 1.5, &a, &b, 0.5, &mut c, &mut ws);
            match &base {
                None => base = Some(c),
                Some(want) => {
                    for (i, (x, y)) in c.iter().zip(want).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "plan {plan:?} diverges at {i}: {x:e} vs {y:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signature_is_compute_bound() {
        let sig = Dgemm { n: 4096 }.signature();
        assert!(sig.arithmetic_intensity() > 5.0);
    }
}
