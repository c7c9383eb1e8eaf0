//! NPB LU — the Lower-Upper Gauss-Seidel (SSOR) pseudo-application.
//!
//! LU integrates the Navier–Stokes equations with a Symmetric Successive
//! Over-Relaxation scheme: each iteration performs a *lower-triangular*
//! sweep (points updated in increasing x+y+z wavefront order, consuming
//! freshly updated upstream neighbours) followed by an *upper-triangular*
//! sweep in the reverse order. The wavefront dependency is what gives the
//! MPI version its pipelined communication pattern.
//!
//! Class grids: A = 64³, B = 102³, C = 162³, 250 SSOR iterations each
//! (official op counts: LU.A = 119,280 Mop ⇒ ~1820 flop/point/iter).

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, ChunkLog, Region};
use rayon::prelude::*;

use crate::rng::NpbRng;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

use super::block5::{vnorm, vsub, Mat5, Vec5};
use super::Class;

// Logical trace addresses for the SSOR sweeps. Each triangular sweep
// (lower, then upper) is its own epoch; the chunk id is the grid point
// index, which the wavefront decomposition fixes independently of the
// worker count. The 5-vector fields stride 40 bytes per point, the
// cached 5×5 diagonal inverses 200.
const TRACE_U: u64 = 0x1_0000_0000;
const TRACE_B: u64 = 0x2_0000_0000;
const TRACE_DINV: u64 = 0x3_0000_0000;
/// Bytes per grid point of a [`Vec5`] field.
const VEC5_BYTES: usize = 40;
/// Bytes per grid point of a [`Mat5`] field.
const MAT5_BYTES: usize = 200;

/// Reported flops per grid point per SSOR iteration.
pub const FLOPS_PER_POINT_ITER: f64 = 1820.0;
/// SSOR iterations, fixed per the NPB specification.
pub const ITERATIONS: u32 = 250;

/// The LU benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    class: Class,
}

impl Lu {
    /// LU at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// Grid edge for the class.
    pub fn edge(&self) -> u64 {
        match self.class {
            Class::W => 33,
            Class::A => 64,
            Class::B => 102,
            Class::C => 162,
        }
    }
}

/// An SSOR problem: `A = D + L + U` where `D` holds per-point diagonally
/// dominant 5×5 blocks and `L`/`U` couple the three lower/upper
/// neighbours with `−c·I`.
#[derive(Debug, Clone)]
pub struct SsorProblem {
    /// Grid edge.
    pub n: usize,
    /// Neighbour coupling strength.
    pub coupling: f64,
    /// Per-point diagonal blocks.
    pub diag: Vec<Mat5>,
    /// Cached inverses of the diagonal blocks.
    pub diag_inv: Vec<Mat5>,
}

impl SsorProblem {
    /// Build a problem of edge `n`.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = NpbRng::new(seed);
        let diag: Vec<Mat5> = (0..n * n * n).map(|_| Mat5::diag_dominant(&mut rng)).collect();
        let diag_inv = diag
            .iter()
            .map(|m| m.inverse().expect("diagonally dominant blocks are invertible"))
            .collect();
        Self { n, coupling: 0.15, diag, diag_inv }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.n + y) * self.n + x
    }

    /// Apply `A·u` (Dirichlet exterior); parallel over grid points —
    /// each output point is an independent read-only stencil, so the
    /// result is width-invariant.
    pub fn apply(&self, u: &[Vec5]) -> Vec<Vec5> {
        let n = self.n;
        let mut out = vec![[0.0; 5]; u.len()];
        out.par_iter_mut().enumerate().for_each(|(i, o)| {
            let x = i % n;
            let y = (i / n) % n;
            let z = i / (n * n);
            let mut acc = self.diag[i].matvec(&u[i]);
            let mut nb = |j: usize| {
                for c in 0..5 {
                    acc[c] -= self.coupling * u[j][c];
                }
            };
            if x > 0 {
                nb(self.idx(x - 1, y, z));
            }
            if y > 0 {
                nb(self.idx(x, y - 1, z));
            }
            if z > 0 {
                nb(self.idx(x, y, z - 1));
            }
            if x + 1 < n {
                nb(self.idx(x + 1, y, z));
            }
            if y + 1 < n {
                nb(self.idx(x, y + 1, z));
            }
            if z + 1 < n {
                nb(self.idx(x, y, z + 1));
            }
            *o = acc;
        });
        out
    }

    /// One SSOR iteration with relaxation factor `omega` on `A·u = b`.
    ///
    /// Lower sweep: solve `(D + ω·L)·u* = rhs` in wavefront order;
    /// upper sweep: `(D + ω·U)` in reverse. This is the sequential
    /// dependency chain the NPB pipelines across ranks — and the
    /// wavefront is exactly how this implementation parallelizes it:
    /// the points of hyperplane `x+y+z = k` are mutually independent
    /// (the 7-point stencil's neighbours all live on planes `k ± 1`),
    /// and the lexicographic serial sweep gives every point of plane
    /// `k` fresh plane-`k−1` values and stale plane-`k+1` values —
    /// precisely what a plane-at-a-time update computes. The parallel
    /// sweep is therefore *bitwise identical* to the serial one at any
    /// pool width (pinned by `wavefront_matches_lexicographic_sweep`).
    pub fn ssor_step(&self, u: &mut [Vec5], b: &[Vec5], omega: f64) {
        let n = self.n;
        if n == 0 {
            return;
        }
        // Per-sweep scratch: plane point indices and their new values
        // (a cube cross-section never exceeds n² points).
        let mut idx: Vec<usize> = Vec::with_capacity(n * n);
        let mut val: Vec<Vec5> = vec![[0.0; 5]; n * n];
        let kmax = 3 * (n - 1);
        // Lower-triangular sweep (Gauss-Seidel with fresh lower points).
        hooks::begin_epoch(Region::Lu);
        for k in 0..=kmax {
            self.relax_plane(u, b, k, omega, &mut idx, &mut val);
        }
        // Upper-triangular sweep.
        hooks::begin_epoch(Region::Lu);
        for k in (0..=kmax).rev() {
            self.relax_plane(u, b, k, omega, &mut idx, &mut val);
        }
    }

    /// Record the memory traffic of relaxing point `i` into its log:
    /// the 7-point `u` stencil (one strided read per axis covering the
    /// present neighbours), the right-hand side, and the cached diagonal
    /// inverse. Reads only — the scatter loop records the write.
    fn trace_point(&self, log: &mut ChunkLog, i: usize) {
        let n = self.n;
        let (x, y, z) = (i % n, (i / n) % n, i / (n * n));
        log.record(AccessKind::Read, TRACE_DINV + (i * MAT5_BYTES) as u64, 8, 25);
        log.record(AccessKind::Read, TRACE_B + (i * VEC5_BYTES) as u64, 8, 5);
        for (coord, step) in [(x, 1), (y, n), (z, n * n)] {
            let lo = if coord > 0 { i - step } else { i };
            let hi = if coord + 1 < n { i + step } else { i };
            let count = ((hi - lo) / step + 1) as u32;
            let at = TRACE_U + (lo * VEC5_BYTES) as u64;
            log.record(AccessKind::Read, at, (step * VEC5_BYTES) as u32, count);
        }
    }

    /// Relax every point of hyperplane `x+y+z = k`: gather the plane's
    /// indices, compute all new values in parallel against the frozen
    /// `u`, then scatter serially. Computing into `val` first keeps the
    /// parallel stage free of writes to `u` (no unsafe scatter needed).
    fn relax_plane(
        &self,
        u: &mut [Vec5],
        b: &[Vec5],
        k: usize,
        omega: f64,
        idx: &mut Vec<usize>,
        val: &mut [Vec5],
    ) {
        let n = self.n;
        idx.clear();
        for z in k.saturating_sub(2 * (n - 1))..=k.min(n - 1) {
            let rem = k - z;
            for y in rem.saturating_sub(n - 1)..=rem.min(n - 1) {
                idx.push(self.idx(rem - y, y, z));
            }
        }
        let m = idx.len();
        {
            let u_read: &[Vec5] = u;
            val[..m].par_iter_mut().zip(&idx[..m]).for_each(|(slot, &i)| {
                if let Some(mut log) = hooks::chunk(Region::Lu, i as u64) {
                    self.trace_point(&mut log, i);
                }
                *slot = self.relaxed_value(u_read, b, i, omega);
            });
        }
        for (&i, v) in idx.iter().zip(&val[..m]) {
            if let Some(mut log) = hooks::chunk(Region::Lu, i as u64) {
                let at = TRACE_U + (i * VEC5_BYTES) as u64;
                log.record(AccessKind::Write, at, VEC5_BYTES as u32, 1);
            }
            u[i] = *v;
        }
    }

    /// The SSOR update `u_i ← (1−ω)·u_i + ω·D⁻¹·r` with
    /// `r = b − (L+U)·u` at point `i`, returned rather than written.
    #[inline]
    fn relaxed_value(&self, u: &[Vec5], b: &[Vec5], i: usize, omega: f64) -> Vec5 {
        let n = self.n;
        let x = i % n;
        let y = (i / n) % n;
        let z = i / (n * n);
        let mut r = b[i];
        let nb = |j: usize, r: &mut Vec5| {
            for c in 0..5 {
                r[c] += self.coupling * u[j][c];
            }
        };
        if x > 0 {
            nb(self.idx(x - 1, y, z), &mut r);
        }
        if y > 0 {
            nb(self.idx(x, y - 1, z), &mut r);
        }
        if z > 0 {
            nb(self.idx(x, y, z - 1), &mut r);
        }
        if x + 1 < n {
            nb(self.idx(x + 1, y, z), &mut r);
        }
        if y + 1 < n {
            nb(self.idx(x, y + 1, z), &mut r);
        }
        if z + 1 < n {
            nb(self.idx(x, y, z + 1), &mut r);
        }
        let dinv_r = self.diag_inv[i].matvec(&r);
        let mut out = [0.0; 5];
        for c in 0..5 {
            out[c] = (1.0 - omega) * u[i][c] + omega * dinv_r[c];
        }
        out
    }

    /// `‖b − A·u‖₂`.
    pub fn residual_norm(&self, u: &[Vec5], b: &[Vec5]) -> f64 {
        let au = self.apply(u);
        au.iter().zip(b).map(|(x, y)| vnorm(&vsub(y, x)).powi(2)).sum::<f64>().sqrt()
    }
}

impl Benchmark for Lu {
    fn id(&self) -> &'static str {
        "lu"
    }

    fn display_name(&self) -> String {
        format!("lu.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let pts = (self.edge().pow(3)) as f64;
        let flops = FLOPS_PER_POINT_ITER * pts * f64::from(ITERATIONS);
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: flops,
            work_ops: flops * 1.1,
            dram_bytes: flops * 0.4,
            footprint_bytes: pts * 280.0, // ~7 five-component arrays
            footprint_per_proc_bytes: 20.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.15, // pipelined wavefront exchanges
            cpu_intensity: 0.85,
            kind: ComputeKind::Mixed(0.65),
            locality: LocalityProfile {
                instr_per_op: 1.45,
                accesses_per_instr: 0.38,
                l1_hit: 0.88,
                l2_hit: 0.06,
                l3_hit: 0.03,
                mem: 0.03,
                write_fraction: 0.3,
            },
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::PowerOfTwo
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let n = 10;
        let prob = SsorProblem::new(n, 271_828);
        let mut rng = NpbRng::new(7);
        let u_true: Vec<Vec5> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let b = prob.apply(&u_true);
        let mut u = vec![[0.0; 5]; n * n * n];
        let r0 = prob.residual_norm(&u, &b);
        for _ in 0..10 {
            prob.ssor_step(&mut u, &b, 1.2);
        }
        let r = prob.residual_norm(&u, &b);
        if r < r0 * 1e-4 {
            VerifyOutcome::pass(
                format!("SSOR converged: residual {r0:.3e} -> {r:.3e} in 10 sweeps"),
                FLOPS_PER_POINT_ITER * (n * n * n) as f64 * 10.0,
            )
        } else {
            VerifyOutcome::fail(format!("SSOR stalled: {r0:.3e} -> {r:.3e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssor_converges_monotonically() {
        let n = 6;
        let p = SsorProblem::new(n, 42);
        let mut rng = NpbRng::new(5);
        let b: Vec<Vec5> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let mut u = vec![[0.0; 5]; n * n * n];
        let mut last = p.residual_norm(&u, &b);
        for _ in 0..5 {
            p.ssor_step(&mut u, &b, 1.0);
            let r = p.residual_norm(&u, &b);
            assert!(r < last, "{r} !< {last}");
            last = r;
        }
    }

    #[test]
    fn over_relaxation_beats_gauss_seidel_here() {
        let n = 6;
        let p = SsorProblem::new(n, 42);
        let mut rng = NpbRng::new(5);
        let b: Vec<Vec5> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let r0 = {
            let u = vec![[0.0; 5]; n * n * n];
            p.residual_norm(&u, &b)
        };
        let run = |omega: f64| {
            let mut u = vec![[0.0; 5]; n * n * n];
            for _ in 0..4 {
                p.ssor_step(&mut u, &b, omega);
            }
            p.residual_norm(&u, &b)
        };
        // Both relaxation factors must contract by orders of magnitude
        // within 4 sweeps.
        assert!(run(1.2) < r0 * 1e-3, "omega=1.2: {} vs r0={r0}", run(1.2));
        assert!(run(1.0) < r0 * 1e-3, "omega=1.0: {} vs r0={r0}", run(1.0));
    }

    #[test]
    fn recovers_manufactured_solution() {
        let n = 5;
        let p = SsorProblem::new(n, 9);
        let u_true = vec![[1.0, -0.5, 0.25, 2.0, 0.0]; n * n * n];
        let b = p.apply(&u_true);
        let mut u = vec![[0.0; 5]; n * n * n];
        for _ in 0..30 {
            p.ssor_step(&mut u, &b, 1.1);
        }
        for (a, t) in u.iter().zip(&u_true) {
            for c in 0..5 {
                assert!((a[c] - t[c]).abs() < 1e-8, "{} vs {}", a[c], t[c]);
            }
        }
    }

    #[test]
    fn verify_passes() {
        let out = Lu::new(Class::C).verify(2);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn wavefront_matches_lexicographic_sweep() {
        // The parallel hyperplane sweep must be bitwise identical to the
        // serial lexicographic Gauss-Seidel order it replaces.
        let n = 7;
        let p = SsorProblem::new(n, 12_345);
        let mut rng = NpbRng::new(77);
        let b: Vec<Vec5> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let mut wavefront = vec![[0.125; 5]; n * n * n];
        let mut lex = wavefront.clone();
        for _ in 0..3 {
            p.ssor_step(&mut wavefront, &b, 1.2);
            // Serial reference: lexicographic lower sweep, reverse upper.
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let i = p.idx(x, y, z);
                        lex[i] = p.relaxed_value(&lex, &b, i, 1.2);
                    }
                }
            }
            for z in (0..n).rev() {
                for y in (0..n).rev() {
                    for x in (0..n).rev() {
                        let i = p.idx(x, y, z);
                        lex[i] = p.relaxed_value(&lex, &b, i, 1.2);
                    }
                }
            }
        }
        assert_eq!(wavefront, lex);
    }

    #[test]
    fn class_flops_match_official_counts() {
        // LU.A ≈ 1.193e11 (official 119,280 Mop).
        let sig = Lu::new(Class::A).signature();
        assert!((sig.reported_flops - 1.193e11).abs() / 1.193e11 < 0.01);
    }
}
