//! NPB SP — the Scalar Penta-diagonal pseudo-application.
//!
//! SP uses the same ADI time-stepping skeleton as BT, but its implicit
//! systems are *scalar* pentadiagonal along each grid line (the 5×5
//! blocks are diagonalized first), solved component by component. Like
//! BT it requires a perfect-square process count; unlike BT it
//! communicates the most of the suite — the paper's §VI-C singles SP out
//! (with EP at the opposite extreme) as the programs the regression fits
//! worst, precisely because communication power is invisible to the six
//! PMU indicators.
//!
//! Class grids: A = 64³ / 400 steps, B = 102³ / 400, C = 162³ / 400.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

use super::Class;

// Logical trace addresses for the ADI line solves. Each direction
// sweep is its own epoch; within a sweep the chunk id is the lane
// (line × component) index, whose decomposition never depends on the
// worker count.
const TRACE_U: u64 = 0x1_0000_0000;
const TRACE_B: u64 = 0x2_0000_0000;
const TRACE_DIAG: u64 = 0x3_0000_0000;
const TRACE_AU: u64 = 0x4_0000_0000;

/// Reported flops per grid point per time step (official NPB counts:
/// SP.A = 102,300 Mop over 64³ × 400 ⇒ ~975).
pub const FLOPS_PER_POINT_STEP: f64 = 975.0;
/// ADI time steps, fixed per the NPB specification.
pub const STEPS: u32 = 400;

/// The SP benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Sp {
    class: Class,
}

impl Sp {
    /// SP at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// Grid edge for the class.
    pub fn edge(&self) -> u64 {
        match self.class {
            Class::W => 36,
            Class::A => 64,
            Class::B => 102,
            Class::C => 162,
        }
    }
}

/// Solve a scalar pentadiagonal system in place by Gaussian elimination
/// without pivoting (valid for the diagonally dominant systems SP
/// builds):
/// `e·x[i-2] + c·x[i-1] + d[i]·x[i] + a·x[i+1] + f·x[i+2] = rhs[i]`.
///
/// Bands are constant except the main diagonal, mirroring SP's
/// factored operators. Returns `false` on a vanishing pivot.
pub fn penta_solve(
    sub2: f64,
    sub1: f64,
    diag: &[f64],
    sup1: f64,
    sup2: f64,
    rhs: &mut [f64],
) -> bool {
    let n = diag.len();
    assert_eq!(rhs.len(), n);
    if n == 0 {
        return true;
    }
    // Working copies of the bands that receive fill: eliminating the
    // second subdiagonal of row i+2 with row i fills its first
    // subdiagonal and diagonal, so d/l1/u1 must be tracked per row. The
    // outer bands (i, i−2) and (i, i+2) never change — they stay the
    // scalar constants `sub2`/`sup2`.
    let mut d = diag.to_vec();
    let mut l1 = vec![sub1; n]; // entry (i, i-1); l1[0] unused
    let mut u1 = vec![sup1; n]; // entry (i, i+1)
    for i in 0..n {
        let piv = d[i];
        if piv.abs() < 1e-300 {
            return false;
        }
        // Eliminate x[i] from row i+1 (its l1 entry).
        if i + 1 < n {
            let m = l1[i + 1] / piv;
            d[i + 1] -= m * u1[i];
            if i + 2 < n {
                u1[i + 1] -= m * sup2;
            }
            rhs[i + 1] -= m * rhs[i];
        }
        // Eliminate x[i] from row i+2 (its l2 entry); this fills the
        // row's l1 (column i+1) and touches its diagonal (column i+2).
        if i + 2 < n {
            let m = sub2 / piv;
            l1[i + 2] -= m * u1[i];
            d[i + 2] -= m * sup2;
            rhs[i + 2] -= m * rhs[i];
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut s = rhs[i];
        if i + 1 < n {
            s -= u1[i] * rhs[i + 1];
        }
        if i + 2 < n {
            s -= sup2 * rhs[i + 2];
        }
        rhs[i] = s / d[i];
    }
    true
}

/// A scalar pentadiagonal ADI problem on an `n³` grid with 5 components.
#[derive(Debug, Clone)]
pub struct SpProblem {
    /// Grid edge.
    pub n: usize,
    /// Main diagonal per point and component.
    pub diag: Vec<f64>,
    /// Off-diagonal couplings (±1, ±2 along each line).
    pub c1: f64,
    /// Second-neighbour coupling.
    pub c2: f64,
}

impl SpProblem {
    /// Build a diagonally dominant problem.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = NpbRng::new(seed);
        let diag = (0..n * n * n * 5).map(|_| 2.0 + rng.next_f64()).collect();
        Self { n, diag, c1: -0.18, c2: -0.05 }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize, comp: usize) -> usize {
        (((z * self.n + y) * self.n + x) * 5) + comp
    }

    /// Apply the 3-D pentadiagonal operator.
    pub fn apply(&self, u: &[f64]) -> Vec<f64> {
        let n = self.n;
        (0..u.len())
            .into_par_iter()
            .map(|i| {
                let comp = i % 5;
                let pt = i / 5;
                let x = pt % n;
                let y = (pt / n) % n;
                let z = pt / (n * n);
                let mut acc = self.diag[i] * u[i];
                let mut nb = |xi: isize, yi: isize, zi: isize, w: f64| {
                    if xi >= 0
                        && yi >= 0
                        && zi >= 0
                        && (xi as usize) < n
                        && (yi as usize) < n
                        && (zi as usize) < n
                    {
                        acc += w * u[self.idx(xi as usize, yi as usize, zi as usize, comp)];
                    }
                };
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                for (d, w) in [(1, self.c1), (2, self.c2)] {
                    nb(xi - d, yi, zi, w);
                    nb(xi + d, yi, zi, w);
                    nb(xi, yi - d, zi, w);
                    nb(xi, yi + d, zi, w);
                    nb(xi, yi, zi - d, w);
                    nb(xi, yi, zi + d, w);
                }
                acc
            })
            .collect()
    }

    /// One ADI iteration: x, y, z sweeps of per-line pentadiagonal
    /// solves for each of the 5 components.
    ///
    /// Trace capture (`Region::Sp`): each direction sweep opens a new
    /// epoch, so the x/y/z passes replay in execution order instead of
    /// interleaving; the chunk id is the lane index, making the trace
    /// bitwise width-invariant like the solve itself. Each traced lane
    /// records its strided line reads (u, b, A·u, the diagonal) and the
    /// strided solution write-back — the stride jumps from 5 doubles
    /// (x lines) to `5n`/`5n²` (y/z lines), which is exactly the
    /// locality cliff the replay driver needs to see.
    pub fn adi_step(&self, u: &mut [f64], b: &[f64]) {
        for dir in 0..3 {
            hooks::begin_epoch(Region::Sp);
            let au = self.apply(u);
            let n = self.n;
            // Element stride between consecutive points of a line.
            let stride = (8
                * 5
                * match dir {
                    0 => 1,
                    1 => n,
                    _ => n * n,
                }) as u32;
            let solutions: Vec<(usize, Vec<f64>)> = (0..n * n * 5)
                .into_par_iter()
                .map(|lane| {
                    let comp = lane % 5;
                    let line = lane / 5;
                    let (a, c) = (line % n, line / n);
                    let line_idx = |k: usize| match dir {
                        0 => self.idx(k, a, c, comp),
                        1 => self.idx(a, k, c, comp),
                        _ => self.idx(a, c, k, comp),
                    };
                    if let Some(mut log) = hooks::chunk(Region::Sp, lane as u64) {
                        let at = (line_idx(0) * 8) as u64;
                        let w = n as u32;
                        log.record(AccessKind::Read, TRACE_DIAG + at, stride, w);
                        log.record(AccessKind::Read, TRACE_U + at, stride, w);
                        log.record(AccessKind::Read, TRACE_AU + at, stride, w);
                        log.record(AccessKind::Read, TRACE_B + at, stride, w);
                    }
                    let diag: Vec<f64> = (0..n).map(|k| self.diag[line_idx(k)]).collect();
                    let mut rhs: Vec<f64> = (0..n)
                        .map(|k| {
                            let i = line_idx(k);
                            // Move this line's own operator action back
                            // to the left-hand side.
                            let mut line_part = self.diag[i] * u[i];
                            for (d, w) in [(1usize, self.c1), (2, self.c2)] {
                                if k >= d {
                                    line_part += w * u[line_idx(k - d)];
                                }
                                if k + d < n {
                                    line_part += w * u[line_idx(k + d)];
                                }
                            }
                            b[i] - au[i] + line_part
                        })
                        .collect();
                    let ok = penta_solve(self.c2, self.c1, &diag, self.c1, self.c2, &mut rhs);
                    assert!(ok, "diagonally dominant pentadiagonal solve failed");
                    (lane, rhs)
                })
                .collect();
            for (lane, sol) in solutions {
                let comp = lane % 5;
                let line = lane / 5;
                let (a, c) = (line % n, line / n);
                if let Some(mut log) = hooks::chunk(Region::Sp, lane as u64) {
                    let first = match dir {
                        0 => self.idx(0, a, c, comp),
                        1 => self.idx(a, 0, c, comp),
                        _ => self.idx(a, c, 0, comp),
                    };
                    log.record(AccessKind::Write, TRACE_U + (first * 8) as u64, stride, n as u32);
                }
                for (k, v) in sol.into_iter().enumerate() {
                    let i = match dir {
                        0 => self.idx(k, a, c, comp),
                        1 => self.idx(a, k, c, comp),
                        _ => self.idx(a, c, k, comp),
                    };
                    u[i] = v;
                }
            }
        }
    }

    /// `‖b − A·u‖₂`.
    pub fn residual_norm(&self, u: &[f64], b: &[f64]) -> f64 {
        let au = self.apply(u);
        au.iter().zip(b).map(|(x, y)| (y - x) * (y - x)).sum::<f64>().sqrt()
    }
}

impl Benchmark for Sp {
    fn id(&self) -> &'static str {
        "sp"
    }

    fn display_name(&self) -> String {
        format!("sp.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let pts = (self.edge().pow(3)) as f64;
        let flops = FLOPS_PER_POINT_STEP * pts * f64::from(STEPS);
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: flops,
            work_ops: flops * 1.15,
            dram_bytes: flops * 0.55,
            footprint_bytes: pts * 500.0,
            footprint_per_proc_bytes: 30.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            // The suite's communication-heaviest program (§VI-C).
            comm_fraction: 0.24,
            cpu_intensity: 0.84,
            kind: ComputeKind::Mixed(0.7),
            locality: LocalityProfile {
                instr_per_op: 1.5,
                accesses_per_instr: 0.40,
                l1_hit: 0.86,
                l2_hit: 0.07,
                l3_hit: 0.03,
                mem: 0.04,
                write_fraction: 0.3,
            },
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::Square
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let n = 10;
        let prob = SpProblem::new(n, 8_675_309);
        let mut rng = NpbRng::new(13);
        let u_true: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64()).collect();
        let b = prob.apply(&u_true);
        let mut u = vec![0.0; n * n * n * 5];
        let r0 = prob.residual_norm(&u, &b);
        for _ in 0..8 {
            prob.adi_step(&mut u, &b);
        }
        let r = prob.residual_norm(&u, &b);
        if r < r0 * 1e-3 {
            VerifyOutcome::pass(
                format!("ADI converged: residual {r0:.3e} -> {r:.3e} in 8 steps"),
                FLOPS_PER_POINT_STEP * (n * n * n) as f64 * 8.0,
            )
        } else {
            VerifyOutcome::fail(format!("ADI stalled: {r0:.3e} -> {r:.3e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penta_solve_matches_dense_reference() {
        let n = 9;
        let diag: Vec<f64> = (0..n).map(|i| 3.0 + 0.1 * i as f64).collect();
        let (s2, s1, p1, p2) = (-0.05, -0.2, -0.15, -0.04);
        // Dense assembly.
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            dense[i * n + i] = diag[i];
            if i >= 1 {
                dense[i * n + i - 1] = s1;
            }
            if i >= 2 {
                dense[i * n + i - 2] = s2;
            }
            if i + 1 < n {
                dense[i * n + i + 1] = p1;
            }
            if i + 2 < n {
                dense[i * n + i + 2] = p2;
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
        let mut rhs: Vec<f64> =
            (0..n).map(|r| (0..n).map(|c| dense[r * n + c] * x_true[c]).sum()).collect();
        assert!(penta_solve(s2, s1, &diag, p1, p2, &mut rhs));
        for i in 0..n {
            assert!((rhs[i] - x_true[i]).abs() < 1e-9, "x[{i}]: {} vs {}", rhs[i], x_true[i]);
        }
    }

    #[test]
    fn penta_solve_rejects_zero_pivot() {
        let diag = vec![0.0; 4];
        let mut rhs = vec![1.0; 4];
        assert!(!penta_solve(0.0, 0.0, &diag, 0.0, 0.0, &mut rhs));
    }

    #[test]
    fn adi_reduces_residual() {
        let n = 6;
        let p = SpProblem::new(n, 55);
        let mut rng = NpbRng::new(2);
        let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
        let mut u = vec![0.0; n * n * n * 5];
        let mut last = p.residual_norm(&u, &b);
        for _ in 0..4 {
            p.adi_step(&mut u, &b);
            let r = p.residual_norm(&u, &b);
            assert!(r < last);
            last = r;
        }
    }

    #[test]
    fn verify_passes() {
        let out = Sp::new(Class::C).verify(2);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn sp_is_the_comm_heaviest_npb_program() {
        use super::super::{Class, Program};
        let sp_comm = Sp::new(Class::B).signature().comm_fraction;
        for prog in Program::ALL {
            if prog != Program::Sp {
                let sig = prog.benchmark(Class::B).signature();
                assert!(sig.comm_fraction < sp_comm, "{prog:?} out-communicates SP");
            }
        }
    }

    #[test]
    fn class_flops_match_official_counts() {
        // SP.A ≈ 1.02e11 (official 102,300 Mop).
        let sig = Sp::new(Class::A).signature();
        assert!((sig.reported_flops - 1.022e11).abs() / 1.022e11 < 0.01);
    }
}
