//! NPB BT — the Block Tri-diagonal pseudo-application.
//!
//! BT solves the compressible Navier–Stokes equations with an
//! Alternating Direction Implicit scheme: each time step performs three
//! sweeps (x, y, z), each solving independent block-tridiagonal systems
//! with 5×5 coupling blocks along every grid line. The square process
//! grid of its MPI "multi-partition" decomposition forces perfect-square
//! process counts — which is why Figs 3/4/12 run bt at 1, 4, 9, 16, 25,
//! 36 processes only.
//!
//! Class grids: A = 64³ / 200 steps, B = 102³ / 200, C = 162³ / 200.
//!
//! The implementation keeps the real solver structure — per-line block
//! Thomas solves in all three directions, rayon-parallel across lines —
//! and verifies by driving a manufactured solution to convergence.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

use super::block5::{block_thomas, vnorm, vsub, Mat5, Vec5};
use super::Class;

// Logical trace addresses for the ADI line solves. Each direction
// sweep is its own epoch; within a sweep the chunk id is the line
// index, whose decomposition never depends on the worker count. The
// 5-vector fields stride 40 bytes per point, the 5×5 diagonal blocks
// 200 — both scaled by 1/n/n² across the x/y/z sweeps.
const TRACE_U: u64 = 0x1_0000_0000;
const TRACE_B: u64 = 0x2_0000_0000;
const TRACE_DIAG: u64 = 0x3_0000_0000;
const TRACE_AU: u64 = 0x4_0000_0000;
/// Bytes per grid point of a [`Vec5`] field.
const VEC5_BYTES: usize = 40;
/// Bytes per grid point of a [`Mat5`] field.
const MAT5_BYTES: usize = 200;

/// Reported flops per grid point per time step (official NPB counts:
/// BT.A = 168,300 Mop over 64³ × 200).
pub const FLOPS_PER_POINT_STEP: f64 = 3200.0;
/// ADI time steps, fixed per the NPB specification.
pub const STEPS: u32 = 200;

/// The BT benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Bt {
    class: Class,
}

impl Bt {
    /// BT at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// Grid edge for the class.
    pub fn edge(&self) -> u64 {
        match self.class {
            Class::W => 24,
            Class::A => 64,
            Class::B => 102,
            Class::C => 162,
        }
    }
}

/// A 3-D field of 5-vectors on an `n³` grid plus the line-solve
/// machinery of one ADI sweep direction.
#[derive(Debug, Clone)]
pub struct AdiProblem {
    /// Grid edge.
    pub n: usize,
    /// Off-diagonal coupling strength (sub/super blocks are −c·I).
    pub coupling: f64,
    /// Per-point diagonal blocks (same for every line direction; the
    /// real code rebuilds them from the flow state each step).
    pub diag: Vec<Mat5>,
}

impl AdiProblem {
    /// Build a diagonally dominant ADI problem on an `n³` grid.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = NpbRng::new(seed);
        let coupling = 0.12;
        let diag = (0..n * n * n).map(|_| Mat5::diag_dominant(&mut rng)).collect();
        Self { n, coupling, diag }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.n + y) * self.n + x
    }

    /// Apply the full 3-D operator `A·u` (diag blocks + six −c·I
    /// neighbour couplings with zero Dirichlet exterior).
    pub fn apply(&self, u: &[Vec5]) -> Vec<Vec5> {
        let n = self.n;
        (0..u.len())
            .into_par_iter()
            .map(|i| {
                let x = i % n;
                let y = (i / n) % n;
                let z = i / (n * n);
                let mut acc = self.diag[i].matvec(&u[i]);
                let mut nb = |xi: isize, yi: isize, zi: isize| {
                    if xi >= 0
                        && yi >= 0
                        && zi >= 0
                        && (xi as usize) < n
                        && (yi as usize) < n
                        && (zi as usize) < n
                    {
                        let j = self.idx(xi as usize, yi as usize, zi as usize);
                        for c in 0..5 {
                            acc[c] -= self.coupling * u[j][c];
                        }
                    }
                };
                nb(x as isize - 1, y as isize, z as isize);
                nb(x as isize + 1, y as isize, z as isize);
                nb(x as isize, y as isize - 1, z as isize);
                nb(x as isize, y as isize + 1, z as isize);
                nb(x as isize, y as isize, z as isize - 1);
                nb(x as isize, y as isize, z as isize + 1);
                acc
            })
            .collect()
    }

    /// One ADI iteration on `A·u = b`: sweep x, then y, then z. Each
    /// sweep solves, for every grid line, the block-tridiagonal system
    /// formed by the diagonal blocks and the couplings along that line,
    /// with the residual of the other directions on the right-hand side.
    ///
    /// Trace capture (`Region::Bt`): each direction sweep opens a new
    /// epoch and the chunk id is the line index, so the trace is
    /// bitwise width-invariant like the solve itself. A traced line
    /// records its strided reads (the 5×5 diagonal blocks plus the u,
    /// A·u, and b 5-vectors) and the solution write-back; the point
    /// stride jumps from unit (x lines) to `n`/`n²` (y/z lines) —
    /// the locality cliff the replay driver needs to see.
    pub fn adi_step(&self, u: &mut [Vec5], b: &[Vec5]) {
        let n = self.n;
        // The sub/super bands are the same constant −c·I along every
        // line of every sweep; build the band once per step instead of
        // twice per line.
        let off_band: Vec<Mat5> = (0..n).map(|_| Mat5::scaled_identity(-self.coupling)).collect();
        for dir in 0..3 {
            hooks::begin_epoch(Region::Bt);
            let au = self.apply(u);
            // Lines: iterate over the two non-swept coordinates.
            let new_u: Vec<Vec<Vec5>> = (0..n * n)
                .into_par_iter()
                .map(|line| {
                    let (a, c) = (line % n, line / n);
                    let line_idx = |k: usize| match dir {
                        0 => self.idx(k, a, c),
                        1 => self.idx(a, k, c),
                        _ => self.idx(a, c, k),
                    };
                    if let Some(mut log) = hooks::chunk(Region::Bt, line as u64) {
                        // Per point: the dense 5×5 diagonal block (25
                        // contiguous doubles) and the three 5-vectors.
                        // The across-point jump — unit blocks in the x
                        // sweep, n/n² apart in y/z — shows up in the
                        // successive record bases.
                        for k in 0..n {
                            let i = line_idx(k);
                            let diag_at = TRACE_DIAG + (i * MAT5_BYTES) as u64;
                            let vec_at = (i * VEC5_BYTES) as u64;
                            log.record(AccessKind::Read, diag_at, 8, 25);
                            log.record(AccessKind::Read, TRACE_U + vec_at, 8, 5);
                            log.record(AccessKind::Read, TRACE_AU + vec_at, 8, 5);
                            log.record(AccessKind::Read, TRACE_B + vec_at, 8, 5);
                        }
                    }
                    let diag: Vec<Mat5> = (0..n).map(|k| self.diag[line_idx(k)]).collect();
                    // rhs = b − A·u + (line part of A·u): move the line's
                    // own contribution back to the left-hand side.
                    let mut rhs: Vec<Vec5> = (0..n)
                        .map(|k| {
                            let i = line_idx(k);
                            let mut line_contrib = self.diag[i].matvec(&u[i]);
                            if k > 0 {
                                let j = line_idx(k - 1);
                                for comp in 0..5 {
                                    line_contrib[comp] -= self.coupling * u[j][comp];
                                }
                            }
                            if k + 1 < n {
                                let j = line_idx(k + 1);
                                for comp in 0..5 {
                                    line_contrib[comp] -= self.coupling * u[j][comp];
                                }
                            }
                            let mut r = vsub(&b[i], &au[i]);
                            for comp in 0..5 {
                                r[comp] += line_contrib[comp];
                            }
                            r
                        })
                        .collect();
                    let ok = block_thomas(&off_band, &diag, &off_band, &mut rhs);
                    assert!(ok, "diagonally dominant line solve cannot be singular");
                    rhs
                })
                .collect();
            // Scatter the line solutions back.
            for (line, sol) in new_u.into_iter().enumerate() {
                let (a, c) = (line % n, line / n);
                let mut log = hooks::chunk(Region::Bt, line as u64);
                for (k, v) in sol.into_iter().enumerate() {
                    let i = match dir {
                        0 => self.idx(k, a, c),
                        1 => self.idx(a, k, c),
                        _ => self.idx(a, c, k),
                    };
                    if let Some(log) = log.as_mut() {
                        log.record(AccessKind::Write, TRACE_U + (i * VEC5_BYTES) as u64, 8, 5);
                    }
                    u[i] = v;
                }
            }
        }
    }

    /// `‖b − A·u‖₂` over all points and components.
    pub fn residual_norm(&self, u: &[Vec5], b: &[Vec5]) -> f64 {
        let au = self.apply(u);
        au.iter().zip(b).map(|(x, y)| vnorm(&vsub(y, x)).powi(2)).sum::<f64>().sqrt()
    }
}

impl Benchmark for Bt {
    fn id(&self) -> &'static str {
        "bt"
    }

    fn display_name(&self) -> String {
        format!("bt.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let pts = (self.edge().pow(3)) as f64;
        let flops = FLOPS_PER_POINT_STEP * pts * f64::from(STEPS);
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: flops,
            work_ops: flops * 1.1,
            dram_bytes: flops * 0.25,
            footprint_bytes: pts * 600.0, // ~15 five-component arrays
            footprint_per_proc_bytes: 30.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.10,
            cpu_intensity: 0.82,
            kind: ComputeKind::Mixed(0.75),
            locality: LocalityProfile {
                instr_per_op: 1.4,
                accesses_per_instr: 0.38,
                l1_hit: 0.90,
                l2_hit: 0.05,
                l3_hit: 0.02,
                mem: 0.03,
                write_fraction: 0.3,
            },
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::Square
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let n = 10;
        let prob = AdiProblem::new(n, 20_000_003);
        // Manufactured solution.
        let mut rng = NpbRng::new(31);
        let u_true: Vec<Vec5> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let b = prob.apply(&u_true);
        let mut u = vec![[0.0f64; 5]; n * n * n];
        let r0 = prob.residual_norm(&u, &b);
        for _ in 0..6 {
            prob.adi_step(&mut u, &b);
        }
        let r = prob.residual_norm(&u, &b);
        if r < r0 * 1e-3 {
            VerifyOutcome::pass(
                format!("ADI converged: residual {r0:.3e} -> {r:.3e} in 6 steps"),
                FLOPS_PER_POINT_STEP * (n * n * n) as f64 * 6.0,
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
    fn apply_of_zero_is_zero() {
        let p = AdiProblem::new(4, 1);
        let u = vec![[0.0; 5]; 64];
        let au = p.apply(&u);
        assert!(au.iter().all(|v| vnorm(v) == 0.0));
    }

    #[test]
    fn adi_reduces_residual_monotonically() {
        let n = 6;
        let p = AdiProblem::new(n, 77);
        let mut rng = NpbRng::new(3);
        let b: Vec<Vec5> = (0..n * n * n)
            .map(|_| {
                [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()]
            })
            .collect();
        let mut u = vec![[0.0; 5]; n * n * n];
        let mut last = p.residual_norm(&u, &b);
        for step in 0..4 {
            p.adi_step(&mut u, &b);
            let r = p.residual_norm(&u, &b);
            assert!(r < last, "step {step}: {r} !< {last}");
            last = r;
        }
    }

    #[test]
    fn verify_passes() {
        let out = Bt::new(Class::C).verify(2);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn class_flops_match_official_counts() {
        // BT.A ≈ 1.68e11 (official 168,300 Mop).
        let sig = Bt::new(Class::A).signature();
        assert!((sig.reported_flops - 1.68e11).abs() / 1.68e11 < 0.01);
    }

    #[test]
    fn signature_is_compute_leaning() {
        let sig = Bt::new(Class::C).signature();
        assert!(sig.arithmetic_intensity() > 1.0);
        assert!(sig.cpu_intensity > 0.8, "BT sits near HPL in the power figures");
    }
}
