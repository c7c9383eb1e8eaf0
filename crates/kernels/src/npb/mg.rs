//! NPB MG — the Multi-Grid kernel.
//!
//! MG applies V-cycles of a geometric multigrid solver to a 3-D Poisson
//! problem `∇²u = v` on a periodic cubic grid: smooth, compute the
//! residual, restrict it to a coarser grid, recurse, prolongate the
//! correction back and smooth again. Its regular sweeps over large 3-D
//! arrays make it bandwidth-hungry with good spatial locality.
//!
//! Class sizes: A = 256³ / 4 iterations, B = 256³ / 20, C = 512³ / 20.
//!
//! The implementation is a damped-Jacobi V-cycle over a 7-point stencil —
//! structurally the same restrict/prolongate/smooth ladder as NPB's
//! 27-point version, verified by residual contraction per cycle.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::simd;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

use super::Class;

// Logical trace addresses of the stencil operands. Grids of different
// edges live in disjoint 1 GiB regions (level = log2 edge), and the
// chunk id is `(edge << 32) | z-plane` — both width-invariant and
// unambiguous across the V-cycle recursion.
const TRACE_U: u64 = 0x10_0000_0000;
const TRACE_V: u64 = 0x20_0000_0000;
const TRACE_OUT: u64 = 0x30_0000_0000;
const TRACE_LEVEL: u64 = 1 << 30;

/// Span length each smoothing task hands to the SIMD micro-kernels;
/// purely a dispatch granularity (elementwise update, so any chunking
/// yields identical bits at every width and SIMD path).
const SPAN: usize = 8192;

/// Reported floating point operations per grid point per iteration
/// (from the official NPB operation counts: MG.A = 3,905 Mop over
/// 256³ × 4).
pub const FLOPS_PER_POINT_ITER: f64 = 58.0;

/// The MG benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Mg {
    class: Class,
}

impl Mg {
    /// MG at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// (grid edge, iterations) for the class.
    pub fn params(&self) -> (u64, u32) {
        match self.class {
            Class::W => (128, 4),
            Class::A => (256, 4),
            Class::B => (256, 20),
            Class::C => (512, 20),
        }
    }
}

/// A periodic cubic grid of edge `n` (power of two).
#[derive(Debug, Clone)]
pub struct Grid {
    /// Edge length.
    pub n: usize,
    /// `n³` values, x-fastest.
    pub data: Vec<f64>,
}

impl Grid {
    /// Zero grid.
    pub fn zeros(n: usize) -> Self {
        Self { n, data: vec![0.0; n * n * n] }
    }

    /// Random right-hand side with zero mean (required for a solvable
    /// periodic Poisson problem).
    pub fn random_rhs(n: usize, seed: u64) -> Self {
        let mut rng = NpbRng::new(seed);
        let mut data: Vec<f64> = (0..n * n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        for v in data.iter_mut() {
            *v -= mean;
        }
        Self { n, data }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.n + y) * self.n + x
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// `out = v − A·u` where `A` is the periodic 7-point −∇² stencil.
pub fn residual(u: &Grid, v: &Grid, out: &mut Grid) {
    let n = u.n;
    let m = simd::mode();
    // A V-cycle hits each level's planes several times (and cycles
    // repeat); the epoch separates the sweeps in the trace.
    hooks::begin_epoch(Region::Mg);
    out.data.par_chunks_mut(n * n).enumerate().for_each(|(z, plane)| {
        let zm = (z + n - 1) % n;
        let zp = (z + 1) % n;
        let row = |zz: usize, yy: usize| (zz * n + yy) * n;
        // Trace the plane's stream: v and the three u planes read,
        // the out plane written. Unit-stride doubles; one branch per
        // plane when untraced.
        if let Some(mut log) = hooks::chunk(Region::Mg, ((n as u64) << 32) | z as u64) {
            let lvl = TRACE_LEVEL * u64::from(n.trailing_zeros());
            let plane_bytes = (n * n * 8) as u32;
            let at = |base: u64, zz: usize| base + lvl + (zz as u64) * u64::from(plane_bytes);
            log.record(AccessKind::Read, at(TRACE_V, z), 8, plane_bytes / 8);
            for zz in [zm, z, zp] {
                log.record(AccessKind::Read, at(TRACE_U, zz), 8, plane_bytes / 8);
            }
            log.record(AccessKind::Write, at(TRACE_OUT, z), 8, plane_bytes / 8);
        }
        for y in 0..n {
            let ym = (y + n - 1) % n;
            let yp = (y + 1) % n;
            let ry = row(z, y);
            // Interior columns: the x±1 neighbors are this row shifted
            // by one element and the y±1/z±1 neighbors are the adjacent
            // rows, so the whole span feeds the SIMD stencil kernel.
            if n >= 2 {
                simd::stencil7(
                    m,
                    &mut plane[y * n + 1..y * n + n - 1],
                    &v.data[ry + 1..ry + n - 1],
                    &u.data[ry + 1..ry + n - 1],
                    &u.data[ry..ry + n - 2],
                    &u.data[ry + 2..ry + n],
                    &u.data[row(z, ym) + 1..row(z, ym) + n - 1],
                    &u.data[row(z, yp) + 1..row(z, yp) + n - 1],
                    &u.data[row(zm, y) + 1..row(zm, y) + n - 1],
                    &u.data[row(zp, y) + 1..row(zp, y) + n - 1],
                );
            }
            // Periodic boundary columns wrap around the row.
            for x in [0, n.saturating_sub(1)] {
                let xm = (x + n - 1) % n;
                let xp = (x + 1) % n;
                let au = 6.0 * u.data[ry + x]
                    - u.data[ry + xm]
                    - u.data[ry + xp]
                    - u.data[row(z, ym) + x]
                    - u.data[row(z, yp) + x]
                    - u.data[row(zm, y) + x]
                    - u.data[row(zp, y) + x];
                plane[y * n + x] = v.data[ry + x] - au;
            }
        }
    });
}

/// One damped-Jacobi smoothing sweep `u += ω·D⁻¹·(v − A·u)`.
///
/// Allocates a residual scratch per call; hot loops should hold an
/// [`MgWorkspace`] and use [`smooth_with`].
pub fn smooth(u: &mut Grid, v: &Grid, omega: f64) {
    let mut r = Grid::zeros(u.n);
    smooth_with(u, v, omega, &mut r);
}

/// [`smooth`] against a caller-owned residual scratch (same edge as
/// `u`); performs no heap allocation.
pub fn smooth_with(u: &mut Grid, v: &Grid, omega: f64, r: &mut Grid) {
    residual(u, v, r);
    let w = omega / 6.0;
    let m = simd::mode();
    u.data
        .par_chunks_mut(SPAN)
        .zip(r.data.par_chunks(SPAN))
        .for_each(|(uc, rc)| simd::axpy(m, uc, rc, w));
}

/// Full-weighting restriction to the half-resolution grid.
pub fn restrict(fine: &Grid) -> Grid {
    let mut coarse = Grid::zeros(fine.n / 2);
    restrict_into(fine, &mut coarse);
    coarse
}

/// [`restrict`] into a caller-owned half-resolution grid; parallel over
/// coarse points (independent 2×2×2 cell averages, width-invariant).
pub fn restrict_into(fine: &Grid, coarse: &mut Grid) {
    let nc = coarse.n;
    let n = fine.n;
    assert_eq!(n, nc * 2, "coarse grid must be half the fine edge");
    coarse.data.par_iter_mut().enumerate().for_each(|(i, out)| {
        let x = (i % nc) * 2;
        let y = ((i / nc) % nc) * 2;
        let z = (i / (nc * nc)) * 2;
        // Average the 2×2×2 cell.
        let mut s = 0.0;
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    s += fine.data[fine.idx((x + dx) % n, (y + dy) % n, (z + dz) % n)];
                }
            }
        }
        *out = s / 8.0 * 4.0; // scale: coarse operator has 4x the cell area
    });
}

/// Trilinear-ish prolongation: inject the coarse value into its 2×2×2
/// fine cell. Parallel over coarse z-planes — each writes exactly one
/// disjoint pair of fine planes, so the update is width-invariant.
pub fn prolongate_add(coarse: &Grid, fine: &mut Grid) {
    let nc = coarse.n;
    let n = fine.n;
    assert_eq!(n, nc * 2, "fine grid must be twice the coarse edge");
    fine.data.par_chunks_mut(2 * n * n).enumerate().for_each(|(zc, planes)| {
        for y in 0..nc {
            for x in 0..nc {
                let v = coarse.data[coarse.idx(x, y, zc)];
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            planes[(dz * n + 2 * y + dy) * n + 2 * x + dx] += v;
                        }
                    }
                }
            }
        }
    });
}

/// Reusable V-cycle storage: one residual scratch per level plus the
/// restricted-residual / coarse-correction grids feeding the next
/// level, recursively down to the 4³ base. With a warm workspace,
/// [`v_cycle_with`] allocates nothing.
#[derive(Debug, Clone)]
pub struct MgWorkspace {
    r: Grid,
    down: Option<Box<Down>>,
}

#[derive(Debug, Clone)]
struct Down {
    rc: Grid,
    ec: Grid,
    ws: MgWorkspace,
}

impl MgWorkspace {
    /// Workspace for V-cycles on an edge-`n` grid.
    pub fn new(n: usize) -> Self {
        let down = (n > 4).then(|| {
            Box::new(Down {
                rc: Grid::zeros(n / 2),
                ec: Grid::zeros(n / 2),
                ws: MgWorkspace::new(n / 2),
            })
        });
        Self { r: Grid::zeros(n), down }
    }
}

/// One V-cycle on `A·u = v`; recurses down to a 4³ grid.
///
/// Allocates a fresh [`MgWorkspace`] per call; hot loops should hold
/// one and call [`v_cycle_with`].
pub fn v_cycle(u: &mut Grid, v: &Grid) {
    let mut ws = MgWorkspace::new(u.n);
    v_cycle_with(u, v, &mut ws);
}

/// [`v_cycle`] against caller-owned storage for every level of the
/// hierarchy; performs no heap allocation.
pub fn v_cycle_with(u: &mut Grid, v: &Grid, ws: &mut MgWorkspace) {
    const OMEGA: f64 = 0.8;
    let MgWorkspace { r, down } = ws;
    assert_eq!(u.n, r.n, "workspace must match the grid edge");
    smooth_with(u, v, OMEGA, r);
    smooth_with(u, v, OMEGA, r);
    if let Some(down) = down.as_deref_mut() {
        residual(u, v, r);
        restrict_into(r, &mut down.rc);
        down.ec.data.fill(0.0);
        v_cycle_with(&mut down.ec, &down.rc, &mut down.ws);
        prolongate_add(&down.ec, u);
    }
    smooth_with(u, v, OMEGA, r);
    smooth_with(u, v, OMEGA, r);
}

impl Benchmark for Mg {
    fn id(&self) -> &'static str {
        "mg"
    }

    fn display_name(&self) -> String {
        format!("mg.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let (edge, iters) = self.params();
        let pts = (edge * edge * edge) as f64;
        let flops = FLOPS_PER_POINT_ITER * pts * f64::from(iters);
        // u, v, r over the grid hierarchy (Σ 1/8^k ≈ 8/7 of the top grid)
        // plus workspace: ≈ 4.7 arrays of 8 B per point.
        let footprint = pts * 8.0 * 4.7;
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: flops,
            work_ops: flops * 1.15,
            dram_bytes: flops * 1.5, // stencil sweeps stream the arrays
            footprint_bytes: footprint,
            footprint_per_proc_bytes: 20.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.10,
            cpu_intensity: 0.72,
            kind: ComputeKind::Mixed(0.7),
            locality: LocalityProfile {
                instr_per_op: 1.6,
                accesses_per_instr: 0.42,
                l1_hit: 0.78,
                l2_hit: 0.08,
                l3_hit: 0.04,
                mem: 0.10,
                write_fraction: 0.3,
            },
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::PowerOfTwo
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        let n = 32;
        let v = Grid::random_rhs(n, 1234);
        let mut u = Grid::zeros(n);
        let mut r = Grid::zeros(n);
        residual(&u, &v, &mut r);
        let r0 = r.norm();
        let mut norms = vec![r0];
        for _ in 0..4 {
            v_cycle(&mut u, &v);
            residual(&u, &v, &mut r);
            norms.push(r.norm());
        }
        let last = *norms.last().expect("norms nonempty");
        let contraction = (last / r0).powf(1.0 / 4.0);
        if contraction < 0.5 && last.is_finite() {
            VerifyOutcome::pass(
                format!("4 V-cycles: r0={r0:.3e} -> {last:.3e} (rate {contraction:.3})"),
                FLOPS_PER_POINT_ITER * (n * n * n) as f64 * 4.0,
            )
        } else {
            VerifyOutcome::fail(format!("poor contraction {contraction:.3}: {norms:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_of_exact_zero_solution_is_rhs() {
        let n = 8;
        let v = Grid::random_rhs(n, 5);
        let u = Grid::zeros(n);
        let mut r = Grid::zeros(n);
        residual(&u, &v, &mut r);
        for (a, b) in r.data.iter().zip(&v.data) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn smoothing_reduces_residual() {
        let n = 16;
        let v = Grid::random_rhs(n, 9);
        let mut u = Grid::zeros(n);
        let mut r = Grid::zeros(n);
        residual(&u, &v, &mut r);
        let before = r.norm();
        for _ in 0..10 {
            smooth(&mut u, &v, 0.8);
        }
        residual(&u, &v, &mut r);
        assert!(r.norm() < before, "{} !< {before}", r.norm());
    }

    #[test]
    fn v_cycle_contracts_residual() {
        let n = 16;
        let v = Grid::random_rhs(n, 31);
        let mut u = Grid::zeros(n);
        let mut r = Grid::zeros(n);
        residual(&u, &v, &mut r);
        let r0 = r.norm();
        v_cycle(&mut u, &v);
        residual(&u, &v, &mut r);
        assert!(r.norm() < r0 * 0.5, "one V-cycle: {} -> {}", r0, r.norm());
    }

    #[test]
    fn restriction_halves_edge() {
        let g = Grid::zeros(16);
        assert_eq!(restrict(&g).n, 8);
    }

    #[test]
    fn reused_workspace_matches_fresh_cycles() {
        let n = 16;
        let v = Grid::random_rhs(n, 31);
        let mut with_ws = Grid::zeros(n);
        let mut fresh = Grid::zeros(n);
        let mut ws = MgWorkspace::new(n);
        for _ in 0..3 {
            v_cycle_with(&mut with_ws, &v, &mut ws);
            v_cycle(&mut fresh, &v);
        }
        assert_eq!(with_ws.data, fresh.data);
    }

    #[test]
    fn restriction_preserves_constant_fields() {
        let mut g = Grid::zeros(8);
        g.data.fill(2.0);
        let c = restrict(&g);
        for v in &c.data {
            assert!((v - 8.0).abs() < 1e-12); // 2.0 * 4 (area scale)
        }
    }

    #[test]
    fn verify_passes() {
        let out = Mg::new(Class::C).verify(2);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn signature_footprints_match_class_sizes() {
        // MG.C (512³) must be ~8x MG.B (256³).
        let b = Mg::new(Class::B).signature();
        let c = Mg::new(Class::C).signature();
        assert!((c.footprint_bytes / b.footprint_bytes - 8.0).abs() < 0.1);
    }
}
