//! NPB FT — the 3-D fast Fourier Transform kernel.
//!
//! FT solves a 3-D diffusion PDE spectrally: forward-transform an initial
//! random field, evolve it `niter` times by multiplying with Gaussian
//! exponential factors, inverse-transform and emit a checksum each
//! iteration. The distributed version's all-to-all transposes make it the
//! suite's *largest memory consumer* — the paper's Fig 8 shows FT's
//! footprint growing fastest with class — and its transpose buffer is why
//! ft.C only runs at ≥ 4 processes on the 8 GiB Xeon-E5462 (Fig 3).
//!
//! Class grids: A = 256×256×128 / 6 iters, B = 512×256×256 / 20,
//! C = 512×512×512 / 20.

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};
use rayon::prelude::*;

use crate::fft::{fft_batched_with, Direction, TwiddleTable, C64};
use crate::rng::NpbRng;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};
use crate::transpose::{transpose_tiles, TILE};

use super::Class;

// Logical trace address bases for the two transpose buffers. The
// transposes ping-pong between the live field and the workspace scratch
// (`mem::swap` after each one), so which physical buffer is the source
// alternates with the transpose phase; labelling by parity makes the
// replayed streams alias exactly like the real buffers do.
const TRACE_FIELD: u64 = 0x10_0000_0000;
const TRACE_SCRATCH: u64 = 0x20_0000_0000;

/// The FT benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Ft {
    class: Class,
}

impl Ft {
    /// FT at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// (nx, ny, nz, iterations) for the class.
    pub fn params(&self) -> (u64, u64, u64, u32) {
        match self.class {
            Class::W => (128, 128, 32, 6),
            Class::A => (256, 256, 128, 6),
            Class::B => (512, 256, 256, 20),
            Class::C => (512, 512, 512, 20),
        }
    }

    /// Total grid points.
    pub fn points(&self) -> u64 {
        let (nx, ny, nz, _) = self.params();
        nx * ny * nz
    }
}

/// A dense 3-D complex field, x-fastest.
#[derive(Debug, Clone)]
pub struct Field3 {
    /// X extent.
    pub nx: usize,
    /// Y extent.
    pub ny: usize,
    /// Z extent.
    pub nz: usize,
    /// `nx·ny·nz` complex values.
    pub data: Vec<C64>,
}

impl Field3 {
    /// Random field from the NPB generator.
    pub fn random(nx: usize, ny: usize, nz: usize, seed: u64) -> Self {
        let mut rng = NpbRng::new(seed);
        let data = (0..nx * ny * nz).map(|_| C64::new(rng.next_f64(), rng.next_f64())).collect();
        Self { nx, ny, nz, data }
    }

    /// Sum of all values (the NPB checksum basis).
    pub fn checksum(&self) -> C64 {
        let mut acc = C64::default();
        for v in &self.data {
            acc = acc.add(*v);
        }
        acc
    }
}

/// Reusable FT transform storage: one scratch field the transposes write
/// into (then swapped with the live data) plus the twiddle table for
/// each axis length. With a warm workspace, [`fft3_with`] performs zero
/// heap allocations per call at logical width 1 (pinned by
/// `tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct FtWorkspace {
    nx: usize,
    ny: usize,
    nz: usize,
    scratch: Vec<C64>,
    tw_x: TwiddleTable,
    tw_y: TwiddleTable,
    tw_z: TwiddleTable,
}

impl FtWorkspace {
    /// Workspace for `nx × ny × nz` transforms (power-of-two extents).
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            scratch: vec![C64::default(); nx * ny * nz],
            tw_x: TwiddleTable::new(nx),
            tw_y: TwiddleTable::new(ny),
            tw_z: TwiddleTable::new(nz),
        }
    }
}

/// Forward or inverse 3-D FFT in place: batched 1-D transforms along x,
/// then y, then z via explicit transposes (the same dataflow as the
/// distributed NPB implementation, whose transposes are MPI all-to-alls).
///
/// Allocates a fresh [`FtWorkspace`] per call; hot loops should hold one
/// and call [`fft3_with`].
pub fn fft3(f: &mut Field3, dir: Direction) {
    let mut ws = FtWorkspace::new(f.nx, f.ny, f.nz);
    fft3_with(f, dir, &mut ws);
}

/// [`fft3`] against caller-owned storage. Each transpose writes into
/// `ws.scratch` with cache-blocked tiles and the buffers are exchanged
/// with `mem::swap`, so no pass copies more than once and nothing is
/// allocated. Every parallel unit (an FFT line, a transpose plane or
/// band) is a disjoint chunk produced by the same serial code at any
/// pool width, so the result is bitwise deterministic.
pub fn fft3_with(f: &mut Field3, dir: Direction, ws: &mut FtWorkspace) {
    assert_eq!((f.nx, f.ny, f.nz), (ws.nx, ws.ny, ws.nz), "workspace shape must match the field");
    // Pass 1: lines along x are contiguous. Each dimension pass opens a
    // trace epoch so the sweeps stay separated in the captured stream
    // (one call transposes the same logical chunks four times).
    hooks::begin_epoch(Region::Ft);
    fft_batched_with(&ws.tw_x, &mut f.data, dir);
    // Pass 2: transpose x<->y, transform the old-y lines (now
    // contiguous), transpose back.
    hooks::begin_epoch(Region::Ft);
    transpose_xy_into(f.nx, f.ny, f.nz, &f.data, &mut ws.scratch, 0);
    std::mem::swap(&mut f.data, &mut ws.scratch);
    std::mem::swap(&mut f.nx, &mut f.ny);
    fft_batched_with(&ws.tw_y, &mut f.data, dir);
    transpose_xy_into(f.nx, f.ny, f.nz, &f.data, &mut ws.scratch, 1);
    std::mem::swap(&mut f.data, &mut ws.scratch);
    std::mem::swap(&mut f.nx, &mut f.ny);
    // Pass 3: the same dance for x<->z.
    hooks::begin_epoch(Region::Ft);
    transpose_xz_into(f.nx, f.ny, f.nz, &f.data, &mut ws.scratch, 2);
    std::mem::swap(&mut f.data, &mut ws.scratch);
    std::mem::swap(&mut f.nx, &mut f.nz);
    fft_batched_with(&ws.tw_z, &mut f.data, dir);
    transpose_xz_into(f.nx, f.ny, f.nz, &f.data, &mut ws.scratch, 3);
    std::mem::swap(&mut f.data, &mut ws.scratch);
    std::mem::swap(&mut f.nx, &mut f.nz);
}

/// Source/destination trace bases for transpose `phase` (0..4 within
/// one [`fft3_with`]): even phases read the buffer that started as the
/// live field, odd phases read the one that started as scratch.
fn trace_bases(phase: u64) -> (u64, u64) {
    if phase.is_multiple_of(2) {
        (TRACE_FIELD, TRACE_SCRATCH)
    } else {
        (TRACE_SCRATCH, TRACE_FIELD)
    }
}

/// Transpose the x and y axes: `dst[(z·nx + x)·ny + y] =
/// src[(z·ny + y)·nx + x]`. Parallel over the destination's z-planes,
/// each a tiled 2-D transpose of the matching source plane.
fn transpose_xy_into(nx: usize, ny: usize, nz: usize, src: &[C64], dst: &mut [C64], phase: u64) {
    debug_assert_eq!(src.len(), nx * ny * nz);
    debug_assert_eq!(dst.len(), nx * ny * nz);
    dst.par_chunks_mut(nx * ny).enumerate().for_each(|(z, plane)| {
        // Trace the plane's traffic: the matching source plane streams
        // in, the destination plane streams out (the within-plane
        // permutation is cache-blocked, so plane granularity is the
        // honest level). The chunk id is a pure function of (phase, z),
        // never of which worker ran the plane.
        if let Some(mut log) = hooks::chunk(Region::Ft, (phase << 32) | z as u64) {
            let (src_base, dst_base) = trace_bases(phase);
            let plane_bytes = (nx * ny * 16) as u32;
            let off = (z as u64) * u64::from(plane_bytes);
            log.record(AccessKind::Read, src_base + off, 16, plane_bytes / 16);
            log.record(AccessKind::Write, dst_base + off, 16, plane_bytes / 16);
        }
        // plane[x·ny + y] = src[z·nx·ny + y·nx + x]
        transpose_tiles(src, z * nx * ny, nx, plane, 0, ny, ny, nx, |d, s| *d = s);
    });
}

/// Transpose the x and z axes: `dst[(x·ny + y)·nz + z] =
/// src[(z·ny + y)·nx + x]`. Parallel over x-bands of the destination;
/// within a band, each y gives a strided 2-D transpose over (z, x).
fn transpose_xz_into(nx: usize, ny: usize, nz: usize, src: &[C64], dst: &mut [C64], phase: u64) {
    debug_assert_eq!(src.len(), nx * ny * nz);
    debug_assert_eq!(dst.len(), nx * ny * nz);
    dst.par_chunks_mut(TILE * ny * nz).enumerate().for_each(|(band, chunk)| {
        let x0 = band * TILE;
        let band_w = chunk.len() / (ny * nz);
        // The xz band gathers a column slab from *every* source plane —
        // the all-to-all character the distributed FT pays for. Model
        // the reads as one large-stride descriptor per plane (a row
        // start per y; the band's rows are nx elements apart) and the
        // writes as the band's contiguous destination stream.
        if let Some(mut log) = hooks::chunk(Region::Ft, (phase << 32) | band as u64) {
            let (src_base, dst_base) = trace_bases(phase);
            for z in 0..nz {
                let off = ((z * ny * nx + x0) * 16) as u64;
                log.record(AccessKind::Read, src_base + off, (nx * 16) as u32, ny as u32);
            }
            let off = (x0 * ny * nz * 16) as u64;
            log.record(AccessKind::Write, dst_base + off, 16, chunk.len() as u32);
        }
        for y in 0..ny {
            // chunk[(dx·ny + y)·nz + z] = src[z·nx·ny + y·nx + x0 + dx]
            transpose_tiles(
                src,
                y * nx + x0,
                nx * ny,
                chunk,
                y * nz,
                ny * nz,
                nz,
                band_w,
                |d, s| *d = s,
            );
        }
    });
}

/// Run the NPB FT structure at a scaled grid: returns the per-iteration
/// checksums. All buffers (the evolved field, the transform scratch, the
/// twiddle tables) are allocated once up front; the iteration loop is
/// allocation-free.
pub fn run_scaled(nx: usize, ny: usize, nz: usize, niter: u32) -> Vec<C64> {
    let mut ws = FtWorkspace::new(nx, ny, nz);
    let mut u0 = Field3::random(nx, ny, nz, 314_159_265);
    fft3_with(&mut u0, Direction::Forward, &mut ws);
    // Evolution factors exp(-4π²·α·t·k²) per mode.
    let alpha = 1e-6;
    let mut checksums = Vec::with_capacity(niter as usize);
    let mut w = u0.clone();
    for t in 1..=niter {
        let tt = f64::from(t);
        // Evolve the saved forward transform into `w`: elementwise with
        // disjoint writes per z-plane, so width-invariant.
        w.data.par_chunks_mut(nx * ny).enumerate().for_each(|(z, plane)| {
            let kz = wavenumber(z, nz);
            for y in 0..ny {
                let ky = wavenumber(y, ny);
                for x in 0..nx {
                    let kx = wavenumber(x, nx);
                    let k2 = (kx * kx + ky * ky + kz * kz) as f64;
                    let factor = (-4.0 * std::f64::consts::PI.powi(2) * alpha * tt * k2).exp();
                    plane[y * nx + x] = u0.data[(z * ny + y) * nx + x].scale(factor);
                }
            }
        });
        fft3_with(&mut w, Direction::Inverse, &mut ws);
        checksums.push(w.checksum());
    }
    checksums
}

fn wavenumber(i: usize, n: usize) -> i64 {
    if i <= n / 2 {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

impl Benchmark for Ft {
    fn id(&self) -> &'static str {
        "ft"
    }

    fn display_name(&self) -> String {
        format!("ft.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let (nx, ny, nz, niter) = self.params();
        let pts = self.points() as f64;
        let logs = ((nx as f64).log2() + (ny as f64).log2() + (nz as f64).log2()).max(1.0);
        // 5·N·log2(N_total) per 3-D transform, ~1.24 overhead for evolve
        // and checksum; two transforms live per iteration (evolve applies
        // to the saved forward transform).
        let flops = 6.2 * pts * logs * f64::from(niter) / 3.0 * 3.0;
        let bytes_per_pt = 16.0;
        // u0, u1 and the transform workspace resident; plus an all-ranks
        // transpose buffer that shrinks with p.
        let footprint = pts * bytes_per_pt * 2.55;
        let scratch = pts * bytes_per_pt * 2.55;
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: flops,
            work_ops: flops * 1.1,
            dram_bytes: pts * bytes_per_pt * 6.0 * f64::from(niter),
            footprint_bytes: footprint,
            footprint_per_proc_bytes: 16.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: scratch,
            comm_fraction: 0.18,
            cpu_intensity: 0.80,
            kind: ComputeKind::Mixed(0.8),
            locality: LocalityProfile::streaming(),
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::PowerOfTwo
    }

    fn verify(&self, _threads: usize) -> VerifyOutcome {
        // Round-trip identity at a scaled grid.
        let mut f = Field3::random(16, 8, 8, 777);
        let orig = f.clone();
        fft3(&mut f, Direction::Forward);
        fft3(&mut f, Direction::Inverse);
        let max_err = f
            .data
            .iter()
            .zip(&orig.data)
            .map(|(a, b)| a.sub(*b).norm_sqr().sqrt())
            .fold(0.0, f64::max);
        if max_err > 1e-10 {
            return VerifyOutcome::fail(format!("3-D round trip error {max_err:.3e}"));
        }
        // Checksums of the evolution must be finite and decaying in
        // magnitude (diffusion damps every nonzero mode).
        let sums = run_scaled(16, 8, 8, 4);
        let mags: Vec<f64> = sums.iter().map(|c| c.norm_sqr().sqrt()).collect();
        let decaying = mags.windows(2).all(|w| w[1] <= w[0] * (1.0 + 1e-9));
        if !decaying || mags.iter().any(|m| !m.is_finite()) {
            return VerifyOutcome::fail(format!("checksums not damped: {mags:?}"));
        }
        VerifyOutcome::pass(
            format!(
                "round-trip err {max_err:.2e}; checksum |s| {:.4} -> {:.4}",
                mags[0],
                mags[mags.len() - 1]
            ),
            crate::fft::fft_flops(16 * 8 * 8) * 4.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_xy_matches_naive_and_round_trips() {
        let (nx, ny, nz) = (8, 4, 2);
        let f = Field3::random(nx, ny, nz, 3);
        let mut t = vec![C64::default(); f.data.len()];
        transpose_xy_into(nx, ny, nz, &f.data, &mut t, 0);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    assert_eq!(t[(z * nx + x) * ny + y], f.data[(z * ny + y) * nx + x]);
                }
            }
        }
        let mut back = vec![C64::default(); f.data.len()];
        transpose_xy_into(ny, nx, nz, &t, &mut back, 1);
        assert_eq!(f.data, back);
    }

    #[test]
    fn transpose_xz_matches_naive_and_round_trips() {
        // ny=3 / nz=5 are deliberately neither powers of two nor TILE
        // multiples: the band/tile edge handling is what's under test.
        let (nx, ny, nz) = (8, 3, 5);
        let f = Field3::random(nx, ny, nz, 3);
        let mut t = vec![C64::default(); f.data.len()];
        transpose_xz_into(nx, ny, nz, &f.data, &mut t, 2);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    assert_eq!(t[(x * ny + y) * nz + z], f.data[(z * ny + y) * nx + x]);
                }
            }
        }
        let mut back = vec![C64::default(); f.data.len()];
        transpose_xz_into(nz, ny, nx, &t, &mut back, 3);
        assert_eq!(f.data, back);
    }

    #[test]
    fn transpose_xz_handles_wide_x() {
        // nx wider than one TILE band exercises the multi-band path.
        let (nx, ny, nz) = (64, 4, 8);
        let f = Field3::random(nx, ny, nz, 11);
        let mut t = vec![C64::default(); f.data.len()];
        transpose_xz_into(nx, ny, nz, &f.data, &mut t, 2);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    assert_eq!(t[(x * ny + y) * nz + z], f.data[(z * ny + y) * nx + x]);
                }
            }
        }
    }

    #[test]
    fn fft3_with_reused_workspace_matches_fresh() {
        let mut ws = FtWorkspace::new(8, 16, 4);
        let mut reused = Field3::random(8, 16, 4, 55);
        let mut fresh = reused.clone();
        // Warm the workspace with one unrelated transform first.
        let mut warmup = Field3::random(8, 16, 4, 1);
        fft3_with(&mut warmup, Direction::Forward, &mut ws);
        fft3_with(&mut reused, Direction::Forward, &mut ws);
        fft3(&mut fresh, Direction::Forward);
        assert_eq!(reused.data, fresh.data);
    }

    #[test]
    fn fft3_round_trip() {
        let mut f = Field3::random(8, 16, 4, 55);
        let orig = f.clone();
        fft3(&mut f, Direction::Forward);
        fft3(&mut f, Direction::Inverse);
        for (a, b) in f.data.iter().zip(&orig.data) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft3_dc_component_is_field_sum() {
        let mut f = Field3::random(8, 8, 8, 4);
        let sum = f.checksum();
        fft3(&mut f, Direction::Forward);
        assert!((f.data[0].re - sum.re).abs() < 1e-9);
        assert!((f.data[0].im - sum.im).abs() < 1e-9);
    }

    #[test]
    fn evolution_checksums_decay() {
        let sums = run_scaled(8, 8, 8, 3);
        let mags: Vec<f64> = sums.iter().map(|c| c.norm_sqr().sqrt()).collect();
        assert!(mags[2] <= mags[0]);
    }

    #[test]
    fn verify_passes() {
        let out = Ft::new(Class::C).verify(2);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn ft_c_needs_four_procs_on_8gib() {
        // Fig 3: ft.C.4 present, ft.C.2 / ft.C.1 absent on the Xeon-E5462.
        let sig = Ft::new(Class::C).signature();
        let gib8 = 8u64 << 30;
        assert!(!sig.fits_in(1, gib8));
        assert!(!sig.fits_in(2, gib8));
        assert!(sig.fits_in(4, gib8));
    }

    #[test]
    fn ft_has_largest_growth_in_footprint() {
        // Fig 8: FT's footprint grows fastest with class.
        let a = Ft::new(Class::A).signature().footprint_at(1);
        let c = Ft::new(Class::C).signature().footprint_at(1);
        assert!(c / a > 15.0, "growth {}", c / a);
    }
}
