//! Cache-geometry DGEMM tile autotuner.
//!
//! Replaces the hard-coded 48×48 blocking of the original multiply
//! with MC/KC/NC derived from a [`ServerSpec`] cache hierarchy by a
//! **deterministic closed form** — no timing at plan time, so
//! width-invariance and trace replayability survive. The working-set
//! model follows the micro-kernel's actual reuse structure, which has
//! no multi-row register blocking: `simd::tile_row_update` streams the
//! *entire* packed `KC×NC` B tile once per C row, so the tile is
//! re-read `MC` times per panel and must live in **L1d**, not L2 —
//! an L2-resident tile measurably halves vector throughput. Hence:
//!
//! * the packed `KC×NC` B tile gets **5/8 of L1d** (at the 32 KiB
//!   reference geometry this reproduces exactly the empirically strong
//!   legacy 48×48 tile), leaving the A row slice, the C row and
//!   working margin the rest of the set;
//! * the `MC×KC` A panel slice is held to **an eighth of the per-core
//!   L2** so it streams beside the packed array without evicting the
//!   next tiles, and MC is further capped at 64 rows to keep enough
//!   row panels for the parallel loop at bench sizes.
//!
//! The closed form (clamped, rounded to the contract's granularities),
//! with B = 5·L1/64 the tile budget in f64 elements:
//!
//! ```text
//! KC = min(⌊√B⌋₄, 256)                (square-ish B tile, ≤ 256 deep)
//! NC = min(⌊B/KC⌋₈, 512)
//! MC = clamp(⌊L2/(64·KC)⌋₄, 8, 64)
//! ```
//!
//! with L1/L2 in bytes per core and `⌊x⌋ₙ` rounding down to a multiple
//! of n. **KC is always a multiple of 4**, which is what makes the
//! autotuner bitwise-neutral: `simd::tile_row_update` groups k into
//! quads while `kk + 4 ≤ kw` and singles after, so as long as every
//! interior tile depth is ≡ 0 (mod 4) and k tiles are walked in
//! ascending order, the global quad/single grouping — and therefore
//! every per-element expression — is identical for *any* KC. NC and MC
//! only repartition which elements a call touches, never the
//! arithmetic on an element. The determinism suite pins this with a
//! plan-invariance bitwise test.
//!
//! The **default plan** is pinned to a documented reference geometry
//! (32 KiB L1d, 256 KiB per-core L2 — Table I's Xeon X7560-class
//! private L2, also the paper's Xeon-4870 per-core shape) rather than
//! probed from the host, so captured traces and recorded benchmarks
//! replay identically everywhere. [`TilePlan::for_spec`] gives a paper
//! server's own pick.

use hpceval_machine::spec::ServerSpec;

/// Reference L1d capacity (bytes) of the default plan's geometry.
pub const REFERENCE_L1D_BYTES: u64 = 32 * 1024;
/// Reference per-core L2 capacity (bytes) of the default plan's
/// geometry.
pub const REFERENCE_L2_BYTES: u64 = 256 * 1024;

/// A DGEMM blocking plan: row-panel height, tile depth, tile width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlan {
    /// C/A row-panel height (rows per parallel panel), multiple of 4.
    pub mc: usize,
    /// Packed-tile k depth, multiple of 4 (the bitwise-neutrality
    /// granularity of the quad-grouped micro-kernel).
    pub kc: usize,
    /// Packed-tile column width, multiple of 8 (two full AVX2
    /// accumulator chains per pass).
    pub nc: usize,
}

/// Round `x` down to a multiple of `g`, but never below `g`.
fn round_down(x: u64, g: u64) -> u64 {
    (x / g).max(1) * g
}

/// Integer square root (floor), monotone and exact for u64.
fn isqrt(x: u64) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut r = (x as f64).sqrt() as u64;
    // The float estimate can be off by one in either direction.
    while r * r > x {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= x {
        r += 1;
    }
    r
}

impl TilePlan {
    /// The closed-form pick for a cache geometry, in bytes per core.
    /// Total and deterministic: degenerate inputs are clamped up to a
    /// 4 KiB L1 / 16 KiB L2 floor before the formula applies, so the
    /// feasibility invariants below hold for every input.
    pub fn for_geometry(l1d_bytes: u64, l2_bytes: u64) -> Self {
        let l1 = l1d_bytes.max(4 * 1024);
        let l2 = l2_bytes.max(16 * 1024);
        // B-tile budget in f64 elements: 5/8 of L1d. The micro-kernel
        // re-streams the whole packed tile for every C row, so this is
        // the working set that must stay L1-resident; the remaining
        // 3/8 covers the A row slice, the C row and incidental lines.
        let budget = 5 * (l1 / 8) / 8;
        let kc = round_down(isqrt(budget), 4).min(256);
        let nc = round_down(budget / kc, 8).min(512);
        let mc = round_down(l2 / (64 * kc), 4).clamp(8, 64);
        Self { mc: mc as usize, kc: kc as usize, nc: nc as usize }
    }

    /// The pick for a server's cache hierarchy (L1d and L2 taken per
    /// core; L3 does not enter the two-level working-set model).
    pub fn for_spec(spec: &ServerSpec) -> Self {
        Self::for_geometry(spec.l1d.bytes_per_core(), spec.l2.bytes_per_core())
    }

    /// The plan every default-constructed
    /// [`crate::hpcc::dgemm::DgemmWorkspace`] uses: the reference
    /// geometry's.
    pub fn active() -> Self {
        Self::for_geometry(REFERENCE_L1D_BYTES, REFERENCE_L2_BYTES)
    }

    /// Elements of one packed tile slot (`kc·nc`).
    pub fn tile_elems(&self) -> usize {
        self.kc * self.nc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpceval_machine::presets;

    #[test]
    fn reference_plan_is_the_documented_pick() {
        // 5·32768/64 = 2560 element budget → ⌊√2560⌋₄ = 48, 2560/48
        // rounds to 48: the reference geometry reproduces the legacy
        // hand-tuned 48×48 tile exactly, with a 64-row panel.
        let p = TilePlan::for_geometry(REFERENCE_L1D_BYTES, REFERENCE_L2_BYTES);
        assert_eq!(p, TilePlan { mc: 64, kc: 48, nc: 48 });
    }

    #[test]
    fn preset_plans_fit_their_hierarchies() {
        for spec in presets::all_servers() {
            let p = TilePlan::for_spec(&spec);
            let l1 = spec.l1d.bytes_per_core();
            let l2 = spec.l2.bytes_per_core();
            assert_eq!(p.kc % 4, 0, "{}", spec.name);
            assert_eq!(p.nc % 8, 0, "{}", spec.name);
            assert_eq!(p.mc % 4, 0, "{}", spec.name);
            assert!((p.kc * p.nc * 8) as u64 <= 5 * l1 / 8, "{}: B tile vs L1d", spec.name);
            assert!((p.mc * p.kc * 8) as u64 <= l2 / 8, "{}: A panel vs L2", spec.name);
            assert!(((p.kc + p.nc) * 8) as u64 <= l1 / 4, "{}: row slices vs L1", spec.name);
        }
    }

    #[test]
    fn picks_are_deterministic_across_calls() {
        for spec in presets::all_servers() {
            assert_eq!(TilePlan::for_spec(&spec), TilePlan::for_spec(&spec));
        }
        assert_eq!(TilePlan::active(), TilePlan::active());
    }

    #[test]
    fn isqrt_is_exact_floor() {
        for x in [0u64, 1, 2, 3, 4, 15, 16, 17, 255, 256, 1 << 40, (1 << 40) + 1] {
            let r = isqrt(x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "x={x} r={r}");
        }
    }
}
