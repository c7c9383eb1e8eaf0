//! Portable SIMD micro-kernels with a bitwise scalar↔vector
//! determinism contract.
//!
//! Every flop-dominated hot loop in this crate (DGEMM's packed-B tile
//! kernel, the HPL trailing update, STREAM's four ops, CG's axpy and
//! fixed-chunk dots, MG's stencil sweeps, the FFT butterfly) funnels
//! through the span operations in this module. Each op has **one
//! body**, written in plain Rust, which the `twin!` macro compiles
//! twice: an out-of-line scalar entry built for the baseline target
//! (the *reference semantics*) and an AVX2 twin built under
//! `#[target_feature(enable = "avx2")]`, which LLVM vectorizes to
//! 4-lane `f64`. The bodies are shaped so that it can: operands are
//! zipped or re-sliced to one length, so no bounds check is left in a
//! loop, and fixed-width lane loops over `chunks_exact` groups keep
//! [`dot`]'s accumulators and [`tile_row_update`]'s C row in registers.
//!
//! The FFT [`butterfly`] is the one op with a hand-written `core::arch`
//! body. Its complexes are interleaved `[re, im]` pairs; every scalar
//! form of the complex multiply compiled for AVX2 deinterleaves them
//! through `vperm2f128`/`vunpck` shuffles and ran about 2.8× slower
//! than the in-place `addsub` form in a microbenchmark.
//!
//! # The determinism contract
//!
//! The two paths are **identical by construction**, so the cross-width
//! determinism guarantee of the executor (DESIGN.md §10) extends across
//! instruction sets:
//!
//! * Rust never contracts `mul` + `add` into FMA (whose single rounding
//!   would diverge from the two roundings of `mul` + `add`), and LLVM
//!   never reassociates floating-point operations, so the vectorized
//!   twin performs each element's operations in the body's source
//!   order. An IEEE-754 lane op equals the scalar op on the same
//!   operands, so any vector/tail split point yields the same bits.
//! * Reductions ([`dot`]) commit to a **fixed 4-accumulator strided
//!   layout**: accumulator `j` sums the products of elements with
//!   index ≡ j (mod 4), the remainder feeds accumulators `0..len%4`,
//!   and the four partials combine as `(acc0 + acc1) + (acc2 + acc3)`.
//!   The body writes the four accumulators out as lanes, so both
//!   builds run the same recurrence; the vector build holds them in
//!   one register.
//! * The hand-written butterfly performs the scalar body's per-lane
//!   multiplies and adds in the same order, never FMA.
//!
//! # Mode resolution
//!
//! `HPCEVAL_SIMD={auto,scalar,avx2}` pins the path process-wide (read
//! once, overriding everything — mirroring `HPCEVAL_THREADS`; any other
//! value means `auto`). Otherwise a thread-local [`with_mode`] override
//! applies, else `auto`. A `scalar` request gives scalar; anything else
//! gives AVX2 when the CPU reports it and scalar otherwise, so a mode
//! whose instructions could fault is never returned. Kernels resolve
//! [`mode`] **once at their public entry point, on the caller's
//! thread**, and capture the resolved mode into their parallel
//! closures — worker threads never consult the thread-local, so
//! [`with_mode`] reliably scopes the whole kernel.
// The one place in the kernels crate allowed to use `unsafe`: calls of
// `#[target_feature(enable = "avx2")]` functions (the twins and the
// butterfly's intrinsics), reached only after `is_x86_feature_detected!`
// has confirmed the ISA.
#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::fft::C64;

/// Which micro-kernel implementation spans are processed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Plain Rust loops (the reference semantics).
    Scalar,
    /// The same bodies built for AVX2, 4-lane `f64` (bitwise equal to
    /// scalar).
    Avx2,
}

impl SimdMode {
    /// Stable lowercase label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Avx2 => "avx2",
        }
    }
}

/// Whether this process can execute the AVX2 path.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parse an `HPCEVAL_SIMD` value. `scalar` and `avx2` pin their path;
/// everything else — `auto`, empty, unknown or retired tier names —
/// is `None` (auto-detect), matching the forgiving `HPCEVAL_THREADS`
/// parse, so a leftover pin can only ever reach a bitwise path.
fn parse_mode(s: &str) -> Option<SimdMode> {
    match s.trim() {
        "scalar" => Some(SimdMode::Scalar),
        "avx2" => Some(SimdMode::Avx2),
        _ => None,
    }
}

/// The `HPCEVAL_SIMD` pin, read once.
fn env_mode() -> Option<SimdMode> {
    static ENV: OnceLock<Option<SimdMode>> = OnceLock::new();
    *ENV.get_or_init(|| parse_mode(&std::env::var("HPCEVAL_SIMD").ok()?))
}

thread_local! {
    /// Mode override installed by [`with_mode`] on the calling thread.
    static OVERRIDE: std::cell::Cell<Option<SimdMode>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with the given mode requested on this thread (the
/// determinism suite uses this to compare paths in one process). The
/// `HPCEVAL_SIMD` pin still wins, exactly as `HPCEVAL_THREADS`
/// overrides explicit pool sizes; an `Avx2` request without AVX2
/// hardware degrades to scalar. The previous override is restored
/// even if `f` unwinds, so a caught panic cannot leak the request.
pub fn with_mode<R>(mode: SimdMode, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(mode))));
    f()
}

/// The resolved mode a kernel entered right now would use: scalar if
/// the `HPCEVAL_SIMD` pin (else the [`with_mode`] override) asks for
/// it, otherwise AVX2 when the hardware has it, otherwise scalar.
pub fn mode() -> SimdMode {
    let requested = env_mode().or_else(|| OVERRIDE.with(std::cell::Cell::get));
    if requested != Some(SimdMode::Scalar) && avx2_available() {
        SimdMode::Avx2
    } else {
        SimdMode::Scalar
    }
}

/// Dispatch one span operation: the scalar entry, or the AVX2 one
/// guarded by a final (cached, branch-predicted) availability check so
/// a hand-constructed `Avx2` value can never run AVX2 code on hardware
/// without it — it falls back to scalar, exactly like [`mode`]'s
/// resolution.
macro_rules! dispatch {
    ($m:expr, scalar: $scalar:expr, avx2: $avx2:expr) => {
        match $m {
            SimdMode::Scalar => $scalar,
            SimdMode::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if avx2_available() {
                        // SAFETY: AVX2 support was just confirmed.
                        unsafe { $avx2 }
                    } else {
                        $scalar
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    $scalar
                }
            }
        }
    };
}

/// Compile one span-op body twice and dispatch on the mode: `body` is
/// the op's only definition, `#[inline(always)]` so that it lands in
/// exactly two places — the `#[inline(never)]` scalar entry (built for
/// the crate's baseline target) and the AVX2 twin (the same body built
/// with `#[target_feature(enable = "avx2")]`, where LLVM vectorizes it
/// to 4-lane `f64`). Rust never contracts `mul` + `add` into FMA and
/// LLVM never reassociates floating-point math, so both copies perform
/// each element's operations in source order: the twins are bitwise
/// equal by construction, not by hand-matched association.
macro_rules! twin {
    ($m:expr, ($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block) => {{
        #[inline(always)]
        fn body($($arg: $ty),*) $(-> $ret)? $body

        #[inline(never)]
        fn scalar($($arg: $ty),*) $(-> $ret)? {
            body($($arg),*)
        }

        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
            body($($arg),*)
        }

        dispatch!($m, scalar: scalar($($arg),*), avx2: avx2($($arg),*))
    }};
}

// ---------------------------------------------------------------------
// Element-wise spans (STREAM, CG, MG smooth, DGEMM beta scale)
// ---------------------------------------------------------------------

/// `dst[i] = s · src[i]` (STREAM scale).
pub fn scale(m: SimdMode, dst: &mut [f64], src: &[f64], s: f64) {
    assert_eq!(dst.len(), src.len());
    twin!(m, (dst: &mut [f64], src: &[f64], s: f64) {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = s * x;
        }
    });
}

/// `dst[i] *= s` in place (DGEMM's beta pass).
pub fn scale_in_place(m: SimdMode, dst: &mut [f64], s: f64) {
    twin!(m, (dst: &mut [f64], s: f64) {
        for d in dst.iter_mut() {
            *d *= s;
        }
    });
}

/// `dst[i] = a[i] + b[i]` (STREAM add).
pub fn add(m: SimdMode, dst: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    twin!(m, (dst: &mut [f64], a: &[f64], b: &[f64]) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x + y;
        }
    });
}

/// `dst[i] = a[i] + s · b[i]` (STREAM triad).
pub fn triad(m: SimdMode, dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    twin!(m, (dst: &mut [f64], a: &[f64], b: &[f64], s: f64) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = x + s * y;
        }
    });
}

/// `y[i] += a · x[i]` — the BLAS axpy (CG updates, MG smoothing, and,
/// with a negated coefficient, every `y -= a·x` form: IEEE negation
/// and multiplication commute exactly, so `y + (−a)·x` is bitwise
/// `y − a·x`).
pub fn axpy(m: SimdMode, y: &mut [f64], x: &[f64], a: f64) {
    assert_eq!(y.len(), x.len());
    twin!(m, (y: &mut [f64], x: &[f64], a: f64) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    });
}

/// `y[i] = x[i] + b · y[i]` (CG's search-direction update).
pub fn xpby(m: SimdMode, y: &mut [f64], x: &[f64], b: f64) {
    assert_eq!(y.len(), x.len());
    twin!(m, (y: &mut [f64], x: &[f64], b: f64) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = xi + b * *yi;
        }
    });
}

/// `dst[i] = src[i] / d` (CG's renormalization; lane division is
/// exactly rounded, so the paths agree bitwise).
pub fn scale_div(m: SimdMode, dst: &mut [f64], src: &[f64], d: f64) {
    assert_eq!(dst.len(), src.len());
    twin!(m, (dst: &mut [f64], src: &[f64], d: f64) {
        for (o, &x) in dst.iter_mut().zip(src) {
            *o = x / d;
        }
    });
}

// ---------------------------------------------------------------------
// Reductions (CG dots)
// ---------------------------------------------------------------------

/// Strided-4-accumulator dot product — the reduction layout of the
/// determinism contract (see the module docs). Both paths produce the
/// same bits for the same input; across *different* span lengths the
/// value legitimately differs from a serial sum by accumulated
/// rounding, which [`dot_serial`] exists to bound in tests.
pub fn dot(m: SimdMode, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    twin!(m, (a: &[f64], b: &[f64]) -> f64 {
        // Whole 4-element groups as a fixed-width lane loop, which packs
        // into one vector register; an indexed four-accumulator loop
        // stays scalar.
        let mut acc = [0.0f64; 4];
        let (qa, qb) = (a.chunks_exact(4), b.chunks_exact(4));
        let (ta, tb) = (qa.remainder(), qb.remainder());
        for (x, y) in qa.zip(qb) {
            for ((s, &xj), &yj) in acc.iter_mut().zip(x).zip(y) {
                *s += xj * yj;
            }
        }
        for ((s, &xj), &yj) in acc.iter_mut().zip(ta).zip(tb) {
            *s += xj * yj;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    })
}

/// The legacy left-to-right serial dot (`Σ aᵢ·bᵢ` in index order) —
/// the pre-SIMD reference the property suite compares [`dot`] against
/// within a rounding tolerance.
pub fn dot_serial(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

// ---------------------------------------------------------------------
// DGEMM / LU fused update spans
// ---------------------------------------------------------------------

/// Depth of one k-block of [`tile_row_update`]: the scaled multipliers
/// `alpha·a[k]` of a block fit a stack buffer. A multiple of 4, so a
/// block boundary never splits a k-quad.
const KC: usize = 64;

/// One C row against a packed `kw×jw` B tile:
/// `c[j] += Σ_k (alpha·a[k])·bt[k·jw + j]`, accumulated per element as
/// k-quads `c += ((s₀·b₀ + s₁·b₁) + s₂·b₂) + s₃·b₃` (`sₖ = alpha·a[k]`)
/// followed by singles `c += sₖ·bₖ` for the `kw mod 4` remainder. The
/// row is walked eight columns at a time (then four, then one) with
/// those columns held in an accumulator array — registers — across a
/// whole k-block instead of re-loaded and re-stored per quad, which is
/// where DGEMM's headroom lives; eliding the intermediate loads and
/// stores rounds nothing.
pub fn tile_row_update(m: SimdMode, c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
    assert_eq!(bt.len(), a.len() * c.len(), "bt must be a packed a.len()×c.len() tile");
    twin!(m, (c: &mut [f64], bt: &[f64], a: &[f64], alpha: f64) {
        let jw = c.len();
        let mut scaled = [0.0f64; KC];
        let mut bt = bt;
        for ak in a.chunks(KC) {
            let (bk, rest) = bt.split_at(ak.len() * jw);
            bt = rest;
            let sa = &mut scaled[..ak.len()];
            for (s, &x) in sa.iter_mut().zip(ak) {
                *s = alpha * x;
            }
            let mut j = 0;
            while j + 8 <= jw {
                tile_cols::<8>(&mut c[j..j + 8], bk, sa, jw, j);
                j += 8;
            }
            if j + 4 <= jw {
                tile_cols::<4>(&mut c[j..j + 4], bk, sa, jw, j);
                j += 4;
            }
            for j in j..jw {
                tile_cols::<1>(&mut c[j..j + 1], bk, sa, jw, j);
            }
        }
    });
}

/// Columns `j..j + W` of one k-block `bk` (rows of width `jw`, scaled
/// multipliers `sa`) of [`tile_row_update`]. With `W` fixed the lane
/// loops have a constant trip count, so `acc` stays in registers (two
/// 4-lane vectors at `W = 8`) across every quad and single.
#[inline(always)]
fn tile_cols<const W: usize>(c: &mut [f64], bk: &[f64], sa: &[f64], jw: usize, j: usize) {
    let mut acc = [0.0f64; W];
    acc.copy_from_slice(c);
    // Rows are split off one by one rather than by `chunks_exact(jw)`,
    // whose length is a division per call.
    let quads = sa.chunks_exact(4);
    let singles = quads.remainder();
    let mut rows = bk;
    for s in quads {
        let (q, rest) = rows.split_at(4 * jw);
        rows = rest;
        let b0 = &q[j..j + W];
        let b1 = &q[jw + j..jw + j + W];
        let b2 = &q[2 * jw + j..2 * jw + j + W];
        let b3 = &q[3 * jw + j..3 * jw + j + W];
        for ((((cv, &x0), &x1), &x2), &x3) in acc.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *cv += s[0] * x0 + s[1] * x1 + s[2] * x2 + s[3] * x3;
        }
    }
    for &s in singles {
        let (row, rest) = rows.split_at(jw);
        rows = rest;
        for (cv, &x) in acc.iter_mut().zip(&row[j..j + W]) {
            *cv += s * x;
        }
    }
    c.copy_from_slice(&acc);
}

/// `row[i] -= m0·u0[i] + m1·u1[i]` — the HPL trailing update's fused
/// two-U-row pass.
pub fn sub2(m: SimdMode, row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
    assert_eq!(row.len(), u0.len());
    assert_eq!(row.len(), u1.len());
    twin!(m, (row: &mut [f64], u0: &[f64], u1: &[f64], m0: f64, m1: f64) {
        for ((r, &x0), &x1) in row.iter_mut().zip(u0).zip(u1) {
            *r -= m0 * x0 + m1 * x1;
        }
    });
}

// ---------------------------------------------------------------------
// MG 7-point stencil span
// ---------------------------------------------------------------------

/// Interior residual span of the periodic 7-point −∇² stencil:
/// `out[i] = v[i] − (6·uc[i] − uxm[i] − uxp[i] − uym[i] − uyp[i]
/// − uzm[i] − uzp[i])`, subtractions in that exact order. The six
/// neighbor slices are the same row shifted (x±1) or the adjacent
/// rows/planes (y±1, z±1); periodic boundary points stay on the
/// caller's scalar path.
#[allow(clippy::too_many_arguments)] // one slice per stencil leg
pub fn stencil7(
    m: SimdMode,
    out: &mut [f64],
    v: &[f64],
    uc: &[f64],
    uxm: &[f64],
    uxp: &[f64],
    uym: &[f64],
    uyp: &[f64],
    uzm: &[f64],
    uzp: &[f64],
) {
    let n = out.len();
    assert!(
        v.len() == n
            && uc.len() == n
            && uxm.len() == n
            && uxp.len() == n
            && uym.len() == n
            && uyp.len() == n
            && uzm.len() == n
            && uzp.len() == n
    );
    twin!(m, (
        out: &mut [f64],
        v: &[f64],
        uc: &[f64],
        uxm: &[f64],
        uxp: &[f64],
        uym: &[f64],
        uyp: &[f64],
        uzm: &[f64],
        uzp: &[f64]
    ) {
        // Every operand re-sliced to `out`'s length, so the indexing
        // below needs no bounds check and the loop vectorizes.
        let n = out.len();
        let (v, uc, uxm, uxp) = (&v[..n], &uc[..n], &uxm[..n], &uxp[..n]);
        let (uym, uyp, uzm, uzp) = (&uym[..n], &uyp[..n], &uzm[..n], &uzp[..n]);
        for (i, o) in out.iter_mut().enumerate() {
            let au = 6.0 * uc[i] - uxm[i] - uxp[i] - uym[i] - uyp[i] - uzm[i] - uzp[i];
            *o = v[i] - au;
        }
    });
}

// ---------------------------------------------------------------------
// FFT butterfly span
// ---------------------------------------------------------------------

/// One radix-2 butterfly stage over a chunk split at `half`:
/// `v = hi[k]·w[k]`, `lo[k] = lo[k] + v`, `hi[k] = lo[k] − v`, with
/// `w[k]` conjugated when `conj` (the inverse direction — a sign flip,
/// exact). The complex multiply is per-lane mul/add
/// (`re·re − im·im`, `im·re + re·im`), never FMA.
pub fn butterfly(m: SimdMode, lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
    assert_eq!(lo.len(), hi.len());
    assert_eq!(lo.len(), tw.len());
    dispatch!(
        m,
        scalar: butterfly_scalar(lo, hi, tw, conj),
        avx2: butterfly_avx2(lo, hi, tw, conj)
    );
}

/// The butterfly's reference semantics; the AVX2 body below also runs
/// it on the odd last complex. Indexed, so it stays a scalar loop: a
/// vectorized form pays the deinterleave shuffles described below.
fn butterfly_scalar(lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
    for k in 0..lo.len() {
        let w = if conj { C64::new(tw[k].re, -tw[k].im) } else { tw[k] };
        let h = hi[k];
        let l = lo[k];
        // Lane order of the AVX2 addsub: re·re − im·im, im·re + re·im.
        let vre = h.re * w.re - h.im * w.im;
        let vim = h.im * w.re + h.re * w.im;
        lo[k] = C64::new(l.re + vre, l.im + vim);
        hi[k] = C64::new(l.re - vre, l.im - vim);
    }
}

/// The one hand-written vector body. The data are interleaved
/// `[re, im]` pairs, and a scalar complex multiply compiled for AVX2
/// deinterleaves them through `vperm2f128`/`vunpck` shuffles: every
/// scalar form tried ran about 2.8× slower than this body, which keeps
/// the pairs in place — `v = h·w` is `addsub(h·dup(w.re),
/// swap(h)·dup(w.im))`, giving `(h.re·w.re − h.im·w.im,
/// h.im·w.re + h.re·w.im)` per complex, the scalar body's exact
/// operations. Two complexes (four `f64`) per vector; unaligned
/// loads/stores, because `Vec<C64>` promises no 32-byte alignment.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn butterfly_avx2(lo: &mut [C64], hi: &mut [C64], tw: &[C64], conj: bool) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd,
        _mm256_permute_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd,
    };
    let n2 = lo.len() & !1;
    // Conjugation flips the sign bit of the imaginary lanes — the
    // exact operation the scalar body's `-tw[k].im` performs.
    let conj_mask = if conj {
        _mm256_loadu_pd([0.0f64, -0.0, 0.0, -0.0].as_ptr())
    } else {
        _mm256_setzero_pd()
    };
    // C64 is #[repr(C)], so a C64 pointer is a pair-of-f64 pointer; the
    // loop touches only the first `n2` complexes of each slice.
    let lp = lo.as_mut_ptr() as *mut f64;
    let hp = hi.as_mut_ptr() as *mut f64;
    let tp = tw.as_ptr() as *const f64;
    let mut k = 0;
    while k < n2 {
        let w = _mm256_xor_pd(_mm256_loadu_pd(tp.add(2 * k)), conj_mask);
        let h = _mm256_loadu_pd(hp.add(2 * k));
        let l = _mm256_loadu_pd(lp.add(2 * k));
        let wre = _mm256_movedup_pd(w);
        let wim = _mm256_permute_pd::<0b1111>(w);
        let hswap = _mm256_permute_pd::<0b0101>(h);
        let v = _mm256_addsub_pd(_mm256_mul_pd(h, wre), _mm256_mul_pd(hswap, wim));
        _mm256_storeu_pd(lp.add(2 * k), _mm256_add_pd(l, v));
        _mm256_storeu_pd(hp.add(2 * k), _mm256_sub_pd(l, v));
        k += 2;
    }
    butterfly_scalar(&mut lo[n2..], &mut hi[n2..], &tw[n2..], conj);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::NpbRng;

    fn vecs(len: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = NpbRng::new(seed);
        let a = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let b = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let c = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        (a, b, c)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both paths. On hardware without AVX2 the `Avx2` arm falls back to
    /// scalar, so a check of it is a second scalar check there and a
    /// check of the vector build where the silicon exists.
    const MODES: [SimdMode; 2] = [SimdMode::Scalar, SimdMode::Avx2];

    #[test]
    fn mode_resolves_to_a_runnable_path() {
        if mode() == SimdMode::Avx2 {
            assert!(avx2_available());
        }
    }

    #[test]
    fn parse_mode_pins_only_the_two_paths() {
        assert_eq!(parse_mode("scalar"), Some(SimdMode::Scalar));
        assert_eq!(parse_mode("avx2"), Some(SimdMode::Avx2));
        assert_eq!(parse_mode(" avx2\n"), Some(SimdMode::Avx2));
        // Auto, blank and retired tier names all mean auto-detect.
        for s in ["auto", "", "  ", "fma", "avx512", "neon", "AVX2"] {
            assert_eq!(parse_mode(s), None, "{s:?}");
        }
    }

    #[test]
    fn with_mode_scopes_and_restores() {
        if std::env::var("HPCEVAL_SIMD").is_ok() {
            return; // the env pin overrides the scoped request by design
        }
        let outer = mode();
        with_mode(SimdMode::Scalar, || assert_eq!(mode(), SimdMode::Scalar));
        assert_eq!(mode(), outer);
    }

    #[test]
    fn with_mode_restores_after_a_caught_panic() {
        let current = || OVERRIDE.with(std::cell::Cell::get);
        let caught = std::panic::catch_unwind(|| with_mode(SimdMode::Scalar, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(current(), None);
        with_mode(SimdMode::Avx2, || {
            let caught =
                std::panic::catch_unwind(|| with_mode(SimdMode::Scalar, || panic!("nested")));
            assert!(caught.is_err());
            assert_eq!(current(), Some(SimdMode::Avx2));
        });
        assert_eq!(current(), None);
    }

    #[test]
    fn elementwise_ops_match_their_expressions_on_both_paths() {
        // Each op against its defining expression evaluated element by
        // element here, independent of the op's body. Odd lengths leave
        // every vector tail. Thirds have full 53-bit mantissas, so a
        // reordered sum rounds differently; the generator's 46-bit
        // values would add exactly in any order.
        let thirds = |v: Vec<f64>| -> Vec<f64> { v.iter().map(|x| x / 3.0).collect() };
        for len in [1, 3, 4, 7, 16, 61, 256] {
            let (a, b, c0) = vecs(len, 42 + len as u64);
            let (u0, u1, u2) = vecs(len, 300 + len as u64);
            let (u3, u4, _) = vecs(len, 500 + len as u64);
            let [a, b, c0, u0, u1, u2, u3, u4] = [a, b, c0, u0, u1, u2, u3, u4].map(thirds);
            type Run<'a> = Box<dyn Fn(SimdMode, &mut [f64]) + 'a>;
            type Want<'a> = Box<dyn Fn(usize) -> f64 + 'a>;
            let ops: Vec<(&str, Run, Want)> = vec![
                ("scale", Box::new(|m, d| scale(m, d, &a, 1.7)), Box::new(|i| 1.7 * a[i])),
                (
                    "scale_in_place",
                    Box::new(|m, d| scale_in_place(m, d, -0.3)),
                    Box::new(|i| c0[i] * -0.3),
                ),
                ("add", Box::new(|m, d| add(m, d, &a, &b)), Box::new(|i| a[i] + b[i])),
                (
                    "triad",
                    Box::new(|m, d| triad(m, d, &a, &b, 3.0)),
                    Box::new(|i| a[i] + 3.0 * b[i]),
                ),
                (
                    "axpy",
                    Box::new(|m, d| axpy(m, d, &a, -2.25)),
                    Box::new(|i| c0[i] + -2.25 * a[i]),
                ),
                ("xpby", Box::new(|m, d| xpby(m, d, &a, 0.9)), Box::new(|i| a[i] + 0.9 * c0[i])),
                ("scale_div", Box::new(|m, d| scale_div(m, d, &a, 1.3)), Box::new(|i| a[i] / 1.3)),
                (
                    "sub2",
                    Box::new(|m, d| sub2(m, d, &a, &b, 0.6, -1.4)),
                    Box::new(|i| c0[i] - (0.6 * a[i] + -1.4 * b[i])),
                ),
                (
                    "stencil7",
                    Box::new(|m, d| stencil7(m, d, &c0, &a, &b, &u0, &u1, &u2, &u3, &u4)),
                    Box::new(|i| {
                        c0[i] - (6.0 * a[i] - b[i] - u0[i] - u1[i] - u2[i] - u3[i] - u4[i])
                    }),
                ),
            ];
            for (name, run, want) in &ops {
                let want: Vec<f64> = (0..len).map(want).collect();
                for m in MODES {
                    let mut d = c0.clone();
                    run(m, &mut d);
                    assert_eq!(bits(&want), bits(&d), "{name} len {len} mode {m:?}");
                }
            }
        }
    }

    #[test]
    fn dot_equals_the_strided_recurrence_on_both_paths() {
        for len in [0, 1, 2, 3, 4, 5, 8, 31, 4096, 4099] {
            let (a, b, _) = vecs(len, 7 + len as u64);
            // The contract written out: accumulator i mod 4 takes element
            // i in index order, which also sends the remainder to
            // accumulators 0..len%4; then (0+1) + (2+3).
            let mut acc = [0.0f64; 4];
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                acc[i % 4] += x * y;
            }
            let want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for m in MODES {
                assert_eq!(dot(m, &a, &b).to_bits(), want.to_bits(), "len {len} mode {m:?}");
            }
        }
    }

    /// The fused tile kernel must be bitwise the k-quad/single sequence
    /// it documents, on both paths, at every jw/kw shape — including
    /// column tails (jw mod 8, jw mod 4), k singles (kw mod 4) and
    /// k-blocks past the stack-buffer depth (kw 70).
    #[test]
    fn tile_row_update_bitwise_equals_quad_sequence_across_paths() {
        for &(kw, jw) in
            &[(1usize, 1usize), (3, 5), (4, 4), (4, 11), (5, 8), (7, 12), (48, 48), (70, 13)]
        {
            let mut rng = NpbRng::new((kw * 131 + jw) as u64);
            let bt: Vec<f64> = (0..kw * jw).map(|_| rng.next_f64() - 0.5).collect();
            let a: Vec<f64> = (0..kw).map(|_| rng.next_f64() - 0.5).collect();
            let c0: Vec<f64> = (0..jw).map(|_| rng.next_f64() - 0.5).collect();
            let alpha = 1.3;

            // Reference: per element, the k-quads
            // c += ((s0·b0 + s1·b1) + s2·b2) + s3·b3, then the singles
            // c += s·b of an axpy.
            let b = |k: usize, j: usize| bt[k * jw + j];
            let mut want = c0.clone();
            let mut kk = 0;
            while kk + 4 <= kw {
                let s: Vec<f64> = (kk..kk + 4).map(|k| alpha * a[k]).collect();
                for (j, w) in want.iter_mut().enumerate() {
                    *w += s[0] * b(kk, j)
                        + s[1] * b(kk + 1, j)
                        + s[2] * b(kk + 2, j)
                        + s[3] * b(kk + 3, j);
                }
                kk += 4;
            }
            for k in kk..kw {
                let s = alpha * a[k];
                for (j, w) in want.iter_mut().enumerate() {
                    *w += s * b(k, j);
                }
            }

            for m in MODES {
                let mut c = c0.clone();
                tile_row_update(m, &mut c, &bt, &a, alpha);
                assert_eq!(bits(&want), bits(&c), "kw {kw} jw {jw} mode {:?}", m);
            }
        }
    }

    #[test]
    fn butterfly_bitwise_equal_across_paths_and_legacy_mul() {
        for half in [1usize, 2, 3, 8, 17] {
            let mut rng = NpbRng::new(half as u64 + 5);
            let mk = |rng: &mut NpbRng| {
                (0..half)
                    .map(|_| C64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                    .collect::<Vec<_>>()
            };
            let lo0 = mk(&mut rng);
            let hi0 = mk(&mut rng);
            let tw = mk(&mut rng);
            for conj in [false, true] {
                let run = |m: SimdMode| {
                    let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                    butterfly(m, &mut lo, &mut hi, &tw, conj);
                    (lo, hi)
                };
                let (slo, shi) = run(SimdMode::Scalar);
                let (vlo, vhi) = run(SimdMode::Avx2);
                for k in 0..half {
                    assert_eq!(slo[k].re.to_bits(), vlo[k].re.to_bits(), "half {half} k {k}");
                    assert_eq!(slo[k].im.to_bits(), vlo[k].im.to_bits(), "half {half} k {k}");
                    assert_eq!(shi[k].re.to_bits(), vhi[k].re.to_bits(), "half {half} k {k}");
                    assert_eq!(shi[k].im.to_bits(), vhi[k].im.to_bits(), "half {half} k {k}");
                    // And both match the legacy C64::mul butterfly bitwise
                    // (the im sum is commuted, which IEEE addition absorbs).
                    let w = if conj { C64::new(tw[k].re, -tw[k].im) } else { tw[k] };
                    let v = hi0[k].mul(w);
                    let l = lo0[k].add(v);
                    let h = lo0[k].sub(v);
                    assert_eq!(slo[k].re.to_bits(), l.re.to_bits());
                    assert_eq!(slo[k].im.to_bits(), l.im.to_bits());
                    assert_eq!(shi[k].re.to_bits(), h.re.to_bits());
                    assert_eq!(shi[k].im.to_bits(), h.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn strided_dot_tracks_serial_dot() {
        let (a, b, _) = vecs(1001, 9);
        let strided = dot(SimdMode::Scalar, &a, &b);
        let serial = dot_serial(&a, &b);
        let bound: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<f64>()
            * f64::EPSILON
            * a.len() as f64;
        assert!((strided - serial).abs() <= bound, "{strided} vs {serial}");
    }
}
