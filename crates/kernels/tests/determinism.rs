//! Cross-width determinism of the parallel kernels.
//!
//! The executor reassembles pieces in order and element-wise kernels
//! never move arithmetic across piece boundaries, so DGEMM, the HPL LU
//! trailing update, STREAM and all eight NPB programs must produce
//! *bit-identical* results at every logical thread width: EP uses a
//! fixed block decomposition, CG a fixed-chunk dot product, IS a
//! fixed-chunk histogram and owned output segments, FT per-line
//! transforms with tiled elementwise transposes, MG elementwise grid
//! sweeps, BT/SP independent line solves, and NPB-LU a hyperplane
//! wavefront that reproduces the serial Gauss-Seidel order exactly. CI
//! runs this suite under both `HPCEVAL_THREADS=1` and
//! `HPCEVAL_THREADS=4`; when that variable is set it pins every width
//! below to the same value, and the whole suite must still pass at
//! either pin.
//!
//! `NpbRng::next_f64` values lie on a 2^-46 grid, where a sum of a few
//! of them is exact in any order, so raw values would hide a reordered
//! sum. Every raw input below is summed only together with rounded
//! products (the DGEMM k-sums; the BT, SP and LU right-hand sides
//! against their coupling·u terms), and the trace test compares
//! addresses, not values, so the inputs stay raw.

use hpceval_kernels::hpcc::dgemm::{dgemm, dgemm_naive};
use hpceval_kernels::hpcc::stream;
use hpceval_kernels::hpl::lu;
use hpceval_kernels::npb::lu as npb_lu;
use hpceval_kernels::npb::{bt, cg, ep, ft, is, mg, sp};
use hpceval_kernels::rng::NpbRng;
use hpceval_kernels::simd::{self, SimdMode};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The trace hooks are process-global: while the capture test has a
/// session open, any other test running the same kernel would record
/// into it. Kernel tests share this lock for reading; the capture test
/// takes it for writing, so it runs alone.
static KERNELS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    KERNELS.read().unwrap_or_else(PoisonError::into_inner)
}

fn with_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn dgemm_bitwise_identical_across_widths() {
    let _kernels = shared();
    // Not a BLOCK multiple, so edge tiles and the k-unroll remainder
    // path are exercised too.
    let n = 160;
    let mut rng = NpbRng::new(2024);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let c0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();

    let run = |width: usize| {
        with_width(width, || {
            let mut c = c0.clone();
            dgemm(n, 1.25, &a, &b, 0.5, &mut c);
            c
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(bits(&run(width)), bits(&reference), "dgemm diverges at width {width}");
    }
    // Anchor the shared answer against the naive triple loop.
    let mut naive = c0.clone();
    dgemm_naive(n, 1.25, &a, &b, 0.5, &mut naive);
    let max_err = reference.iter().zip(&naive).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
    assert!(max_err < 1e-10, "blocked result drifted from naive: {max_err:.3e}");
}

#[test]
fn lu_factorization_bitwise_identical_across_widths() {
    let _kernels = shared();
    let a = lu::Matrix::random(192, 31);
    let reference = lu::factor(a.clone(), 24, 1).unwrap();
    for width in WIDTHS {
        let f = lu::factor(a.clone(), 24, width).unwrap();
        assert_eq!(f.pivots, reference.pivots, "pivot sequence diverges at width {width}");
        assert_eq!(
            bits(&f.lu.data),
            bits(&reference.lu.data),
            "LU factors diverge at width {width}"
        );
    }
}

#[test]
fn stream_cycle_bitwise_identical_across_widths() {
    let _kernels = shared();
    let reference = with_width(1, || stream::run(1 << 14, 3));
    for width in WIDTHS {
        let out = with_width(width, || stream::run(1 << 14, 3));
        assert_eq!(
            out.head.to_bits(),
            reference.head.to_bits(),
            "STREAM checksum diverges at width {width}"
        );
        assert!(out.passes(), "STREAM validation fails at width {width}");
    }
}

#[test]
fn ep_sums_bitwise_identical_across_widths() {
    let _kernels = shared();
    let reference = ep::run(14, 1);
    for width in WIDTHS {
        let out = ep::run(14, width);
        assert_eq!(out.q, reference.q, "EP annulus counts diverge at width {width}");
        assert_eq!(out.sx.to_bits(), reference.sx.to_bits(), "EP Σx diverges at width {width}");
        assert_eq!(out.sy.to_bits(), reference.sy.to_bits(), "EP Σy diverges at width {width}");
    }
}

#[test]
fn is_ranking_identical_across_widths() {
    let _kernels = shared();
    let keys = is::generate_keys(1 << 15, 1 << 10, 99);
    let reference = with_width(1, || is::rank_keys(&keys, 1 << 10));
    for width in WIDTHS {
        let ranks = with_width(width, || is::rank_keys(&keys, 1 << 10));
        assert_eq!(ranks, reference, "IS ranks diverge at width {width}");
    }
}

#[test]
fn is_sort_identical_across_widths() {
    let _kernels = shared();
    let keys = is::generate_keys(1 << 15, 1 << 9, 41);
    let reference = with_width(1, || is::sort_by_ranks(&keys, 1 << 9));
    for width in WIDTHS {
        let sorted = with_width(width, || is::sort_by_ranks(&keys, 1 << 9));
        assert_eq!(sorted, reference, "IS sorted output diverges at width {width}");
    }
}

#[test]
fn cg_outcome_bitwise_identical_across_widths() {
    let _kernels = shared();
    let reference = with_width(1, || cg::run(800, 6, 3, 10.0));
    for width in WIDTHS {
        let out = with_width(width, || cg::run(800, 6, 3, 10.0));
        assert_eq!(out.zeta.to_bits(), reference.zeta.to_bits(), "CG ζ diverges at width {width}");
        assert_eq!(
            out.residual.to_bits(),
            reference.residual.to_bits(),
            "CG residual diverges at width {width}"
        );
    }
}

#[test]
fn mg_v_cycles_bitwise_identical_across_widths() {
    let _kernels = shared();
    let n = 32;
    let v = mg::Grid::random_rhs(n, 7);
    let run = |width: usize| {
        with_width(width, || {
            let mut u = mg::Grid::zeros(n);
            let mut ws = mg::MgWorkspace::new(n);
            for _ in 0..2 {
                mg::v_cycle_with(&mut u, &v, &mut ws);
            }
            u.data
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(bits(&run(width)), bits(&reference), "MG solution diverges at width {width}");
    }
}

#[test]
fn ft_checksums_bitwise_identical_across_widths() {
    let _kernels = shared();
    let run = |width: usize| with_width(width, || ft::run_scaled(16, 8, 8, 3));
    let reference = run(1);
    for width in WIDTHS {
        let sums = run(width);
        for (i, (a, b)) in sums.iter().zip(&reference).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "FT checksum {i} re, width {width}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "FT checksum {i} im, width {width}");
        }
    }
}

fn vec5_bits(v: &[[f64; 5]]) -> Vec<u64> {
    v.iter().flatten().map(|x| x.to_bits()).collect()
}

#[test]
fn bt_adi_bitwise_identical_across_widths() {
    let _kernels = shared();
    let n = 8;
    let prob = bt::AdiProblem::new(n, 555);
    let mut rng = NpbRng::new(6);
    let b: Vec<[f64; 5]> = (0..n * n * n)
        .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()])
        .collect();
    let run = |width: usize| {
        with_width(width, || {
            let mut u = vec![[0.0f64; 5]; n * n * n];
            for _ in 0..2 {
                prob.adi_step(&mut u, &b);
            }
            u
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(
            vec5_bits(&run(width)),
            vec5_bits(&reference),
            "BT solution diverges at width {width}"
        );
    }
}

#[test]
fn sp_adi_bitwise_identical_across_widths() {
    let _kernels = shared();
    let n = 8;
    let prob = sp::SpProblem::new(n, 444);
    let mut rng = NpbRng::new(8);
    let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
    let run = |width: usize| {
        with_width(width, || {
            let mut u = vec![0.0f64; n * n * n * 5];
            for _ in 0..2 {
                prob.adi_step(&mut u, &b);
            }
            u
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(bits(&run(width)), bits(&reference), "SP solution diverges at width {width}");
    }
}

/// The SIMD determinism contract: every kernel that routes spans
/// through `hpceval_kernels::simd` produces *bit-identical* output on
/// the scalar and AVX2 paths, at every logical thread width. Each
/// kernel resolves its mode once at entry on the calling thread —
/// which is where `install` runs its closure — so `with_mode` here
/// governs the whole parallel call. When `HPCEVAL_SIMD` pins a mode
/// (the env wins over `with_mode`, as documented) or the host lacks
/// AVX2, both closures resolve to the same path and the assertions
/// hold trivially — the suite stays green under every CI leg.
#[test]
fn simd_scalar_and_avx2_bitwise_identical_across_widths() {
    let _kernels = shared();
    fn pair(f: impl Fn() -> Vec<u64>) -> (Vec<u64>, Vec<u64>) {
        (simd::with_mode(SimdMode::Scalar, &f), simd::with_mode(SimdMode::Avx2, &f))
    }

    // DGEMM at a non-BLOCK-multiple order (edge tiles + k remainder).
    let n = 160;
    let mut rng = NpbRng::new(515);
    let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    let c0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                let mut c = c0.clone();
                dgemm(n, 1.25, &a, &b, 0.5, &mut c);
                bits(&c)
            })
        });
        assert_eq!(s, v, "dgemm scalar vs avx2 diverges at width {width}");
    }

    // HPL LU (trailing update + U block-row solve).
    let m0 = lu::Matrix::random(96, 77);
    for width in WIDTHS {
        let (s, v) = pair(|| bits(&lu::factor(m0.clone(), 24, width).unwrap().lu.data));
        assert_eq!(s, v, "hpl lu scalar vs avx2 diverges at width {width}");
    }

    // STREAM copy/scale/add/triad.
    for width in WIDTHS {
        let (s, v) = pair(|| with_width(width, || vec![stream::run(1 << 12, 3).head.to_bits()]));
        assert_eq!(s, v, "stream scalar vs avx2 diverges at width {width}");
    }

    // CG (strided-4 dots + axpy/xpby/scale_div updates).
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                let out = cg::run(500, 5, 2, 10.0);
                vec![out.zeta.to_bits(), out.residual.to_bits()]
            })
        });
        assert_eq!(s, v, "cg scalar vs avx2 diverges at width {width}");
    }

    // MG (stencil7 interior spans + axpy smoothing).
    let rhs = mg::Grid::random_rhs(16, 21);
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                let mut u = mg::Grid::zeros(16);
                mg::v_cycle(&mut u, &rhs);
                bits(&u.data)
            })
        });
        assert_eq!(s, v, "mg scalar vs avx2 diverges at width {width}");
    }

    // FT (SIMD butterfly in the batched per-line transforms).
    for width in WIDTHS {
        let (s, v) = pair(|| {
            with_width(width, || {
                ft::run_scaled(16, 8, 8, 2)
                    .iter()
                    .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                    .collect()
            })
        });
        assert_eq!(s, v, "ft scalar vs avx2 diverges at width {width}");
    }
}

/// The trace recorder's determinism contract: the *captured address
/// trace* — not just the numeric output — is bitwise identical at every
/// width. Chunk ids are width-invariant decomposition indices, epochs
/// advance only at serial points, every chunk is recorded, and the merge
/// sorts chunks by id, so the encoded bytes cannot depend on the pool
/// width. Replayed counters are a pure function of the trace, so they
/// inherit the guarantee.
#[test]
fn captured_traces_bitwise_identical_across_widths() {
    let _alone = KERNELS.write().unwrap_or_else(PoisonError::into_inner);
    use hpceval_machine::presets;
    use hpceval_trace::{replay, CaptureConfig, CaptureGuard, Region, ReplayOptions, Trace};

    fn capture(region: Region, width: usize) -> Trace {
        let guard =
            CaptureGuard::start(region, CaptureConfig::default()).expect("full capture starts");
        with_width(width, || match region {
            Region::Dgemm => {
                let n = 96;
                let mut rng = NpbRng::new(31);
                let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
                let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
                let mut c = vec![0.0; n * n];
                dgemm(n, 1.0, &a, &b, 0.0, &mut c);
            }
            Region::Stream => {
                stream::run(1 << 12, 2);
            }
            Region::Cg => {
                cg::run(400, 4, 2, 10.0);
            }
            Region::Mg => {
                let v = mg::Grid::random_rhs(16, 7);
                let mut u = mg::Grid::zeros(16);
                mg::v_cycle(&mut u, &v);
            }
            Region::Is => {
                // 2^18 keys = four histogram chunks, so the merge
                // orders more than one.
                let keys = is::generate_keys(1 << 18, 1 << 9, 99);
                is::rank_keys(&keys, 1 << 9);
            }
            Region::RandomAccess => {
                hpceval_kernels::hpcc::random_access::run(14, 4 << 14, 9);
            }
            Region::Ft => {
                ft::run_scaled(16, 16, 8, 1);
            }
            Region::Hpl => {
                // factor() builds its own pool; hand it the ambient
                // width so the banding actually varies under test.
                let a = lu::Matrix::random(96, 5);
                lu::factor(a, 16, rayon::current_num_threads()).unwrap();
            }
            Region::Ep => {
                ep::run(14, rayon::current_num_threads());
            }
            Region::Sp => {
                let n = 8;
                let prob = sp::SpProblem::new(n, 55);
                let mut rng = NpbRng::new(3);
                let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
                let mut u = vec![0.0; n * n * n * 5];
                prob.adi_step(&mut u, &b);
            }
            Region::Bt => {
                let n = 8;
                let prob = bt::AdiProblem::new(n, 55);
                let mut rng = NpbRng::new(3);
                let b: Vec<_> = (0..n * n * n)
                    .map(|_| {
                        [
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                        ]
                    })
                    .collect();
                let mut u = vec![[0.0f64; 5]; n * n * n];
                prob.adi_step(&mut u, &b);
            }
            Region::Lu => {
                let n = 8;
                let prob = npb_lu::SsorProblem::new(n, 55);
                let mut rng = NpbRng::new(3);
                let b: Vec<_> = (0..n * n * n)
                    .map(|_| {
                        [
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                            rng.next_f64() - 0.5,
                        ]
                    })
                    .collect();
                let mut u = vec![[0.0f64; 5]; n * n * n];
                prob.ssor_step(&mut u, &b, 1.2);
            }
        });
        guard.finish()
    }

    for region in Region::ALL {
        let reference = capture(region, 1);
        assert!(reference.total_events() > 0, "{} captured nothing", region.name());
        let ref_bytes = reference.bytes();
        let ref_counters = replay(&reference, &presets::xeon_4870(), ReplayOptions::default());
        for width in WIDTHS {
            let trace = capture(region, width);
            assert_eq!(
                trace.bytes(),
                ref_bytes,
                "{} trace diverges at width {width}",
                region.name()
            );
            let counters = replay(&trace, &presets::xeon_4870(), ReplayOptions::default());
            assert_eq!(
                counters,
                ref_counters,
                "{} replayed counters diverge at width {width}",
                region.name()
            );
        }
    }
}

#[test]
fn npb_lu_ssor_bitwise_identical_across_widths() {
    let _kernels = shared();
    let n = 8;
    let prob = npb_lu::SsorProblem::new(n, 333);
    let mut rng = NpbRng::new(9);
    let b: Vec<[f64; 5]> = (0..n * n * n)
        .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()])
        .collect();
    let run = |width: usize| {
        with_width(width, || {
            let mut u = vec![[0.0f64; 5]; n * n * n];
            for _ in 0..2 {
                prob.ssor_step(&mut u, &b, 1.2);
            }
            u
        })
    };
    let reference = run(1);
    for width in WIDTHS {
        assert_eq!(
            vec5_bits(&run(width)),
            vec5_bits(&reference),
            "LU SSOR solution diverges at width {width}"
        );
    }
}
