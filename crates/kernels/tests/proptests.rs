//! Property tests of the kernel implementations: solver identities,
//! transform round trips, sort invariants and signature sanity.

use proptest::prelude::*;

use hpceval_kernels::fft::{fft_in_place, Direction, C64};
use hpceval_kernels::hpcc::dgemm::{dgemm, dgemm_naive};
use hpceval_kernels::npb::block5::{block_thomas, vadd, Mat5, Vec5};
use hpceval_kernels::npb::is::{generate_keys, sort_by_ranks};
use hpceval_kernels::npb::sp::penta_solve;
use hpceval_kernels::npb::{Class, Program};
use hpceval_kernels::rng::NpbRng;
use hpceval_kernels::simd::{self, SimdMode};
use hpceval_kernels::tile::TilePlan;
use hpceval_kernels::transpose::{transpose_into, transpose_tiles};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FFT forward∘inverse is the identity for any power-of-two length.
    #[test]
    fn fft_round_trip(log_n in 1u32..10, seed in 1u64..10_000) {
        let n = 1usize << log_n;
        let mut rng = NpbRng::new(seed);
        let orig: Vec<C64> = (0..n).map(|_| C64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect();
        let mut v = orig.clone();
        fft_in_place(&mut v, Direction::Forward);
        fft_in_place(&mut v, Direction::Inverse);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    /// Blocked DGEMM equals the naive reference for arbitrary shapes
    /// and scalars.
    #[test]
    fn dgemm_matches_naive(n in 1usize..40, alpha in -2.0..2.0f64, beta in -2.0..2.0f64, seed in 1u64..1000) {
        let mut rng = NpbRng::new(seed);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let c0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut fast = c0.clone();
        let mut slow = c0;
        dgemm(n, alpha, &a, &b, beta, &mut fast);
        dgemm_naive(n, alpha, &a, &b, beta, &mut slow);
        for (x, y) in fast.iter().zip(&slow) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Counting-sort output is sorted and a permutation, any key set.
    #[test]
    fn is_sort_invariants(log_keys in 4u32..12, log_max in 2u32..10, seed in 1u64..1000) {
        let n = 1usize << log_keys;
        let max_key = 1u32 << log_max;
        let keys = generate_keys(n, max_key, seed);
        let sorted = sort_by_ranks(&keys, max_key);
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut a = keys;
        let mut b = sorted;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Pentadiagonal solve satisfies the original equations.
    #[test]
    fn penta_solve_satisfies_system(n in 3usize..30, seed in 1u64..500) {
        let mut rng = NpbRng::new(seed);
        let (s2, s1, p1, p2) = (-0.06, -0.22, -0.17, -0.05);
        let diag: Vec<f64> = (0..n).map(|_| 2.0 + rng.next_f64()).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
        let mut x = b.clone();
        prop_assert!(penta_solve(s2, s1, &diag, p1, p2, &mut x));
        for i in 0..n {
            let mut lhs = diag[i] * x[i];
            if i >= 1 { lhs += s1 * x[i - 1]; }
            if i >= 2 { lhs += s2 * x[i - 2]; }
            if i + 1 < n { lhs += p1 * x[i + 1]; }
            if i + 2 < n { lhs += p2 * x[i + 2]; }
            prop_assert!((lhs - b[i]).abs() < 1e-8, "row {i}: {lhs} vs {}", b[i]);
        }
    }

    /// Block-tridiagonal solve satisfies the original block equations.
    #[test]
    fn block_thomas_satisfies_system(n in 2usize..12, seed in 1u64..300) {
        let mut rng = NpbRng::new(seed);
        let lower: Vec<Mat5> = (0..n).map(|_| Mat5::scaled_identity(-0.15)).collect();
        let upper = lower.clone();
        let diag: Vec<Mat5> = (0..n).map(|_| Mat5::diag_dominant(&mut rng)).collect();
        let b: Vec<Vec5> = (0..n)
            .map(|_| [rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()])
            .collect();
        let mut x = b.clone();
        prop_assert!(block_thomas(&lower, &diag, &upper, &mut x));
        for i in 0..n {
            let mut lhs = diag[i].matvec(&x[i]);
            if i > 0 {
                lhs = vadd(&lhs, &lower[i].matvec(&x[i - 1]));
            }
            if i + 1 < n {
                lhs = vadd(&lhs, &upper[i].matvec(&x[i + 1]));
            }
            for c in 0..5 {
                prop_assert!((lhs[c] - b[i][c]).abs() < 1e-8);
            }
        }
    }

    /// The blocked copy-transpose is bitwise identical to the naive
    /// double loop for any shape (tile-edge straddling included).
    #[test]
    fn blocked_transpose_matches_naive(rows in 1usize..80, cols in 1usize..80, seed in 1u64..1000) {
        let mut rng = NpbRng::new(seed);
        let src: Vec<f64> = (0..rows * cols).map(|_| rng.next_f64() - 0.5).collect();
        let mut blocked = vec![0.0; rows * cols];
        transpose_into(&src, rows, cols, &mut blocked);
        let mut naive = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                naive[c * rows + r] = src[r * cols + c];
            }
        }
        prop_assert_eq!(blocked, naive);
    }

    /// The blocked transpose-add (the PTRANS op) is bitwise identical to
    /// the naive accumulating loop.
    #[test]
    fn blocked_transpose_add_matches_naive(n in 1usize..70, seed in 1u64..1000) {
        let mut rng = NpbRng::new(seed);
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let a0: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        let mut blocked = a0.clone();
        transpose_tiles(&b, 0, n, &mut blocked, 0, n, n, n, |d, s| *d += s);
        let mut naive = a0;
        for r in 0..n {
            for c in 0..n {
                naive[c * n + r] += b[r * n + c];
            }
        }
        prop_assert_eq!(blocked, naive);
    }

    /// The strided-4-accumulator dot: bitwise identical on the scalar
    /// and AVX2 paths for any length — including non-multiples of the
    /// 4-lane width, where the remainder feeds accumulators `0..len%4`
    /// — and within the documented rounding envelope of the legacy
    /// left-to-right serial dot (each path performs `≤ len` additions
    /// per accumulator, so `Σ|aᵢ·bᵢ|·ε·len` bounds either sum's drift
    /// from the exact value).
    #[test]
    fn strided_dot_bitwise_across_paths_and_near_serial(len in 0usize..600, seed in 1u64..2000) {
        let mut rng = NpbRng::new(seed);
        let a: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let s = simd::dot(SimdMode::Scalar, &a, &b);
        let v = simd::dot(SimdMode::Avx2, &a, &b);
        prop_assert_eq!(s.to_bits(), v.to_bits());
        let serial = simd::dot_serial(&a, &b);
        let magnitude: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let tol = 2.0 * magnitude * f64::EPSILON * (len.max(1) as f64);
        prop_assert!((s - serial).abs() <= tol, "strided {} vs serial {} (tol {})", s, serial, tol);
    }

    /// Every elementwise SIMD span op is bitwise identical on the
    /// scalar and AVX2 paths at any length (vector body + scalar tail
    /// must agree exactly with the pure-scalar loop).
    #[test]
    fn elementwise_span_ops_bitwise_across_paths(len in 0usize..130, seed in 1u64..2000, s in -3.0..3.0f64) {
        let mut rng = NpbRng::new(seed);
        let a: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let b: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let c: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
        let run = |m: SimdMode| {
            let mut outs = Vec::new();
            let mut d = c.clone();
            simd::scale(m, &mut d, &a, s);
            outs.extend_from_slice(&d);
            simd::add(m, &mut d, &a, &b);
            outs.extend_from_slice(&d);
            simd::triad(m, &mut d, &a, &b, s);
            outs.extend_from_slice(&d);
            let mut y = c.clone();
            simd::axpy(m, &mut y, &a, s);
            outs.extend_from_slice(&y);
            let mut y = c.clone();
            simd::xpby(m, &mut y, &a, s);
            outs.extend_from_slice(&y);
            simd::scale_div(m, &mut d, &a, s.abs() + 0.5);
            outs.extend_from_slice(&d);
            outs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        prop_assert_eq!(run(SimdMode::Scalar), run(SimdMode::Avx2));
    }

    /// The tile autotuner's closed form is total, deterministic and
    /// cache-feasible for arbitrary geometries: granularities hold,
    /// the packed B tile fits its 5/8-of-L1d budget (the tile must be
    /// L1-resident — the micro-kernel re-streams it per C row), the A
    /// panel an eighth of L2 (except where the 8-row clamp floor
    /// overrides a degenerate tiny-L2/huge-L1 geometry), and one A row
    /// slice plus one C row fit a quarter of L1d (all after the
    /// documented 4 KiB / 16 KiB input floors).
    #[test]
    fn tile_plans_deterministic_and_feasible(l1 in 1u64..1_000_000, l2 in 1u64..100_000_000) {
        let p = TilePlan::for_geometry(l1, l2);
        prop_assert_eq!(p, TilePlan::for_geometry(l1, l2));
        prop_assert_eq!(p.kc % 4, 0);
        prop_assert_eq!(p.nc % 8, 0);
        prop_assert_eq!(p.mc % 4, 0);
        prop_assert!(p.mc >= 8 && p.mc <= 64, "mc {}", p.mc);
        prop_assert!(p.kc >= 4 && p.kc <= 256, "kc {}", p.kc);
        prop_assert!(p.nc >= 8 && p.nc <= 512, "nc {}", p.nc);
        let l1 = l1.max(4 * 1024);
        let l2 = l2.max(16 * 1024);
        prop_assert!((p.kc * p.nc * 8) as u64 <= 5 * l1 / 8, "B tile vs 5·L1/8");
        prop_assert!(p.mc == 8 || (p.mc * p.kc * 8) as u64 <= l2 / 8, "A panel vs L2/8");
        prop_assert!(((p.kc + p.nc) * 8) as u64 <= l1 / 4, "row slices vs L1/4");
    }

    /// Every program × class yields a physically sane signature.
    #[test]
    fn signatures_are_sane(pi in 0usize..8, ci in 0usize..3) {
        let prog = Program::ALL[pi];
        let class = Class::ALL[ci];
        let sig = prog.benchmark(class).signature();
        prop_assert!(sig.reported_flops > 0.0);
        prop_assert!(sig.work_ops >= sig.reported_flops * 0.99);
        prop_assert!(sig.footprint_at(1) > 0.0);
        prop_assert!(sig.comm_fraction >= 0.0 && sig.comm_fraction < 0.5);
        prop_assert!(sig.cpu_intensity > 0.0 && sig.cpu_intensity <= 1.0);
        prop_assert!(sig.locality.is_distribution(1e-6));
    }
}
