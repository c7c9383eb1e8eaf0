//! NPB EP — the Embarrassingly Parallel kernel.
//!
//! EP generates `2^m` pairs of uniform deviates with the NPB LCG, maps
//! each accepted pair (x² + y² ≤ 1) to a pair of independent Gaussian
//! deviates via the Marsaglia polar method, tallies them into ten annular
//! bins by `⌊max(|X|, |Y|)⌋`, and sums all deviates. It has essentially
//! no memory footprint and no communication, which is exactly why the
//! paper picks it as the *low-power* pole of the evaluation: its power
//! sits at the bottom of every figure while remaining freely configurable
//! in process count.
//!
//! Class sizes: A = 2^28 pairs, B = 2^30, C = 2^32.
//!
//! Parallelization uses the LCG jump-ahead, so a parallel run produces
//! *bitwise identical* sums to a serial run — asserted in tests.

use rayon::prelude::*;

use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval_trace::{hooks, AccessKind, Region};

use crate::rng::NpbRng;
use crate::suite::{Benchmark, ProcConstraint, VerifyOutcome};

use super::Class;

// Logical trace addresses. EP's entire memory life is the two-word LCG
// state hammered in place (per block, so streams don't alias) and the
// ten annulus tallies plus two Gaussian sums folded at block end —
// recorded coarsely per block so the hot loop stays untouched. Chunk
// ids are the fixed block indices, width-invariant by construction.
const TRACE_RNG: u64 = 0x1_0000_0000;
const TRACE_BINS: u64 = 0x2_0000_0000;

/// Machine operations per generated pair (transcendental expansion,
/// acceptance test, tallying), calibrated so the roofline model
/// reproduces the paper's measured EP runtimes on all three servers.
pub const OPS_PER_PAIR: f64 = 156.0;
/// NPB-counted operations per pair (the tiny "Mop" figure that makes the
/// paper's EP performance 0.0126–0.759 GFLOPS).
pub const REPORTED_FLOPS_PER_PAIR: f64 = 1.78;

/// The EP benchmark at a given class.
#[derive(Debug, Clone, Copy)]
pub struct Ep {
    class: Class,
}

impl Ep {
    /// EP at `class`.
    pub fn new(class: Class) -> Self {
        Self { class }
    }

    /// log2 of the pair count for the class.
    pub fn log2_pairs(&self) -> u32 {
        match self.class {
            Class::W => 25,
            Class::A => 28,
            Class::B => 30,
            Class::C => 32,
        }
    }

    /// Total pair count `2^m`.
    pub fn pairs(&self) -> u64 {
        1u64 << self.log2_pairs()
    }
}

/// Result of an EP run: Gaussian sums and the annulus tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    /// Σ of accepted Gaussian X deviates.
    pub sx: f64,
    /// Σ of accepted Gaussian Y deviates.
    pub sy: f64,
    /// Counts per annulus `⌊max(|X|,|Y|)⌋` ∈ 0..10.
    pub q: [u64; 10],
}

impl EpResult {
    /// Number of accepted pairs.
    pub fn accepted(&self) -> u64 {
        self.q.iter().sum()
    }
}

/// Fixed logical block count of the parallel decomposition. Work is
/// always split into this many LCG sub-streams and the partial sums are
/// folded in block order, so the result is *bitwise identical* for any
/// worker count (floating point addition is not associative; a
/// thread-count-shaped split would change the answer).
pub const BLOCKS: u64 = 256;

/// Run EP over `2^m` pairs using `threads` workers.
pub fn run(m: u32, threads: usize) -> EpResult {
    let pairs = 1u64 << m;
    let chunk = pairs.div_ceil(BLOCKS);
    let base = NpbRng::default_seed();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool");
    hooks::begin_epoch(Region::Ep);
    let mut partials: Vec<(u64, EpResult)> = pool.install(|| {
        (0..BLOCKS)
            .into_par_iter()
            .map(|b| {
                let start = b * chunk;
                let count = chunk.min(pairs.saturating_sub(start));
                let mut rng = base.at_offset(start * 2);
                let part = run_range(&mut rng, count);
                if let Some(mut log) = hooks::chunk(Region::Ep, b) {
                    // Stride-0 bursts: the same state words over and over
                    // — the register/L1 residency that makes EP the
                    // low-power pole.
                    log.record(AccessKind::Read, TRACE_RNG + b * 16, 0, 64);
                    log.record(AccessKind::Write, TRACE_RNG + b * 16, 0, 64);
                    log.record(AccessKind::Read, TRACE_BINS, 8, 12);
                    log.record(AccessKind::Write, TRACE_BINS, 8, 12);
                }
                (b, part)
            })
            .collect()
    });
    partials.sort_by_key(|(b, _)| *b);

    let mut total = EpResult { sx: 0.0, sy: 0.0, q: [0; 10] };
    for (_, part) in partials {
        total.sx += part.sx;
        total.sy += part.sy;
        for (acc, v) in total.q.iter_mut().zip(part.q) {
            *acc += v;
        }
    }
    total
}

/// Process `count` pairs drawn from `rng`.
fn run_range(rng: &mut NpbRng, count: u64) -> EpResult {
    let mut res = EpResult { sx: 0.0, sy: 0.0, q: [0; 10] };
    for _ in 0..count {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let gx = x * f;
            let gy = y * f;
            let bin = gx.abs().max(gy.abs()) as usize;
            if bin < 10 {
                res.q[bin] += 1;
                res.sx += gx;
                res.sy += gy;
            }
        }
    }
    res
}

impl Benchmark for Ep {
    fn id(&self) -> &'static str {
        "ep"
    }

    fn display_name(&self) -> String {
        format!("ep.{}", self.class)
    }

    fn signature(&self) -> WorkloadSignature {
        let pairs = self.pairs() as f64;
        WorkloadSignature {
            name: self.display_name(),
            reported_flops: REPORTED_FLOPS_PER_PAIR * pairs,
            work_ops: OPS_PER_PAIR * pairs,
            dram_bytes: 2e6, // tallies only; everything lives in registers/L1
            footprint_bytes: 30.0 * f64::from(1u32 << 20),
            footprint_per_proc_bytes: 4.0 * f64::from(1u32 << 20),
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.015,
            cpu_intensity: 0.38,
            kind: ComputeKind::Scalar,
            locality: LocalityProfile::compute_resident(),
        }
    }

    fn constraint(&self) -> ProcConstraint {
        ProcConstraint::Any
    }

    fn verify(&self, threads: usize) -> VerifyOutcome {
        let m = 18; // 262,144 pairs: fast but statistically meaningful
        let serial = run(m, 1);
        let parallel = run(m, threads.max(2));
        if serial != parallel {
            return VerifyOutcome::fail("parallel EP diverged from serial reference");
        }
        // Polar-method acceptance rate is π/4 ≈ 0.7854.
        let rate = serial.accepted() as f64 / f64::from(1u32 << m);
        if (rate - std::f64::consts::FRAC_PI_4).abs() > 0.01 {
            return VerifyOutcome::fail(format!("acceptance rate {rate:.4} far from π/4"));
        }
        // Gaussian sums should be near zero relative to the sample count.
        let scale = (serial.accepted() as f64).sqrt() * 4.0;
        if serial.sx.abs() > scale || serial.sy.abs() > scale {
            return VerifyOutcome::fail(format!(
                "sums off: sx={} sy={} (limit {scale})",
                serial.sx, serial.sy
            ));
        }
        VerifyOutcome::pass(
            format!("m={m} accepted={} sx={:.4} sy={:.4}", serial.accepted(), serial.sx, serial.sy),
            OPS_PER_PAIR * f64::from(1u32 << m),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_pair_counts() {
        assert_eq!(Ep::new(Class::A).pairs(), 1 << 28);
        assert_eq!(Ep::new(Class::C).pairs(), 1 << 32);
    }

    #[test]
    fn parallel_is_bitwise_deterministic() {
        let r1 = run(14, 1);
        let r2 = run(14, 2);
        let r7 = run(14, 7);
        assert_eq!(r1, r2);
        assert_eq!(r1, r7);
    }

    #[test]
    fn acceptance_rate_is_pi_over_four() {
        let r = run(16, 4);
        let rate = r.accepted() as f64 / f64::from(1u32 << 16);
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gaussian_bins_decay() {
        // The annulus counts must be strongly decreasing: |N(0,1)| mass
        // falls off fast.
        let r = run(16, 2);
        assert!(r.q[0] > r.q[1]);
        assert!(r.q[1] > r.q[2]);
        // P(3 < max(|X|,|Y|) < 4) ≈ 0.0026 vs P(max < 1) ≈ 0.50.
        assert!(r.q[3] < r.q[0] / 50);
    }

    #[test]
    fn gaussian_second_moment() {
        // Var of the accepted deviates should be ~1. Estimate from sums of
        // squares computed through a fresh pass.
        let mut rng = NpbRng::default_seed();
        let mut n = 0u64;
        let mut ss = 0.0;
        for _ in 0..(1u32 << 15) {
            let x = 2.0 * rng.next_f64() - 1.0;
            let y = 2.0 * rng.next_f64() - 1.0;
            let t = x * x + y * y;
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                ss += (x * f).powi(2) + (y * f).powi(2);
                n += 2;
            }
        }
        let var = ss / n as f64;
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn verify_passes() {
        let out = Ep::new(Class::C).verify(4);
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn signature_is_low_power_low_memory() {
        let sig = Ep::new(Class::C).signature();
        assert!(sig.cpu_intensity < 0.5, "EP must be the low-power pole");
        assert!(sig.footprint_at(4) < 100e6, "EP has no real footprint");
        assert!(sig.comm_fraction < 0.05);
    }
}
