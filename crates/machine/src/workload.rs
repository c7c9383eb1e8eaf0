//! Workload resource signatures.
//!
//! A [`WorkloadSignature`] is the contract between a benchmark
//! implementation (`hpceval-kernels`, `hpceval-specpower`) and the
//! performance/power models. It captures what the paper's measurement
//! infrastructure observes about a program: how much useful work it
//! reports, how much machine work it actually executes, its DRAM traffic
//! and footprint, its communication share and its cache locality.
//!
//! Signatures are *derived from the real published problem classes* (NPB
//! A/B/C sizes, HPL Ns/NBs) by the kernel crates; the algorithms
//! themselves are separately implemented and verified at scaled sizes.

use serde::{Deserialize, Serialize};

/// What execution resources dominate the program's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ComputeKind {
    /// Dense, vectorizable floating point (HPL, DGEMM, FT butterflies):
    /// throughput follows the machine's peak-FLOPS pipeline and its
    /// `sustained_vector_eff`.
    Vector,
    /// Irregular, latency-bound scalar work (EP's transcendental loop,
    /// RandomAccess, IS): throughput follows `scalar_ipc × frequency`.
    Scalar,
    /// A blend; the field is the fraction of work executed on the vector
    /// pipeline (CG ≈ 0.6, MG ≈ 0.7, ...).
    Mixed(f64),
}

impl ComputeKind {
    /// Fraction of the work that runs on the vector pipeline.
    pub fn vector_fraction(self) -> f64 {
        match self {
            ComputeKind::Vector => 1.0,
            ComputeKind::Scalar => 0.0,
            ComputeKind::Mixed(f) => f.clamp(0.0, 1.0),
        }
    }
}

/// Closed-form cache behaviour of a workload, used by the PMU synthesizer.
///
/// `l1_hit + l2_hit + l3_hit + mem` must sum to 1 over data accesses
/// (enforced by [`LocalityProfile::normalized`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalityProfile {
    /// Retired instructions per unit of `work_ops` (captures address
    /// arithmetic, loads/stores and control flow around each flop).
    pub instr_per_op: f64,
    /// Data-memory accesses per instruction (typical: 0.3–0.4).
    pub accesses_per_instr: f64,
    /// Fraction of data accesses served by L1.
    pub l1_hit: f64,
    /// Fraction served by L2.
    pub l2_hit: f64,
    /// Fraction served by L3 (folded into memory on L3-less machines).
    pub l3_hit: f64,
    /// Fraction reaching DRAM.
    pub mem: f64,
    /// Of the DRAM accesses, the fraction that are writes.
    pub write_fraction: f64,
}

impl LocalityProfile {
    /// A cache-friendly dense-blocked profile (HPL/DGEMM-like).
    pub fn dense_blocked() -> Self {
        Self {
            instr_per_op: 1.3,
            accesses_per_instr: 0.35,
            l1_hit: 0.965,
            l2_hit: 0.025,
            l3_hit: 0.007,
            mem: 0.003,
            write_fraction: 0.33,
        }
    }

    /// A streaming profile (STREAM, FT transpose phases).
    pub fn streaming() -> Self {
        Self {
            instr_per_op: 2.0,
            accesses_per_instr: 0.45,
            l1_hit: 0.80,
            l2_hit: 0.05,
            l3_hit: 0.02,
            mem: 0.13,
            write_fraction: 0.4,
        }
    }

    /// A pointer-chasing / random-access profile (RandomAccess, IS ranks).
    pub fn random_access() -> Self {
        Self {
            instr_per_op: 4.0,
            accesses_per_instr: 0.40,
            l1_hit: 0.45,
            l2_hit: 0.15,
            l3_hit: 0.10,
            mem: 0.30,
            write_fraction: 0.5,
        }
    }

    /// A compute-only profile with a tiny working set (EP).
    pub fn compute_resident() -> Self {
        Self {
            instr_per_op: 1.1,
            accesses_per_instr: 0.20,
            l1_hit: 0.999,
            l2_hit: 0.0008,
            l3_hit: 0.0001,
            mem: 0.0001,
            write_fraction: 0.5,
        }
    }

    /// Rescale the four level fractions so they sum to exactly 1.
    pub fn normalized(mut self) -> Self {
        let s = self.l1_hit + self.l2_hit + self.l3_hit + self.mem;
        if s > 0.0 {
            self.l1_hit /= s;
            self.l2_hit /= s;
            self.l3_hit /= s;
            self.mem /= s;
        }
        self
    }

    /// Check the level fractions are a distribution (within `tol`).
    pub fn is_distribution(&self, tol: f64) -> bool {
        let s = self.l1_hit + self.l2_hit + self.l3_hit + self.mem;
        (s - 1.0).abs() <= tol
            && self.l1_hit >= 0.0
            && self.l2_hit >= 0.0
            && self.l3_hit >= 0.0
            && self.mem >= 0.0
    }
}

/// The resource signature of one benchmark configuration (program ×
/// problem class × parameters), independent of process count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSignature {
    /// Display name, e.g. "ep.C" or "HPL N=30000 NB=200".
    pub name: String,
    /// Operations counted for the *reported* GFLOPS figure. For HPL this
    /// is 2/3·N³ + 2·N²; for EP the NPB counts only the Gaussian-pair
    /// bookkeeping, which is why the paper's EP "performance" is tiny
    /// (0.03–0.76 GFLOPS).
    pub reported_flops: f64,
    /// Machine operations actually executed (includes transcendental
    /// call expansion, index arithmetic amortized via the locality
    /// profile's `instr_per_op`).
    pub work_ops: f64,
    /// Total bytes moved to/from DRAM over the run.
    pub dram_bytes: f64,
    /// Resident memory of the problem, independent of process count.
    pub footprint_bytes: f64,
    /// Additional resident memory per process (buffers, replicated
    /// tables; this is what stops cg.C.2/cg.C.4 on the 8 GiB Xeon-E5462).
    pub footprint_per_proc_bytes: f64,
    /// Scratch memory that *shrinks* with the process count (an all-ranks
    /// transpose buffer is `total/p` per rank): contributes
    /// `footprint_scratch_bytes / p` to the resident set. This is why
    /// ft.C.4 runs on the 8 GiB Xeon-E5462 while ft.C.2 does not (Fig 3).
    pub footprint_scratch_bytes: f64,
    /// Fraction of runtime spent in communication/synchronization when
    /// running in parallel (0 = embarrassingly parallel).
    pub comm_fraction: f64,
    /// Power intensity of an active core relative to the most power-hungry
    /// code (HPL = 1.0; EP ≈ 0.35–0.4 per the Xeon-E5462 deltas).
    pub cpu_intensity: f64,
    /// Pipeline blend.
    pub kind: ComputeKind,
    /// Cache behaviour.
    pub locality: LocalityProfile,
}

impl WorkloadSignature {
    /// Total resident bytes for a `p`-process run.
    pub fn footprint_at(&self, p: u32) -> f64 {
        let p = p.max(1);
        self.footprint_bytes
            + self.footprint_per_proc_bytes * f64::from(p)
            + self.footprint_scratch_bytes / f64::from(p)
    }

    /// Whether a `p`-process run fits in `mem_bytes` of RAM (with the
    /// ~6 % OS reserve the paper's servers exhibit).
    pub fn fits_in(&self, p: u32, mem_bytes: u64) -> bool {
        self.footprint_at(p) <= mem_bytes as f64 * 0.94
    }

    /// Arithmetic intensity in flops per DRAM byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.dram_bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.work_ops / self.dram_bytes
        }
    }

    /// An idle pseudo-workload (the evaluation's state 1).
    pub fn idle() -> Self {
        Self {
            name: "Idle".to_string(),
            reported_flops: 0.0,
            work_ops: 0.0,
            dram_bytes: 0.0,
            footprint_bytes: 0.0,
            footprint_per_proc_bytes: 0.0,
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.0,
            cpu_intensity: 0.0,
            kind: ComputeKind::Scalar,
            locality: LocalityProfile::compute_resident(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_presets_are_distributions() {
        for p in [
            LocalityProfile::dense_blocked(),
            LocalityProfile::streaming(),
            LocalityProfile::random_access(),
            LocalityProfile::compute_resident(),
        ] {
            assert!(p.is_distribution(1e-6), "{p:?} fractions must sum to 1");
        }
    }

    #[test]
    fn locality_presets_order_by_traffic_beyond_l2() {
        // Random > streaming > dense-blocked > compute-resident, the
        // order replays of the matching captured kernels also show.
        let beyond_l2 = [
            LocalityProfile::random_access(),
            LocalityProfile::streaming(),
            LocalityProfile::dense_blocked(),
            LocalityProfile::compute_resident(),
        ]
        .map(|p| p.mem + p.l3_hit);
        assert!(beyond_l2.windows(2).all(|w| w[0] > w[1]), "{beyond_l2:?}");
    }

    #[test]
    fn normalize_fixes_sloppy_profile() {
        let p = LocalityProfile {
            instr_per_op: 1.0,
            accesses_per_instr: 0.3,
            l1_hit: 2.0,
            l2_hit: 1.0,
            l3_hit: 0.5,
            mem: 0.5,
            write_fraction: 0.3,
        }
        .normalized();
        assert!(p.is_distribution(1e-12));
        assert!((p.l1_hit - 0.5).abs() < 1e-12);
    }

    #[test]
    fn vector_fraction_clamped() {
        assert_eq!(ComputeKind::Mixed(1.7).vector_fraction(), 1.0);
        assert_eq!(ComputeKind::Mixed(-0.2).vector_fraction(), 0.0);
        assert_eq!(ComputeKind::Vector.vector_fraction(), 1.0);
        assert_eq!(ComputeKind::Scalar.vector_fraction(), 0.0);
    }

    #[test]
    fn footprint_grows_with_processes() {
        let mut s = WorkloadSignature::idle();
        s.footprint_bytes = 1e9;
        s.footprint_per_proc_bytes = 5e8;
        s.footprint_scratch_bytes = 0.0;
        assert!(s.footprint_at(4) > s.footprint_at(1));
        assert!(s.fits_in(1, 4 << 30));
        assert!(!s.fits_in(8, 4 << 30));
    }

    #[test]
    fn idle_signature_is_inert() {
        let s = WorkloadSignature::idle();
        assert_eq!(s.reported_flops, 0.0);
        assert_eq!(s.cpu_intensity, 0.0);
        assert!(s.arithmetic_intensity().is_infinite());
    }
}
