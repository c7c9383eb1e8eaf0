//! The trace-driven §VI regression: kernel → trace → cache replay →
//! measured localities → train/validate.
//!
//! The analytic experiment ([`crate::regression_experiment`]) feeds the
//! PMU synthesizer hand-written [`LocalityProfile`] presets. This module
//! closes the loop instead: it *runs* the instrumented kernels at small
//! scale under the trace recorder (every chunk recorded), replays the
//! captured address streams through the server's simulated cache
//! hierarchy, converts the replayed [`TraceCounters`] into per-program
//! locality profiles, and re-runs the full train/validate pipeline with
//! those measured profiles substituted for the analytic ones. The end-to-end claim checked by
//! the tests: the paper's R² ordering (train ≈ 0.94 ≫ NPB-B ≈ 0.63 ≳
//! NPB-C ≈ 0.54) survives the swap — the regression's quality is a
//! property of the counters' information content, not of the hand-tuned
//! presets.
//!
//! Twelve kernels are instrumented: DGEMM, STREAM and RandomAccess on
//! the HPCC training side; CG, MG, IS, FT, EP, SP (the suite's
//! communication-heaviest program, whose strided y/z line solves are
//! the locality cliff the paper's §VI-C singles out), BT (the same ADI
//! skeleton with 5×5 block lines) and LU (the SSOR wavefront sweeps)
//! on the NPB validation side; and HPL, the five-state evaluation's
//! own kernel — enough to cover the dense/streaming/latency extremes
//! of the locality plane on both sides of the split. The remaining
//! programs keep their analytic profiles.

use serde::{Deserialize, Serialize};

use hpceval_kernels::hpcc::{dgemm, random_access, stream, HpccProgram};
use hpceval_kernels::hpl::{lu, HplConfig};
use hpceval_kernels::npb::{bt, cg, ep, ft, is, lu as npb_lu, mg, sp, Class, Program};
use hpceval_kernels::rng::NpbRng;
use hpceval_kernels::suite::Benchmark;
use hpceval_machine::cache::CacheHierarchy;
use hpceval_machine::spec::ServerSpec;
use hpceval_machine::workload::LocalityProfile;
use hpceval_trace::{
    replay_spec, replay_through, CaptureConfig, CaptureGuard, Region, ReplayOptions, Trace,
    TraceCounters,
};
use rayon::prelude::*;

use crate::regression_experiment::{
    collect_training_with, train, validate_with, RegressionExperiment,
};

/// Problem sizes for the capture runs. Small enough that every
/// kernel finishes in well under a second, large enough that every
/// instrumented loop produces thousands of recorded accesses and the
/// blocked/streaming/random structure is visible to the replay.
mod sizes {
    /// DGEMM order (not a block multiple: edge tiles traced too).
    pub const DGEMM_N: usize = 192;
    /// STREAM vector length and repetitions.
    pub const STREAM_LEN: usize = 1 << 14;
    pub const STREAM_REPS: u32 = 2;
    /// CG matrix order, nonzeros per row, iterations.
    pub const CG_N: usize = 800;
    pub const CG_NONZER: u32 = 4;
    pub const CG_ITERS: u32 = 2;
    /// MG grid edge and V-cycles.
    pub const MG_N: usize = 32;
    pub const MG_CYCLES: usize = 2;
    /// IS key count and key range (log2).
    pub const IS_LOG2_KEYS: u32 = 16;
    pub const IS_LOG2_MAX_KEY: u32 = 10;
    /// RandomAccess table size (log2 words); updates = 4 × table. 2 MiB
    /// — past every preset's L2, so the replay sees genuine randomness
    /// rather than an L1-resident toy table.
    pub const RA_LOG2_TABLE: u32 = 18;
    /// FT grid extents and evolution steps. 32×32×16 complex points is
    /// 256 KiB per buffer — the ping-ponged field + scratch pair must
    /// overflow the miniaturized hierarchy the way the real all-to-all
    /// transpose buffers overflow a 30 MiB L3.
    pub const FT_NX: usize = 32;
    pub const FT_NY: usize = 32;
    pub const FT_NZ: usize = 16;
    pub const FT_ITERS: u32 = 1;
    /// HPL matrix order and panel block size. 160×160 = 200 KiB — five
    /// panel iterations, and the matrix must overflow the miniaturized
    /// L3 while one U12 panel (nb rows) stays resident.
    pub const HPL_N: usize = 160;
    pub const HPL_NB: usize = 32;
    /// EP pair count (log2). 2^16 pairs over the fixed 256 blocks keeps
    /// every block non-trivial while the run stays instant.
    pub const EP_LOG2_PAIRS: u32 = 16;
    /// SP grid edge and ADI steps. 20³×5 doubles is 320 KiB per field —
    /// the x sweep walks unit-stride, the y/z sweeps jump 5n/5n²
    /// doubles per point, so the capture shows the same
    /// contiguous-vs-strided split the full-size grids show.
    pub const SP_N: usize = 20;
    pub const SP_STEPS: u32 = 2;
    /// BT grid edge and ADI steps. 16³ five-vectors (160 KiB per field,
    /// 800 KiB of diagonal blocks) keeps the block-Thomas line solves
    /// instant while the x/y/z sweeps show the same unit/n/n² point
    /// strides as SP — with 40/200-byte elements instead of scalars.
    pub const BT_N: usize = 16;
    pub const BT_STEPS: u32 = 2;
    /// LU grid edge and SSOR iterations. 12³ points relax twice per
    /// iteration (lower + upper sweep), each a 7-point gather plus a
    /// 200-byte diagonal-inverse read — enough recorded accesses to
    /// expose the wavefront's scattered-plane locality.
    pub const LU_N: usize = 12;
    pub const LU_SWEEPS: u32 = 2;
}

/// Run the instrumented kernel for `region` at the standard capture
/// size and return its trace. `None` only when `config.mode` is
/// [`hpceval_trace::TraceMode::Off`].
///
/// Capture sessions are globally serialized (the recorder is a process
/// singleton), so concurrent callers queue rather than interleave.
pub fn capture_kernel(region: Region, config: CaptureConfig) -> Option<Trace> {
    let guard = CaptureGuard::start(region, config)?;
    run_kernel(region);
    Some(guard.finish())
}

/// The capture-sized run of each instrumented kernel.
fn run_kernel(region: Region) {
    match region {
        Region::Dgemm => {
            let n = sizes::DGEMM_N;
            let mut rng = NpbRng::new(2015);
            let a: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
            let b: Vec<f64> = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
            let mut c = vec![0.0; n * n];
            dgemm::dgemm(n, 1.0, &a, &b, 0.0, &mut c);
        }
        Region::Stream => {
            stream::run(sizes::STREAM_LEN, sizes::STREAM_REPS);
        }
        Region::Cg => {
            cg::run(sizes::CG_N, sizes::CG_NONZER, sizes::CG_ITERS, 10.0);
        }
        Region::Mg => {
            let v = mg::Grid::random_rhs(sizes::MG_N, 7);
            let mut u = mg::Grid::zeros(sizes::MG_N);
            for _ in 0..sizes::MG_CYCLES {
                mg::v_cycle(&mut u, &v);
            }
        }
        Region::Is => {
            let keys = is::generate_keys(1 << sizes::IS_LOG2_KEYS, 1 << sizes::IS_LOG2_MAX_KEY, 99);
            is::rank_keys(&keys, 1 << sizes::IS_LOG2_MAX_KEY);
        }
        Region::RandomAccess => {
            random_access::run(sizes::RA_LOG2_TABLE, 4 << sizes::RA_LOG2_TABLE, 9);
        }
        Region::Ft => {
            ft::run_scaled(sizes::FT_NX, sizes::FT_NY, sizes::FT_NZ, sizes::FT_ITERS);
        }
        Region::Hpl => {
            let a = lu::Matrix::random(sizes::HPL_N, 2015);
            lu::factor(a, sizes::HPL_NB, 2).expect("random matrix is nonsingular");
        }
        Region::Ep => {
            ep::run(sizes::EP_LOG2_PAIRS, 2);
        }
        Region::Sp => {
            let n = sizes::SP_N;
            let prob = sp::SpProblem::new(n, 2015);
            let mut rng = NpbRng::new(16);
            let b: Vec<f64> = (0..n * n * n * 5).map(|_| rng.next_f64() - 0.5).collect();
            let mut u = vec![0.0; n * n * n * 5];
            for _ in 0..sizes::SP_STEPS {
                prob.adi_step(&mut u, &b);
            }
        }
        Region::Bt => {
            let n = sizes::BT_N;
            let prob = bt::AdiProblem::new(n, 2015);
            let mut rng = NpbRng::new(17);
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
            for _ in 0..sizes::BT_STEPS {
                prob.adi_step(&mut u, &b);
            }
        }
        Region::Lu => {
            let n = sizes::LU_N;
            let prob = npb_lu::SsorProblem::new(n, 2015);
            let mut rng = NpbRng::new(18);
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
            for _ in 0..sizes::LU_SWEEPS {
                prob.ssor_step(&mut u, &b, 1.2);
            }
        }
    }
}

/// Replay options for one region: the hierarchy miniaturization that
/// restores the real footprint-to-cache regime (see
/// [`ReplayOptions::cache_scale`]).
///
/// The capture problems are 10³–10⁵× smaller than the production runs
/// whose locality they stand in for, so a full-size 30 MiB L3 would
/// swallow every capture working set and report "everything cache-hits"
/// for kernels whose real instances stream gigabytes. Scales are chosen
/// so each capture working set lands in the same level of the scaled
/// hierarchy that its production working set occupies in the real one:
///
/// * DGEMM replays at full scale — its reuse working set is the packed
///   tile (tens of KiB), cache-resident at *every* problem size, so the
///   capture-scale replay is already faithful.
/// * STREAM / MG / IS / RandomAccess / FT miniaturize by 512: their bulk
///   arrays (0.25–2 MiB captured, GiB-scale real) must overflow the
///   scaled L3 exactly as the real arrays overflow 30 MiB.
/// * CG miniaturizes by 2048: the gathered x-vector (6.4 KiB captured,
///   ~MiB real) must sit in the scaled L3 while the streamed matrix
///   (38 KiB captured, 100+ MiB real) spills to DRAM.
/// * EP replays at full scale like DGEMM: its working set (LCG state +
///   tallies, ~100 bytes per block) is register/L1-resident at *every*
///   problem size.
/// * HPL miniaturizes by 512 with the streaming group: the 200 KiB
///   capture matrix must overflow the scaled L3 (matching the GiB-scale
///   real matrix against 30 MiB) while the ~40 KiB U12 panel the
///   trailing update re-reads every row stays cache-resident.
/// * SP replays at full scale with DGEMM and EP: its reuse working set
///   is the per-line component group — the five co-located components
///   of a grid line span a few KiB at *any* grid size, and adjacent
///   lanes re-read each other's cache lines — while the full fields
///   are touched once per sweep, so capacity is a first-touch effect
///   the profile barely sees (the analytic preset agrees: 4% mem).
/// * BT and LU join the full-scale group for the same reason: BT's
///   reuse working set is one line of 5×5 blocks (a few KiB at any
///   grid size, touched once per sweep otherwise), and LU's is the
///   three wavefront-adjacent planes of the 7-point stencil — both
///   analytic presets agree capacity is marginal (3% mem).
pub fn replay_options(region: Region) -> ReplayOptions {
    let cache_scale = match region {
        Region::Dgemm | Region::Ep | Region::Sp | Region::Bt | Region::Lu => 1.0,
        Region::Cg => 1.0 / 2048.0,
        Region::Stream
        | Region::Mg
        | Region::Is
        | Region::RandomAccess
        | Region::Ft
        | Region::Hpl => 1.0 / 512.0,
    };
    ReplayOptions { cache_scale }
}

/// The analytic locality profile each instrumented region's benchmark
/// declares — the baseline the measured profile replaces (and the donor
/// of the fields replay cannot observe: instruction mix and access
/// density).
pub fn analytic_locality(region: Region) -> LocalityProfile {
    // Sizing is irrelevant: locality presets don't depend on it.
    let spec = hpceval_machine::presets::xeon_4870();
    match region {
        Region::Dgemm => HpccProgram::Dgemm.benchmark(&spec).signature().locality,
        Region::Stream => HpccProgram::Stream.benchmark(&spec).signature().locality,
        Region::RandomAccess => HpccProgram::RandomAccess.benchmark(&spec).signature().locality,
        Region::Cg => Program::Cg.benchmark(Class::B).signature().locality,
        Region::Mg => Program::Mg.benchmark(Class::B).signature().locality,
        Region::Is => Program::Is.benchmark(Class::B).signature().locality,
        Region::Ft => Program::Ft.benchmark(Class::B).signature().locality,
        Region::Ep => Program::Ep.benchmark(Class::B).signature().locality,
        Region::Sp => Program::Sp.benchmark(Class::B).signature().locality,
        Region::Bt => Program::Bt.benchmark(Class::B).signature().locality,
        Region::Lu => Program::Lu.benchmark(Class::B).signature().locality,
        Region::Hpl => HplConfig::tuned(30_000, 4).signature().locality,
    }
}

/// One captured-and-replayed kernel: trace statistics plus the measured
/// locality profile that feeds the regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCapture {
    /// Benchmark id, e.g. "dgemm" (matches [`Region::name`]).
    pub kernel: String,
    /// Block-descriptor events in the trace. Every chunk is recorded; IS
    /// and RandomAccess emit a fixed 1-in-64 and 1-in-4 subset of their
    /// scattered updates.
    pub events: u64,
    /// Expanded addresses those events describe.
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Events past a chunk's 4096-event bound, counted and not kept.
    pub dropped: u64,
    /// Replayed whole-hierarchy hit ratio on the target server.
    pub hit_ratio: f64,
    /// Replayed L1 hit ratio.
    pub l1_hit_ratio: f64,
    /// The measured locality profile (replayed level split grafted onto
    /// the analytic instruction mix).
    pub locality: LocalityProfile,
}

/// All instrumented kernels captured and replayed against one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredLocalities {
    /// Per-kernel capture/replay summaries, in [`Region::ALL`] order.
    pub captures: Vec<KernelCapture>,
}

impl MeasuredLocalities {
    /// The measured profile for a benchmark id, if that kernel is
    /// instrumented.
    pub fn get(&self, kernel: &str) -> Option<LocalityProfile> {
        self.captures.iter().find(|c| c.kernel == kernel).map(|c| c.locality)
    }
}

/// Capture all instrumented kernels and replay them through `spec`'s
/// cache hierarchy. `None` only when `config.mode` is `Off`.
pub fn measure_localities(spec: &ServerSpec, config: CaptureConfig) -> Option<MeasuredLocalities> {
    let mut captures = Vec::with_capacity(Region::ALL.len());
    for region in Region::ALL {
        let trace = capture_kernel(region, config)?;
        captures.push(summarize(spec, region, &trace));
    }
    Some(MeasuredLocalities { captures })
}

/// [`hpceval_trace::replay()`] on the pool: the hierarchy is split by set
/// into as many parts as it allows up to the pool's width
/// ([`CacheHierarchy::max_parts`]), and the parts replay the one trace
/// side by side. The parts together hold one hierarchy's slots, and
/// their counters sum to the serial replay's, bit for bit, at any width.
pub fn replay_on_pool(trace: &Trace, spec: &ServerSpec, opts: ReplayOptions) -> TraceCounters {
    let spec = replay_spec(spec, opts);
    let parts = CacheHierarchy::max_parts(&spec, rayon::current_num_threads() as u64);
    (0..parts)
        .into_par_iter()
        .map(|part| replay_through(trace, CacheHierarchy::part(&spec, part, parts)))
        .reduce(TraceCounters::default, |a, b| a + b)
}

/// Replay one trace and fold the counters into a [`KernelCapture`].
fn summarize(spec: &ServerSpec, region: Region, trace: &Trace) -> KernelCapture {
    let counters = replay_on_pool(trace, spec, replay_options(region));
    let (reads, writes) = trace.access_split();
    KernelCapture {
        kernel: region.name().to_string(),
        events: trace.total_events(),
        accesses: trace.total_accesses(),
        reads,
        writes,
        dropped: trace.dropped,
        hit_ratio: counters.hit_ratio(),
        l1_hit_ratio: counters.l1_hit_ratio(),
        locality: counters.locality_profile(&analytic_locality(region)),
    }
}

/// The complete trace-driven §VI experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceExperiment {
    /// What was captured and what it replayed to.
    pub localities: MeasuredLocalities,
    /// The regression trained and validated on the measured profiles.
    pub experiment: RegressionExperiment,
}

/// Run the §VI experiment with trace-measured localities substituted
/// for the analytic presets of the instrumented programs.
///
/// `None` when capture is disabled (`config.mode == Off`) or the
/// measured training set degenerates (it does not, for any preset).
pub fn run_trace_experiment(
    spec: &ServerSpec,
    config: CaptureConfig,
    seed: u64,
) -> Option<TraceExperiment> {
    let localities = measure_localities(spec, config)?;
    let lookup = |id: &str| localities.get(id);
    let samples = collect_training_with(spec, 25, seed, &lookup);
    let observations = samples.len();
    let model = train(&samples)?;
    let npb_b = validate_with(spec, Class::B, &model, seed ^ 0xb, &lookup);
    let npb_c = validate_with(spec, Class::C, &model, seed ^ 0xc, &lookup);
    Some(TraceExperiment {
        localities,
        experiment: RegressionExperiment { observations, model, npb_b, npb_c },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpceval_machine::presets;
    use hpceval_trace::TraceMode;

    #[test]
    fn capture_off_yields_none() {
        let config = CaptureConfig { mode: TraceMode::Off, ..CaptureConfig::default() };
        assert!(capture_kernel(Region::Stream, config).is_none());
        assert!(measure_localities(&presets::xeon_4870(), config).is_none());
    }

    #[test]
    fn every_instrumented_kernel_produces_a_nonempty_trace() {
        for region in Region::ALL {
            let trace =
                capture_kernel(region, CaptureConfig::default()).expect("full capture runs");
            assert_eq!(trace.region, region);
            assert!(trace.total_events() > 0, "{} captured nothing", region.name());
            assert!(trace.total_accesses() > trace.total_events() / 2);
        }
    }

    #[test]
    fn captures_are_deterministic() {
        for region in [Region::Dgemm, Region::Is] {
            let a = capture_kernel(region, CaptureConfig::default()).unwrap();
            let b = capture_kernel(region, CaptureConfig::default()).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{} trace not reproducible", region.name());
        }
    }

    #[test]
    fn pool_replay_equals_serial_replay_at_every_width() {
        // The parts' counters sum to the serial replay's bit for bit,
        // however many parts the pool's width allows. Every preset
        // splits in two at every region's scale, so widths 2 and 4
        // really run parts side by side (unless HPCEVAL_THREADS pins
        // the width).
        let traces: Vec<Trace> = Region::ALL
            .into_iter()
            .map(|region| capture_kernel(region, CaptureConfig::default()).expect("capture runs"))
            .collect();
        let pools =
            [1, 2, 4].map(|n| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap());
        for spec in presets::all_servers() {
            for (region, trace) in Region::ALL.into_iter().zip(&traces) {
                let opts = replay_options(region);
                let parts = CacheHierarchy::max_parts(&replay_spec(&spec, opts), 2);
                assert_eq!(parts, 2, "{} {}", spec.name, region.name());
                let serial = hpceval_trace::replay(trace, &spec, opts);
                for pool in &pools {
                    let width = pool.current_num_threads();
                    let pooled = pool.install(|| replay_on_pool(trace, &spec, opts));
                    assert_eq!(pooled, serial, "{} {} at width {width}", spec.name, region.name());
                }
            }
        }
    }

    #[test]
    fn measured_localities_preserve_the_locality_ordering() {
        // The load-bearing structural claim: replayed hit rates order
        // the kernels the way the analytic presets assert they should —
        // blocked DGEMM reuses, STREAM streams, RandomAccess misses, EP
        // stays resident — on every preset. The tile plan's residency
        // level varies with the active cache geometry, so the
        // plan-invariant signal is the whole-hierarchy hit ratio, not
        // the L1 rate alone. Capture does not depend on the server, so
        // each region is captured once and replayed per preset.
        let ranked = [Region::RandomAccess, Region::Stream, Region::Dgemm, Region::Ep];
        let traces: Vec<Trace> = Region::ALL
            .into_iter()
            .map(|region| capture_kernel(region, CaptureConfig::default()).expect("capture runs"))
            .collect();
        for spec in presets::all_servers() {
            let captures: Vec<KernelCapture> = Region::ALL
                .into_iter()
                .zip(&traces)
                .map(|(region, trace)| summarize(&spec, region, trace))
                .collect();
            let locs = MeasuredLocalities { captures };
            let l1 = |k: &str| locs.get(k).unwrap().l1_hit;
            let hit = |k: &str| {
                locs.captures.iter().find(|c| c.kernel == k).map(|c| c.hit_ratio).unwrap()
            };
            let name = &spec.name;
            assert!(
                hit("dgemm") > hit("stream") + 0.02,
                "{name}: dgemm hit ratio {} must beat stream {}",
                hit("dgemm"),
                hit("stream")
            );
            assert!(
                l1("stream") > l1("randomaccess") + 0.1,
                "{name}: stream L1 {} must beat randomaccess {}",
                l1("stream"),
                l1("randomaccess")
            );
            let measured = ranked.map(|region| locs.get(region.name()).unwrap().mem);
            assert!(
                measured.windows(2).all(|w| w[0] > w[1]),
                "{name}: DRAM shares must fall randomaccess > stream > dgemm > ep: {measured:?}"
            );
            for c in &locs.captures {
                assert!(
                    c.locality.is_distribution(1e-6),
                    "{name} {}: measured profile must stay a distribution: {:?}",
                    c.kernel,
                    c.locality
                );
            }
        }
    }

    #[test]
    fn trace_driven_experiment_reproduces_the_r2_ordering() {
        // The §VI anchors — train 0.940, NPB-B 0.634, NPB-C 0.543 —
        // must survive swapping analytic profiles for replayed ones:
        // high train fit, clearly degraded but still-useful validation.
        let e = run_trace_experiment(&presets::xeon_4870(), CaptureConfig::default(), 42)
            .expect("trace-driven training succeeds");
        let train_r2 = e.experiment.model.summary().r_square;
        let b = e.experiment.npb_b.r2;
        let c = e.experiment.npb_c.r2;
        assert!(train_r2 > 0.88 && train_r2 < 0.995, "train R² {train_r2}");
        assert!(b > 0.42 && b < 0.90, "NPB-B R² {b}");
        assert!(c > 0.40 && c < 0.90, "NPB-C R² {c}");
        assert!(b < train_r2 - 0.05, "validation must trail training: {b} vs {train_r2}");
        assert!(c < train_r2 - 0.05, "validation must trail training: {c} vs {train_r2}");
    }
}
