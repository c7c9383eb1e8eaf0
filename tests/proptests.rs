//! Cross-crate property-based tests (proptest) on the invariants the
//! reproduction rests on.

use proptest::prelude::*;

use hpceval::kernels::hpl::lu;
use hpceval::kernels::rng::NpbRng;
use hpceval::machine::presets;
use hpceval::machine::roofline::PerfModel;
use hpceval::machine::spec::{DvfsCurve, DvfsState};
use hpceval::machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};
use hpceval::power::analysis::{ProgramWindow, TraceAnalysis};
use hpceval::power::calibration::PowerCalibration;
use hpceval::power::meter::{PowerTrace, Wt210};
use hpceval::power::model::PowerModel;
use hpceval::regression::matrix::Matrix;
use hpceval::regression::stats::r_squared;
use hpceval::tune::{
    dominates, kernel_frontiers, pareto_frontier, CellMeasure, CellResult, TuneCell,
};

fn arb_signature() -> impl Strategy<Value = WorkloadSignature> {
    (
        1e9..1e15f64, // work_ops
        0.0..1e13f64, // dram_bytes
        1e6..5e9f64,  // footprint
        0.0..0.5f64,  // comm fraction
        0.05..1.0f64, // intensity
        0.0..1.0f64,  // vector fraction
    )
        .prop_map(|(ops, bytes, footprint, comm, intensity, vf)| WorkloadSignature {
            name: "arb".to_string(),
            reported_flops: ops,
            work_ops: ops,
            dram_bytes: bytes,
            footprint_bytes: footprint,
            footprint_per_proc_bytes: 0.0,
            footprint_scratch_bytes: 0.0,
            comm_fraction: comm,
            cpu_intensity: intensity,
            kind: ComputeKind::Mixed(vf),
            locality: LocalityProfile::streaming(),
        })
}

/// Sweep-cell results with arbitrary positive (energy, time) points —
/// the shape `tune`'s exact Pareto filter must stay correct on. The
/// coordinates come off a coarse integer grid so exact ties (distinct
/// cells with identical measures) arise often, exercising the
/// both-survive rule; a few kernel ids force the grouping path.
fn arb_cell_results() -> impl Strategy<Value = Vec<CellResult>> {
    let point = (0usize..3, 0u32..6, 1u32..=16, 1u64..500, 1u64..200);
    prop::collection::vec(point, 1..48).prop_map(|points| {
        points
            .into_iter()
            .map(|(k, state, procs, e, t)| {
                let energy_j = e as f64 * 0.5;
                let time_s = t as f64 * 0.25;
                let gflops = 100.0 / time_s;
                CellResult {
                    cell: TuneCell {
                        server: "Xeon-E5462".to_string(),
                        kernel: ["ep", "cg", "dgemm"][k].to_string(),
                        freq_state: state,
                        processes: procs,
                        seed: 1,
                    },
                    measure: CellMeasure {
                        freq_mhz: 2000 + 400 * state,
                        gflops,
                        time_s,
                        power_w: energy_j / time_s,
                        energy_j,
                        edp: energy_j * time_s,
                        ppw: gflops / (energy_j / time_s),
                    },
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Running anything costs at least idle power, at most a sane cap.
    #[test]
    fn power_bounded_below_by_idle(sig in arb_signature(), p in 1u32..=40) {
        for spec in presets::all_servers() {
            let p = p.min(spec.total_cores());
            let perf = PerfModel::new(spec.clone());
            let power = PowerModel::new(spec.clone());
            let est = perf.execute(&sig, p);
            let w = power.power_w(&sig, &est);
            prop_assert!(w >= power.idle_w(), "{}: {w} < idle", spec.name);
            prop_assert!(w < power.idle_w() + 1200.0, "{}: {w} absurd", spec.name);
        }
    }

    /// More processes never slow a workload down beyond the modeled
    /// communication overhead (once bandwidth saturates, extra ranks
    /// only add coordination cost — bounded by the comm fraction), and
    /// no parallel run is slower than the serial one.
    #[test]
    fn roofline_time_nearly_monotone_in_processes(sig in arb_signature()) {
        let spec = presets::xeon_4870();
        let perf = PerfModel::new(spec.clone());
        let serial = perf.execute(&sig, 1).time_s;
        let mut last = f64::INFINITY;
        for p in 1..=spec.total_cores() {
            let est = perf.execute(&sig, p);
            prop_assert!(
                est.time_s <= serial * 1.0000001,
                "p={p}: {} slower than serial {serial}",
                est.time_s
            );
            prop_assert!(
                est.time_s <= last * (1.0 + sig.comm_fraction),
                "p={p}: {} jumped from {last}",
                est.time_s
            );
            last = est.time_s;
        }
    }

    /// The LCG jump-ahead equals sequential draws for arbitrary offsets.
    #[test]
    fn rng_jump_equals_sequential(k in 0u64..5000, seed in 1u64..(1 << 40)) {
        let mut seq = NpbRng::new(seed);
        for _ in 0..k {
            seq.next_f64();
        }
        let jumped = NpbRng::new(seed).at_offset(k);
        prop_assert_eq!(seq.state(), jumped.state());
    }

    /// LU solve round-trips A·x = b for random diagonally dominant
    /// systems at any block size.
    #[test]
    fn lu_solves_dominant_systems(n in 2usize..24, nb in 1usize..8, seed in 0u64..1000) {
        let mut a = lu::Matrix::random(n, seed);
        // Lift the diagonal to guarantee nonsingularity.
        for i in 0..n {
            let v = a.get(i, i) + n as f64;
            a.set(i, i, v);
        }
        let mut rng = NpbRng::new(seed + 1);
        let x_true: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
        let b = a.matvec(&x_true);
        let f = lu::factor(a, nb, 1).expect("diagonally dominant");
        let x = f.solve(&b);
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    /// CSV serialization round-trips arbitrary traces (within the
    /// printed precision).
    #[test]
    fn trace_csv_round_trip(samples in prop::collection::vec((0.0..1e5f64, 0.0..2000.0f64), 1..100)) {
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        sorted.dedup_by(|a, b| a.0 == b.0);
        let mut t = PowerTrace::new();
        for (ts, w) in &sorted {
            t.push(*ts, *w);
        }
        let back = PowerTrace::from_csv(&t.to_csv()).expect("own CSV is valid");
        prop_assert_eq!(back.len(), t.len());
        for (a, b) in t.samples.iter().zip(&back.samples) {
            prop_assert!((a.t_s - b.t_s).abs() <= 5e-4 + 1e-9);
            prop_assert!((a.watts - b.watts).abs() <= 5e-5 + 1e-9);
        }
    }

    /// Trimming never moves the mean outside the sample min/max.
    #[test]
    fn trimmed_mean_is_bounded(level in 10.0..1000.0f64, noise in 0.0..10.0f64, seed in 0u64..500) {
        let mut m = Wt210::new(seed).with_noise(noise);
        let trace = m.record(0.0, 120.0, move |_| level);
        let lo = trace.samples.iter().map(|s| s.watts).fold(f64::MAX, f64::min);
        let hi = trace.samples.iter().map(|s| s.watts).fold(f64::MIN, f64::max);
        let st = TraceAnalysis::new(trace)
            .analyze(ProgramWindow { start_s: 0.0, end_s: 121.0 })
            .expect("trace populated");
        prop_assert!(st.mean_w >= lo - 1e-9 && st.mean_w <= hi + 1e-9);
    }

    /// OLS recovers planted coefficients exactly on noise-free data.
    #[test]
    fn ols_recovers_planted_model(c0 in -5.0..5.0f64, c1 in -5.0..5.0f64, icpt in -10.0..10.0f64) {
        let n = 40;
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = ((i * 7 + 3) % 13) as f64 - 6.0;
            let b = ((i * 5 + 1) % 11) as f64 - 5.0;
            data.extend([a, b]);
            y.push(c0 * a + c1 * b + icpt);
        }
        let x = Matrix::from_rows(n, 2, data);
        let (model, summary) =
            hpceval::regression::ols::fit(&x, &y, &[0, 1]).expect("full rank");
        prop_assert!((model.coefficients[0] - c0).abs() < 1e-8);
        prop_assert!((model.coefficients[1] - c1).abs() < 1e-8);
        prop_assert!((model.intercept - icpt).abs() < 1e-7);
        prop_assert!(summary.r_square > 1.0 - 1e-9 || (c0.abs() + c1.abs()) < 1e-9);
    }

    /// R² of a prediction equal to the measurement is 1; shuffling
    /// degrades it.
    #[test]
    fn r_squared_identity(values in prop::collection::vec(-100.0..100.0f64, 3..50)) {
        // Need nonzero variance.
        let spread = values.iter().cloned().fold(f64::MIN, f64::max)
            - values.iter().cloned().fold(f64::MAX, f64::min);
        prop_assume!(spread > 1e-6);
        prop_assert!((r_squared(&values, &values) - 1.0).abs() < 1e-12);
    }

    /// Cache replay orders synthetic access patterns the way the
    /// analytic locality presets claim: a reused tile (dense-blocked)
    /// keeps a higher L1 hit rate than a sequential sweep (streaming),
    /// which beats uniform-random pointer chasing — for any footprint
    /// well past L1 and any pass count.
    #[test]
    fn replayed_l1_ordering_matches_the_locality_presets(
        footprint_kib in 256usize..1024,
        passes in 2u32..4,
        seed in 0u64..1_000,
    ) {
        use hpceval::trace::{replay, ReplayOptions, TraceEvent};

        let spec = presets::xeon_4870(); // 32 KiB L1
        let doubles = (footprint_kib << 10) / 8;

        // Dense-blocked: one 16 KiB tile revisited every pass.
        let blocked: Vec<TraceEvent> =
            (0..passes).map(|_| TraceEvent::read(0, 8, (16 << 10) / 8)).collect();
        // Streaming: sequential unit-stride sweeps of the footprint.
        let streaming: Vec<TraceEvent> =
            (0..passes).map(|_| TraceEvent::read(0, 8, doubles as u32)).collect();
        // Random: as many single accesses, scattered over the footprint.
        let mut state = seed;
        let random: Vec<TraceEvent> = (0..u64::from(passes) * doubles as u64)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
                TraceEvent::read((state >> 16) % ((footprint_kib as u64) << 10), 0, 1)
            })
            .collect();

        let l1 = |events: Vec<TraceEvent>| {
            // Chunks of 4096 bursts: the capture's per-chunk bound.
            let trace = captured(events.chunks(4096));
            replay(&trace, &spec, ReplayOptions::default()).l1_hit_ratio()
        };
        let (b, s, r) = (l1(blocked), l1(streaming), l1(random));
        prop_assert!(b > s + 0.02, "blocked {b} must beat streaming {s}");
        prop_assert!(s > r + 0.1, "streaming {s} must beat random {r}");
    }
}

/// `chunks` of bursts captured in order through the trace hooks, the
/// `i`-th slice as chunk `i` of a STREAM session. No other test in this
/// file runs STREAM outside its own session, so nothing else lands in
/// the trace.
fn captured<'a>(
    chunks: impl IntoIterator<Item = &'a [hpceval::trace::TraceEvent]>,
) -> hpceval::trace::Trace {
    use hpceval::trace::{hooks, CaptureConfig, CaptureGuard, Region};

    let guard = CaptureGuard::start(Region::Stream, CaptureConfig::default()).expect("full");
    for (id, events) in chunks.into_iter().enumerate() {
        let mut log = hooks::chunk(Region::Stream, id as u64).expect("session is live");
        for e in events {
            log.record(e.kind, e.base, e.stride, e.count);
        }
    }
    guard.finish()
}

/// The analytic locality presets and the trace-replay measurements
/// agree on DGEMM and STREAM within a documented tolerance. The bounds
/// are deliberately loose (the presets are hand-tuned splits, the
/// replay measures line-granular spatial locality), but tight enough
/// that a replay regression that flips a kernel's character
/// (cache-resident vs streaming) trips them.
#[test]
fn measured_and_analytic_localities_agree_for_dgemm_and_stream() {
    use hpceval::core::trace_experiment::{analytic_locality, capture_kernel, replay_options};
    use hpceval::trace::{replay, CaptureConfig, Region};

    let spec = presets::xeon_4870();
    let mut l1 = [0.0f64; 2];
    for (i, region) in [Region::Dgemm, Region::Stream].into_iter().enumerate() {
        let trace = capture_kernel(region, CaptureConfig::default()).expect("full capture runs");
        let counters = replay(&trace, &spec, replay_options(region));
        let analytic = analytic_locality(region);
        let measured = counters.locality_profile(&analytic);
        assert!(
            (measured.l1_hit - analytic.l1_hit).abs() <= 0.30,
            "{}: measured l1 {} vs analytic {}",
            region.name(),
            measured.l1_hit,
            analytic.l1_hit
        );
        assert!(
            (measured.mem - analytic.mem).abs() <= 0.25,
            "{}: measured mem {} vs analytic {}",
            region.name(),
            measured.mem,
            analytic.mem
        );
        l1[i] = measured.l1_hit;
    }
    // Blocked DGEMM out-hits streaming STREAM.
    assert!(l1[0] > l1[1], "dgemm l1 {} must beat stream l1 {}", l1[0], l1[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No frontier point is dominated by ANY input point — frontier
    /// membership is exact, not a sort-based approximation.
    #[test]
    fn frontier_points_are_never_dominated(cells in arb_cell_results()) {
        let f = pareto_frontier(&cells);
        prop_assert!(!f.is_empty(), "non-empty input must yield a frontier");
        for kept in &f {
            for c in &cells {
                prop_assert!(
                    !dominates(&c.measure, &kept.measure),
                    "frontier point {:?} dominated by {:?}",
                    kept.cell,
                    c.cell
                );
            }
        }
    }

    /// Every dropped point is dominated by some *frontier* point:
    /// dominance chains always terminate on the frontier, so nothing
    /// is discarded without an on-frontier witness.
    #[test]
    fn dropped_points_are_dominated_by_the_frontier(cells in arb_cell_results()) {
        let f = pareto_frontier(&cells);
        for c in &cells {
            if !f.contains(c) {
                prop_assert!(
                    f.iter().any(|k| dominates(&k.measure, &c.measure)),
                    "dropped {:?} has no dominating frontier point",
                    c
                );
            }
        }
    }

    /// The frontier — and the per-kernel optima derived from it — is
    /// bitwise identical under any input permutation. This is the
    /// property the WAL crash-replay rests on: cells completing in a
    /// reshuffled order after a kill must reproduce the report.
    #[test]
    fn frontier_is_invariant_under_permutation(
        cells in arb_cell_results(),
        seed in 0u64..(1 << 32),
    ) {
        let want = pareto_frontier(&cells);
        let want_groups = kernel_frontiers(&cells);
        let mut shuffled = cells;
        // Deterministic Fisher–Yates driven by the generated seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(pareto_frontier(&shuffled), want);
        prop_assert_eq!(kernel_frontiers(&shuffled), want_groups);
    }

    /// On any well-formed DVFS ladder (ascending clocks, non-decreasing
    /// voltage) the dynamic-power ratio f·V² is strictly monotone in
    /// the state index, exactly 1.0 at the nominal top state, and < 1.0
    /// for every state below it: a lower frequency state never draws
    /// more dynamic power.
    #[test]
    fn dvfs_power_ratio_is_monotone_on_arbitrary_ladders(
        f0 in 600u32..1600,
        v0 in 0.7..1.1f64,
        steps in prop::collection::vec((50u32..500, 0.0..0.15f64), 1..5),
    ) {
        let mut states = vec![DvfsState { freq_mhz: f0, volts: v0 }];
        for (df, dv) in steps {
            let last = *states.last().unwrap();
            states.push(DvfsState { freq_mhz: last.freq_mhz + df, volts: last.volts + dv });
        }
        let nominal = states.len() - 1;
        let curve = DvfsCurve { states, nominal };
        prop_assert_eq!(curve.power_ratio(nominal), 1.0);
        let ratios: Vec<f64> = (0..curve.len()).map(|i| curve.power_ratio(i)).collect();
        for w in ratios.windows(2) {
            prop_assert!(w[0] < w[1], "f·V² must grow with the clock: {:?}", ratios);
        }
        for (i, r) in ratios.iter().enumerate() {
            if i != nominal {
                prop_assert!(*r < 1.0, "state {} below nominal must scale down, got {}", i, r);
            }
        }
    }

    /// Stepping down any preset's DVFS ladder never raises the
    /// roofline or the dynamic power: the compute ceilings and the
    /// dynamic calibration terms shrink monotonically with the state
    /// index, the memory-side constants stay put (DRAM and uncore keep
    /// their clocks), and the modeled execution time of an arbitrary
    /// workload never improves from downclocking.
    #[test]
    fn dvfs_downclock_never_raises_roofline_or_dynamic_power(
        sig in arb_signature(),
        p in 1u32..=40,
    ) {
        for spec in presets::all_servers() {
            let p = p.min(spec.total_cores());
            let nominal_cal = PowerCalibration::for_server(&spec);
            // (peak_gflops, scalar_gops, core_w, idle_w, time_s) of the
            // previous (slower) state, walking the ladder upward.
            let mut prev: Option<(f64, f64, f64, f64, f64)> = None;
            for idx in 0..spec.dvfs.len() {
                let down = spec.at_dvfs_state(idx).unwrap();
                let cal = PowerCalibration::for_server(&down);
                prop_assert_eq!(down.mem_bw_gbs, spec.mem_bw_gbs);
                prop_assert_eq!(down.per_core_bw_gbs, spec.per_core_bw_gbs);
                prop_assert_eq!(cal.mem_w_per_gbs, nominal_cal.mem_w_per_gbs);
                prop_assert_eq!(cal.footprint_w, nominal_cal.footprint_w);
                prop_assert_eq!(cal.comm_w_per_core, nominal_cal.comm_w_per_core);
                let est = PerfModel::new(down.clone()).execute(&sig, p);
                if let Some((peak, scalar, core_w, idle_w, time_s)) = prev {
                    prop_assert!(down.peak_gflops() > peak, "{}: compute ceiling follows the clock", spec.name);
                    prop_assert!(down.scalar_gops() > scalar, "{}: scalar ceiling follows the clock", spec.name);
                    prop_assert!(cal.core_w > core_w, "{}: dynamic core watts follow f·V²", spec.name);
                    prop_assert!(cal.idle_w > idle_w, "{}: the dynamic idle share follows f·V²", spec.name);
                    prop_assert!(
                        est.time_s <= time_s * (1.0 + 1e-9),
                        "{}: p={} state {} at a faster clock must not run slower ({} > {})",
                        spec.name, p, idx, est.time_s, time_s
                    );
                }
                prev = Some((down.peak_gflops(), down.scalar_gops(), cal.core_w, cal.idle_w, est.time_s));
            }
        }
    }
}

/// The per-address reference replay: every expanded address of every
/// burst through `access_rw`, one call each. Line-run `replay` must
/// match it bit for bit; this is the oracle, not a second code path.
fn per_address_replay(
    trace: &hpceval::trace::Trace,
    spec: &hpceval::machine::spec::ServerSpec,
    opts: hpceval::trace::ReplayOptions,
) -> hpceval::trace::TraceCounters {
    use hpceval::machine::cache::CacheHierarchy;
    use hpceval::trace::replay::replay_spec;
    use hpceval::trace::{AccessKind, TraceCounters};

    let mut h = CacheHierarchy::for_server(&replay_spec(spec, opts));
    for e in trace.events() {
        for addr in e.addresses() {
            h.access_rw(addr, e.kind == AccessKind::Write);
        }
    }
    h.flush();
    let c = h.counters();
    TraceCounters {
        accesses: c.total,
        l1_hits: c.l1_hits,
        l2_hits: c.l2_hits,
        l3_hits: c.l3_hits,
        mem_reads: c.mem_reads,
        mem_writes: c.mem_writes,
    }
}

/// Random bursts: strides 0–130 B (multiples of 8 or not), bases that
/// straddle lines anywhere in a 256 KiB footprint, 0–300 accesses,
/// reads and writes mixed.
fn arb_bursts() -> impl Strategy<Value = Vec<hpceval::trace::TraceEvent>> {
    use hpceval::trace::{AccessKind, TraceEvent};

    let burst =
        (0u64..1 << 18, 0u32..=130, 0u32..=300, 0u8..2).prop_map(|(base, stride, count, write)| {
            let kind = if write == 1 { AccessKind::Write } else { AccessKind::Read };
            TraceEvent { kind, base, stride, count }
        });
    prop::collection::vec(burst, 1..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Line-run replay returns exactly the per-address counters on every
    /// preset, at full and miniaturized cache scales.
    #[test]
    fn line_run_replay_equals_per_address_replay(
        bursts in arb_bursts(),
        split in 0usize..48,
    ) {
        use hpceval::trace::{replay, ReplayOptions};

        // Two chunks, so replay also crosses a chunk boundary.
        let at = split.min(bursts.len());
        let trace = captured([&bursts[..at], &bursts[at..]]);
        for spec in presets::all_servers() {
            for cache_scale in [1.0, 1.0 / 512.0, 1.0 / 2048.0] {
                let opts = ReplayOptions { cache_scale };
                let want = per_address_replay(&trace, &spec, opts);
                let got = replay(&trace, &spec, opts);
                prop_assert!(
                    got == want,
                    "{} {opts:?}: line runs {got:?} vs per address {want:?}",
                    spec.name
                );
            }
        }
    }
}
