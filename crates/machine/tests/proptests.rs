//! Property tests of the machine substrate: cache simulation, placement
//! and the roofline model.

use proptest::prelude::*;

use hpceval_machine::cache::{CacheHierarchy, CacheSim};
use hpceval_machine::presets;
use hpceval_machine::roofline::PerfModel;
use hpceval_machine::spec::CacheLevel;
use hpceval_machine::topology::{Placement, PlacementPlan};
use hpceval_machine::workload::{ComputeKind, LocalityProfile, WorkloadSignature};

fn arb_cache() -> impl Strategy<Value = CacheLevel> {
    (
        1u32..=512,
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        prop::sample::select(vec![32u32, 64, 128]),
    )
        .prop_map(|(size_kib, ways, line)| {
            CacheLevel::private(size_kib.max(ways * line / 1024).max(1), ways, line)
        })
        .prop_filter("geometry must have at least one set", |c| c.sets() >= 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// hits + misses == accesses, always.
    #[test]
    fn cache_accounting_is_exact(cache in arb_cache(), addrs in prop::collection::vec(0u64..1 << 24, 1..500)) {
        let mut sim = CacheSim::new(&cache);
        for &a in &addrs {
            sim.access(a);
        }
        prop_assert_eq!(sim.hits() + sim.misses(), addrs.len() as u64);
    }

    /// Replaying the same stream twice never increases the miss count of
    /// the second pass beyond the first (LRU warm-up only helps).
    #[test]
    fn second_pass_never_misses_more(cache in arb_cache(), addrs in prop::collection::vec(0u64..1 << 18, 1..300)) {
        let mut sim = CacheSim::new(&cache);
        for &a in &addrs {
            sim.access(a);
        }
        let first_misses = sim.misses();
        for &a in &addrs {
            sim.access(a);
        }
        let second_misses = sim.misses() - first_misses;
        prop_assert!(second_misses <= first_misses);
    }

    /// A single repeated address hits on every access after the first.
    #[test]
    fn single_line_always_hits(cache in arb_cache(), addr in 0u64..1 << 30, reps in 1usize..50) {
        let mut sim = CacheSim::new(&cache);
        sim.access(addr);
        for _ in 0..reps {
            prop_assert!(sim.access(addr));
        }
    }

    /// Placement invariants: active cores == requested (clamped), chips
    /// within bounds, both policies.
    #[test]
    fn placement_conserves_cores(p in 0u32..64) {
        for spec in presets::all_servers() {
            for policy in [Placement::Scatter, Placement::Compact] {
                let plan = PlacementPlan::place(&spec, p, policy);
                prop_assert_eq!(plan.active_cores(), p.min(spec.total_cores()));
                prop_assert!(plan.active_chips <= spec.chips);
                prop_assert!(plan
                    .cores_per_chip
                    .iter()
                    .all(|&c| c <= spec.cores_per_chip));
            }
        }
    }

    /// Scatter never wakes fewer chips than compact.
    #[test]
    fn scatter_wakes_at_least_as_many_chips(p in 1u32..64) {
        for spec in presets::all_servers() {
            let s = PlacementPlan::place(&spec, p, Placement::Scatter);
            let c = PlacementPlan::place(&spec, p, Placement::Compact);
            prop_assert!(s.active_chips >= c.active_chips);
        }
    }

    /// Achieved GFLOPS never exceeds the theoretical peak.
    #[test]
    fn roofline_respects_peak(ops in 1e9..1e14f64, bytes in 0.0..1e12f64, vf in 0.0..1.0f64, p in 1u32..=40) {
        let sig = WorkloadSignature {
            name: "arb".into(),
            reported_flops: ops,
            work_ops: ops,
            dram_bytes: bytes,
            footprint_bytes: 1e6,
            footprint_per_proc_bytes: 0.0,
            footprint_scratch_bytes: 0.0,
            comm_fraction: 0.0,
            cpu_intensity: 1.0,
            kind: ComputeKind::Mixed(vf),
            locality: LocalityProfile::streaming(),
        };
        for spec in presets::all_servers() {
            let p = p.min(spec.total_cores());
            let est = PerfModel::new(spec.clone()).execute(&sig, p);
            prop_assert!(est.gflops <= spec.peak_gflops() * 1.0001,
                "{}: {} > peak", spec.name, est.gflops);
            prop_assert!(est.mem_traffic_gbs <= spec.mem_bw_gbs * 1.0001);
        }
    }

    /// The hierarchy's level shares always form a sub-distribution.
    #[test]
    fn hierarchy_shares_are_a_distribution(addrs in prop::collection::vec(0u64..1 << 26, 10..400)) {
        let spec = presets::xeon_4870();
        let mut h = CacheHierarchy::for_server(&spec);
        let (l2, l3, mem) = h.profile_stream(addrs);
        prop_assert!(l2 >= 0.0 && l3 >= 0.0 && mem >= 0.0);
        prop_assert!(l2 + l3 + mem <= 1.0 + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `touch_run(addr, write, k)` leaves a cache in exactly the state
    /// of `k` single touches on addresses of `addr`'s line — slots,
    /// stamps, clock and statistics.
    #[test]
    fn touch_run_equals_repeated_touches(
        (size_kib, ways) in prop::sample::select(vec![(1u32, 1u32), (1, 2), (1, 4), (2, 8), (4, 16)]),
        runs in prop::collection::vec((0u64..1 << 15, 0u8..2, 1u64..24), 1..200),
    ) {
        let level = CacheLevel::private(size_kib, ways, 64);
        let (mut batched, mut single) = (CacheSim::new(&level), CacheSim::new(&level));
        for &(addr, write, count) in &runs {
            let write = write == 1;
            let first = batched.touch_run(addr, write, count);
            // The same line, a different byte each time.
            let line = addr & !63;
            let want = single.touch(addr, write);
            for k in 1..count {
                let again = single.touch(line | ((addr + 13 * k) & 63), write);
                prop_assert!(again.hit && again.writeback.is_none());
            }
            prop_assert_eq!(first, want);
        }
        prop_assert_eq!(format!("{batched:?}"), format!("{single:?}"));
    }
}
