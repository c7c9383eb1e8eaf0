//! Property tests of the machine substrate: cache simulation, placement
//! and the roofline model.

use proptest::prelude::*;

use hpceval_machine::cache::{Access, CacheHierarchy, CacheSim, HierarchyCounters};
use hpceval_machine::presets;
use hpceval_machine::roofline::PerfModel;
use hpceval_machine::spec::{CacheLevel, ServerSpec};
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
    /// of `k` single touches on addresses of `addr`'s line — every slot
    /// word, so each set's recency order too, and the statistics.
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

/// The reference LRU: fixed slots with a stamp each, a clock that ticks
/// on every access, fills into the first invalid way, else over the
/// minimum stamp. `CacheSim` keeps recency order instead of stamps and
/// must agree with this model on every access.
struct StampLru {
    line_shift: u32,
    sets: u64,
    ways: usize,
    clock: u64,
    /// `(tag, dirty, stamp)` per slot, `None` when invalid.
    slots: Vec<Option<(u64, bool, u64)>>,
    hits: u64,
    misses: u64,
}

impl StampLru {
    fn new(level: &CacheLevel) -> Self {
        let (sets, ways) = (u64::from(level.sets()), level.ways as usize);
        Self {
            line_shift: level.line_bytes.trailing_zeros(),
            sets,
            ways,
            clock: 0,
            slots: vec![None; sets as usize * ways],
            hits: 0,
            misses: 0,
        }
    }

    fn locate(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        (line % self.sets, line / self.sets)
    }

    fn touch(&mut self, addr: u64, write: bool) -> Access {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        let ways = &mut self.slots[set as usize * self.ways..][..self.ways];
        if let Some(slot) = ways.iter_mut().flatten().find(|s| s.0 == tag) {
            slot.1 |= write;
            slot.2 = self.clock;
            self.hits += 1;
            return Access { hit: true, writeback: None };
        }
        self.misses += 1;
        let way = ways
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| (0..self.ways).min_by_key(|&w| ways[w].map_or(0, |s| s.2)).unwrap());
        let writeback =
            ways[way].filter(|s| s.1).map(|s| (s.0 * self.sets + set) << self.line_shift);
        ways[way] = Some((tag, write, self.clock));
        Access { hit: false, writeback }
    }

    fn absorb_writeback(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let ways = &mut self.slots[set as usize * self.ways..][..self.ways];
        ways.iter_mut().flatten().find(|s| s.0 == tag).map(|s| s.1 = true).is_some()
    }

    fn drain_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(s) = slot.as_mut().filter(|s| s.1) {
                out.push((s.0 * self.sets + (i / self.ways) as u64) << self.line_shift);
                s.1 = false;
            }
        }
        out.sort_unstable();
        out
    }
}

/// Geometries of 1–32 ways over 32–128 B lines, from one set up.
fn arb_lru_level() -> impl Strategy<Value = CacheLevel> {
    (1u32..=16, 1u32..=32, prop::sample::select(vec![32u32, 64, 128]))
        .prop_map(|(size_kib, ways, line)| CacheLevel::private(size_kib, ways, line))
        .prop_filter("geometry must have at least one set", |c| c.sets() >= 1)
}

/// `(line, byte in line, op, run length)`: op 0 reads, 1 writes, 2
/// absorbs a write-back. 256 lines against caches of 8–4096 lines.
fn arb_lru_ops() -> impl Strategy<Value = Vec<(u64, u64, u8, u64)>> {
    prop::collection::vec((0u64..256, 0u64..128, 0u8..3, 1u64..6), 1..400)
}

/// Counters as integers that add: the six fields of a snapshot.
fn fields(c: HierarchyCounters) -> [u64; 6] {
    [c.total, c.l1_hits, c.l2_hits, c.l3_hits, c.mem_reads, c.mem_writes]
}

/// A server whose levels all have 64 B lines and `16·kₗ` sets, so 1, 2
/// and 4 parts split every level; `kₗ·ways` KiB per level.
fn arb_split_spec() -> impl Strategy<Value = ServerSpec> {
    let level = |(k, ways): (u32, u32)| CacheLevel::private(k * ways, ways, 64);
    let shape = || (1u32..=4, 1u32..=8);
    (shape(), shape(), shape(), 0u8..2).prop_map(move |(l1d, l2, l3, has_l3)| ServerSpec {
        l1d: level(l1d),
        l2: level(l2),
        l3: (has_l3 == 1).then(|| level(l3)),
        ..presets::xeon_4870()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The recency-ordered `CacheSim` agrees with the stamp LRU on every
    /// access (hit and write-back address), absorb, hit and miss count
    /// and final drain.
    #[test]
    fn recency_order_matches_the_stamp_lru(level in arb_lru_level(), ops in arb_lru_ops()) {
        let (mut sim, mut model) = (CacheSim::new(&level), StampLru::new(&level));
        let line = u64::from(level.line_bytes);
        for &(l, byte, op, count) in &ops {
            let addr = l * line + byte % line;
            if op == 2 {
                prop_assert_eq!(sim.absorb_writeback(addr), model.absorb_writeback(addr));
                continue;
            }
            let write = op == 1;
            let got = sim.touch_run(addr, write, count);
            let want = model.touch(addr, write);
            prop_assert!(got == want, "{level:?} at line {l}: {got:?} vs {want:?}");
            for _ in 1..count {
                prop_assert!(model.touch(addr, write).hit);
            }
            prop_assert_eq!((sim.hits(), sim.misses()), (model.hits, model.misses));
        }
        prop_assert_eq!(sim.drain_dirty(), model.drain_dirty());
        prop_assert_eq!(sim.drain_dirty(), Vec::<u64>::new());
    }

    /// A hierarchy split by set into P ∈ {1, 2, 4} parts, each fed the
    /// lines `part_addr` gives it, counts in sum exactly what the whole
    /// hierarchy counts, write-backs and the final flush included.
    #[test]
    fn split_hierarchy_counters_sum_to_the_whole(
        spec in arb_split_spec(),
        ops in prop::collection::vec((0u64..1 << 16, 0u8..2, 1u64..4), 1..600),
    ) {
        let mut whole = CacheHierarchy::for_server(&spec);
        for &(addr, write, count) in &ops {
            whole.access_run(addr, write == 1, count);
        }
        whole.flush();
        for parts in [1u64, 2, 4] {
            prop_assert_eq!(CacheHierarchy::max_parts(&spec, parts), parts);
            let mut sum = [0u64; 6];
            for part in 0..parts {
                let mut h = CacheHierarchy::part(&spec, part, parts);
                for &(addr, write, count) in &ops {
                    if let Some(addr) = h.part_addr(addr) {
                        h.access_run(addr, write == 1, count);
                    }
                }
                h.flush();
                for (s, v) in sum.iter_mut().zip(fields(h.counters())) {
                    *s += v;
                }
            }
            let want = fields(whole.counters());
            prop_assert!(sum == want, "{parts} parts: {sum:?} vs {want:?}");
        }
    }
}
