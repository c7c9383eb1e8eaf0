//! Set-associative cache hierarchy simulation.
//!
//! The regression power model of the paper (§VI) uses L2/L3 hit counts and
//! memory read/write counts as predictors. Those counters come from real
//! PMU hardware in the paper; here they are produced by replaying each
//! workload's address trace through this simulator (or, for the analytic
//! fast path, by the closed-form locality profiles in [`crate::workload`],
//! which tests check against replays of the captured kernel traces).
//!
//! The model is one write-allocate, write-back, set-associative LRU cache
//! per level, each set kept in recency order (the replacement of the
//! exemplar cache-lab simulator, see SNIPPETS.md). Dirty-line accounting
//! makes DRAM reads (line fills) and DRAM writes (dirty write-backs)
//! separately countable, which is exactly the split the paper's X5/X6
//! indicators need. There is deliberately no coherence and no
//! prefetching: the regression only needs hit/miss structure that orders
//! workloads correctly (dense-blocked ≫ streaming ≫ random).

use crate::spec::{CacheLevel, ServerSpec};

/// Result of pushing one address through a [`CacheHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Served by the L1 data cache.
    L1Hit,
    /// Missed L1, served by L2.
    L2Hit,
    /// Missed L2, served by L3.
    L3Hit,
    /// Missed every level; DRAM access.
    Memory,
}

/// Result of one [`CacheSim::touch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Served by this cache.
    pub hit: bool,
    /// Line address (byte address of the line start) of a dirty line
    /// this access evicted, if any.
    pub writeback: Option<u64>,
}

/// Bit 63 of a slot word: the slot holds a line.
const VALID: u64 = 1 << 63;
/// Bit 0 of a slot word: the line is dirty.
const DIRTY: u64 = 1;

/// One set-associative LRU write-back cache.
///
/// Each slot is one word, `VALID | tag << 1 | dirty`, or 0 when empty.
/// A set keeps its valid lines as a prefix in recency order, most
/// recently used first: a hit moves its line to the front, a miss fills
/// the first empty way or evicts the last one once the set is full, and
/// every scan stops at the first empty way. That is exactly LRU by
/// per-touch stamps (the exemplar cache-lab simulator, see SNIPPETS.md):
/// the minimum stamp is always the last line in recency order, and
/// which way a line sits in changes no counter and no write-back.
#[derive(Debug, Clone)]
pub struct CacheSim {
    line_shift: u32,
    sets: u64,
    ways: usize,
    /// `sets × ways` slot words.
    slots: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Build a simulator for the given cache geometry.
    ///
    /// Set counts need not be powers of two: the sliced LLCs of the paper's
    /// Xeon E7-4870 (30 MiB, 24-way) have 20480 sets, so indexing is by
    /// modulo rather than mask.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, zero sets, or a
    /// non-power-of-two line size) or its lines are under 4 bytes.
    pub fn new(level: &CacheLevel) -> Self {
        Self::with_sets(level, level.sets())
    }

    /// `level`'s ways and line size over `sets` sets.
    fn with_sets(level: &CacheLevel, sets: u32) -> Self {
        assert!(level.ways > 0, "cache must have at least one way");
        assert!(sets > 0, "cache must have at least one set");
        assert!(level.line_bytes.is_power_of_two(), "line size must be a power of two");
        // A slot word keeps the tag in bits 1..63; a line index of a
        // 64-bit address over lines of 4 bytes or more fits in 62 bits.
        assert!(level.line_bytes >= 4, "a line of at least 4 bytes keeps a tag inside 62 bits");
        Self {
            line_shift: level.line_bytes.trailing_zeros(),
            sets: u64::from(sets),
            ways: level.ways as usize,
            slots: vec![0; sets as usize * level.ways as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Access a byte address; `write` marks the line dirty. Misses
    /// allocate (write-allocate). Returns the full [`Access`] outcome
    /// including any dirty line the fill evicted.
    pub fn touch(&mut self, addr: u64, write: bool) -> Access {
        self.touch_run(addr, write, 1)
    }

    /// `count` (≥ 1) consecutive accesses to `addr`'s line, with the
    /// same end state as `count` calls of [`Self::touch`] on addresses
    /// of that line. The first access takes the full path and leaves the
    /// line at the front of its set, where the other `count − 1` hit it
    /// without moving anything: they are credited at once, and `write`
    /// dirties the line. Returns the first access's outcome; the repeats
    /// write nothing back.
    pub fn touch_run(&mut self, addr: u64, write: bool, count: u64) -> Access {
        assert!(count > 0, "a run has at least one access");
        let line = addr >> self.line_shift;
        let set = line % self.sets;
        let key = VALID | (line / self.sets) << 1;
        let base = set as usize * self.ways;
        let ways = &mut self.slots[base..base + self.ways];
        // The line's way, else the first empty one, else the last (LRU).
        let way = ways.iter().position(|&w| w & !DIRTY == key || w == 0).unwrap_or(self.ways - 1);
        let old = ways[way];
        let hit = old & !DIRTY == key;
        // The touched line goes to the front; a fill into a full set
        // shifts the last line out.
        ways.copy_within(..way, 1);
        ways[0] = if hit { old } else { key } | u64::from(write);
        if hit {
            self.hits += count;
            return Access { hit: true, writeback: None };
        }
        self.misses += 1;
        self.hits += count - 1;
        let writeback = (old & DIRTY != 0).then(|| self.line_addr(old, set));
        Access { hit: false, writeback }
    }

    /// Byte address of the line held in slot word `word` of `set`.
    #[inline]
    fn line_addr(&self, word: u64, set: u64) -> u64 {
        (((word & !VALID) >> 1) * self.sets + set) << self.line_shift
    }

    /// Access a byte address as a read; returns `true` on hit.
    /// (The pre-write-back API; misses allocate.)
    pub fn access(&mut self, addr: u64) -> bool {
        self.touch(addr, false).hit
    }

    /// Mark `addr`'s line dirty if present without counting an access;
    /// returns `true` when absorbed. This is how a lower level receives
    /// a write-back from the level above.
    pub fn absorb_writeback(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let key = VALID | (line / self.sets) << 1;
        let base = (line % self.sets) as usize * self.ways;
        let mut lines = self.slots[base..base + self.ways].iter_mut().take_while(|w| **w != 0);
        match lines.find(|w| **w & !DIRTY == key) {
            Some(word) => {
                *word |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Drain every dirty line, returning their byte addresses in
    /// ascending order and clearing the dirty bits.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        // Only dirty slots are written: a set never touched stays on
        // pages the allocator has not yet backed.
        for i in 0..self.slots.len() {
            let word = self.slots[i];
            if word & DIRTY != 0 {
                out.push(self.line_addr(word, (i / self.ways) as u64));
                self.slots[i] = word & !DIRTY;
            }
        }
        out.sort_unstable();
        out
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all accesses so far (0 if none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counter snapshot of a [`CacheHierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyCounters {
    /// Data accesses pushed through the hierarchy.
    pub total: u64,
    /// Accesses served by L1.
    pub l1_hits: u64,
    /// Accesses served by L2.
    pub l2_hits: u64,
    /// Accesses served by L3.
    pub l3_hits: u64,
    /// DRAM line fills (every last-level miss, read or write-allocate).
    pub mem_reads: u64,
    /// DRAM line write-backs (dirty evictions that fell out of the
    /// hierarchy, plus anything drained by [`CacheHierarchy::flush`]).
    pub mem_writes: u64,
}

/// A data-side cache hierarchy (L1d → L2 → optional L3) for one core's
/// view of a server, counting per-level hits and memory traffic.
///
/// It can also be one of `parts` set-partitions of that hierarchy
/// ([`Self::part`]). When every level has the same line size, line ℓ
/// maps to set ℓ mod Sₖ at level k and a write-back keeps its line, so
/// if `parts` divides every Sₖ the lines ≡ r (mod `parts`) only ever
/// touch sets ≡ r (mod `parts`). Part r is then a hierarchy of Sₖ /
/// `parts` sets per level fed line ℓ / `parts` ([`Self::part_addr`]),
/// independent of the other parts, and the whole hierarchy's counters
/// are the sums of the parts'.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: CacheSim,
    l2: CacheSim,
    l3: Option<CacheSim>,
    part: u64,
    parts: u64,
    mem_reads: u64,
    mem_writes: u64,
    total: u64,
}

/// Greatest common divisor (`gcd(0, b) = b`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The cache levels of `spec`, innermost first.
fn levels(spec: &ServerSpec) -> impl Iterator<Item = &CacheLevel> {
    [Some(&spec.l1d), Some(&spec.l2), spec.l3.as_ref()].into_iter().flatten()
}

impl CacheHierarchy {
    /// Build the hierarchy a single core sees on `spec`.
    ///
    /// Shared caches are modelled at their full capacity: when measuring a
    /// single-threaded access stream this is the capacity actually
    /// available, matching how the paper's PMU counters behave for
    /// one-process runs.
    pub fn for_server(spec: &ServerSpec) -> Self {
        Self::part(spec, 0, 1)
    }

    /// Part `part` of `spec`'s hierarchy split by set into `parts`:
    /// every level keeps its ways and line size over Sₖ / `parts` sets,
    /// and takes only the lines [`Self::part_addr`] routes to it.
    ///
    /// # Panics
    /// Panics unless `part < parts` and [`Self::max_parts`]`(spec,
    /// parts)` is `parts`, i.e. `parts` splits `spec` exactly.
    pub fn part(spec: &ServerSpec, part: u64, parts: u64) -> Self {
        assert!(part < parts, "part {part} of {parts}");
        assert_eq!(Self::max_parts(spec, parts), parts, "{parts} parts do not split the sets");
        let sim = |level: &CacheLevel| CacheSim::with_sets(level, level.sets() / parts as u32);
        Self {
            l1: sim(&spec.l1d),
            l2: sim(&spec.l2),
            l3: spec.l3.as_ref().map(sim),
            part,
            parts,
            mem_reads: 0,
            mem_writes: 0,
            total: 0,
        }
    }

    /// The most parts, no more than `max_parts` (≥ 1), that
    /// [`Self::part`] splits `spec`'s hierarchy into: the largest
    /// divisor of every level's set count, or 1 when the levels' line
    /// sizes differ.
    pub fn max_parts(spec: &ServerSpec, max_parts: u64) -> u64 {
        if levels(spec).any(|l| l.line_bytes != spec.l1d.line_bytes) {
            return 1;
        }
        let sets = levels(spec).map(|l| u64::from(l.sets())).fold(0, gcd);
        (1..=max_parts.min(sets)).rev().find(|p| sets % p == 0).unwrap_or(1)
    }

    /// `addr` as this part sees it: when the part holds `addr`'s line ℓ
    /// (ℓ ≡ `part` mod `parts`), the byte address of line ℓ / `parts`,
    /// else `None`. A whole hierarchy takes every address unchanged.
    #[inline]
    pub fn part_addr(&self, addr: u64) -> Option<u64> {
        if self.parts == 1 {
            return Some(addr);
        }
        let shift = self.l1.line_shift;
        let line = addr >> shift;
        (line % self.parts == self.part).then(|| (line / self.parts) << shift)
    }

    /// Route a dirty line falling out of `level` into the next level
    /// down, or to DRAM.
    fn route_writeback(
        l3: &mut Option<CacheSim>,
        mem_writes: &mut u64,
        lower: Option<&mut CacheSim>,
        addr: u64,
    ) {
        let absorbed = match lower {
            Some(l2) => {
                l2.absorb_writeback(addr) || l3.as_mut().is_some_and(|l3| l3.absorb_writeback(addr))
            }
            None => l3.as_mut().is_some_and(|l3| l3.absorb_writeback(addr)),
        };
        if !absorbed {
            *mem_writes += 1;
        }
    }

    /// Push one data address through the hierarchy. `write` marks the
    /// L1 line dirty; dirty evictions cascade toward DRAM.
    pub fn access_rw(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.access_run(addr, write, 1)
    }

    /// Push `count` (≥ 1) consecutive accesses to `addr`'s L1 line
    /// through the hierarchy, with the same end state as `count` calls
    /// of [`Self::access_rw`] on addresses of that line. Only the first
    /// can leave L1; the rest are L1 hits ([`CacheSim::touch_run`]), and
    /// the lower levels see nothing of them, so crediting them before
    /// the first access's miss reaches L2 changes no state. Returns the
    /// first access's outcome.
    pub fn access_run(&mut self, addr: u64, write: bool, count: u64) -> AccessOutcome {
        self.total += count;
        let a1 = self.l1.touch_run(addr, write, count);
        if let Some(wb) = a1.writeback {
            Self::route_writeback(&mut self.l3, &mut self.mem_writes, Some(&mut self.l2), wb);
        }
        if a1.hit {
            return AccessOutcome::L1Hit;
        }
        // The L1 fill requests the line from L2 as a read: the dirty
        // bit lives at L1 until eviction.
        let a2 = self.l2.touch(addr, false);
        if let Some(wb) = a2.writeback {
            Self::route_writeback(&mut self.l3, &mut self.mem_writes, None, wb);
        }
        if a2.hit {
            return AccessOutcome::L2Hit;
        }
        if let Some(l3) = &mut self.l3 {
            let a3 = l3.touch(addr, false);
            if a3.writeback.is_some() {
                self.mem_writes += 1;
            }
            if a3.hit {
                return AccessOutcome::L3Hit;
            }
        }
        self.mem_reads += 1;
        AccessOutcome::Memory
    }

    /// Push one read address through the hierarchy.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.access_rw(addr, false)
    }

    /// Write back every dirty line still resident anywhere in the
    /// hierarchy to DRAM. Each distinct dirty line counts once, no
    /// matter how many levels hold it.
    pub fn flush(&mut self) {
        let mut lines = self.l1.drain_dirty();
        lines.extend(self.l2.drain_dirty());
        if let Some(l3) = &mut self.l3 {
            lines.extend(l3.drain_dirty());
        }
        lines.sort_unstable();
        lines.dedup();
        self.mem_writes += lines.len() as u64;
    }

    /// Run a whole (read) address stream and return `(l2_hit_ratio,
    /// l3_hit_ratio, memory_ratio)` relative to all accesses.
    pub fn profile_stream(&mut self, addrs: impl IntoIterator<Item = u64>) -> (f64, f64, f64) {
        for a in addrs {
            self.access(a);
        }
        let t = self.total.max(1) as f64;
        (
            self.l2.hits() as f64 / t,
            self.l3.as_ref().map_or(0.0, |c| c.hits() as f64) / t,
            self.mem_reads as f64 / t,
        )
    }

    /// DRAM line fills.
    pub fn mem_reads(&self) -> u64 {
        self.mem_reads
    }

    /// DRAM dirty write-backs.
    pub fn mem_writes(&self) -> u64 {
        self.mem_writes
    }

    /// L1 hits observed.
    pub fn l1_hits(&self) -> u64 {
        self.l1.hits()
    }

    /// L2 hits observed.
    pub fn l2_hits(&self) -> u64 {
        self.l2.hits()
    }

    /// L3 hits observed (0 when the machine has no L3).
    pub fn l3_hits(&self) -> u64 {
        self.l3.as_ref().map_or(0, |c| c.hits())
    }

    /// L1 line size in bytes: the granularity of [`Self::access_run`].
    pub fn l1_line_bytes(&self) -> u64 {
        self.l1.line_bytes()
    }

    /// The full counter snapshot.
    pub fn counters(&self) -> HierarchyCounters {
        HierarchyCounters {
            total: self.total,
            l1_hits: self.l1.hits(),
            l2_hits: self.l2.hits(),
            l3_hits: self.l3_hits(),
            mem_reads: self.mem_reads,
            mem_writes: self.mem_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::spec::CacheLevel;

    #[test]
    fn repeated_access_hits_after_first() {
        let mut c = CacheSim::new(&CacheLevel::private(32, 8, 64));
        assert!(!c.access(0x1000));
        for _ in 0..10 {
            assert!(c.access(0x1000));
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 10);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = CacheSim::new(&CacheLevel::private(32, 8, 64));
        assert!(!c.access(0x40));
        assert!(c.access(0x41)); // same 64 B line
        assert!(c.access(0x7f));
        assert!(!c.access(0x80)); // next line
    }

    #[test]
    fn lru_evicts_oldest_way() {
        // 2 ways, 64 B lines, size_kib=1 -> 8 sets. Address stride of
        // 8*64=512 maps to the same set.
        let mut c = CacheSim::new(&CacheLevel::private(1, 2, 64));
        let s = 512u64;
        assert!(!c.access(0)); // way 1
        assert!(!c.access(s)); // way 2
        assert!(c.access(0)); // hit, now MRU
        assert!(!c.access(2 * s)); // evicts `s` (LRU)
        assert!(c.access(0));
        assert!(!c.access(s)); // was evicted
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        // Stream over 2 MiB with a 32 KiB L1: second pass still misses.
        let mut c = CacheSim::new(&CacheLevel::private(32, 8, 64));
        let n = 2 * 1024 * 1024 / 64;
        for pass in 0..2 {
            for i in 0..n {
                c.access(i * 64);
            }
            if pass == 0 {
                assert_eq!(c.hits(), 0);
            }
        }
        assert_eq!(c.hits(), 0, "LRU streaming working set > capacity never hits");
    }

    #[test]
    fn small_working_set_lives_in_l1() {
        let spec = presets::xeon_e5462();
        let mut h = CacheHierarchy::for_server(&spec);
        // 16 KiB working set walked 4 times: everything after the cold
        // pass is an L1 hit.
        let lines = 16 * 1024 / 64;
        for _ in 0..4 {
            for i in 0..lines {
                h.access(i * 64);
            }
        }
        assert_eq!(h.mem_reads(), lines);
        assert_eq!(h.l2_hits(), 0);
    }

    #[test]
    fn medium_working_set_hits_in_l2() {
        let spec = presets::xeon_e5462(); // 32 KiB L1, 6 MiB L2
        let mut h = CacheHierarchy::for_server(&spec);
        let bytes = 1 << 20; // 1 MiB: fits L2, not L1
        let lines = bytes / 64;
        for _ in 0..4 {
            for i in 0..lines {
                h.access(i * 64);
            }
        }
        // Cold pass misses everything; later passes hit in L2.
        assert_eq!(h.mem_reads(), lines);
        assert!(h.l2_hits() >= 3 * (lines - spec.l1d.size_bytes() / 64));
    }

    #[test]
    fn l3_catches_l2_overflow_on_xeon_4870() {
        let spec = presets::xeon_4870(); // 256 KiB L2, 30 MiB L3
        let mut h = CacheHierarchy::for_server(&spec);
        let bytes = 4 << 20; // 4 MiB: fits L3 only
        let lines = bytes / 64;
        for _ in 0..3 {
            for i in 0..lines {
                h.access(i * 64);
            }
        }
        assert_eq!(h.mem_reads(), lines);
        assert!(h.l3_hits() > 0, "overflowing L2 must land in L3");
    }

    #[test]
    fn hierarchy_ratios_sum_sane() {
        let spec = presets::opteron_8347();
        let mut h = CacheHierarchy::for_server(&spec);
        let addrs: Vec<u64> = (0..20_000u64).map(|i| (i * 6151) % (8 << 20)).collect();
        let (l2, l3, mem) = h.profile_stream(addrs);
        assert!(l2 >= 0.0 && l3 >= 0.0 && mem >= 0.0);
        assert!(l2 + l3 + mem <= 1.0 + 1e-12);
    }

    #[test]
    fn max_parts_is_the_largest_common_set_divisor() {
        let spec = presets::xeon_4870(); // 64, 512 and 20480 sets
        let max = |spec: &ServerSpec, n| CacheHierarchy::max_parts(spec, n);
        assert_eq!([1, 2, 3, 64, 100].map(|n| max(&spec, n)), [1, 2, 2, 64, 64]);
        // 20 and 40 sets: the parts need not be a power of two.
        let mut tens = spec.clone();
        (tens.l1d, tens.l2, tens.l3) =
            (CacheLevel::private(5, 4, 64), CacheLevel::private(10, 4, 64), None);
        assert_eq!([2, 3, 4, 5, 7, 20, 40].map(|n| max(&tens, n)), [2, 2, 4, 5, 5, 20, 20]);
        // Levels with different line sizes do not split.
        let mut mixed = spec;
        mixed.l2.line_bytes = 128;
        assert_eq!(max(&mixed, 4), 1);
    }

    #[test]
    fn writeback_counts_dirty_evictions_once() {
        // Direct-mapped single... 16-set cache; write line A, thrash it
        // out with a conflicting read: the dirty line must come back as
        // a write-back exactly once.
        let lvl = CacheLevel::private(1, 1, 64);
        let s = 16 * 64u64;
        let mut c = CacheSim::new(&lvl);
        assert_eq!(c.touch(0, true).writeback, None); // fill, dirty
        let a = c.touch(s, false); // evicts dirty line 0
        assert_eq!(a.writeback, Some(0));
        let b = c.touch(0, false); // evicts clean line s
        assert_eq!(b.writeback, None);
    }

    #[test]
    fn hierarchy_separates_reads_and_writes() {
        let spec = presets::xeon_4870();
        let mut h = CacheHierarchy::for_server(&spec);
        // Stream-write 8 MiB (beyond L2, within L3), then flush.
        let lines = (8 << 20) / 64u64;
        for i in 0..lines {
            h.access_rw(i * 64, true);
        }
        h.flush();
        let c = h.counters();
        // Write-allocate: every cold write fills a line (a DRAM read)…
        assert_eq!(c.mem_reads, lines);
        // …and every dirty line eventually drains to DRAM exactly once.
        assert_eq!(c.mem_writes, lines);
    }

    #[test]
    fn read_only_stream_writes_nothing_back() {
        let spec = presets::xeon_e5462();
        let mut h = CacheHierarchy::for_server(&spec);
        for i in 0..(1u64 << 14) {
            h.access_rw(i * 64, false);
        }
        h.flush();
        assert_eq!(h.mem_writes(), 0);
        assert!(h.mem_reads() > 0);
    }

    #[test]
    fn flush_counts_each_dirty_line_once_across_levels() {
        let spec = presets::xeon_4870();
        let mut h = CacheHierarchy::for_server(&spec);
        // Dirty a small set of lines repeatedly; some write-backs get
        // absorbed by L2/L3 along the way. Flush must dedupe.
        let lines = 64u64;
        for _ in 0..8 {
            for i in 0..lines {
                h.access_rw(i * 64, true);
            }
        }
        h.flush();
        assert_eq!(h.mem_writes(), lines, "each dirty line drains exactly once");
    }
}
