//! Trace-driven cache replay and the counter bridge.
//!
//! Replaying a [`Trace`] through the `hpceval-machine` write-back
//! hierarchy turns recorded addresses into the paper's X3..X6
//! regression indicators: L2 hits, L3 hits, DRAM line fills (reads) and
//! dirty write-backs (writes). [`TraceCounters::locality_profile`] is the
//! bridge back into the analytic pipeline: it replaces a closed-form
//! locality split with the measured one.

use hpceval_machine::cache::CacheHierarchy;
use hpceval_machine::spec::{CacheLevel, ServerSpec};
use hpceval_machine::workload::LocalityProfile;

use crate::capture::Trace;
use crate::event::AccessKind;

/// Replay-side hierarchy options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Capacity scale applied to every cache level (default 1.0).
    ///
    /// Capture problems are typically orders of magnitude smaller than
    /// the production runs they stand in for, so replaying them through
    /// full-size caches reports a working set that never leaves L1 even
    /// for kernels whose real instances stream from DRAM. Miniaturizing
    /// the hierarchy by the capture-to-real footprint ratio — the
    /// standard trick in trace-driven simulation — restores the real
    /// footprint-to-cache regime. Each level's capacity is multiplied
    /// by this factor (floored at one KiB); associativity and line size
    /// are preserved.
    pub cache_scale: f64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self { cache_scale: 1.0 }
    }
}

/// Counter totals from one replay: the trace-side equivalent of a PMU
/// reading over the traced interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCounters {
    /// Replayed data accesses.
    pub accesses: u64,
    /// Accesses served by L1.
    pub l1_hits: u64,
    /// Accesses served by L2 (the paper's X3).
    pub l2_hits: u64,
    /// Accesses served by L3 (the paper's X4).
    pub l3_hits: u64,
    /// DRAM line fills (the paper's X5).
    pub mem_reads: u64,
    /// DRAM dirty write-backs (the paper's X6).
    pub mem_writes: u64,
}

impl TraceCounters {
    /// Overall hit ratio (any cache level) over replayed accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        (self.l1_hits + self.l2_hits + self.l3_hits) as f64 / self.accesses as f64
    }

    /// L1 hit ratio over replayed accesses.
    pub fn l1_hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.l1_hits as f64 / self.accesses as f64
    }

    /// A locality profile whose *level split* and *write fraction* are
    /// measured from the replay, with the instruction-stream shape
    /// (`instr_per_op`, `accesses_per_instr`) kept from the analytic
    /// profile — tracing observes data addresses, not retired
    /// instructions.
    pub fn locality_profile(&self, analytic: &LocalityProfile) -> LocalityProfile {
        if self.accesses == 0 {
            return *analytic;
        }
        let t = self.accesses as f64;
        let dram = self.mem_reads + self.mem_writes;
        let write_fraction =
            if dram == 0 { analytic.write_fraction } else { self.mem_writes as f64 / dram as f64 };
        LocalityProfile {
            instr_per_op: analytic.instr_per_op,
            accesses_per_instr: analytic.accesses_per_instr,
            l1_hit: self.l1_hits as f64 / t,
            l2_hit: self.l2_hits as f64 / t,
            l3_hit: self.l3_hits as f64 / t,
            mem: self.mem_reads as f64 / t,
            write_fraction,
        }
        .normalized()
    }
}

/// One cache level at `scale` of its capacity (floored at 1 KiB, which
/// still holds several lines at every preset's geometry).
fn scaled_level(level: &CacheLevel, scale: f64) -> CacheLevel {
    let size = (f64::from(level.size_kib) * scale).round() as u32;
    CacheLevel { size_kib: size.max(1), ..*level }
}

/// Build the replay hierarchy for `spec` with `opts`.
pub fn hierarchy_for(spec: &ServerSpec, opts: ReplayOptions) -> CacheHierarchy {
    if opts.cache_scale >= 1.0 {
        CacheHierarchy::for_server(spec)
    } else {
        let mut scaled = spec.clone();
        scaled.l1d = scaled_level(&spec.l1d, opts.cache_scale);
        scaled.l2 = scaled_level(&spec.l2, opts.cache_scale);
        scaled.l3 = spec.l3.as_ref().map(|l| scaled_level(l, opts.cache_scale));
        // The 1 KiB floor can flatten the hierarchy at aggressive
        // scales (a 32 KiB L1 and a 256 KiB L2 both land on 1 KiB, and
        // an L2 no bigger than L1 can never hit). Keep each outer level
        // at least twice its inner neighbour so every level stays
        // meaningful after scaling.
        scaled.l2.size_kib = scaled.l2.size_kib.max(scaled.l1d.size_kib * 2);
        if let Some(l3) = scaled.l3.as_mut() {
            l3.size_kib = l3.size_kib.max(scaled.l2.size_kib * 2);
        }
        CacheHierarchy::for_server(&scaled)
    }
}

/// Replay every burst of `trace` ([`Trace::events`]: chunks in ascending
/// id order, events in emission order) through `spec`'s hierarchy,
/// flush the dirty lines, and return the counters.
///
/// Each burst goes in one L1 line at a time
/// ([`TraceEvent::line_runs`] into [`CacheHierarchy::access_run`]): the
/// counters are those of pushing every address through
/// [`CacheHierarchy::access_rw`], bit for bit, at a fraction of the
/// calls for the short strides most kernels emit.
///
/// [`TraceEvent::line_runs`]: crate::event::TraceEvent::line_runs
pub fn replay(trace: &Trace, spec: &ServerSpec, opts: ReplayOptions) -> TraceCounters {
    let mut h = hierarchy_for(spec, opts);
    let line = h.l1_line_bytes();
    for e in trace.events() {
        let write = e.kind == AccessKind::Write;
        for (addr, run) in e.line_runs(line) {
            h.access_run(addr, write, run);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{hooks, serial, CaptureConfig, CaptureGuard, Region, Trace};
    use crate::event::TraceEvent;
    use hpceval_machine::presets;

    /// `events` captured as one chunk, in order.
    fn trace_of(events: Vec<TraceEvent>) -> Trace {
        let _serial = serial();
        let guard = CaptureGuard::start(Region::Stream, CaptureConfig::default()).unwrap();
        let mut log = hooks::chunk(Region::Stream, 0).unwrap();
        for e in events {
            log.record(e.kind, e.base, e.stride, e.count);
        }
        drop(log);
        guard.finish()
    }

    #[test]
    fn tiny_working_set_stays_in_l1() {
        // Walk one 4 KiB span eight times: everything after the cold
        // pass hits L1.
        let events = (0..8).map(|_| TraceEvent::read(0, 64, 64)).collect();
        let c = replay(&trace_of(events), &presets::xeon_e5462(), ReplayOptions::default());
        assert_eq!(c.accesses, 512);
        assert_eq!(c.mem_reads, 64);
        assert_eq!(c.l1_hits, 512 - 64);
        assert_eq!(c.mem_writes, 0, "read-only replay writes nothing back");
    }

    #[test]
    fn write_stream_produces_writebacks() {
        // Stream-write 8 MiB once, past the E5462's 6 MiB L2: the dirty
        // lines must drain to DRAM.
        let lines = (8 << 20) / 64u32;
        let events = vec![TraceEvent::write(0, 64, lines)];
        let c = replay(&trace_of(events), &presets::xeon_e5462(), ReplayOptions::default());
        assert_eq!(c.mem_reads, u64::from(lines), "write-allocate fills each line");
        assert_eq!(c.mem_writes, u64::from(lines), "each dirty line drains once");
    }

    #[test]
    fn counters_roll_up_to_locality_profile() {
        let events = (0..8).map(|_| TraceEvent::read(0, 64, 64)).collect();
        let c = replay(&trace_of(events), &presets::xeon_4870(), ReplayOptions::default());
        let p = c.locality_profile(&LocalityProfile::streaming());
        assert!(p.is_distribution(1e-9), "{p:?}");
        assert!(p.l1_hit > 0.8, "mostly-L1 replay: {p:?}");
        // Instruction-stream shape is inherited, not measured.
        assert_eq!(p.instr_per_op, LocalityProfile::streaming().instr_per_op);
    }

    #[test]
    fn cache_scale_miniaturizes_the_hierarchy() {
        // A 256 KiB array of doubles walked four times is L2-resident at
        // full size on the E5462 (6 MiB L2) but streams from DRAM at
        // 1/512 scale.
        let events: Vec<TraceEvent> =
            (0..4).map(|_| TraceEvent::read(0, 8, (256 << 10) / 8)).collect();
        let full =
            replay(&trace_of(events.clone()), &presets::xeon_e5462(), ReplayOptions::default());
        let opts = ReplayOptions { cache_scale: 1.0 / 512.0 };
        let mini = replay(&trace_of(events), &presets::xeon_e5462(), opts);
        assert_eq!(full.accesses, mini.accesses);
        assert!(
            mini.mem_reads > full.mem_reads * 2,
            "miniaturized caches must spill: {} vs {}",
            mini.mem_reads,
            full.mem_reads
        );
        // Within-line spatial hits survive scaling: line size is kept.
        assert!(mini.l1_hit_ratio() > 0.8, "{}", mini.l1_hit_ratio());
    }

    #[test]
    fn empty_trace_is_inert() {
        let c = replay(&trace_of(Vec::new()), &presets::xeon_e5462(), ReplayOptions::default());
        assert_eq!(c, TraceCounters::default());
        assert_eq!(c.hit_ratio(), 0.0);
        let p = c.locality_profile(&LocalityProfile::dense_blocked());
        assert_eq!(p, LocalityProfile::dense_blocked());
    }
}
