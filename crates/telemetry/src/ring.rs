//! Fixed-capacity ring-buffer time-series storage.
//!
//! The paper's pipeline keeps every sample of a session in memory and
//! analyzes afterwards; a long-running monitor cannot. [`RingBuffer`]
//! bounds memory per server: appends are O(1), and once full the oldest
//! sample is evicted. [`SeriesStore`] holds one power series per
//! registered server, enforcing the same strictly-ascending-time
//! invariant as `PowerTrace` — but instead of panicking it *counts and
//! reports* clock-skew rejections and sampling dropouts, because on a
//! live fleet a broken meter is an event to surface, not a reason to
//! crash. [`ServerSeries::summary`] computes the window statistics the
//! monitor reports from the tail of that series.

use std::collections::VecDeque;

use hpceval_power::analysis::trimmed_stats;
use hpceval_power::meter::PowerSample;

/// Bounded FIFO over `T`: O(1) append with eviction once full.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    evicted: u64,
}

impl<T> RingBuffer<T> {
    /// A buffer holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { buf: VecDeque::with_capacity(capacity), capacity, evicted: 0 }
    }

    /// Append, returning the evicted oldest item when full.
    pub fn push(&mut self, item: T) -> Option<T> {
        let evicted = if self.buf.len() == self.capacity {
            self.evicted += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(item);
        evicted
    }

    /// Items currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items evicted over the buffer's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Oldest-to-newest iteration.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.buf.iter()
    }

    /// The newest item.
    pub fn last(&self) -> Option<&T> {
        self.buf.back()
    }
}

/// Why an append was not stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppendOutcome {
    /// Stored; `missed` counts samples the expected cadence says were
    /// lost in the gap since the previous sample (0 = clean).
    Accepted {
        /// Samples missing between this one and its predecessor.
        missed: u32,
    },
    /// Rejected: the timestamp is not after the newest stored sample —
    /// the meter PC's clock stepped backwards (§V-C2's sync step
    /// failed).
    ClockSkew {
        /// Timestamp of the newest stored sample.
        last_t_s: f64,
    },
}

/// Ingestion health counters for one server's series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesStats {
    /// Samples stored.
    pub accepted: u64,
    /// Samples rejected for non-monotonic time.
    pub clock_skew_rejects: u64,
    /// Cadence gaps observed (each gap is one dropout event).
    pub dropout_events: u64,
    /// Total samples the cadence says went missing.
    pub samples_missed: u64,
    /// Samples evicted by the ring bound.
    pub evicted: u64,
}

/// Statistics over the trailing window of one server's series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Arithmetic mean, watts.
    pub mean_w: f64,
    /// Mean after trimming 10 % from each *end in time order* (the
    /// paper's §V-C2 cut of ramp-up/tear-down transients).
    pub trimmed_mean_w: f64,
    /// Smallest sample, watts.
    pub min_w: f64,
    /// Largest sample, watts.
    pub max_w: f64,
    /// 95th percentile (nearest-rank), watts.
    pub p95_w: f64,
    /// Samples in the window.
    pub samples: usize,
}

impl WindowSummary {
    /// Statistics over `window` (time-ordered), or `None` when empty.
    /// The trimmed mean is `trimmed_stats`' — the offline analyzer's.
    fn of(window: &[PowerSample]) -> Option<Self> {
        let trimmed = trimmed_stats(window, 0.10)?;
        let n = window.len();
        let mut sorted: Vec<f64> = window.iter().map(|s| s.watts).collect();
        let mean_w = sorted.iter().sum::<f64>() / n as f64;
        sorted.sort_by(f64::total_cmp);
        let p95_idx = ((0.95 * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(Self {
            mean_w,
            trimmed_mean_w: trimmed.mean_w,
            min_w: sorted[0],
            max_w: sorted[n - 1],
            p95_w: sorted[p95_idx],
            samples: n,
        })
    }
}

/// One server's stored telemetry.
#[derive(Debug)]
pub struct ServerSeries {
    /// Display label.
    pub label: String,
    power: RingBuffer<PowerSample>,
    stats: SeriesStats,
    expected_interval_s: f64,
}

impl ServerSeries {
    fn new(label: String, capacity: usize, expected_interval_s: f64) -> Self {
        Self {
            label,
            power: RingBuffer::new(capacity),
            stats: SeriesStats::default(),
            expected_interval_s: expected_interval_s.max(f64::MIN_POSITIVE),
        }
    }

    /// Append one power sample, enforcing ascending time.
    pub fn append(&mut self, t_s: f64, watts: f64) -> AppendOutcome {
        let missed = match self.power.last() {
            Some(last) if t_s <= last.t_s => {
                self.stats.clock_skew_rejects += 1;
                return AppendOutcome::ClockSkew { last_t_s: last.t_s };
            }
            Some(last) => {
                let gap = (t_s - last.t_s) / self.expected_interval_s;
                // Allow half an interval of jitter before calling the
                // gap a dropout.
                let missed = (gap - 0.5).floor().max(0.0).min(f64::from(u32::MAX)) as u32;
                if missed > 0 {
                    self.stats.dropout_events += 1;
                    self.stats.samples_missed += u64::from(missed);
                }
                missed
            }
            None => 0,
        };
        if self.power.push(PowerSample { t_s, watts }).is_some() {
            self.stats.evicted += 1;
        }
        self.stats.accepted += 1;
        AppendOutcome::Accepted { missed }
    }

    /// Stored power samples within `[from_s, to_s)`, oldest first.
    pub fn window(&self, from_s: f64, to_s: f64) -> Vec<PowerSample> {
        self.power.iter().filter(|s| s.t_s >= from_s && s.t_s < to_s).copied().collect()
    }

    /// Statistics over the stored samples newer than `span_s` seconds
    /// before the newest one, or `None` when nothing is stored.
    pub fn summary(&self, span_s: f64) -> Option<WindowSummary> {
        let horizon = self.power.last()?.t_s - span_s;
        let mut tail: Vec<PowerSample> =
            self.power.iter().rev().take_while(|s| s.t_s > horizon).copied().collect();
        tail.reverse();
        WindowSummary::of(&tail)
    }

    /// Ingestion health counters.
    pub fn stats(&self) -> SeriesStats {
        self.stats
    }

    /// Number of stored power samples.
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// True when no power samples are stored.
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }
}

/// Per-server telemetry store: one [`ServerSeries`] per server.
#[derive(Debug)]
pub struct SeriesStore {
    series: Vec<ServerSeries>,
}

impl SeriesStore {
    /// A store with one series per label, each bounded to `capacity`
    /// power samples, expecting samples every `expected_interval_s`
    /// (the paper's meter: 1 s).
    pub fn new<S: Into<String>>(
        labels: impl IntoIterator<Item = S>,
        capacity: usize,
        expected_interval_s: f64,
    ) -> Self {
        Self {
            series: labels
                .into_iter()
                .map(|l| ServerSeries::new(l.into(), capacity, expected_interval_s))
                .collect(),
        }
    }

    /// The series of `server`.
    pub fn series(&self, server: usize) -> &ServerSeries {
        &self.series[server]
    }

    /// Append a power sample for `server`.
    pub fn append(&mut self, server: usize, t_s: f64, watts: f64) -> AppendOutcome {
        self.series[server].append(t_s, watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_when_full() {
        let mut r = RingBuffer::new(3);
        assert_eq!(r.push(1), None);
        assert_eq!(r.push(2), None);
        assert_eq!(r.push(3), None);
        assert_eq!(r.push(4), Some(1));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.evicted(), 1);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn series_rejects_clock_skew() {
        let mut s = ServerSeries::new("srv".into(), 16, 1.0);
        assert_eq!(s.append(1.0, 100.0), AppendOutcome::Accepted { missed: 0 });
        assert_eq!(s.append(0.5, 100.0), AppendOutcome::ClockSkew { last_t_s: 1.0 });
        assert_eq!(s.append(1.0, 100.0), AppendOutcome::ClockSkew { last_t_s: 1.0 });
        assert_eq!(s.append(2.0, 100.0), AppendOutcome::Accepted { missed: 0 });
        let st = s.stats();
        assert_eq!((st.accepted, st.clock_skew_rejects), (2, 2));
    }

    #[test]
    fn series_counts_dropout_gaps() {
        let mut s = ServerSeries::new("srv".into(), 16, 1.0);
        s.append(0.0, 1.0);
        s.append(1.0, 1.0);
        // 3 s gap at 1 Hz: two samples went missing.
        assert_eq!(s.append(4.0, 1.0), AppendOutcome::Accepted { missed: 2 });
        // Jitter under half an interval is not a dropout.
        assert_eq!(s.append(5.4, 1.0), AppendOutcome::Accepted { missed: 0 });
        let st = s.stats();
        assert_eq!((st.dropout_events, st.samples_missed), (1, 2));
    }

    #[test]
    fn store_windows_per_server() {
        let mut store = SeriesStore::new(["a", "b"], 128, 1.0);
        for k in 0..10 {
            store.append(0, f64::from(k), 100.0);
            store.append(1, f64::from(k), 200.0);
        }
        let w = store.series(0).window(2.0, 5.0);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|s| s.watts == 100.0));
        assert_eq!(store.series(1).window(2.0, 5.0).len(), 3);
        assert_eq!(store.series(1).label, "b");
    }

    fn sample(t: f64, w: f64) -> PowerSample {
        PowerSample { t_s: t, watts: w }
    }

    #[test]
    fn summary_matches_brute_force_recompute() {
        // A small ring, so the tail is also checked across eviction; the
        // 0.5 s cadence puts a sample exactly on each window's horizon.
        let mut series = ServerSeries::new("srv".into(), 64, 0.5);
        let mut all: Vec<PowerSample> = Vec::new();
        let mut x = 42u64;
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for k in 0..200 {
            let s = sample(k as f64 * 0.5, 100.0 + 50.0 * rnd());
            series.append(s.t_s, s.watts);
            all.push(s);
            let horizon = s.t_s - 10.0;
            let expect: Vec<f64> =
                all.iter().filter(|p| p.t_s > horizon).map(|p| p.watts).collect();
            let got = series.summary(10.0).unwrap();
            assert_eq!(got.samples, expect.len());
            let mean = expect.iter().sum::<f64>() / expect.len() as f64;
            assert!((got.mean_w - mean).abs() < 1e-9);
            let cut = hpceval_power::analysis::trim_cut(expect.len(), 0.10);
            let kept = &expect[cut..expect.len() - cut];
            let trimmed = kept.iter().sum::<f64>() / kept.len() as f64;
            assert!((got.trimmed_mean_w - trimmed).abs() < 1e-9);
            let mut sorted = expect.clone();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(got.min_w, sorted[0]);
            assert_eq!(got.max_w, sorted[sorted.len() - 1]);
            let idx = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            assert_eq!(got.p95_w, sorted[idx]);
        }
    }

    #[test]
    fn trimmed_mean_matches_offline_window_stats() {
        use hpceval_power::analysis::{ProgramWindow, TraceAnalysis};
        use hpceval_power::meter::PowerTrace;
        let mut trace = PowerTrace::new();
        let mut series = ServerSeries::new("srv".into(), 128, 1.0);
        // Ramp – plateau – ramp, like a program window.
        for k in 0..50 {
            let w = if k < 10 {
                50.0 + 5.0 * k as f64
            } else if k >= 40 {
                100.0 - 5.0 * (k - 40) as f64
            } else {
                100.0
            };
            trace.push(k as f64, w);
            series.append(k as f64, w);
        }
        let offline = TraceAnalysis::new(trace)
            .analyze(ProgramWindow { start_s: 0.0, end_s: 50.0 })
            .unwrap();
        let online = series.summary(50.0).unwrap();
        assert_eq!(online.samples, offline.raw_samples);
        assert_eq!(online.trimmed_mean_w, offline.mean_w);
    }

    #[test]
    fn empty_series_has_no_summary() {
        let mut series = ServerSeries::new("srv".into(), 16, 1.0);
        assert!(series.summary(5.0).is_none());
        series.append(0.0, 42.0);
        let s = series.summary(5.0).unwrap();
        assert_eq!((s.samples, s.mean_w, s.trimmed_mean_w, s.p95_w), (1, 42.0, 42.0, 42.0));
    }
}
