//! Incrementally maintained sliding-window statistics.
//!
//! The offline pipeline recomputes window statistics from the full
//! trace on every query; the monitor cannot afford a rescan per sample.
//! [`SlidingWindow`] keeps the last `span_s` seconds of samples with a
//! running sum (mean in O(1)) and an order-maintained value array
//! (min/max/p95 in O(1), insert/evict in O(log n) search + shift), and
//! reproduces the paper's trim-10 % mean *in time order* — the trim
//! removes ramp-up/tear-down transients at the window edges (§V-C2),
//! not outliers by value, so it must match
//! [`hpceval_power::analysis::WindowStats`] sample for sample.

use std::collections::VecDeque;

use hpceval_power::analysis::trim_cut;
use hpceval_power::meter::PowerSample;

/// Statistics over the current window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Arithmetic mean, watts.
    pub mean_w: f64,
    /// Mean after trimming `trim_frac` from each *end in time order*
    /// (the paper's 10 % cut).
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

/// A time-span sliding window over a power stream.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    span_s: f64,
    trim_frac: f64,
    window: VecDeque<PowerSample>,
    /// `window`'s watts kept sorted for order statistics.
    sorted: Vec<f64>,
    sum_w: f64,
}

impl SlidingWindow {
    /// A window spanning the trailing `span_s` seconds, trimming the
    /// paper's 10 % for the trimmed mean.
    pub fn new(span_s: f64) -> Self {
        Self {
            span_s: span_s.max(f64::MIN_POSITIVE),
            trim_frac: 0.10,
            window: VecDeque::new(),
            sorted: Vec::new(),
            sum_w: 0.0,
        }
    }

    /// Override the trim fraction (clamped like the offline analyzer).
    pub fn with_trim(mut self, frac: f64) -> Self {
        self.trim_frac = frac.clamp(0.0, 0.49);
        self
    }

    /// Slide the window forward to include `sample`, evicting samples
    /// older than `sample.t_s - span_s`.
    pub fn push(&mut self, sample: PowerSample) {
        let horizon = sample.t_s - self.span_s;
        while let Some(old) = self.window.front() {
            if old.t_s > horizon {
                break;
            }
            self.sum_w -= old.watts;
            let pos = self
                .sorted
                .binary_search_by(|v| v.total_cmp(&old.watts))
                .expect("evicted value present in order index");
            self.sorted.remove(pos);
            self.window.pop_front();
        }
        self.sum_w += sample.watts;
        let pos = self
            .sorted
            .binary_search_by(|v| v.total_cmp(&sample.watts))
            .unwrap_or_else(|p| p);
        self.sorted.insert(pos, sample.watts);
        self.window.push_back(sample);
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Current statistics, or `None` on an empty window.
    pub fn summary(&self) -> Option<WindowSummary> {
        let n = self.window.len();
        if n == 0 {
            return None;
        }
        let cut = trim_cut(n, self.trim_frac);
        // The trimmed mean is over the middle of the window *in time
        // order*; n is small (a window), so the slice sum is cheap and
        // exact.
        let kept = self.window.iter().skip(cut).take(n - 2 * cut);
        let (mut tsum, mut tn) = (0.0, 0usize);
        for s in kept {
            tsum += s.watts;
            tn += 1;
        }
        let p95_idx = ((0.95 * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(WindowSummary {
            mean_w: self.sum_w / n as f64,
            trimmed_mean_w: tsum / tn as f64,
            min_w: self.sorted[0],
            max_w: self.sorted[n - 1],
            p95_w: self.sorted[p95_idx],
            samples: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpceval_power::analysis::{trimmed_stats, ProgramWindow, TraceAnalysis};
    use hpceval_power::meter::PowerTrace;

    fn sample(t: f64, w: f64) -> PowerSample {
        PowerSample { t_s: t, watts: w }
    }

    #[test]
    fn incremental_matches_recompute() {
        // Against a brute-force recompute at every step.
        let mut win = SlidingWindow::new(10.0);
        let mut all: Vec<PowerSample> = Vec::new();
        let mut x = 42u64;
        let mut rnd = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for k in 0..200 {
            let s = sample(k as f64 * 0.7, 100.0 + 50.0 * rnd());
            win.push(s);
            all.push(s);
            let horizon = s.t_s - 10.0;
            let expect: Vec<f64> =
                all.iter().filter(|p| p.t_s > horizon).map(|p| p.watts).collect();
            let got = win.summary().unwrap();
            assert_eq!(got.samples, expect.len());
            let mean = expect.iter().sum::<f64>() / expect.len() as f64;
            assert!((got.mean_w - mean).abs() < 1e-9);
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
        let mut trace = PowerTrace::new();
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
        }
        let offline = TraceAnalysis::new(trace.clone())
            .analyze(ProgramWindow { start_s: 0.0, end_s: 50.0 })
            .unwrap();

        let mut win = SlidingWindow::new(50.0);
        for s in &trace.samples {
            win.push(*s);
        }
        let online = win.summary().unwrap();
        assert_eq!(online.samples, offline.raw_samples);
        assert!((online.trimmed_mean_w - offline.mean_w).abs() < 1e-12);

        let direct = trimmed_stats(&trace.samples, 0.10).unwrap();
        assert_eq!(direct, offline);
    }

    #[test]
    fn duplicate_watts_evict_cleanly() {
        let mut win = SlidingWindow::new(2.5);
        for k in 0..20 {
            win.push(sample(k as f64, 100.0)); // all identical values
        }
        let s = win.summary().unwrap();
        assert_eq!(s.samples, 3);
        assert_eq!((s.min_w, s.max_w, s.mean_w), (100.0, 100.0, 100.0));
    }

    #[test]
    fn empty_window_has_no_summary() {
        assert!(SlidingWindow::new(5.0).summary().is_none());
        assert!(trimmed_stats(&[], 0.10).is_none());
        let one = [sample(0.0, 42.0)];
        let s = trimmed_stats(&one, 0.10).unwrap();
        assert_eq!((s.samples, s.raw_samples, s.mean_w), (1, 1, 42.0));
    }
}
