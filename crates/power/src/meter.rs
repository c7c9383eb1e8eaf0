//! WT210 power meter simulation.
//!
//! The paper's §V-C2 measurement procedure: a Yokogawa WT210 on the
//! server's wall socket logs one sample per second into CSV files on a
//! separate PC (WTViewer), whose clock is synchronized with the server
//! before the run. [`Wt210`] reproduces that data path — sampling noise,
//! quantization to the meter's resolution, a residual clock offset — and
//! [`PowerTrace`] is the CSV-shaped log the analysis pipeline consumes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One logged sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Timestamp in seconds on the *meter PC's* clock.
    pub t_s: f64,
    /// Measured watts.
    pub watts: f64,
}

/// A timestamped power log (one WTViewer CSV file).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    /// Samples in ascending time order.
    pub samples: Vec<PowerSample>,
}

impl PowerTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample, rejecting out-of-order timestamps.
    ///
    /// The trace invariant is strictly ascending time — the analysis
    /// pipeline (windowing, trimming) silently miscomputes on unordered
    /// samples, so a violation is surfaced here instead of downstream.
    pub fn try_push(&mut self, t_s: f64, watts: f64) -> Result<(), OutOfOrderSample> {
        if let Some(last) = self.samples.last() {
            if t_s <= last.t_s {
                return Err(OutOfOrderSample { last_t_s: last.t_s, t_s });
            }
        }
        self.samples.push(PowerSample { t_s, watts });
        Ok(())
    }

    /// Append a sample.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) when `t_s` is not strictly later
    /// than the last sample. Callers that cannot guarantee ordering
    /// should use [`PowerTrace::try_push`] or sort via
    /// [`PowerTrace::merge`].
    pub fn push(&mut self, t_s: f64, watts: f64) {
        if let Err(e) = self.try_push(t_s, watts) {
            panic!("{e}");
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were logged.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time span covered, in seconds.
    pub fn duration_s(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.t_s - a.t_s,
            _ => 0.0,
        }
    }

    /// Arithmetic mean power over all samples.
    pub fn mean_w(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.watts).sum::<f64>() / self.samples.len() as f64
    }

    /// Samples within `[from_s, to_s)`.
    pub fn window(&self, from_s: f64, to_s: f64) -> PowerTrace {
        PowerTrace {
            samples: self
                .samples
                .iter()
                .filter(|s| s.t_s >= from_s && s.t_s < to_s)
                .copied()
                .collect(),
        }
    }

    /// Serialize as a WTViewer-like CSV (`time_s,watts` with header).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 24 + 16);
        out.push_str("time_s,watts\n");
        for s in &self.samples {
            out.push_str(&format!("{:.3},{:.4}\n", s.t_s, s.watts));
        }
        out
    }

    /// Parse the CSV produced by [`PowerTrace::to_csv`]. Returns `None`
    /// on malformed input (the paper's pipeline would abort the merge).
    pub fn from_csv(csv: &str) -> Option<PowerTrace> {
        let mut lines = csv.lines();
        let header = lines.next()?;
        if header.trim() != "time_s,watts" {
            return None;
        }
        let mut trace = PowerTrace::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (t, w) = line.split_once(',')?;
            let t: f64 = t.parse().ok()?;
            let w: f64 = w.parse().ok()?;
            if !t.is_finite() || !w.is_finite() {
                return None;
            }
            trace.samples.push(PowerSample { t_s: t, watts: w });
        }
        Some(trace)
    }

    /// Merge several CSV logs into one time-ordered trace (step (1) of
    /// the paper's analysis procedure).
    pub fn merge(traces: impl IntoIterator<Item = PowerTrace>) -> PowerTrace {
        let mut all: Vec<PowerSample> = traces.into_iter().flat_map(|t| t.samples).collect();
        all.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        PowerTrace { samples: all }
    }
}

/// Rejected append: the sample is not strictly later than the last one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutOfOrderSample {
    /// Timestamp of the trace's current last sample.
    pub last_t_s: f64,
    /// The rejected timestamp.
    pub t_s: f64,
}

impl std::fmt::Display for OutOfOrderSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-order sample: t={} s is not after the last sample at t={} s",
            self.t_s, self.last_t_s
        )
    }
}

impl std::error::Error for OutOfOrderSample {}

/// The simulated WT210 meter.
#[derive(Debug, Clone)]
pub struct Wt210 {
    /// Sampling interval in seconds (the paper logs at 1 s).
    pub interval_s: f64,
    /// Gaussian measurement noise σ added on top of the ground truth.
    pub noise_sd_w: f64,
    /// Meter resolution (WT210: 0.01 W at these ranges).
    pub resolution_w: f64,
    /// Residual clock offset between meter PC and server after the sync
    /// step, in seconds.
    pub clock_offset_s: f64,
    /// Probability that any one sample is dropped (logging hiccups).
    pub dropout_prob: f64,
    rng: StdRng,
}

impl Wt210 {
    /// A meter with the paper's setup: 1 s interval, synchronized clocks.
    pub fn new(seed: u64) -> Self {
        Self {
            interval_s: 1.0,
            noise_sd_w: 0.0,
            resolution_w: 0.01,
            clock_offset_s: 0.0,
            dropout_prob: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Set the noise level.
    pub fn with_noise(mut self, sd_w: f64) -> Self {
        self.noise_sd_w = sd_w;
        self
    }

    /// Set a clock offset (failure injection).
    pub fn with_clock_offset(mut self, offset_s: f64) -> Self {
        self.clock_offset_s = offset_s;
        self
    }

    /// Set a sample dropout probability (failure injection).
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Stream `duration_s` seconds of a signal `power(t)` starting at
    /// server time `start_s`, one lazy sample at a time.
    ///
    /// Samples materialize on demand, dropouts are skipped, and
    /// noise/quantization/clock offset are applied exactly as in
    /// [`Wt210::record`], which is a `collect` of this iterator.
    pub fn stream<'a, F: Fn(f64) -> f64 + 'a>(
        &'a mut self,
        start_s: f64,
        duration_s: f64,
        power: F,
    ) -> impl Iterator<Item = PowerSample> + 'a {
        let steps = (duration_s / self.interval_s).floor() as u64;
        let mut k = 0u64;
        std::iter::from_fn(move || loop {
            if k > steps {
                return None;
            }
            let step = k;
            k += 1;
            if self.dropout_prob > 0.0 && self.rng.random::<f64>() < self.dropout_prob {
                continue;
            }
            let t_server = start_s + step as f64 * self.interval_s;
            let truth = power(t_server);
            let noise =
                if self.noise_sd_w > 0.0 { gaussian(&mut self.rng) * self.noise_sd_w } else { 0.0 };
            let quantized = ((truth + noise) / self.resolution_w).round() * self.resolution_w;
            return Some(PowerSample {
                t_s: t_server + self.clock_offset_s,
                watts: quantized.max(0.0),
            });
        })
    }

    /// Record `duration_s` seconds of a signal `power(t)` starting at
    /// server time `start_s`.
    pub fn record<F: Fn(f64) -> f64>(
        &mut self,
        start_s: f64,
        duration_s: f64,
        power: F,
    ) -> PowerTrace {
        let samples = self.stream(start_s, duration_s, power).collect();
        PowerTrace { samples }
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_expected_sample_count() {
        let mut m = Wt210::new(1);
        let t = m.record(0.0, 60.0, |_| 100.0);
        assert_eq!(t.len(), 61); // inclusive endpoints at 1 Hz
        assert!((t.mean_w() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn noise_averages_out() {
        let mut m = Wt210::new(7).with_noise(2.0);
        let t = m.record(0.0, 3600.0, |_| 250.0);
        assert!((t.mean_w() - 250.0).abs() < 0.5, "mean {}", t.mean_w());
        // And the noise must actually be there.
        let var: f64 =
            t.samples.iter().map(|s| (s.watts - 250.0).powi(2)).sum::<f64>() / t.len() as f64;
        assert!(var > 1.0, "variance {var}");
    }

    #[test]
    fn quantization_applied() {
        let mut m = Wt210::new(1);
        m.resolution_w = 0.5;
        let t = m.record(0.0, 10.0, |_| 100.26);
        for s in &t.samples {
            assert!((s.watts - 100.5).abs() < 1e-9, "{}", s.watts);
        }
    }

    #[test]
    fn clock_offset_shifts_timestamps() {
        let mut m = Wt210::new(1).with_clock_offset(3.5);
        let t = m.record(10.0, 5.0, |_| 1.0);
        assert!((t.samples[0].t_s - 13.5).abs() < 1e-9);
    }

    #[test]
    fn dropout_loses_samples() {
        let mut m = Wt210::new(99).with_dropout(0.5);
        let t = m.record(0.0, 1000.0, |_| 1.0);
        assert!(t.len() < 900, "dropout had no effect: {}", t.len());
        assert!(t.len() > 300);
    }

    #[test]
    fn try_push_rejects_out_of_order() {
        let mut t = PowerTrace::new();
        assert!(t.try_push(1.0, 100.0).is_ok());
        let err = t.try_push(1.0, 101.0).unwrap_err(); // equal is also out of order
        assert_eq!(err, OutOfOrderSample { last_t_s: 1.0, t_s: 1.0 });
        assert!(t.try_push(0.5, 101.0).is_err());
        assert_eq!(t.len(), 1, "rejected samples must not be appended");
        assert!(t.try_push(2.0, 101.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "out-of-order sample")]
    fn push_panics_on_out_of_order() {
        let mut t = PowerTrace::new();
        t.push(5.0, 100.0);
        t.push(4.0, 100.0);
    }

    #[test]
    fn stream_matches_record() {
        let mut a = Wt210::new(11).with_noise(1.5).with_dropout(0.1);
        let mut b = a.clone();
        let streamed: Vec<PowerSample> = a.stream(3.0, 120.0, |t| 200.0 + t).collect();
        let recorded = b.record(3.0, 120.0, |t| 200.0 + t);
        assert_eq!(streamed, recorded.samples);
    }

    #[test]
    fn csv_round_trip() {
        let mut m = Wt210::new(3).with_noise(1.0);
        let t = m.record(0.0, 30.0, |x| 200.0 + x);
        let csv = t.to_csv();
        let back = PowerTrace::from_csv(&csv).unwrap();
        assert_eq!(t.len(), back.len());
        for (a, b) in t.samples.iter().zip(&back.samples) {
            assert!((a.t_s - b.t_s).abs() < 1e-3);
            assert!((a.watts - b.watts).abs() < 1e-3);
        }
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(PowerTrace::from_csv("bogus\n1,2\n").is_none());
        assert!(PowerTrace::from_csv("time_s,watts\n1.0;2.0\n").is_none());
        assert!(PowerTrace::from_csv("time_s,watts\nNaN,5\n").is_none());
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = PowerTrace::new();
        a.push(10.0, 1.0);
        a.push(12.0, 1.0);
        let mut b = PowerTrace::new();
        b.push(11.0, 2.0);
        let m = PowerTrace::merge([a, b]);
        let times: Vec<f64> = m.samples.iter().map(|s| s.t_s).collect();
        assert_eq!(times, vec![10.0, 11.0, 12.0]);
    }

    #[test]
    fn window_selects_half_open_range() {
        let mut t = PowerTrace::new();
        for k in 0..10 {
            t.push(k as f64, k as f64);
        }
        let w = t.window(2.0, 5.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w.samples[0].t_s, 2.0);
    }
}
