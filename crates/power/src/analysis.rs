//! The paper's data analysis pipeline (§V-C2).
//!
//! After a measurement run, the paper's scripts:
//!
//! 1. copy the WTViewer CSV files to the server and **merge** them,
//! 2. **extract** the power window of each program by its recorded
//!    execution interval,
//! 3. **trim** the first 10 % and last 10 % of the samples (ramp-up and
//!    tear-down transients, meter boundary smearing),
//! 4. take the **arithmetic average** of power and memory usage,
//! 5. divide average GFLOPS by average watts to get each program's
//!    **PPW**,
//! 6. average the PPWs into the system score.
//!
//! [`TraceAnalysis`] implements steps 1–4 ([`trimmed_stats`] is steps
//! 3–4 alone, for callers that already hold a window); [`ppw`] and
//! [`energy_kj`] are steps 5 and the paper's Eq. (2).

use serde::{Deserialize, Serialize};

use crate::meter::{PowerSample, PowerTrace};

/// Execution window of one program within a measurement session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgramWindow {
    /// Program start on the merged timeline, seconds.
    pub start_s: f64,
    /// Program end, seconds.
    pub end_s: f64,
}

/// Result of analyzing one program window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Arithmetic mean power over the trimmed window, watts.
    pub mean_w: f64,
    /// Sample count after trimming.
    pub samples: usize,
    /// Sample count before trimming.
    pub raw_samples: usize,
}

/// The trim-and-average analysis over a merged trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    trace: PowerTrace,
    /// Fraction trimmed from each end (the paper: 0.10).
    pub trim_frac: f64,
}

impl TraceAnalysis {
    /// Analyzer over a merged trace with the paper's 10 % trim.
    pub fn new(trace: PowerTrace) -> Self {
        Self { trace, trim_frac: 0.10 }
    }

    /// Analyzer with a custom trim fraction (ablation).
    pub fn with_trim(mut self, frac: f64) -> Self {
        self.trim_frac = frac.clamp(0.0, 0.49);
        self
    }

    /// The merged trace under analysis.
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Steps 2–4 for one program window: extract, trim, average.
    ///
    /// Returns `None` when the window holds no samples after trimming —
    /// the failure mode of too-short runs the paper warns about
    /// ("LU.A.2 runs 1.01 s … stability and accuracy are difficult to
    /// maintain").
    pub fn analyze(&self, win: ProgramWindow) -> Option<WindowStats> {
        trimmed_stats(&self.trace.window(win.start_s, win.end_s).samples, self.trim_frac)
    }
}

/// Steps 3–4 over an already-extracted window of time-ordered samples:
/// trim `trim_frac` from each end, average the rest. `None` when nothing
/// survives the trim.
pub fn trimmed_stats(samples: &[PowerSample], trim_frac: f64) -> Option<WindowStats> {
    let raw = samples.len();
    let cut = trim_cut(raw, trim_frac);
    let kept = &samples[cut..raw - cut];
    if kept.is_empty() {
        return None;
    }
    let mean = kept.iter().map(|s| s.watts).sum::<f64>() / kept.len() as f64;
    Some(WindowStats { mean_w: mean, samples: kept.len(), raw_samples: raw })
}

/// Samples removed from *each* end of a `raw`-sample window at the
/// given trim fraction (the paper's 10 %). Clamped so `2·cut ≤ raw`.
pub fn trim_cut(raw: usize, trim_frac: f64) -> usize {
    ((raw as f64 * trim_frac.clamp(0.0, 0.49)).floor() as usize).min(raw / 2)
}

/// Samples a window of `raw` samples retains after trimming both ends.
pub fn trimmed_count(raw: usize, trim_frac: f64) -> usize {
    raw - 2 * trim_cut(raw, trim_frac)
}

/// Performance per watt, GFLOPS/W (the Green500 metric, Eq. (1)).
pub fn ppw(gflops: f64, watts: f64) -> f64 {
    if watts <= 0.0 {
        0.0
    } else {
        gflops / watts
    }
}

/// Energy in kilojoules: `Power(kW) × Time(s)` (the paper's Eq. (2)).
pub fn energy_kj(watts: f64, seconds: f64) -> f64 {
    watts / 1000.0 * seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Wt210;

    fn step_trace() -> PowerTrace {
        // 0..100 s at 100 W with 10 s ramps at each end.
        let mut m = Wt210::new(5);
        m.record(0.0, 100.0, |t| {
            if t < 10.0 {
                50.0 + 5.0 * t
            } else if t > 90.0 {
                100.0 - 5.0 * (t - 90.0)
            } else {
                100.0
            }
        })
    }

    #[test]
    fn trimming_removes_ramps() {
        let t = step_trace();
        let a = TraceAnalysis::new(t);
        let s = a.analyze(ProgramWindow { start_s: 0.0, end_s: 101.0 }).unwrap();
        // Without trimming the ramps drag the mean below 100.
        let untrimmed = a.trace().mean_w();
        assert!(untrimmed < 97.0);
        assert!((s.mean_w - 100.0).abs() < 0.6, "trimmed mean {}", s.mean_w);
    }

    #[test]
    fn trim_fraction_is_ten_percent() {
        let t = step_trace();
        let a = TraceAnalysis::new(t);
        let s = a.analyze(ProgramWindow { start_s: 0.0, end_s: 101.0 }).unwrap();
        assert_eq!(s.raw_samples, 101);
        assert_eq!(s.samples, 101 - 2 * 10);
    }

    #[test]
    fn empty_trace_analyzes_to_none() {
        let a = TraceAnalysis::new(PowerTrace::new());
        assert!(a.analyze(ProgramWindow { start_s: 0.0, end_s: 100.0 }).is_none());
    }

    #[test]
    fn single_sample_trace_survives_trimming() {
        let mut t = PowerTrace::new();
        t.push(5.0, 123.0);
        let a = TraceAnalysis::new(t);
        let s = a.analyze(ProgramWindow { start_s: 0.0, end_s: 10.0 }).unwrap();
        assert_eq!((s.raw_samples, s.samples), (1, 1));
        assert_eq!(s.mean_w, 123.0);
    }

    #[test]
    fn trim_cut_edge_counts() {
        // One or two samples: 10 % floors to zero cut from each end.
        assert_eq!(trim_cut(0, 0.10), 0);
        assert_eq!(trim_cut(1, 0.10), 0);
        assert_eq!(trim_cut(2, 0.10), 0);
        assert_eq!(trimmed_count(1, 0.10), 1);
        assert_eq!(trimmed_count(2, 0.10), 2);
        // And an aggressive trim can never consume more than all samples.
        assert_eq!(trimmed_count(3, 0.49), 1);
    }

    #[test]
    fn empty_window_is_none() {
        let t = step_trace();
        let a = TraceAnalysis::new(t);
        assert!(a.analyze(ProgramWindow { start_s: 500.0, end_s: 600.0 }).is_none());
    }

    #[test]
    fn one_sample_window_survives() {
        let t = step_trace();
        let a = TraceAnalysis::new(t);
        let s = a.analyze(ProgramWindow { start_s: 50.0, end_s: 51.0 });
        assert!(s.is_some());
        assert_eq!(s.unwrap().samples, 1);
    }

    #[test]
    fn ppw_formula() {
        assert!((ppw(37.2, 235.3179) - 0.1580).abs() < 1e-3); // Table IV row
        assert_eq!(ppw(10.0, 0.0), 0.0);
    }

    #[test]
    fn energy_formula_matches_eq2() {
        // 174 W for 200 s = 34.8 kJ (the paper's Fig 11 scale).
        assert!((energy_kj(174.0, 200.0) - 34.8).abs() < 1e-9);
    }

    #[test]
    fn custom_trim_zero_keeps_everything() {
        let t = step_trace();
        let a = TraceAnalysis::new(t).with_trim(0.0);
        let s = a.analyze(ProgramWindow { start_s: 0.0, end_s: 101.0 }).unwrap();
        assert_eq!(s.samples, s.raw_samples);
    }
}
