//! Residual-based drift and anomaly detection.
//!
//! The offline pipeline tolerates bad samples by trimming 10 % of every
//! window; a monitor must instead *flag* them as they happen. Three
//! detectors feed one event stream: the store's append outcomes surface
//! meter faults (clock skew, dropouts), [`DriftDetector::observe_power`]
//! flags per-sample power spikes against an exponentially-weighted
//! baseline, and [`DriftDetector::observe_residual`] watches the online
//! model's innovations — a sustained residual bias means the fitted
//! coefficients no longer describe the machine (workload regime change,
//! aging calibration), which is drift rather than noise.

/// An anomaly surfaced by the monitoring pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A sample's timestamp was not after its predecessor's; it was
    /// rejected, not silently averaged.
    ClockSkew {
        /// Originating server.
        server: usize,
        /// The offending timestamp.
        t_s: f64,
        /// Timestamp of the newest stored sample.
        last_t_s: f64,
    },
    /// The sampling cadence says samples went missing before `t_s`.
    MeterDropout {
        /// Originating server.
        server: usize,
        /// Timestamp of the first sample after the gap.
        t_s: f64,
        /// Samples the cadence says were lost.
        missed: u32,
    },
    /// A sample far outside the recent power baseline.
    PowerSpike {
        /// Originating server.
        server: usize,
        /// Spike timestamp.
        t_s: f64,
        /// Measured watts.
        watts: f64,
        /// Baseline mean at detection time, watts.
        baseline_w: f64,
        /// Deviation in baseline standard deviations.
        sigmas: f64,
    },
    /// The online model's residuals hold a sustained bias.
    ModelDrift {
        /// Originating server.
        server: usize,
        /// Detection timestamp.
        t_s: f64,
        /// Smoothed residual bias, watts.
        bias_w: f64,
        /// Threshold that was crossed, watts.
        threshold_w: f64,
    },
}

impl std::fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TelemetryEvent::ClockSkew { server, t_s, last_t_s } => write!(
                f,
                "server {server}: clock skew at t={t_s:.1}s (not after {last_t_s:.1}s) — sample rejected"
            ),
            TelemetryEvent::MeterDropout { server, t_s, missed } => {
                write!(f, "server {server}: meter dropout before t={t_s:.1}s ({missed} samples lost)")
            }
            TelemetryEvent::PowerSpike { server, t_s, watts, baseline_w, sigmas } => write!(
                f,
                "server {server}: power spike at t={t_s:.1}s: {watts:.1} W vs baseline {baseline_w:.1} W ({sigmas:.1}σ)"
            ),
            TelemetryEvent::ModelDrift { server, t_s, bias_w, threshold_w } => write!(
                f,
                "server {server}: model drift at t={t_s:.1}s: residual bias {bias_w:+.1} W exceeds {threshold_w:.1} W"
            ),
        }
    }
}

/// Per-server spike and drift detection state.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    server: usize,
    /// EWMA smoothing factor for the power baseline.
    alpha: f64,
    /// Spike threshold in baseline standard deviations.
    spike_sigma: f64,
    /// Residual-bias threshold, watts.
    drift_threshold_w: f64,
    /// Samples before detection arms (baseline warm-up).
    warmup: u32,
    seen: u32,
    mean_w: f64,
    var_w: f64,
    spike_run: u32,
    in_spike: bool,
    res_bias_w: f64,
    res_seen: u32,
    in_drift: bool,
}

/// Consecutive out-of-band samples after which the detector stops
/// calling the excursion a spike and re-levels its baseline: the
/// machine genuinely moved to a new power regime (a program started).
const RELEVEL_AFTER: u32 = 5;

impl DriftDetector {
    /// Detector for `server` with a ~20-sample warm-up, 6σ spike
    /// threshold and a drift threshold of `drift_threshold_w` watts.
    pub fn new(server: usize, spike_sigma: f64, drift_threshold_w: f64) -> Self {
        Self {
            server,
            alpha: 0.05,
            spike_sigma,
            drift_threshold_w,
            warmup: 20,
            seen: 0,
            mean_w: 0.0,
            var_w: 0.0,
            spike_run: 0,
            in_spike: false,
            res_bias_w: 0.0,
            res_seen: 0,
            in_drift: false,
        }
    }

    /// Feed one power sample; returns a spike event when it deviates
    /// `spike_sigma` baseline deviations from the EWMA baseline.
    ///
    /// One event per excursion: a short transient fires once and the
    /// baseline is left untouched; a *sustained* shift (a program
    /// starting or ending) also fires once, after which the baseline
    /// re-levels onto the new regime instead of flooding events.
    pub fn observe_power(&mut self, t_s: f64, watts: f64) -> Option<TelemetryEvent> {
        self.seen += 1;
        if self.seen == 1 {
            self.mean_w = watts;
            return None;
        }
        let dev = watts - self.mean_w;
        let sd = self.var_w.sqrt();
        let armed = self.seen > self.warmup && sd > 1e-9;
        if armed && dev.abs() > self.spike_sigma * sd {
            self.spike_run += 1;
            if self.spike_run >= RELEVEL_AFTER {
                // New regime: move the baseline there but keep the
                // learned variance — meter noise does not change with
                // the power level, and a variance re-learned from zero
                // would flag the new level's own noise as spikes.
                self.mean_w = watts;
                self.spike_run = 0;
                self.in_spike = false;
                return None;
            }
            if self.in_spike {
                return None; // already reported this excursion
            }
            self.in_spike = true;
            return Some(TelemetryEvent::PowerSpike {
                server: self.server,
                t_s,
                watts,
                baseline_w: self.mean_w,
                sigmas: dev.abs() / sd,
            });
        }
        self.spike_run = 0;
        self.in_spike = false;
        self.mean_w += self.alpha * dev;
        self.var_w = (1.0 - self.alpha) * (self.var_w + self.alpha * dev * dev);
        None
    }

    /// Feed one model innovation (a-priori residual); returns a drift
    /// event when the smoothed bias crosses the threshold, once per
    /// excursion (hysteresis at half the threshold).
    pub fn observe_residual(&mut self, t_s: f64, residual_w: f64) -> Option<TelemetryEvent> {
        self.res_seen += 1;
        self.res_bias_w += self.alpha * (residual_w - self.res_bias_w);
        if self.res_seen <= self.warmup {
            return None;
        }
        if self.in_drift {
            if self.res_bias_w.abs() < self.drift_threshold_w * 0.5 {
                self.in_drift = false;
            }
            return None;
        }
        if self.res_bias_w.abs() > self.drift_threshold_w {
            self.in_drift = true;
            return Some(TelemetryEvent::ModelDrift {
                server: self.server,
                t_s,
                bias_w: self.res_bias_w,
                threshold_w: self.drift_threshold_w,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_is_flagged_and_baseline_untouched() {
        let mut d = DriftDetector::new(0, 6.0, 10.0);
        let mut s = 5u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        for k in 0..100 {
            assert!(d.observe_power(f64::from(k), 200.0 + rnd() * 4.0).is_none());
        }
        let ev = d.observe_power(100.0, 400.0).expect("spike detected");
        match ev {
            TelemetryEvent::PowerSpike { watts, baseline_w, sigmas, .. } => {
                assert_eq!(watts, 400.0);
                assert!((baseline_w - 200.0).abs() < 3.0);
                assert!(sigmas > 6.0);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Baseline survives the spike: normal samples stay quiet.
        assert!(d.observe_power(101.0, 200.5).is_none());
    }

    #[test]
    fn sustained_step_fires_once_then_relevels() {
        let mut d = DriftDetector::new(0, 6.0, 10.0);
        let mut s = 9u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        let mut events = 0;
        for k in 0..400 {
            // Idle at 130 W, then a program takes the machine to 240 W.
            let base = if k < 200 { 130.0 } else { 240.0 };
            if d.observe_power(f64::from(k), base + rnd() * 3.0).is_some() {
                events += 1;
            }
        }
        assert_eq!(events, 1, "a level shift is one event, not a flood");
    }

    #[test]
    fn noisy_staircase_fires_once_per_level_shift() {
        // A program schedule's shape: k level shifts 20 samples apart
        // (the monitor's gap between programs), each followed by noise
        // at the new level. Every shift is one spike, and the noise
        // after a re-level raises nothing.
        let mut d = DriftDetector::new(0, 6.0, 10.0);
        let mut s = 11u64;
        let mut rnd = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        let levels = [130.0, 150.0, 210.0, 145.0, 260.0, 135.0, 180.0];
        let shifts = levels.len() - 1;
        let mut spikes = 0;
        for (k, &level) in levels.iter().enumerate() {
            for i in 0..20 {
                let t = (20 * k + i) as f64;
                match d.observe_power(t, level + rnd() * 3.0) {
                    Some(TelemetryEvent::PowerSpike { .. }) => spikes += 1,
                    Some(other) => panic!("unexpected event {other:?}"),
                    None => {}
                }
            }
        }
        assert_eq!(spikes, shifts, "one spike per level shift");
    }

    #[test]
    fn quiet_stream_raises_nothing() {
        let mut d = DriftDetector::new(0, 6.0, 10.0);
        for k in 0..500 {
            let w = 300.0 + (f64::from(k) * 0.1).sin() * 2.0;
            assert!(d.observe_power(f64::from(k), w).is_none());
        }
    }

    #[test]
    fn sustained_residual_bias_is_drift_once() {
        let mut d = DriftDetector::new(1, 6.0, 5.0);
        let mut events = 0;
        for k in 0..200 {
            // Residuals jump from ~0 to +12 W at k=100 and stay there.
            let r = if k < 100 { 0.1 } else { 12.0 };
            if let Some(TelemetryEvent::ModelDrift { bias_w, .. }) =
                d.observe_residual(f64::from(k), r)
            {
                events += 1;
                assert!(bias_w > 5.0);
            }
        }
        assert_eq!(events, 1, "hysteresis must suppress repeats");
    }
}
