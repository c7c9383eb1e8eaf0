//! The end-to-end streaming monitor.
//!
//! Wires the layers together: sources → collector → ring store, with
//! per-server window statistics computed from the store at report
//! time, one shared online regression over the paper's six PMU
//! predictors (X1–X6 + intercept), and per-server drift detectors.
//! [`Monitor::run_with`] emits periodic status lines in *stream time*
//! (the simulation clock, not wall clock) on the calling thread, so a
//! run is deterministic: the same sources print the same lines and
//! return the same [`MonitorReport`] — final window statistics, the
//! learned coefficients, and every anomaly event.

use crate::collector::{collect, CollectorStats};
use crate::drift::{DriftDetector, TelemetryEvent};
use crate::ring::{AppendOutcome, SeriesStats, SeriesStore, WindowSummary};
use crate::rls::Rls;
use crate::source::SampleSource;

/// Window span of the reported statistics, seconds.
pub const WINDOW_S: f64 = 60.0;
/// Ring capacity per server, samples.
pub const CAPACITY: usize = 16_384;
/// Expected sampling interval, seconds (the paper's meter: 1 s).
pub const INTERVAL_S: f64 = 1.0;
/// Spike threshold in baseline standard deviations.
pub const SPIKE_SIGMA: f64 = 6.0;
/// Sustained-residual threshold for model drift, watts.
pub const DRIFT_THRESHOLD_W: f64 = 25.0;
/// Stream-time period between status lines, seconds.
pub const REPORT_EVERY_S: f64 = 60.0;

/// Final state of one monitored server.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Display label.
    pub label: String,
    /// Ingestion health counters.
    pub stats: SeriesStats,
    /// Closing window statistics (None: no samples arrived).
    pub window: Option<WindowSummary>,
}

/// The online model's final state.
#[derive(Debug, Clone)]
pub struct OnlineModelReport {
    /// Raw-space coefficients over X1..X6 (watts per counter unit).
    pub coefficients: [f64; 6],
    /// Intercept, watts.
    pub intercept: f64,
    /// Counter observations absorbed.
    pub observations: u64,
    /// Smoothed RMS innovation, watts.
    pub rms_residual_w: f64,
}

/// Everything a monitoring run produced.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Per-server outcomes, index-aligned with the sources.
    pub servers: Vec<ServerReport>,
    /// Anomalies in arrival order.
    pub events: Vec<TelemetryEvent>,
    /// The online fit (None: no counter deltas arrived).
    pub model: Option<OnlineModelReport>,
    /// Collector totals.
    pub ingestion: CollectorStats,
}

impl MonitorReport {
    /// Human-readable summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "ingested {} samples ({} stored, {} skew-rejected, {} dropout gaps)\n",
            self.ingestion.received,
            self.ingestion.accepted,
            self.ingestion.rejected,
            self.ingestion.dropouts
        ));
        for (k, srv) in self.servers.iter().enumerate() {
            match &srv.window {
                Some(w) => out.push_str(&format!(
                    "server {k} {:<18} window: mean {:7.1} W  trim10 {:7.1} W  min {:7.1}  p95 {:7.1}  max {:7.1}  (n={})\n",
                    srv.label, w.mean_w, w.trimmed_mean_w, w.min_w, w.p95_w, w.max_w, w.samples
                )),
                None => out.push_str(&format!("server {k} {:<18} no samples\n", srv.label)),
            }
        }
        match &self.model {
            Some(m) => {
                out.push_str(&format!(
                    "online model: {} observations, RMS residual {:.2} W\n",
                    m.observations, m.rms_residual_w
                ));
                for (name, b) in
                    hpceval_machine::pmu::PmuCounters::FEATURE_NAMES.iter().zip(&m.coefficients)
                {
                    out.push_str(&format!("  {name:<18} {b:+.3e}\n"));
                }
                out.push_str(&format!("  {:<18} {:+.3} W\n", "Intercept", m.intercept));
            }
            None => out.push_str("online model: no PMU counter deltas observed\n"),
        }
        if self.events.is_empty() {
            out.push_str("events: none\n");
        } else {
            out.push_str(&format!("events: {}\n", self.events.len()));
            for e in &self.events {
                out.push_str(&format!("  {e}\n"));
            }
        }
        out
    }
}

/// The streaming monitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Monitor;

impl Monitor {
    /// Run every source to exhaustion; discard status lines.
    pub fn run(&self, sources: Vec<Box<dyn SampleSource>>) -> MonitorReport {
        self.run_with(sources, |_| {})
    }

    /// Run every source to exhaustion, emitting a status line per
    /// server every [`REPORT_EVERY_S`] seconds of stream time.
    pub fn run_with(
        &self,
        sources: Vec<Box<dyn SampleSource>>,
        mut on_line: impl FnMut(&str),
    ) -> MonitorReport {
        let n = sources.len();
        let mut store =
            SeriesStore::new(sources.iter().map(|s| s.label().to_string()), CAPACITY, INTERVAL_S);
        let mut detectors: Vec<DriftDetector> =
            (0..n).map(|k| DriftDetector::new(k, SPIKE_SIGMA, DRIFT_THRESHOLD_W)).collect();
        let mut next_report: Vec<f64> = vec![REPORT_EVERY_S; n];
        // A live schedule visits few distinct feature vectors, and
        // reads/writes are collinear within one program — the design is
        // rank-deficient, so the monitor runs RLS with a real ridge
        // prior: null-space coefficients stay near zero instead of
        // exploding at the first unseen regime. (The OLS-convergence
        // guarantee with the tiny default δ is exercised in tests on
        // full-rank data.)
        let mut rls = Rls::with_delta(6, 1e-2);
        // Per-column power-of-ten scales keep the P-matrix conditioned:
        // the raw predictors span ~10 orders of magnitude (cores vs
        // retired instructions). Scales adapt upward — see below.
        let mut scale = [1.0f64; 6];
        let mut rms2_w = 0.0f64;
        let mut events: Vec<TelemetryEvent> = Vec::new();

        let ingestion = collect(sources, &mut store, |ingest, store| {
            let s = ingest.sample;
            events.extend(ingest.event);
            if !matches!(ingest.outcome, AppendOutcome::Accepted { .. }) {
                return;
            }
            events.extend(detectors[s.server].observe_power(s.t_s, s.watts));
            if let Some(c) = s.counters {
                let f = c.as_features();
                // A scale cannot be frozen up front: the stream decides
                // the magnitudes, and one program is no guide to the
                // next (EP does almost no memory traffic; HPL then
                // multiplies the memory columns by ~10⁴, which would
                // feed ~1e6-scaled regressors into P and blow the fit
                // up). When a counter outgrows its scale by two orders
                // of magnitude, re-scale the column and re-prior its
                // RLS state — relearning one coefficient is cheap.
                for (j, v) in f.iter().enumerate() {
                    let cs = column_scale(*v);
                    if cs >= scale[j] * 100.0 {
                        scale[j] = cs;
                        rls.reset_column(j);
                    }
                }
                let x: Vec<f64> = f.iter().zip(&scale).map(|(v, s)| v / s).collect();
                let r = rls.update(&x, s.watts);
                if rls.observations() > 10 {
                    rms2_w += 0.05 * (r * r - rms2_w);
                    events.extend(detectors[s.server].observe_residual(s.t_s, r));
                }
            }
            if s.t_s >= next_report[s.server] {
                next_report[s.server] = s.t_s + REPORT_EVERY_S;
                let series = store.series(s.server);
                if let Some(w) = series.summary(WINDOW_S) {
                    let st = series.stats();
                    on_line(&format!(
                        "[t={:6.0}s] {:<18} mean {:7.1} W  trim10 {:7.1} W  p95 {:7.1} W  (n={}, skew {}, dropouts {}) | model n={} rms {:5.2} W",
                        s.t_s,
                        series.label,
                        w.mean_w,
                        w.trimmed_mean_w,
                        w.p95_w,
                        w.samples,
                        st.clock_skew_rejects,
                        st.dropout_events,
                        rls.observations(),
                        rms2_w.sqrt(),
                    ));
                }
            }
        });

        let model = (rls.observations() > 0).then(|| {
            let mut coefficients = [0.0; 6];
            for (k, (b, s)) in rls.coefficients().iter().zip(&scale).enumerate() {
                coefficients[k] = b / s;
            }
            OnlineModelReport {
                coefficients,
                intercept: rls.intercept(),
                observations: rls.observations(),
                rms_residual_w: rms2_w.sqrt(),
            }
        });
        let servers = (0..n)
            .map(|k| {
                let series = store.series(k);
                ServerReport {
                    label: series.label.clone(),
                    stats: series.stats(),
                    window: series.summary(WINDOW_S),
                }
            })
            .collect();
        MonitorReport { servers, events, model, ingestion }
    }
}

/// Power-of-ten scale of a column's first observed magnitude.
fn column_scale(v: f64) -> f64 {
    let a = v.abs();
    if a <= 1.0 {
        1.0
    } else {
        10f64.powi(a.log10().floor() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::LiveServer;
    use hpceval_kernels::npb::{ep::Ep, Class};
    use hpceval_kernels::suite::Benchmark;
    use hpceval_machine::presets;

    fn schedule(
        spec: &hpceval_machine::spec::ServerSpec,
    ) -> Vec<(String, hpceval_machine::workload::WorkloadSignature, u32)> {
        let full = spec.total_cores();
        vec![
            ("ep.C.1".into(), Ep::new(Class::C).signature(), 1),
            (format!("ep.C.{full}"), Ep::new(Class::C).signature(), full),
        ]
    }

    #[test]
    fn clean_run_learns_and_stays_quiet_on_skew() {
        let spec = presets::xeon_e5462();
        let sources: Vec<Box<dyn SampleSource>> =
            vec![Box::new(LiveServer::new(0, spec.name.clone(), &spec, &schedule(&spec), 11))];
        let mut lines = 0;
        let report = Monitor.run_with(sources, |_| lines += 1);
        assert!(lines > 0, "status lines must flow");
        assert_eq!(report.ingestion.rejected, 0);
        let model = report.model.expect("counters were streamed");
        assert!(model.observations > 20);
        assert!(model.rms_residual_w.is_finite());
        assert!(!report.events.iter().any(|e| matches!(e, TelemetryEvent::ClockSkew { .. })));
        let w = report.servers[0].window.as_ref().unwrap();
        assert!(w.mean_w > 0.0 && w.p95_w >= w.trimmed_mean_w * 0.5);
    }

    #[test]
    fn injected_faults_surface_as_events() {
        let spec = presets::xeon_e5462();
        let sched = schedule(&spec);
        let sources: Vec<Box<dyn SampleSource>> = vec![
            Box::new(LiveServer::new(0, "clean", &spec, &sched, 21)),
            Box::new(LiveServer::new(1, "droppy", &spec, &sched, 22).with_dropout(0.08)),
            Box::new(LiveServer::new(2, "skewed", &spec, &sched, 23).with_clock_jump(60.0, -7.0)),
        ];
        let report = Monitor.run(sources);
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::MeterDropout { server: 1, .. })),
            "dropout injection must be reported"
        );
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::ClockSkew { server: 2, .. })),
            "clock-skew injection must be reported"
        );
        assert!(report.servers[2].stats.clock_skew_rejects > 0);
        let rendered = report.render();
        assert!(rendered.contains("clock skew"));
        assert!(rendered.contains("dropout"));
    }

    #[test]
    fn runs_with_injected_faults_are_deterministic() {
        // The CLI's three-source demo at seed 7: clean, dropout, clock step.
        use hpceval_kernels::hpl::HplConfig;
        let spec = presets::xeon_e5462();
        let full = spec.total_cores();
        let mut sched = schedule(&spec);
        sched.push((
            format!("HPL P{full}"),
            HplConfig::for_memory_fraction(&spec, 0.92, full).signature(),
            full,
        ));
        let run = || {
            let sources: Vec<Box<dyn SampleSource>> = vec![
                Box::new(LiveServer::new(0, "clean", &spec, &sched, 7)),
                Box::new(LiveServer::new(1, "dropout", &spec, &sched, 8).with_dropout(0.05)),
                Box::new(
                    LiveServer::new(2, "clock-step", &spec, &sched, 9).with_clock_jump(90.0, -6.0),
                ),
            ];
            let mut lines = Vec::new();
            let report = Monitor.run_with(sources, |line| lines.push(line.to_string()));
            (lines, report)
        };
        let (lines_a, a) = run();
        let (lines_b, b) = run();
        assert!(a.servers[1].stats.dropout_events > 0, "dropout must be reported");
        assert!(a.servers[2].stats.clock_skew_rejects > 0, "clock step must be reported");
        assert!(!lines_a.is_empty());
        assert_eq!(lines_a, lines_b);
        assert_eq!(a.render(), b.render());
    }
}
