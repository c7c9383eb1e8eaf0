//! Sample sources: where telemetry streams come from.
//!
//! [`SampleSource`] is the ingestion trait; two implementations mirror
//! the paper's two data paths. [`TraceReplay`] streams a recorded
//! `PowerTrace` (a WTViewer CSV read back, or a `Wt210` recording) —
//! the §V-C2 offline pipeline replayed through the online one.
//! [`LiveServer`] streams the session `run_session` would log for the
//! same schedule and seed — the same plan and the same seeded WT210 —
//! plus PMU counter deltas at the paper's 10 s cadence and optional
//! failure injections (meter dropout, a clock stepping backwards
//! mid-run) for exercising the detectors.

use hpceval_core::session::{plan_session, SessionPlan};
use hpceval_machine::pmu::{PmuCounters, PmuRates};
use hpceval_machine::spec::ServerSpec;
use hpceval_machine::workload::WorkloadSignature;
use hpceval_power::meter::{PowerSample, PowerTrace, Wt210};

/// PMU counter cadence in power-sample intervals (the paper samples
/// counters every 10 s against a 1 s meter).
pub const COUNTER_CADENCE: u64 = 10;

/// One telemetry message: a timestamped power reading, optionally
/// carrying the PMU counter delta accumulated since the last one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// Index of the originating server in the collector's store.
    pub server: usize,
    /// Timestamp on the source's clock, seconds.
    pub t_s: f64,
    /// Measured watts.
    pub watts: f64,
    /// PMU counter delta ending at `t_s`, when this sample carries one.
    pub counters: Option<PmuCounters>,
}

/// A stream of telemetry samples from one server.
pub trait SampleSource {
    /// The server index samples of this source are stored under.
    fn server(&self) -> usize;
    /// Display label.
    fn label(&self) -> &str;
    /// Produce the next sample, or `None` when the stream ends.
    fn next_sample(&mut self) -> Option<TelemetrySample>;
}

/// Replay of a recorded [`PowerTrace`].
#[derive(Debug)]
pub struct TraceReplay {
    server: usize,
    label: String,
    samples: std::vec::IntoIter<PowerSample>,
}

impl TraceReplay {
    /// Stream `trace` as `server`.
    pub fn new(server: usize, label: impl Into<String>, trace: PowerTrace) -> Self {
        Self { server, label: label.into(), samples: trace.samples.into_iter() }
    }
}

impl SampleSource for TraceReplay {
    fn server(&self) -> usize {
        self.server
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn next_sample(&mut self) -> Option<TelemetrySample> {
        let s = self.samples.next()?;
        Some(TelemetrySample { server: self.server, t_s: s.t_s, watts: s.watts, counters: None })
    }
}

/// Live stream from a simulated server running a program schedule.
#[derive(Debug)]
pub struct LiveServer {
    server: usize,
    label: String,
    plan: SessionPlan,
    /// PMU counter rates, index-aligned with `plan.runs`.
    rates: Vec<PmuRates>,
    meter: Wt210,
    /// The meter's log, recorded on the first pull.
    samples: Option<std::vec::IntoIter<PowerSample>>,
    /// At `clock_jump_at_s` the stream's clock steps by `clock_jump_s`
    /// (negative = backwards, i.e. a failed re-sync).
    clock_jump_at_s: f64,
    clock_jump_s: f64,
}

impl LiveServer {
    /// A server executing `schedule` (label, signature, processes) as
    /// [`run_session`](hpceval_core::session::run_session) lays it out,
    /// metered by the same seeded WT210.
    pub fn new(
        server: usize,
        label: impl Into<String>,
        spec: &ServerSpec,
        schedule: &[(String, WorkloadSignature, u32)],
        seed: u64,
    ) -> Self {
        let plan = plan_session(spec, schedule);
        let rates = schedule
            .iter()
            .zip(&plan.estimates)
            .map(|((_, sig, _), est)| PmuRates::synthesize(spec, sig, est))
            .collect();
        Self {
            server,
            label: label.into(),
            meter: plan.meter(seed),
            plan,
            rates,
            samples: None,
            clock_jump_at_s: f64::INFINITY,
            clock_jump_s: 0.0,
        }
    }

    /// Inject meter dropout with probability `p` per sample.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.meter = self.meter.with_dropout(p);
        self
    }

    /// Inject a clock step of `jump_s` seconds at stream time `at_s`
    /// (negative steps the clock backwards).
    pub fn with_clock_jump(mut self, at_s: f64, jump_s: f64) -> Self {
        self.clock_jump_at_s = at_s;
        self.clock_jump_s = jump_s;
        self
    }

    /// Total stream duration, seconds.
    pub fn duration_s(&self) -> f64 {
        (self.plan.total_s / self.meter.interval_s).floor() * self.meter.interval_s
    }

    /// The scheduled program windows `(start_s, end_s, true_watts)`.
    pub fn schedule_windows(&self) -> Vec<(f64, f64, f64)> {
        self.plan.runs.iter().map(|r| (r.start_s, r.end_s, r.true_power_w)).collect()
    }
}

impl SampleSource for LiveServer {
    fn server(&self) -> usize {
        self.server
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn next_sample(&mut self) -> Option<TelemetrySample> {
        let (plan, meter) = (&self.plan, &mut self.meter);
        let s = self
            .samples
            .get_or_insert_with(|| plan.record(meter).samples.into_iter())
            .next()?;
        // The meter's clock is synchronized, so t_s is the server time
        // of the sample's step. A dropped sample loses its counter
        // delta too — the hole the collector's cadence check flags.
        let interval_s = self.meter.interval_s;
        let step = (s.t_s / interval_s).round() as u64;
        let counters = (step > 0 && step.is_multiple_of(COUNTER_CADENCE)).then(|| {
            match self.plan.run_at(s.t_s) {
                Some(k) => self.rates[k].sample(COUNTER_CADENCE as f64 * interval_s),
                None => PmuCounters::default(), // idle: nothing retires
            }
        });
        let t_s = if s.t_s >= self.clock_jump_at_s { s.t_s + self.clock_jump_s } else { s.t_s };
        Some(TelemetrySample { server: self.server, t_s, watts: s.watts, counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpceval_machine::presets;

    fn drain(mut src: impl SampleSource) -> Vec<TelemetrySample> {
        std::iter::from_fn(move || src.next_sample()).collect()
    }

    fn ep_schedule(spec: &ServerSpec) -> Vec<(String, WorkloadSignature, u32)> {
        use hpceval_kernels::npb::{ep::Ep, Class};
        use hpceval_kernels::suite::Benchmark;
        let full = spec.total_cores();
        vec![
            ("ep.C.1".into(), Ep::new(Class::C).signature(), 1),
            (format!("ep.C.{full}"), Ep::new(Class::C).signature(), full),
        ]
    }

    #[test]
    fn replay_streams_every_trace_sample() {
        let mut meter = Wt210::new(3).with_noise(1.0);
        let trace = meter.record(0.0, 60.0, |_| 150.0);
        let n = trace.len();
        let out = drain(TraceReplay::new(2, "replay", trace.clone()));
        assert_eq!(out.len(), n);
        assert!(out.iter().all(|s| s.server == 2 && s.counters.is_none()));
        assert_eq!(out[5].watts, trace.samples[5].watts);
    }

    #[test]
    fn live_server_covers_schedule_with_counters() {
        let spec = presets::xeon_e5462();
        let src = LiveServer::new(0, "live", &spec, &ep_schedule(&spec), 9);
        let duration = src.duration_s();
        let windows = src.schedule_windows();
        assert_eq!(windows.len(), 2);
        let out = drain(src);
        assert_eq!(out.len() as u64, duration as u64 + 1);
        let with_counters = out.iter().filter(|s| s.counters.is_some()).count();
        assert_eq!(with_counters as u64, duration as u64 / COUNTER_CADENCE);
        // Busy windows sit above idle power.
        let (start, end, watts) = windows[1];
        let busy: Vec<f64> = out
            .iter()
            .filter(|s| s.t_s >= start + 1.0 && s.t_s < end)
            .map(|s| s.watts)
            .collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        assert!((mean - watts).abs() < watts * 0.05, "mean {mean} vs truth {watts}");
    }

    #[test]
    fn live_server_logs_what_run_session_logs() {
        use hpceval_core::session::run_session;
        use hpceval_kernels::hpl::HplConfig;
        use hpceval_kernels::suite::Benchmark;
        for (spec, seed) in
            [(presets::xeon_e5462(), 7), (presets::opteron_8347(), 42), (presets::xeon_4870(), 5)]
        {
            let full = spec.total_cores();
            let mut schedule = ep_schedule(&spec);
            schedule.push((
                format!("HPL P{full}"),
                HplConfig::for_memory_fraction(&spec, 0.92, full).signature(),
                full,
            ));
            let mut live = PowerTrace::new();
            for s in drain(LiveServer::new(0, "live", &spec, &schedule, seed)) {
                live.push(s.t_s, s.watts);
            }
            let session = run_session(&spec, &schedule, seed, 0.0);
            assert_eq!(live.to_csv(), session.csv, "{} seed {seed}", spec.name);
        }
    }

    #[test]
    fn injections_perturb_the_stream() {
        let spec = presets::xeon_e5462();
        let sched = ep_schedule(&spec);
        let clean = drain(LiveServer::new(0, "c", &spec, &sched, 4));
        let dropped = drain(LiveServer::new(0, "d", &spec, &sched, 4).with_dropout(0.3));
        assert!(dropped.len() < clean.len() * 9 / 10);
        let jumped = drain(LiveServer::new(0, "j", &spec, &sched, 4).with_clock_jump(40.0, -8.0));
        assert!(jumped.windows(2).any(|w| w[1].t_s <= w[0].t_s), "jump must break order");
    }
}
