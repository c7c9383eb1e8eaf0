//! A full measurement session, following the paper's §V-C2 procedure
//! literally.
//!
//! The paper's test harness (1) shares a directory for the meter PC,
//! (2) mounts it, (3) synchronizes clocks, (4) starts WTViewer logging,
//! (5–6) runs the configured programs back to back with idle gaps, and
//! then (1–6 of the analysis) merges the CSV logs, extracts each
//! program's window by its recorded execution interval, trims 10 % and
//! averages. [`MeasurementSession`] does exactly that: it produces *one
//! continuous power log* spanning the whole schedule — idle gaps
//! included — serializes it through the CSV path, and recovers
//! per-program statistics from the merged log, rather than measuring
//! each program in isolation.
//!
//! Tests assert the round trip: session-extracted powers match direct
//! per-program measurement within meter noise, and a clock offset breaks
//! them (why step (3) exists).

use serde::{Deserialize, Serialize};

use hpceval_machine::spec::ServerSpec;
use hpceval_machine::workload::WorkloadSignature;
use hpceval_power::analysis::{ProgramWindow, TraceAnalysis, WindowStats};
use hpceval_power::meter::{PowerTrace, Wt210};
use hpceval_power::model::PowerModel;

use hpceval_machine::roofline::{ExecEstimate, PerfModel};

/// One scheduled program run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledRun {
    /// Program label.
    pub label: String,
    /// Recorded start on the server clock, s.
    pub start_s: f64,
    /// Recorded end, s.
    pub end_s: f64,
    /// The roofline GFLOPS (for PPW afterwards).
    pub gflops: f64,
    /// Ground-truth mean power (for test comparison).
    pub true_power_w: f64,
}

/// A completed session: the schedule plus the single merged CSV log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementSession {
    /// Runs in schedule order.
    pub runs: Vec<ScheduledRun>,
    /// The WTViewer-style CSV of the full session.
    pub csv: String,
}

/// Idle seconds between scheduled programs (the paper's scripts insert
/// gaps so windows cannot bleed into each other).
pub const GAP_S: f64 = 20.0;
/// Per-program measurement window cap, seconds.
pub const RUN_CAP_S: f64 = 240.0;

/// A schedule laid out on the server clock: programs back to back
/// with [`GAP_S`] idle gaps, and the piecewise ground-truth power a
/// meter on that server samples. Shared by [`run_session`] and the
/// streaming monitor's live source, so both meter one signal.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// Runs in schedule order.
    pub runs: Vec<ScheduledRun>,
    /// Roofline estimates, index-aligned with `runs`.
    pub estimates: Vec<ExecEstimate>,
    /// Ground-truth power between runs, W.
    pub idle_w: f64,
    /// The server's calibrated meter noise σ, W.
    pub noise_sd_w: f64,
    /// Session length: the last run's end plus one gap, s.
    pub total_s: f64,
}

/// Lay out a schedule of `(label, signature, processes)` on `spec`.
pub fn plan_session(
    spec: &ServerSpec,
    schedule: &[(String, WorkloadSignature, u32)],
) -> SessionPlan {
    let perf = PerfModel::new(spec.clone());
    let power = PowerModel::new(spec.clone());
    let mut runs = Vec::new();
    let mut estimates = Vec::new();
    let mut t = GAP_S;
    for (label, sig, p) in schedule {
        let est = perf.execute(sig, *p);
        let watts = power.power_w(sig, &est);
        let duration = est.time_s.clamp(30.0, RUN_CAP_S);
        runs.push(ScheduledRun {
            label: label.clone(),
            start_s: t,
            end_s: t + duration,
            gflops: est.gflops,
            true_power_w: watts,
        });
        estimates.push(est);
        t += duration + GAP_S;
    }
    SessionPlan {
        runs,
        estimates,
        idle_w: power.idle_w(),
        noise_sd_w: power.calibration().noise_sd_w,
        total_s: t,
    }
}

impl SessionPlan {
    /// Index of the run executing at server time `t_s` (None: idle).
    pub fn run_at(&self, t_s: f64) -> Option<usize> {
        self.runs.iter().position(|r| t_s >= r.start_s && t_s < r.end_s)
    }

    /// Ground-truth power at server time `t_s`, W.
    pub fn power_w(&self, t_s: f64) -> f64 {
        self.run_at(t_s).map_or(self.idle_w, |k| self.runs[k].true_power_w)
    }

    /// The seeded WT210 that meters this plan: the server's calibrated
    /// noise, synchronized clocks, no dropout.
    pub fn meter(&self, seed: u64) -> Wt210 {
        Wt210::new(seed).with_noise(self.noise_sd_w)
    }

    /// Log the whole session, idle gaps included, on `meter`.
    pub fn record(&self, meter: &mut Wt210) -> PowerTrace {
        meter.record(0.0, self.total_s, |t| self.power_w(t))
    }
}

/// Execute a schedule of `(label, signature, processes)` on `spec`,
/// logging one continuous power trace.
///
/// `clock_offset_s` models an unsynchronized meter PC (0 after the
/// paper's sync step).
pub fn run_session(
    spec: &ServerSpec,
    schedule: &[(String, WorkloadSignature, u32)],
    seed: u64,
    clock_offset_s: f64,
) -> MeasurementSession {
    let plan = plan_session(spec, schedule);
    let mut meter = plan.meter(seed).with_clock_offset(clock_offset_s);
    let csv = plan.record(&mut meter).to_csv();
    MeasurementSession { runs: plan.runs, csv }
}

impl MeasurementSession {
    /// The analysis side: parse the CSV back (step 1), extract each
    /// run's window (step 2), trim and average (steps 3–4). Returns
    /// `None` when the CSV fails to parse or a window is empty.
    pub fn analyze(&self) -> Option<Vec<(ScheduledRun, WindowStats)>> {
        let trace = PowerTrace::from_csv(&self.csv)?;
        let analysis = TraceAnalysis::new(trace);
        self.runs
            .iter()
            .map(|run| {
                analysis
                    .analyze(ProgramWindow { start_s: run.start_s, end_s: run.end_s })
                    .map(|stats| (run.clone(), stats))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpceval_kernels::hpl::HplConfig;
    use hpceval_kernels::npb::{ep::Ep, Class};
    use hpceval_kernels::suite::Benchmark;
    use hpceval_machine::presets;

    fn schedule(spec: &ServerSpec) -> Vec<(String, WorkloadSignature, u32)> {
        let full = spec.total_cores();
        vec![
            ("ep.C.1".into(), Ep::new(Class::C).signature(), 1),
            (format!("ep.C.{full}"), Ep::new(Class::C).signature(), full),
            (
                format!("HPL P{full} Mf"),
                HplConfig::for_memory_fraction(spec, 0.92, full).signature(),
                full,
            ),
        ]
    }

    #[test]
    fn session_recovers_per_program_power() {
        let spec = presets::xeon_e5462();
        let session = run_session(&spec, &schedule(&spec), 77, 0.0);
        let results = session.analyze().expect("analysis succeeds");
        assert_eq!(results.len(), 3);
        for (run, stats) in &results {
            assert!(
                (stats.mean_w - run.true_power_w).abs() < 3.0,
                "{}: {} vs truth {}",
                run.label,
                stats.mean_w,
                run.true_power_w
            );
        }
        // Distinct programs must yield distinct powers.
        assert!(results[2].1.mean_w > results[1].1.mean_w + 20.0);
        assert!(results[1].1.mean_w > results[0].1.mean_w + 10.0);
    }

    #[test]
    fn csv_round_trip_is_the_data_path() {
        let spec = presets::opteron_8347();
        let session = run_session(&spec, &schedule(&spec), 5, 0.0);
        // The CSV itself must parse and cover the whole session.
        let trace = PowerTrace::from_csv(&session.csv).expect("valid CSV");
        let last_end = session.runs.last().expect("runs scheduled").end_s;
        assert!(trace.duration_s() >= last_end);
    }

    #[test]
    fn unsynchronized_clock_corrupts_extraction() {
        // Step (3) of the paper's procedure exists for a reason. (A
        // small offset — under 10 % of the window — is silently absorbed
        // by the trim step; a 60 s offset on a 240 s window is not.)
        let spec = presets::xeon_e5462();
        let good = run_session(&spec, &schedule(&spec), 3, 0.0);
        let bad = run_session(&spec, &schedule(&spec), 3, 60.0);
        let g = good.analyze().expect("good session analyzes");
        let b = bad.analyze().expect("offset session still analyzes");
        // The HPL window is hit hardest: its recorded interval now
        // overlaps the trailing idle gap.
        let g_err = (g[2].1.mean_w - g[2].0.true_power_w).abs();
        let b_err = (b[2].1.mean_w - b[2].0.true_power_w).abs();
        assert!(
            b_err > g_err + 5.0,
            "offset must visibly corrupt: good {g_err:.2} W vs bad {b_err:.2} W"
        );
    }

    #[test]
    fn idle_gaps_read_as_idle() {
        let spec = presets::xeon_e5462();
        let session = run_session(&spec, &schedule(&spec), 9, 0.0);
        let trace = PowerTrace::from_csv(&session.csv).expect("valid CSV");
        let analysis = TraceAnalysis::new(trace);
        // The first gap (before the first program).
        let stats = analysis
            .analyze(ProgramWindow { start_s: 0.0, end_s: GAP_S - 1.0 })
            .expect("gap has samples");
        assert!((stats.mean_w - 134.37).abs() < 3.0, "gap power {}", stats.mean_w);
    }

    #[test]
    fn sessions_are_deterministic_under_seed() {
        let spec = presets::xeon_4870();
        let a = run_session(&spec, &schedule(&spec), 42, 0.0);
        let b = run_session(&spec, &schedule(&spec), 42, 0.0);
        assert_eq!(a, b);
    }
}
