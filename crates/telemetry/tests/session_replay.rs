//! Satellite integration test: replaying a recorded
//! `MeasurementSession` CSV through the telemetry collector reproduces
//! the same per-program trim-10 % window statistics as the offline
//! `TraceAnalysis` path — the streaming system is a superset of the
//! paper's batch pipeline, not a different analysis.

use hpceval_core::session::run_session;
use hpceval_kernels::hpl::HplConfig;
use hpceval_kernels::npb::{ep::Ep, Class};
use hpceval_kernels::suite::Benchmark;
use hpceval_machine::presets;
use hpceval_power::analysis::trimmed_stats;
use hpceval_power::meter::PowerTrace;
use hpceval_telemetry::{collect, SampleSource, SeriesStore, TraceReplay};

#[test]
fn collector_replay_matches_offline_trace_analysis() {
    let spec = presets::xeon_e5462();
    let full = spec.total_cores();
    let schedule = vec![
        ("ep.C.1".to_string(), Ep::new(Class::C).signature(), 1),
        (format!("ep.C.{full}"), Ep::new(Class::C).signature(), full),
        (
            format!("HPL P{full}"),
            HplConfig::for_memory_fraction(&spec, 0.92, full).signature(),
            full,
        ),
    ];
    let session = run_session(&spec, &schedule, 77, 0.0);

    // Offline: the paper's batch path (parse → window → trim → mean).
    let offline = session.analyze().expect("offline analysis succeeds");

    // Online: the same CSV replayed through the collector into the
    // ring store, then windowed out of the store.
    let trace = PowerTrace::from_csv(&session.csv).expect("session CSV parses");
    let n_samples = trace.len();
    let mut store = SeriesStore::new([spec.name.as_str()], n_samples.max(1), 1.0);
    let sources: Vec<Box<dyn SampleSource>> =
        vec![Box::new(TraceReplay::new(0, "session-replay", trace))];
    let stats = collect(sources, &mut store, |_, _| {});
    assert_eq!(stats.received, n_samples as u64);
    assert_eq!(stats.rejected, 0, "a recorded session is time-ordered");

    assert_eq!(offline.len(), schedule.len());
    for (run, batch_stats) in &offline {
        let window = store.series(0).window(run.start_s, run.end_s);
        let streamed = trimmed_stats(&window, 0.10)
            .unwrap_or_else(|| panic!("empty streamed window for {}", run.label));
        assert_eq!(
            streamed.raw_samples, batch_stats.raw_samples,
            "{}: raw sample count",
            run.label
        );
        assert_eq!(streamed.samples, batch_stats.samples, "{}: trimmed count", run.label);
        assert!(
            (streamed.mean_w - batch_stats.mean_w).abs() < 1e-12,
            "{}: streamed {} W vs batch {} W",
            run.label,
            streamed.mean_w,
            batch_stats.mean_w
        );
    }
}

#[test]
fn replay_with_clock_offset_still_matches_its_own_offline_analysis() {
    // An unsynchronized meter shifts every timestamp by the same
    // offset; both paths must agree with each other even though both
    // are wrong about the true windows (the paper's reason for the
    // sync step).
    let spec = presets::opteron_8347();
    let schedule = vec![("ep.B.4".to_string(), Ep::new(Class::B).signature(), 4u32)];
    let session = run_session(&spec, &schedule, 5, 2.5);
    let offline = session.analyze().expect("offline analysis succeeds");

    let trace = PowerTrace::from_csv(&session.csv).expect("CSV parses");
    let capacity = trace.len().max(1);
    let mut store = SeriesStore::new(["opteron"], capacity, 1.0);
    collect(
        vec![Box::new(TraceReplay::new(0, "offset-replay", trace)) as Box<dyn SampleSource>],
        &mut store,
        |_, _| {},
    );
    for (run, batch_stats) in &offline {
        let streamed =
            trimmed_stats(&store.series(0).window(run.start_s, run.end_s), 0.10).unwrap();
        assert_eq!(streamed.samples, batch_stats.samples);
        assert!((streamed.mean_w - batch_stats.mean_w).abs() < 1e-12);
    }
}
