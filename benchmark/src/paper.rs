//! The `paper` workload: the paper pipeline, pass after pass.
//!
//! One pass is the trace-driven §VI regression on the Xeon-4870
//! (`run_trace_experiment` in full capture mode: capture the twelve
//! instrumented kernels, replay each trace through the cache hierarchy,
//! train and validate), the five-state §V evaluation of the three
//! presets, and the 522-cell DVFS tune sweep reduced to its report.
//! Capture and replay take nearly all of a pass; the kernels run only
//! at capture size. Full mode is pinned because sampled mode loses the
//! R² ordering (IS captures no accesses). The seed drives the
//! regression's sampling and meter noise; the tune sweep stays at its
//! committed seed so its report is checked at zero tolerance every pass.

use std::collections::BTreeMap;
use std::time::Instant;

use hpceval_core::evaluation::Evaluator;
use hpceval_core::regression_experiment::{
    collect_training_with, train, validate_with, RegressionExperiment,
};
use hpceval_core::trace_experiment::{
    analytic_locality, capture_kernel, replay_options, run_trace_experiment, KernelCapture,
    MeasuredLocalities, TraceExperiment,
};
use hpceval_kernels::npb::Class;
use hpceval_machine::presets;
use hpceval_machine::spec::ServerSpec;
use hpceval_trace::{replay, CaptureConfig, Region, TraceMode};
use hpceval_tune::{
    build_report, parse_baseline, plan_sweep, run_cell, CellResult, SweepOptions, TuneCell,
};

use crate::{check_coverage, end_to_end, stats, tracing_overhead, Ctx, Report, Spans};

/// Passes per second of run budget. A pass takes about 0.6 s on the
/// reference host, so a run takes about 2.5 times its budget: 40 passes
/// are the fewest that leave ten beyond a p75, and passes drift more
/// from run to run than the other workloads' operations do.
const PASSES_PER_S: f64 = 4.0;
/// Traced passes when another workload's traced run probes this layer.
const PROBE_PASSES: usize = 2;

/// Observations per training run and the validation seed salts, as
/// `run_trace_experiment` uses them; the traced pass must reproduce it.
const SAMPLES_PER_RUN: usize = 25;
const SALT_B: u64 = 0xb;
const SALT_C: u64 = 0xc;

/// Capture and replay span names, in `Region::ALL` order.
const CAPTURE_SPANS: [&str; 12] = [
    "capture.dgemm",
    "capture.stream",
    "capture.cg",
    "capture.mg",
    "capture.is",
    "capture.randomaccess",
    "capture.ft",
    "capture.hpl",
    "capture.ep",
    "capture.sp",
    "capture.bt",
    "capture.lu",
];
const REPLAY_SPANS: [&str; 12] = [
    "replay.dgemm",
    "replay.stream",
    "replay.cg",
    "replay.mg",
    "replay.is",
    "replay.randomaccess",
    "replay.ft",
    "replay.hpl",
    "replay.ep",
    "replay.sp",
    "replay.bt",
    "replay.lu",
];

/// Stage spans after capture and replay, with their metric names.
const STAGES: [(&str, &str); 6] = [
    ("regression.collect", "regression.collect_ms"),
    ("regression.train", "regression.train_ms"),
    ("regression.validate", "regression.validate_ms"),
    ("evaluate", "evaluate.ms"),
    ("tune.cells", "tune.cells_ms"),
    ("tune.report", "tune.report_ms"),
];

/// The seed the tune sweep runs at, and its committed report, whose
/// metrics every pass must reproduce bitwise.
const TUNE_SEED: u64 = 42;
const BENCH_TUNE: &str = include_str!("../../BENCH_tune.json");

/// The trace-driven R² triple (train, NPB-B, NPB-C) at seed 42.
const R2_SEED42: [f64; 3] = [0.9930120859199376, 0.6580566802871572, 0.6547201341554748];

/// The per-layer metrics this layer reports.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for (capture, replay) in CAPTURE_SPANS.iter().zip(REPLAY_SPANS) {
        m.push((format!("{capture}.ms"), "ms"));
        m.push((format!("{replay}.ms"), "ms"));
    }
    m.push(("capture.events".to_string(), "count"));
    m.push(("replay.accesses".to_string(), "count"));
    m.push(("replay.maccess_per_s".to_string(), "M/s"));
    m.extend(STAGES.iter().map(|&(_, metric)| (metric.to_string(), "ms")));
    m
}

/// What one pass produced; every pass of a run must produce the same.
#[derive(Debug, PartialEq)]
struct PassOut {
    experiment: TraceExperiment,
    scores: Vec<f64>,
    tune: BTreeMap<String, f64>,
}

impl PassOut {
    fn r2(&self) -> [f64; 3] {
        let e = &self.experiment.experiment;
        [e.model.summary().r_square, e.npb_b.r2, e.npb_c.r2]
    }
}

/// The pipeline's fixed inputs.
struct Pipeline {
    spec: ServerSpec,
    servers: Vec<ServerSpec>,
    cells: Vec<TuneCell>,
}

fn full() -> CaptureConfig {
    CaptureConfig { mode: TraceMode::Full, ..CaptureConfig::default() }
}

impl Pipeline {
    fn new() -> Result<Pipeline, String> {
        let cells = plan_sweep(&SweepOptions { seed: TUNE_SEED, ..SweepOptions::default() })?;
        Ok(Pipeline { spec: presets::xeon_4870(), servers: presets::all_servers(), cells })
    }

    fn evaluate(&self) -> Vec<f64> {
        self.servers
            .iter()
            .map(|s| Evaluator::new(s.clone()).run().final_score())
            .collect()
    }

    fn tune_cells(&self) -> Result<Vec<CellResult>, String> {
        self.cells
            .iter()
            .map(|cell| Ok(CellResult { cell: cell.clone(), measure: run_cell(cell)? }))
            .collect()
    }

    /// One pass through the library's own entry points.
    fn pass(&self, seed: u64) -> Result<PassOut, String> {
        let experiment = run_trace_experiment(&self.spec, full(), seed)
            .ok_or("the trace-driven experiment produced no model")?;
        let scores = self.evaluate();
        let tune = build_report(&self.tune_cells()?, TUNE_SEED).metrics;
        Ok(PassOut { experiment, scores, tune })
    }

    /// One pass with a span around every layer call: the experiment is
    /// assembled here from capture, replay, training and validation, the
    /// way `run_trace_experiment` assembles it.
    fn traced_pass(&self, seed: u64, spans: &mut Spans, op: u64) -> Result<PassOut, String> {
        let root = spans.open("paper.pass", None, op);
        let mut captures = Vec::with_capacity(Region::ALL.len());
        for (k, region) in Region::ALL.into_iter().enumerate() {
            let trace = spans
                .time(CAPTURE_SPANS[k], Some(root), op, || capture_kernel(region, full()))
                .ok_or("capture is off")?;
            let counters = spans.time(REPLAY_SPANS[k], Some(root), op, || {
                replay(&trace, &self.spec, replay_options(region))
            });
            let (reads, writes) = trace.access_split();
            captures.push(KernelCapture {
                kernel: region.name().to_string(),
                events: trace.total_events(),
                accesses: trace.total_accesses(),
                reads,
                writes,
                dropped: trace.dropped,
                hit_ratio: counters.hit_ratio(),
                l1_hit_ratio: counters.l1_hit_ratio(),
                locality: counters.locality_profile(&analytic_locality(region)),
            });
        }
        let localities = MeasuredLocalities { captures };
        let lookup = |id: &str| localities.get(id);
        let [collect, train_s, validate, evaluate, cells, report] = STAGES.map(|(span, _)| span);
        let samples = spans.time(collect, Some(root), op, || {
            collect_training_with(&self.spec, SAMPLES_PER_RUN, seed, &lookup)
        });
        let model = spans.time(train_s, Some(root), op, || train(&samples)).ok_or("no model")?;
        let npb_b = spans.time(validate, Some(root), op, || {
            validate_with(&self.spec, Class::B, &model, seed ^ SALT_B, &lookup)
        });
        let npb_c = spans.time(validate, Some(root), op, || {
            validate_with(&self.spec, Class::C, &model, seed ^ SALT_C, &lookup)
        });
        let experiment = TraceExperiment {
            localities,
            experiment: RegressionExperiment { observations: samples.len(), model, npb_b, npb_c },
        };
        let scores = spans.time(evaluate, Some(root), op, || self.evaluate());
        let results = spans.time(cells, Some(root), op, || self.tune_cells())?;
        let tune = spans.time(report, Some(root), op, || build_report(&results, TUNE_SEED).metrics);
        spans.close(root);
        Ok(PassOut { experiment, scores, tune })
    }
}

/// Check the committed results: the tune report at zero tolerance, and
/// the R² triple — bitwise at seed 42, by the paper's ordering (train
/// well above both validation classes) at any other seed.
fn check_reference(out: &PassOut, seed: u64, report: &mut Report) -> Result<(), String> {
    let pinned = parse_baseline(BENCH_TUNE)?;
    let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
    let tune_ok = out.tune.len() == pinned.len()
        && out
            .tune
            .iter()
            .zip(&pinned)
            .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb));
    report.check(tune_ok, "tune report equals BENCH_tune.json at zero tolerance");
    let [train, b, c] = out.r2();
    if seed == 42 {
        let ok = out.r2().iter().zip(&R2_SEED42).all(|(x, y)| same(x, y));
        report.check(ok, &format!("R² triple {train}/{b}/{c} is the pinned seed-42 triple"));
    } else {
        let ok = train > b + 0.05 && train > c + 0.05;
        report.check(ok, &format!("train R² {train} tops NPB-B {b} and NPB-C {c} by 0.05"));
    }
    Ok(())
}

/// The `paper` workload.
pub fn run(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let passes = ctx.work(PASSES_PER_S);
    // The first pass warms caches and the allocator, untimed; every
    // later pass must reproduce it.
    let reference = Pipeline::new()?.pass(ctx.seed)?;
    check_reference(&reference, ctx.seed, report)?;
    let (mut setups, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut reproduced = true;
    let started = Instant::now();
    for p in 0..passes {
        // Every run of the pipeline plans the tune sweep and loads the
        // presets first: that is the set-up, timed once per pass over
        // the whole run.
        let t = Instant::now();
        let pipeline = Pipeline::new()?;
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let out = if ctx.traces(p as u64) {
            let out = pipeline.traced_pass(ctx.seed, &mut ctx.spans, p as u64)?;
            traced.push(t.elapsed().as_nanos() as u64);
            out
        } else {
            let out = pipeline.pass(ctx.seed)?;
            untraced.push(t.elapsed().as_nanos() as u64);
            out
        };
        reproduced &= out == reference;
    }
    let wall_s = started.elapsed().as_secs_f64();
    report.ops(passes as u64, 0);
    report.check(reproduced, "every pass reproduces the first bitwise (traced passes included)");
    if ctx.traced {
        let cover = ctx.spans.coverage("paper.pass");
        layer_report(&reference, &ctx.spans, report);
        tracing_overhead(report, &traced, &untraced, cover);
        check_coverage(report, cover);
    } else {
        end_to_end(report, &setups, &untraced, passes as f64 / wall_s);
    }
    Ok(())
}

/// The paper-pipeline layer metrics for another workload's traced run.
pub fn probe(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let pipeline = Pipeline::new()?;
    let reference = pipeline.pass(ctx.seed)?;
    let mut reproduced = true;
    for p in 0..PROBE_PASSES {
        let out = pipeline.traced_pass(ctx.seed, &mut ctx.spans, (1 << 51) + p as u64)?;
        reproduced &= out == reference;
    }
    report.ops(1 + PROBE_PASSES as u64, 0);
    report.check(reproduced, "traced paper passes reproduce run_trace_experiment bitwise");
    layer_report(&reference, &ctx.spans, report);
    Ok(())
}

/// Median per-pass time of every stage, plus the capture and replay
/// volumes (exact counts) and the replay rate.
fn layer_report(reference: &PassOut, spans: &Spans, report: &mut Report) {
    let ms = |name: &str| stats::median_ns(&spans.per_op_ns(name)) as f64 / 1e6;
    let mut replay_ms = 0.0;
    for (capture, replay) in CAPTURE_SPANS.iter().zip(REPLAY_SPANS) {
        report.metric(format!("{capture}.ms"), ms(capture), "ms");
        let r = ms(replay);
        replay_ms += r;
        report.metric(format!("{replay}.ms"), r, "ms");
    }
    let captures = &reference.experiment.localities.captures;
    let accesses: u64 = captures.iter().map(|c| c.accesses).sum();
    report.metric("capture.events", captures.iter().map(|c| c.events).sum::<u64>() as f64, "count");
    report.metric("replay.accesses", accesses as f64, "count");
    report.metric("replay.maccess_per_s", accesses as f64 / replay_ms / 1e3, "M/s");
    for (span, metric) in STAGES {
        report.metric(metric, ms(span), "ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tables_follow_region_order() {
        for (k, region) in Region::ALL.into_iter().enumerate() {
            assert_eq!(CAPTURE_SPANS[k], format!("capture.{}", region.name()));
            assert_eq!(REPLAY_SPANS[k], format!("replay.{}", region.name()));
        }
    }
}
