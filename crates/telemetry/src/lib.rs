//! `hpceval-telemetry` — streaming power monitoring with online model
//! training.
//!
//! The paper's §V-C2 pipeline is batch: the WT210 logs 1 Hz CSV files,
//! and windows are trimmed and averaged after the session ends; the §VI
//! power model is fit offline on ~6000 collected observations. This
//! crate runs the same method *continuously*:
//!
//! * [`source`] — where streams come from: [`source::SampleSource`] is
//!   implemented by [`source::TraceReplay`] (a recorded `PowerTrace` /
//!   WTViewer CSV played back) and [`source::LiveServer`] (the log
//!   `run_session` records for a program schedule, plus PMU counter
//!   deltas, with optional dropout and clock-step fault injection).
//! * [`collector`] — a single-threaded merge of every source in
//!   timestamp order (ties to the lower source index), so a run is
//!   deterministic.
//! * [`ring`] — fixed-capacity ring-buffer series per server with
//!   monotonic-time enforcement: clock skew is rejected and counted,
//!   cadence gaps are flagged as dropouts, appends are O(1); window
//!   statistics (mean, the paper's trim-10 % mean, min/max/p95) are
//!   computed from a series' tail when reported.
//! * [`rls`] — recursive least squares over the six PMU predictors
//!   X1–X6, converging to the batch OLS fit of
//!   `hpceval_regression::ols` on the same data.
//! * [`drift`] — residual/baseline anomaly detection: power spikes,
//!   meter dropouts, clock skew, and model drift become
//!   [`drift::TelemetryEvent`]s instead of silently averaged samples.
//! * [`monitor`] — the assembled end-to-end monitor behind
//!   `hpceval monitor`.

pub mod collector;
pub mod drift;
pub mod monitor;
pub mod ring;
pub mod rls;
pub mod source;

pub use collector::{collect, CollectorStats, Ingest};
pub use drift::{DriftDetector, TelemetryEvent};
pub use monitor::{Monitor, MonitorReport};
pub use ring::{AppendOutcome, RingBuffer, SeriesStats, SeriesStore, ServerSeries, WindowSummary};
pub use rls::Rls;
pub use source::{LiveServer, SampleSource, TelemetrySample, TraceReplay};
