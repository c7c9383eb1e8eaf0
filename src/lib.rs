//! # hpceval — HPC-Oriented Power Evaluation Method
//!
//! Façade crate re-exporting the whole workspace: a reproduction of the
//! ICPP 2015 paper *HPC-Oriented Power Evaluation Method* (Zhang & Chen).
//!
//! * [`machine`] — simulated servers (Table I presets), caches, roofline
//!   performance model, PMU counter synthesis.
//! * [`kernels`] — Rust implementations of HPL, the eight NAS Parallel
//!   Benchmarks and the seven HPCC programs.
//! * [`power`] — ground-truth power model, WT210 meter simulation and the
//!   paper's trace-analysis pipeline.
//! * [`trace`] — address-trace capture hooks and trace-driven
//!   cache replay (the measured-locality path into the regression).
//! * [`specpower`] — a SPECpower_ssj2008-like graduated-load workload.
//! * [`regression`] — forward-stepwise multiple linear regression.
//! * [`core`] — the paper's contribution: the HPL+EP five-state power
//!   evaluation method and the HPCC-trained power regression model.
//! * [`telemetry`] — the streaming extension: a deterministic merge of
//!   multi-server samples, ring-buffer storage, window statistics and
//!   online (RLS) model training with drift/anomaly detection.
//! * [`fleet`] — fault-tolerant orchestration: a daemon with a
//!   write-ahead-logged job queue, per-state checkpointing, fault
//!   injection with retry/backoff, and a TCP wire protocol + client.
//! * [`tune`] — the DVFS-aware autotuner: deterministic sweep planning
//!   over frequency state × core count × kernel, energy-delay Pareto
//!   frontier analysis, and the `BENCH_tune.json` drift gate.
//!
//! ## Quickstart
//!
//! ```
//! use hpceval::core::evaluation::Evaluator;
//! use hpceval::machine::presets;
//!
//! let server = presets::xeon_e5462();
//! let table = Evaluator::new(server).run();
//! println!("{}", table.render());
//! assert!(table.final_score() > 0.0);
//! ```

pub use hpceval_core as core;
pub use hpceval_fleet as fleet;
pub use hpceval_kernels as kernels;
pub use hpceval_machine as machine;
pub use hpceval_power as power;
pub use hpceval_regression as regression;
pub use hpceval_specpower as specpower;
pub use hpceval_telemetry as telemetry;
pub use hpceval_trace as trace;
pub use hpceval_tune as tune;
