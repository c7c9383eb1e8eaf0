//! The HPC-oriented power evaluation method (the paper's contribution).
//!
//! Everything below runs on *simulated servers*: real benchmark
//! algorithms provide resource signatures, the machine crate turns them
//! into performance estimates, the power crate into metered wall power
//! (DESIGN.md §2 documents every substitution).
//!
//! * [`server`] — [`server::SimulatedServer`]: one paper server with its
//!   roofline model, power model and WT210 meter; produces
//!   [`server::Measurement`]s through the full §V-C2 pipeline.
//! * [`evaluation`] — the five-state HPL+EP method (§V-C): idle, EP.C at
//!   1/half/full cores, HPL at half/full memory × 1/half/full cores;
//!   PPW tables (Tables IV–VI) and the system score.
//! * [`rankings`] — the three-way comparison of §V-C3: our method vs the
//!   Green500 (peak-HPL PPW) vs SPECpower (ssj_ops/W).
//! * [`motivation`] — the §IV study: power of SSJ/HPL/NPB-C across
//!   process counts on each server (Figs 3–4, Table II).
//! * [`hpl_analysis`] — the §V-A parameter sweeps: Ns, NBs, P×Q
//!   (Figs 5–7).
//! * [`npb_analysis`] — the §V-B scale study: NPB A/B/C memory and power
//!   (Figs 8–9) and the EP power/PPW/energy profile (Figs 10–11).
//! * [`ssj_experiment`] — the §IV-A series behind Figs 1–2.
//! * [`regression_experiment`] — the §VI power model: HPCC-trained
//!   forward-stepwise regression (Tables VII–VIII) validated on NPB
//!   classes B and C (Figs 12–13).
//! * [`trace_experiment`] — the trace-driven variant: instrumented
//!   kernels captured as full address traces, replayed through the
//!   simulated cache hierarchy, and the measured locality profiles fed
//!   back into the same train/validate pipeline.
//! * [`jobs`] — job-shaped wrappers around the evaluation entry points:
//!   the five-state method as a resumable, checkpointable state machine
//!   plus one-shot wrappers, consumed by the `hpceval-fleet`
//!   orchestrator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augmented_training;
pub mod cluster;
pub mod energy_analysis;
pub mod evaluation;
pub mod green500_levels;
pub mod hpl_analysis;
pub mod jobs;
pub mod motivation;
pub mod npb_analysis;
pub mod rankings;
pub mod regression_experiment;
pub mod report;
pub mod server;
pub mod session;
pub mod ssj_experiment;
pub mod stability;
pub mod trace_experiment;
pub mod uncertainty;
pub mod whatif;

pub use evaluation::{Evaluator, PpwRow, PpwTable};
pub use rankings::{RankingComparison, ServerScores};
pub use server::{Measurement, SimulatedServer};
