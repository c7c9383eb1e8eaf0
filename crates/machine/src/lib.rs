//! Server hardware models for the HPC power evaluation method.
//!
//! The ICPP 2015 paper evaluates three physical servers (Table I):
//! Xeon-E5462, Opteron-8347 and Xeon-4870. This crate provides the
//! simulated substrate standing in for that hardware:
//!
//! * [`spec`] — machine descriptions ([`ServerSpec`], cache geometry,
//!   memory system) plus microarchitectural efficiency knobs,
//! * [`presets`] — the three servers of Table I, encoded verbatim,
//! * [`topology`] — chips/cores and process placement policies,
//! * [`cache`] — a set-associative, LRU write-back cache hierarchy
//!   simulator that replays captured kernel address traces into hit and
//!   DRAM traffic counts,
//! * [`workload`] — the resource *signature* of a benchmark program
//!   (flops, DRAM traffic, footprint, communication fraction, compute
//!   kind), the interface between the kernel implementations and the
//!   performance/power models,
//! * [`roofline`] — an analytic performance model turning a signature and
//!   a process count into execution time, achieved GFLOPS and per-core
//!   utilization,
//! * [`pmu`] — Performance Monitoring Unit counter synthesis (the paper's
//!   X1..X6 regression indicators).
//!
//! The design contract: kernels in `hpceval-kernels` are *real*
//! implementations whose correctness is testable at any problem size, and
//! whose published class sizes (NPB A/B/C, HPL Ns/NBs/P×Q) determine the
//! signatures fed to this crate's models. Power is then derived from the
//! model outputs by `hpceval-power`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod pmu;
pub mod presets;
pub mod roofline;
pub mod spec;
pub mod topology;
pub mod workload;

pub use cache::{Access, AccessOutcome, CacheHierarchy, CacheSim, HierarchyCounters};
pub use pmu::{PmuCounters, PmuRates};
pub use presets::{all_servers, opteron_8347, xeon_4870, xeon_e5462};
pub use roofline::{ExecEstimate, PerfModel};
pub use spec::{CacheLevel, MemoryKind, ServerSpec};
pub use topology::{Placement, PlacementPlan};
pub use workload::{ComputeKind, LocalityProfile, WorkloadSignature};
