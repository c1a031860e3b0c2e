//! `alberta-core`: the public facade of the Alberta Workloads
//! reproduction.
//!
//! The paper's contribution is a *resource* — extra workloads and
//! generators for the SPEC CPU 2017 suite — plus a summarization
//! methodology for how much a benchmark's behaviour moves with its
//! workload. This crate ties the reproduction's substrates together:
//!
//! * [`Suite`] — builds the fifteen mini-benchmarks with their train,
//!   refrate, and Alberta workload sets, and runs the characterization
//!   pipeline (instrumented execution → Top-Down model → geometric
//!   summarization);
//! * [`specdata`] — the published numbers from the paper, kept as data
//!   for side-by-side comparison.
//!
//! This crate renders nothing. A sweep becomes a `SuiteReport` in
//! `alberta-report`, whose `view` module builds Tables I–II and
//! Figures 1–2 from it.
//!
//! # Examples
//!
//! ```
//! use alberta_core::Suite;
//! use alberta_workloads::Scale;
//!
//! # fn main() -> Result<(), alberta_core::CoreError> {
//! let suite = Suite::new(Scale::Test);
//! let (xz, _metrics) = suite.characterize_resilient_metered("xz")?;
//! assert!(xz.is_complete(), "every run comes back Ok");
//! let chara = xz.characterization.expect("runs survived");
//! assert!(chara.topdown.mu_g_v >= 1.0);
//! assert!(chara.runs.len() >= 3, "train + refrate + alberta workloads");
//! # Ok(())
//! # }
//! ```

pub mod characterize;
pub mod exec;
pub mod faults;
pub mod json;
pub mod log;
pub mod process;
pub mod protocol;
pub mod sampling;
pub mod specdata;
pub mod suite;
pub mod telemetry;

pub use characterize::{
    summarize_runs, Characterization, ResilientCharacterization, RunReport, RunStatus, WorkloadRun,
};
pub use exec::{ExecPolicy, RunMetrics};
pub use faults::{Fault, FaultKind, FaultPlan};
pub use log::LogLevel;
pub use process::{maybe_worker, ProcessConfig};
pub use sampling::{PhaseSampling, SamplingPolicy, SamplingStats, PHASE_ERROR_BOUND_PCT};
pub use suite::{CoreError, LabeledTask, Suite, TaskRun};
pub use telemetry::{request_label, MetricsRegistry, Plane, SpanEvent, SpanLog};

// Re-export the layers users need to drive the facade.
pub use alberta_benchmarks::{suite as benchmark_suite, BenchError, Benchmark, RunOutput};
pub use alberta_profile::{PathRow, PathTable, Profiler, SampleConfig};
pub use alberta_stats::{CoverageSummary, RatioSummary, TopDownSummary};
pub use alberta_uarch::{
    MachineConfig, MemoryProfile, MpkiPoint, PredictorKind, TopDownModel, TopDownReport,
};
pub use alberta_workloads::Scale;
