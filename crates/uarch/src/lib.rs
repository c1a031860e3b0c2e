//! Software microarchitecture model: the "hardware performance counter"
//! substrate of the Alberta Workloads reproduction.
//!
//! The paper classifies every pipeline slot of a real Intel Core i7 using
//! Intel's Top-Down methodology (front-end bound, back-end bound, bad
//! speculation, retiring). We have no PMU, so this crate rebuilds the
//! causal chain in software:
//!
//! 1. `predictor` — bimodal, gshare, and tournament branch predictors
//!    that replay the profiled branch stream and yield mispredictions;
//! 2. `cache` — set-associative LRU caches (L1D/L2/shared L3), a D-TLB,
//!    and an open-page DRAM row-buffer model that replay the profiled
//!    address stream and yield miss counts at each level;
//! 3. [`topdown`] — a slot-accounting model that converts those component
//!    outcomes plus exact retired-op counts into the four Top-Down ratios.
//!
//! The model is analytical (no cycle-by-cycle simulation), which keeps a
//! full Table II regeneration — hundreds of benchmark runs — in seconds
//! while preserving what matters for the paper's claims: workload-induced
//! changes in control flow and locality move the ratios.
//!
//! # Examples
//!
//! ```
//! use alberta_profile::{Profiler, SampleConfig};
//! use alberta_uarch::{MachineConfig, PredictorKind, TopDownModel};
//!
//! let mut prof = Profiler::new(SampleConfig::default());
//! let f = prof.register_function("stream", 256);
//! prof.enter(f);
//! for i in 0..10_000u64 {
//!     prof.load(i * 64); // one new cache line per access: worst locality
//!     prof.retire(2);
//! }
//! prof.exit();
//! let profile = prof.finish();
//!
//! let model = TopDownModel::new(MachineConfig::default(), PredictorKind::Gshare { bits: 12 });
//! let report = model.analyze(&profile);
//! let r = report.ratios;
//! assert!(r.back_end > 0.5, "a streaming kernel is back-end bound");
//! ```

// Replay kernels narrow u64 addresses and counters into table indices on
// their hottest paths; every such cast must either be provably lossless
// (masked first) or carry a justified allow. Warn-level is promoted to an
// error by CI's `-D warnings`.
#![warn(clippy::cast_possible_truncation)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod cache;
mod predictor;
pub mod topdown;

pub use cache::{
    Cache, CacheConfig, CacheProblem, CacheStats, DramConfig, DramProblem, DramStats,
    GeometryError, GeometryErrorKind, MemoryBatch, MemoryHierarchy, MemoryOutcome,
};
pub use predictor::{BranchPredictor, PredictorKind};
pub use topdown::{
    mpki_sweep_config, MachineConfig, MedoidWindow, MemoryProfile, MpkiPoint, ReplayState,
    TopDownModel, TopDownReport, MPKI_SWEEP_SIZES,
};
