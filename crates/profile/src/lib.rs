//! Instrumentation substrate for the Alberta Workloads reproduction.
//!
//! The paper measures real SPEC binaries with hardware performance counters
//! and `gprof`-style profilers. Our mini-benchmarks are instead *explicitly
//! instrumented*: they call into a [`Profiler`] as they execute —
//! entering/leaving functions, resolving branches, touching memory, and
//! retiring abstract work units. The profiler produces a [`Profile`]:
//!
//! * per-function attributed work, from which *method coverage* (Section
//!   V-C of the paper) is derived, and
//! * a sampled trace of branch/memory/call events that the
//!   `alberta-uarch` crate replays through simulated branch predictors and
//!   caches to produce Intel Top-Down cycle classifications (Section V-B).
//!   The profiler writes each kept event straight into the per-kind
//!   [`EventChunks`] columns replay reads; an [`EventTrace`] decides which
//!   events are kept, and holds no copy of them.
//!
//! Determinism: given the same benchmark and workload, the produced profile
//! is bit-identical, which the test suites rely on.
//!
//! # Examples
//!
//! ```
//! use alberta_profile::{Profiler, SampleConfig};
//!
//! let mut prof = Profiler::new(SampleConfig::default());
//! let main_fn = prof.register_function("main", 512);
//! let kernel = prof.register_function("kernel", 2048);
//!
//! prof.enter(main_fn);
//! prof.retire(10);
//! prof.enter(kernel);
//! for i in 0..100u64 {
//!     prof.branch(0, i % 3 == 0);
//!     prof.load(0x1000 + i * 8);
//!     prof.retire(4);
//! }
//! prof.exit();
//! prof.exit();
//!
//! let profile = prof.finish();
//! assert_eq!(profile.totals.retired_ops, 10 + 100 * (1 + 1 + 4));
//! assert!(profile.coverage_percent()["kernel"] > 90.0);
//! ```

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod calltree;
mod chunks;
mod event;
mod profiler;

pub use calltree::{CallNode, CallTree, PathRow, PathTable};
pub use chunks::{ChunkSlices, EventChunks};
pub use event::{Event, EventTrace};
pub use profiler::{
    BudgetExceeded, DetailWindow, FnId, FnMeta, Footprint, IntervalSnapshot, InvariantViolation,
    Profile, Profiler, ProfilerFault, SampleConfig, Totals, WARM_DILUTION, WARM_MEMORY_DILUTION,
};
