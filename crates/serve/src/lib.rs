//! `alberta-serve`: characterization-as-a-service for the Alberta
//! Workloads pipeline.
//!
//! The characterization pipeline is deterministic end to end: the same
//! benchmark, workload, scale, sampling policy, and machine model
//! always produce byte-identical results, across execution policies and
//! across process boundaries. That property makes characterizations
//! perfectly cacheable and perfectly relocatable — which is what this
//! crate exploits. It provides:
//!
//! * [`spec`] — [`RequestSpec`], the request form whose canonical-JSON
//!   fingerprint (extended with the report schema version and the crate
//!   version) is the content address of a result;
//! * [`cache`] — [`ResultCache`], the sharded on-disk store of
//!   hash-verified [`CacheDocument`](alberta_report::CacheDocument)s,
//!   with atomic writes and corrupt-entry eviction;
//! * [`sched`] — the deterministic virtual-time work-stealing placement
//!   of cache misses over mock hosts;
//! * [`engine`] — [`Engine`], batch resolution: cache pass, placement,
//!   per-host execution through
//!   [`Suite::characterize_tasks_labeled`](alberta_core::Suite::characterize_tasks_labeled),
//!   and canonical-order reassembly, under a batch lock that is the one
//!   single-flight; its [`MetricsRegistry`] is the one record of what
//!   it did;
//! * [`wire`] — the line-delimited versioned message protocol;
//! * [`daemon`] / [`client`] — the TCP daemon and its blocking client.
//!
//! The headline invariant: a response's bytes depend only on the
//! request spec — not on which host computed it, whether the cache
//! answered, how requests interleaved on the wire, or how often the
//! host pool had to redispatch crashed workers.

pub mod cache;
pub mod client;
pub mod daemon;
pub mod engine;
pub mod sched;
pub mod spec;
pub mod wire;

pub use cache::ResultCache;
pub use client::{Client, ClientError, Response};
pub use daemon::Daemon;
pub use engine::{
    host_counters, BatchRequest, Engine, ResolvedRequest, ResponseCounts, ServeConfig,
};
pub use sched::{place, Placement, TaskPlacement};
pub use spec::{RequestSpec, CODE_VERSION};
pub use wire::{ClientMsg, GroupInfo, ServerMsg, WIRE_VERSION};

// The serving layer's telemetry vocabulary, re-exported so daemon
// embedders and test harnesses need not depend on alberta-core
// directly.
pub use alberta_core::telemetry::{request_label, MetricsRegistry, Plane, SpanEvent, SpanLog};
pub use alberta_report::{render_service_timeline, MetricsDocument};
