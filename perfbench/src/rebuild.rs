//! Traced building blocks of the rebuilt pipeline: one instrumented run
//! under the profiler, and the replay kernels timed on a profile's own
//! columns. Every call into a layer is wrapped in a span named after
//! the layer.

use crate::trace::Tracer;
use alberta_benchmarks::{run_guarded, Benchmark, RunOutput};
use alberta_profile::{Profile, Profiler, SampleConfig};
use alberta_uarch::topdown::{mpki_sweep_config, MPKI_SWEEP_SIZES};
use alberta_uarch::{Cache, MemoryHierarchy, TopDownModel};
use std::hint::black_box;

/// Work counted at the layer boundaries of the traced rebuild.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Retired ops of fully measured runs.
    pub retired_ops: u64,
    /// Events offered to the trace (branches, loads, stores, calls and
    /// returns) by fully measured runs.
    pub events_offered: u64,
    /// Events the trace kept.
    pub events_kept: u64,
    /// Trace decimations.
    pub decimations: u64,
    /// Branch events replayed.
    pub branches: u64,
    /// Load/store events replayed.
    pub mem_accesses: u64,
    /// Call events replayed.
    pub calls: u64,
    /// Sampled runs that fell back to full measurement.
    pub fallback_runs: u64,
    /// Retired ops of sampled runs.
    pub sampled_total_ops: u64,
    /// Retired ops those runs measured in detail.
    pub sampled_detailed_ops: u64,
    /// Bytes of run documents through the worker-pipe codec.
    pub codec_bytes: u64,
}

impl Tally {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.retired_ops += other.retired_ops;
        self.events_offered += other.events_offered;
        self.events_kept += other.events_kept;
        self.decimations += other.decimations;
        self.branches += other.branches;
        self.mem_accesses += other.mem_accesses;
        self.calls += other.calls;
        self.fallback_runs += other.fallback_runs;
        self.sampled_total_ops += other.sampled_total_ops;
        self.sampled_detailed_ops += other.sampled_detailed_ops;
        self.codec_bytes += other.codec_bytes;
    }

    /// Counts one replayed profile's columns.
    pub fn replayed(&mut self, profile: &Profile) {
        self.branches += profile.chunks.branches() as u64;
        self.mem_accesses += profile.chunks.mem_accesses() as u64;
        self.calls += profile.chunks.calls() as u64;
    }
}

/// The same run with trace capture off: every per-kind interval maxed
/// out, so events are counted but never kept.
fn bare_config() -> SampleConfig {
    SampleConfig {
        branch_interval: u32::MAX,
        mem_interval: u32::MAX,
        call_interval: u32::MAX,
        trace_capacity: 16,
        ..SampleConfig::default()
    }
}

/// One guarded, validated run under `profiler`, untraced.
pub fn profiled_run(
    benchmark: &dyn Benchmark,
    workload: &str,
    mut profiler: Profiler,
) -> Result<(Profile, RunOutput), String> {
    let output = run_guarded(benchmark, workload, &mut profiler)
        .map_err(|e| format!("{}/{workload}: {e}", benchmark.short_name()))?;
    let profile = profiler.finish();
    profile.validate().map_err(|v| {
        format!(
            "{}/{workload}: invalid profile: {v:?}",
            benchmark.short_name()
        )
    })?;
    Ok((profile, output))
}

/// One fully measured run: `profile.exec` around the instrumented run,
/// `profile.finish` around trace transposition, then the same run with
/// capture off under `profile.bare` so capture's cost can be taken as
/// the difference.
pub fn traced_capture(
    tracer: &Tracer,
    parent: u64,
    op: u64,
    benchmark: &dyn Benchmark,
    workload: &str,
    tally: &mut Tally,
) -> Result<(Profile, RunOutput), String> {
    let name = || format!("{}/{workload}", benchmark.short_name());
    let mut profiler = Profiler::new(SampleConfig::default());
    let output = tracer
        .span("profile.exec", Some(parent), op, |_| {
            run_guarded(benchmark, workload, &mut profiler)
        })
        .map_err(|e| format!("{}: {e}", name()))?;
    let profile = tracer.span("profile.finish", Some(parent), op, |_| profiler.finish());
    profile
        .validate()
        .map_err(|v| format!("{}: invalid profile: {v:?}", name()))?;
    let mut bare = Profiler::new(bare_config());
    tracer
        .span("profile.bare", Some(parent), op, |_| {
            run_guarded(benchmark, workload, &mut bare)
        })
        .map_err(|e| format!("{} without capture: {e}", name()))?;
    let t = &profile.totals;
    tally.retired_ops += t.retired_ops;
    tally.events_offered += t.branches + t.loads + t.stores + 2 * t.calls;
    tally.events_kept += profile.trace.len() as u64;
    tally.decimations += u64::from(profile.trace.decimations());
    Ok((profile, output))
}

/// The replay kernels `TopDownModel::analyze` drives, each timed alone
/// on the profile's columns with fresh state: the branch predictor, the
/// data hierarchy, and the ten-cache MPKI ladder.
pub fn traced_kernels(
    tracer: &Tracer,
    parent: u64,
    op: u64,
    profile: &Profile,
    model: &TopDownModel,
) {
    let cfg = model.config();
    let columns = profile.chunks.kind_ranges(0, profile.chunks.len());
    tracer.span("uarch.predictor", Some(parent), op, |_| {
        black_box(
            model
                .predictor()
                .build()
                .observe_batch(columns.branch_sites, columns.branch_takens),
        )
    });
    tracer.span("uarch.hierarchy", Some(parent), op, |_| {
        let mut hierarchy =
            MemoryHierarchy::with_configs(cfg.l1d, cfg.l2, cfg.l3, cfg.dtlb_entries, cfg.dram);
        black_box(hierarchy.access_many(columns.mem_addrs).dram_accesses)
    });
    tracer.span("uarch.mpki_ladder", Some(parent), op, |_| {
        for size in MPKI_SWEEP_SIZES {
            black_box(Cache::new(mpki_sweep_config(size)).access_many(columns.mem_addrs));
        }
    });
}
