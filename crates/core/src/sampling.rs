//! Phase-sampled characterization (SimPoint/PinPoints-style).
//!
//! Full-scale sweeps are dominated by the *detailed* measurement cost:
//! capturing the event trace and replaying it through the
//! microarchitecture models. Phase sampling exploits that programs move
//! through a small number of recurring phases:
//!
//! 1. a **pilot pass** runs the workload with tracing disabled and slices
//!    it into fixed-work intervals, snapshotting exact counter and
//!    per-method work deltas per interval (cheap: counters only);
//! 2. each interval becomes a **feature vector** — the machine-weighted
//!    phase signature from `alberta-uarch` plus hot-method work shares
//!    from the pilot profile;
//! 3. intervals are grouped by seeded deterministic k-medoids from
//!    `alberta-stats`;
//! 4. a **detail pass** re-runs the workload capturing the trace only
//!    inside the medoid intervals' windows, and the Top-Down model
//!    extrapolates each medoid's replayed rates to its whole cluster
//!    using the pilot's exact per-cluster counter sums.
//!
//! Both passes are pure functions of the run inputs, so sampled sweeps
//! keep the repo's serial-vs-parallel byte-identity invariant.

use alberta_profile::{Profile, SampleConfig, Totals, WARM_DILUTION, WARM_MEMORY_DILUTION};
use alberta_stats::{k_medoids, Clustering};
use alberta_uarch::{MedoidWindow, TopDownModel};
use std::collections::BTreeMap;

/// Number of hottest functions whose per-interval work shares enter the
/// clustering feature vector (everything else is folded into one "other"
/// component).
const HOT_METHOD_FEATURES: usize = 8;

/// Committed estimation-error bound for the default [`PhaseSampling`]
/// parameters, calibrated with `sample-eval` on the Test-scale suite:
/// no run's estimated Top-Down fraction may drift more than this many
/// percentage points from full measurement, and no benchmark's μg(M)
/// more than this percent relatively. CI regates this bound on every
/// change.
pub const PHASE_ERROR_BOUND_PCT: f64 = 5.0;

/// Configuration of the phase-sampled pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSampling {
    /// Nominal retired ops per interval. Small runs that fit in `k` or
    /// fewer intervals fall back to full measurement.
    pub interval_work: u64,
    /// Number of phase clusters (medoid intervals re-measured in detail).
    pub k: usize,
    /// Seed for the deterministic k-medoids initialization.
    pub seed: u64,
}

impl Default for PhaseSampling {
    /// Defaults calibrated on the Test-scale suite (see `sample-eval`):
    /// the worst per-run Top-Down fraction error stays under the
    /// documented 5-point bound while the aggregate detailed work drops
    /// more than 3×. Larger intervals push more small runs into the full
    /// fallback; smaller ones shrink the medoid windows until replayed
    /// rates get noisy.
    fn default() -> Self {
        PhaseSampling {
            interval_work: 131_072,
            k: 16,
            seed: 0xA1BE27A,
        }
    }
}

/// How a characterization measures each `(benchmark, workload)` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingPolicy {
    /// Measure every run in full (the paper's baseline pipeline).
    #[default]
    Full,
    /// Phase-sampled estimation from clustered intervals.
    Phase(PhaseSampling),
}

impl SamplingPolicy {
    /// The phase-sampled policy with default parameters.
    pub fn phase() -> Self {
        SamplingPolicy::Phase(PhaseSampling::default())
    }
}

/// Per-run accounting of one phase-sampled measurement, attached to the
/// run it estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingStats {
    /// Nominal interval size in retired ops.
    pub interval_work: u64,
    /// Intervals the pilot pass sliced the run into.
    pub intervals: usize,
    /// Phase clusters actually formed (≤ `k`; equals `intervals` when the
    /// run was too small to sample and fell back to full measurement).
    pub clusters: usize,
    /// Retired ops covered by detailed (traced + replayed) measurement —
    /// the medoid windows.
    pub detailed_ops: u64,
    /// Exact retired ops of the whole run.
    pub total_ops: u64,
}

impl SamplingStats {
    /// Stats describing a run measured in full (fallback).
    pub fn full(interval_work: u64, intervals: usize, total_ops: u64) -> Self {
        SamplingStats {
            interval_work,
            intervals,
            clusters: intervals,
            detailed_ops: total_ops,
            total_ops,
        }
    }
}

/// The phase-sampled estimation plan derived from a pilot profile:
/// cluster assignment plus the medoid windows to re-measure.
#[derive(Debug, Clone)]
pub struct SamplePlan {
    /// Interval clustering over the pilot's snapshots.
    pub clustering: Clustering,
    /// Detail windows (medoid interval retired-op ranges), sorted.
    pub windows: Vec<(u64, u64)>,
    /// Exact counter deltas summed over each cluster's member intervals,
    /// parallel to `windows`.
    pub cluster_totals: Vec<Totals>,
    /// Total attributed (per-function) work per cluster, parallel to
    /// `windows` — the denominator for coverage extrapolation.
    pub cluster_attributed: Vec<u64>,
}

impl SamplePlan {
    /// Builds the plan from a pilot profile, or `None` when the run is
    /// too small to be worth sampling (fewer than `k + 1` intervals).
    pub fn from_pilot(
        profile: &Profile,
        model: &TopDownModel,
        config: &PhaseSampling,
    ) -> Option<Self> {
        let intervals = &profile.intervals;
        if intervals.len() <= config.k.max(1) {
            return None;
        }
        // Hot methods by whole-run attributed work; ties break toward the
        // lower function index, so the feature layout is deterministic.
        let mut by_work: Vec<usize> = (0..profile.fn_work.len()).collect();
        by_work.sort_by_key(|&i| (std::cmp::Reverse(profile.fn_work[i]), i));
        let hot: Vec<usize> = by_work.into_iter().take(HOT_METHOD_FEATURES).collect();

        let features: Vec<Vec<f64>> = intervals
            .iter()
            .map(|iv| {
                let mut f: Vec<f64> = model.phase_signature(&iv.totals).to_vec();
                let attributed: u64 = iv.fn_work.iter().sum();
                let denom = attributed.max(1) as f64;
                let mut covered = 0u64;
                for &h in &hot {
                    let w = iv.fn_work.get(h).copied().unwrap_or(0);
                    covered += w;
                    f.push(w as f64 / denom);
                }
                f.push((attributed - covered) as f64 / denom);
                f
            })
            .collect();
        let clustering = k_medoids(&features, config.k, config.seed).ok()?;

        let mut windows = Vec::with_capacity(clustering.k());
        let mut cluster_totals = vec![Totals::default(); clustering.k()];
        let mut cluster_attributed = vec![0u64; clustering.k()];
        for &m in &clustering.medoids {
            windows.push((intervals[m].start_ops, intervals[m].end_ops));
        }
        for (i, iv) in intervals.iter().enumerate() {
            let c = clustering.assignment[i];
            let t = &mut cluster_totals[c];
            t.retired_ops += iv.totals.retired_ops;
            t.branches += iv.totals.branches;
            t.taken_branches += iv.totals.taken_branches;
            t.loads += iv.totals.loads;
            t.stores += iv.totals.stores;
            t.calls += iv.totals.calls;
            cluster_attributed[c] += iv.fn_work.iter().sum::<u64>();
        }
        Some(SamplePlan {
            clustering,
            windows,
            cluster_totals,
            cluster_attributed,
        })
    }

    /// Retired ops covered by the medoid windows (the detailed share).
    pub fn detailed_ops(&self) -> u64 {
        self.windows.iter().map(|(s, e)| e - s).sum()
    }

    /// The trace capacity a detail pass running under `base` at the given
    /// retention stride needs so its window-gated trace can never
    /// decimate (decimation would invalidate the recorded trace-index
    /// ranges): an upper bound on the events the per-kind intervals offer
    /// inside the windows divided by the stride, plus per-window rounding
    /// slack and one `Return` per in-window call that may land after its
    /// window closes.
    pub(crate) fn detail_trace_capacity(&self, base: &SampleConfig, stride: u64) -> usize {
        let events: u64 = self
            .cluster_totals
            .iter()
            .map(|t| {
                let offered = t.branches / u64::from(base.branch_interval.max(1))
                    + (t.loads + t.stores) / u64::from(base.mem_interval.max(1))
                    + 2 * t.calls / u64::from(base.call_interval.max(1));
                offered / stride.max(1) + 8
            })
            .sum();
        (events + 1024) as usize
    }

    /// Pairs the detail pass's captured windows with the pilot's exact
    /// per-cluster totals for weighted estimation. The detail profile's
    /// windows are sorted by `start_ops`, matching the plan's medoid
    /// order (medoid indices are ascending and intervals time-ordered).
    pub fn medoid_windows(&self, detail: &Profile) -> Vec<MedoidWindow> {
        detail
            .windows
            .iter()
            .zip(&self.cluster_totals)
            .map(|(w, &cluster_totals)| MedoidWindow {
                cluster_totals,
                trace_range: (w.trace_start, w.trace_end),
            })
            .collect()
    }

    /// Extrapolates whole-run method coverage: each cluster's medoid
    /// work-share vector is applied to the cluster's exact attributed
    /// work total. Returns percentages over all registered functions
    /// (zero-work functions included at 0%), summing to 100 when any
    /// work was attributed.
    pub fn estimate_coverage(&self, pilot: &Profile) -> BTreeMap<String, f64> {
        let n = pilot.functions.len();
        let mut est = vec![0.0f64; n];
        for (c, &m) in self.clustering.medoids.iter().enumerate() {
            let medoid = &pilot.intervals[m];
            let medoid_work: u64 = medoid.fn_work.iter().sum();
            if medoid_work == 0 {
                continue;
            }
            let scale = self.cluster_attributed[c] as f64 / medoid_work as f64;
            for (i, &w) in medoid.fn_work.iter().enumerate() {
                est[i] += w as f64 * scale;
            }
        }
        let total: f64 = est.iter().sum();
        pilot
            .functions
            .iter()
            .zip(&est)
            .map(|(meta, &w)| {
                let pct = if total <= 0.0 { 0.0 } else { w / total * 100.0 };
                (meta.name.clone(), pct)
            })
            .collect()
    }
}

/// The pilot pass's profiler configuration: the caller's resilience knobs
/// with tracing effectively disabled (per-kind intervals maxed out) and
/// interval slicing on.
pub fn pilot_config(base: SampleConfig, config: &PhaseSampling) -> SampleConfig {
    SampleConfig {
        branch_interval: u32::MAX,
        mem_interval: u32::MAX,
        call_interval: u32::MAX,
        trace_capacity: 16,
        interval_work: Some(config.interval_work.max(1)),
        ..base
    }
}

/// Predicts the decimation weight a *full* run under `base` would end
/// with: [`EventTrace`](alberta_profile::EventTrace) halves itself each
/// time it fills, so a full run's replay sees roughly every `weight`-th
/// offered event. A detail pass must subsample its windows at the same
/// density — replayed mispredict and miss rates depend on stream
/// density, and an estimate replayed dense against a baseline replayed
/// sparse would be biased, not just noisy.
pub(crate) fn full_trace_weight(base: &SampleConfig, totals: &Totals) -> u64 {
    let offered = totals.branches / u64::from(base.branch_interval.max(1))
        + (totals.loads + totals.stores) / u64::from(base.mem_interval.max(1))
        + 2 * totals.calls / u64::from(base.call_interval.max(1));
    let capacity = (base.trace_capacity as u64).max(2);
    let mut weight = 1u64;
    let mut len = 0u64;
    let mut remaining = offered;
    // Walk the decimation epochs: with the buffer at `len` and retention
    // 1/weight, the next fill consumes (capacity - len) * weight offered
    // events, then the buffer halves and the weight doubles.
    while remaining / weight > capacity - len {
        remaining -= (capacity - len) * weight;
        len = capacity / 2;
        weight *= 2;
    }
    weight
}

/// The detail pass's profiler configuration and retention stride:
/// window-gated capture at the same one-in-`stride` global event
/// retention a full run's decimated trace converges to, sized so the
/// gated trace itself never decimates. The capacity also reserves room
/// for the inter-window warming stream the profiler retains —
/// control events at `stride * WARM_DILUTION`, memory events at the
/// full `stride * WARM_MEMORY_DILUTION` so the cache hierarchy enters
/// every window exactly as warm as a full replay.
pub fn detail_config(
    base: SampleConfig,
    plan: &SamplePlan,
    pilot: &Profile,
) -> (SampleConfig, u64) {
    let stride = full_trace_weight(&base, &pilot.totals);
    let control = pilot.totals.branches / u64::from(base.branch_interval.max(1))
        + 2 * pilot.totals.calls / u64::from(base.call_interval.max(1));
    let mem = (pilot.totals.loads + pilot.totals.stores) / u64::from(base.mem_interval.max(1));
    let warming = (control / (stride * WARM_DILUTION)
        + mem / (stride * WARM_MEMORY_DILUTION)
        + 1024) as usize;
    let detail = SampleConfig {
        interval_work: None,
        trace_capacity: (plan.detail_trace_capacity(&base, stride) + warming)
            .max(base.trace_capacity),
        ..base
    };
    (detail, stride)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_full() {
        assert_eq!(SamplingPolicy::default(), SamplingPolicy::Full);
    }

    #[test]
    fn pilot_config_disables_tracing_and_slices() {
        let base = SampleConfig::default().with_work_budget(999);
        let cfg = pilot_config(base, &PhaseSampling::default());
        assert_eq!(cfg.branch_interval, u32::MAX);
        assert_eq!(cfg.mem_interval, u32::MAX);
        assert_eq!(cfg.call_interval, u32::MAX);
        assert_eq!(cfg.interval_work, Some(131_072));
        assert_eq!(cfg.work_budget, Some(999), "resilience knobs survive");
    }
}
