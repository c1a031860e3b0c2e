//! The per-benchmark characterization pipeline (Section V of the paper).
//!
//! For every workload of a benchmark: run it under a fresh [`Profiler`],
//! derive the Top-Down ratios through the machine model, and collect the
//! method-coverage row. Then summarize with the paper's geometric
//! statistics into the Table II quantities `μg`, `σg`, `μg(V)`, `μg(M)`.

use crate::sampling::{
    detail_config, pilot_config, PhaseSampling, SamplePlan, SamplingPolicy, SamplingStats,
};
use alberta_benchmarks::{run_guarded, BenchError, Benchmark, RunOutput};
use alberta_profile::{PathTable, Profile, Profiler, SampleConfig};
use alberta_stats::variation::TopDownRatios;
use alberta_stats::{CoverageMatrix, CoverageSummary, TopDownSummary};
use alberta_uarch::{TopDownModel, TopDownReport};
use alberta_workloads::Scale;
use std::collections::BTreeMap;

/// One workload's measured behaviour.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// Top-Down analysis of the run.
    pub report: TopDownReport,
    /// Method coverage (percent of attributed work per function).
    pub coverage: BTreeMap<String, f64>,
    /// Name-resolved call-tree paths with exact exclusive/inclusive
    /// work — the flamegraph/hot-path view of the run.
    pub paths: PathTable,
    /// The benchmark's own work metric.
    pub work: u64,
    /// Semantic output checksum.
    pub checksum: u64,
    /// Phase-sampling accounting when the run was measured under
    /// [`SamplingPolicy::Phase`]; `None` for fully measured runs.
    pub sampling: Option<SamplingStats>,
}

/// A benchmark characterized across all of its workloads — one Table II
/// row plus the underlying per-workload data (Figures 1 and 2).
#[derive(Debug, Clone)]
pub struct Characterization {
    /// SPEC-style id, e.g. `505.mcf_r`.
    pub spec_id: String,
    /// Short name, e.g. `mcf`.
    pub short_name: String,
    /// Per-workload runs, in workload order (train, refrate, alberta.*).
    pub runs: Vec<WorkloadRun>,
    /// Eq. (1)–(4) summary over the Top-Down ratios.
    pub topdown: TopDownSummary,
    /// Eq. (5) summary over method coverage.
    pub coverage: CoverageSummary,
    /// Modelled cycles of the refrate workload (the paper's "refrate
    /// time" column, with modelled cycles standing in for seconds).
    /// `None` when the refrate run did not survive — the resilient
    /// pipeline summarizes over the remaining workloads, but there is no
    /// refrate time to report and tables render a `—` instead of a
    /// fabricated zero.
    pub refrate_cycles: Option<f64>,
}

impl Characterization {
    /// Number of workloads characterized.
    pub fn workload_count(&self) -> usize {
        self.runs.len()
    }

    /// The run for a named workload, if present.
    pub fn run(&self, workload: &str) -> Option<&WorkloadRun> {
        self.runs.iter().find(|r| r.workload == workload)
    }
}

/// The fate of one workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The run completed and its profile validated.
    Ok,
    /// The original run failed, but a retry on a fresh benchmark at
    /// `retried_at` scale succeeded; the retry's numbers entered the
    /// summaries. The original error is preserved.
    Degraded {
        /// Why the original run failed.
        error: BenchError,
        /// The scale the successful retry ran at.
        retried_at: Scale,
    },
    /// The run failed and was not (or could not be) salvaged; it
    /// contributes nothing to the summaries.
    Failed {
        /// Why.
        error: BenchError,
    },
}

impl RunStatus {
    /// True only for [`RunStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Ok)
    }

    /// True for runs whose data entered the summaries (`Ok` or
    /// `Degraded`).
    pub fn survived(&self) -> bool {
        !matches!(self, RunStatus::Failed { .. })
    }

    /// The error carried by a non-`Ok` status.
    pub fn error(&self) -> Option<&BenchError> {
        match self {
            RunStatus::Ok => None,
            RunStatus::Degraded { error, .. } | RunStatus::Failed { error } => Some(error),
        }
    }
}

/// One workload's fate in a resilient characterization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// What happened.
    pub status: RunStatus,
}

/// A benchmark characterized with per-run fault tolerance: every workload
/// gets a [`RunReport`], and the summary statistics are computed over the
/// surviving runs only.
#[derive(Debug, Clone)]
pub struct ResilientCharacterization {
    /// SPEC-style id, e.g. `505.mcf_r`.
    pub spec_id: String,
    /// Short name, e.g. `mcf`.
    pub short_name: String,
    /// One report per attempted workload, in workload order.
    pub statuses: Vec<RunReport>,
    /// The summary over surviving runs; `None` when every run failed.
    pub characterization: Option<Characterization>,
}

impl ResilientCharacterization {
    /// Workloads attempted (`m` in a report's `n of m` annotation).
    pub fn attempted(&self) -> usize {
        self.statuses.len()
    }

    /// Workloads whose data entered the summaries (`n`).
    pub fn survived(&self) -> usize {
        self.statuses.iter().filter(|r| r.status.survived()).count()
    }

    /// True when every attempted run survived intact.
    pub fn is_complete(&self) -> bool {
        self.statuses.iter().all(|r| r.status.is_ok())
    }

    /// The reports for runs that did not come back `Ok`.
    pub fn incidents(&self) -> impl Iterator<Item = &RunReport> {
        self.statuses.iter().filter(|r| !r.status.is_ok())
    }
}

/// Runs one workload under the panic guard and validates the resulting
/// profile — the single-run unit every characterization is built from.
/// A sweep adds the fault plan and one retry of retryable failures on
/// top of it.
///
/// # Errors
///
/// Everything [`run_guarded`] returns, plus
/// [`BenchError::InvalidProfile`] when the finished profile fails
/// [`alberta_profile::Profile::validate`].
pub fn run_workload(
    benchmark: &dyn Benchmark,
    workload: &str,
    model: &TopDownModel,
    sampling: SampleConfig,
) -> Result<WorkloadRun, BenchError> {
    let (profile, output) = profiled_run(benchmark, workload, Profiler::new(sampling))?;
    let report = model.analyze(&profile);
    let coverage = profile.coverage_percent();
    let paths = profile.path_table();
    Ok(WorkloadRun {
        workload: workload.to_owned(),
        report,
        coverage,
        paths,
        work: output.work,
        checksum: output.checksum,
        sampling: None,
    })
}

/// [`run_workload`] under an explicit [`SamplingPolicy`] — the single-run
/// unit every characterization entry point funnels through.
///
/// # Errors
///
/// Everything [`run_workload`] returns; under [`SamplingPolicy::Phase`]
/// both the pilot and the detail pass are guarded and validated, so a
/// failure in either surfaces as the same typed errors.
pub fn run_workload_with(
    benchmark: &dyn Benchmark,
    workload: &str,
    model: &TopDownModel,
    sampling: SampleConfig,
    policy: &SamplingPolicy,
) -> Result<WorkloadRun, BenchError> {
    match policy {
        SamplingPolicy::Full => run_workload(benchmark, workload, model, sampling),
        SamplingPolicy::Phase(config) => {
            run_workload_sampled(benchmark, workload, model, sampling, config)
        }
    }
}

/// One guarded, validated profiler run of a workload.
fn profiled_run(
    benchmark: &dyn Benchmark,
    workload: &str,
    mut profiler: Profiler,
) -> Result<(Profile, RunOutput), BenchError> {
    let output = run_guarded(benchmark, workload, &mut profiler)?;
    let profile = profiler.finish();
    profile
        .validate()
        .map_err(|violation| BenchError::InvalidProfile {
            benchmark: benchmark.name(),
            workload: workload.to_owned(),
            violation,
        })?;
    Ok((profile, output))
}

/// The phase-sampled measurement of one workload: pilot pass (counters +
/// interval snapshots, tracing off), k-medoids clustering of the interval
/// feature vectors, then a detail pass capturing the trace only inside
/// the medoid windows, extrapolated to the whole run.
///
/// Runs too small to slice into more than `k` intervals fall back to full
/// measurement and record the fallback in their [`SamplingStats`].
fn run_workload_sampled(
    benchmark: &dyn Benchmark,
    workload: &str,
    model: &TopDownModel,
    sampling: SampleConfig,
    config: &PhaseSampling,
) -> Result<WorkloadRun, BenchError> {
    let (pilot, output) = profiled_run(
        benchmark,
        workload,
        Profiler::new(pilot_config(sampling, config)),
    )?;
    let Some(plan) = SamplePlan::from_pilot(&pilot, model, config) else {
        // Too few intervals to sample: measure in full, keep the books.
        let mut run = run_workload(benchmark, workload, model, sampling)?;
        run.sampling = Some(SamplingStats::full(
            config.interval_work,
            pilot.intervals.len(),
            pilot.totals.retired_ops,
        ));
        return Ok(run);
    };
    // The detail pass subsamples its windows at the retention stride a
    // full run's (possibly decimated) trace would have — replayed rates
    // are density-dependent — and sizes the trace so window capture can
    // never decimate: decimation would retroactively rewrite the
    // recorded trace-index ranges.
    let (config_detail, stride) = detail_config(sampling, &plan, &pilot);
    let (detail, _) = profiled_run(
        benchmark,
        workload,
        Profiler::with_detail_windows(config_detail, &plan.windows, stride),
    )?;
    debug_assert_eq!(detail.trace.decimations(), 0, "capacity sized to windows");
    let mut report = model.estimate(&detail, &plan.medoid_windows(&detail));
    // Footprint counts distinct lines/pages over the *whole* run, and the
    // tracking hooks sit before every sampling gate, so like coverage and
    // call paths it is exact at counter cost — take it from the pilot,
    // the pass that owns the run-wide exact figures.
    report.memory.footprint_lines = pilot.footprint.lines;
    report.memory.footprint_pages = pilot.footprint.pages;
    let coverage = plan.estimate_coverage(&pilot);
    let stats = SamplingStats {
        interval_work: config.interval_work,
        intervals: pilot.intervals.len(),
        clusters: plan.clustering.k(),
        detailed_ops: plan.detailed_ops(),
        total_ops: pilot.totals.retired_ops,
    };
    Ok(WorkloadRun {
        workload: workload.to_owned(),
        report,
        coverage,
        // The call-tree view stays exact: the pilot measures it at
        // counter cost, like coverage's raw inputs.
        paths: pilot.path_table(),
        work: output.work,
        checksum: output.checksum,
        sampling: Some(stats),
    })
}

/// Summarizes a set of (surviving) runs into a [`Characterization`] —
/// what every suite sweep applies per benchmark, and the entry the
/// characterization service uses to rebuild a benchmark summary from
/// individually executed (or cached) workload runs. Returns `None`
/// when `runs` is empty — there is nothing to summarize.
///
/// Summarization is a pure function of the runs, so a summary rebuilt
/// from runs that crossed a wire or a cache is bit-identical to one
/// computed in-process, provided the runs round-tripped losslessly.
pub fn summarize_runs(
    spec_id: &str,
    short_name: &str,
    runs: Vec<WorkloadRun>,
) -> Option<Characterization> {
    if runs.is_empty() {
        return None;
    }
    let mut matrix = CoverageMatrix::new();
    let mut ratios: Vec<TopDownRatios> = Vec::new();
    let mut refrate_cycles = None;
    for run in &runs {
        matrix
            .push_workload(
                &run.workload,
                run.coverage.iter().map(|(k, v)| (k.clone(), *v)),
            )
            .expect("coverage percentages are finite");
        ratios.push(run.report.ratios);
        if run.workload == "refrate" {
            refrate_cycles = Some(run.report.cycles);
        }
    }
    let topdown = TopDownSummary::from_runs(&ratios).expect("at least one run");
    let coverage = CoverageSummary::from_matrix(&matrix).expect("at least one run");
    Some(Characterization {
        spec_id: spec_id.to_owned(),
        short_name: short_name.to_owned(),
        runs,
        topdown,
        coverage,
        refrate_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecPolicy, Suite};
    use alberta_workloads::Scale;

    fn characterize_under(exec: ExecPolicy, short: &str) -> Characterization {
        let (result, _) = Suite::new(Scale::Test)
            .with_exec(exec)
            .characterize_resilient_metered(short)
            .unwrap();
        assert!(result.is_complete(), "{:?}", result.statuses);
        result.characterization.expect("every run survived")
    }

    fn characterize(short: &str) -> Characterization {
        characterize_under(ExecPolicy::Serial, short)
    }

    #[test]
    fn coverage_rows_sum_to_hundred_percent() {
        let c = characterize("omnetpp");
        for run in &c.runs {
            let sum: f64 = run.coverage.values().sum();
            assert!((sum - 100.0).abs() < 1e-6, "{}: {sum}", run.workload);
        }
    }

    #[test]
    fn workload_counts_match_benchmark_sets() {
        let c = characterize("leela");
        assert_eq!(c.workload_count(), 2 + 9, "train + refrate + 9 alberta");
        assert!(c.run("train").is_some());
        assert!(c.run("refrate").is_some());
        assert!(c.run("alberta.0").is_some());
        assert!(c.run("bogus").is_none());
    }

    #[test]
    fn characterization_is_deterministic() {
        let a = characterize("xz");
        let b = characterize("xz");
        assert_eq!(a.topdown.mu_g_v.to_bits(), b.topdown.mu_g_v.to_bits());
        assert_eq!(a.coverage.mu_g_m.to_bits(), b.coverage.mu_g_m.to_bits());
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.checksum, rb.checksum);
        }
    }

    #[test]
    fn refrate_cycles_recorded() {
        let c = characterize("deepsjeng");
        let cycles = c.refrate_cycles.expect("refrate run survived");
        assert!(cycles > 0.0);
        let refrate = c.run("refrate").unwrap();
        assert!((refrate.report.cycles - cycles).abs() < 1e-9);
    }

    #[test]
    fn refrate_cycles_absent_when_refrate_missing() {
        // Regression: a summary over runs that lost refrate used to
        // record 0.0 silently; it must be None.
        let c = characterize("deepsjeng");
        let without_refrate: Vec<WorkloadRun> = c
            .runs
            .iter()
            .filter(|r| r.workload != "refrate")
            .cloned()
            .collect();
        let partial =
            summarize_runs(&c.spec_id, &c.short_name, without_refrate).expect("other runs survive");
        assert_eq!(partial.refrate_cycles, None);
    }

    #[test]
    fn parallel_characterization_matches_serial() {
        let serial = characterize("xz");
        let parallel = characterize_under(ExecPolicy::with_jobs(4), "xz");
        assert_eq!(
            serial.topdown.mu_g_v.to_bits(),
            parallel.topdown.mu_g_v.to_bits()
        );
        assert_eq!(
            serial.coverage.mu_g_m.to_bits(),
            parallel.coverage.mu_g_m.to_bits()
        );
        for (rs, rp) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(rs.workload, rp.workload);
            assert_eq!(rs.checksum, rp.checksum);
            assert_eq!(rs.report.cycles.to_bits(), rp.report.cycles.to_bits());
        }
    }
}
