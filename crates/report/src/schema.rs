//! The versioned report schema and its (de)serialization.
//!
//! A [`SuiteReport`] is the machine-readable artifact of one full
//! characterization sweep: per `(benchmark, workload)` run it records
//! the run's fate, deterministic accounting from [`RunMetrics`], and
//! the measured behaviour (Top-Down ratios, modelled cycles, method
//! coverage); per benchmark it records the paper's Table II summary
//! statistics.
//!
//! # Determinism contract
//!
//! The canonical serialization is **bit-identical across execution
//! policies**: sweeping a suite serially or under `--jobs N` yields the
//! same bytes. Wall-clock and worker-id telemetry would break that, so
//! those fields are optional and stripped by default
//! ([`SuiteReport::strip_telemetry`]); everything else in the schema
//! depends only on the run's inputs.
//!
//! # Versioning
//!
//! Every document carries `schema_version`. [`SuiteReport::parse`]
//! rejects versions it does not understand with a clear error instead
//! of misparsing — field meanings may change between versions, and a
//! silently misread baseline would gate CI on garbage.

use crate::json::{opt, req, DecodeError, Value};
use crate::ReportError;
use alberta_core::protocol::{
    coverage_value, decode_coverage, decode_memory_profile, memory_profile_value,
};
use alberta_core::{
    Characterization, MemoryProfile, PathTable, ResilientCharacterization, RunMetrics, RunStatus,
};
use alberta_workloads::Scale;
use std::collections::BTreeMap;

/// The schema version this build emits and understands.
///
/// Version history:
/// * 1 — initial schema.
/// * 2 — runs gained a required `memory` section (MPKI per cache level,
///   DRAM row-buffer hit rate, bytes read from DRAM, exact footprint,
///   MPKI-vs-cache-size curve) and modelled `cycles`/`ipc` reflect the
///   L3 + DRAM memory model instead of a flat post-L2 latency.
pub const SCHEMA_VERSION: u64 = 2;

/// One full characterization sweep, serialized.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Schema version of the document ([`SCHEMA_VERSION`] when built by
    /// this crate).
    pub schema_version: u64,
    /// The scale the sweep ran at.
    pub scale: Scale,
    /// Per-benchmark reports, in canonical Table II order.
    pub benchmarks: Vec<BenchmarkReport>,
}

/// One benchmark's sweep: every attempted run plus the summary over the
/// survivors.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkReport {
    /// SPEC-style id, e.g. `505.mcf_r`.
    pub spec_id: String,
    /// Short name, e.g. `mcf`.
    pub short_name: String,
    /// One record per attempted workload, in workload order.
    pub runs: Vec<RunRecord>,
    /// The Table II summary over surviving runs; `None` when every run
    /// failed.
    pub summary: Option<SummaryRecord>,
    /// The benchmark's hottest call paths by exclusive work, merged over
    /// surviving runs — optional observability telemetry embedded in the
    /// `report.json` of `bench-report --trace-dir`
    /// ([`trace_directory`](crate::trace_directory)). Deterministic
    /// (derived from the exact call tree), absent from the canonical
    /// `--out` report, and ignored by the diff layer.
    pub hot_paths: Option<Vec<HotPathRecord>>,
}

impl BenchmarkReport {
    /// Workloads attempted.
    pub fn attempted(&self) -> usize {
        self.runs.len()
    }

    /// Workloads whose data entered the summaries.
    pub fn survived(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.status != StatusKind::Failed)
            .count()
    }

    /// The record for a named workload, if present.
    pub fn run(&self, workload: &str) -> Option<&RunRecord> {
        self.runs.iter().find(|r| r.workload == workload)
    }
}

/// The serialized fate of one run — [`RunStatus`] with the error
/// flattened to text (errors carry `'static` benchmark names and typed
/// payloads that do not survive a parse round-trip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusKind {
    /// The run completed and validated.
    Ok,
    /// The original run failed but a retry salvaged it.
    Degraded,
    /// The run contributed nothing to the summaries.
    Failed,
}

impl StatusKind {
    fn as_str(self) -> &'static str {
        match self {
            StatusKind::Ok => "ok",
            StatusKind::Degraded => "degraded",
            StatusKind::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(StatusKind::Ok),
            "degraded" => Some(StatusKind::Degraded),
            "failed" => Some(StatusKind::Failed),
            _ => None,
        }
    }

    /// Ordering used by the diff layer: a larger rank is a worse fate.
    pub fn rank(self) -> u8 {
        match self {
            StatusKind::Ok => 0,
            StatusKind::Degraded => 1,
            StatusKind::Failed => 2,
        }
    }
}

/// One `(benchmark, workload)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The run's fate.
    pub status: StatusKind,
    /// The error behind a non-`ok` status, rendered to text.
    pub error: Option<String>,
    /// The scale a successful retry ran at (`degraded` runs only).
    pub retried_at: Option<Scale>,
    /// Retry attempts made (deterministic accounting).
    pub retries: u32,
    /// Retired micro-ops consumed (deterministic accounting).
    pub budget_consumed: u64,
    /// Wall-clock nanoseconds — volatile telemetry, absent in canonical
    /// reports.
    pub wall_nanos: Option<u64>,
    /// Wall-clock start in nanoseconds since the sweep began — volatile
    /// telemetry, absent in canonical reports.
    pub start_nanos: Option<u64>,
    /// Executing worker id — volatile telemetry, absent in canonical
    /// reports.
    pub worker: Option<u64>,
    /// Dispatch attempts the process executor made for this run (first
    /// dispatch plus crash/hang redispatches) — scheduling telemetry,
    /// absent in canonical reports so chaos and clean sweeps stay
    /// byte-comparable.
    pub dispatches: Option<u32>,
    /// The measured behaviour; absent for `failed` runs.
    pub measures: Option<MeasureRecord>,
    /// Phase-sampling accounting — present only for runs measured under
    /// a sampled policy. Ignored by the diff layer, so sampled and full
    /// reports stay diff-comparable.
    pub sampling: Option<SamplingRecord>,
}

/// Phase-sampling accounting for one run: how the estimate was built and
/// (optionally) how far it landed from full-measurement ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingRecord {
    /// Nominal retired ops per pilot interval.
    pub interval_work: u64,
    /// Intervals the pilot pass sliced the run into.
    pub intervals: u64,
    /// Phase clusters formed (equals `intervals` on full fallback).
    pub clusters: u64,
    /// Retired ops covered by detailed (traced + replayed) measurement.
    pub detailed_ops: u64,
    /// Exact retired ops of the whole run.
    pub total_ops: u64,
    /// Largest absolute Top-Down fraction error versus a full-measurement
    /// baseline — embedded by [`SuiteReport::embed_estimate_errors`],
    /// absent otherwise.
    pub estimate_error: Option<f64>,
}

impl SamplingRecord {
    /// Detailed-measurement work saved: `total_ops / detailed_ops`.
    pub fn work_saved(&self) -> f64 {
        if self.detailed_ops == 0 {
            1.0
        } else {
            self.total_ops as f64 / self.detailed_ops as f64
        }
    }

    fn from_stats(stats: &alberta_core::SamplingStats) -> Self {
        SamplingRecord {
            interval_work: stats.interval_work,
            intervals: stats.intervals as u64,
            clusters: stats.clusters as u64,
            detailed_ops: stats.detailed_ops,
            total_ops: stats.total_ops,
            estimate_error: None,
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("interval_work".to_owned(), Value::UInt(self.interval_work)),
            ("intervals".to_owned(), Value::UInt(self.intervals)),
            ("clusters".to_owned(), Value::UInt(self.clusters)),
            ("detailed_ops".to_owned(), Value::UInt(self.detailed_ops)),
            ("total_ops".to_owned(), Value::UInt(self.total_ops)),
        ];
        if let Some(error) = self.estimate_error {
            fields.push(("estimate_error".to_owned(), Value::Float(error)));
        }
        Value::Object(fields)
    }

    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(SamplingRecord {
            interval_work: req(value, "interval_work")?,
            intervals: req(value, "intervals")?,
            clusters: req(value, "clusters")?,
            detailed_ops: req(value, "detailed_ops")?,
            total_ops: req(value, "total_ops")?,
            estimate_error: opt(value, "estimate_error")?,
        })
    }
}

/// One hot call path of a benchmark: collapsed-stack notation with the
/// exact counters behind its ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPathRecord {
    /// The call path, rendered `caller;callee;…`.
    pub path: String,
    /// Work retired with this path innermost, summed over surviving
    /// runs.
    pub exclusive: u64,
    /// Times the path was entered, summed over surviving runs.
    pub calls: u64,
}

impl HotPathRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("path".to_owned(), Value::Str(self.path.clone())),
            ("exclusive".to_owned(), Value::UInt(self.exclusive)),
            ("calls".to_owned(), Value::UInt(self.calls)),
        ])
    }

    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(HotPathRecord {
            path: req(value, "path")?,
            exclusive: req(value, "exclusive")?,
            calls: req(value, "calls")?,
        })
    }
}

/// The measured behaviour of one surviving run.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureRecord {
    /// Top-Down slot fractions in Table II order: `[f, b, s, r]`.
    pub ratios: [f64; 4],
    /// Modelled execution cycles.
    pub cycles: f64,
    /// Modelled instructions per cycle.
    pub ipc: f64,
    /// Exact retired micro-ops.
    pub retired_ops: u64,
    /// The benchmark's own work metric.
    pub work: u64,
    /// Semantic output checksum.
    pub checksum: u64,
    /// Method coverage: method name → percent of attributed work.
    pub coverage: BTreeMap<String, f64>,
    /// Memory-hierarchy characterization (schema version 2+).
    pub memory: MemoryProfile,
}

/// `(μg, σg, V)` for one Top-Down category across workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryRecord {
    /// Geometric mean.
    pub geo_mean: f64,
    /// Geometric standard deviation.
    pub geo_std: f64,
    /// Proportional variation `σg/μg`.
    pub variation: f64,
}

/// The Table II summary row for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRecord {
    /// Workloads whose runs entered the summary.
    pub workloads: u64,
    /// Front-end-bound summary.
    pub front_end: CategoryRecord,
    /// Back-end-bound summary.
    pub back_end: CategoryRecord,
    /// Bad-speculation summary.
    pub bad_speculation: CategoryRecord,
    /// Retiring summary.
    pub retiring: CategoryRecord,
    /// Eq. (4): `μg(V)`.
    pub mu_g_v: f64,
    /// Eq. (5): `μg(M)`.
    pub mu_g_m: f64,
    /// Modelled refrate cycles; `None` when the refrate run was lost.
    pub refrate_cycles: Option<f64>,
}

impl SuiteReport {
    /// Assembles a report from already-built benchmark sections — the
    /// entry the characterization service uses to reconstruct a sweep
    /// document from individually computed (or cached) benchmark
    /// reports. The result is indistinguishable from one built by
    /// [`SuiteReport::from_resilient`] over the same runs, provided the
    /// sections were built with [`RunRecord::from_parts`] and
    /// [`SummaryRecord::from_characterization`].
    pub fn from_parts(scale: Scale, benchmarks: Vec<BenchmarkReport>) -> Self {
        SuiteReport {
            schema_version: SCHEMA_VERSION,
            scale,
            benchmarks,
        }
    }

    /// Builds a report from a resilient metered sweep
    /// ([`Suite::characterize_all_resilient_metered`](alberta_core::Suite::characterize_all_resilient_metered)).
    pub fn from_resilient(
        scale: Scale,
        results: &[(ResilientCharacterization, Vec<RunMetrics>)],
    ) -> Self {
        let benchmarks = results
            .iter()
            .map(|(r, metrics)| {
                let runs = r
                    .statuses
                    .iter()
                    .zip(metrics)
                    .map(|(report, m)| {
                        let run = r
                            .characterization
                            .as_ref()
                            .and_then(|c| c.run(&report.workload));
                        let mut record = RunRecord::from_parts(
                            &report.workload,
                            &report.status,
                            m.retries,
                            m.budget_consumed,
                            run,
                        );
                        record.wall_nanos = Some(m.wall_nanos);
                        record.start_nanos = Some(m.start_nanos);
                        record.worker = Some(m.worker as u64);
                        record.dispatches = Some(m.dispatches.max(1));
                        record
                    })
                    .collect();
                BenchmarkReport {
                    spec_id: r.spec_id.clone(),
                    short_name: r.short_name.clone(),
                    runs,
                    summary: r
                        .characterization
                        .as_ref()
                        .map(SummaryRecord::from_characterization),
                    hot_paths: None,
                }
            })
            .collect();
        SuiteReport {
            schema_version: SCHEMA_VERSION,
            scale,
            benchmarks,
        }
    }

    /// Removes the volatile telemetry (wall-clock, worker ids) so the
    /// serialization is bit-identical across execution policies. Called
    /// by default wherever a canonical artifact is produced.
    ///
    /// Embedded hot paths survive stripping: they derive from the exact
    /// call tree, not from the scheduler, so they are identical across
    /// execution policies.
    pub fn strip_telemetry(&mut self) {
        for benchmark in &mut self.benchmarks {
            for run in &mut benchmark.runs {
                run.wall_nanos = None;
                run.start_nanos = None;
                run.worker = None;
                run.dispatches = None;
            }
        }
    }

    /// Embeds per-run estimation errors into the sampling sections by
    /// comparing against a full-measurement baseline of the same sweep:
    /// for each sampled run whose baseline counterpart also survived, the
    /// largest absolute Top-Down fraction difference is recorded. Runs
    /// without a sampling section, or without a matching baseline run,
    /// are left untouched.
    pub fn embed_estimate_errors(&mut self, baseline: &SuiteReport) {
        for benchmark in &mut self.benchmarks {
            let Some(base) = baseline.benchmark(&benchmark.spec_id) else {
                continue;
            };
            for run in &mut benchmark.runs {
                let (Some(sampling), Some(measures)) = (&mut run.sampling, &run.measures) else {
                    continue;
                };
                let Some(truth) = base.run(&run.workload).and_then(|r| r.measures.as_ref()) else {
                    continue;
                };
                let error = measures
                    .ratios
                    .iter()
                    .zip(&truth.ratios)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                sampling.estimate_error = Some(error);
            }
        }
    }

    /// Embeds each benchmark's `top_k` hottest call paths (by exclusive
    /// work, merged across its surviving runs) from the resilient sweep
    /// the report was built from. Benchmarks whose runs all failed get
    /// an empty list — attempted, nothing to show — and benchmarks
    /// absent from `results` are left untouched.
    pub fn embed_hot_paths(
        &mut self,
        results: &[(ResilientCharacterization, Vec<RunMetrics>)],
        top_k: usize,
    ) {
        for benchmark in &mut self.benchmarks {
            let Some((r, _)) = results.iter().find(|(r, _)| r.spec_id == benchmark.spec_id) else {
                continue;
            };
            let mut merged = PathTable::default();
            if let Some(c) = &r.characterization {
                for run in &c.runs {
                    merged.merge(&run.paths);
                }
            }
            benchmark.hot_paths = Some(
                merged
                    .hot_paths(top_k)
                    .into_iter()
                    .map(|row| HotPathRecord {
                        path: row.path.clone(),
                        exclusive: row.exclusive,
                        calls: row.calls,
                    })
                    .collect(),
            );
        }
    }

    /// The report for a benchmark, by short name or SPEC id.
    pub fn benchmark(&self, name: &str) -> Option<&BenchmarkReport> {
        self.benchmarks
            .iter()
            .find(|b| b.short_name == name || b.spec_id == name)
    }

    /// Serializes to the canonical JSON text (pretty, two-space indent,
    /// trailing newline).
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a report document.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] on malformed JSON,
    /// [`ReportError::UnsupportedVersion`] when `schema_version` is not
    /// one this build understands (checked before any other field is
    /// touched), and [`ReportError::Schema`] on structural problems.
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        let value = crate::parse_versioned(text, SCHEMA_VERSION)?;
        Ok(SuiteReport {
            schema_version: SCHEMA_VERSION,
            scale: req(&value, "scale")?,
            benchmarks: req::<&[Value]>(&value, "benchmarks")?
                .iter()
                .map(BenchmarkReport::from_value)
                .collect::<Result<_, _>>()?,
        })
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "schema_version".to_owned(),
                Value::UInt(self.schema_version),
            ),
            (
                "generator".to_owned(),
                Value::Str("alberta-report".to_owned()),
            ),
            ("scale".to_owned(), Value::Str(self.scale.name().to_owned())),
            (
                "benchmarks".to_owned(),
                Value::Array(
                    self.benchmarks
                        .iter()
                        .map(BenchmarkReport::to_value)
                        .collect(),
                ),
            ),
        ])
    }
}

impl BenchmarkReport {
    /// The benchmark section as its canonical JSON object — the exact
    /// value the full report serialization embeds, which is what the
    /// characterization service sends as a benchmark-level response.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("spec_id".to_owned(), Value::Str(self.spec_id.clone())),
            ("short_name".to_owned(), Value::Str(self.short_name.clone())),
            (
                "runs".to_owned(),
                Value::Array(self.runs.iter().map(RunRecord::to_value).collect()),
            ),
        ];
        if let Some(summary) = &self.summary {
            fields.push(("summary".to_owned(), summary.to_value()));
        }
        if let Some(hot_paths) = &self.hot_paths {
            fields.push((
                "hot_paths".to_owned(),
                Value::Array(hot_paths.iter().map(HotPathRecord::to_value).collect()),
            ));
        }
        Value::Object(fields)
    }

    /// Parses a benchmark section from its canonical JSON object — the
    /// inverse of [`BenchmarkReport::to_value`].
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the first structural problem.
    pub fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(BenchmarkReport {
            spec_id: req(value, "spec_id")?,
            short_name: req(value, "short_name")?,
            runs: req::<&[Value]>(value, "runs")?
                .iter()
                .map(RunRecord::from_value)
                .collect::<Result<_, _>>()?,
            summary: value
                .get("summary")
                .map(SummaryRecord::from_value)
                .transpose()?,
            hot_paths: opt::<&[Value]>(value, "hot_paths")?
                .map(|paths| paths.iter().map(HotPathRecord::from_value).collect())
                .transpose()?,
        })
    }
}

impl RunRecord {
    /// Builds the canonical (telemetry-free) record of one run from its
    /// fate, deterministic accounting, and measurements. This is the
    /// same projection [`SuiteReport::from_resilient`] applies per run
    /// before attaching telemetry, so records built here are
    /// byte-identical to a stripped sweep's — the property the
    /// characterization service's cached-vs-computed gate relies on.
    pub fn from_parts(
        workload: &str,
        status: &RunStatus,
        retries: u32,
        budget_consumed: u64,
        run: Option<&alberta_core::WorkloadRun>,
    ) -> Self {
        let (status, error, retried_at) = match status {
            RunStatus::Ok => (StatusKind::Ok, None, None),
            RunStatus::Degraded { error, retried_at } => (
                StatusKind::Degraded,
                Some(error.to_string()),
                Some(*retried_at),
            ),
            RunStatus::Failed { error } => (StatusKind::Failed, Some(error.to_string()), None),
        };
        RunRecord {
            workload: workload.to_owned(),
            status,
            error,
            retried_at,
            retries,
            budget_consumed,
            wall_nanos: None,
            start_nanos: None,
            worker: None,
            dispatches: None,
            measures: run.map(MeasureRecord::from_run),
            sampling: run
                .and_then(|r| r.sampling.as_ref())
                .map(SamplingRecord::from_stats),
        }
    }

    /// The record as its canonical JSON object — the exact value the
    /// full report serialization embeds.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("workload".to_owned(), Value::Str(self.workload.clone())),
            (
                "status".to_owned(),
                Value::Str(self.status.as_str().to_owned()),
            ),
        ];
        if let Some(error) = &self.error {
            fields.push(("error".to_owned(), Value::Str(error.clone())));
        }
        if let Some(scale) = self.retried_at {
            fields.push(("retried_at".to_owned(), Value::Str(scale.name().to_owned())));
        }
        fields.push(("retries".to_owned(), Value::UInt(u64::from(self.retries))));
        fields.push((
            "budget_consumed".to_owned(),
            Value::UInt(self.budget_consumed),
        ));
        if let Some(nanos) = self.wall_nanos {
            fields.push(("wall_nanos".to_owned(), Value::UInt(nanos)));
        }
        if let Some(nanos) = self.start_nanos {
            fields.push(("start_nanos".to_owned(), Value::UInt(nanos)));
        }
        if let Some(worker) = self.worker {
            fields.push(("worker".to_owned(), Value::UInt(worker)));
        }
        if let Some(dispatches) = self.dispatches {
            fields.push(("dispatches".to_owned(), Value::UInt(u64::from(dispatches))));
        }
        if let Some(measures) = &self.measures {
            fields.push(("measures".to_owned(), measures.to_value()));
        }
        if let Some(sampling) = &self.sampling {
            fields.push(("sampling".to_owned(), sampling.to_value()));
        }
        Value::Object(fields)
    }

    /// Parses a record from its canonical JSON object — the inverse of
    /// [`RunRecord::to_value`].
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the first structural problem.
    pub fn from_value(value: &Value) -> Result<Self, DecodeError> {
        let workload: String = req(value, "workload")?;
        let status_text = req(value, "status")?;
        let status = StatusKind::from_str(status_text)
            .ok_or_else(|| format!("run {workload:?}: unknown status {status_text:?}"))?;
        let error: Option<String> = opt(value, "error")?;
        let measures = value
            .get("measures")
            .map(MeasureRecord::from_value)
            .transpose()?;
        if status == StatusKind::Ok && measures.is_none() {
            return Err(format!(
                "run {workload:?}: status is ok but measures are missing"
            ));
        }
        if status != StatusKind::Ok && error.is_none() {
            return Err(format!("run {workload:?}: non-ok status without an error"));
        }
        Ok(RunRecord {
            workload,
            status,
            error,
            retried_at: opt(value, "retried_at")?,
            retries: req(value, "retries")?,
            budget_consumed: req(value, "budget_consumed")?,
            wall_nanos: opt(value, "wall_nanos")?,
            start_nanos: opt(value, "start_nanos")?,
            worker: opt(value, "worker")?,
            dispatches: opt(value, "dispatches")?,
            measures,
            sampling: value
                .get("sampling")
                .map(SamplingRecord::from_value)
                .transpose()?,
        })
    }
}

impl MeasureRecord {
    fn from_run(run: &alberta_core::WorkloadRun) -> Self {
        MeasureRecord {
            ratios: run.report.ratios.as_array(),
            cycles: run.report.cycles,
            ipc: run.report.ipc,
            retired_ops: run.report.retired_ops,
            work: run.work,
            checksum: run.checksum,
            coverage: run.coverage.clone(),
            memory: run.report.memory.clone(),
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("front_end".to_owned(), Value::Float(self.ratios[0])),
            ("back_end".to_owned(), Value::Float(self.ratios[1])),
            ("bad_speculation".to_owned(), Value::Float(self.ratios[2])),
            ("retiring".to_owned(), Value::Float(self.ratios[3])),
            ("cycles".to_owned(), Value::Float(self.cycles)),
            ("ipc".to_owned(), Value::Float(self.ipc)),
            ("retired_ops".to_owned(), Value::UInt(self.retired_ops)),
            ("work".to_owned(), Value::UInt(self.work)),
            ("checksum".to_owned(), Value::UInt(self.checksum)),
            ("coverage".to_owned(), coverage_value(&self.coverage)),
            ("memory".to_owned(), memory_profile_value(&self.memory)),
        ])
    }

    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(MeasureRecord {
            ratios: [
                req(value, "front_end")?,
                req(value, "back_end")?,
                req(value, "bad_speculation")?,
                req(value, "retiring")?,
            ],
            cycles: req(value, "cycles")?,
            ipc: req(value, "ipc")?,
            retired_ops: req(value, "retired_ops")?,
            work: req(value, "work")?,
            checksum: req(value, "checksum")?,
            coverage: decode_coverage(req(value, "coverage")?)?,
            memory: decode_memory_profile(req(value, "memory")?)?,
        })
    }
}

impl CategoryRecord {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("geo_mean".to_owned(), Value::Float(self.geo_mean)),
            ("geo_std".to_owned(), Value::Float(self.geo_std)),
            ("variation".to_owned(), Value::Float(self.variation)),
        ])
    }

    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(CategoryRecord {
            geo_mean: req(value, "geo_mean")?,
            geo_std: req(value, "geo_std")?,
            variation: req(value, "variation")?,
        })
    }
}

impl SummaryRecord {
    /// Projects a [`Characterization`] to its Table II summary row —
    /// public so summaries rebuilt from cached runs serialize exactly
    /// like sweep-computed ones.
    pub fn from_characterization(c: &Characterization) -> Self {
        let category = |s: &alberta_core::RatioSummary| CategoryRecord {
            geo_mean: s.geo_mean,
            geo_std: s.geo_std,
            variation: s.variation,
        };
        SummaryRecord {
            workloads: c.topdown.workloads as u64,
            front_end: category(&c.topdown.front_end),
            back_end: category(&c.topdown.back_end),
            bad_speculation: category(&c.topdown.bad_speculation),
            retiring: category(&c.topdown.retiring),
            mu_g_v: c.topdown.mu_g_v,
            mu_g_m: c.coverage.mu_g_m,
            refrate_cycles: c.refrate_cycles,
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("workloads".to_owned(), Value::UInt(self.workloads)),
            ("front_end".to_owned(), self.front_end.to_value()),
            ("back_end".to_owned(), self.back_end.to_value()),
            (
                "bad_speculation".to_owned(),
                self.bad_speculation.to_value(),
            ),
            ("retiring".to_owned(), self.retiring.to_value()),
            ("mu_g_v".to_owned(), Value::Float(self.mu_g_v)),
            ("mu_g_m".to_owned(), Value::Float(self.mu_g_m)),
        ];
        if let Some(cycles) = self.refrate_cycles {
            fields.push(("refrate_cycles".to_owned(), Value::Float(cycles)));
        }
        Value::Object(fields)
    }

    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(SummaryRecord {
            workloads: req(value, "workloads")?,
            front_end: CategoryRecord::from_value(req(value, "front_end")?)?,
            back_end: CategoryRecord::from_value(req(value, "back_end")?)?,
            bad_speculation: CategoryRecord::from_value(req(value, "bad_speculation")?)?,
            retiring: CategoryRecord::from_value(req(value, "retiring")?)?,
            mu_g_v: req(value, "mu_g_v")?,
            mu_g_m: req(value, "mu_g_m")?,
            refrate_cycles: opt(value, "refrate_cycles")?,
        })
    }
}
