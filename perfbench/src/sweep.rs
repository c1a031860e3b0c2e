//! `sweep-full` and `sweep-sampled`: the Test-scale characterization
//! sweep as `bench-report test` runs it, in full or phase-sampled.

use crate::affinity::Rotation;
use crate::metrics::{fastest, LayerMetrics, Measured};
use crate::rebuild::{profiled_run, traced_capture, traced_kernels, Tally};
use crate::trace::{self_times, Tracer};
use crate::{procfs, Golden, Pacer, Run};
use alberta_benchmarks::Benchmark;
use alberta_core::protocol::{decode_run, run_value};
use alberta_core::sampling::{detail_config, pilot_config, SamplePlan};
use alberta_core::{
    json, summarize_runs, ExecPolicy, ResilientCharacterization, RunMetrics, RunReport, RunStatus,
    SamplingPolicy, SamplingStats, Suite, WorkloadRun, PHASE_ERROR_BOUND_PCT,
};
use alberta_profile::{Profiler, SampleConfig};
use alberta_report::SuiteReport;
use alberta_uarch::TopDownModel;
use alberta_workloads::Scale;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Suite constructions timed before the timed phase, and again after it.
/// One takes milliseconds, so many are needed for a window's median to
/// ride out brief stalls.
const SETUP_WINDOW: usize = 50;
/// Worker processes of the sampled sweep.
const SAMPLED_JOBS: usize = 2;

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every run measured in full, serially.
    Full,
    /// Every run phase-sampled, on a pool of worker processes.
    Sampled,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Full => "sweep-full",
            Mode::Sampled => "sweep-sampled",
        }
    }

    fn policy(self) -> SamplingPolicy {
        match self {
            Mode::Full => SamplingPolicy::Full,
            Mode::Sampled => SamplingPolicy::phase(),
        }
    }

    fn jobs(self) -> usize {
        match self {
            Mode::Full => 1,
            Mode::Sampled => SAMPLED_JOBS,
        }
    }

    fn suite(self) -> Suite {
        let exec = match self {
            Mode::Full => ExecPolicy::serial(),
            Mode::Sampled => ExecPolicy::processes_with_jobs(SAMPLED_JOBS),
        };
        Suite::new(Scale::Test)
            .with_exec(exec)
            .with_sampling_policy(self.policy())
    }
}

/// The last untraced pass, kept for the traced run to compare against.
struct Pass {
    json: String,
    /// Each run's own latency, in canonical run order.
    run_latencies: Vec<f64>,
    /// Worst Top-Down error against the golden, percentage points
    /// (sampled sweeps only).
    err_pp: f64,
    busy_s: f64,
    dispatches: u64,
    wall_s: f64,
}

/// Runs the sweep workload; with `run.trace`, also rebuilds it with
/// spans.
pub fn run(mode: Mode, run: &Run, golden: &Golden) -> (Measured, LayerMetrics) {
    // A sweep's runs are not awaited one by one and their costs span
    // three orders of magnitude, so the latency a caller waits for is
    // the whole sweep (`latency_s` stays empty); per-run percentiles are
    // a diagnostic.
    let mut m = Measured {
        op_kind: "runs",
        ..Measured::default()
    };
    let mut run_latencies = Vec::new();
    let suite = set_up(mode, &mut m);
    if mode == Mode::Sampled {
        // The sampled pass embeds errors against the golden: parse it
        // before the timed phase.
        golden.report();
    }

    let watcher =
        (mode == Mode::Sampled).then(|| procfs::ChildRssWatcher::start(Duration::from_millis(50)));
    // The pool's workers inherit the supervisor's CPUs, so only the
    // serial sweep is pinned.
    let rotation = (mode == Mode::Full).then(Rotation::over_allowed_cpus);
    let pacer = Pacer::new(run.seconds);
    let mut last: Option<Pass> = None;
    while pacer.another(&m.pass_s(), m.attempted) {
        if let Some(rotation) = &rotation {
            rotation.pin(m.passes.len());
        }
        let mut pass = sweep_pass(mode, &suite, golden, &mut m);
        run_latencies.push(std::mem::take(&mut pass.run_latencies));
        if let Some(first) = &last {
            if first.json != pass.json {
                m.problems
                    .push(format!("{}: report differs between passes", mode.name()));
            }
        }
        last = Some(pass);
    }
    drop(rotation);
    let self_kb = procfs::self_vm_hwm_kb().unwrap_or(0);
    m.peak_rss_kb = self_kb;
    if let Some(watcher) = watcher {
        let workers_kb = watcher.finish();
        m.peak_rss_kb = self_kb.max(workers_kb);
        m.diagnostics.push((
            "peak_rss_supervisor_kb / workers_kb".to_owned(),
            format!("{self_kb} / {workers_kb}"),
        ));
    }
    drop(suite);
    set_up(mode, &mut m);
    let last = last.expect("at least one pass");
    let runs_ms: Vec<f64> = fastest(&run_latencies)
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    m.diagnostics.push((
        "run_latency_p50_p95_ms".to_owned(),
        format!(
            "{:.3} / {:.3} over {} runs (fastest over passes)",
            crate::stats::percentile(&runs_ms, 50.0),
            crate::stats::percentile(&runs_ms, 95.0),
            runs_ms.len()
        ),
    ));

    let mut layers = LayerMetrics::default();
    if mode == Mode::Sampled {
        m.diagnostics
            .push(("sample_err_pp".to_owned(), format!("{:.4}", last.err_pp)));
        layers.set("sampling.err_pp", last.err_pp);
    }
    if run.trace {
        traced_sweep(mode, golden, &last, &mut m, &mut layers);
    }
    (m, layers)
}

/// One window of [`SETUP_WINDOW`] timed suite constructions; returns the
/// last suite. Each previous suite drops outside the timed region.
fn set_up(mode: Mode, m: &mut Measured) -> Suite {
    let mut suite = None;
    let mut window = Vec::with_capacity(SETUP_WINDOW);
    for _ in 0..SETUP_WINDOW {
        let started = Instant::now();
        let built = std::hint::black_box(mode.suite());
        window.push(started.elapsed().as_secs_f64());
        suite = Some(built);
    }
    m.setup_s.push(window);
    suite.expect("at least one set-up")
}

/// One timed pass: the sweep, then the canonical report encode. Checks
/// follow the timing.
fn sweep_pass(mode: Mode, suite: &Suite, golden: &Golden, m: &mut Measured) -> Pass {
    let started = Instant::now();
    let results = suite.characterize_all_resilient_metered();
    let mut report = SuiteReport::from_resilient(Scale::Test, &results);
    report.strip_telemetry();
    if mode == Mode::Sampled {
        report.embed_estimate_errors(golden.report());
    }
    let json = report.to_json();
    let wall_s = started.elapsed().as_secs_f64();

    let mut busy_s = 0.0;
    let mut dispatches = 0u64;
    let mut latencies = Vec::new();
    for (r, metrics) in &results {
        for (status, metrics) in r.statuses.iter().zip(metrics) {
            m.attempted += 1;
            latencies.push(metrics.wall_nanos as f64 / 1e9);
            busy_s += metrics.wall_nanos as f64 / 1e9;
            dispatches += u64::from(metrics.dispatches.max(1));
            if !status.status.is_ok() {
                m.failed += 1;
                m.problems.push(format!(
                    "{}: {}/{}: run not ok: {:?}",
                    mode.name(),
                    r.short_name,
                    status.workload,
                    status.status
                ));
            }
        }
    }
    m.ops_per_pass = latencies.len();
    m.passes.push(match mode {
        // The runs follow one another, then summarize and encode.
        Mode::Full => {
            let rest = (wall_s - latencies.iter().sum::<f64>()).max(0.0);
            latencies.iter().copied().chain([rest]).collect()
        }
        // The workers' runs overlap in time.
        Mode::Sampled => vec![wall_s],
    });
    match mode {
        Mode::Full => check_full(&report, &json, golden, m),
        Mode::Sampled => check_sampled(&report, golden, m),
    }
    Pass {
        json,
        run_latencies: latencies,
        err_pp: sampled_error_pp(&report),
        busy_s,
        dispatches,
        wall_s,
    }
}

/// Every run of `report` that differs from its golden counterpart, as
/// `benchmark/workload`.
fn differing_runs(report: &SuiteReport, golden: &SuiteReport) -> Vec<String> {
    let mut out = Vec::new();
    for bench in &report.benchmarks {
        let base = golden.benchmark(&bench.spec_id);
        for run in &bench.runs {
            if base.and_then(|b| b.run(&run.workload)) != Some(run) {
                out.push(format!("{}/{}", bench.short_name, run.workload));
            }
        }
        if base.map(|b| &b.summary) != Some(&bench.summary) {
            out.push(format!("{}/summary", bench.short_name));
        }
    }
    out
}

/// `sweep-full`: the canonical report must equal `BENCH_test.json`
/// byte for byte.
fn check_full(report: &SuiteReport, json: &str, golden: &Golden, m: &mut Measured) {
    if json == golden.text {
        return;
    }
    let runs = differing_runs(report, golden.report());
    m.failed += runs.len().max(1) as u64;
    m.problems.push(format!(
        "sweep-full: report differs from BENCH_test.json at {}",
        if runs.is_empty() {
            "the document level".to_owned()
        } else {
            runs.join(", ")
        }
    ));
}

/// `sweep-sampled`: each run's checksum, work and retired ops equal the
/// golden's, and estimation errors stay within the committed bound.
fn check_sampled(report: &SuiteReport, golden: &Golden, m: &mut Measured) {
    let bound = PHASE_ERROR_BOUND_PCT / 100.0;
    for bench in &report.benchmarks {
        let base = golden.report().benchmark(&bench.spec_id);
        for run in &bench.runs {
            let name = format!("{}/{}", bench.short_name, run.workload);
            let truth = base
                .and_then(|b| b.run(&run.workload))
                .and_then(|r| r.measures.as_ref());
            let (Some(measures), Some(truth)) = (&run.measures, truth) else {
                m.failed += 1;
                m.problems
                    .push(format!("sweep-sampled: {name}: no measures to compare"));
                continue;
            };
            if (measures.checksum, measures.work, measures.retired_ops)
                != (truth.checksum, truth.work, truth.retired_ops)
            {
                m.failed += 1;
                m.problems.push(format!(
                    "sweep-sampled: {name}: checksum/work/retired ops differ from BENCH_test.json"
                ));
            }
            let error = run
                .sampling
                .as_ref()
                .and_then(|s| s.estimate_error)
                .unwrap_or(f64::INFINITY);
            if error > bound {
                m.failed += 1;
                m.problems.push(format!(
                    "sweep-sampled: {name}: Top-Down error {:.2}pp exceeds {PHASE_ERROR_BOUND_PCT}pp",
                    error * 100.0
                ));
            }
        }
        let mu = |s: Option<&alberta_report::SummaryRecord>| s.map(|s| s.mu_g_m);
        match (
            mu(bench.summary.as_ref()),
            mu(base.and_then(|b| b.summary.as_ref())),
        ) {
            (Some(est), Some(truth)) if truth > 0.0 && (est - truth).abs() / truth > bound => {
                m.failed += 1;
                m.problems.push(format!(
                    "sweep-sampled: {}: mu_g(M) error exceeds {PHASE_ERROR_BOUND_PCT}%",
                    bench.short_name
                ));
            }
            (Some(_), Some(_)) => {}
            _ => {
                m.failed += 1;
                m.problems.push(format!(
                    "sweep-sampled: {}: summary missing",
                    bench.short_name
                ));
            }
        }
    }
}

/// The worst per-run Top-Down fraction error of a sampled report with
/// embedded errors, in percentage points.
fn sampled_error_pp(report: &SuiteReport) -> f64 {
    report
        .benchmarks
        .iter()
        .flat_map(|b| &b.runs)
        .filter_map(|r| r.sampling.as_ref()?.estimate_error)
        .fold(0.0f64, f64::max)
        * 100.0
}

/// The traced rebuild of a sweep over `benchmarks` (a slice of the
/// suite, or all of it) from the crates' public entry points: every
/// call into a layer is spanned. Returns the canonical report and the
/// work tally.
pub fn rebuild(
    tracer: &Tracer,
    benchmarks: &[Box<dyn Benchmark>],
    mode: Mode,
    golden: &SuiteReport,
) -> Result<(String, Tally), String> {
    let model = TopDownModel::reference();
    let tasks: Vec<(usize, String)> = benchmarks
        .iter()
        .enumerate()
        .flat_map(|(i, b)| b.workload_names().into_iter().map(move |w| (i, w)))
        .collect();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<WorkloadRun, String>>>> =
        Mutex::new(vec![None; tasks.len()]);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..mode.jobs())
            .map(|_| {
                scope.spawn(|| {
                    let mut tally = Tally::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((b, workload)) = tasks.get(i) else {
                            break tally;
                        };
                        let op = i as u64;
                        let benchmark = benchmarks[*b].as_ref();
                        let result = tracer.span("sweep.run", None, op, |root| {
                            let run = match mode {
                                Mode::Full => traced_full(
                                    tracer, root, op, benchmark, workload, &model, &mut tally,
                                ),
                                Mode::Sampled => traced_sampled(
                                    tracer, root, op, benchmark, workload, &model, &mut tally,
                                ),
                            }?;
                            match mode {
                                Mode::Full => Ok(run),
                                Mode::Sampled => traced_codec(tracer, root, op, &run, &mut tally),
                            }
                        });
                        slots.lock().expect("result slots poisoned")[i] = Some(result);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("rebuild worker panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    for t in &tallies {
        tally.merge(t);
    }

    let mut runs = slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every task ran"));
    let mut results = Vec::with_capacity(benchmarks.len());
    for benchmark in benchmarks {
        let mut statuses = Vec::new();
        let mut survivors = Vec::new();
        let mut metrics = Vec::new();
        for workload in benchmark.workload_names() {
            let run = runs.next().expect("one result per task")?;
            metrics.push(RunMetrics {
                budget_consumed: run.report.retired_ops,
                ..RunMetrics::default()
            });
            survivors.push(run);
            statuses.push(RunReport {
                workload,
                status: RunStatus::Ok,
            });
        }
        let characterization = tracer.span("stats.summarize", None, 0, |_| {
            summarize_runs(benchmark.name(), benchmark.short_name(), survivors)
        });
        results.push((
            ResilientCharacterization {
                spec_id: benchmark.name().to_owned(),
                short_name: benchmark.short_name().to_owned(),
                statuses,
                characterization,
            },
            metrics,
        ));
    }
    let json = tracer.span("report.encode", None, 0, |_| {
        let mut report = SuiteReport::from_resilient(Scale::Test, &results);
        report.strip_telemetry();
        if mode == Mode::Sampled {
            report.embed_estimate_errors(golden);
        }
        report.to_json()
    });
    Ok((json, tally))
}

/// One fully measured run, rebuilt: capture, transposition, replay.
fn traced_full(
    tracer: &Tracer,
    root: u64,
    op: u64,
    benchmark: &dyn Benchmark,
    workload: &str,
    model: &TopDownModel,
    tally: &mut Tally,
) -> Result<WorkloadRun, String> {
    let (profile, output) = traced_capture(tracer, root, op, benchmark, workload, tally)?;
    let report = tracer.span("uarch.analyze", Some(root), op, |_| model.analyze(&profile));
    tally.replayed(&profile);
    tracer.span("uarch.kernels", Some(root), op, |kernels| {
        traced_kernels(tracer, kernels, op, &profile, model);
    });
    Ok(WorkloadRun {
        workload: workload.to_owned(),
        report,
        coverage: profile.coverage_percent(),
        paths: profile.path_table(),
        work: output.work,
        checksum: output.checksum,
        sampling: None,
    })
}

/// One phase-sampled run, rebuilt: pilot, plan, detail, estimate — or
/// the full fallback when the run is too small to sample.
fn traced_sampled(
    tracer: &Tracer,
    root: u64,
    op: u64,
    benchmark: &dyn Benchmark,
    workload: &str,
    model: &TopDownModel,
    tally: &mut Tally,
) -> Result<WorkloadRun, String> {
    let SamplingPolicy::Phase(config) = SamplingPolicy::phase() else {
        unreachable!("the phase policy samples");
    };
    let base = SampleConfig::default();
    let (pilot, output) = tracer.span("sampling.pilot", Some(root), op, |_| {
        profiled_run(
            benchmark,
            workload,
            Profiler::new(pilot_config(base, &config)),
        )
    })?;
    let plan = tracer.span("sampling.plan", Some(root), op, |_| {
        SamplePlan::from_pilot(&pilot, model, &config)
    });
    tally.sampled_total_ops += pilot.totals.retired_ops;
    let Some(plan) = plan else {
        tally.fallback_runs += 1;
        tally.sampled_detailed_ops += pilot.totals.retired_ops;
        let mut run = traced_full(tracer, root, op, benchmark, workload, model, tally)?;
        run.sampling = Some(SamplingStats::full(
            config.interval_work,
            pilot.intervals.len(),
            pilot.totals.retired_ops,
        ));
        return Ok(run);
    };
    let (detail_cfg, stride) = detail_config(base, &plan, &pilot);
    let (detail, _) = tracer.span("sampling.detail", Some(root), op, |_| {
        profiled_run(
            benchmark,
            workload,
            Profiler::with_detail_windows(detail_cfg, &plan.windows, stride),
        )
    })?;
    let mut report = tracer.span("sampling.estimate", Some(root), op, |_| {
        model.estimate(&detail, &plan.medoid_windows(&detail))
    });
    tally.replayed(&detail);
    tracer.span("uarch.kernels", Some(root), op, |kernels| {
        traced_kernels(tracer, kernels, op, &detail, model);
    });
    report.memory.footprint_lines = pilot.footprint.lines;
    report.memory.footprint_pages = pilot.footprint.pages;
    tally.sampled_detailed_ops += plan.detailed_ops();
    Ok(WorkloadRun {
        workload: workload.to_owned(),
        report,
        coverage: plan.estimate_coverage(&pilot),
        paths: pilot.path_table(),
        work: output.work,
        checksum: output.checksum,
        sampling: Some(SamplingStats {
            interval_work: config.interval_work,
            intervals: pilot.intervals.len(),
            clusters: plan.clustering.k(),
            detailed_ops: plan.detailed_ops(),
            total_ops: pilot.totals.retired_ops,
        }),
    })
}

/// The worker-pipe crossing of a run: encode, render, parse, decode.
fn traced_codec(
    tracer: &Tracer,
    root: u64,
    op: u64,
    run: &WorkloadRun,
    tally: &mut Tally,
) -> Result<WorkloadRun, String> {
    tracer.span("process.codec", Some(root), op, |_| {
        let text = run_value(run).render_compact();
        tally.codec_bytes += text.len() as u64;
        let value = json::parse(&text).map_err(|e| e.to_string())?;
        decode_run(&value).map_err(|e| format!("{}: {e:?}", run.workload))
    })
}

/// The traced run of a sweep: rebuild, compare with the untraced
/// output, and turn spans and tallies into per-layer metrics.
fn traced_sweep(
    mode: Mode,
    golden: &Golden,
    last: &Pass,
    m: &mut Measured,
    layers: &mut LayerMetrics,
) {
    let tracer = Tracer::default();
    let started = Instant::now();
    let benchmarks = tracer.span("workloads.build", None, 0, |_| {
        alberta_benchmarks::suite(Scale::Test)
    });
    let rebuilt = rebuild(&tracer, &benchmarks, mode, golden.report());
    let traced_wall = started.elapsed().as_secs_f64();
    let tally = match rebuilt {
        Ok((json, tally)) => {
            if json != last.json {
                m.failed += 1;
                m.problems.push(format!(
                    "{}: traced rebuild's report differs from the untraced run's",
                    mode.name()
                ));
            }
            layers.set("report.bytes", json.len() as f64);
            tally
        }
        Err(problem) => {
            m.failed += 1;
            m.problems
                .push(format!("{}: traced rebuild: {problem}", mode.name()));
            Tally::default()
        }
    };
    crate::write_spans(mode.name(), &tracer);

    let times = self_times(&tracer.spans());
    layers.set("workloads.build_ms", times.seconds("workloads.build") * 1e3);
    crate::set_profile_layer(layers, &times, &tally);
    crate::set_uarch_layer(
        layers,
        times.seconds("uarch.analyze") + times.seconds("sampling.estimate"),
        &times,
        &tally,
    );
    layers.set("sampling.pilot_s", times.seconds("sampling.pilot"));
    layers.set("sampling.plan_s", times.seconds("sampling.plan"));
    layers.set("sampling.detail_s", times.seconds("sampling.detail"));
    layers.set("sampling.estimate_s", times.seconds("sampling.estimate"));
    layers.set("sampling.fallback_runs", tally.fallback_runs as f64);
    layers.set_ratio(
        "sampling.work_saved",
        tally.sampled_total_ops as f64,
        tally.sampled_detailed_ops as f64,
        "total ops / detailed ops",
    );
    layers.set("process.busy_s", last.busy_s);
    layers.set_ratio(
        "process.utilization",
        last.busy_s,
        mode.jobs() as f64 * last.wall_s,
        "busy s / (jobs x wall s)",
    );
    layers.set("process.dispatches", last.dispatches as f64);
    layers.set("process.codec_ms", times.seconds("process.codec") * 1e3);
    layers.set("process.codec_bytes", tally.codec_bytes as f64);
    layers.set("stats.summarize_ms", times.seconds("stats.summarize") * 1e3);
    layers.set("report.encode_ms", times.seconds("report.encode") * 1e3);
    crate::set_trace_overhead(layers, traced_wall, crate::stats::median(&m.pass_s()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced rebuild of a one-benchmark slice equals the library's
    /// own untraced sweep of that slice, byte for byte.
    #[test]
    fn traced_rebuild_equals_untraced_sweep_on_one_benchmark() {
        let benchmarks: Vec<_> = alberta_benchmarks::suite(Scale::Test)
            .into_iter()
            .filter(|b| b.short_name() == "mcf")
            .collect();
        let suite = Mode::Full.suite();
        let (untraced, metrics) = suite
            .characterize_resilient_metered("mcf")
            .expect("mcf exists");
        let mut expected = SuiteReport::from_resilient(Scale::Test, &[(untraced, metrics)]);
        expected.strip_telemetry();

        let tracer = Tracer::default();
        let (json, tally) =
            rebuild(&tracer, &benchmarks, Mode::Full, &expected).expect("rebuild succeeds");
        assert_eq!(json, expected.to_json());
        assert!(tally.retired_ops > 0 && tally.events_kept > 0);
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        for layer in [
            "profile.exec",
            "profile.finish",
            "uarch.analyze",
            "stats.summarize",
            "report.encode",
        ] {
            assert!(names.contains(&layer), "{layer} spanned");
        }
    }
}
