//! `replay-ablation`: one full-measurement profile per benchmark (its
//! `refrate` run) replayed through `TopDownModel::analyze` under a grid
//! of machine variants — every branch predictor kind crossed with L2/L3
//! geometries.

use crate::affinity::Rotation;
use crate::metrics::{LayerMetrics, Measured};
use crate::rebuild::{profiled_run, traced_capture, traced_kernels, Tally};
use crate::trace::{self_times, Tracer};
use crate::{procfs, Golden, Pacer, Run};
use alberta_core::{RunStatus, WorkloadRun};
use alberta_profile::{PathTable, Profile, Profiler, SampleConfig};
use alberta_report::schema::RunRecord;
use alberta_uarch::{CacheConfig, MachineConfig, PredictorKind, TopDownModel, TopDownReport};
use alberta_workloads::Scale;
use std::collections::BTreeMap;
use std::time::Instant;

/// Profile captures timed before the timed phase, and again after it.
const SETUP_WINDOW: usize = 2;
/// The workload every profile is captured from.
const WORKLOAD: &str = "refrate";

/// One captured profile plus what the reference check needs.
struct Captured {
    short_name: &'static str,
    spec_id: &'static str,
    profile: Profile,
    coverage: BTreeMap<String, f64>,
    paths: PathTable,
    work: u64,
    checksum: u64,
}

/// The machine grid: every predictor kind × four L2/L3 geometries, so a
/// pass makes 240 calls and the 95th percentile has twelve beyond it.
/// The reference model is `gshare14/l2-256k-l3-8m`.
fn variants() -> Vec<(String, TopDownModel)> {
    let predictors = [
        ("static", PredictorKind::StaticTaken),
        ("bimodal14", PredictorKind::Bimodal { bits: 14 }),
        ("gshare14", PredictorKind::Gshare { bits: 14 }),
        ("tournament14", PredictorKind::Tournament { bits: 14 }),
    ];
    let cache = |kib: u64, ways: u64| CacheConfig {
        size_bytes: kib * 1024,
        line_bytes: 64,
        ways,
    };
    let geometries = [
        ("l2-128k-l3-4m", cache(128, 8), cache(4096, 16)),
        ("l2-256k-l3-8m", CacheConfig::l2(), CacheConfig::l3()),
        ("l2-512k-l3-16m", cache(512, 8), cache(16384, 16)),
        ("l2-1m-l3-32m", cache(1024, 8), cache(32768, 16)),
    ];
    let mut out = Vec::new();
    for (pname, predictor) in predictors {
        for (gname, l2, l3) in geometries {
            let machine = MachineConfig {
                l2,
                l3,
                ..MachineConfig::default()
            };
            out.push((
                format!("{pname}/{gname}"),
                TopDownModel::new(machine, predictor),
            ));
        }
    }
    out
}

fn is_reference(model: &TopDownModel) -> bool {
    let reference = TopDownModel::reference();
    model.predictor() == reference.predictor() && model.config() == reference.config()
}

/// Captures every benchmark's refrate profile, untraced.
fn capture_all() -> Result<Vec<Captured>, String> {
    alberta_benchmarks::suite(Scale::Test)
        .iter()
        .map(|b| {
            let (profile, output) =
                profiled_run(b.as_ref(), WORKLOAD, Profiler::new(SampleConfig::default()))?;
            Ok(Captured {
                short_name: b.short_name(),
                spec_id: b.name(),
                coverage: profile.coverage_percent(),
                paths: profile.path_table(),
                profile,
                work: output.work,
                checksum: output.checksum,
            })
        })
        .collect()
}

/// One window of [`SETUP_WINDOW`] timed captures into `captured`. The
/// previous set drops before each capture, so only one stays resident.
fn set_up(captured: &mut Vec<Captured>, m: &mut Measured) -> Result<(), String> {
    let mut window = Vec::with_capacity(SETUP_WINDOW);
    for _ in 0..SETUP_WINDOW {
        captured.clear();
        let started = Instant::now();
        *captured = capture_all()?;
        window.push(started.elapsed().as_secs_f64());
    }
    m.setup_s.push(window);
    Ok(())
}

/// Runs the replay workload; with `run.trace`, also rebuilds it with
/// spans.
pub fn run(run: &Run, golden: &Golden) -> (Measured, LayerMetrics) {
    let mut m = Measured {
        op_kind: "analyze calls",
        latency_aligned: true,
        ..Measured::default()
    };
    let mut captured = Vec::new();
    if let Err(problem) = set_up(&mut captured, &mut m) {
        m.failed += 1;
        m.problems
            .push(format!("replay-ablation: capture: {problem}"));
        return (m, LayerMetrics::default());
    }

    let grid = variants();
    let rotation = Rotation::over_allowed_cpus();
    let pacer = Pacer::new(run.seconds);
    let mut first: Vec<TopDownReport> = Vec::new();
    while pacer.another(&m.pass_s(), m.attempted) {
        rotation.pin(m.passes.len());
        let started = Instant::now();
        let mut reports = Vec::with_capacity(grid.len() * captured.len());
        let mut latencies = Vec::with_capacity(reports.capacity());
        for (_, model) in &grid {
            for c in &captured {
                let call = Instant::now();
                reports.push(model.analyze(&c.profile));
                latencies.push(call.elapsed().as_secs_f64());
            }
        }
        let rest = (started.elapsed().as_secs_f64() - latencies.iter().sum::<f64>()).max(0.0);
        m.passes
            .push(latencies.iter().copied().chain([rest]).collect());
        m.ops_per_pass = latencies.len();
        m.latency_s.push(latencies);
        m.attempted += reports.len() as u64;
        if first.is_empty() {
            check_reference(&grid, &captured, &reports, golden, &mut m);
            first = reports;
        } else {
            check_repeat(&grid, &captured, &first, &reports, &mut m);
        }
    }
    drop(rotation);
    m.peak_rss_kb = procfs::self_vm_hwm_kb().unwrap_or(0);
    if let Err(problem) = set_up(&mut captured, &mut m) {
        m.failed += 1;
        m.problems
            .push(format!("replay-ablation: capture: {problem}"));
    }

    let mut layers = LayerMetrics::default();
    if run.trace {
        // The traced capture below holds its own profile set.
        drop(captured);
        traced_replay(&grid, &first, &mut m, &mut layers);
    }
    (m, layers)
}

/// The reference variant must reproduce each refrate run's measures in
/// `BENCH_test.json` bit for bit.
fn check_reference(
    grid: &[(String, TopDownModel)],
    captured: &[Captured],
    reports: &[TopDownReport],
    golden: &Golden,
    m: &mut Measured,
) {
    let Some(v) = grid.iter().position(|(_, model)| is_reference(model)) else {
        m.problems
            .push("replay-ablation: the grid lacks the reference model".to_owned());
        return;
    };
    for (c, report) in captured.iter().zip(&reports[v * captured.len()..]) {
        let run = WorkloadRun {
            workload: WORKLOAD.to_owned(),
            report: report.clone(),
            coverage: c.coverage.clone(),
            paths: c.paths.clone(),
            work: c.work,
            checksum: c.checksum,
            sampling: None,
        };
        let record =
            RunRecord::from_parts(WORKLOAD, &RunStatus::Ok, 0, report.retired_ops, Some(&run));
        let truth = golden
            .report()
            .benchmark(c.spec_id)
            .and_then(|b| b.run(WORKLOAD))
            .and_then(|r| r.measures.as_ref());
        if truth.is_none() || truth != record.measures.as_ref() {
            m.failed += 1;
            m.problems.push(format!(
                "replay-ablation: {}/{WORKLOAD}: reference replay differs from BENCH_test.json",
                c.short_name
            ));
        }
    }
}

/// Every later pass must reproduce the first pass's reports exactly.
fn check_repeat(
    grid: &[(String, TopDownModel)],
    captured: &[Captured],
    first: &[TopDownReport],
    reports: &[TopDownReport],
    m: &mut Measured,
) {
    for (i, (a, b)) in first.iter().zip(reports).enumerate() {
        if a != b {
            m.failed += 1;
            m.problems.push(format!(
                "replay-ablation: {}/{WORKLOAD} under {}: replay differs between passes",
                captured[i % captured.len()].short_name,
                grid[i / captured.len()].0
            ));
        }
    }
}

/// The traced run: capture again with spans (set-up's layers), then one
/// traced grid pass whose reports must equal the untraced ones.
fn traced_replay(
    grid: &[(String, TopDownModel)],
    untraced: &[TopDownReport],
    m: &mut Measured,
    layers: &mut LayerMetrics,
) {
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let benchmarks = tracer.span("workloads.build", None, 0, |_| {
        alberta_benchmarks::suite(Scale::Test)
    });
    let mut profiles = Vec::with_capacity(benchmarks.len());
    for (i, b) in benchmarks.iter().enumerate() {
        let captured = tracer.span("replay.capture", None, i as u64, |root| {
            traced_capture(&tracer, root, i as u64, b.as_ref(), WORKLOAD, &mut tally)
        });
        match captured {
            Ok((profile, _)) => profiles.push(profile),
            Err(problem) => {
                m.failed += 1;
                m.problems
                    .push(format!("replay-ablation: traced capture: {problem}"));
                return;
            }
        }
    }

    let started = Instant::now();
    let mut reports = Vec::with_capacity(untraced.len());
    let mut replay_tally = Tally::default();
    for (v, (_, model)) in grid.iter().enumerate() {
        for (p, profile) in profiles.iter().enumerate() {
            let op = (v * profiles.len() + p) as u64;
            tracer.span("replay.call", None, op, |root| {
                reports
                    .push(tracer.span("uarch.analyze", Some(root), op, |_| model.analyze(profile)));
                tracer.span("uarch.kernels", Some(root), op, |kernels| {
                    traced_kernels(&tracer, kernels, op, profile, model);
                });
            });
            replay_tally.replayed(profile);
        }
    }
    let traced_wall = started.elapsed().as_secs_f64();
    if reports != untraced {
        m.failed += 1;
        m.problems
            .push("replay-ablation: traced replay differs from the untraced run".to_owned());
    }
    crate::write_spans("replay-ablation", &tracer);

    let times = self_times(&tracer.spans());
    tally.merge(&replay_tally);
    layers.set("workloads.build_ms", times.seconds("workloads.build") * 1e3);
    crate::set_profile_layer(layers, &times, &tally);
    crate::set_uarch_layer(layers, times.seconds("uarch.analyze"), &times, &tally);
    crate::set_trace_overhead(layers, traced_wall, crate::stats::median(&m.pass_s()));
}
