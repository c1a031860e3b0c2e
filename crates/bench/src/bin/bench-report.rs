//! Sweeps the suite and persists the structured run report.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin bench-report \
//!     [test|train|ref] [--exec serial|threads|processes] [--jobs N] \
//!     [--out PATH] [--trace-dir DIR] [--telemetry] [--chaos N] [--chaos-seed SEED] \
//!     [--sample] [--sample-interval OPS] [--sample-k N] [--sample-seed SEED]
//! ```
//!
//! Runs the resilient characterization pipeline over every benchmark
//! and writes the schema-versioned JSON document (`BENCH_<scale>.json`
//! by default, `--out PATH` to override). The canonical document is
//! bit-identical whether the sweep ran serially or under `--jobs N`;
//! `--telemetry` keeps the volatile wall-clock and worker-id fields for
//! local inspection, at the cost of that guarantee.
//!
//! `--trace-dir DIR` also writes the same sweep's observability
//! artifacts into `DIR` ([`trace_directory`]): one collapsed-stack
//! `<benchmark>.<workload>.folded` file per surviving run, the
//! `trace.json` timeline (the virtual schedule over
//! [`DEFAULT_LANES`](alberta_report::DEFAULT_LANES) lanes, the measured
//! one under `--telemetry`), and `report.json`, the report with each
//! benchmark's [`HOT_PATH_COUNT`](alberta_report::HOT_PATH_COUNT)
//! hottest call paths embedded. Without `--telemetry` they too are
//! bit-identical across execution policies; CI compares the directories
//! with `diff -r`.
//!
//! Per-run failures cost a run, not the report: they land in the
//! document as `degraded`/`failed` records and are echoed on stderr.
//!
//! `--sample` switches every run to phase-sampled measurement: the
//! Top-Down numbers become clustered-interval estimates and each run
//! record gains a `sampling` section with the pilot/cluster accounting.
//! Sampled sweeps keep the serial-vs-parallel byte-identity guarantee.
//!
//! `--exec processes` fans the runs out to supervised worker
//! subprocesses (crash isolation, heartbeats, bounded redispatch); the
//! canonical document stays byte-identical to a serial sweep. `--chaos N
//! --chaos-seed S` scatters `N` seeded process faults (worker crashes,
//! hangs, corrupt result lines) over `N` distinct runs to exercise the
//! supervisor's recovery — single-shot faults are absorbed by
//! redispatch, so the chaos report still matches the clean one. Only
//! worker processes fire these faults, so `--chaos` without `--exec
//! processes`, or with more faults than the suite has runs, is a usage
//! error.

use alberta_bench::{usage_error, Args};
use alberta_core::{ExecPolicy, Suite};
use alberta_report::{trace_directory, SuiteReport};
use std::fmt::Display;
use std::path::{Path, PathBuf};

fn fail(context: impl Display, e: impl Display) -> ! {
    eprintln!("bench-report: {context}: {e}");
    std::process::exit(1);
}

fn main() {
    // Under --exec processes the supervisor re-executes this binary in
    // a hidden worker mode; that must be intercepted before any
    // argument parsing sees the worker flag.
    alberta_bench::maybe_worker();
    let args = Args::parse(
        &[
            "--exec",
            "--jobs",
            "--out",
            "--trace-dir",
            "--chaos",
            "--chaos-seed",
            "--sample-interval",
            "--sample-k",
            "--sample-seed",
        ],
        &["--telemetry", "--sample"],
    );
    let scale = args.scale();
    let exec = args.exec("--exec", "--jobs");
    let out = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", scale.name())));
    let telemetry = args.switch("--telemetry");
    let trace_dir = args.value("--trace-dir").map(Path::new);

    let suite = Suite::new(scale)
        .with_exec(exec)
        .with_sampling_policy(args.sampling());
    let suite = match args.chaos() {
        None => suite,
        Some((count, seed)) => {
            if !matches!(exec, ExecPolicy::Processes { .. }) {
                usage_error(
                    "--chaos injects process faults, which fire only under --exec processes",
                );
            }
            let runs: usize = suite
                .benchmarks()
                .iter()
                .map(|b| b.workload_names().len())
                .sum();
            if count > runs {
                usage_error(&format!(
                    "--chaos {count} exceeds the {runs} runs of the {} suite",
                    scale.name()
                ));
            }
            let plan = suite.scattered_process_faults(seed, count);
            eprintln!("bench-report: chaos plan: {count} process fault(s), seed {seed}");
            suite.with_faults(plan)
        }
    };
    // An unwritable trace directory fails before the sweep, not after.
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir.display(), e));
    }
    let results = suite.characterize_all_resilient_metered();
    for (r, _) in &results {
        for incident in r.incidents() {
            eprintln!(
                "bench-report: {}/{}: {:?}",
                r.short_name, incident.workload, incident.status
            );
        }
    }

    let mut report = SuiteReport::from_resilient(scale, &results);
    if !telemetry {
        report.strip_telemetry();
    }
    if let Err(e) = alberta_report::save(&report, &out) {
        eprintln!("bench-report: {e}");
        std::process::exit(1);
    }
    if let Some(dir) = trace_dir {
        let files = trace_directory(&report, &results, telemetry)
            .unwrap_or_else(|e| fail(dir.display(), e));
        for (name, bytes) in &files {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap_or_else(|e| fail(path.display(), e));
        }
        println!(
            "bench-report: {} trace files -> {}",
            files.len(),
            dir.display()
        );
    }

    let benchmarks = report.benchmarks.len();
    let attempted: usize = report.benchmarks.iter().map(|b| b.attempted()).sum();
    let survived: usize = report.benchmarks.iter().map(|b| b.survived()).sum();
    println!(
        "bench-report: {benchmarks} benchmarks, {survived}/{attempted} runs ok \
         ({} scale) -> {}",
        scale.name(),
        out.display()
    );
    if survived < attempted {
        // The report still captures what happened, but a sweep that lost
        // runs should not look like a clean pass in CI logs.
        std::process::exit(3);
    }
}
