//! Sweeps the suite and persists the structured run report.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin bench-report \
//!     [test|train|ref] [--exec serial|threads|processes] [--jobs N] \
//!     [--out PATH] [--telemetry] [--chaos N] [--chaos-seed SEED] \
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
//! hangs, corrupt result lines) over the sweep to exercise the
//! supervisor's recovery — single-shot faults are absorbed by
//! redispatch, so the chaos report still matches the clean one.

use alberta_bench::Args;
use alberta_core::Suite;
use alberta_report::SuiteReport;
use std::path::PathBuf;

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
            "--chaos",
            "--chaos-seed",
            "--sample-interval",
            "--sample-k",
            "--sample-seed",
        ],
        &["--telemetry", "--sample"],
    );
    let scale = args.scale();
    let exec = args.exec();
    let out = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", scale.name())));

    let suite = Suite::new(scale)
        .with_exec(exec)
        .with_sampling_policy(args.sampling());
    let suite = match args.chaos() {
        None => suite,
        Some((count, seed)) => {
            let plan = suite.scattered_process_faults(seed, count);
            eprintln!("bench-report: chaos plan: {count} process fault(s), seed {seed}");
            suite.with_faults(plan)
        }
    };
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
    if !args.switch("--telemetry") {
        report.strip_telemetry();
    }
    if let Err(e) = alberta_report::save(&report, &out) {
        eprintln!("bench-report: {e}");
        std::process::exit(1);
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
