//! Internal tool: characterization wall time, serial vs threads vs
//! processes.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin timing \
//!     [test|train|ref] [--jobs N] [--sample]
//! ```
//!
//! Sweeps the whole suite three times — serially, under the thread pool,
//! and under the supervised process pool (`--jobs N` sizing both pools,
//! defaulting to the available hardware parallelism) — and reports
//! per-benchmark wall times, summed from the per-run
//! [`RunMetrics`](alberta_core::RunMetrics) telemetry, plus the
//! wall-clock speedup of each pool over serial. All three sweeps must
//! produce bit-identical canonical reports; the binary asserts it on the
//! serialized JSON, the same guarantee CI enforces on `bench-report`
//! artifacts. With `--sample` every sweep measures via phase sampling,
//! so the assertion covers the sampled pipeline too.

use alberta_bench::{exec_from_args, sampling_from_args, scale_from_args};
use alberta_core::{ExecPolicy, Suite};
use std::time::{Duration, Instant};

fn main() {
    // Under --exec processes the supervisor re-executes this binary in
    // a hidden worker mode; that must be intercepted before any
    // argument parsing sees the worker flag.
    alberta_bench::maybe_worker();
    let scale = scale_from_args();
    // For the speedup report a 1-worker pool is meaningless, so the
    // default here is the hardware parallelism rather than serial;
    // --jobs N still overrides it.
    let jobs = match exec_from_args() {
        ExecPolicy::Serial => ExecPolicy::parallel().jobs(),
        policy => policy.jobs(),
    };
    let suite = Suite::new(scale)
        .with_exec(ExecPolicy::serial())
        .with_sampling_policy(sampling_from_args());

    let sweep = |suite: &Suite, label: &str| {
        let start = Instant::now();
        let results = suite.characterize_all_metered().unwrap_or_else(|e| {
            eprintln!("timing: {label} sweep failed: {e}");
            std::process::exit(1);
        });
        (results, start.elapsed())
    };

    let (serial_results, serial_total) = sweep(&suite, "serial");

    println!("Per-benchmark serial characterization ({scale:?} scale):");
    for (c, metrics) in &serial_results {
        let wall: u64 = metrics.iter().map(|m| m.wall_nanos).sum();
        println!(
            "{:>12}  {:>3} workloads  {:>10.2?}",
            c.short_name,
            c.workload_count(),
            Duration::from_nanos(wall)
        );
    }

    let suite = suite.with_exec(ExecPolicy::with_jobs(jobs));
    let (thread_results, thread_total) = sweep(&suite, "threads");

    let suite = suite.with_exec(ExecPolicy::processes_with_jobs(jobs));
    let (process_results, process_total) = sweep(&suite, "processes");

    // The determinism guarantee, enforced end to end: after stripping
    // the volatile telemetry, all three sweeps must serialize to the
    // very same bytes.
    let canonical = |results: &[(
        alberta_core::Characterization,
        Vec<alberta_core::RunMetrics>,
    )]| {
        let mut report = alberta_report::SuiteReport::from_strict(scale, results);
        report.strip_telemetry();
        report.to_json()
    };
    let serial_json = canonical(&serial_results);
    assert_eq!(
        serial_json,
        canonical(&thread_results),
        "thread-pool sweep diverged from serial"
    );
    assert_eq!(
        serial_json,
        canonical(&process_results),
        "process-pool sweep diverged from serial"
    );

    let speedup =
        |total: Duration| serial_total.as_secs_f64() / total.as_secs_f64().max(f64::EPSILON);
    println!();
    println!("serial sweep     {serial_total:>10.2?}");
    println!(
        "thread sweep     {thread_total:>10.2?}  ({jobs} workers, {:.2}x)",
        speedup(thread_total)
    );
    println!(
        "process sweep    {process_total:>10.2?}  ({jobs} workers, {:.2}x)",
        speedup(process_total)
    );
    println!("determinism      serial, thread, and process reports byte-identical");
}
