//! Sweeps the suite and prints the memory-characterization table.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin table-mem \
//!     [test|train|ref] [--exec serial|threads|processes] [--jobs N] \
//!     [--out PATH] [--curves] \
//!     [--l3-size BYTES] [--l3-ways N] [--l3-line BYTES] \
//!     [--dram-banks N] [--dram-row BYTES]
//! ```
//!
//! Runs the resilient characterization pipeline over every benchmark
//! and renders the memory view of the sweep: per-workload MPKI at each
//! cache level, DRAM row-buffer hit rate, bytes read from DRAM, and the
//! exact line/page footprint. `--curves` additionally prints the
//! MPKI-vs-cache-size curves. The schema-versioned [`MemoryDocument`]
//! is persisted to `MEM_<scale>.json` (`--out PATH` to override) and is
//! bit-identical whether the sweep ran serially or under `--jobs N` —
//! CI gates it byte-for-byte against a committed golden.
//!
//! The geometry flags override the shared L3 and DRAM model. Overridden
//! geometry is validated as a whole before anything runs: an impossible
//! configuration (non-power-of-two set count, row smaller than a line)
//! terminates with exit code 2 and the offending values, instead of
//! panicking mid-sweep.

use alberta_bench::{usage_error, Args};
use alberta_core::{MachineConfig, Suite, TopDownModel};
use alberta_report::mem::MemoryDocument;
use alberta_report::view::{render_memory_table, render_mpki_curves};
use alberta_report::SuiteReport;
use alberta_uarch::PredictorKind;
use std::path::PathBuf;

/// The value of a numeric geometry flag, when present.
fn geometry_value(args: &Args, flag: &str) -> Option<u64> {
    args.value(flag).map(|value| match value.parse::<u64>() {
        Ok(n) => n,
        Err(_) => usage_error(&format!("{flag} expects an integer, got {value:?}")),
    })
}

/// The reference machine with the CLI geometry overrides applied —
/// validated as a whole, so one bad flag reports the full offending
/// configuration rather than the first panic on the replay path.
fn machine_from_args(args: &Args) -> MachineConfig {
    let mut cfg = MachineConfig::default();
    if let Some(bytes) = geometry_value(args, "--l3-size") {
        cfg.l3.size_bytes = bytes;
    }
    if let Some(ways) = geometry_value(args, "--l3-ways") {
        cfg.l3.ways = ways;
    }
    if let Some(bytes) = geometry_value(args, "--l3-line") {
        cfg.l3.line_bytes = bytes;
    }
    if let Some(banks) = geometry_value(args, "--dram-banks") {
        cfg.dram.banks = banks;
    }
    if let Some(bytes) = geometry_value(args, "--dram-row") {
        cfg.dram.row_bytes = bytes;
    }
    if let Err(problem) = cfg.validate() {
        eprintln!("table-mem: {problem}");
        std::process::exit(2);
    }
    cfg
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
            "--l3-size",
            "--l3-ways",
            "--l3-line",
            "--dram-banks",
            "--dram-row",
        ],
        &["--curves"],
    );
    let scale = args.scale();
    let exec = args.exec();
    let machine = machine_from_args(&args);
    let out = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("MEM_{}.json", scale.name())));

    let suite = Suite::new(scale)
        .with_exec(exec)
        .with_model(TopDownModel::new(machine, PredictorKind::reference()));
    let results = suite.characterize_all_resilient_metered();
    for (r, _) in &results {
        for incident in r.incidents() {
            eprintln!(
                "table-mem: {}/{}: {:?}",
                r.short_name, incident.workload, incident.status
            );
        }
    }

    let mut report = SuiteReport::from_resilient(scale, &results);
    report.strip_telemetry();
    let document = MemoryDocument::from_report(&report);
    if let Err(e) = std::fs::write(&out, document.to_json()) {
        eprintln!("table-mem: {}: {e}", out.display());
        std::process::exit(1);
    }

    print!("{}", render_memory_table(&document));
    if args.switch("--curves") {
        println!();
        print!("{}", render_mpki_curves(&document));
    }

    let attempted: usize = report.benchmarks.iter().map(|b| b.attempted()).sum();
    let survived = document.rows.len();
    println!(
        "\ntable-mem: {survived}/{attempted} runs ok ({} scale) -> {}",
        scale.name(),
        out.display()
    );
    if survived < attempted {
        // The document still captures what happened, but a sweep that
        // lost runs should not look like a clean pass in CI logs.
        std::process::exit(3);
    }
}
