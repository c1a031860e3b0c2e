//! Prints the memory-characterization table of a saved report.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin table-mem -- REPORT [--out PATH] [--curves]
//! ```
//!
//! Reads a saved [`SuiteReport`](alberta_report::SuiteReport) (write
//! one with `bench-report <scale> --out REPORT`) and renders its memory
//! view; no sweep runs. Per surviving run: MPKI at each cache level,
//! DRAM row-buffer hit rate, bytes read from DRAM, and the exact
//! line/page footprint. `--curves` additionally prints the
//! MPKI-vs-cache-size curves. The schema-versioned [`MemoryDocument`]
//! is persisted to `MEM_<scale>.json` (`--out PATH` to override); it is
//! a pure projection of the report, so CI gates it byte-for-byte
//! against a committed golden.
//!
//! A lost run costs its row, as in the other renderers: `bench-report`
//! already exits 3 on the sweep that lost it.

use alberta_bench::Args;
use alberta_report::mem::MemoryDocument;
use alberta_report::view::{render_memory_table, render_mpki_curves};
use std::path::PathBuf;

fn main() {
    let args = Args::parse(&["--out"], &["--curves"]);
    let report = args.report();
    let out = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("MEM_{}.json", report.scale.name())));

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
    println!(
        "\ntable-mem: {}/{attempted} runs ok ({} scale) -> {}",
        document.rows.len(),
        report.scale.name(),
        out.display()
    );
}
