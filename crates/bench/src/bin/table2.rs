//! Renders Table II: the per-benchmark behaviour-variation summary.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin table2 -- REPORT
//! ```
//!
//! Reads a saved [`SuiteReport`](alberta_report::SuiteReport) (write
//! one with `bench-report <scale> --out REPORT`; add `--sample` there
//! for a table of phase-sampled estimates) and prints the table from
//! it; no sweep runs. Rows cover the surviving runs, annotated `n of m`
//! in the workload column when runs were lost; a benchmark that lost
//! every run gets no row and a note on stderr.

use alberta_bench::Args;
use alberta_report::view;

fn main() {
    let report = Args::parse(&[], &[]).report();
    for b in report.benchmarks.iter().filter(|b| b.summary.is_none()) {
        eprintln!("table2: {}: no surviving runs, row omitted", b.short_name);
    }
    let table = view::table2(&report);
    println!("Reproduced Table II ({:?} scale)\n", report.scale);
    println!("{}", table.render());
    println!("\nMeasured vs paper (headline columns)\n");
    println!("{}", table.render_comparison());
}
