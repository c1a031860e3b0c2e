//! Renders Figure 1: Top-Down stacks per workload for
//! `523.xalancbmk_r` (left) and `557.xz_r` (right).
//!
//! ```text
//! cargo run --release -p alberta-bench --bin fig1 -- REPORT
//! ```
//!
//! Reads a saved [`SuiteReport`](alberta_report::SuiteReport) (write
//! one with `bench-report <scale> --out REPORT`) and prints the figure
//! from it; no sweep runs. A lost workload costs one bar, not the
//! figure: the plot title is annotated `(n of m workloads)`. A
//! benchmark with no surviving run gets a note on stderr instead.

use alberta_bench::Args;
use alberta_report::view;

fn main() {
    let report = Args::parse(&[], &[]).report();
    for name in ["xalancbmk", "xz"] {
        match report.benchmark(name).and_then(view::fig1_series) {
            Some(series) => {
                println!("{}", series.render());
                println!("{}", series.render_numeric());
                println!("visual variation score: {:.4}\n", series.visual_variation());
            }
            None => eprintln!("fig1: {name}: no surviving runs, figure omitted"),
        }
    }
}
