//! Renders Table I: the SPEC CPU 2006 → 2017 evolution, with our
//! mini-benchmark refrate cycles as the measured column.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin table1 -- REPORT
//! ```
//!
//! Reads a saved [`SuiteReport`](alberta_report::SuiteReport) (write
//! one with `bench-report <scale> --out REPORT`) and prints the table
//! from it; no sweep runs. A benchmark that lost its refrate run shows
//! `—`.

use alberta_bench::Args;
use alberta_report::view;

fn main() {
    let report = Args::parse(&[], &[]).report();
    println!("Reproduced Table I ({:?} scale)\n", report.scale);
    println!("{}", view::table1(&report));
}
