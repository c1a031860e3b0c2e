//! Renders Figure 2: method-coverage variation across workloads for
//! `531.deepsjeng_r` (left) and `557.xz_r` (right).
//!
//! ```text
//! cargo run --release -p alberta-bench --bin fig2 -- REPORT
//! ```
//!
//! Reads a saved [`SuiteReport`](alberta_report::SuiteReport) (write
//! one with `bench-report <scale> --out REPORT`) and prints the figure
//! from it; no sweep runs. A lost workload costs one row, not the
//! figure: the plot title is annotated `(n of m workloads)`. A
//! benchmark with no surviving run gets a note on stderr instead.

use alberta_bench::Args;
use alberta_report::view;

fn main() {
    let report = Args::parse(&[], &[]).report();
    for name in ["deepsjeng", "xz"] {
        let bench = report.benchmark(name);
        match bench.and_then(view::fig2_series) {
            Some(series) => {
                println!("{}", series.render());
                println!("per-method range (max − min %):");
                for (method, range) in series.method_ranges() {
                    println!("  {method:>28}  {range:6.2}");
                }
                if let Some(summary) = bench.and_then(|b| b.summary.as_ref()) {
                    println!("μg(M) = {:.2}\n", summary.mu_g_m);
                }
            }
            None => eprintln!("fig2: {name}: no surviving runs, figure omitted"),
        }
    }
}
