//! Compares two structured run reports and gates on regressions.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin bench-diff -- \
//!     BASELINE.json NEW.json [--threshold PCT]
//! ```
//!
//! Prints the per-benchmark delta table (modelled refrate cycles,
//! `μg(V)`, `μg(M)`) plus the geometric mean of the cycle ratios, then
//! exits:
//!
//! * `0` — no regression;
//! * `1` — regression found: a structural one (status flip, lost
//!   workload or summary, scale mismatch), or a numeric delta beyond
//!   `--threshold PCT` (default 5 %);
//! * `2` — usage or parse error (including an unsupported
//!   `schema_version`).
//!
//! The modelled numbers move legitimately when workloads or the machine
//! model are retuned, so a caller who gates on structure alone passes a
//! large `--threshold`. A lost workload never is: a structural
//! regression fails at any threshold.

use alberta_bench::{load_report, usage_error, Args};
use alberta_report::{DiffOptions, ReportDiff};

fn main() {
    let args = Args::parse(&["--threshold"], &[]);
    let [base_path, new_path] = args.operands() else {
        usage_error("expected exactly two reports: bench-diff BASELINE.json NEW.json");
    };
    let threshold = match args.value("--threshold") {
        None => DiffOptions::default().threshold,
        Some(text) => match text.parse::<f64>() {
            Ok(pct) if pct >= 0.0 && pct.is_finite() => pct / 100.0,
            _ => usage_error(&format!(
                "--threshold expects a non-negative percentage, got {text:?}"
            )),
        },
    };

    let base = load_report(base_path);
    let new = load_report(new_path);
    let diff = ReportDiff::compute(&base, &new, DiffOptions { threshold });

    println!("bench-diff: {base_path} -> {new_path}\n");
    print!("{}", diff.render());

    let over = diff.over_threshold();
    if !over.is_empty() {
        println!(
            "\nregression: {} benchmark(s) drifted beyond {:.2}%:",
            over.len(),
            threshold * 100.0
        );
        for row in &over {
            println!(
                "  {} (max change {:+.2}%)",
                row.benchmark,
                row.max_relative_change() * 100.0
            );
        }
    }

    if !diff.regressions.is_empty() || !over.is_empty() {
        println!(
            "\nbench-diff: FAIL ({} structural, {} over-threshold)",
            diff.regressions.len(),
            over.len()
        );
        std::process::exit(1);
    }
    if diff.is_clean() {
        println!("\nbench-diff: OK (reports identical)");
    } else {
        println!("\nbench-diff: OK (no regressions)");
    }
}
