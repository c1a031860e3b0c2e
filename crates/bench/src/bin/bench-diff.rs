//! Compares two structured run reports and gates on regressions.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin bench-diff -- \
//!     BASELINE.json NEW.json [--threshold PCT] [--check]
//! ```
//!
//! Prints the per-benchmark delta table (modelled refrate cycles,
//! `μg(V)`, `μg(M)`) plus the geometric mean of the cycle ratios, then
//! exits:
//!
//! * `0` — no regression;
//! * `1` — regression found: a structural one (status flip, lost
//!   workload or summary, scale mismatch), or — without `--check` — a
//!   numeric delta beyond `--threshold PCT` (default 5 %);
//! * `2` — usage or parse error (including an unsupported
//!   `schema_version`).
//!
//! `--check` is the CI mode: structural regressions fail, numeric
//! drift only warns. The modelled numbers move legitimately when
//! workloads or the machine model are retuned; losing a workload never
//! does.

use alberta_bench::{load_report, usage_error, Args};
use alberta_report::{DiffOptions, ReportDiff};

fn main() {
    let args = Args::parse(&["--threshold"], &["--check"]);
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
    let check = args.switch("--check");

    let base = load_report(base_path);
    let new = load_report(new_path);
    let diff = ReportDiff::compute(&base, &new, DiffOptions { threshold });

    println!("bench-diff: {base_path} -> {new_path}\n");
    print!("{}", diff.render());

    let over = diff.over_threshold();
    if !over.is_empty() {
        let verdict = if check { "warning" } else { "regression" };
        println!(
            "\n{verdict}: {} benchmark(s) drifted beyond {:.2}%:",
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

    let structural = !diff.regressions.is_empty();
    let numeric = !check && !over.is_empty();
    if structural || numeric {
        println!(
            "\nbench-diff: FAIL ({} structural, {} over-threshold)",
            diff.regressions.len(),
            if check { 0 } else { over.len() }
        );
        std::process::exit(1);
    }
    if diff.is_clean() {
        println!("\nbench-diff: OK (reports identical)");
    } else {
        println!("\nbench-diff: OK (no regressions)");
    }
}
