//! Quickstart: characterize one benchmark across its workloads and print
//! the paper's summary statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use alberta::core::Suite;
use alberta::report::{view, SuiteReport};
use alberta::workloads::Scale;

fn main() -> Result<(), alberta::core::CoreError> {
    // Build the fifteen-benchmark suite at the fast test scale.
    let suite = Suite::new(Scale::Test);

    // Characterize 557.xz_r: run train, refrate, and every Alberta
    // workload under the instrumented profiler and the Top-Down model.
    // The report is the document every paper artifact renders from.
    let result = suite.characterize_resilient_metered("xz")?;
    let report = SuiteReport::from_resilient(suite.scale(), std::slice::from_ref(&result));
    let xz = &report.benchmarks[0];
    let summary = xz.summary.as_ref().expect("xz has surviving runs");
    println!(
        "{} characterized over {} workloads",
        xz.spec_id,
        xz.survived()
    );

    // The Table II row quantities (Section V of the paper).
    println!("\nTop-Down geometric summary (Eq. 1-4):");
    for (name, cat) in [
        ("front-end", &summary.front_end),
        ("back-end", &summary.back_end),
        ("bad-spec", &summary.bad_speculation),
        ("retiring", &summary.retiring),
    ] {
        println!(
            "  {name:>9}: μg = {:5.1}%  σg = {:.2}  V = {:6.2}",
            cat.geo_mean * 100.0,
            cat.geo_std,
            cat.variation
        );
    }
    println!(
        "  μg(V) = {:.2}   (single-number behaviour-variation proxy)",
        summary.mu_g_v
    );
    println!(
        "  μg(M) = {:.2}   (method-coverage variation, Eq. 5)",
        summary.mu_g_m
    );

    // Per-workload stacks (Figure 1 for this benchmark).
    if let Some(series) = view::fig1_series(xz) {
        println!("\n{}", series.render());
    }
    Ok(())
}
