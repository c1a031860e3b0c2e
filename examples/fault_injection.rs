//! Demonstrates the fault-injection harness and the resilient
//! characterization pipeline.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```
//!
//! Scatters a handful of deterministic faults over the suite — a forced
//! panic, a work-budget exhaustion, corrupted profiler counters, a
//! malformed workload — then characterizes everything resiliently and
//! prints each sabotaged run's fate next to the Table II assembled from
//! the surviving runs.

use alberta::core::{RunStatus, Scale, Suite};
use alberta::report::{view, SuiteReport};

fn main() {
    let suite = Suite::new(Scale::Test);
    // Deterministic: the same seed always sabotages the same runs the
    // same way. Swap in your own FaultPlan::new(..).inject(..) chain to
    // target specific (benchmark, workload) pairs.
    let plan = suite.scattered_faults(0xA1BE27A, 5);
    println!("Injecting {} faults:", plan.len());
    for fault in plan.faults() {
        println!(
            "  {}/{} <- {:?}",
            fault.benchmark, fault.workload, fault.kind
        );
    }

    let suite = suite.with_faults(plan);
    let results = suite.characterize_all_resilient_metered();

    println!("\nRun incidents:");
    for (r, _) in &results {
        for incident in r.incidents() {
            let fate = match &incident.status {
                RunStatus::Degraded { error, retried_at } => {
                    format!("DEGRADED (retried at {retried_at:?}) — {error}")
                }
                RunStatus::Failed { error } => format!("FAILED — {error}"),
                RunStatus::Ok => unreachable!("incidents are non-Ok"),
            };
            println!("  {}/{}: {fate}", r.short_name, incident.workload);
        }
        let (n, m) = (r.survived(), r.attempted());
        if n < m {
            println!("  {} summarized over ({n} of {m} workloads)", r.short_name);
        }
    }

    // Every artifact renders from the sweep's report.
    let report = SuiteReport::from_resilient(suite.scale(), &results);
    println!("\nTable II over the surviving runs:\n");
    println!("{}", view::table2(&report).render());
}
