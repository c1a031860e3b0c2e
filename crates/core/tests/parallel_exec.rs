//! Run accounting of the in-process executor. That a faulty sweep on
//! worker threads matches the serial one is checked, with the process
//! executor, by the `process_exec` harness.

use alberta_core::{FaultKind, FaultPlan, RunStatus, Scale, Suite};

/// `RunMetrics::attempts` regression guard: first run plus retries, in
/// the in-process executor (the process executor's dispatch accounting
/// is covered by the `process_exec` harness).
#[test]
fn attempt_accounting_is_consistent_across_pipelines() {
    // A retryable in-run fault is salvaged by one retry, so the
    // degraded run accounts two attempts — one dispatch plus one retry
    // — while untouched runs stay at one.
    let plan = FaultPlan::new(3).inject("mcf", "train", FaultKind::ExhaustBudget { budget: 64 });
    let (result, metrics) = Suite::new(Scale::Test)
        .with_faults(plan)
        .characterize_resilient_metered("mcf")
        .expect("mcf exists");
    for (report, m) in result.statuses.iter().zip(&metrics) {
        if report.workload == "train" {
            assert!(
                matches!(report.status, RunStatus::Degraded { .. }),
                "mcf/train: expected a salvaged run, got {:?}",
                report.status
            );
            assert_eq!(m.dispatches, 1, "mcf/train: dispatches");
            assert_eq!(m.retries, 1, "mcf/train: retries");
            assert_eq!(m.attempts(), 2, "mcf/train: attempts");
        } else {
            assert_eq!(m.dispatches, 1, "mcf/{}: dispatches", report.workload);
            assert_eq!(m.retries, 0, "mcf/{}: retries", report.workload);
            assert_eq!(m.attempts(), 1, "mcf/{}: attempts", report.workload);
        }
    }
}
