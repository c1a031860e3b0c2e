//! End-to-end fault injection: K seeded faults through the resilient
//! characterization pipeline must produce exactly K non-`Ok` run
//! statuses, never a panic, and a summary over the survivors of every
//! benchmark. How lost runs render is tested where the artifacts are
//! built, in `alberta-report`.

use alberta_core::{BenchError, FaultKind, FaultPlan, RunStatus, Scale, Suite};

/// The headline acceptance test: scatter K faults over distinct runs,
/// characterize everything, count the damage.
#[test]
fn k_faults_yield_exactly_k_non_ok_statuses() {
    const K: usize = 6;
    let suite = Suite::new(Scale::Test);
    let plan = suite.scattered_faults(0xFA01, K);
    assert_eq!(plan.len(), K);
    let suite = suite.with_faults(plan.clone());

    let results: Vec<_> = suite
        .characterize_all_resilient_metered()
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert_eq!(results.len(), 15, "every benchmark reports, none crashes");

    let non_ok: Vec<(String, String, RunStatus)> = results
        .iter()
        .flat_map(|r| {
            r.incidents()
                .map(|i| (r.short_name.clone(), i.workload.clone(), i.status.clone()))
        })
        .collect();
    assert_eq!(
        non_ok.len(),
        K,
        "exactly the planned faults fail: {non_ok:?}"
    );

    // Each non-Ok run is one the plan targeted, with the error kind the
    // fault kind dictates.
    for (benchmark, workload, status) in &non_ok {
        let fault = plan
            .faults()
            .iter()
            .find(|f| f.benchmark == *benchmark && f.workload == *workload)
            .unwrap_or_else(|| panic!("unplanned failure: {benchmark}/{workload}: {status:?}"));
        let error = status.error().expect("non-Ok status carries its error");
        match fault.kind {
            FaultKind::PanicAtEvent(_) => {
                assert!(matches!(error, BenchError::Panicked { .. }), "{status:?}")
            }
            FaultKind::ExhaustBudget { .. } => {
                assert!(
                    matches!(error, BenchError::BudgetExceeded { .. }),
                    "{status:?}"
                )
            }
            FaultKind::CorruptEvents { .. } => {
                assert!(
                    matches!(error, BenchError::InvalidProfile { .. }),
                    "{status:?}"
                )
            }
            FaultKind::MalformedWorkload => {
                assert!(
                    matches!(error, BenchError::InvalidInput { .. }),
                    "{status:?}"
                )
            }
            // `scattered_faults` only plans in-process faults; the
            // process-executor kinds live in `scattered_process_faults`.
            FaultKind::WorkerCrash { .. }
            | FaultKind::WorkerHang { .. }
            | FaultKind::ResultCorrupt { .. } => {
                panic!("process fault in an in-process plan: {:?}", fault.kind)
            }
        }
        // Retryable faults are salvaged by the reduced-scale retry; the
        // deterministic-input ones are terminal.
        match fault.kind {
            FaultKind::PanicAtEvent(_) | FaultKind::ExhaustBudget { .. } => {
                assert!(matches!(status, RunStatus::Degraded { .. }), "{status:?}")
            }
            FaultKind::CorruptEvents { .. } | FaultKind::MalformedWorkload => {
                assert!(matches!(status, RunStatus::Failed { .. }), "{status:?}")
            }
            FaultKind::WorkerCrash { .. }
            | FaultKind::WorkerHang { .. }
            | FaultKind::ResultCorrupt { .. } => {
                panic!("process fault in an in-process plan: {:?}", fault.kind)
            }
        }
    }

    // Every benchmark still summarizes its survivors, and the ones that
    // lost runs outright summarize fewer workloads than they attempted.
    assert!(
        results.iter().all(|r| r.characterization.is_some()),
        "every benchmark kept enough runs"
    );
    let failed_benchmarks: Vec<&str> = non_ok
        .iter()
        .filter(|(_, _, s)| matches!(s, RunStatus::Failed { .. }))
        .map(|(b, _, _)| b.as_str())
        .collect();
    assert!(
        !failed_benchmarks.is_empty(),
        "plan includes terminal faults"
    );
    for benchmark in failed_benchmarks {
        let r = results
            .iter()
            .find(|r| r.short_name == benchmark)
            .expect("partial benchmark reports");
        assert!(r.survived() < r.attempted(), "{benchmark}");
    }
}

/// Regression: when the refrate run fails terminally, the summary must
/// carry `refrate_cycles: None` — not a silent zero time.
#[test]
fn failed_refrate_leaves_no_refrate_cycles() {
    // CorruptEvents is not retryable, so the refrate run fails outright.
    let plan = FaultPlan::new(3).inject("xz", "refrate", FaultKind::CorruptEvents { at: 10 });
    let suite = Suite::new(Scale::Test).with_faults(plan);
    let (r, _) = suite.characterize_resilient_metered("xz").unwrap();
    let incident = r.incidents().next().expect("refrate failed");
    assert_eq!(incident.workload, "refrate");
    assert!(matches!(incident.status, RunStatus::Failed { .. }));

    let c = r.characterization.as_ref().expect("other runs survive");
    assert_eq!(
        c.refrate_cycles, None,
        "a lost refrate run must not fabricate a zero time"
    );
}

/// A fault aimed at nothing (unknown benchmark/workload) changes nothing:
/// the sweep matches a fault-free pass.
#[test]
fn misaimed_faults_are_inert() {
    let plan = FaultPlan::new(1)
        .inject("no-such-benchmark", "train", FaultKind::PanicAtEvent(1))
        .inject("mcf", "no-such-workload", FaultKind::MalformedWorkload);
    let suite = Suite::new(Scale::Test).with_faults(plan);
    let (r, _) = suite.characterize_resilient_metered("mcf").unwrap();
    assert!(r.is_complete());
    assert!(r.characterization.is_some());
}
