//! The execution-layer determinism guarantee, end to end: a parallel
//! sweep must be bit-identical to a serial sweep of the same suite under
//! an injected fault plan, the `RunStatus` sequence included.

use alberta_core::{Characterization, ExecPolicy, FaultKind, FaultPlan, RunStatus, Scale, Suite};

fn assert_bit_identical(serial: &Characterization, parallel: &Characterization) {
    assert_eq!(serial.spec_id, parallel.spec_id);
    assert_eq!(
        serial.topdown.mu_g_v.to_bits(),
        parallel.topdown.mu_g_v.to_bits(),
        "{}: μg(V) diverged",
        serial.short_name
    );
    assert_eq!(
        serial.coverage.mu_g_m.to_bits(),
        parallel.coverage.mu_g_m.to_bits(),
        "{}: μg(M) diverged",
        serial.short_name
    );
    assert_eq!(
        serial.refrate_cycles.map(f64::to_bits),
        parallel.refrate_cycles.map(f64::to_bits),
        "{}: refrate cycles diverged",
        serial.short_name
    );
    assert_eq!(serial.runs.len(), parallel.runs.len());
    for (rs, rp) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(rs.workload, rp.workload, "{}: run order", serial.short_name);
        assert_eq!(
            rs.checksum, rp.checksum,
            "{}/{}: checksum",
            serial.short_name, rs.workload
        );
        assert_eq!(
            rs.report.cycles.to_bits(),
            rp.report.cycles.to_bits(),
            "{}/{}: cycles",
            serial.short_name,
            rs.workload
        );
        assert_eq!(rs.work, rp.work, "{}/{}", serial.short_name, rs.workload);
        assert_eq!(
            rs.paths.folded(),
            rp.paths.folded(),
            "{}/{}: collapsed call stacks diverged",
            serial.short_name,
            rs.workload
        );
    }
}

#[test]
fn parallel_resilient_sweep_matches_serial_under_faults() {
    // The fault plan mixes all four kinds (panic, budget, corrupt
    // events, malformed workload), so the RunStatus sequence covers Ok,
    // Degraded, and Failed — and must be identical either way.
    let sweep = |policy: ExecPolicy| {
        let suite = Suite::new(Scale::Test);
        let plan = suite.scattered_faults(0xBEEF, 6);
        suite
            .with_faults(plan)
            .with_exec(policy)
            .characterize_all_resilient_metered()
            .into_iter()
            .map(|(r, _)| r)
            .collect::<Vec<_>>()
    };
    let serial = sweep(ExecPolicy::serial());
    let parallel = sweep(ExecPolicy::with_jobs(4));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.statuses, p.statuses,
            "{}: RunStatus sequence",
            s.short_name
        );
        match (&s.characterization, &p.characterization) {
            (Some(cs), Some(cp)) => assert_bit_identical(cs, cp),
            (None, None) => {}
            _ => panic!("{}: survivor summaries diverged", s.short_name),
        }
    }
    // The plan actually bit: some statuses are non-Ok in both sweeps.
    let incidents: usize = serial.iter().map(|r| r.incidents().count()).sum();
    assert_eq!(incidents, 6);
}

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
