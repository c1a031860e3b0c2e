//! End-to-end guarantees of the crash-isolated process executor: a
//! process-pool sweep is bit-identical to a serial sweep, seeded chaos
//! (worker crashes, hangs, corrupt result lines) is absorbed by
//! redispatch without changing a byte of the results, and persistent
//! executor failures degrade to per-run `Failed` statuses — the
//! supervisor never deadlocks and never loses the sweep.
//!
//! Custom harness (`harness = false` in `Cargo.toml`): the supervisor
//! re-executes this very binary as its workers, so `main` must
//! intercept the hidden worker flag before any test runs — libtest's
//! generated `main` cannot.

use alberta_core::{
    BenchError, Characterization, ExecPolicy, FaultKind, FaultPlan, ProcessConfig, RunStatus,
    SampleConfig, Scale, Suite,
};

/// Supervisor tuning for the chaos tests: hang detection and redispatch
/// backoff fast enough that a killed worker costs milliseconds, not the
/// production 10-second default.
fn fast_failover() -> ProcessConfig {
    ProcessConfig {
        heartbeat_timeout_ms: 3_000,
        backoff_ms: 10,
        ..ProcessConfig::default()
    }
}

fn assert_bit_identical(serial: &Characterization, process: &Characterization) {
    assert_eq!(serial.spec_id, process.spec_id);
    assert_eq!(
        serial.topdown.mu_g_v.to_bits(),
        process.topdown.mu_g_v.to_bits(),
        "{}: μg(V) diverged",
        serial.short_name
    );
    assert_eq!(
        serial.coverage.mu_g_m.to_bits(),
        process.coverage.mu_g_m.to_bits(),
        "{}: μg(M) diverged",
        serial.short_name
    );
    assert_eq!(
        serial.refrate_cycles.map(f64::to_bits),
        process.refrate_cycles.map(f64::to_bits),
        "{}: refrate cycles diverged",
        serial.short_name
    );
    assert_eq!(serial.runs.len(), process.runs.len());
    for (rs, rp) in serial.runs.iter().zip(&process.runs) {
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

/// Chaos absorption: a sweep under seeded single-shot process faults
/// (crash, hang, corrupt result, clean exit) matches the clean serial
/// sweep run for run — the redispatches show up only in the stripped
/// scheduling telemetry.
fn chaos_process_sweep_matches_clean_serial() {
    let clean = Suite::new(Scale::Test)
        .with_exec(ExecPolicy::serial())
        .characterize_all_resilient_metered();

    let suite = Suite::new(Scale::Test)
        .with_exec(ExecPolicy::processes_with_jobs(4))
        .with_process_config(fast_failover());
    let plan = suite.scattered_process_faults(0xC0FFEE, 4);
    assert_eq!(plan.len(), 4);
    let chaos = suite.with_faults(plan).characterize_all_resilient_metered();

    assert_eq!(clean.len(), chaos.len());
    let mut redispatched = 0usize;
    for ((c, _), (x, metrics)) in clean.iter().zip(&chaos) {
        assert_eq!(
            c.statuses, x.statuses,
            "{}: single-shot chaos must not change any run status",
            c.short_name
        );
        match (&c.characterization, &x.characterization) {
            (Some(cs), Some(cp)) => assert_bit_identical(cs, cp),
            (None, None) => {}
            _ => panic!("{}: survivor summaries diverged", c.short_name),
        }
        redispatched += metrics.iter().filter(|m| m.dispatches > 1).count();
    }
    // The faults really fired: each cost at least one extra dispatch.
    // (A fault can burn more than one task's dispatch — a crashing
    // worker may take a second in-flight task down with it — so the
    // floor is the plan size, not an exact count.)
    assert!(
        redispatched >= 4,
        "expected >= 4 redispatched tasks, saw {redispatched}"
    );
}

/// Persistent executor failures: every process fault kind, bound to
/// fire on all attempts, exhausts the dispatch budget and degrades to
/// `RunStatus::Failed` with a remote `BenchError` naming the loss — the
/// sweep itself completes and keeps the untargeted survivors.
fn persistent_faults_degrade_to_failed_statuses() {
    let suite = Suite::new(Scale::Test)
        .with_exec(ExecPolicy::processes_with_jobs(2))
        .with_process_config(ProcessConfig {
            heartbeat_timeout_ms: 1_000,
            backoff_ms: 10,
            ..ProcessConfig::default()
        });
    let workloads: Vec<String> = suite.benchmark("mcf").expect("mcf exists").workload_names();
    assert!(workloads.len() >= 4, "need four workloads to target");
    // One workload per failure shape: abort mid-task, hang with a dead
    // heartbeat, truncated result line, clean exit without a result.
    let kinds = [
        FaultKind::WorkerCrash {
            attempts: u32::MAX,
            clean: false,
        },
        FaultKind::WorkerHang { attempts: u32::MAX },
        FaultKind::ResultCorrupt { attempts: u32::MAX },
        FaultKind::WorkerCrash {
            attempts: u32::MAX,
            clean: true,
        },
    ];
    let mut plan = FaultPlan::new(7);
    for (workload, kind) in workloads.iter().zip(kinds) {
        plan = plan.inject("mcf", workload.clone(), kind);
    }

    let (result, metrics) = suite
        .with_faults(plan)
        .characterize_resilient_metered("mcf")
        .expect("mcf exists");

    assert_eq!(result.statuses.len(), workloads.len());
    for (i, report) in result.statuses.iter().enumerate() {
        if i < kinds.len() {
            let RunStatus::Failed { error } = &report.status else {
                panic!(
                    "mcf/{}: expected Failed under a persistent fault, got {:?}",
                    report.workload, report.status
                );
            };
            assert!(
                matches!(error, BenchError::Remote { .. }),
                "mcf/{}: expected a remote executor error, got {error:?}",
                report.workload
            );
            let text = error.to_string();
            assert!(
                text.contains("lost workload") && text.contains("dispatch attempt"),
                "mcf/{}: error does not describe the executor loss: {text}",
                report.workload
            );
            assert_eq!(
                metrics[i].dispatches, 3,
                "mcf/{}: dispatch budget not exhausted",
                report.workload
            );
        } else {
            assert!(
                matches!(report.status, RunStatus::Ok),
                "mcf/{}: untargeted run must survive, got {:?}",
                report.workload,
                report.status
            );
            assert_eq!(metrics[i].dispatches, 1, "mcf/{}", report.workload);
        }
    }
    // Survivors still summarize (the "n of m workloads" degradation):
    // at least one untargeted workload made it through.
    let survivors = workloads.len() - kinds.len();
    if survivors > 0 {
        let c = result
            .characterization
            .as_ref()
            .expect("survivors must produce a summary");
        assert_eq!(c.runs.len(), survivors);
    }
}

/// Retry/dispatch accounting across the process path: a single-shot
/// crash costs exactly one redispatch (`dispatches == 2`, no in-worker
/// retries), and a clean run costs one dispatch — so
/// `RunMetrics::attempts` stays consistent with the in-process paths.
fn single_shot_crash_accounting_is_exact() {
    let suite = Suite::new(Scale::Test)
        .with_exec(ExecPolicy::processes_with_jobs(2))
        .with_process_config(fast_failover());
    let plan = FaultPlan::new(11).inject(
        "mcf",
        "train",
        FaultKind::WorkerCrash {
            attempts: 1,
            clean: false,
        },
    );
    let (result, metrics) = suite
        .with_faults(plan)
        .characterize_resilient_metered("mcf")
        .expect("mcf exists");
    for (report, m) in result.statuses.iter().zip(&metrics) {
        assert!(
            matches!(report.status, RunStatus::Ok),
            "mcf/{}: single-shot crash must be absorbed, got {:?}",
            report.workload,
            report.status
        );
        if report.workload == "train" {
            assert_eq!(m.dispatches, 2, "crash costs exactly one redispatch");
            assert_eq!(m.retries, 0, "no in-worker retry was involved");
            assert_eq!(m.attempts(), 2);
        } else {
            assert_eq!(m.dispatches, 1, "mcf/{}", report.workload);
            assert_eq!(m.attempts(), 1, "mcf/{}", report.workload);
        }
    }
}

/// A user work budget fails the same runs the same way under every
/// policy. The 1M-op budget rides the worker configuration's sampling
/// section, not the fault plan, and the retry keeps it: it fits every
/// gcc run but trips mcf's refrate run first in canonical order (and 87
/// of the suite's 216 runs in all), each for good.
fn failing_strict_sweep_errs_identically_under_every_policy() {
    let statuses: Vec<Vec<_>> = [
        ExecPolicy::serial(),
        ExecPolicy::with_jobs(4),
        ExecPolicy::processes_with_jobs(2),
    ]
    .into_iter()
    .map(|policy| {
        Suite::new(Scale::Test)
            .with_exec(policy)
            .with_process_config(fast_failover())
            .with_sampling(SampleConfig::default().with_work_budget(1_000_000))
            .characterize_all_resilient_metered()
            .into_iter()
            .flat_map(|(r, _)| {
                r.statuses.into_iter().map(move |report| {
                    let run = format!("{}/{}", r.short_name, report.workload);
                    (run, rendered(&report.status))
                })
            })
            .collect()
    })
    .collect();
    let (first, status) = statuses[0]
        .iter()
        .find(|(_, status)| status.0 != "ok")
        .expect("the work budget trips some run");
    assert_eq!(first, "mcf/refrate", "the first failure in canonical order");
    assert_eq!(status.0, "failed", "a budget the retry keeps loses the run");
    assert_eq!(statuses[0], statuses[1], "threads diverged from serial");
    assert_eq!(statuses[0], statuses[2], "processes diverged from serial");
}

/// A status as reports render it: kind, error text, and retry scale.
fn rendered(status: &RunStatus) -> (&'static str, Option<String>, Option<Scale>) {
    match status {
        RunStatus::Ok => ("ok", None, None),
        RunStatus::Degraded { error, retried_at } => {
            ("degraded", Some(error.to_string()), Some(*retried_at))
        }
        RunStatus::Failed { error } => ("failed", Some(error.to_string()), None),
    }
}

/// The in-process fault kinds — malformed workloads, budget
/// exhaustion, corrupt events, panics — behave the same inside process
/// workers as in a serial sweep: the same status, error text, and retry
/// scale per run, and bit-identical survivor summaries.
fn in_process_faults_match_serial_under_processes() {
    let plan = Suite::new(Scale::Test).scattered_faults(0xBEEF, 6);
    let sweep = |policy| {
        Suite::new(Scale::Test)
            .with_exec(policy)
            .with_process_config(fast_failover())
            .with_faults(plan.clone())
            .characterize_all_resilient_metered()
            .into_iter()
            .map(|(r, _)| r)
            .collect::<Vec<_>>()
    };
    let serial = sweep(ExecPolicy::serial());
    let process = sweep(ExecPolicy::processes_with_jobs(2));
    assert_eq!(serial.len(), process.len());
    let mut incidents = 0;
    for (s, p) in serial.iter().zip(&process) {
        assert_eq!(s.statuses.len(), p.statuses.len(), "{}", s.short_name);
        for (rs, rp) in s.statuses.iter().zip(&p.statuses) {
            assert_eq!(rs.workload, rp.workload, "{}: run order", s.short_name);
            assert_eq!(
                rendered(&rs.status),
                rendered(&rp.status),
                "{}/{}: status diverged",
                s.short_name,
                rs.workload
            );
        }
        match (&s.characterization, &p.characterization) {
            (Some(cs), Some(cp)) => assert_bit_identical(cs, cp),
            (None, None) => {}
            _ => panic!("{}: survivor summaries diverged", s.short_name),
        }
        incidents += s.incidents().count();
        assert_eq!(s.incidents().count(), p.incidents().count());
    }
    assert_eq!(incidents, 6, "every planned fault leaves an incident");
}

fn main() {
    // Worker-mode hook first: the sweeps below re-execute this binary
    // with the hidden worker flag.
    alberta_core::maybe_worker();

    let tests: &[(&str, fn())] = &[
        (
            "chaos_process_sweep_matches_clean_serial",
            chaos_process_sweep_matches_clean_serial,
        ),
        (
            "persistent_faults_degrade_to_failed_statuses",
            persistent_faults_degrade_to_failed_statuses,
        ),
        (
            "single_shot_crash_accounting_is_exact",
            single_shot_crash_accounting_is_exact,
        ),
        (
            "failing_strict_sweep_errs_identically_under_every_policy",
            failing_strict_sweep_errs_identically_under_every_policy,
        ),
        (
            "in_process_faults_match_serial_under_processes",
            in_process_faults_match_serial_under_processes,
        ),
    ];
    // libtest-style filtering so `cargo test --test process_exec NAME`
    // and plain positional filters still work.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let mut ran = 0usize;
    for (name, test) in tests {
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        eprintln!("test {name} ...");
        test();
        eprintln!("test {name} ... ok");
        ran += 1;
    }
    println!("process_exec: {ran} test(s) passed");
}
