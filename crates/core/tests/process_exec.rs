//! End-to-end guarantees of the crash-isolated process executor: seeded
//! chaos (worker crashes, hangs, corrupt result lines) is absorbed by
//! redispatch without changing a byte of the committed report, faulty
//! sweeps come out the same under every execution policy, and
//! persistent executor failures degrade to per-run `Failed` statuses —
//! the supervisor never deadlocks and never loses the sweep.
//!
//! Custom harness (`harness = false` in `Cargo.toml`): the supervisor
//! re-executes this very binary as its workers, so `main` must
//! intercept the hidden worker flag before any test runs — libtest's
//! generated `main` cannot. The orphan test re-executes it once more, as
//! a supervisor it can kill (`HUNG_SUPERVISOR_FLAG`).

use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use alberta_core::{
    BenchError, Characterization, ExecPolicy, FaultKind, FaultPlan, ProcessConfig,
    ResilientCharacterization, RunStatus, SampleConfig, Scale, Suite,
};
use alberta_report::SuiteReport;

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

fn assert_bit_identical(serial: &Characterization, other: &Characterization) {
    assert_eq!(serial.spec_id, other.spec_id);
    assert_eq!(
        serial.topdown.mu_g_v.to_bits(),
        other.topdown.mu_g_v.to_bits(),
        "{}: μg(V) diverged",
        serial.short_name
    );
    assert_eq!(
        serial.coverage.mu_g_m.to_bits(),
        other.coverage.mu_g_m.to_bits(),
        "{}: μg(M) diverged",
        serial.short_name
    );
    assert_eq!(
        serial.refrate_cycles.map(f64::to_bits),
        other.refrate_cycles.map(f64::to_bits),
        "{}: refrate cycles diverged",
        serial.short_name
    );
    assert_eq!(serial.runs.len(), other.runs.len());
    for (rs, ro) in serial.runs.iter().zip(&other.runs) {
        assert_eq!(rs.workload, ro.workload, "{}: run order", serial.short_name);
        assert_eq!(
            rs.checksum, ro.checksum,
            "{}/{}: checksum",
            serial.short_name, rs.workload
        );
        assert_eq!(
            rs.report.cycles.to_bits(),
            ro.report.cycles.to_bits(),
            "{}/{}: cycles",
            serial.short_name,
            rs.workload
        );
        assert_eq!(rs.work, ro.work, "{}/{}", serial.short_name, rs.workload);
        assert_eq!(
            rs.paths.folded(),
            ro.paths.folded(),
            "{}/{}: collapsed call stacks diverged",
            serial.short_name,
            rs.workload
        );
    }
}

/// Chaos absorption: a sweep under seeded single-shot process faults
/// (crash, hang, corrupt result, clean exit) writes the committed clean
/// serial report, `BENCH_test.json`, byte for byte — the redispatches
/// show up only in the stripped scheduling telemetry. CI's report job
/// checks the same of `bench-report --exec processes --chaos`.
fn chaos_process_sweep_matches_clean_serial() {
    let suite = Suite::new(Scale::Test)
        .with_exec(ExecPolicy::processes_with_jobs(4))
        .with_process_config(fast_failover());
    let plan = suite.scattered_process_faults(0xC0FFEE, 4);
    assert_eq!(plan.len(), 4);
    let chaos = suite.with_faults(plan).characterize_all_resilient_metered();

    let mut report = SuiteReport::from_resilient(Scale::Test, &chaos);
    report.strip_telemetry();
    let (golden, json) = (include_str!("../../../BENCH_test.json"), report.to_json());
    if let Some((i, (g, c))) = golden
        .lines()
        .zip(json.lines())
        .enumerate()
        .find(|(_, (g, c))| g != c)
    {
        panic!(
            "BENCH_test.json line {}: golden {g:?}, chaos sweep {c:?}",
            i + 1
        );
    }
    assert_eq!(golden.len(), json.len(), "chaos sweep's report length");
    // The faults really fired: each cost at least one extra dispatch.
    // (A fault can burn more than one task's dispatch — a crashing
    // worker may take a second in-flight task down with it — so the
    // floor is the plan size, not an exact count.)
    let redispatched = chaos
        .iter()
        .flat_map(|(_, metrics)| metrics)
        .filter(|m| m.dispatches > 1)
        .count();
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

/// A sweep under the 0xBEEF plan: six faults of the in-process kinds —
/// malformed workloads, budget exhaustion, corrupt events, panics — so
/// its statuses cover Ok, Degraded and Failed.
fn faulty_sweep(policy: ExecPolicy) -> Vec<ResilientCharacterization> {
    let plan = Suite::new(Scale::Test).scattered_faults(0xBEEF, 6);
    Suite::new(Scale::Test)
        .with_exec(policy)
        .with_process_config(fast_failover())
        .with_faults(plan)
        .characterize_all_resilient_metered()
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

/// The serial sweep of the 0xBEEF plan, the reference of both tests
/// below: swept once per harness run, whichever test asks first.
fn faulty_serial_sweep() -> &'static [ResilientCharacterization] {
    static SERIAL: OnceLock<Vec<ResilientCharacterization>> = OnceLock::new();
    SERIAL.get_or_init(|| faulty_sweep(ExecPolicy::serial()))
}

/// `other` has the serial sweep's status, error text and retry scale
/// per run, and bit-identical survivor summaries; and every planned
/// fault left an incident.
fn assert_matches_faulty_serial(other: &[ResilientCharacterization]) {
    let serial = faulty_serial_sweep();
    assert_eq!(serial.len(), other.len());
    for (s, o) in serial.iter().zip(other) {
        assert_eq!(s.statuses.len(), o.statuses.len(), "{}", s.short_name);
        for (rs, ro) in s.statuses.iter().zip(&o.statuses) {
            assert_eq!(rs.workload, ro.workload, "{}: run order", s.short_name);
            assert_eq!(
                rendered(&rs.status),
                rendered(&ro.status),
                "{}/{}: status diverged",
                s.short_name,
                rs.workload
            );
        }
        match (&s.characterization, &o.characterization) {
            (Some(cs), Some(co)) => assert_bit_identical(cs, co),
            (None, None) => {}
            _ => panic!("{}: survivor summaries diverged", s.short_name),
        }
    }
    let incidents: usize = serial.iter().map(|r| r.incidents().count()).sum();
    assert_eq!(incidents, 6, "every planned fault leaves an incident");
}

/// The in-process fault kinds behave the same on worker threads as in
/// a serial sweep, down to the `RunStatus` sequence itself.
fn in_process_faults_match_serial_under_threads() {
    let threads = faulty_sweep(ExecPolicy::with_jobs(4));
    for (s, t) in faulty_serial_sweep().iter().zip(&threads) {
        assert_eq!(
            s.statuses, t.statuses,
            "{}: RunStatus sequence",
            s.short_name
        );
    }
    assert_matches_faulty_serial(&threads);
}

/// The in-process fault kinds behave the same inside process workers
/// as in a serial sweep: errors cross the process boundary as text, so
/// the statuses compare as reports render them.
fn in_process_faults_match_serial_under_processes() {
    assert_matches_faulty_serial(&faulty_sweep(ExecPolicy::processes_with_jobs(2)));
}

/// The hidden argv flag that makes this binary the supervisor of
/// `supervise_a_hung_worker`.
const HUNG_SUPERVISOR_FLAG: &str = "--hung-supervisor";

/// The argv flag a worker process carries (`alberta_core`'s hidden
/// worker flag).
const WORKER_FLAG: &[u8] = b"--alberta-worker";

/// Supervisor mode: one worker process, whose first task stalls in an
/// injected hang, under a heartbeat timeout of ten minutes, so that
/// only a kill ends this process. The beat interval still clamps to
/// 500 ms.
fn supervise_a_hung_worker() {
    let suite = Suite::new(Scale::Test)
        .with_exec(ExecPolicy::processes_with_jobs(1))
        .with_process_config(ProcessConfig {
            heartbeat_timeout_ms: 600_000,
            ..ProcessConfig::default()
        });
    let first = suite.benchmark("mcf").expect("mcf exists").workload_names()[0].clone();
    let plan = FaultPlan::new(1).inject("mcf", first, FaultKind::WorkerHang { attempts: 1 });
    let _ = suite
        .with_faults(plan)
        .characterize_resilient_metered("mcf");
}

/// Whether `pid` is a live worker process. A zombie's command line
/// reads empty, so an exited worker that nobody reaped is not live.
fn is_live_worker(pid: u32) -> bool {
    std::fs::read(format!("/proc/{pid}/cmdline"))
        .is_ok_and(|cmdline| cmdline.split(|&b| b == 0).any(|arg| arg == WORKER_FLAG))
}

/// A live worker process that `parent` spawned, read from
/// `/proc/<parent>/task/<tid>/children`.
fn live_worker_of(parent: u32) -> Option<u32> {
    std::fs::read_dir(format!("/proc/{parent}/task"))
        .ok()?
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("children")).ok())
        .flat_map(|text| {
            text.split_whitespace()
                .filter_map(|pid| pid.parse().ok())
                .collect::<Vec<u32>>()
        })
        .find(|&pid| is_live_worker(pid))
}

/// The orphan test's two processes, killed on every way out of it, so
/// that neither outlives the test.
struct HungPair {
    supervisor: Child,
    worker: Option<u32>,
}

impl Drop for HungPair {
    fn drop(&mut self) {
        let _ = self.supervisor.kill();
        let _ = self.supervisor.wait();
        if let Some(pid) = self.worker.filter(|&pid| is_live_worker(pid)) {
            let _ = Command::new("kill")
                .arg("-KILL")
                .arg(pid.to_string())
                .status();
        }
    }
}

/// A worker does not outlive its supervisor. A supervisor killed by a
/// signal runs no cleanup, and a worker stalled in a hang neither reads
/// its closed stdin nor writes a beat; it still exits within a beat
/// interval, because its parent changed. The worker is reparented to an
/// ancestor that may never reap it, so a zombie counts as gone.
fn hung_worker_exits_when_its_supervisor_is_killed() {
    let mut pair = HungPair {
        supervisor: Command::new(std::env::current_exe().expect("test binary path"))
            .arg(HUNG_SUPERVISOR_FLAG)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn the supervisor"),
        worker: None,
    };
    let started = Instant::now();
    while pair.worker.is_none() {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the supervisor spawned no worker"
        );
        std::thread::sleep(Duration::from_millis(20));
        pair.worker = live_worker_of(pair.supervisor.id());
    }
    // The worker must exit whatever it is doing; this wait only makes
    // the hang the state under test. The task line follows the worker's
    // handshake within milliseconds, so a second later the worker has
    // read it and stalled, and no longer reads its stdin: a worker that
    // has not read its task yet would exit on the closed pipe alone.
    std::thread::sleep(Duration::from_secs(1));
    let worker = pair.worker.expect("found above");
    assert!(is_live_worker(worker), "the hung worker exited on its own");
    pair.supervisor.kill().expect("SIGKILL the supervisor");
    pair.supervisor.wait().expect("reap the supervisor");
    let killed = Instant::now();
    while is_live_worker(worker) {
        assert!(
            killed.elapsed() < Duration::from_secs(5),
            "worker {worker} outlived its supervisor by 5 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() {
    // Worker-mode hook first: the sweeps below re-execute this binary
    // with the hidden worker flag.
    alberta_core::maybe_worker();
    if std::env::args().any(|a| a == HUNG_SUPERVISOR_FLAG) {
        supervise_a_hung_worker();
        return;
    }

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
            "in_process_faults_match_serial_under_threads",
            in_process_faults_match_serial_under_threads,
        ),
        (
            "in_process_faults_match_serial_under_processes",
            in_process_faults_match_serial_under_processes,
        ),
        (
            "hung_worker_exits_when_its_supervisor_is_killed",
            hung_worker_exits_when_its_supervisor_is_killed,
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
