//! Crash-isolated multi-process sweep execution.
//!
//! Under [`ExecPolicy::Processes`](crate::ExecPolicy::Processes) the
//! suite's sweep executor hands its `(benchmark, workload)` task list to
//! the supervisor in this module, which forks worker *subprocesses* —
//! self-execs of the current binary in a hidden worker mode (see
//! [`maybe_worker`]) — and speaks the line-delimited canonical-JSON
//! protocol of [`crate::protocol`] with them over stdin/stdout pipes.
//!
//! The supervisor provides, on top of the thread pool's determinism
//! guarantees:
//!
//! * **crash isolation** — a worker that aborts (OOM-killed, panicked
//!   through the guard, corrupted its own state) takes down one task
//!   attempt, not the sweep;
//! * **hang detection** — workers send heartbeats
//!   ([`WorkerMsg::Beat`]) while a
//!   task is in flight; a busy worker that falls silent past the
//!   heartbeat timeout is killed and its task redispatched;
//! * **bounded recovery** — each task gets at most
//!   [`ProcessConfig::max_dispatches`] dispatch attempts with doubling
//!   backoff between them; exhaustion degrades the task to
//!   [`RunStatus::Failed`] with a
//!   [`BenchError::Remote`] cause instead of sinking the sweep;
//! * **deterministic budgets** — a task's one budget is the work budget
//!   the worker's configuration carries
//!   ([`alberta_profile::SampleConfig::work_budget`]), counted in
//!   *retired ops*, not wall-clock, so a budget abort fires at the same
//!   instruction on every repetition of the same run, under every
//!   executor.
//!
//! Results are reassembled in canonical order and, for a clean sweep,
//! are bit-identical to serial execution: measurements cross the pipe
//! through the lossless codec in [`crate::protocol`].
//!
//! The supervisor never orphans children: every live worker is killed
//! and reaped when its slot is dropped, including on unwind. A
//! supervisor killed by a signal drops nothing, so each worker also
//! watches its parent and exits within one beat interval of losing it,
//! whatever it is doing.
//!
//! A "hang" here is a silent process: a frozen worker sends no beats.
//! A run that loops forever on a live worker keeps beating, and only
//! the work budget bounds it.

use crate::characterize::{RunStatus, WorkloadRun};
use crate::exec::RunMetrics;
use crate::faults::FaultKind;
use crate::protocol::{
    RemoteStatus, SupervisorMsg, TaskMsg, TaskResult, WorkerConfig, WorkerMsg, PROTOCOL_VERSION,
};
use crate::suite::{run_accounting, Suite, Task, TaskRun};
use crate::{log_error, log_warn};
use alberta_benchmarks::BenchError;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The hidden argv flag that switches a binary into worker mode.
pub(crate) const WORKER_FLAG: &str = "--alberta-worker";

/// Set in every worker's environment; process execution refuses to nest.
const WORKER_ENV: &str = "ALBERTA_WORKER";

/// Supervisor tuning for [`ExecPolicy::Processes`](crate::ExecPolicy::Processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessConfig {
    /// A busy (or still-starting) worker silent for longer than this is
    /// declared hung, killed, and its task redispatched.
    pub heartbeat_timeout_ms: u64,
    /// Maximum dispatch attempts per task (first dispatch plus
    /// redispatches after crashes, hangs, or garbled results). At least
    /// 1; exhaustion fails the task, never the sweep.
    pub max_dispatches: u32,
    /// Backoff before the first redispatch, in milliseconds; doubles
    /// with each further redispatch of the same task.
    pub backoff_ms: u64,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            heartbeat_timeout_ms: 10_000,
            max_dispatches: 3,
            backoff_ms: 50,
        }
    }
}

impl ProcessConfig {
    /// The worker heartbeat interval derived from the timeout: several
    /// beats must fit into one timeout window so a single delayed beat
    /// never reads as a hang.
    pub(crate) fn beat_interval_ms(&self) -> u64 {
        (self.heartbeat_timeout_ms / 8).clamp(5, 500)
    }
}

/// Worker-mode hook. Every binary that can act as a process-pool
/// supervisor must call this first thing in `main` (and custom test
/// harnesses likewise, before running any tests): when the process was
/// spawned with the hidden `WORKER_FLAG` argument, this runs the
/// worker protocol loop over stdin/stdout and exits — it never returns.
/// In a normal invocation it does nothing.
pub fn maybe_worker() {
    if std::env::args().any(|a| a == WORKER_FLAG) {
        let code = worker_main();
        std::process::exit(code);
    }
}

// =====================================================================
// Supervisor
// =====================================================================

/// Runs a task list through a pool of `jobs` supervised worker
/// subprocesses and returns one [`TaskRun`] per task, in input order.
/// Never panics the sweep for worker failures and never blocks forever:
/// every task resolves to a status within a bounded number of dispatch
/// attempts, and silent workers are collected by the heartbeat timeout.
///
/// # Panics
///
/// Panics when called from inside a worker process — process execution
/// does not nest.
pub(crate) fn run_process_tasks(
    tasks: &[Task<'_>],
    mut config: WorkerConfig,
    jobs: usize,
    process: &ProcessConfig,
) -> Vec<TaskRun> {
    assert!(
        std::env::var_os(WORKER_ENV).is_none(),
        "process execution cannot nest inside an alberta worker"
    );
    config.beat_ms = process.beat_interval_ms();
    let epoch = Instant::now();
    let tasks: Vec<TaskSlot> = tasks
        .iter()
        .map(|t| TaskSlot {
            spec_id: t.benchmark.name(),
            short_name: t.benchmark.short_name(),
            workload: t.workload.clone(),
            request: t.request.clone(),
            state: TaskState::Pending,
            dispatches: 0,
            eligible_at: epoch,
            dispatched_at: epoch,
            outcome: None,
        })
        .collect();
    if tasks.is_empty() {
        return Vec::new();
    }
    let timeout_ms = process.heartbeat_timeout_ms;
    let (tx, rx) = mpsc::channel();
    let mut supervisor = Supervisor {
        tasks,
        workers: Vec::new(),
        tx,
        rx,
        config_line: SupervisorMsg::Config(Box::new(config)).encode(),
        epoch,
        timeout: Duration::from_millis(timeout_ms),
        tick: Duration::from_millis((timeout_ms / 4).clamp(10, 250)),
        max_dispatches: process.max_dispatches.max(1),
        backoff_ms: process.backoff_ms,
    };
    let jobs = jobs.clamp(1, supervisor.tasks.len());
    for w in 0..jobs {
        supervisor.workers.push(WorkerSlot::vacant());
        supervisor.spawn_slot(w);
    }
    supervisor.run();
    supervisor.shutdown();
    supervisor
        .tasks
        .into_iter()
        .map(|t| {
            let (status, run, metrics, request) = t.outcome.expect("sweep resolves every task");
            TaskRun {
                spec_id: t.spec_id.to_owned(),
                short_name: t.short_name.to_owned(),
                workload: t.workload,
                status,
                run,
                metrics,
                request,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Pending,
    InFlight,
}

type ResolvedTask = (RunStatus, Option<WorkloadRun>, RunMetrics, Option<String>);

struct TaskSlot {
    /// `&'static` names for rehydrated errors and log lines; the short
    /// name is also the benchmark key sent on the wire.
    spec_id: &'static str,
    short_name: &'static str,
    workload: String,
    /// Originating request label, sent with every dispatch and echoed
    /// back by the worker.
    request: Option<String>,
    state: TaskState,
    /// Dispatch attempts made so far (1-based once dispatched).
    dispatches: u32,
    /// Earliest instant the next dispatch may happen (backoff).
    eligible_at: Instant,
    /// When the latest dispatch was written (wall-clock telemetry).
    dispatched_at: Instant,
    /// Set exactly once, when the task resolves.
    outcome: Option<ResolvedTask>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Spawned, waiting for the protocol handshake.
    Starting,
    /// Handshake done, no task in flight.
    Idle,
    /// Executing the task at this index.
    Busy { task: usize },
    /// Child is gone (or was never spawned).
    Dead,
}

struct WorkerSlot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    state: SlotState,
    /// Last instant any line arrived from this child (the heartbeat).
    last_seen: Instant,
    /// Spawn generation; events from a previous child of this slot are
    /// stale and ignored.
    gen: u64,
    /// Respawns consumed after the initial spawn.
    respawns: u32,
}

impl WorkerSlot {
    fn vacant() -> Self {
        WorkerSlot {
            child: None,
            stdin: None,
            state: SlotState::Dead,
            last_seen: Instant::now(),
            gen: 0,
            respawns: 0,
        }
    }

    /// Kills and reaps the child, if any. Idempotent.
    fn declare_dead(&mut self) {
        // Closing stdin first lets a well-behaved child exit on its own
        // before the kill lands.
        self.stdin = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.state = SlotState::Dead;
    }

    /// Writes one protocol line to the child's stdin.
    fn send(&mut self, line: &str) -> bool {
        match self.stdin.as_mut() {
            Some(stdin) => writeln!(stdin, "{line}")
                .and_then(|_| stdin.flush())
                .is_ok(),
            None => false,
        }
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        // No orphans, even when the supervisor unwinds.
        self.declare_dead();
    }
}

enum Event {
    Line { slot: usize, gen: u64, line: String },
    Eof { slot: usize, gen: u64 },
}

struct Supervisor {
    tasks: Vec<TaskSlot>,
    workers: Vec<WorkerSlot>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    config_line: String,
    epoch: Instant,
    timeout: Duration,
    tick: Duration,
    max_dispatches: u32,
    backoff_ms: u64,
}

impl Supervisor {
    fn run(&mut self) {
        while self.tasks.iter().any(|t| t.outcome.is_none()) {
            self.respawn_dead_slots();
            if self.workers.iter().all(|w| w.state == SlotState::Dead) {
                // No executor left and no respawn budget: the remaining
                // tasks are lost, but the sweep still returns.
                for t in 0..self.tasks.len() {
                    if self.tasks[t].outcome.is_none() {
                        self.fail_task(t, "no live workers remain");
                    }
                }
                break;
            }
            self.dispatch_ready();
            // recv_timeout bounds every wait, so the loop always makes
            // progress: an event, or a tick toward the hang detector.
            match self.rx.recv_timeout(self.tick) {
                Ok(Event::Line { slot, gen, line }) => {
                    if self.event_is_live(slot, gen) {
                        self.workers[slot].last_seen = Instant::now();
                        self.handle_line(slot, &line);
                    }
                }
                Ok(Event::Eof { slot, gen }) => {
                    if self.event_is_live(slot, gen) {
                        self.incident(slot, "exited without delivering a result");
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // We hold a sender, so the channel cannot disconnect.
                Err(RecvTimeoutError::Disconnected) => unreachable!("supervisor keeps a sender"),
            }
            self.collect_hung_workers();
        }
    }

    fn event_is_live(&self, slot: usize, gen: u64) -> bool {
        self.workers[slot].gen == gen && self.workers[slot].state != SlotState::Dead
    }

    /// Spawns (or respawns) a worker child into slot `w`.
    fn spawn_slot(&mut self, w: usize) {
        let slot = &mut self.workers[w];
        slot.gen += 1;
        let gen = slot.gen;
        match spawn_worker_child(w, gen, &self.config_line, &self.tx) {
            Ok((child, stdin)) => {
                slot.child = Some(child);
                slot.stdin = Some(stdin);
                slot.state = SlotState::Starting;
                slot.last_seen = Instant::now();
            }
            Err(e) => {
                log_error!("supervisor", "worker {w}: spawn failed: {e}");
                slot.declare_dead();
            }
        }
    }

    fn respawn_dead_slots(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].state == SlotState::Dead
                && self.workers[w].respawns < self.max_dispatches
            {
                self.workers[w].respawns += 1;
                self.spawn_slot(w);
            }
        }
    }

    /// Hands every eligible pending task to an idle worker.
    fn dispatch_ready(&mut self) {
        let now = Instant::now();
        for w in 0..self.workers.len() {
            if self.workers[w].state != SlotState::Idle {
                continue;
            }
            let Some(t) = self.tasks.iter().position(|t| {
                t.outcome.is_none() && t.state == TaskState::Pending && t.eligible_at <= now
            }) else {
                return;
            };
            self.dispatch(w, t);
        }
    }

    fn dispatch(&mut self, w: usize, t: usize) {
        let task = &mut self.tasks[t];
        task.dispatches += 1;
        task.dispatched_at = Instant::now();
        let line = SupervisorMsg::Task(TaskMsg {
            id: t as u64,
            benchmark: task.short_name.to_owned(),
            workload: task.workload.clone(),
            attempt: task.dispatches,
            request: task.request.clone(),
        })
        .encode();
        if self.workers[w].send(&line) {
            self.workers[w].state = SlotState::Busy { task: t };
            self.workers[w].last_seen = Instant::now();
            self.tasks[t].state = TaskState::InFlight;
        } else {
            // A broken pipe means the child already died; the regular
            // incident path requeues the task and recycles the slot.
            self.tasks[t].state = TaskState::InFlight;
            self.workers[w].state = SlotState::Busy { task: t };
            self.incident(w, "rejected a dispatch (broken pipe)");
        }
    }

    fn handle_line(&mut self, w: usize, line: &str) {
        match WorkerMsg::decode(line) {
            Ok(WorkerMsg::Hello { protocol }) => {
                if protocol != PROTOCOL_VERSION {
                    self.incident(w, "spoke an unexpected protocol revision");
                } else if self.workers[w].state == SlotState::Starting {
                    self.workers[w].state = SlotState::Idle;
                }
            }
            // last_seen was already refreshed; that is all a beat does.
            Ok(WorkerMsg::Beat { .. }) => {}
            Ok(WorkerMsg::Result(result)) => match self.workers[w].state {
                SlotState::Busy { task } if result.id == task as u64 => {
                    self.resolve(w, task, *result);
                }
                _ => self.incident(w, "returned a result for a task it does not own"),
            },
            Err(e) => {
                log_warn!("supervisor", "worker {w}: garbled message: {e}");
                self.incident(w, "sent a garbled message");
            }
        }
    }

    /// Books a finished task and frees its worker.
    fn resolve(&mut self, w: usize, t: usize, result: TaskResult) {
        let task = &mut self.tasks[t];
        let status = result.status.into_status(task.spec_id);
        let metrics = RunMetrics {
            wall_nanos: u64::try_from(task.dispatched_at.elapsed().as_nanos()).unwrap_or(u64::MAX),
            start_nanos: u64::try_from((task.dispatched_at - self.epoch).as_nanos())
                .unwrap_or(u64::MAX),
            worker: w,
            retries: result.retries,
            budget_consumed: result.budget_consumed,
            dispatches: task.dispatches,
        };
        // Book the worker's echo, not the supervisor's copy: a span
        // built from this field proves the label crossed the pipe.
        task.outcome = Some((status, result.run, metrics, result.request));
        self.workers[w].state = SlotState::Idle;
    }

    /// A worker failed (crash, hang, garble, handshake violation): kill
    /// and reap it, and requeue or abandon its in-flight task.
    fn incident(&mut self, w: usize, reason: &str) {
        let state = self.workers[w].state;
        self.workers[w].declare_dead();
        match state {
            SlotState::Busy { task } => {
                // A death with a task attached is already bounded by
                // that task's dispatch budget, so it restores the
                // slot's respawn budget: persistent per-task faults
                // must never exhaust the pool and take untargeted
                // tasks down with them. Only startup and idle deaths —
                // a binary that cannot come up at all — consume the
                // respawn cap.
                self.workers[w].respawns = 0;
                self.requeue(task, reason);
            }
            _ => log_warn!("supervisor", "worker {w} {reason} while idle"),
        }
    }

    /// Requeues a task after a worker incident, or abandons it once its
    /// dispatch budget is exhausted.
    fn requeue(&mut self, t: usize, reason: &str) {
        let task = &mut self.tasks[t];
        task.state = TaskState::Pending;
        if task.dispatches >= self.max_dispatches {
            let reason = format!("worker {reason}");
            self.fail_task(t, &reason);
        } else {
            // Doubling backoff: 1x, 2x, 4x, ... the base interval.
            let shift = task.dispatches.saturating_sub(1).min(16);
            let delay = self.backoff_ms.saturating_mul(1u64 << shift);
            task.eligible_at = Instant::now() + Duration::from_millis(delay);
            log_warn!(
                "supervisor",
                "{}/{}: worker {reason}; redispatching (attempt {} of {})",
                task.short_name,
                task.workload,
                task.dispatches + 1,
                self.max_dispatches
            );
        }
    }

    /// Resolves a task as lost: `RunStatus::Failed` with a
    /// [`BenchError::Remote`] cause describing the executor failure.
    fn fail_task(&mut self, t: usize, reason: &str) {
        let task = &mut self.tasks[t];
        let message = format!(
            "benchmark {} lost workload {:?} to the process executor: {reason}; \
             abandoned after {} dispatch attempt(s)",
            task.short_name,
            task.workload,
            task.dispatches.max(1)
        );
        log_error!("supervisor", "{message}");
        let metrics = RunMetrics {
            wall_nanos: 0,
            start_nanos: u64::try_from((task.dispatched_at - self.epoch).as_nanos())
                .unwrap_or(u64::MAX),
            worker: 0,
            retries: 0,
            budget_consumed: 0,
            dispatches: task.dispatches.max(1),
        };
        let status = RunStatus::Failed {
            error: BenchError::Remote {
                benchmark: task.spec_id,
                retryable: false,
                message,
            },
        };
        // No worker echo exists for an abandoned task; the supervisor's
        // own copy keeps the failure attributable to its request.
        task.outcome = Some((status, None, metrics, task.request.clone()));
    }

    /// Kills busy or still-starting workers that have been silent past
    /// the heartbeat timeout.
    fn collect_hung_workers(&mut self) {
        let now = Instant::now();
        for w in 0..self.workers.len() {
            let silent = matches!(
                self.workers[w].state,
                SlotState::Starting | SlotState::Busy { .. }
            ) && now.duration_since(self.workers[w].last_seen) > self.timeout;
            if silent {
                let reason = format!(
                    "went silent (no heartbeat within {}ms)",
                    self.timeout.as_millis()
                );
                self.incident(w, &reason);
            }
        }
    }

    /// Asks surviving workers to exit; their slots' `Drop` reaps them.
    fn shutdown(&mut self) {
        let line = SupervisorMsg::Shutdown.encode();
        for w in &mut self.workers {
            let _ = w.send(&line);
        }
        for w in &mut self.workers {
            w.declare_dead();
        }
    }
}

/// Spawns one worker child, writes its config line, and starts the
/// reader thread that forwards its stdout lines as events.
fn spawn_worker_child(
    slot: usize,
    gen: u64,
    config_line: &str,
    tx: &Sender<Event>,
) -> std::io::Result<(Child, ChildStdin)> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .arg(WORKER_FLAG)
        .env(WORKER_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");
    if let Err(e) = writeln!(stdin, "{config_line}").and_then(|_| stdin.flush()) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let tx = tx.clone();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines() {
            match line {
                Ok(line) => {
                    if tx.send(Event::Line { slot, gen, line }).is_err() {
                        return;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = tx.send(Event::Eof { slot, gen });
    });
    Ok((child, stdin))
}

// =====================================================================
// Worker
// =====================================================================

/// Writes one protocol line to stdout under the shared gate. A write
/// failure means the supervisor is gone, so the worker just exits.
fn worker_send(gate: &Mutex<()>, line: &str) {
    let _guard = gate.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{line}").and_then(|_| out.flush()).is_err() {
        std::process::exit(0);
    }
}

/// The worker protocol loop. Returns the exit code.
fn worker_main() -> i32 {
    // Taken first, while the supervisor that spawned this process is
    // certainly its parent: the beat thread exits once it is not.
    let supervisor = std::os::unix::process::parent_id();
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let Some(Ok(first)) = lines.next() else {
        eprintln!("alberta worker: no configuration received");
        return 2;
    };
    let config = match SupervisorMsg::decode(&first) {
        Ok(SupervisorMsg::Config(config)) => *config,
        Ok(_) => {
            eprintln!("alberta worker: first message must be the configuration");
            return 2;
        }
        Err(e) => {
            eprintln!("alberta worker: bad configuration: {e}");
            return 2;
        }
    };
    let gate = Arc::new(Mutex::new(()));
    // Hello goes out before the (potentially slow) suite build: from
    // here on the supervisor's hang detector watches this process.
    worker_send(
        &gate,
        &WorkerMsg::Hello {
            protocol: PROTOCOL_VERSION,
        }
        .encode(),
    );
    let current: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    spawn_beat_thread(config.beat_ms, supervisor, &gate, &current);
    let mut suite: Option<Suite> = None;
    for line in lines {
        let Ok(line) = line else {
            return 0; // stdin closed mid-line: supervisor is gone
        };
        match SupervisorMsg::decode(&line) {
            Ok(SupervisorMsg::Task(task)) => {
                *current.lock().unwrap_or_else(|p| p.into_inner()) = Some(task.id);
                let result = run_task(&config, &mut suite, &task, &current, &gate);
                *current.lock().unwrap_or_else(|p| p.into_inner()) = None;
                worker_send(&gate, &WorkerMsg::Result(Box::new(result)).encode());
            }
            Ok(SupervisorMsg::Shutdown) => return 0,
            Ok(SupervisorMsg::Config(_)) => {
                eprintln!("alberta worker: duplicate configuration");
                return 2;
            }
            Err(e) => {
                eprintln!("alberta worker: garbled message: {e}");
                return 2;
            }
        }
    }
    0 // stdin reached EOF: orderly enough
}

/// Emits a heartbeat for the in-flight task every `beat_ms`, and ends
/// the process on the first tick, busy or idle, at which its parent is
/// no longer `supervisor`. A supervisor killed by a signal closes its
/// pipes, which an idle worker reads and a busy one writes, but a worker
/// stalled in an injected hang does neither; reparenting is the one
/// sign it still sees.
fn spawn_beat_thread(
    beat_ms: u64,
    supervisor: u32,
    gate: &Arc<Mutex<()>>,
    current: &Arc<Mutex<Option<u64>>>,
) {
    let beat = Duration::from_millis(beat_ms.max(1));
    let gate = Arc::clone(gate);
    let current = Arc::clone(current);
    std::thread::spawn(move || loop {
        std::thread::sleep(beat);
        if std::os::unix::process::parent_id() != supervisor {
            std::process::exit(0);
        }
        let id = *current.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(id) = id {
            worker_send(&gate, &WorkerMsg::Beat { id }.encode());
        }
    });
}

/// Injects a planned process-level fault for this task, if one fires at
/// this dispatch attempt. Crash and hang sabotage never returns.
fn inject_process_fault(
    config: &WorkerConfig,
    spec_id: &str,
    short_name: &str,
    task: &TaskMsg,
    current: &Mutex<Option<u64>>,
    gate: &Mutex<()>,
) {
    let Some(kind) = config.faults.fault_for(spec_id, short_name, &task.workload) else {
        return;
    };
    let bound = match kind {
        FaultKind::WorkerCrash { attempts, .. }
        | FaultKind::WorkerHang { attempts }
        | FaultKind::ResultCorrupt { attempts } => attempts,
        _ => return,
    };
    if task.attempt > bound {
        return;
    }
    match kind {
        FaultKind::WorkerCrash { clean: true, .. } => std::process::exit(0),
        FaultKind::WorkerCrash { .. } => std::process::abort(),
        FaultKind::WorkerHang { .. } => {
            // Stop heartbeating and stall: the supervisor's hang
            // detector has to collect this process, or, once the
            // supervisor is gone, the beat thread's parent check.
            *current.lock().unwrap_or_else(|p| p.into_inner()) = None;
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        FaultKind::ResultCorrupt { .. } => {
            // A truncated result line: valid framing, garbage payload.
            worker_send(
                gate,
                &format!("{{\"type\":\"result\",\"id\":{},\"status\":", task.id),
            );
            std::process::exit(1);
        }
        _ => unreachable!("bounded by the process-fault match above"),
    }
}

/// Executes one task and shapes its result for the wire.
fn run_task(
    config: &WorkerConfig,
    suite: &mut Option<Suite>,
    task: &TaskMsg,
    current: &Mutex<Option<u64>>,
    gate: &Mutex<()>,
) -> TaskResult {
    let suite = suite.get_or_insert_with(|| Suite::assemble(config));
    let Some(benchmark) = suite.benchmark(&task.benchmark) else {
        return TaskResult {
            id: task.id,
            status: RemoteStatus::Failed {
                error: format!(
                    "no benchmark named {:?} in the worker's suite",
                    task.benchmark
                ),
                retryable: false,
            },
            run: None,
            retries: 0,
            budget_consumed: 0,
            request: task.request.clone(),
        };
    };
    inject_process_fault(
        config,
        benchmark.name(),
        benchmark.short_name(),
        task,
        current,
        gate,
    );
    let (status, run) = suite.guarded_run(benchmark, &task.workload);
    let (retries, budget_consumed) = run_accounting(&status, run.as_ref());
    TaskResult {
        id: task.id,
        status: RemoteStatus::from_status(&status),
        run,
        retries,
        budget_consumed,
        request: task.request.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let config = ProcessConfig::default();
        assert_eq!(config.max_dispatches, 3);
        assert!(config.heartbeat_timeout_ms >= 1_000);
        assert!(config.backoff_ms > 0);
    }

    #[test]
    fn beat_interval_fits_several_beats_per_timeout() {
        let config = ProcessConfig {
            heartbeat_timeout_ms: 10_000,
            ..ProcessConfig::default()
        };
        assert_eq!(config.beat_interval_ms(), 500);
    }
}
