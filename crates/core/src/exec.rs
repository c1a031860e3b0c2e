//! The parallel execution layer for suite characterization.
//!
//! The paper's methodology is embarrassingly parallel: every
//! `(benchmark, workload)` run is independent of every other. This module
//! supplies the machinery the [`Suite`](crate::Suite) entry points use to
//! exploit that — an [`ExecPolicy`] selecting serial, multi-threaded, or
//! multi-process execution, and a deterministic run-queue that fans
//! indexed tasks out to `std::thread` workers and reassembles the
//! results in submission order. The multi-process scheduler itself —
//! supervisor, worker protocol, heartbeats, crash recovery — lives in
//! [`crate::process`]; this module only defines the policy and the
//! shared metrics record.
//!
//! # Determinism
//!
//! Parallel execution is *bit-identical* to serial execution. Three
//! properties make that hold:
//!
//! 1. every run builds its own [`alberta_profile::Profiler`], so no
//!    measurement state is shared between concurrent runs;
//! 2. workers pull work by claiming the next unstarted index from a
//!    shared atomic cursor — scheduling order varies run to run, but the
//!    *result* of each task depends only on its inputs;
//! 3. results are slotted back by task index, so callers always observe
//!    the canonical (Table II / workload-list) order regardless of which
//!    worker finished first.
//!
//! Worker panics are not allowed to poison the queue: the run-queue
//! requires infallible task closures, and the suite's sweep executor
//! wraps each run in a panic guard that converts an unwind into a typed
//! failure result before it reaches this layer.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Observability record for one `(benchmark, workload)` run: what the
/// execution layer can see about it, independent of the measured
/// characterization numbers.
///
/// The fields split into two classes:
///
/// * **volatile telemetry** — [`wall_nanos`](RunMetrics::wall_nanos),
///   [`start_nanos`](RunMetrics::start_nanos), and
///   [`worker`](RunMetrics::worker) vary run to run and between serial
///   and parallel sweeps. Report serialization strips them by default so
///   the published artifact stays bit-identical regardless of the
///   [`ExecPolicy`];
/// * **deterministic accounting** —
///   [`retries`](RunMetrics::retries) and
///   [`budget_consumed`](RunMetrics::budget_consumed) depend only on the
///   run's inputs (scale, fault plan, sampling configuration), so they
///   are safe to publish and diff across commits.
///
/// [`dispatches`](RunMetrics::dispatches) sits in between: it is
/// deterministic given a fault plan and supervisor configuration, but it
/// describes the *scheduling* of the run rather than the run itself, so
/// report serialization treats it as telemetry and strips it by default
/// — a chaos sweep that recovers every task publishes the same artifact
/// as a clean one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Wall-clock duration of the run in nanoseconds (volatile).
    pub wall_nanos: u64,
    /// Wall-clock start of the run, in nanoseconds since the sweep
    /// began — lets trace exporters place runs on a shared timeline
    /// (volatile).
    pub start_nanos: u64,
    /// Index of the worker thread (or worker process slot) that executed
    /// the run; 0 under [`ExecPolicy::Serial`] (volatile).
    pub worker: usize,
    /// Retry attempts made for this run (0 for a clean first run). A run
    /// is retried at most once.
    pub retries: u32,
    /// Retired micro-ops the run consumed — against
    /// [`alberta_profile::SampleConfig::work_budget`] when one is set.
    /// For a failed run this is the count at the abort when known
    /// (budget overruns report it) and 0 otherwise.
    pub budget_consumed: u64,
    /// Times the task was handed to an executor: always 1 for
    /// in-process execution, and the number of dispatch attempts
    /// (first dispatch plus redispatches after crashes, hangs, or
    /// garbled results) under [`ExecPolicy::Processes`].
    pub dispatches: u32,
}

impl RunMetrics {
    /// Total executions attempted for this run: dispatch attempts plus
    /// in-run retries. A clean run reports 1; a degraded run (one
    /// retry) reports 2; a process task that crashed once and succeeded
    /// on redispatch reports 2. Consistent across the in-process and
    /// process executors.
    pub fn attempts(&self) -> u32 {
        self.dispatches.max(1).saturating_add(self.retries)
    }
}

/// How suite characterization executes its independent runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecPolicy {
    /// One run at a time, on the calling thread. The default.
    #[default]
    Serial,
    /// Runs fan out to a pool of worker threads over a shared run-queue.
    /// Results are reassembled in canonical order, so output is
    /// bit-identical to [`ExecPolicy::Serial`].
    Parallel {
        /// Number of worker threads.
        jobs: NonZeroUsize,
    },
    /// Runs fan out to supervised worker *subprocesses* (self-execs of
    /// the current binary in a hidden worker mode) over a line-delimited
    /// canonical-JSON pipe. Results are reassembled in canonical order,
    /// so a clean sweep is bit-identical to [`ExecPolicy::Serial`]; on
    /// top of that the supervisor adds crash isolation, heartbeat-based
    /// hang detection, and bounded redispatch — see `crate::process`.
    ///
    /// Only the [`Suite`](crate::Suite) entry points can execute under
    /// this policy (a subprocess needs the full suite configuration to
    /// rebuild the run); generic closures fall back to the thread pool.
    Processes {
        /// Number of worker processes.
        jobs: NonZeroUsize,
    },
}

impl ExecPolicy {
    /// The serial policy.
    pub fn serial() -> Self {
        ExecPolicy::Serial
    }

    /// The parallel policy with one worker per available hardware
    /// thread (falling back to one worker when the parallelism cannot
    /// be determined).
    pub fn parallel() -> Self {
        let jobs = std::thread::available_parallelism()
            .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero"));
        ExecPolicy::Parallel { jobs }
    }

    /// A policy with exactly `jobs` workers: [`ExecPolicy::Serial`] for
    /// `jobs <= 1`, [`ExecPolicy::Parallel`] otherwise.
    pub fn with_jobs(jobs: usize) -> Self {
        match NonZeroUsize::new(jobs) {
            Some(jobs) if jobs.get() > 1 => ExecPolicy::Parallel { jobs },
            _ => ExecPolicy::Serial,
        }
    }

    /// The process-pool policy with one worker subprocess per available
    /// hardware thread (falling back to one worker when the parallelism
    /// cannot be determined).
    pub fn processes() -> Self {
        let jobs = std::thread::available_parallelism()
            .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero"));
        ExecPolicy::Processes { jobs }
    }

    /// The process-pool policy with exactly `jobs` worker subprocesses
    /// (clamped up to 1 — even a single supervised worker buys crash
    /// isolation, unlike a single thread).
    pub fn processes_with_jobs(jobs: usize) -> Self {
        let jobs = NonZeroUsize::new(jobs.max(1)).expect("clamped to >= 1");
        ExecPolicy::Processes { jobs }
    }

    /// The number of concurrent runs under this policy.
    pub fn jobs(&self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel { jobs } | ExecPolicy::Processes { jobs } => jobs.get(),
        }
    }
}

/// Runs `task` over every element of `tasks` under `policy` and returns
/// the results in input order, each paired with a [`RunMetrics`] whose
/// volatile telemetry (wall-clock, worker id) the scheduler fills in.
/// The deterministic accounting fields are left at their defaults for
/// the caller to complete — the scheduler cannot know what a task
/// retried or consumed.
///
/// In parallel mode each worker repeatedly steals the next unclaimed
/// index from the shared cursor, so a long-running task (gcc's 21
/// workloads, lbm's 32) never blocks progress on the rest of the queue.
/// Each worker batches its `(index, result)` pairs locally and merges
/// them under the lock once, when the queue is empty.
///
/// `task` must be infallible and panic-free: failures must be encoded in
/// `R` (the suite's executor wraps runs in a panic guard first). If a
/// task panics anyway, the panic is propagated to the caller after all
/// workers have drained — never swallowed, and never left as a poisoned
/// queue.
///
/// [`ExecPolicy::Processes`] degrades to the thread pool here: an
/// arbitrary closure cannot cross a process boundary, so only the
/// suite's executor (whose tasks are fully described by the suite
/// configuration) gets true process execution via [`crate::process`].
pub(crate) fn run_indexed_metered<T, R, F>(
    policy: ExecPolicy,
    tasks: &[T],
    task: F,
) -> Vec<(R, RunMetrics)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let epoch = Instant::now();
    let meter = |worker: usize, index: usize, t: &T| -> (R, RunMetrics) {
        let start = Instant::now();
        let start_nanos = u64::try_from((start - epoch).as_nanos()).unwrap_or(u64::MAX);
        let result = task(index, t);
        let metrics = RunMetrics {
            wall_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            start_nanos,
            worker,
            dispatches: 1,
            ..RunMetrics::default()
        };
        (result, metrics)
    };
    let workers = policy.jobs().min(tasks.len());
    if workers <= 1 {
        tasks
            .iter()
            .enumerate()
            .map(|(i, t)| meter(0, i, t))
            .collect()
    } else {
        let cursor = AtomicUsize::new(0);
        type Slot<R> = (usize, (R, RunMetrics));
        let slots: Mutex<Vec<Slot<R>>> = Mutex::new(Vec::with_capacity(tasks.len()));
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let meter = &meter;
                let cursor = &cursor;
                let slots = &slots;
                scope.spawn(move || {
                    let mut local: Vec<Slot<R>> = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= tasks.len() {
                            break;
                        }
                        local.push((index, meter(worker, index, &tasks[index])));
                    }
                    let mut slots = match slots.lock() {
                        Ok(slots) => slots,
                        // Another worker panicked while merging; the scope
                        // will re-raise its panic, so just deliver ours.
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    slots.extend(local);
                });
            }
        });
        let mut results = slots.into_inner().unwrap_or_else(|p| p.into_inner());
        debug_assert_eq!(results.len(), tasks.len());
        results.sort_unstable_by_key(|(index, _)| *index);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_jobs_clamps_to_serial() {
        assert_eq!(ExecPolicy::with_jobs(0), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::with_jobs(1), ExecPolicy::Serial);
        assert_eq!(ExecPolicy::with_jobs(4).jobs(), 4);
    }

    #[test]
    fn processes_with_jobs_keeps_single_worker() {
        // One supervised subprocess still buys crash isolation, so the
        // process policy never clamps down to Serial.
        assert_eq!(ExecPolicy::processes_with_jobs(0).jobs(), 1);
        assert_eq!(ExecPolicy::processes_with_jobs(1).jobs(), 1);
        assert_eq!(ExecPolicy::processes_with_jobs(4).jobs(), 4);
        assert!(matches!(
            ExecPolicy::processes_with_jobs(4),
            ExecPolicy::Processes { .. }
        ));
    }

    #[test]
    fn attempts_counts_first_run_plus_retries() {
        // Clean run: one dispatch, no retries.
        let clean = RunMetrics {
            dispatches: 1,
            ..RunMetrics::default()
        };
        assert_eq!(clean.attempts(), 1);
        // Degraded run: one dispatch, one in-run retry.
        let degraded = RunMetrics {
            dispatches: 1,
            retries: 1,
            ..RunMetrics::default()
        };
        assert_eq!(degraded.attempts(), 2);
        // Process task redispatched after a crash, then retried in-run.
        let redispatched = RunMetrics {
            dispatches: 2,
            retries: 1,
            ..RunMetrics::default()
        };
        assert_eq!(redispatched.attempts(), 3);
        // A default (never-executed) record still reports one attempt.
        assert_eq!(RunMetrics::default().attempts(), 1);
    }

    #[test]
    fn parallel_default_uses_available_parallelism() {
        let policy = ExecPolicy::parallel();
        assert!(policy.jobs() >= 1);
    }

    /// The results of a metered run, without the metrics.
    fn values<R: Copy>(results: &[(R, RunMetrics)]) -> Vec<R> {
        results.iter().map(|(r, _)| *r).collect()
    }

    #[test]
    fn run_indexed_preserves_input_order() {
        let tasks: Vec<u64> = (0..257).collect();
        let serial = run_indexed_metered(ExecPolicy::Serial, &tasks, |i, t| (i as u64) * 1000 + t);
        let parallel = run_indexed_metered(ExecPolicy::with_jobs(8), &tasks, |i, t| {
            (i as u64) * 1000 + t
        });
        assert_eq!(values(&serial), values(&parallel));
        assert_eq!(serial[42].0, 42 * 1000 + 42);
    }

    #[test]
    fn run_indexed_handles_fewer_tasks_than_workers() {
        let tasks = vec![7u64];
        let one = run_indexed_metered(ExecPolicy::with_jobs(16), &tasks, |_, t| t * 2);
        assert_eq!(values(&one), vec![14]);
        let empty: Vec<u64> = Vec::new();
        assert!(run_indexed_metered(ExecPolicy::with_jobs(4), &empty, |_, t| *t).is_empty());
    }

    #[test]
    fn metered_results_match_and_carry_telemetry() {
        let tasks: Vec<u64> = (0..64).collect();
        let serial = run_indexed_metered(ExecPolicy::Serial, &tasks, |_, t| t * 3);
        let parallel = run_indexed_metered(ExecPolicy::with_jobs(4), &tasks, |_, t| t * 3);
        assert_eq!(values(&serial), values(&parallel));
        for (_, m) in &serial {
            assert_eq!(m.worker, 0, "serial runs execute on the calling thread");
            assert_eq!(m.retries, 0);
            assert_eq!(m.budget_consumed, 0);
        }
        assert!(
            parallel.iter().all(|(_, m)| m.worker < 4),
            "worker ids stay within the pool"
        );
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let tasks: Vec<u64> = (0..32).collect();
        let caught = std::panic::catch_unwind(|| {
            run_indexed_metered(ExecPolicy::with_jobs(4), &tasks, |_, t| {
                assert!(*t != 13, "injected worker panic");
                *t
            })
        });
        assert!(caught.is_err(), "panic must reach the caller");
    }
}
