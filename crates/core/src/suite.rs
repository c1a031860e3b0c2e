//! The [`Suite`] orchestrator.

use crate::characterize::{
    run_workload_with, summarize_runs, ResilientCharacterization, RunReport, RunStatus, WorkloadRun,
};
use crate::exec::{run_indexed_metered, ExecPolicy, RunMetrics};
use crate::faults::{FaultKind, FaultPlan};
use crate::process::{run_process_tasks, ProcessConfig};
use crate::protocol::WorkerConfig;
use crate::sampling::SamplingPolicy;
use alberta_benchmarks::{panic_message, suite as build_benchmarks, BenchError, Benchmark};
use alberta_profile::SampleConfig;
use alberta_uarch::TopDownModel;
use alberta_workloads::{Scale, SeededRng};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Error from suite-level operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// No benchmark with the given short name.
    UnknownBenchmark {
        /// The name that failed to resolve.
        name: String,
    },
    /// The benchmark exists but has no workload with the given name.
    UnknownWorkload {
        /// The benchmark the lookup ran against (short name).
        benchmark: String,
        /// The workload name that failed to resolve.
        workload: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownBenchmark { name } => {
                write!(f, "no benchmark named {name:?} in the suite")
            }
            CoreError::UnknownWorkload {
                benchmark,
                workload,
            } => {
                write!(
                    f,
                    "benchmark {benchmark} has no workload named {workload:?}"
                )
            }
        }
    }
}

impl Error for CoreError {}

/// One executed task of a characterization — what
/// [`Suite::characterize_tasks_labeled`] returns per task: the resolved
/// benchmark names, the run's fate, its measurements (for survivors),
/// and the execution layer's metrics.
#[derive(Debug)]
pub struct TaskRun {
    /// SPEC-style id, e.g. `505.mcf_r`.
    pub spec_id: String,
    /// Short name, e.g. `mcf`.
    pub short_name: String,
    /// Workload name.
    pub workload: String,
    /// The run's fate.
    pub status: RunStatus,
    /// Measurements, for survivors.
    pub run: Option<WorkloadRun>,
    /// Execution-layer observability for the run.
    pub metrics: RunMetrics,
    /// The originating request label, echoed back through whichever
    /// execution layer ran the task (for [`ExecPolicy::Processes`],
    /// through the worker pipe). `None` for unlabeled tasks.
    pub request: Option<String>,
}

/// One task of a labeled characterization
/// ([`Suite::characterize_tasks_labeled`]): a benchmark/workload pair
/// plus the service request label that asked for it, carried through
/// execution and echoed on the resulting [`TaskRun`].
#[derive(Debug, Clone)]
pub struct LabeledTask {
    /// Benchmark short name or SPEC-style id.
    pub benchmark: String,
    /// Workload name.
    pub workload: String,
    /// Originating request label, if any.
    pub request: Option<String>,
}

/// One resolved unit of work for the sweep executor: a benchmark of the
/// suite's stored set, one of its workloads, and the request label to
/// echo on the resulting [`TaskRun`].
pub(crate) struct Task<'a> {
    pub(crate) benchmark: &'a dyn Benchmark,
    pub(crate) workload: String,
    pub(crate) request: Option<String>,
}

/// The full benchmark suite plus the measurement configuration.
pub struct Suite {
    benchmarks: Vec<Box<dyn Benchmark>>,
    model: TopDownModel,
    sampling: SampleConfig,
    policy: SamplingPolicy,
    scale: Scale,
    faults: FaultPlan,
    exec: ExecPolicy,
    process: ProcessConfig,
}

impl Suite {
    /// Builds the suite at a scale with the reference machine model.
    ///
    /// The execution policy defaults to [`ExecPolicy::Serial`] unless the
    /// `ALBERTA_JOBS` environment variable requests a worker count (the
    /// CI knob that forces the parallel runner on for a whole test run);
    /// [`Suite::with_exec`] overrides either.
    ///
    /// # Panics
    ///
    /// Panics when `ALBERTA_JOBS` is set to something that is not a
    /// thread count, or `ALBERTA_LOG` to something that is not a log
    /// level — a misconfigured environment must be loud, not silently
    /// serial or silent.
    pub fn new(scale: Scale) -> Self {
        let exec = ExecPolicy::from_env()
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_default();
        // Resolve `ALBERTA_LOG` up front: a bad value fails here, not at
        // the first supervisor warning.
        crate::log::max_level();
        Suite {
            benchmarks: build_benchmarks(scale),
            model: TopDownModel::reference(),
            sampling: SampleConfig::default(),
            policy: SamplingPolicy::Full,
            scale,
            faults: FaultPlan::default(),
            exec,
            process: ProcessConfig::default(),
        }
    }

    /// Assembles the suite a process worker runs its tasks on from the
    /// configuration the supervisor shipped. The worker corrupts its own
    /// workloads as the fault plan asks. Always executes serially: a
    /// worker is itself one unit of a larger sweep.
    pub(crate) fn assemble(config: &WorkerConfig) -> Self {
        let mut suite = Suite {
            benchmarks: build_benchmarks(config.scale),
            model: TopDownModel::new(config.machine, config.predictor),
            sampling: config.sampling,
            policy: config.policy,
            scale: config.scale,
            faults: config.faults.clone(),
            exec: ExecPolicy::Serial,
            process: ProcessConfig::default(),
        };
        if let Some(corrupted) = suite.malformed_benchmarks() {
            suite.benchmarks = corrupted;
        }
        suite
    }

    /// Overrides the execution policy (serial vs parallel workers).
    /// Parallel execution produces bit-identical results — see
    /// [`crate::exec`] for the determinism argument.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// The execution policy characterizations run under.
    pub fn exec(&self) -> ExecPolicy {
        self.exec
    }

    /// Overrides the process-pool supervisor configuration (heartbeat
    /// timeout, dispatch budget, backoff, deterministic deadline). Only
    /// consulted under [`ExecPolicy::Processes`].
    pub fn with_process_config(mut self, process: ProcessConfig) -> Self {
        self.process = process;
        self
    }

    /// The process-pool supervisor configuration.
    pub fn process_config(&self) -> ProcessConfig {
        self.process
    }

    /// Overrides the microarchitecture model (predictor/latency ablations).
    pub fn with_model(mut self, model: TopDownModel) -> Self {
        self.model = model;
        self
    }

    /// Overrides the event-sampling configuration.
    pub fn with_sampling(mut self, sampling: SampleConfig) -> Self {
        self.sampling = sampling;
        self
    }

    /// Overrides the measurement policy: full per-run measurement (the
    /// default) or phase-sampled estimation from clustered intervals.
    /// The policy applies to every run, retries included.
    pub fn with_sampling_policy(mut self, policy: SamplingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The measurement policy characterizations run under.
    pub fn sampling_policy(&self) -> SamplingPolicy {
        self.policy
    }

    /// Installs a fault plan. Every characterization entry point applies
    /// it: planned faults surface as non-`Ok` [`RunStatus`]es, never as
    /// an error.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The installed fault plan (empty by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The scale this suite was built at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The benchmarks, in Table II order.
    pub fn benchmarks(&self) -> &[Box<dyn Benchmark>] {
        &self.benchmarks
    }

    /// Looks a benchmark up by short name (`"mcf"`) or SPEC id
    /// (`"505.mcf_r"`).
    pub fn benchmark(&self, name: &str) -> Option<&dyn Benchmark> {
        find(&self.benchmarks, name)
    }

    /// [`Suite::benchmark`], with an unknown name as an error.
    fn resolve(&self, name: &str) -> Result<&dyn Benchmark, CoreError> {
        self.benchmark(name)
            .ok_or_else(|| CoreError::UnknownBenchmark {
                name: name.to_owned(),
            })
    }

    /// Characterizes the whole suite in Table II order, with per-run
    /// fault tolerance and observability. Each benchmark's resilient
    /// characterization is paired with one [`RunMetrics`] per attempted
    /// workload, aligned with its
    /// [`statuses`](ResilientCharacterization::statuses).
    ///
    /// This never fails and never panics: each workload run is guarded,
    /// gets a [`RunStatus`], and summaries are computed over the
    /// surviving runs only. The installed [`FaultPlan`] is applied (it is
    /// how the degradation paths are exercised deterministically). Retry
    /// policy: a run failing with a [retryable](BenchError::is_retryable)
    /// error — a caught panic or a work-budget overrun — is retried once
    /// on a freshly built benchmark at the next scale down (same scale at
    /// [`Scale::Test`]) with no injected faults; success downgrades the
    /// run to [`RunStatus::Degraded`] instead of [`RunStatus::Failed`].
    ///
    /// Under a parallel [`ExecPolicy`] every `(benchmark, workload)` pair
    /// is fanned out to the worker pool as one unit of work, so a long
    /// benchmark (gcc's 21 workloads, lbm's 32) never serializes the
    /// sweep; results are reassembled in canonical Table II order and
    /// are bit-identical to the serial sweep.
    pub fn characterize_all_resilient_metered(
        &self,
    ) -> Vec<(ResilientCharacterization, Vec<RunMetrics>)> {
        self.sweep(self.benchmarks.iter().map(|b| b.as_ref()))
    }

    /// [`Suite::characterize_all_resilient_metered`] of a single
    /// benchmark.
    ///
    /// # Errors
    ///
    /// Only [`CoreError::UnknownBenchmark`] — run failures are reported
    /// in the per-run statuses, never as an error.
    pub fn characterize_resilient_metered(
        &self,
        name: &str,
    ) -> Result<(ResilientCharacterization, Vec<RunMetrics>), CoreError> {
        let mut runs = self.sweep([self.resolve(name)?]);
        Ok(runs.pop().expect("one benchmark yields one result"))
    }

    /// Executes an explicit list of `(benchmark, workload)` tasks —
    /// names resolved like [`Suite::benchmark`] — under this suite's
    /// execution policy and returns one [`TaskRun`] per task, in input
    /// order. Each run is guarded, fault-plan-aware and retried like a
    /// sweep's, so per-run failures are reported in the returned
    /// statuses, never as an error. This is
    /// the entry the characterization service uses to execute an
    /// arbitrary subset of the suite's runs; because each task depends
    /// only on its inputs, the results are bit-identical across
    /// execution policies and across any partitioning of the list.
    ///
    /// Each task may carry the label of the service request that asked
    /// for it, and the returned [`TaskRun`]s echo the label as it came
    /// back through the execution layer — for [`ExecPolicy::Processes`],
    /// across the worker pipe. Labels never influence execution, only
    /// attribution.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownBenchmark`] or [`CoreError::UnknownWorkload`]
    /// when a task names something the suite does not have — resolution
    /// happens up front, before anything executes.
    pub fn characterize_tasks_labeled(
        &self,
        tasks: &[LabeledTask],
    ) -> Result<Vec<TaskRun>, CoreError> {
        let tasks = tasks
            .iter()
            .map(|task| {
                let benchmark = self.resolve(&task.benchmark)?;
                if !benchmark.workload_names().contains(&task.workload) {
                    return Err(CoreError::UnknownWorkload {
                        benchmark: benchmark.short_name().to_owned(),
                        workload: task.workload.clone(),
                    });
                }
                Ok(Task {
                    benchmark,
                    workload: task.workload.clone(),
                    request: task.request.clone(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.execute(&tasks))
    }

    /// Runs every workload of `benchmarks` through the executor and
    /// groups the runs by benchmark.
    fn sweep<'a>(
        &'a self,
        benchmarks: impl IntoIterator<Item = &'a dyn Benchmark>,
    ) -> Vec<(ResilientCharacterization, Vec<RunMetrics>)> {
        let tasks: Vec<Task<'_>> = benchmarks
            .into_iter()
            .flat_map(|benchmark| {
                benchmark
                    .workload_names()
                    .into_iter()
                    .map(move |workload| Task {
                        benchmark,
                        workload,
                        request: None,
                    })
            })
            .collect();
        group_by_benchmark(self.execute(&tasks))
    }

    /// The sweep executor every entry point funnels through: runs
    /// `tasks` under this suite's execution policy and returns one
    /// [`TaskRun`] per task, in input order. Every run resolves to a
    /// status — a failure never stops the queue.
    fn execute(&self, tasks: &[Task<'_>]) -> Vec<TaskRun> {
        if matches!(self.exec, ExecPolicy::Processes { .. }) {
            // Workers rebuild and corrupt their own benchmark sets; the
            // supervisor only needs the stored set for task names.
            return run_process_tasks(tasks, self.worker_config(), self.exec.jobs(), &self.process);
        }
        // Corruption mutates workloads, so it runs on a rebuilt suite —
        // the stored benchmarks stay pristine for later sweeps.
        let rebuilt = self.malformed_benchmarks();
        let runs = run_indexed_metered(self.exec, tasks, |_, task| {
            let benchmark = match &rebuilt {
                Some(set) => find(set, task.benchmark.name()).expect("rebuilt suites are complete"),
                None => task.benchmark,
            };
            self.guarded_run(benchmark, &task.workload)
        });
        runs.into_iter()
            .zip(tasks)
            .map(|(((status, run), mut metrics), task)| {
                (metrics.retries, metrics.budget_consumed) = run_accounting(&status, run.as_ref());
                TaskRun {
                    spec_id: task.benchmark.name().to_owned(),
                    short_name: task.benchmark.short_name().to_owned(),
                    workload: task.workload.clone(),
                    status,
                    run,
                    metrics,
                    request: task.request.clone(),
                }
            })
            .collect()
    }

    /// When the fault plan corrupts stored workloads, rebuilds the suite
    /// and applies the corruption; otherwise `None` — the pristine
    /// stored benchmarks can be shared as-is.
    fn malformed_benchmarks(&self) -> Option<Vec<Box<dyn Benchmark>>> {
        self.faults
            .faults()
            .iter()
            .any(|f| f.kind == FaultKind::MalformedWorkload)
            .then(|| {
                let mut rebuilt = build_benchmarks(self.scale);
                for benchmark in &mut rebuilt {
                    let (spec_id, short_name) = (benchmark.name(), benchmark.short_name());
                    for workload in benchmark.workload_names() {
                        if self.faults.fault_for(spec_id, short_name, &workload)
                            == Some(FaultKind::MalformedWorkload)
                        {
                            benchmark.inject_malformed(&workload, self.faults.seed());
                        }
                    }
                }
                rebuilt
            })
    }

    /// One workload run — the per-run unit of both the in-process
    /// executor and the process worker: it applies the fault plan and
    /// retries retryable failures. A panic that escapes the per-run guard
    /// fails this run alone.
    pub(crate) fn guarded_run(
        &self,
        benchmark: &dyn Benchmark,
        workload: &str,
    ) -> (RunStatus, Option<WorkloadRun>) {
        catch_unwind(AssertUnwindSafe(|| self.resilient_run(benchmark, workload))).unwrap_or_else(
            |payload| {
                let error = BenchError::Panicked {
                    benchmark: benchmark.name(),
                    workload: workload.to_owned(),
                    message: panic_message(payload.as_ref()),
                };
                (RunStatus::Failed { error }, None)
            },
        )
    }

    /// The worker-side configuration describing this suite's runs — what
    /// the process supervisor ships to each worker subprocess. The
    /// supervisor fills in the heartbeat interval from its
    /// [`ProcessConfig`].
    fn worker_config(&self) -> WorkerConfig {
        WorkerConfig {
            scale: self.scale,
            sampling: self.sampling,
            policy: self.policy,
            machine: *self.model.config(),
            predictor: self.model.predictor(),
            faults: self.faults.clone(),
            beat_ms: 0,
        }
    }

    /// One workload's resilient run: apply any planned per-run fault,
    /// run, and retry retryable failures once at reduced scale. Returns
    /// the run's fate and, for survivors, its measurements.
    fn resilient_run(
        &self,
        benchmark: &dyn Benchmark,
        workload: &str,
    ) -> (RunStatus, Option<WorkloadRun>) {
        let (spec_id, short_name) = (benchmark.name(), benchmark.short_name());
        let mut sampling = self.sampling;
        if let Some(kind) = self.faults.fault_for(spec_id, short_name, workload) {
            if let Some(fault) = FaultPlan::profiler_fault(kind) {
                sampling = sampling.with_fault(fault);
            }
            if let FaultKind::ExhaustBudget { budget } = kind {
                sampling = sampling.with_work_budget(budget);
            }
        }
        match run_workload_with(benchmark, workload, &self.model, sampling, &self.policy) {
            Ok(run) => (RunStatus::Ok, Some(run)),
            Err(error) if error.is_retryable() => {
                // Budget trips and caught panics: degradations the sweep
                // can survive.
                let retried_at = self.scale.reduced().unwrap_or(self.scale);
                match self.retry_run(spec_id, workload, retried_at) {
                    Some(run) => (RunStatus::Degraded { error, retried_at }, Some(run)),
                    None => (RunStatus::Failed { error }, None),
                }
            }
            // Validation failures and malformed inputs are not
            // retryable: the run is lost for good.
            Err(error) => (RunStatus::Failed { error }, None),
        }
    }

    /// One retry on a freshly built benchmark: regenerated (uncorrupted)
    /// workloads, no injected profiler faults. The user's own sampling
    /// configuration is kept — a budget that the full-scale run overran
    /// may well fit the reduced inputs.
    fn retry_run(&self, spec_id: &str, workload: &str, scale: Scale) -> Option<WorkloadRun> {
        let fresh = build_benchmarks(scale);
        let benchmark = fresh.iter().find(|b| b.name() == spec_id)?;
        run_workload_with(
            benchmark.as_ref(),
            workload,
            &self.model,
            self.sampling,
            &self.policy,
        )
        .ok()
    }

    /// Builds a deterministic plan of `count` faults scattered over
    /// distinct `(benchmark, workload)` runs of this suite, cycling
    /// through the fault kinds. Useful for exercising the resilient
    /// pipeline end to end: the same `seed` always sabotages the same
    /// runs the same way.
    ///
    /// Malformed-workload faults are only assigned to benchmarks that
    /// support corruption (their [`Benchmark::inject_malformed`] hook is
    /// overridden), so every planned fault produces a non-`Ok` status.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of runs in the suite.
    pub fn scattered_faults(&self, seed: u64, count: usize) -> FaultPlan {
        const MALFORMABLE: [&str; 3] = ["mcf", "deepsjeng", "xalancbmk"];
        let mut targets: Vec<(String, String)> = Vec::new();
        for b in &self.benchmarks {
            for w in b.workload_names() {
                targets.push((b.short_name().to_owned(), w));
            }
        }
        assert!(
            count <= targets.len(),
            "cannot scatter {count} faults over {} runs",
            targets.len()
        );
        let mut rng = SeededRng::new(seed);
        rng.shuffle(&mut targets);
        let mut plan = FaultPlan::new(seed);
        for (kind_index, (benchmark, workload)) in targets.into_iter().take(count).enumerate() {
            let kinds = [
                FaultKind::PanicAtEvent(40 + 7 * kind_index as u64),
                FaultKind::ExhaustBudget {
                    budget: 64 + kind_index as u64,
                },
                FaultKind::CorruptEvents {
                    at: 25 + 5 * kind_index as u64,
                },
                FaultKind::MalformedWorkload,
            ];
            let mut kind = kinds[kind_index % kinds.len()];
            if kind == FaultKind::MalformedWorkload && !MALFORMABLE.contains(&benchmark.as_str()) {
                kind = kinds[(kind_index + 1) % kinds.len()];
            }
            plan = plan.inject(benchmark, workload, kind);
        }
        plan
    }

    /// Builds a deterministic plan of `count` *recoverable* process-level
    /// faults — worker crashes, hangs, and garbled results with
    /// `attempts: 1`, so each fires on the first dispatch of its run and
    /// the redispatch succeeds — scattered over distinct runs of this
    /// suite. A resilient process sweep under such a plan exercises
    /// every supervisor recovery path yet still publishes the same
    /// report artifact as a clean sweep.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of runs in the suite.
    pub fn scattered_process_faults(&self, seed: u64, count: usize) -> FaultPlan {
        let mut targets: Vec<(String, String)> = Vec::new();
        for b in &self.benchmarks {
            for w in b.workload_names() {
                targets.push((b.short_name().to_owned(), w));
            }
        }
        assert!(
            count <= targets.len(),
            "cannot scatter {count} faults over {} runs",
            targets.len()
        );
        let mut rng = SeededRng::new(seed);
        rng.shuffle(&mut targets);
        let mut plan = FaultPlan::new(seed);
        for (kind_index, (benchmark, workload)) in targets.into_iter().take(count).enumerate() {
            let kinds = [
                FaultKind::WorkerCrash {
                    attempts: 1,
                    clean: false,
                },
                FaultKind::WorkerHang { attempts: 1 },
                FaultKind::ResultCorrupt { attempts: 1 },
                FaultKind::WorkerCrash {
                    attempts: 1,
                    clean: true,
                },
            ];
            plan = plan.inject(benchmark, workload, kinds[kind_index % kinds.len()]);
        }
        plan
    }
}

impl fmt::Debug for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Suite")
            .field("benchmarks", &self.benchmarks.len())
            .field("scale", &self.scale)
            .field("exec", &self.exec)
            .finish()
    }
}

/// Looks a benchmark up in `set` by short name or SPEC id.
fn find<'a>(set: &'a [Box<dyn Benchmark>], name: &str) -> Option<&'a dyn Benchmark> {
    set.iter()
        .map(|b| b.as_ref())
        .find(|b| b.short_name() == name || b.name() == name)
}

/// Fills the deterministic accounting fields of a run's [`RunMetrics`]
/// from its fate: retry attempts made, and the retired-op budget the run
/// consumed. A `Failed` run with a retryable error *was* retried (the
/// retry just failed too), so it counts one retry.
pub(crate) fn run_accounting(status: &RunStatus, run: Option<&WorkloadRun>) -> (u32, u64) {
    let retries = match status {
        RunStatus::Ok => 0,
        RunStatus::Degraded { .. } => 1,
        RunStatus::Failed { error } => u32::from(error.is_retryable()),
    };
    let consumed = run.map(|r| r.report.retired_ops).unwrap_or_else(|| {
        match status.error() {
            Some(BenchError::BudgetExceeded { retired_ops, .. }) => *retired_ops,
            // The abort point of other failures is not recorded.
            _ => 0,
        }
    });
    (retries, consumed)
}

/// Groups executed tasks by benchmark, in task order: each run of
/// consecutive tasks of one benchmark becomes one resilient
/// characterization — statuses and metrics aligned with the tasks, the
/// summary computed over the survivors.
fn group_by_benchmark(runs: Vec<TaskRun>) -> Vec<(ResilientCharacterization, Vec<RunMetrics>)> {
    let mut groups: Vec<(ResilientCharacterization, Vec<RunMetrics>, Vec<WorkloadRun>)> =
        Vec::new();
    for task in runs {
        let open = groups.last().map(|(group, ..)| group.spec_id.as_str());
        if open != Some(task.spec_id.as_str()) {
            let group = ResilientCharacterization {
                spec_id: task.spec_id,
                short_name: task.short_name,
                statuses: Vec::new(),
                characterization: None,
            };
            groups.push((group, Vec::new(), Vec::new()));
        }
        let (group, metrics, survivors) = groups.last_mut().expect("a group is open");
        group.statuses.push(RunReport {
            workload: task.workload,
            status: task.status,
        });
        metrics.push(task.metrics);
        survivors.extend(task.run);
    }
    groups
        .into_iter()
        .map(|(mut group, metrics, survivors)| {
            group.characterization = summarize_runs(&group.spec_id, &group.short_name, survivors);
            (group, metrics)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fifteen_benchmarks() {
        let s = Suite::new(Scale::Test);
        assert_eq!(s.benchmarks().len(), 15);
        assert_eq!(s.scale(), Scale::Test);
    }

    #[test]
    fn lookup_by_both_names() {
        let s = Suite::new(Scale::Test);
        assert!(s.benchmark("mcf").is_some());
        assert!(s.benchmark("505.mcf_r").is_some());
        assert!(s.benchmark("nope").is_none());
    }

    #[test]
    fn unknown_benchmark_errors() {
        let s = Suite::new(Scale::Test);
        let err = s.characterize_resilient_metered("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn resilient_without_faults_is_all_ok_and_matches_strict() {
        let s = Suite::new(Scale::Test);
        let (r, _) = s.characterize_resilient_metered("xz").unwrap();
        assert!(r.is_complete());
        assert_eq!(r.survived(), r.attempted());
        assert_eq!(r.incidents().count(), 0);
        let c = r.characterization.expect("all runs survived");
        // The strict unit: each workload measured once, with no fault
        // plan and no retry.
        let xz = s.benchmark("xz").unwrap();
        let strict: Vec<WorkloadRun> = xz
            .workload_names()
            .iter()
            .map(|w| run_workload_with(xz, w, &s.model, s.sampling, &s.policy).unwrap())
            .collect();
        let strict = summarize_runs(xz.name(), xz.short_name(), strict).unwrap();
        assert_eq!(c.topdown.mu_g_v.to_bits(), strict.topdown.mu_g_v.to_bits());
        assert_eq!(c.runs.len(), strict.runs.len());
    }

    #[test]
    fn malformed_fault_fails_the_run_without_retry() {
        let plan = FaultPlan::new(11).inject("mcf", "alberta.2", FaultKind::MalformedWorkload);
        let s = Suite::new(Scale::Test).with_faults(plan);
        let (r, _) = s.characterize_resilient_metered("mcf").unwrap();
        assert_eq!(r.attempted() - r.survived(), 1);
        let incident = r.incidents().next().unwrap();
        assert_eq!(incident.workload, "alberta.2");
        match &incident.status {
            RunStatus::Failed { error } => {
                assert!(
                    matches!(error, BenchError::InvalidInput { .. }),
                    "{error:?}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!((r.survived(), r.attempted()), (8, 9));
        let c = r.characterization.expect("eight survivors");
        assert!(
            c.run("alberta.2").is_none(),
            "failed run must not enter summaries"
        );
        assert_eq!(c.workload_count(), 8);
    }

    #[test]
    fn retryable_faults_degrade_instead_of_failing() {
        let plan = FaultPlan::new(0)
            .inject("xz", "train", FaultKind::ExhaustBudget { budget: 64 })
            .inject("xz", "refrate", FaultKind::PanicAtEvent(30));
        let s = Suite::new(Scale::Test).with_faults(plan);
        let (r, _) = s.characterize_resilient_metered("xz").unwrap();
        assert_eq!(r.survived(), r.attempted(), "retries salvage both runs");
        assert!(!r.is_complete(), "but they are not Ok");
        let degraded: Vec<_> = r.incidents().collect();
        assert_eq!(degraded.len(), 2);
        for incident in degraded {
            match &incident.status {
                RunStatus::Degraded { error, retried_at } => {
                    assert!(error.is_retryable());
                    assert_eq!(*retried_at, Scale::Test, "Test has no smaller scale");
                }
                other => panic!("expected Degraded, got {other:?}"),
            }
        }
        // Survivors include the retried runs, so none is lost.
        assert_eq!(
            r.characterization.as_ref().unwrap().workload_count(),
            r.attempted()
        );
    }

    #[test]
    fn corrupt_events_fault_is_caught_by_validation() {
        let plan = FaultPlan::new(0).inject("leela", "train", FaultKind::CorruptEvents { at: 20 });
        let s = Suite::new(Scale::Test).with_faults(plan);
        let (r, _) = s.characterize_resilient_metered("leela").unwrap();
        let incident = r.incidents().next().unwrap();
        assert!(
            matches!(
                incident.status.error(),
                Some(BenchError::InvalidProfile { .. })
            ),
            "{:?}",
            incident.status
        );
    }

    #[test]
    fn scattered_faults_are_deterministic_and_distinct() {
        let s = Suite::new(Scale::Test);
        let a = s.scattered_faults(42, 6);
        let b = s.scattered_faults(42, 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let mut targets: Vec<_> = a
            .faults()
            .iter()
            .map(|f| (f.benchmark.clone(), f.workload.clone()))
            .collect();
        targets.sort();
        targets.dedup();
        assert_eq!(targets.len(), 6, "targets must be distinct runs");
        assert_ne!(a, s.scattered_faults(43, 6));
    }

    #[test]
    fn characterize_one_benchmark_end_to_end() {
        let s = Suite::new(Scale::Test);
        let (r, _) = s.characterize_resilient_metered("exchange2").unwrap();
        assert!(r.is_complete(), "{:?}", r.statuses);
        let c = r.characterization.expect("every run survived");
        assert_eq!(c.spec_id, "548.exchange2_r");
        assert!(c.runs.len() >= 12, "train + refrate + 10 alberta");
        // Every run's ratios sum to one.
        for run in &c.runs {
            let sum: f64 = run.report.ratios.as_array().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}", run.workload);
        }
        assert!(c.topdown.mu_g_v >= 1.0);
        assert!(c.coverage.mu_g_m > 0.0);
        assert!(c.refrate_cycles.expect("refrate survived") > 0.0);
    }

    #[test]
    fn exec_policy_is_configurable() {
        let s = Suite::new(Scale::Test).with_exec(ExecPolicy::with_jobs(3));
        assert_eq!(s.exec().jobs(), 3);
        let s = s.with_exec(ExecPolicy::serial());
        assert_eq!(s.exec(), ExecPolicy::Serial);
    }
}
