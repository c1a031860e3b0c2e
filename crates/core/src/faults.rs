//! Deterministic fault injection for the characterization pipeline.
//!
//! A [`FaultPlan`] names exactly which `(benchmark, workload)` runs are
//! sabotaged and how. Faults are seeded and positional — the same plan
//! produces the same failures at the same points on every execution — so
//! the resilient harness's degradation behaviour is itself testable: K
//! injected faults must yield exactly K non-`Ok` run statuses and a
//! partial Table II over the survivors, never a crash.
//!
//! The kinds cover the taxonomy in `alberta_benchmarks::BenchError`:
//!
//! * [`FaultKind::MalformedWorkload`] corrupts the stored workload via
//!   [`alberta_benchmarks::Benchmark::inject_malformed`] (disconnected
//!   flow networks, zero-depth chess positions, truncated XML) → the run
//!   fails with `InvalidInput`;
//! * [`FaultKind::PanicAtEvent`] makes the profiler panic at the Nth
//!   instrumentation event → caught at the trait boundary as `Panicked`;
//! * [`FaultKind::ExhaustBudget`] installs a work budget far below the
//!   run's needs → deterministic `BudgetExceeded` abort;
//! * [`FaultKind::CorruptEvents`] corrupts the profiler's event counters
//!   → `Profile::validate` fails and the run reports `InvalidProfile`.
//!
//! The process-level kinds sabotage the *executor* instead of the run,
//! and only fire under `ExecPolicy::Processes` (the worker injects them
//! before touching the benchmark; in-process executors ignore them):
//!
//! * [`FaultKind::WorkerCrash`] aborts the worker subprocess (or makes
//!   it exit cleanly without a result, with `clean: true`) → the
//!   supervisor detects the death and redispatches;
//! * [`FaultKind::WorkerHang`] stalls the worker and its heartbeat →
//!   the supervisor times out, kills the child, and redispatches;
//! * [`FaultKind::ResultCorrupt`] garbles the result line mid-message →
//!   the supervisor's framing layer rejects it and redispatches.
//!
//! Each carries an `attempts` bound: the fault fires while the task's
//! dispatch attempt is `<= attempts`, so `attempts: 1` is a recoverable
//! chaos fault (first dispatch dies, redispatch succeeds) and
//! `attempts: u32::MAX` is persistent (the task exhausts its dispatch
//! budget and degrades to a failed status).

use alberta_profile::ProfilerFault;

/// How a targeted run is sabotaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Corrupt the stored workload before the run (seeded by the plan
    /// seed). Ignored — the run proceeds normally — if the benchmark does
    /// not support malformed injection for that workload.
    MalformedWorkload,
    /// Panic inside the profiler at the given 1-based event index.
    PanicAtEvent(u64),
    /// Run under a work budget of this many retired ops.
    ExhaustBudget {
        /// The budget; pick it far below the run's real work.
        budget: u64,
    },
    /// Corrupt the profiler's aggregate counters at the given event, so
    /// the finished profile fails validation.
    CorruptEvents {
        /// 1-based event index of the corruption.
        at: u64,
    },
    /// Kill the worker subprocess before it runs the task.
    WorkerCrash {
        /// Fire while the dispatch attempt is `<= attempts`.
        attempts: u32,
        /// `false`: abort (non-zero exit, the OOM/`abort()` shape).
        /// `true`: exit 0 without emitting a result (the silent-death
        /// shape).
        clean: bool,
    },
    /// Stall the worker — and its heartbeat — until the supervisor's
    /// hang detector kills it.
    WorkerHang {
        /// Fire while the dispatch attempt is `<= attempts`.
        attempts: u32,
    },
    /// Emit a truncated, unparseable result line instead of the real
    /// result, then die.
    ResultCorrupt {
        /// Fire while the dispatch attempt is `<= attempts`.
        attempts: u32,
    },
}

/// One targeted fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Benchmark, by short name (`"mcf"`) or SPEC id (`"505.mcf_r"`).
    pub benchmark: String,
    /// Workload name within that benchmark.
    pub workload: String,
    /// The sabotage to apply.
    pub kind: FaultKind,
}

/// A deterministic set of faults to inject into a suite run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan with the given corruption seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder style).
    pub fn inject(
        mut self,
        benchmark: impl Into<String>,
        workload: impl Into<String>,
        kind: FaultKind,
    ) -> Self {
        self.faults.push(Fault {
            benchmark: benchmark.into(),
            workload: workload.into(),
            kind,
        });
        self
    }

    /// The seed fed to workload-corruption hooks.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// All faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault aimed at one run, if any. `spec_id` and `short_name` are
    /// both accepted as the benchmark key; the first matching fault wins.
    pub(crate) fn fault_for(
        &self,
        spec_id: &str,
        short_name: &str,
        workload: &str,
    ) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| {
                (f.benchmark == spec_id || f.benchmark == short_name) && f.workload == workload
            })
            .map(|f| f.kind)
    }

    /// The profiler-level fault configuration for a kind, if it is one.
    pub(crate) fn profiler_fault(kind: FaultKind) -> Option<ProfilerFault> {
        match kind {
            FaultKind::PanicAtEvent(n) => Some(ProfilerFault::PanicAtEvent(n)),
            FaultKind::CorruptEvents { at } => Some(ProfilerFault::CorruptEvents { at }),
            FaultKind::MalformedWorkload
            | FaultKind::ExhaustBudget { .. }
            | FaultKind::WorkerCrash { .. }
            | FaultKind::WorkerHang { .. }
            | FaultKind::ResultCorrupt { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_targets_runs_by_either_name() {
        let plan = FaultPlan::new(7)
            .inject("mcf", "train", FaultKind::MalformedWorkload)
            .inject("557.xz_r", "refrate", FaultKind::PanicAtEvent(50));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.fault_for("505.mcf_r", "mcf", "train"),
            Some(FaultKind::MalformedWorkload)
        );
        assert_eq!(
            plan.fault_for("557.xz_r", "xz", "refrate"),
            Some(FaultKind::PanicAtEvent(50))
        );
        assert_eq!(plan.fault_for("505.mcf_r", "mcf", "refrate"), None);
        assert_eq!(plan.fault_for("502.gcc_r", "gcc", "train"), None);
    }

    #[test]
    fn first_matching_fault_wins() {
        let plan = FaultPlan::new(0)
            .inject("mcf", "train", FaultKind::ExhaustBudget { budget: 10 })
            .inject("mcf", "train", FaultKind::PanicAtEvent(1));
        assert_eq!(
            plan.fault_for("505.mcf_r", "mcf", "train"),
            Some(FaultKind::ExhaustBudget { budget: 10 })
        );
    }

    #[test]
    fn empty_plan() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.fault_for("a", "b", "c"), None);
    }

    #[test]
    fn profiler_fault_mapping() {
        assert_eq!(
            FaultPlan::profiler_fault(FaultKind::PanicAtEvent(3)),
            Some(ProfilerFault::PanicAtEvent(3))
        );
        assert_eq!(
            FaultPlan::profiler_fault(FaultKind::CorruptEvents { at: 9 }),
            Some(ProfilerFault::CorruptEvents { at: 9 })
        );
        assert_eq!(
            FaultPlan::profiler_fault(FaultKind::MalformedWorkload),
            None
        );
        assert_eq!(
            FaultPlan::profiler_fault(FaultKind::ExhaustBudget { budget: 1 }),
            None
        );
        assert_eq!(
            FaultPlan::profiler_fault(FaultKind::WorkerHang { attempts: 1 }),
            None
        );
    }
}
