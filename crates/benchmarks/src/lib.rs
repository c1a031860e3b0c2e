//! Mini-benchmark programs standing in for the SPEC CPU 2017 suite.
//!
//! The paper characterizes fifteen SPEC benchmarks; this crate implements
//! one from-scratch Rust mini-program per benchmark, each reproducing the
//! *algorithm family* of the original (network simplex for mcf, α–β
//! search for deepsjeng, LZ77+range coding for xz, …). Every program is
//! instrumented: it reports function entry/exit, conditional branches,
//! loads/stores and retired work to an [`alberta_profile::Profiler`],
//! which is how the reproduction derives method coverage and Top-Down
//! ratios without hardware counters.
//!
//! The [`Benchmark`] trait is the seam between the individual programs and
//! the characterization harness in `alberta-core`; [`suite`] returns the
//! full Table II line-up.
//!
//! # Examples
//!
//! ```
//! use alberta_benchmarks::{suite, Benchmark};
//! use alberta_profile::Profiler;
//! use alberta_workloads::Scale;
//!
//! # fn main() -> Result<(), alberta_benchmarks::BenchError> {
//! let benchmarks = suite(Scale::Test);
//! assert_eq!(benchmarks.len(), 15);
//! let mcf = &benchmarks[1];
//! let mut profiler = Profiler::default();
//! let output = mcf.run("train", &mut profiler)?;
//! assert!(output.work > 0);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod miniblender;
mod minicactu;
pub mod minideepsjeng;
pub mod miniexchange;
pub mod minigcc;
mod minilbm;
pub mod minileela;
pub mod minimcf;
mod mininab;
mod miniomnetpp;
mod miniparest;
mod minipovray;
mod miniwrf;
mod minixalan;
pub mod minixz;

use alberta_profile::{InvariantViolation, Profiler};
use alberta_workloads::Scale;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Error returned when a benchmark run cannot proceed.
///
/// The taxonomy covers every way a run is known to go wrong, so the
/// harness never has to crash: name-resolution failures
/// ([`UnknownWorkload`](BenchError::UnknownWorkload)), rejected inputs
/// ([`InvalidInput`](BenchError::InvalidInput)), panics captured at the
/// trait boundary ([`Panicked`](BenchError::Panicked)), deterministic
/// watchdog aborts ([`BudgetExceeded`](BenchError::BudgetExceeded)), and
/// post-run profile-consistency failures
/// ([`InvalidProfile`](BenchError::InvalidProfile)).
///
/// The type is `Clone` so resilient harnesses can carry it inside
/// per-run status reports.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BenchError {
    /// The requested workload name is not in this benchmark's set.
    UnknownWorkload {
        /// The benchmark that was asked.
        benchmark: &'static str,
        /// The name that failed to resolve.
        workload: String,
    },
    /// The workload was rejected by the program (malformed input).
    InvalidInput {
        /// The benchmark that rejected it.
        benchmark: &'static str,
        /// Why.
        reason: String,
    },
    /// The benchmark panicked mid-run; [`run_guarded`] caught the unwind
    /// at the trait boundary.
    Panicked {
        /// The benchmark that panicked.
        benchmark: &'static str,
        /// The workload it was running.
        workload: String,
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The run retired more ops than its configured work budget
    /// (`alberta_profile::SampleConfig::work_budget`).
    BudgetExceeded {
        /// The benchmark that overran.
        benchmark: &'static str,
        /// The workload it was running.
        workload: String,
        /// The configured budget.
        budget: u64,
        /// Retired ops at the abort — deterministic per (run, budget).
        retired_ops: u64,
    },
    /// The run completed but its profile violates an internal-consistency
    /// invariant, so its numbers cannot enter any summary.
    InvalidProfile {
        /// The benchmark whose profile failed validation.
        benchmark: &'static str,
        /// The workload it was running.
        workload: String,
        /// The violated invariant (also reachable via
        /// [`Error::source`]).
        violation: InvariantViolation,
    },
    /// An error that happened in a worker subprocess and crossed the
    /// pipe protocol as rendered text, or was synthesized by the
    /// supervisor itself (worker crash, hang, garbled result). The
    /// message is the complete rendered error — [`fmt::Display`] prints
    /// it verbatim so a report built from a remote status matches the
    /// in-process rendering byte for byte.
    Remote {
        /// The benchmark the task belonged to.
        benchmark: &'static str,
        /// Whether the originating error was retryable
        /// ([`BenchError::is_retryable`] on the worker side), or — for
        /// supervisor-synthesized errors — whether redispatching the
        /// task may clear it.
        retryable: bool,
        /// The fully rendered error text.
        message: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::UnknownWorkload {
                benchmark,
                workload,
            } => write!(f, "benchmark {benchmark} has no workload named {workload:?}"),
            BenchError::InvalidInput { benchmark, reason } => {
                write!(f, "benchmark {benchmark} rejected its input: {reason}")
            }
            BenchError::Panicked {
                benchmark,
                workload,
                message,
            } => write!(
                f,
                "benchmark {benchmark} panicked while running {workload:?}: {message}"
            ),
            BenchError::BudgetExceeded {
                benchmark,
                workload,
                budget,
                retired_ops,
            } => write!(
                f,
                "benchmark {benchmark} exceeded its work budget on {workload:?}: \
                 {retired_ops} retired ops > budget {budget}"
            ),
            BenchError::InvalidProfile {
                benchmark,
                workload,
                violation,
            } => write!(
                f,
                "benchmark {benchmark} produced an inconsistent profile on {workload:?}: {violation}"
            ),
            BenchError::Remote { message, .. } => f.write_str(message),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::InvalidProfile { violation, .. } => Some(violation),
            BenchError::UnknownWorkload { .. }
            | BenchError::InvalidInput { .. }
            | BenchError::Panicked { .. }
            | BenchError::BudgetExceeded { .. }
            | BenchError::Remote { .. } => None,
        }
    }
}

impl BenchError {
    /// The benchmark the error belongs to.
    pub fn benchmark(&self) -> &'static str {
        match self {
            BenchError::UnknownWorkload { benchmark, .. }
            | BenchError::InvalidInput { benchmark, .. }
            | BenchError::Panicked { benchmark, .. }
            | BenchError::BudgetExceeded { benchmark, .. }
            | BenchError::InvalidProfile { benchmark, .. }
            | BenchError::Remote { benchmark, .. } => benchmark,
        }
    }

    /// True for errors a retry at reduced scale may clear (resource
    /// overruns), false for errors deterministic in the input itself.
    /// Remote errors carry the verdict their originating error had on
    /// the worker side.
    pub fn is_retryable(&self) -> bool {
        match self {
            BenchError::BudgetExceeded { .. } | BenchError::Panicked { .. } => true,
            BenchError::Remote { retryable, .. } => *retryable,
            _ => false,
        }
    }
}

/// Renders a panic payload the way `std` would: `&str` and `String`
/// payloads verbatim, anything else by type-erased placeholder. Public
/// so harnesses with their own panic boundaries (e.g. parallel workers)
/// report payloads the same way [`run_guarded`] does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

thread_local! {
    /// True while this thread is inside [`run_guarded`]'s boundary.
    static IN_GUARDED_RUN: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics unwinding toward [`run_guarded`]'s boundary — they are typed
/// control flow there, not crashes — and delegates every other panic to
/// the previously installed hook. The flag is thread-local, so panics on
/// unrelated threads keep their normal reporting.
fn install_guarded_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_GUARDED_RUN.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Clears the in-guarded-run flag on drop, so an unwind cannot leave it
/// stuck and silence a later genuine panic.
struct GuardFlag;

impl GuardFlag {
    fn set() -> Self {
        IN_GUARDED_RUN.with(|g| g.set(true));
        GuardFlag
    }
}

impl Drop for GuardFlag {
    fn drop(&mut self) {
        IN_GUARDED_RUN.with(|g| g.set(false));
    }
}

/// Runs a workload with the panic boundary installed: any unwind out of
/// [`Benchmark::run`] is converted into a typed [`BenchError`] instead of
/// propagating into (and killing) the harness.
///
/// A [`alberta_profile::BudgetExceeded`] payload becomes
/// [`BenchError::BudgetExceeded`]; every other payload becomes
/// [`BenchError::Panicked`]. The profiler is left in whatever state the
/// run reached — callers must discard it after an error.
///
/// # Errors
///
/// Everything [`Benchmark::run`] returns, plus the converted unwinds.
pub fn run_guarded(
    benchmark: &dyn Benchmark,
    workload: &str,
    profiler: &mut Profiler,
) -> Result<RunOutput, BenchError> {
    install_guarded_panic_hook();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _flag = GuardFlag::set();
        benchmark.run(workload, profiler)
    }));
    match result {
        Ok(result) => result,
        Err(payload) => {
            if let Some(b) = payload.downcast_ref::<alberta_profile::BudgetExceeded>() {
                Err(BenchError::BudgetExceeded {
                    benchmark: benchmark.name(),
                    workload: workload.to_owned(),
                    budget: b.budget,
                    retired_ops: b.retired_ops,
                })
            } else {
                Err(BenchError::Panicked {
                    benchmark: benchmark.name(),
                    workload: workload.to_owned(),
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutput {
    /// A checksum over the program's semantic output (solution cost,
    /// rendered image hash, compressed size, …). Deterministic per
    /// (benchmark, workload); tests use it to catch silent corruption.
    pub checksum: u64,
    /// Total abstract work units performed (equals retired ops recorded
    /// in the profiler for the run).
    pub work: u64,
}

/// One SPEC-style benchmark program with its workload set attached.
///
/// Object safe: the harness holds `Box<dyn Benchmark>`. The `Send +
/// Sync` supertraits let the characterization harness share one suite
/// across worker threads — runs take `&self` and write all measurement
/// state into the per-run [`Profiler`], so a benchmark is immutable
/// while it executes (the only mutation, [`Benchmark::inject_malformed`],
/// happens before any run starts).
pub trait Benchmark: Send + Sync {
    /// SPEC-style identifier, e.g. `"505.mcf_r"`.
    fn name(&self) -> &'static str;

    /// Short name, e.g. `"mcf"`.
    fn short_name(&self) -> &'static str;

    /// Names of every available workload (train, refrate, alberta.*).
    fn workload_names(&self) -> Vec<String>;

    /// Runs the named workload under the given profiler.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::UnknownWorkload`] if `workload` is not one of
    /// [`Benchmark::workload_names`], or [`BenchError::InvalidInput`] if
    /// the workload data is rejected.
    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError>;

    /// Fault-injection hook: deterministically corrupts the named stored
    /// workload (seeded by `seed`) so a later [`Benchmark::run`] rejects
    /// it with [`BenchError::InvalidInput`] instead of succeeding.
    ///
    /// Returns `true` when the corruption was applied; the default
    /// implementation supports no corruption and returns `false`.
    /// Benchmarks with naturally malformable inputs (mcf's flow networks,
    /// deepsjeng's position specs, xalancbmk's XML documents) override it.
    fn inject_malformed(&mut self, workload: &str, seed: u64) -> bool {
        let _ = (workload, seed);
        false
    }
}

/// Builds the full fifteen-benchmark Table II suite at the given scale.
///
/// Order matches Table II: gcc, mcf, cactuBSSN, parest, povray, lbm,
/// omnetpp, wrf, xalancbmk, blender, deepsjeng, leela, nab, exchange2, xz.
pub fn suite(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(minigcc::MiniGcc::new(scale)),
        Box::new(minimcf::MiniMcf::new(scale)),
        Box::new(minicactu::MiniCactu::new(scale)),
        Box::new(miniparest::MiniParest::new(scale)),
        Box::new(minipovray::MiniPovray::new(scale)),
        Box::new(minilbm::MiniLbm::new(scale)),
        Box::new(miniomnetpp::MiniOmnetpp::new(scale)),
        Box::new(miniwrf::MiniWrf::new(scale)),
        Box::new(minixalan::MiniXalan::new(scale)),
        Box::new(miniblender::MiniBlender::new(scale)),
        Box::new(minideepsjeng::MiniDeepsjeng::new(scale)),
        Box::new(minileela::MiniLeela::new(scale)),
        Box::new(mininab::MiniNab::new(scale)),
        Box::new(miniexchange::MiniExchange::new(scale)),
        Box::new(minixz::MiniXz::new(scale)),
    ]
}

/// FNV-1a hash used for run checksums throughout the crate.
pub(crate) fn fnv1a(data: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in data {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
    }
    h
}

/// Resolves `workload` in a named set, with the standard error.
pub(crate) fn find_workload<'a, W>(
    set: &'a [alberta_workloads::Named<W>],
    benchmark: &'static str,
    workload: &str,
) -> Result<&'a W, BenchError> {
    set.iter()
        .find(|n| n.name == workload)
        .map(|n| &n.workload)
        .ok_or_else(|| BenchError::UnknownWorkload {
            benchmark,
            workload: workload.to_owned(),
        })
}

/// Collects the standard workload list (train, refrate, alberta set) for
/// a benchmark from the generator module's three constructors.
pub(crate) fn standard_set<W>(
    scale: Scale,
    train: fn(Scale) -> alberta_workloads::Named<W>,
    refrate: fn(Scale) -> alberta_workloads::Named<W>,
    alberta: fn(Scale) -> Vec<alberta_workloads::Named<W>>,
) -> Vec<alberta_workloads::Named<W>> {
    let mut set = vec![train(scale), refrate(scale)];
    set.extend(alberta(scale));
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table_ii_lineup() {
        let s = suite(Scale::Test);
        let names: Vec<&str> = s.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "502.gcc_r",
                "505.mcf_r",
                "507.cactuBSSN_r",
                "510.parest_r",
                "511.povray_r",
                "519.lbm_r",
                "520.omnetpp_r",
                "521.wrf_r",
                "523.xalancbmk_r",
                "526.blender_r",
                "531.deepsjeng_r",
                "541.leela_r",
                "544.nab_r",
                "548.exchange2_r",
                "557.xz_r",
            ]
        );
    }

    #[test]
    fn every_benchmark_has_train_refrate_and_alberta_workloads() {
        for b in suite(Scale::Test) {
            let names = b.workload_names();
            assert!(
                names.iter().any(|n| n == "train"),
                "{} lacks train",
                b.name()
            );
            assert!(
                names.iter().any(|n| n == "refrate"),
                "{} lacks refrate",
                b.name()
            );
            assert!(
                names.iter().any(|n| n.starts_with("alberta.")),
                "{} lacks alberta workloads",
                b.name()
            );
        }
    }

    #[test]
    fn unknown_workload_errors() {
        let s = suite(Scale::Test);
        let mut p = Profiler::default();
        let err = s[0].run("no-such-workload", &mut p).unwrap_err();
        assert!(matches!(err, BenchError::UnknownWorkload { .. }));
        let msg = err.to_string();
        assert!(msg.contains("no-such-workload"));
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a([1, 2, 3]), fnv1a([1, 2, 3]));
        assert_ne!(fnv1a([1, 2, 3]), fnv1a([1, 2, 4]));
        assert_ne!(fnv1a([0]), fnv1a([]));
    }

    #[test]
    fn run_guarded_converts_forced_panic_to_typed_error() {
        use alberta_profile::{ProfilerFault, SampleConfig};
        let s = suite(Scale::Test);
        let mut p =
            Profiler::new(SampleConfig::default().with_fault(ProfilerFault::PanicAtEvent(100)));
        let err = run_guarded(s[1].as_ref(), "train", &mut p).unwrap_err();
        match err {
            BenchError::Panicked {
                benchmark,
                workload,
                message,
            } => {
                assert_eq!(benchmark, "505.mcf_r");
                assert_eq!(workload, "train");
                assert!(message.contains("injected fault"), "message: {message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn run_guarded_converts_budget_overrun_to_typed_error() {
        use alberta_profile::SampleConfig;
        let s = suite(Scale::Test);
        let mut p = Profiler::new(SampleConfig::default().with_work_budget(500));
        let err = run_guarded(s[1].as_ref(), "train", &mut p).unwrap_err();
        match &err {
            BenchError::BudgetExceeded {
                benchmark,
                budget,
                retired_ops,
                ..
            } => {
                assert_eq!(*benchmark, "505.mcf_r");
                assert_eq!(*budget, 500);
                assert!(*retired_ops > 500);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert!(err.is_retryable());
        // Determinism: same benchmark, workload and budget abort at the
        // same retired-op count every time.
        let mut p2 = Profiler::new(SampleConfig::default().with_work_budget(500));
        let err2 = run_guarded(s[1].as_ref(), "train", &mut p2).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn run_guarded_passes_ordinary_results_through() {
        let s = suite(Scale::Test);
        let mut p = Profiler::default();
        let direct = s[1].run("train", &mut Profiler::default()).unwrap();
        let guarded = run_guarded(s[1].as_ref(), "train", &mut p).unwrap();
        assert_eq!(direct, guarded);
    }

    #[test]
    fn injected_malformed_workloads_are_rejected_not_searched() {
        // The three benchmarks with corruption hooks: mcf (disconnected
        // flow network), deepsjeng (zero-depth position), xalancbmk
        // (truncated document). Each must reject the corrupted workload
        // with InvalidInput rather than succeed or panic.
        for idx in [1usize, 8, 10] {
            let mut s = suite(Scale::Test);
            let name = s[idx].name();
            assert!(
                s[idx].inject_malformed("train", 7),
                "{name} should support malformed injection"
            );
            let mut p = Profiler::default();
            let err = run_guarded(s[idx].as_ref(), "train", &mut p).unwrap_err();
            assert!(
                matches!(err, BenchError::InvalidInput { .. }),
                "{name}: expected InvalidInput, got {err:?}"
            );
        }
    }

    #[test]
    fn inject_malformed_defaults_to_unsupported() {
        let mut s = suite(Scale::Test);
        // gcc has no corruption hook: the default implementation refuses.
        assert!(!s[0].inject_malformed("train", 7));
        // Unknown workload names are refused by the overriding impls too.
        assert!(!s[1].inject_malformed("no-such-workload", 7));
    }

    #[test]
    fn error_source_chains_only_for_invalid_profile() {
        use std::error::Error as _;
        let e = BenchError::InvalidInput {
            benchmark: "505.mcf_r",
            reason: "x".into(),
        };
        assert!(e.source().is_none());
        let mut p = Profiler::default();
        let s = suite(Scale::Test);
        s[1].run("train", &mut p).unwrap();
        let violation = {
            use alberta_profile::{ProfilerFault, SampleConfig};
            let mut corrupted = Profiler::new(
                SampleConfig::default().with_fault(ProfilerFault::CorruptEvents { at: 10 }),
            );
            s[1].run("train", &mut corrupted).unwrap();
            corrupted.finish().validate().unwrap_err()
        };
        let e = BenchError::InvalidProfile {
            benchmark: "505.mcf_r",
            workload: "train".into(),
            violation,
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("inconsistent profile"));
    }
}
