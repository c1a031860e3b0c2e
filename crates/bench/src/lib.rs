//! Shared helpers for the experiment-regeneration binaries and benches.
//!
//! Argument handling is strict: an unrecognized scale, an unknown
//! `--flag` or a malformed `--jobs` value terminates the binary with a
//! usage error. Silently mapping a typo (`Ref`, `tset`, `--sampel`) to
//! the default used to waste an entire sweep on the wrong measurement.

use alberta_core::{ExecPolicy, PhaseSampling, SamplingPolicy};
use alberta_workloads::Scale;

// Re-exported so every binary can hook the hidden worker mode with one
// `alberta_bench::maybe_worker()` call at the top of `main` — under
// `--exec processes` the supervisor re-executes the *current* binary,
// so each binary must be able to come up as a worker.
pub use alberta_core::maybe_worker;

/// Prints a usage error and terminates with exit code 2 — the code the
/// binaries reserve for "the invocation was wrong" as opposed to "the
/// comparison found a regression" (1).
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Flags that consume the next argument as their value. Keep in sync
/// with the binaries: a flag missing from this list would leak its
/// value into the positionals and be misread as a scale.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--exec",
    "--chaos",
    "--chaos-seed",
    "--out",
    "--threshold",
    "--out-dir",
    "--top-k",
    "--lanes",
    "--sample-interval",
    "--sample-k",
    "--sample-seed",
    "--bound",
    "--listen",
    "--cache-dir",
    "--hosts",
    "--host-exec",
    "--host-jobs",
    "--addr",
    "--json",
    "--requests",
    "--clients",
    "--seed",
    "--latency-out",
    "--sweep-out",
    "--deterministic-out",
    "--volatile-out",
    "--timeline",
    "--l3-size",
    "--l3-ways",
    "--l3-line",
    "--dram-banks",
    "--dram-row",
];

/// Flags that stand alone, without a value.
const BOOL_FLAGS: &[&str] = &[
    "--sample",
    "--telemetry",
    "--check",
    "--curves",
    "--keep-going",
    "--shutdown",
];

/// The positional (non-flag) arguments, with flag *values* excluded:
/// `--jobs 4` contributes neither token. A flag in neither
/// [`VALUE_FLAGS`] nor [`BOOL_FLAGS`] terminates with a usage error.
fn positional_args() -> Vec<String> {
    let mut positionals = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            // The value belongs to the flag; value_from_args consumes it.
            let _ = args.next();
        } else if !arg.starts_with("--") {
            positionals.push(arg);
        } else if !BOOL_FLAGS.contains(&arg.as_str()) {
            let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
            if !VALUE_FLAGS.contains(&name) {
                usage_error(&format!("unknown flag {arg:?}"));
            }
        }
    }
    positionals
}

/// The positional arguments after the optional leading scale — the
/// file operands of `bench-diff BASE NEW`.
pub fn operands_from_args() -> Vec<String> {
    positional_args()
}

/// The value of `--flag VALUE` / `--flag=VALUE`, if the flag appears.
/// A flag present without a value terminates with a usage error.
pub fn value_from_args(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == flag {
            return Some(args.next().unwrap_or_else(|| {
                usage_error(&format!("{flag} requires a value, e.g. {flag} <value>"))
            }));
        }
        if let Some(value) = arg.strip_prefix(&format!("{flag}=")) {
            return Some(value.to_owned());
        }
    }
    None
}

/// Parses the first positional CLI argument as a scale (`test`, `train`,
/// `ref`); defaults to [`Scale::Test`] when absent so every binary
/// completes in seconds. An unrecognized scale terminates with an error
/// listing the valid scales — never a silent fall-back to test scale.
pub fn scale_from_args() -> Scale {
    match positional_args().first() {
        None => Scale::Test,
        Some(name) => Scale::from_name(name).unwrap_or_else(|| {
            usage_error(&format!(
                "unknown scale {name:?}; valid scales are: test, train, ref"
            ))
        }),
    }
}

/// Parses `--exec serial|threads|processes` and `--jobs N` into an
/// execution policy, falling back to the `ALBERTA_JOBS` environment
/// variable and then to serial. A malformed or zero worker count
/// terminates with a usage error — `--jobs 0` used to silently collapse
/// to serial, masking the typo. Call this *before*
/// [`Suite::new`](alberta_core::Suite::new) so a malformed environment
/// surfaces as a usage error rather than a panic.
pub fn exec_from_args() -> ExecPolicy {
    // Validate the environment up front even when --jobs overrides it —
    // Suite::new consults ALBERTA_JOBS too and panics on garbage.
    let env_policy = match ExecPolicy::from_env() {
        Ok(policy) => policy,
        Err(message) => usage_error(&message),
    };
    let jobs = value_from_args("--jobs").map(|value| match value.parse::<usize>() {
        Ok(0) => usage_error(&format!(
            "--jobs expects a positive worker count, got {value:?} \
             (zero workers cannot execute anything)"
        )),
        Ok(n) => n,
        Err(_) => usage_error(&format!(
            "--jobs expects a positive worker count, got {value:?}"
        )),
    });
    match value_from_args("--exec").as_deref() {
        None => match jobs {
            Some(n) => ExecPolicy::with_jobs(n),
            None => env_policy.unwrap_or_default(),
        },
        Some("serial") => {
            if let Some(n) = jobs.filter(|&n| n > 1) {
                usage_error(&format!(
                    "--exec serial runs one task at a time; --jobs {n} conflicts \
                     (use --exec threads or --exec processes for parallelism)"
                ));
            }
            ExecPolicy::serial()
        }
        Some("threads") => match jobs.or(env_policy.map(|p| p.jobs())) {
            Some(n) => ExecPolicy::with_jobs(n),
            None => ExecPolicy::parallel(),
        },
        Some("processes") => match jobs.or(env_policy.map(|p| p.jobs())) {
            Some(n) => ExecPolicy::processes_with_jobs(n),
            None => ExecPolicy::processes(),
        },
        Some(other) => usage_error(&format!(
            "unknown execution policy {other:?}; valid policies are: serial, threads, processes"
        )),
    }
}

/// Parses the chaos-injection flags of `bench-report`: `--chaos N`
/// scatters `N` seeded process faults (worker crashes, hangs, corrupt
/// results) over the sweep, `--chaos-seed SEED` picks the scatter
/// (default 0). Returns `None` when chaos is not requested; malformed
/// values, or `--chaos-seed` without `--chaos`, terminate with a usage
/// error.
pub fn chaos_from_args() -> Option<(usize, u64)> {
    let count = value_from_args("--chaos");
    let seed = value_from_args("--chaos-seed");
    let Some(count) = count else {
        if seed.is_some() {
            usage_error("--chaos-seed without --chaos N has nothing to seed");
        }
        return None;
    };
    let count = match count.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!(
            "--chaos expects a positive fault count, got {count:?}"
        )),
    };
    let seed = match seed {
        None => 0,
        Some(value) => match value.parse::<u64>() {
            Ok(n) => n,
            Err(_) => usage_error(&format!("--chaos-seed expects an integer, got {value:?}")),
        },
    };
    Some((count, seed))
}

/// True when the named `--flag` appears anywhere on the command line.
pub fn flag_from_args(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

/// Parses the phase-sampling flags into a [`SamplingPolicy`]. `--sample`
/// enables phase-sampled measurement with default parameters;
/// `--sample-interval OPS`, `--sample-k N`, and `--sample-seed SEED`
/// override individual parameters (each implies `--sample`). With none
/// of the flags present, every run is measured in full. Malformed or
/// zero values terminate with a usage error (exit 2).
pub fn sampling_from_args() -> SamplingPolicy {
    let interval = value_from_args("--sample-interval");
    let k = value_from_args("--sample-k");
    let seed = value_from_args("--sample-seed");
    if !flag_from_args("--sample") && interval.is_none() && k.is_none() && seed.is_none() {
        return SamplingPolicy::Full;
    }
    let mut config = PhaseSampling::default();
    if let Some(value) = interval {
        config.interval_work = match value.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => usage_error(&format!(
                "--sample-interval expects a positive retired-op count, got {value:?}"
            )),
        };
    }
    if let Some(value) = k {
        config.k = match value.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage_error(&format!(
                "--sample-k expects a positive cluster count, got {value:?}"
            )),
        };
    }
    if let Some(value) = seed {
        config.seed = match value.parse::<u64>() {
            Ok(n) => n,
            _ => usage_error(&format!("--sample-seed expects an integer, got {value:?}")),
        };
    }
    SamplingPolicy::Phase(config)
}
