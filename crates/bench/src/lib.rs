//! Shared helpers for the experiment-regeneration binaries and benches.
//!
//! Argument handling is strict. Each binary names the value flags and
//! switches it reads in one [`Args::parse`] call at the top of `main`.
//! Any other `--flag`, an operand the binary does not take, an
//! unrecognized scale or a malformed `--jobs` value terminates with a
//! usage error (exit 2) before any work starts. Silently skipping a typo
//! (`--sampel`) or another binary's flag used to waste an entire sweep
//! on the wrong measurement.

use alberta_core::{ExecPolicy, PhaseSampling, SamplingPolicy};
use alberta_report::{ReportError, SuiteReport};
use alberta_workloads::Scale;
use std::path::Path;

// Re-exported so every binary that starts workers can hook the hidden
// worker mode with one `alberta_bench::maybe_worker()` call at the top
// of `main`, before [`Args::parse`] sees the worker flag — under
// `--exec processes` the supervisor re-executes the *current* binary,
// so each such binary must be able to come up as a worker.
pub use alberta_core::maybe_worker;

/// Prints a usage error and terminates with exit code 2 — the code the
/// binaries reserve for "the invocation was wrong" as opposed to "the
/// comparison found a regression" (1).
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Loads a saved suite report. A missing file, malformed JSON or an
/// unsupported `schema_version` is a usage error naming the path and the
/// command that writes a report.
pub fn load_report(path: &str) -> SuiteReport {
    alberta_report::load(Path::new(path)).unwrap_or_else(|e| {
        let problem = match e {
            // The I/O error already names the path.
            ReportError::Io { .. } => e.to_string(),
            _ => format!("{path}: {e}"),
        };
        usage_error(&format!(
            "{problem}\n(write a report with: bench-report <scale> --out {path})"
        ))
    })
}

/// One binary's command line, checked against the flags it reads.
#[derive(Debug)]
pub struct Args {
    /// `(flag, value)` in command-line order.
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    operands: Vec<String>,
}

impl Args {
    /// Parses the command line against the binary's own flags: each of
    /// `values` takes an argument (`--out PATH` or `--out=PATH`), each of
    /// `switches` stands alone. Any other `--flag`, or a value flag
    /// without its value, terminates with a usage error.
    pub fn parse(values: &[&'static str], switches: &[&'static str]) -> Args {
        Self::try_parse(std::env::args().skip(1), values, switches)
            .unwrap_or_else(|message| usage_error(&message))
    }

    fn try_parse(
        args: impl IntoIterator<Item = String>,
        values: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Args, String> {
        let mut parsed = Args {
            values: Vec::new(),
            switches: Vec::new(),
            operands: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                parsed.operands.push(arg);
            } else if let Some(&flag) = values.iter().find(|&&f| f == arg) {
                // The next argument is the value, whatever it looks like.
                let value = args
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value, e.g. {flag} <value>"))?;
                parsed.values.push((flag, value));
            } else if let Some(&flag) = switches.iter().find(|&&f| f == arg) {
                parsed.switches.push(flag);
            } else {
                let flag = arg
                    .split_once('=')
                    .and_then(|(name, value)| Some((*values.iter().find(|&&f| f == name)?, value)));
                match flag {
                    Some((flag, value)) => parsed.values.push((flag, value.to_owned())),
                    None => return Err(format!("unknown flag {arg:?}")),
                }
            }
        }
        Ok(parsed)
    }

    /// Rejects any operand: for binaries that take flags only.
    pub fn without_operands(self) -> Args {
        if let Some(operand) = self.operands.first() {
            usage_error(&format!("unexpected operand {operand:?}"));
        }
        self
    }

    /// The value of a value flag, if it appears. When the flag repeats,
    /// the first occurrence wins.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, value)| value.as_str())
    }

    /// True when the switch appears.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The operands (non-flag arguments), flag values excluded.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The value of a flag that counts something, `default` when absent;
    /// anything but a positive integer is a usage error.
    pub fn count(&self, flag: &str, default: usize) -> usize {
        match self.value(flag) {
            None => default,
            Some(text) => match text.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => usage_error(&format!("{flag} expects a positive count, got {text:?}")),
            },
        }
    }

    /// The value of a seed flag, `default` when absent. Any `u64` is a
    /// seed, 0 included; anything else is a usage error.
    pub fn seed(&self, flag: &str, default: u64) -> u64 {
        match self.value(flag) {
            None => default,
            Some(text) => text.parse().unwrap_or_else(|_| {
                usage_error(&format!("{flag} expects an integer, got {text:?}"))
            }),
        }
    }

    /// The optional scale operand (`test`, `train`, `ref`); defaults to
    /// [`Scale::Test`] so every binary completes in seconds. An
    /// unrecognized scale or a second operand terminates with a usage
    /// error — never a silent fall-back to test scale.
    pub fn scale(&self) -> Scale {
        match self.operands.as_slice() {
            [] => Scale::Test,
            [name] => Scale::from_name(name).unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown scale {name:?}; valid scales are: test, train, ref"
                ))
            }),
            [_, extra, ..] => usage_error(&format!("unexpected operand {extra:?}")),
        }
    }

    /// The saved report named by the one operand — the input of the
    /// rendering binaries. See [`load_report`] for the load errors.
    pub fn report(&self) -> SuiteReport {
        match self.operands.as_slice() {
            [path] => load_report(path),
            _ => usage_error(
                "expected one report operand; write it with \
                 `bench-report <scale> --out PATH`, then pass PATH",
            ),
        }
    }

    /// Parses `--exec serial|threads|processes` and `--jobs N` into an
    /// execution policy, falling back to the `ALBERTA_JOBS` environment
    /// variable and then to serial. A malformed or zero worker count
    /// terminates with a usage error — `--jobs 0` used to silently
    /// collapse to serial, masking the typo. Call this *before*
    /// [`Suite::new`](alberta_core::Suite::new) so a malformed
    /// environment surfaces as a usage error rather than a panic.
    pub fn exec(&self) -> ExecPolicy {
        // Validate the environment up front even when --jobs overrides
        // it — Suite::new consults ALBERTA_JOBS too and panics on
        // garbage.
        let env_policy = match ExecPolicy::from_env() {
            Ok(policy) => policy,
            Err(message) => usage_error(&message),
        };
        let jobs = self
            .value("--jobs")
            .map(|value| match value.parse::<usize>() {
                Ok(0) => usage_error(&format!(
                    "--jobs expects a positive worker count, got {value:?} \
                 (zero workers cannot execute anything)"
                )),
                Ok(n) => n,
                Err(_) => usage_error(&format!(
                    "--jobs expects a positive worker count, got {value:?}"
                )),
            });
        match self.value("--exec") {
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
    /// scatters `N` seeded process faults (worker crashes, hangs,
    /// corrupt results) over the sweep, `--chaos-seed SEED` picks the
    /// scatter (default 0). Returns `None` when chaos is not requested;
    /// malformed values, or `--chaos-seed` without `--chaos`, terminate
    /// with a usage error.
    pub fn chaos(&self) -> Option<(usize, u64)> {
        let Some(count) = self.value("--chaos") else {
            if self.value("--chaos-seed").is_some() {
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
        Some((count, self.seed("--chaos-seed", 0)))
    }

    /// Parses the phase-sampling flags into a [`SamplingPolicy`].
    /// `--sample` enables phase-sampled measurement with default
    /// parameters; `--sample-interval OPS`, `--sample-k N`, and
    /// `--sample-seed SEED` override individual parameters (each implies
    /// `--sample`). With none of the flags present, every run is
    /// measured in full. Malformed or zero values terminate with a usage
    /// error (exit 2).
    pub fn sampling(&self) -> SamplingPolicy {
        let interval = self.value("--sample-interval");
        let k = self.value("--sample-k");
        let seed = self.value("--sample-seed");
        if !self.switch("--sample") && interval.is_none() && k.is_none() && seed.is_none() {
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
        config.seed = self.seed("--sample-seed", config.seed);
        SamplingPolicy::Phase(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::try_parse(
            args.iter().map(|a| (*a).to_owned()),
            &["--out", "--jobs"],
            &["--check"],
        )
    }

    #[test]
    fn values_switches_and_operands_are_told_apart() {
        let args = parse(&["test", "--out", "x.json", "--check", "--jobs=4", "more"]).unwrap();
        assert_eq!(args.value("--out"), Some("x.json"));
        assert_eq!(args.value("--jobs"), Some("4"));
        assert!(args.switch("--check"));
        assert_eq!(args.operands(), ["test", "more"]);
    }

    #[test]
    fn a_value_may_look_like_a_flag_and_the_first_occurrence_wins() {
        let args = parse(&["--out", "--check", "--out", "second"]).unwrap();
        assert_eq!(args.value("--out"), Some("--check"));
        assert!(!args.switch("--check"));
    }

    #[test]
    fn flags_the_binary_does_not_read_are_rejected() {
        for bad in [
            &["--keep-going"][..],
            &["--sampel"][..],
            &["--check=yes"][..],
            &["--bogus=1"][..],
            &["--"][..],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unknown flag"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn a_value_flag_at_the_end_lacks_its_value() {
        let err = parse(&["a.json", "--out"]).unwrap_err();
        assert!(err.contains("--out requires a value"), "{err}");
    }
}
