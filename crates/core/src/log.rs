//! Warnings and errors on stderr.
//!
//! The process supervisor, the characterization daemon, its engine and
//! its cache report degradations here: lost workers, redispatches,
//! rejected connections, evictions. Runs themselves do not log — a
//! run's fate is its [`RunStatus`](crate::RunStatus), which every
//! report already records — and progress is counted in the service's
//! metrics registry, not written here. Records go to stderr, never
//! stdout, so byte-comparisons of emitted artifacts stay valid. There
//! are no levels and nothing to configure: every record is written.

use std::fmt;
use std::io::Write as _;

/// Writes one `[severity] target: message` line to stderr; the
/// expansion of [`log_warn!`](crate::log_warn) and
/// [`log_error!`](crate::log_error).
pub fn emit(severity: &str, target: &str, message: fmt::Arguments<'_>) {
    // Logging must never take the caller down; a closed stderr is the
    // reader's choice (`eprintln!` would panic on it).
    let _ = writeln!(std::io::stderr(), "[{severity}] {target}: {message}");
}

/// Writes an `[error]` line: an unrecoverable problem, such as a task
/// lost to the process executor.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit("error", $target, format_args!($($arg)+))
    };
}

/// Writes a `[warn]` line: a degradation survived, such as a worker
/// incident, a rejected connection or an evicted cache entry.
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit("warn", $target, format_args!($($arg)+))
    };
}
