//! Leveled logging to stderr.
//!
//! The process supervisor, the characterization daemon, its engine and
//! its cache report degradations and progress here: lost workers,
//! redispatches, connections, evictions. Runs themselves do not log —
//! a run's fate is its [`RunStatus`](crate::RunStatus), which every
//! report already records. Records go to stderr, never stdout, so
//! byte-comparisons of emitted artifacts stay valid with logging
//! enabled.
//!
//! Verbosity is controlled by the `ALBERTA_LOG` environment variable
//! (`off|error|warn|info|debug`, default `warn`); a set-but-unparseable
//! value is a loud configuration error rather than a silently applied
//! default. Messages are built lazily — the formatting closure only
//! runs when the record is actually kept.

use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Severity of a log record, ordered from most to least severe.
/// A level also acts as a filter: `Warn` keeps `Error` and `Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogLevel {
    /// Nothing is logged.
    Off,
    /// Unrecoverable problems (a task lost to the process executor).
    Error,
    /// Degradations survived: worker incidents and redispatches,
    /// rejected connections, evicted cache entries.
    Warn,
    /// Service progress: connections, drains, resolved batches.
    Info,
    /// Keeps every record.
    Debug,
}

impl LogLevel {
    /// All accepted `ALBERTA_LOG` spellings, in severity order.
    pub(crate) const NAMES: [&'static str; 5] = ["off", "error", "warn", "info", "debug"];

    /// Parses an `ALBERTA_LOG` value.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted values when `s` is not one
    /// of them.
    pub(crate) fn parse(s: &str) -> Result<LogLevel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(LogLevel::Off),
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            _ => Err(format!(
                "ALBERTA_LOG must be one of {}, got {s:?}",
                LogLevel::NAMES.join("|")
            )),
        }
    }

    /// The level requested by the `ALBERTA_LOG` environment variable:
    /// `None` when unset or empty.
    ///
    /// # Errors
    ///
    /// A set-but-unparseable value is a configuration error, reported
    /// rather than silently mapped to a default.
    pub(crate) fn from_env() -> Result<Option<LogLevel>, String> {
        match std::env::var("ALBERTA_LOG") {
            Err(_) => Ok(None),
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => LogLevel::parse(&v).map(Some),
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(LogLevel::NAMES[*self as usize])
    }
}

/// The process-wide maximum level, resolved from `ALBERTA_LOG` on first
/// use and cached. Defaults to [`LogLevel::Warn`] when the variable is
/// unset.
///
/// # Panics
///
/// Panics on an unparseable `ALBERTA_LOG` value — a configuration error
/// must not be silently ignored.
pub fn max_level() -> LogLevel {
    const UNSET: u8 = u8::MAX;
    static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
    let cached = LEVEL.load(Ordering::Relaxed);
    if cached != UNSET {
        return level_from_u8(cached);
    }
    let level = match LogLevel::from_env() {
        Ok(level) => level.unwrap_or(LogLevel::Warn),
        Err(msg) => panic!("{msg}"),
    };
    LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

fn level_from_u8(v: u8) -> LogLevel {
    match v {
        0 => LogLevel::Off,
        1 => LogLevel::Error,
        2 => LogLevel::Warn,
        3 => LogLevel::Info,
        _ => LogLevel::Debug,
    }
}

/// Whether a record at `level` would currently be kept, against
/// [`max_level`]. Use to skip expensive diagnostics wholesale.
pub(crate) fn enabled(level: LogLevel) -> bool {
    level != LogLevel::Off && level <= max_level()
}

/// Writes a record at `level` from component `target` to stderr as one
/// `[level] target: message` line. The message closure only runs when
/// the record is kept.
pub fn emit(level: LogLevel, target: &'static str, message: impl FnOnce() -> String) {
    if enabled(level) {
        // Logging must never take the caller down; a closed stderr is
        // the reader's choice.
        let _ = writeln!(std::io::stderr(), "[{level}] {target}: {}", message());
    }
}

/// Emits a [`LogLevel::Error`] record.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit($crate::log::LogLevel::Error, $target, || format!($($arg)+))
    };
}

/// Emits a [`LogLevel::Warn`] record.
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit($crate::log::LogLevel::Warn, $target, || format!($($arg)+))
    };
}

/// Emits a [`LogLevel::Info`] record.
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::emit($crate::log::LogLevel::Info, $target, || format!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(LogLevel::parse("warn"), Ok(LogLevel::Warn));
        assert_eq!(LogLevel::parse(" DEBUG "), Ok(LogLevel::Debug));
        assert!(LogLevel::parse("verbose").is_err());
        assert!(LogLevel::Off < LogLevel::Error);
        assert!(LogLevel::Warn < LogLevel::Debug);
        for (i, name) in LogLevel::NAMES.iter().enumerate() {
            assert_eq!(LogLevel::parse(name).unwrap() as usize, i);
        }
    }

    #[test]
    fn lazy_message_not_built_when_filtered() {
        // `Off` is never kept, nor is any level above the configured
        // one (`warn` unless `ALBERTA_LOG` raises it).
        let levels = [LogLevel::Off, LogLevel::Info, LogLevel::Debug];
        for level in levels
            .into_iter()
            .filter(|level| *level == LogLevel::Off || *level > max_level())
        {
            assert!(!enabled(level), "a {level} record must be filtered");
            let mut built = false;
            emit(level, "t", || {
                built = true;
                String::new()
            });
            assert!(!built, "a filtered {level} record formatted its message");
        }
    }
}
