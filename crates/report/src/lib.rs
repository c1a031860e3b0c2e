//! `alberta-report`: structured run reports for the characterization
//! pipeline, and the paper's artifacts rendered from them.
//!
//! A sweep runs once and is saved as a report; the paper's tables and
//! figures are projections of that document. The crate has four
//! layers:
//!
//! * [`json`] — a deterministic, dependency-free JSON model: ordered
//!   objects, exact `u64`s, shortest-round-trip floats, and a strict
//!   parser whose output re-emits byte-identically (re-exported from
//!   `alberta_core`, which also uses it for the worker pipe protocol);
//! * [`schema`] — the versioned [`SuiteReport`] document built from a
//!   resilient metered sweep
//!   ([`Suite::characterize_all_resilient_metered`]), carrying per-run
//!   status, accounting, and measured behaviour plus per-benchmark
//!   Table II summaries;
//! * [`view`] — the only builders of the paper's artifacts: Table I,
//!   Table II and the Figure 1 and 2 series, each built from a
//!   [`SuiteReport`] and rendered as text. The `table1`, `table2`,
//!   `fig1` and `fig2` binaries load a saved report ([`load`]) and print
//!   from it;
//! * `diff` — comparison of two reports into structural regressions
//!   (status flips, lost workloads) and numeric deltas (modelled
//!   cycles, behaviour variation), the engine behind `bench-diff`.
//!
//! A document has a decoder only where its bytes come back in. Two are
//! read back from disk: a saved [`SuiteReport`] ([`load`]) and a
//! [`CacheDocument`], the daemon's result-cache entry; they share one
//! version gate. The [`MetricsDocument`] is decoded from its service
//! wire value ([`MetricsDocument::from_value`]). The memory, storm and
//! latency documents are written for readers and compared by bytes, so
//! they have no parser.
//!
//! [`Suite::characterize_all_resilient_metered`]: alberta_core::Suite::characterize_all_resilient_metered

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod diff;
mod mem;
mod metrics;
pub mod schema;
mod serve;
mod trace;
pub mod view;

pub use diff::{DeltaRow, DiffOptions, ReportDiff};
pub use mem::{MemoryDocument, MemoryRunRecord};
pub use metrics::MetricsDocument;
pub use schema::{
    BenchmarkReport, CategoryRecord, HotPathRecord, MeasureRecord, RunRecord, SamplingRecord,
    StatusKind, SuiteReport, SummaryRecord, SCHEMA_VERSION,
};
pub use serve::{CacheDocument, HostRecord, LatencyReport, StormReport};
pub use trace::{render_service_timeline, trace_directory};

use alberta_core::json;
use json::Value;
use std::fmt;
use std::path::Path;

/// Everything that can go wrong reading or interpreting a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The text is not well-formed JSON.
    Json {
        /// Byte offset of the problem.
        offset: usize,
        /// What the parser expected or saw.
        message: String,
    },
    /// The JSON is well-formed but does not match the schema.
    Schema {
        /// What is missing or mistyped.
        message: String,
    },
    /// The document declares a `schema_version` this build cannot read.
    UnsupportedVersion {
        /// The version the document declared.
        found: u64,
    },
    /// A filesystem read or write failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json { offset, message } => {
                write!(f, "malformed JSON at byte {offset}: {message}")
            }
            ReportError::Schema { message } => write!(f, "invalid report: {message}"),
            ReportError::UnsupportedVersion { found } => write!(
                f,
                "unsupported schema_version {found}: this build reads version {SCHEMA_VERSION} \
                 only; regenerate the report with a matching bench-report"
            ),
            ReportError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<json::ParseError> for ReportError {
    fn from(e: json::ParseError) -> Self {
        ReportError::Json {
            offset: e.offset,
            message: e.message,
        }
    }
}

impl From<json::DecodeError> for ReportError {
    fn from(message: json::DecodeError) -> Self {
        ReportError::Schema { message }
    }
}

/// The version gate of the documents read back from disk
/// ([`SuiteReport::parse`], [`CacheDocument::parse`]): parses `text`
/// and checks `schema_version` against [`SCHEMA_VERSION`] before any
/// other field is read, because field meanings are only defined per
/// version.
fn parse_versioned(text: &str) -> Result<Value, ReportError> {
    let value = json::parse(text)?;
    let found = json::req(&value, "schema_version")?;
    if found != SCHEMA_VERSION {
        return Err(ReportError::UnsupportedVersion { found });
    }
    Ok(value)
}

/// Reads and parses a report file.
///
/// # Errors
///
/// [`ReportError::Io`] when the file cannot be read, otherwise whatever
/// [`SuiteReport::parse`] reports.
pub fn load(path: &Path) -> Result<SuiteReport, ReportError> {
    let text = std::fs::read_to_string(path).map_err(|e| ReportError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    SuiteReport::parse(&text)
}

/// Serializes a report and writes it to a file.
///
/// # Errors
///
/// [`ReportError::Io`] when the write fails.
pub fn save(report: &SuiteReport, path: &Path) -> Result<(), ReportError> {
    std::fs::write(path, report.to_json()).map_err(|e| ReportError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}
