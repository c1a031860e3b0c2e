//! The schema-versioned memory-characterization document behind
//! `table-mem`, which projects it from a saved report.
//!
//! A [`MemoryDocument`] is the memory view of one sweep: per surviving
//! `(benchmark, workload)` run it carries the [`MemoryProfile`] the full
//! [`SuiteReport`] embeds — MPKI per cache level, DRAM row-buffer hit
//! rate, bytes read from DRAM, exact footprint, and the
//! MPKI-vs-cache-size curve. It is a pure projection of the suite
//! report ([`MemoryDocument::from_report`]), so it inherits the
//! determinism contract: the serialization is bit-identical across
//! execution policies, and CI gates it byte-for-byte against a
//! committed `MEM_test.json` golden.

use crate::json::{req, DecodeError, Value};
use crate::schema::SuiteReport;
use crate::ReportError;
use alberta_core::protocol::{decode_memory_profile, memory_profile_value};
use alberta_core::MemoryProfile;
use alberta_workloads::Scale;

/// The schema version of `MEM_*.json` documents.
pub const MEM_SCHEMA_VERSION: u64 = 1;

/// One run's memory characterization, addressed by benchmark and
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRunRecord {
    /// Benchmark short name, e.g. `mcf`.
    pub benchmark: String,
    /// Workload name.
    pub workload: String,
    /// The memory section of the run's measures.
    pub memory: MemoryProfile,
}

/// The memory view of one full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryDocument {
    /// Schema version ([`MEM_SCHEMA_VERSION`] when built by this
    /// crate).
    pub schema_version: u64,
    /// The scale the sweep ran at.
    pub scale: Scale,
    /// One record per surviving run, in suite-report order.
    pub rows: Vec<MemoryRunRecord>,
}

impl MemoryDocument {
    /// Projects a suite report to its memory view. Failed runs carry no
    /// measures and produce no row.
    pub fn from_report(report: &SuiteReport) -> Self {
        let rows = report
            .benchmarks
            .iter()
            .flat_map(|b| {
                b.runs.iter().filter_map(|r| {
                    Some(MemoryRunRecord {
                        benchmark: b.short_name.clone(),
                        workload: r.workload.clone(),
                        memory: r.measures.as_ref()?.memory.clone(),
                    })
                })
            })
            .collect();
        MemoryDocument {
            schema_version: MEM_SCHEMA_VERSION,
            scale: report.scale,
            rows,
        }
    }

    /// Serializes to canonical JSON text (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            (
                "schema_version".to_owned(),
                Value::UInt(self.schema_version),
            ),
            ("scale".to_owned(), Value::Str(self.scale.name().to_owned())),
            (
                "rows".to_owned(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|row| {
                            Value::Object(vec![
                                ("benchmark".to_owned(), Value::Str(row.benchmark.clone())),
                                ("workload".to_owned(), Value::Str(row.workload.clone())),
                                ("memory".to_owned(), memory_profile_value(&row.memory)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses a memory document, enforcing the schema version before
    /// any other field is interpreted.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] on malformed text,
    /// [`ReportError::UnsupportedVersion`] on a version this build does
    /// not emit, [`ReportError::Schema`] on structural problems.
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        let value = crate::parse_versioned(text, MEM_SCHEMA_VERSION)?;
        let rows = req::<&[Value]>(&value, "rows")?
            .iter()
            .map(|row| {
                Ok(MemoryRunRecord {
                    benchmark: req(row, "benchmark")?,
                    workload: req(row, "workload")?,
                    memory: decode_memory_profile(req(row, "memory")?)?,
                })
            })
            .collect::<Result<_, DecodeError>>()?;
        Ok(MemoryDocument {
            schema_version: MEM_SCHEMA_VERSION,
            scale: req(&value, "scale")?,
            rows,
        })
    }
}
