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
//!
//! The document is written for readers and compared by bytes; nothing
//! reads it back, so it has no parser. The saved [`SuiteReport`] it is
//! projected from is the document that gets decoded.

use crate::json::Value;
use crate::schema::SuiteReport;
use alberta_core::protocol::memory_profile_value;
use alberta_core::MemoryProfile;
use alberta_workloads::Scale;

/// The schema version of `MEM_*.json` documents.
pub(crate) const MEM_SCHEMA_VERSION: u64 = 1;

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

/// The memory view of one full sweep, written as schema version
/// `MEM_SCHEMA_VERSION`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryDocument {
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
            scale: report.scale,
            rows,
        }
    }

    /// Serializes to canonical JSON text (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            ("schema_version".to_owned(), Value::UInt(MEM_SCHEMA_VERSION)),
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
}
