//! Serving-layer document schemas: the content-addressed cache entry
//! and the storm client's deterministic load report.
//!
//! Both documents ride on the same canonical JSON substrate as the
//! sweep reports, so their serializations are deterministic and
//! byte-comparable across runs. The [`CacheDocument`] additionally
//! carries its own integrity hash: a truncated or bit-flipped entry is
//! detected at parse time instead of silently serving garbage.
//!
//! # What is deterministic, and what is not
//!
//! A [`StormReport`] contains only counters that are pure functions of
//! the request mix and the daemon configuration — request counts,
//! cache hits, per-host task placement, steal and redispatch totals —
//! so it can be committed as a golden file and byte-compared in CI. A
//! [`LatencyReport`] is wall-clock telemetry: tracked as an uploaded
//! artifact, never gated.

use crate::json::{self, opt, req, DecodeError, Value};
use crate::schema::SCHEMA_VERSION;
use crate::ReportError;
use alberta_core::protocol::{decode_run, decode_status, run_value, status_value, RemoteStatus};
use alberta_core::WorkloadRun;

/// One content-addressed cache entry: the complete, lossless outcome of
/// one `(benchmark, workload)` characterization run under a fully
/// specified configuration.
///
/// The entry stores the run through the same lossless codec the worker
/// pipe protocol uses ([`run_value`]/[`decode_run`]), not the flattened
/// report record — so a benchmark-level response can rebuild its Table
/// II summary from cached runs and serialize byte-identically to a
/// freshly computed sweep. The status is kept in its wire form
/// ([`RemoteStatus`]); the serving layer rehydrates benchmark names when
/// it builds records.
#[derive(Debug, Clone)]
pub struct CacheDocument {
    /// The content address this entry was stored under — the
    /// fingerprint of the canonical request, including schema and code
    /// versions. Recorded inside the entry so a file renamed or copied
    /// to the wrong address is detected as a mismatch.
    pub key: String,
    /// The run's fate, in wire form.
    pub status: RemoteStatus,
    /// Measurements, for survivors (lossless codec).
    pub run: Option<WorkloadRun>,
    /// Retry attempts made (deterministic accounting).
    pub retries: u32,
    /// Retired micro-ops consumed (deterministic accounting).
    pub budget_consumed: u64,
}

impl CacheDocument {
    /// Serializes the entry with an embedded integrity hash: the
    /// `payload_hash` field is the content fingerprint of the document
    /// *without* that field, so any corruption of the stored bytes —
    /// truncation, bit flips, a partial write — fails verification at
    /// parse time.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema_version".to_owned(), Value::UInt(SCHEMA_VERSION)),
            ("key".to_owned(), Value::Str(self.key.clone())),
            ("status".to_owned(), status_value(&self.status)),
        ];
        if let Some(run) = &self.run {
            fields.push(("run".to_owned(), run_value(run)));
        }
        fields.push(("retries".to_owned(), Value::UInt(u64::from(self.retries))));
        fields.push((
            "budget_consumed".to_owned(),
            Value::UInt(self.budget_consumed),
        ));
        let body = Value::Object(fields.clone());
        fields.push(("payload_hash".to_owned(), Value::Str(body.fingerprint())));
        Value::Object(fields).render()
    }

    /// Parses and verifies a cache entry.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] on malformed JSON (including truncation),
    /// [`ReportError::UnsupportedVersion`] when the entry was written
    /// by a different schema revision, and [`ReportError::Schema`] on
    /// structural problems — including an integrity-hash mismatch,
    /// which is how flipped bits inside an otherwise well-formed entry
    /// surface. Every error path means "treat the entry as absent":
    /// evict and recompute.
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        let value = crate::parse_versioned(text, SCHEMA_VERSION)?;
        // Integrity first: no field is trusted until the stored hash
        // matches the fingerprint of the document without it.
        let Value::Object(fields) = &value else {
            return Err(ReportError::Schema {
                message: "cache entry is not an object".to_owned(),
            });
        };
        let stored: &str = req(&value, "payload_hash")?;
        let body = Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "payload_hash")
                .cloned()
                .collect(),
        );
        if body.fingerprint() != stored {
            return Err(ReportError::Schema {
                message: "cache entry corrupt: payload hash mismatch".to_owned(),
            });
        }
        Ok(CacheDocument {
            key: req(&value, "key")?,
            status: decode_status(req(&value, "status")?)?,
            run: value.get("run").map(decode_run).transpose()?,
            retries: req(&value, "retries")?,
            budget_consumed: req(&value, "budget_consumed")?,
        })
    }
}

/// Per-host placement counters of one storm run: the delta of the
/// daemon's `alberta_host_<i>_{tasks,stolen}_total` metrics over the
/// run. Deterministic given the request mix and daemon configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRecord {
    /// Host index.
    pub host: u64,
    /// Tasks this host executed.
    pub tasks: u64,
    /// Of those, tasks stolen from another host's queue.
    pub stolen: u64,
}

impl HostRecord {
    /// The record as its canonical object in the storm report.
    pub fn to_value(self) -> Value {
        Value::Object(vec![
            ("host".to_owned(), Value::UInt(self.host)),
            ("tasks".to_owned(), Value::UInt(self.tasks)),
            ("stolen".to_owned(), Value::UInt(self.stolen)),
        ])
    }

    /// Parses a record from its canonical object — the inverse of
    /// [`HostRecord::to_value`].
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the missing or mistyped field.
    pub fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(HostRecord {
            host: req(value, "host")?,
            tasks: req(value, "tasks")?,
            stolen: req(value, "stolen")?,
        })
    }
}

/// The deterministic report of one storm run: request and cache
/// counters plus the scheduler's placement and recovery counters.
/// Committed as a golden file and byte-compared in CI — everything in
/// here must be a pure function of the request mix and the daemon
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Requests issued.
    pub requests: u64,
    /// Distinct cache keys among them.
    pub unique_keys: u64,
    /// Responses answered from the cache (including requests coalesced
    /// onto an in-flight computation).
    pub hits: u64,
    /// Responses that required a computation.
    pub computed: u64,
    /// Tasks executed on a host other than their home host.
    pub steals: u64,
    /// Extra dispatch attempts the host pools made beyond the first,
    /// summed over all computed tasks.
    pub redispatches: u64,
    /// Per-host placement, in host order.
    pub hosts: Vec<HostRecord>,
}

impl StormReport {
    /// The cache-hit ratio: `hits / requests`, 0 for an empty storm.
    /// Derived, not stored — both operands are exact counters, so the
    /// rendered value is deterministic too.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Serializes to canonical JSON text (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            (
                "schema_version".to_owned(),
                Value::UInt(self.schema_version),
            ),
            ("requests".to_owned(), Value::UInt(self.requests)),
            ("unique_keys".to_owned(), Value::UInt(self.unique_keys)),
            ("hits".to_owned(), Value::UInt(self.hits)),
            ("computed".to_owned(), Value::UInt(self.computed)),
            ("hit_ratio".to_owned(), Value::Float(self.hit_ratio())),
            ("steals".to_owned(), Value::UInt(self.steals)),
            ("redispatches".to_owned(), Value::UInt(self.redispatches)),
            (
                "hosts".to_owned(),
                Value::Array(self.hosts.iter().map(|h| h.to_value()).collect()),
            ),
        ])
        .render()
    }

    /// Parses a storm report. The stored `hit_ratio` is ignored — it is
    /// derived from the counters on demand.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`], [`ReportError::UnsupportedVersion`], or
    /// [`ReportError::Schema`], as for the other documents.
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        let value = crate::parse_versioned(text, SCHEMA_VERSION)?;
        Ok(StormReport {
            schema_version: SCHEMA_VERSION,
            requests: req(&value, "requests")?,
            unique_keys: req(&value, "unique_keys")?,
            hits: req(&value, "hits")?,
            computed: req(&value, "computed")?,
            steals: req(&value, "steals")?,
            redispatches: req(&value, "redispatches")?,
            hosts: req::<&[Value]>(&value, "hosts")?
                .iter()
                .map(HostRecord::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Wall-clock latency percentiles of one storm run. Volatile telemetry:
/// uploaded as a CI artifact for trend tracking, never gated — CI
/// machines are too noisy to assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyReport {
    /// Request latencies observed.
    pub samples: u64,
    /// Median latency in nanoseconds.
    pub p50_nanos: u64,
    /// 90th-percentile latency in nanoseconds.
    pub p90_nanos: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_nanos: u64,
    /// Worst observed latency in nanoseconds.
    pub max_nanos: u64,
}

impl LatencyReport {
    /// Builds the percentile summary from raw per-request latencies
    /// (any order; the slice is sorted in place). Percentiles use the
    /// nearest-rank method. An empty slice yields all zeros.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let rank = |pct: u64| -> u64 {
            if samples.is_empty() {
                return 0;
            }
            // Nearest-rank: ceil(pct/100 * n), 1-based, clamped.
            let n = samples.len() as u64;
            let r = (pct * n).div_ceil(100).clamp(1, n);
            samples[usize::try_from(r - 1).expect("rank fits usize")]
        };
        LatencyReport {
            samples: samples.len() as u64,
            p50_nanos: rank(50),
            p90_nanos: rank(90),
            p99_nanos: rank(99),
            max_nanos: samples.last().copied().unwrap_or(0),
        }
    }

    /// Serializes to canonical JSON text (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            ("samples".to_owned(), Value::UInt(self.samples)),
            ("p50_nanos".to_owned(), Value::UInt(self.p50_nanos)),
            ("p90_nanos".to_owned(), Value::UInt(self.p90_nanos)),
            ("p99_nanos".to_owned(), Value::UInt(self.p99_nanos)),
            ("max_nanos".to_owned(), Value::UInt(self.max_nanos)),
        ])
        .render()
    }

    /// Parses a latency report.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] or [`ReportError::Schema`].
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        let value = json::parse(text)?;
        Ok(LatencyReport {
            samples: req(&value, "samples")?,
            p50_nanos: req(&value, "p50_nanos")?,
            p90_nanos: req(&value, "p90_nanos")?,
            p99_nanos: req(&value, "p99_nanos")?,
            max_nanos: opt(&value, "max_nanos")?.unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_document_round_trips_and_verifies() {
        let doc = CacheDocument {
            key: "abc123".to_owned(),
            status: RemoteStatus::Ok,
            run: None,
            retries: 0,
            budget_consumed: 42,
        };
        let text = doc.to_json();
        let parsed = CacheDocument::parse(&text).unwrap();
        // The codec is lossless, so re-serialization is byte-identical.
        assert_eq!(parsed.to_json(), text);
        assert_eq!(parsed.key, doc.key);
        assert_eq!(parsed.status, doc.status);
        assert_eq!(parsed.budget_consumed, doc.budget_consumed);
    }

    #[test]
    fn corrupt_cache_document_is_rejected() {
        let doc = CacheDocument {
            key: "abc123".to_owned(),
            status: RemoteStatus::Failed {
                error: "lost".to_owned(),
                retryable: false,
            },
            run: None,
            retries: 1,
            budget_consumed: 7,
        };
        let text = doc.to_json();
        // Flip the accounting without updating the hash.
        let tampered = text.replace("\"budget_consumed\": 7", "\"budget_consumed\": 8");
        assert_ne!(tampered, text);
        let err = CacheDocument::parse(&tampered).unwrap_err();
        assert!(err.to_string().contains("hash mismatch"), "{err}");
        // Truncation is malformed JSON, also an error.
        assert!(CacheDocument::parse(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn storm_report_round_trips() {
        let report = StormReport {
            schema_version: SCHEMA_VERSION,
            requests: 1000,
            unique_keys: 200,
            hits: 800,
            computed: 200,
            steals: 13,
            redispatches: 2,
            hosts: vec![
                HostRecord {
                    host: 0,
                    tasks: 120,
                    stolen: 7,
                },
                HostRecord {
                    host: 1,
                    tasks: 80,
                    stolen: 6,
                },
            ],
        };
        let text = report.to_json();
        assert_eq!(StormReport::parse(&text).unwrap(), report);
        assert!(text.contains("\"hit_ratio\": 0.8"));
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).collect();
        let report = LatencyReport::from_samples(&mut samples);
        assert_eq!(report.samples, 100);
        assert_eq!(report.p50_nanos, 50);
        assert_eq!(report.p90_nanos, 90);
        assert_eq!(report.p99_nanos, 99);
        assert_eq!(report.max_nanos, 100);
        let empty = LatencyReport::from_samples(&mut []);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.max_nanos, 0);
    }
}
