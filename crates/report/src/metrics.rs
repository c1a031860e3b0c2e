//! The schema-versioned metrics document served by the `Metrics` wire
//! command.
//!
//! A [`MetricsDocument`] carries both telemetry planes as canonical
//! JSON: the **deterministic** plane (a pure function of the request
//! set — CI gates its rendering byte-for-byte against a committed
//! golden) and the **volatile** plane (wall-clock latencies, queue
//! depths — uploaded as an artifact, never gated). Each plane has the
//! registry snapshot shape:
//!
//! ```json
//! {"counters": {..}, "gauges": {..}, "histograms":
//!  {"name": {"edges": [..], "buckets": [..], "count": n, "sum": n}}}
//! ```
//!
//! Besides canonical JSON the document renders to Prometheus text
//! exposition format ([`MetricsDocument::to_prometheus`]) so the
//! `serve-metrics` bin can feed a scraper without any new dependency.

use crate::json::{req, DecodeError, Value};
use crate::schema::SCHEMA_VERSION;
use crate::ReportError;

/// Both telemetry planes of a serving engine, snapshotted.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDocument {
    /// Schema version of the document ([`SCHEMA_VERSION`] when built by
    /// this crate).
    pub schema_version: u64,
    /// The golden-gateable plane.
    pub deterministic: Value,
    /// The artifact-only plane.
    pub volatile: Value,
}

impl MetricsDocument {
    /// Wraps two plane snapshots under the current schema version.
    pub fn new(deterministic: Value, volatile: Value) -> Self {
        MetricsDocument {
            schema_version: SCHEMA_VERSION,
            deterministic,
            volatile,
        }
    }

    /// The document as a canonical JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "schema_version".to_owned(),
                Value::UInt(self.schema_version),
            ),
            ("deterministic".to_owned(), self.deterministic.clone()),
            ("volatile".to_owned(), self.volatile.clone()),
        ])
    }

    /// Rebuilds a document from its wire value.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(MetricsDocument {
            schema_version: req(value, "schema_version")?,
            deterministic: Value::Object(
                req::<&[(String, Value)]>(value, "deterministic")?.to_vec(),
            ),
            volatile: Value::Object(req::<&[(String, Value)]>(value, "volatile")?.to_vec()),
        })
    }

    /// A deterministic-plane counter by name, or `None` while no batch
    /// has touched it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        scalar(&self.deterministic, "counters", name)
    }

    /// A deterministic-plane gauge by name (`alberta_hosts`, say).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        scalar(&self.deterministic, "gauges", name)
    }

    /// Serializes to canonical JSON text (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// The deterministic plane alone, as a versioned document — the
    /// exact bytes CI compares against the committed golden. The
    /// volatile plane is deliberately absent so the gate can never trip
    /// on wall-clock noise.
    pub fn deterministic_to_json(&self) -> String {
        Value::Object(vec![
            (
                "schema_version".to_owned(),
                Value::UInt(self.schema_version),
            ),
            ("deterministic".to_owned(), self.deterministic.clone()),
        ])
        .render()
    }

    /// The volatile plane alone, as a versioned document — the artifact
    /// CI uploads without gating.
    pub fn volatile_to_json(&self) -> String {
        Value::Object(vec![
            (
                "schema_version".to_owned(),
                Value::UInt(self.schema_version),
            ),
            ("volatile".to_owned(), self.volatile.clone()),
        ])
        .render()
    }

    /// Parses a serialized document, enforcing the schema version.
    ///
    /// # Errors
    ///
    /// [`ReportError::Json`] for malformed text,
    /// [`ReportError::UnsupportedVersion`] for a version this build
    /// cannot read, [`ReportError::Schema`] otherwise.
    pub fn parse(text: &str) -> Result<Self, ReportError> {
        let value = crate::parse_versioned(text, SCHEMA_VERSION)?;
        Ok(MetricsDocument::from_value(&value)?)
    }

    /// Renders both planes in Prometheus text exposition format. Every
    /// sample carries a `plane` label; histogram buckets are cumulative
    /// with a closing `+Inf` bucket, the way scrapers expect them.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        render_plane(&mut out, "deterministic", &self.deterministic);
        render_plane(&mut out, "volatile", &self.volatile);
        out
    }
}

fn section<'v>(plane: &'v Value, name: &str) -> &'v [(String, Value)] {
    match plane.get(name) {
        Some(Value::Object(fields)) => fields,
        _ => &[],
    }
}

fn scalar(plane: &Value, kind: &str, name: &str) -> Option<u64> {
    section(plane, kind)
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.as_u64())
}

fn render_plane(out: &mut String, plane: &str, value: &Value) {
    for (name, v) in section(value, "counters") {
        let v = v.as_u64().unwrap_or(0);
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!("{name}{{plane=\"{plane}\"}} {v}\n"));
    }
    for (name, v) in section(value, "gauges") {
        let v = v.as_u64().unwrap_or(0);
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name}{{plane=\"{plane}\"}} {v}\n"));
    }
    for (name, hist) in section(value, "histograms") {
        let edges: Vec<u64> = hist
            .get("edges")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default();
        let buckets: Vec<u64> = hist
            .get("buckets")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default();
        let count = hist.get("count").and_then(Value::as_u64).unwrap_or(0);
        let sum = hist.get("sum").and_then(Value::as_u64).unwrap_or(0);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, bucket) in buckets.iter().enumerate() {
            cumulative += bucket;
            let le = match edges.get(i) {
                Some(edge) => edge.to_string(),
                None => "+Inf".to_owned(),
            };
            out.push_str(&format!(
                "{name}_bucket{{plane=\"{plane}\",le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!("{name}_sum{{plane=\"{plane}\"}} {sum}\n"));
        out.push_str(&format!("{name}_count{{plane=\"{plane}\"}} {count}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> MetricsDocument {
        let deterministic = json::parse(
            r#"{"counters":{"alberta_requests_total":96},"gauges":{"alberta_hosts":4},
                "histograms":{"alberta_keys_per_request":
                {"edges":[1,2,4],"buckets":[3,1,0,2],"count":6,"sum":31}}}"#,
        )
        .unwrap();
        let volatile = json::parse(
            r#"{"counters":{"alberta_connections_total":5},"gauges":{},"histograms":{}}"#,
        )
        .unwrap();
        MetricsDocument::new(deterministic, volatile)
    }

    #[test]
    fn document_round_trips_byte_identically() {
        let doc = sample();
        let text = doc.to_json();
        let parsed = MetricsDocument::parse(&text).expect("round trip");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn deterministic_rendering_excludes_the_volatile_plane() {
        let doc = sample();
        let det = doc.deterministic_to_json();
        assert!(det.contains("alberta_requests_total"));
        assert!(!det.contains("alberta_connections_total"));
        let vol = doc.volatile_to_json();
        assert!(vol.contains("alberta_connections_total"));
        assert!(!vol.contains("alberta_requests_total"));
    }

    #[test]
    fn counters_and_gauges_read_the_deterministic_plane_by_name() {
        let doc = sample();
        assert_eq!(doc.counter("alberta_requests_total"), Some(96));
        assert_eq!(doc.gauge("alberta_hosts"), Some(4));
        assert_eq!(doc.counter("alberta_hosts"), None, "a gauge, not a counter");
        assert_eq!(
            doc.counter("alberta_connections_total"),
            None,
            "the volatile plane is not read"
        );
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut doc = sample();
        doc.schema_version = 99;
        assert!(matches!(
            MetricsDocument::parse(&doc.to_json()),
            Err(ReportError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn prometheus_rendering_is_cumulative_with_inf_bucket() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE alberta_requests_total counter"));
        assert!(text.contains("alberta_requests_total{plane=\"deterministic\"} 96"));
        assert!(text.contains("alberta_hosts{plane=\"deterministic\"} 4"));
        // Buckets [3,1,0,2] over edges [1,2,4] cumulate to 3,4,4,6.
        assert!(
            text.contains("alberta_keys_per_request_bucket{plane=\"deterministic\",le=\"1\"} 3")
        );
        assert!(
            text.contains("alberta_keys_per_request_bucket{plane=\"deterministic\",le=\"2\"} 4")
        );
        assert!(
            text.contains("alberta_keys_per_request_bucket{plane=\"deterministic\",le=\"4\"} 4")
        );
        assert!(
            text.contains("alberta_keys_per_request_bucket{plane=\"deterministic\",le=\"+Inf\"} 6")
        );
        assert!(text.contains("alberta_keys_per_request_sum{plane=\"deterministic\"} 31"));
        assert!(text.contains("alberta_keys_per_request_count{plane=\"deterministic\"} 6"));
        assert!(text.contains("alberta_connections_total{plane=\"volatile\"} 5"));
    }
}
