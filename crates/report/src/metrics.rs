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
//! The document crosses the service wire as a value
//! ([`MetricsDocument::to_value`], [`MetricsDocument::from_value`]);
//! that decoder is the only one it has, because the files the
//! `serve-metrics` bin writes from it are never read back. Besides the
//! two planes' canonical JSON the document renders to Prometheus text
//! exposition format ([`MetricsDocument::to_prometheus`]) so the bin
//! can feed a scraper without any new dependency. Both run on bytes a
//! daemon sent, so neither panics on any value `from_value` accepts.

use crate::json::{req, DecodeError, Value};
use crate::schema::SCHEMA_VERSION;

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

    /// Renders both planes in Prometheus text exposition format. Every
    /// sample carries a `plane` label; histogram buckets are cumulative
    /// with a closing `+Inf` bucket, the way scrapers expect them. A
    /// cumulative count past `u64::MAX` saturates there.
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
            cumulative = cumulative.saturating_add(*bucket);
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
    fn document_round_trips_through_its_wire_value() {
        let doc = sample();
        let value = doc.to_value();
        let decoded = MetricsDocument::from_value(&value).expect("round trip");
        assert_eq!(decoded, doc);
        assert_eq!(decoded.to_value(), value);
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

    #[test]
    fn overflowing_buckets_saturate_instead_of_panicking() {
        let deterministic = json::parse(
            r#"{"histograms":{"h":{"edges":[1],"buckets":[18446744073709551615,1],
                "count":0,"sum":0}}}"#,
        )
        .unwrap();
        let text = MetricsDocument::new(deterministic, Value::Null).to_prometheus();
        assert!(text.contains("h_bucket{plane=\"deterministic\",le=\"1\"} 18446744073709551615"));
        assert!(text.contains("h_bucket{plane=\"deterministic\",le=\"+Inf\"} 18446744073709551615"));
    }
}
