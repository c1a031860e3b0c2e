//! Deterministic service telemetry: a two-plane metrics registry and
//! request-scoped span events.
//!
//! The serving layer needs to answer "where did the work go?" without
//! giving up the property every artifact in this workspace is built on:
//! byte-identical output across execution policies. Wall-clock numbers
//! can never satisfy that, so telemetry is split into two planes,
//! mirroring the `hot_paths`/`start_nanos` precedent in the report
//! schema:
//!
//! * [`Plane::Deterministic`] — counters and fixed-bucket histograms
//!   that are pure functions of the request set (requests, cache hits,
//!   steals, retries, failures, work-unit sizes). A snapshot of this
//!   plane is golden-file gateable: serial, threaded, and
//!   process-backed executions of the same request stream must render
//!   it byte-identically.
//! * [`Plane::Volatile`] — wall-clock latencies, queue depths, and
//!   connection counts. Tracked as uploaded artifacts for trend
//!   analysis, never gated — CI machines are too noisy to assert on.
//!
//! Histogram bucket edges are compile-time constants (`&'static [u64]`)
//! so two builds of the same code can never disagree about bucket
//! boundaries; re-registering a histogram under different edges panics
//! rather than silently merging incompatible shapes.
//!
//! Spans are the per-request companion: every request carries a
//! client-minted ID (a `client#id` label minted by [`request_label`]),
//! and each lifecycle stage — received, grouped, cache probe, placed,
//! dispatched, retried, completed — appends one [`SpanEvent`] to an
//! ordered [`SpanLog`]. The serving engine emits them in canonical
//! token order under its batch lock, so the whole log is deterministic
//! wherever its attributes are.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{opt, req, DecodeError, Value};

/// Which plane a metric belongs to. The split is the contract: nothing
/// wall-clock may ever enter [`Plane::Deterministic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Pure function of the request set; golden-file gateable.
    Deterministic,
    /// Wall-clock and environment-dependent; artifact-only.
    Volatile,
}

/// Bucket edges for small cardinality counts (keys per request, batch
/// sizes). The final implicit bucket is `+Inf`.
pub const COUNT_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Bucket edges for scheduler virtual-time ticks (task costs are 1–8).
pub const TICK_BUCKETS: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 8];

/// Bucket edges for wall-clock durations in nanoseconds (1µs–10s,
/// decade spacing). Volatile-plane only by convention.
pub const NANOS_BUCKETS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Mints the canonical request label from a client name and its
/// per-connection request id. The client chooses both halves — the
/// daemon never renames a request — so the label is stable across
/// retries, hosts, and process boundaries.
pub fn request_label(client: &str, id: u64) -> String {
    format!("{client}#{id}")
}

/// A fixed-bucket histogram: one counter per edge (`value <= edge`,
/// cumulative-free storage) plus an overflow bucket, an observation
/// count, and an exact sum.
#[derive(Debug)]
struct Histogram {
    edges: &'static [u64],
    /// `edges.len() + 1` buckets; the last is the `+Inf` overflow.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    fn new(edges: &'static [u64]) -> Self {
        Histogram {
            edges,
            buckets: vec![0; edges.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let slot = self
            .edges
            .iter()
            .position(|&edge| value <= edge)
            .unwrap_or(self.edges.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "edges".to_owned(),
                Value::Array(self.edges.iter().map(|&e| Value::UInt(e)).collect()),
            ),
            (
                "buckets".to_owned(),
                Value::Array(self.buckets.iter().map(|&b| Value::UInt(b)).collect()),
            ),
            ("count".to_owned(), Value::UInt(self.count)),
            ("sum".to_owned(), Value::UInt(self.sum)),
        ])
    }
}

#[derive(Debug, Default)]
struct PlaneState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl PlaneState {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "counters".to_owned(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The two-plane metrics registry. Monotonic counters, set-to-latest
/// gauges, and fixed-bucket histograms, each stored in sorted name
/// order so a snapshot renders canonically without post-processing.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    deterministic: Mutex<PlaneState>,
    volatile: Mutex<PlaneState>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn plane(&self, plane: Plane) -> &Mutex<PlaneState> {
        match plane {
            Plane::Deterministic => &self.deterministic,
            Plane::Volatile => &self.volatile,
        }
    }

    /// Adds `by` to the monotonic counter `name`. Creates it at zero on
    /// first use — an untouched counter still appears in the snapshot
    /// once any code path has named it.
    pub fn inc(&self, plane: Plane, name: &str, by: u64) {
        let mut state = self.plane(plane).lock().expect("metrics plane poisoned");
        *state.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, plane: Plane, name: &str, value: u64) {
        let mut state = self.plane(plane).lock().expect("metrics plane poisoned");
        state.gauges.insert(name.to_owned(), value);
    }

    /// Records one observation into the histogram `name` with the given
    /// compile-time bucket `edges`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was previously observed under different
    /// edges — two shapes under one name would render nonsense.
    pub fn observe(&self, plane: Plane, name: &str, edges: &'static [u64], value: u64) {
        let mut state = self.plane(plane).lock().expect("metrics plane poisoned");
        let histogram = state
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(edges));
        assert_eq!(
            histogram.edges, edges,
            "histogram {name:?} re-registered with different bucket edges"
        );
        histogram.observe(value);
    }

    /// A canonical snapshot of one plane:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// every map in sorted name order.
    pub fn snapshot(&self, plane: Plane) -> Value {
        self.plane(plane)
            .lock()
            .expect("metrics plane poisoned")
            .to_value()
    }
}

/// One lifecycle event of one request. Events carry no timestamps —
/// ordering lives in `seq`, minted by the [`SpanLog`] — so a span log
/// whose attributes are deterministic renders byte-identically across
/// execution policies.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Position in the log (0-based, gap-free).
    pub seq: u64,
    /// The originating client's request label (see [`request_label`]).
    pub request: String,
    /// Lifecycle stage, e.g. `received`, `cache_hit`, `placed`,
    /// `dispatched`, `retried`, `completed`.
    pub stage: String,
    /// Stage-specific attributes, in emission order.
    pub attrs: Vec<(String, Value)>,
}

impl SpanEvent {
    /// The event as a canonical wire object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seq".to_owned(), Value::UInt(self.seq)),
            ("request".to_owned(), Value::Str(self.request.clone())),
            ("stage".to_owned(), Value::Str(self.stage.clone())),
            ("attrs".to_owned(), Value::Object(self.attrs.clone())),
        ])
    }

    /// Parses an event from its wire object.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(SpanEvent {
            seq: req(value, "seq")?,
            request: req(value, "request")?,
            stage: req(value, "stage")?,
            attrs: opt::<&[(String, Value)]>(value, "attrs")?
                .unwrap_or_default()
                .to_vec(),
        })
    }
}

/// An ordered, append-only log of [`SpanEvent`]s. The appender decides
/// the order; the log's only job is minting gap-free sequence numbers
/// and rendering canonically.
#[derive(Debug, Default)]
pub struct SpanLog {
    events: Vec<SpanEvent>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Appends one event, assigning the next sequence number.
    pub fn push(&mut self, request: &str, stage: &str, attrs: Vec<(String, Value)>) {
        self.events.push(SpanEvent {
            seq: self.events.len() as u64,
            request: request.to_owned(),
            stage: stage.to_owned(),
            attrs,
        });
    }

    /// The events, in sequence order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events appended so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The whole log as a canonical array.
    pub fn to_value(&self) -> Value {
        Value::Array(self.events.iter().map(SpanEvent::to_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_snapshot_in_sorted_order() {
        let registry = MetricsRegistry::new();
        registry.inc(Plane::Deterministic, "zeta_total", 2);
        registry.inc(Plane::Deterministic, "alpha_total", 1);
        registry.inc(Plane::Deterministic, "zeta_total", 3);
        registry.set_gauge(Plane::Volatile, "depth", 7);
        registry.set_gauge(Plane::Volatile, "depth", 4);

        let det = registry.snapshot(Plane::Deterministic).render_compact();
        assert_eq!(
            det,
            r#"{"counters":{"alpha_total":1,"zeta_total":5},"gauges":{},"histograms":{}}"#
        );
        let vol = registry.snapshot(Plane::Volatile);
        assert_eq!(
            vol.get("gauges").unwrap().get("depth").unwrap().as_u64(),
            Some(4)
        );
    }

    #[test]
    fn histograms_bucket_by_less_or_equal_with_overflow() {
        let registry = MetricsRegistry::new();
        for v in [1, 2, 2, 9, 1_000] {
            registry.observe(Plane::Deterministic, "work", COUNT_BUCKETS, v);
        }
        let snapshot = registry.snapshot(Plane::Deterministic);
        let hist = snapshot.get("histograms").unwrap().get("work").unwrap();
        let buckets: Vec<u64> = hist
            .get("buckets")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .collect();
        // COUNT_BUCKETS = [1,2,4,8,16,32,64,128] + overflow.
        assert_eq!(buckets, vec![1, 2, 0, 0, 1, 0, 0, 0, 1]);
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(5));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(1_014));
    }

    #[test]
    #[should_panic(expected = "different bucket edges")]
    fn histogram_edge_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.observe(Plane::Volatile, "h", COUNT_BUCKETS, 1);
        registry.observe(Plane::Volatile, "h", TICK_BUCKETS, 1);
    }

    #[test]
    fn span_log_orders_and_round_trips() {
        let mut log = SpanLog::new();
        log.push(
            &request_label("storm-m0", 3),
            "received",
            vec![("benchmark".to_owned(), Value::Str("mcf".to_owned()))],
        );
        log.push(&request_label("storm-m0", 3), "completed", Vec::new());
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].seq, 0);
        assert_eq!(log.events()[1].seq, 1);
        assert_eq!(log.events()[0].request, "storm-m0#3");

        let rendered = log.to_value();
        let events = rendered.as_array().unwrap();
        let parsed = SpanEvent::from_value(&events[0]).unwrap();
        assert_eq!(parsed, log.events()[0]);
        // Same appends, same bytes.
        let mut again = SpanLog::new();
        again.push(
            &request_label("storm-m0", 3),
            "received",
            vec![("benchmark".to_owned(), Value::Str("mcf".to_owned()))],
        );
        again.push(&request_label("storm-m0", 3), "completed", Vec::new());
        assert_eq!(again.to_value().render(), rendered.render());
    }
}
