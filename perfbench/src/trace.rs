//! In-memory span recorder for the traced run.
//!
//! Every call the traced rebuild makes into a layer is wrapped in a span
//! (name, start, end, parent span, op id). Spans stay in memory and are
//! written out once, when the run ends. A span's self time is its
//! duration minus the part of it its child spans cover; the per-layer
//! metrics are sums of self times by span name.

use alberta_core::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in order of opening.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.call`, e.g. `profile.exec`.
    pub name: &'static str,
    /// The operation (run, analyze call, request) the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// to parent nested spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// A copy of every closed span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans as a JSON array, ordered by id.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans()
                .into_iter()
                .map(|s| {
                    Value::Object(vec![
                        ("id".to_owned(), Value::UInt(s.id)),
                        (
                            "parent".to_owned(),
                            s.parent.map_or(Value::Null, Value::UInt),
                        ),
                        ("name".to_owned(), Value::Str(s.name.to_owned())),
                        ("op".to_owned(), Value::UInt(s.op)),
                        ("start_ns".to_owned(), Value::UInt(s.start_ns)),
                        ("end_ns".to_owned(), Value::UInt(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Summed self time by span name, in seconds.
pub struct SelfTimes(BTreeMap<&'static str, f64>);

impl SelfTimes {
    /// The self time of every span named `name`; zero when none ran.
    pub fn seconds(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Self time by span name: each span's duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&span.id) {
            kids.sort_unstable();
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let own = (span.end_ns - span.start_ns).saturating_sub(covered);
        *out.entry(span.name).or_default() += own as f64 / 1e9;
    }
    SelfTimes(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "run", 0, 1_000),
            // Overlapping children: the union is [100, 700), 600 ns.
            span(1, Some(0), "profile.exec", 100, 500),
            span(2, Some(0), "uarch.analyze", 400, 700),
            span(3, Some(1), "profile.finish", 200, 300),
        ];
        let times = self_times(&spans);
        assert_eq!(times.seconds("run"), 400e-9);
        assert_eq!(times.seconds("profile.exec"), 300e-9);
        assert_eq!(times.seconds("uarch.analyze"), 300e-9);
        assert_eq!(times.seconds("profile.finish"), 100e-9);
        assert_eq!(times.seconds("never.ran"), 0.0);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let tracer = Tracer::default();
        let value = tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| 42)
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
