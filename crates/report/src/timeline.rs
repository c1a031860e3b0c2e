//! Chrome trace-event export of a serving engine's span log.
//!
//! Where [`crate::trace`] renders a characterization *sweep*, this
//! module renders the *service*: the ordered [`SpanEvent`] log a daemon
//! accumulates is laid out as one timeline lane per host, with each
//! `placed` span positioned by the scheduler's virtual ticks (1 tick =
//! 1 µs of trace time). Virtual time is what makes the artifact
//! deterministic: the same request stream renders byte-identically
//! whether the engine ran serial, threaded, or process-backed, so the
//! file is both a debugging view (open it in `about:tracing` or
//! Perfetto) and a gateable artifact.
//!
//! Lanes and annotations:
//!
//! * one `"X"` (complete) event per `placed` span, on the executing
//!   host's lane, named `benchmark/workload` and tagged with the
//!   originating request label, the cache key, and whether the task was
//!   stolen;
//! * instant markers for `redispatched` and `retried` events, pinned to
//!   the affected task's slot on its host lane;
//! * a trailing *service* lane carrying `cache_hit` and `failed`
//!   instants — events with no host to sit on — spread by their log
//!   sequence number so they stay readable and deterministic.

use alberta_core::telemetry::SpanEvent;

use crate::json::Value;
use crate::ReportError;

/// One placed task, indexed by cache key so later annotation events can
/// find their slot on the timeline.
struct Slot {
    host: u64,
    start_ticks: u64,
}

/// Renders a span log (the `Spans` wire response, a canonical array of
/// span events) as trace-event JSON.
///
/// # Errors
///
/// [`ReportError::Schema`] when `spans` is not an array of well-formed
/// span events.
pub fn render_service_timeline(spans: &Value) -> Result<String, ReportError> {
    let raw = spans.as_array().ok_or_else(|| ReportError::Schema {
        message: "span log must be an array".to_owned(),
    })?;
    let events: Vec<SpanEvent> = raw
        .iter()
        .map(SpanEvent::from_value)
        .collect::<Result<_, _>>()?;

    let attr_u64 = |e: &SpanEvent, name: &str| -> Option<u64> {
        e.attrs
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
    };
    let attr_str = |e: &SpanEvent, name: &str| -> Option<String> {
        e.attrs
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
            .map(str::to_owned)
    };

    // First pass: where every placed key landed, so annotation instants
    // can be pinned to the right slot.
    let mut slots: Vec<(String, Slot)> = Vec::new();
    let mut hosts: Vec<u64> = Vec::new();
    for e in &events {
        if e.stage != "placed" {
            continue;
        }
        let (Some(key), Some(host), Some(start_ticks)) = (
            attr_str(e, "key"),
            attr_u64(e, "host"),
            attr_u64(e, "start_ticks"),
        ) else {
            continue;
        };
        hosts.push(host);
        slots.push((key, Slot { host, start_ticks }));
    }
    hosts.sort_unstable();
    hosts.dedup();
    let slot_of = |key: &str| slots.iter().find(|(k, _)| k == key).map(|(_, s)| s);
    // Events with no host lane (cache hits, failures) park on a trailing
    // service lane.
    let service_lane = hosts.last().map_or(0, |h| h + 1);

    let mut out: Vec<Value> = Vec::new();
    out.push(metadata("process_name", 0, "alberta service"));
    for host in &hosts {
        out.push(metadata("thread_name", *host, &format!("host {host}")));
    }
    out.push(metadata("thread_name", service_lane, "service"));

    for e in &events {
        match e.stage.as_str() {
            "placed" => {
                let (Some(host), Some(start), Some(end)) = (
                    attr_u64(e, "host"),
                    attr_u64(e, "start_ticks"),
                    attr_u64(e, "end_ticks"),
                ) else {
                    continue;
                };
                let name = format!(
                    "{}/{}",
                    attr_str(e, "benchmark").unwrap_or_default(),
                    attr_str(e, "workload").unwrap_or_default()
                );
                let mut args = vec![("request".to_owned(), Value::Str(e.request.clone()))];
                if let Some(key) = attr_str(e, "key") {
                    args.push(("key".to_owned(), Value::Str(key)));
                }
                args.push((
                    "stolen".to_owned(),
                    e.attrs
                        .iter()
                        .find(|(k, _)| k == "stolen")
                        .map(|(_, v)| v.clone())
                        .unwrap_or(Value::Bool(false)),
                ));
                out.push(Value::Object(vec![
                    ("name".to_owned(), Value::Str(name)),
                    ("cat".to_owned(), Value::Str("placed".to_owned())),
                    ("ph".to_owned(), Value::Str("X".to_owned())),
                    ("ts".to_owned(), Value::Float(start as f64)),
                    ("dur".to_owned(), Value::Float((end - start).max(1) as f64)),
                    ("pid".to_owned(), Value::UInt(0)),
                    ("tid".to_owned(), Value::UInt(host)),
                    ("args".to_owned(), Value::Object(args)),
                ]));
            }
            "redispatched" | "retried" => {
                // Pin the marker to the task's slot when we know it;
                // otherwise let it fall through to the service lane.
                let slot = attr_str(e, "key").as_deref().and_then(slot_of);
                let (tid, ts) = match slot {
                    Some(s) => (s.host, s.start_ticks as f64),
                    None => (service_lane, e.seq as f64),
                };
                out.push(instant(e, tid, ts));
            }
            "cache_hit" | "failed" => {
                out.push(instant(e, service_lane, e.seq as f64));
            }
            _ => {}
        }
    }

    let document = Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(out)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
    ]);
    Ok(document.render())
}

fn metadata(name: &str, tid: u64, label: &str) -> Value {
    Value::Object(vec![
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("ph".to_owned(), Value::Str("M".to_owned())),
        ("pid".to_owned(), Value::UInt(0)),
        ("tid".to_owned(), Value::UInt(tid)),
        (
            "args".to_owned(),
            Value::Object(vec![("name".to_owned(), Value::Str(label.to_owned()))]),
        ),
    ])
}

fn instant(e: &SpanEvent, tid: u64, ts: f64) -> Value {
    Value::Object(vec![
        (
            "name".to_owned(),
            Value::Str(format!("{}: {}", e.request, e.stage)),
        ),
        ("ph".to_owned(), Value::Str("i".to_owned())),
        ("ts".to_owned(), Value::Float(ts)),
        ("pid".to_owned(), Value::UInt(0)),
        ("tid".to_owned(), Value::UInt(tid)),
        ("s".to_owned(), Value::Str("t".to_owned())),
        (
            "args".to_owned(),
            Value::Object(vec![("request".to_owned(), Value::Str(e.request.clone()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use alberta_core::telemetry::SpanLog;

    fn sample_log() -> SpanLog {
        let mut log = SpanLog::new();
        log.push(
            "storm-m0#1",
            "received",
            vec![("benchmark".to_owned(), Value::Str("mcf".to_owned()))],
        );
        log.push(
            "storm-m0#1",
            "cache_hit",
            vec![("key".to_owned(), Value::Str("aa11".to_owned()))],
        );
        log.push(
            "storm-m0#1",
            "placed",
            vec![
                ("key".to_owned(), Value::Str("bb22".to_owned())),
                ("host".to_owned(), Value::UInt(2)),
                ("stolen".to_owned(), Value::Bool(true)),
                ("start_ticks".to_owned(), Value::UInt(4)),
                ("end_ticks".to_owned(), Value::UInt(9)),
                ("benchmark".to_owned(), Value::Str("mcf".to_owned())),
                ("workload".to_owned(), Value::Str("train".to_owned())),
            ],
        );
        log.push(
            "storm-m0#1",
            "redispatched",
            vec![
                ("key".to_owned(), Value::Str("bb22".to_owned())),
                ("attempt".to_owned(), Value::UInt(2)),
            ],
        );
        log.push("storm-m0#1", "completed", Vec::new());
        log
    }

    #[test]
    fn timeline_places_spans_on_host_lanes() {
        let text = render_service_timeline(&sample_log().to_value()).unwrap();
        let doc = json::parse(&text).expect("timeline is well-formed JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("one placed span");
        assert_eq!(span.get("name").unwrap().as_str(), Some("mcf/train"));
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(4.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            span.get("args").unwrap().get("request").unwrap().as_str(),
            Some("storm-m0#1"),
            "every span is tagged with the originating request label"
        );
    }

    #[test]
    fn annotations_pin_to_slots_and_service_lane() {
        let text = render_service_timeline(&sample_log().to_value()).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let instants: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2, "cache_hit + redispatched");
        let hit = instants
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("cache_hit")
            })
            .unwrap();
        // Host lanes end at 2, so the service lane is 3.
        assert_eq!(hit.get("tid").unwrap().as_u64(), Some(3));
        let redispatch = instants
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("redispatched")
            })
            .unwrap();
        assert_eq!(redispatch.get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(redispatch.get("ts").unwrap().as_f64(), Some(4.0));
        let lanes: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .collect();
        assert_eq!(lanes.len(), 2, "host 2 + service");
    }

    #[test]
    fn timeline_is_deterministic_and_rejects_malformed_logs() {
        let log = sample_log().to_value();
        assert_eq!(
            render_service_timeline(&log).unwrap(),
            render_service_timeline(&log).unwrap()
        );
        assert!(render_service_timeline(&Value::UInt(3)).is_err());
        let bad = Value::Array(vec![Value::Object(vec![(
            "stage".to_owned(),
            Value::Str("received".to_owned()),
        )])]);
        assert!(matches!(
            render_service_timeline(&bad),
            Err(ReportError::Schema { .. })
        ));
    }
}
