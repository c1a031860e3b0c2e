//! Chrome trace-event export of a characterization sweep and of a
//! serving engine's span log.
//!
//! Both render a trace-event JSON document — the format `about:tracing`
//! and [Perfetto](https://ui.perfetto.dev) open directly — through one
//! set of event builders: lane metadata, complete (`"ph": "X"`) spans,
//! instant markers, and the `traceEvents` wrapper.
//!
//! [`render_trace`] lays out a [`SuiteReport`] with one complete span
//! per `(benchmark, workload)` run, grouped into per-lane timelines,
//! and instant-event annotations marking retried and lost runs. Two
//! timeline modes cover the two kinds of report this workspace
//! produces:
//!
//! * [`TraceMode::Virtual`] — a *deterministic* schedule built from
//!   modelled cycles only: runs are placed in canonical order onto the
//!   lane that frees up first, exactly the greedy policy of the real
//!   work-stealing scheduler but on modelled time. The output depends
//!   only on the report's deterministic fields, so serial and
//!   `--jobs N` sweeps of the same suite render byte-identical traces.
//!   This is what `bench-report --trace-dir` writes and what CI
//!   byte-compares;
//! * [`TraceMode::Telemetry`] — the *measured* schedule, from the
//!   `wall_nanos`/`start_nanos`/`worker` telemetry a `--telemetry`
//!   report retains: spans sit where the runs actually executed, one
//!   lane per worker thread. Volatile by nature, useful for eyeballing
//!   real scheduling behaviour, never byte-compared.
//!
//! The document reuses the canonical [`json::Value`](crate::json::Value) emitter, so trace
//! output inherits the same determinism guarantees as every other
//! artifact: ordered objects, exact integers, stable float rendering.
//! [`trace_directory`] bundles the timeline with the sweep's collapsed
//! stacks and hot-path report.
//!
//! [`render_service_timeline`] renders the *service*: the ordered
//! [`SpanEvent`] log a daemon accumulates is laid out as one timeline
//! lane per host, with each `placed` span positioned by the scheduler's
//! virtual ticks (1 tick = 1 µs of trace time). Virtual time makes it
//! deterministic too: the same request stream renders byte-identically
//! whether the engine ran serial, threaded, or process-backed. Lanes
//! and annotations:
//!
//! * one complete event per `placed` span, on the executing host's
//!   lane, named `benchmark/workload` and tagged with the originating
//!   request label, the cache key, and whether the task was stolen;
//! * instant markers for `redispatched` and `retried` events, pinned to
//!   the affected task's slot on its host lane;
//! * a trailing *service* lane carrying `cache_hit` and `failed`
//!   instants — events with no host to sit on — spread by their log
//!   sequence number so they stay readable and deterministic.

use crate::json::Value;
use crate::schema::{RunRecord, StatusKind, SuiteReport};
use crate::ReportError;
use alberta_core::{ResilientCharacterization, RunMetrics, SpanEvent};
use std::collections::BTreeMap;

/// Lanes of a trace directory's virtual timeline.
pub(crate) const DEFAULT_LANES: usize = 4;

/// Call paths per benchmark, hottest first, that a trace directory's
/// `report.json` embeds.
pub(crate) const HOT_PATH_COUNT: usize = 10;

/// The contents of a trace directory, file name → bytes, as
/// `bench-report --trace-dir DIR` writes them:
///
/// * `<benchmark>.<workload>.folded` — one collapsed-stack file per
///   surviving run (`caller;callee count` lines), straight from the
///   exact call tree, for flamegraph tooling (`inferno-flamegraph`,
///   `flamegraph.pl`);
/// * `trace.json` — the sweep's timeline: the virtual schedule over
///   `DEFAULT_LANES` lanes, or the measured one with `telemetry`;
/// * `report.json` — `report` with each benchmark's `HOT_PATH_COUNT`
///   hottest call paths embedded.
///
/// `report` is the report built from `results`, with its telemetry kept
/// exactly when `telemetry` is set. Without telemetry every file is
/// byte-identical across execution policies.
///
/// # Errors
///
/// [`ReportError::Schema`] when `telemetry` is set and a run lacks
/// wall-clock telemetry (see `render_trace`).
pub fn trace_directory(
    report: &SuiteReport,
    results: &[(ResilientCharacterization, Vec<RunMetrics>)],
    telemetry: bool,
) -> Result<BTreeMap<String, String>, ReportError> {
    let mut files: BTreeMap<String, String> = results
        .iter()
        .filter_map(|(r, _)| Some((&r.short_name, r.characterization.as_ref()?)))
        .flat_map(|(name, c)| {
            c.runs.iter().map(move |run| {
                (
                    format!("{name}.{}.folded", run.workload),
                    run.paths.folded(),
                )
            })
        })
        .collect();
    let mut annotated = report.clone();
    annotated.embed_hot_paths(results, HOT_PATH_COUNT);
    let mode = if telemetry {
        TraceMode::Telemetry
    } else {
        TraceMode::Virtual {
            lanes: DEFAULT_LANES,
        }
    };
    files.insert("trace.json".to_owned(), render_trace(&annotated, mode)?);
    files.insert("report.json".to_owned(), annotated.to_json());
    Ok(files)
}

/// Which timeline a trace renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceMode {
    /// Deterministic virtual schedule over modelled cycles (1 cycle =
    /// 1 µs of trace time), `lanes` parallel lanes.
    Virtual {
        /// Number of virtual worker lanes (≥ 1; 0 is clamped to 1).
        lanes: usize,
    },
    /// Measured schedule from wall-clock telemetry, one lane per
    /// worker.
    Telemetry,
}

/// One placed span, before serialization.
struct Span<'r> {
    benchmark: &'r str,
    run: &'r RunRecord,
    lane: u64,
    /// Microseconds from sweep start.
    start: f64,
    /// Microseconds.
    duration: f64,
}

/// Renders `report` as trace-event JSON under `mode`.
///
/// # Errors
///
/// [`ReportError::Schema`] in [`TraceMode::Telemetry`] when any run
/// lacks wall-clock telemetry — canonical reports strip it; generate
/// the report with `--telemetry` to keep it.
pub(crate) fn render_trace(report: &SuiteReport, mode: TraceMode) -> Result<String, ReportError> {
    let spans = match mode {
        TraceMode::Virtual { lanes } => virtual_spans(report, lanes.max(1)),
        TraceMode::Telemetry => telemetry_spans(report)?,
    };
    let mut events: Vec<Value> = Vec::new();
    events.push(metadata(
        "process_name",
        0,
        &format!("alberta sweep ({:?} scale)", report.scale),
    ));
    let mut lanes: Vec<u64> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let lane_label = match mode {
        TraceMode::Virtual { .. } => "lane",
        TraceMode::Telemetry => "worker",
    };
    for lane in &lanes {
        events.push(metadata(
            "thread_name",
            *lane,
            &format!("{lane_label} {lane}"),
        ));
    }
    for span in &spans {
        events.push(span_event(span));
        // Annotate degradations where they happened: an instant event
        // renders as a marker at the span's start in the viewer.
        match span.run.status {
            StatusKind::Ok => {}
            StatusKind::Degraded => events.push(instant_event(span, "retried")),
            StatusKind::Failed => events.push(instant_event(span, "lost")),
        }
    }
    Ok(document(events))
}

/// The deterministic virtual schedule: runs in canonical report order,
/// each placed on the lane with the earliest end time (ties to the
/// lowest lane index), with modelled cycles as the span duration. This
/// mirrors the real scheduler's greedy work-stealing policy, so the
/// rendered timeline *shape* is an honest picture of a `--jobs lanes`
/// sweep — on modelled time instead of volatile wall-clock.
fn virtual_spans(report: &SuiteReport, lanes: usize) -> Vec<Span<'_>> {
    let mut lane_ends = vec![0.0f64; lanes];
    let mut spans = Vec::new();
    for benchmark in &report.benchmarks {
        for run in &benchmark.runs {
            let duration = virtual_duration(run);
            let lane = lane_ends
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("lane ends are finite"))
                .map(|(i, _)| i)
                .expect("at least one lane");
            let start = lane_ends[lane];
            lane_ends[lane] = start + duration;
            spans.push(Span {
                benchmark: &benchmark.short_name,
                run,
                lane: lane as u64,
                start,
                duration,
            });
        }
    }
    spans
}

/// Modelled duration of a run in the virtual timeline: its modelled
/// cycles, or for runs without measures (lost runs) the retired-op
/// count at the abort — clamped to one so the span stays visible.
fn virtual_duration(run: &RunRecord) -> f64 {
    match &run.measures {
        Some(m) => m.cycles.max(1.0),
        None => run.budget_consumed.max(1) as f64,
    }
}

/// The measured schedule: spans positioned by their recorded
/// wall-clock start/duration, one lane per worker id.
fn telemetry_spans(report: &SuiteReport) -> Result<Vec<Span<'_>>, ReportError> {
    let mut spans = Vec::new();
    for benchmark in &report.benchmarks {
        for run in &benchmark.runs {
            let (Some(wall), Some(start), Some(worker)) =
                (run.wall_nanos, run.start_nanos, run.worker)
            else {
                return Err(ReportError::Schema {
                    message: format!(
                        "run {}/{} has no wall-clock telemetry (stripped reports cannot \
                         render a measured timeline; regenerate with --telemetry)",
                        benchmark.short_name, run.workload
                    ),
                });
            };
            spans.push(Span {
                benchmark: &benchmark.short_name,
                run,
                lane: worker,
                start: start as f64 / 1_000.0,
                duration: (wall as f64 / 1_000.0).max(0.001),
            });
        }
    }
    Ok(spans)
}

fn span_event(span: &Span<'_>) -> Value {
    let run = span.run;
    let mut args = vec![(
        "status".to_owned(),
        Value::Str(status_str(run.status).to_owned()),
    )];
    args.push(("retries".to_owned(), Value::UInt(u64::from(run.retries))));
    args.push((
        "budget_consumed".to_owned(),
        Value::UInt(run.budget_consumed),
    ));
    if let Some(m) = &run.measures {
        args.push(("cycles".to_owned(), Value::Float(m.cycles)));
        args.push(("ipc".to_owned(), Value::Float(m.ipc)));
    }
    if let Some(error) = &run.error {
        args.push(("error".to_owned(), Value::Str(error.clone())));
    }
    complete(
        format!("{}/{}", span.benchmark, run.workload),
        status_str(run.status),
        span.start,
        span.duration,
        span.lane,
        args,
    )
}

fn instant_event(span: &Span<'_>, label: &str) -> Value {
    instant(
        format!("{}/{}: {label}", span.benchmark, span.run.workload),
        span.start,
        span.lane,
        Vec::new(),
    )
}

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
/// span events, or when a host index leaves no lane after it for the
/// service.
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

    // First pass: every host a placed span names gets a lane, and every
    // placed key its slot, so annotation instants can be pinned to it.
    let mut slots: Vec<(String, Slot)> = Vec::new();
    let mut hosts: Vec<u64> = Vec::new();
    for e in events.iter().filter(|e| e.stage == "placed") {
        let Some(host) = attr_u64(e, "host") else {
            continue;
        };
        hosts.push(host);
        if let (Some(key), Some(start_ticks)) = (attr_str(e, "key"), attr_u64(e, "start_ticks")) {
            slots.push((key, Slot { host, start_ticks }));
        }
    }
    hosts.sort_unstable();
    hosts.dedup();
    let slot_of = |key: &str| slots.iter().find(|(k, _)| k == key).map(|(_, s)| s);
    // Events with no host lane (cache hits, failures) park on a trailing
    // service lane, past every host lane.
    let service_lane = match hosts.last() {
        None => 0,
        Some(&last) => last.checked_add(1).ok_or_else(|| ReportError::Schema {
            message: format!("host {last} leaves no lane for the service"),
        })?,
    };

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
                out.push(complete(
                    name,
                    "placed",
                    start as f64,
                    end.saturating_sub(start).max(1) as f64,
                    host,
                    args,
                ));
            }
            "redispatched" | "retried" => {
                // Pin the marker to the task's slot when we know it;
                // otherwise let it fall through to the service lane.
                let slot = attr_str(e, "key").as_deref().and_then(slot_of);
                let (tid, ts) = match slot {
                    Some(s) => (s.host, s.start_ticks as f64),
                    None => (service_lane, e.seq as f64),
                };
                out.push(span_log_instant(e, tid, ts));
            }
            "cache_hit" | "failed" => {
                out.push(span_log_instant(e, service_lane, e.seq as f64));
            }
            _ => {}
        }
    }

    Ok(document(out))
}

fn span_log_instant(e: &SpanEvent, tid: u64, ts: f64) -> Value {
    instant(
        format!("{}: {}", e.request, e.stage),
        ts,
        tid,
        vec![("request".to_owned(), Value::Str(e.request.clone()))],
    )
}

/// The trace document around `events`, rendered.
fn document(events: Vec<Value>) -> String {
    Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(events)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
    ])
    .render()
}

/// A metadata event naming process 0 or one of its lanes.
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

/// A complete event: a span of `dur` µs from `ts` on lane `tid`.
fn complete(
    name: String,
    cat: &str,
    ts: f64,
    dur: f64,
    tid: u64,
    args: Vec<(String, Value)>,
) -> Value {
    Value::Object(vec![
        ("name".to_owned(), Value::Str(name)),
        ("cat".to_owned(), Value::Str(cat.to_owned())),
        ("ph".to_owned(), Value::Str("X".to_owned())),
        ("ts".to_owned(), Value::Float(ts)),
        ("dur".to_owned(), Value::Float(dur)),
        ("pid".to_owned(), Value::UInt(0)),
        ("tid".to_owned(), Value::UInt(tid)),
        ("args".to_owned(), Value::Object(args)),
    ])
}

/// A thread-scoped instant marker at `ts` on lane `tid`; empty `args`
/// are left out.
fn instant(name: String, ts: f64, tid: u64, args: Vec<(String, Value)>) -> Value {
    let mut fields = vec![
        ("name".to_owned(), Value::Str(name)),
        ("ph".to_owned(), Value::Str("i".to_owned())),
        ("ts".to_owned(), Value::Float(ts)),
        ("pid".to_owned(), Value::UInt(0)),
        ("tid".to_owned(), Value::UInt(tid)),
        ("s".to_owned(), Value::Str("t".to_owned())),
    ];
    if !args.is_empty() {
        fields.push(("args".to_owned(), Value::Object(args)));
    }
    Value::Object(fields)
}

fn status_str(status: StatusKind) -> &'static str {
    match status {
        StatusKind::Ok => "ok",
        StatusKind::Degraded => "degraded",
        StatusKind::Failed => "failed",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::schema::{MeasureRecord, SCHEMA_VERSION};
    use alberta_core::SpanLog;
    use alberta_workloads::Scale;
    use std::collections::BTreeMap;

    fn run(workload: &str, status: StatusKind, cycles: Option<f64>) -> RunRecord {
        RunRecord {
            workload: workload.to_owned(),
            status,
            error: (status != StatusKind::Ok).then(|| "synthetic error".to_owned()),
            retried_at: (status == StatusKind::Degraded).then_some(Scale::Test),
            retries: u32::from(status == StatusKind::Degraded),
            budget_consumed: 50,
            wall_nanos: None,
            start_nanos: None,
            worker: None,
            dispatches: None,
            measures: cycles.map(|cycles| MeasureRecord {
                ratios: [0.25, 0.25, 0.25, 0.25],
                cycles,
                ipc: 1.0,
                retired_ops: 100,
                work: 10,
                checksum: 1,
                coverage: BTreeMap::new(),
                memory: Default::default(),
            }),
            sampling: None,
        }
    }

    fn sample_report() -> SuiteReport {
        SuiteReport {
            schema_version: SCHEMA_VERSION,
            scale: Scale::Test,
            benchmarks: vec![crate::schema::BenchmarkReport {
                spec_id: "505.mcf_r".to_owned(),
                short_name: "mcf".to_owned(),
                runs: vec![
                    run("train", StatusKind::Ok, Some(1000.0)),
                    run("refrate", StatusKind::Degraded, Some(400.0)),
                    run("alberta.0", StatusKind::Failed, None),
                    run("alberta.1", StatusKind::Ok, Some(200.0)),
                ],
                summary: None,
                hot_paths: None,
            }],
        }
    }

    #[test]
    fn virtual_trace_is_valid_json_with_expected_events() {
        let text = render_trace(&sample_report(), TraceMode::Virtual { lanes: 2 }).unwrap();
        let doc = json::parse(&text).expect("trace is well-formed JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 2 thread_name + 4 spans + 2 annotations.
        assert_eq!(events.len(), 9);
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("mcf/train"));
        assert_eq!(
            spans[1]
                .get("args")
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("degraded")
        );
        let instants = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .count();
        assert_eq!(instants, 2, "one marker per non-ok run");
    }

    #[test]
    fn virtual_schedule_packs_lanes_greedily() {
        let text = render_trace(&sample_report(), TraceMode::Virtual { lanes: 2 }).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = |name: &str| -> (u64, f64) {
            let e = events
                .iter()
                .find(|e| {
                    e.get("ph").unwrap().as_str() == Some("X")
                        && e.get("name").unwrap().as_str() == Some(name)
                })
                .unwrap();
            (
                e.get("tid").unwrap().as_u64().unwrap(),
                e.get("ts").unwrap().as_f64().unwrap(),
            )
        };
        // train (1000) fills lane 0; refrate (400) takes lane 1; the
        // failed run (duration 50) follows on lane 1 (earliest end);
        // alberta.1 lands after it, still on lane 1 (450 < 1000).
        assert_eq!(span("mcf/train"), (0, 0.0));
        assert_eq!(span("mcf/refrate"), (1, 0.0));
        assert_eq!(span("mcf/alberta.0"), (1, 400.0));
        assert_eq!(span("mcf/alberta.1"), (1, 450.0));
    }

    #[test]
    fn virtual_trace_ignores_lane_count_zero() {
        let text = render_trace(&sample_report(), TraceMode::Virtual { lanes: 0 }).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .all(|e| e.get("tid").unwrap().as_u64() == Some(0)));
    }

    #[test]
    fn virtual_trace_is_deterministic() {
        let report = sample_report();
        let a = render_trace(&report, TraceMode::Virtual { lanes: 4 }).unwrap();
        let b = render_trace(&report, TraceMode::Virtual { lanes: 4 }).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_mode_requires_telemetry() {
        let err = render_trace(&sample_report(), TraceMode::Telemetry).unwrap_err();
        assert!(err.to_string().contains("--telemetry"), "{err}");

        let mut report = sample_report();
        for r in &mut report.benchmarks[0].runs {
            r.wall_nanos = Some(5_000);
            r.start_nanos = Some(1_000);
            r.worker = Some(3);
        }
        let text = render_trace(&report, TraceMode::Telemetry).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(3));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.0), "ns → µs");
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(5.0));
        let lane_name = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .unwrap();
        assert_eq!(
            lane_name.get("args").unwrap().get("name").unwrap().as_str(),
            Some("worker 3")
        );
    }

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
    fn a_placed_span_ending_before_it_starts_lasts_one_tick() {
        // The span log arrives over the wire: an inverted span must
        // render, not overflow.
        let mut log = SpanLog::new();
        log.push(
            "storm-m0#1",
            "placed",
            vec![
                ("host".to_owned(), Value::UInt(0)),
                ("start_ticks".to_owned(), Value::UInt(9)),
                ("end_ticks".to_owned(), Value::UInt(4)),
            ],
        );
        let text = render_service_timeline(&log.to_value()).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("one placed span");
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn the_service_lane_never_shares_a_host_lane() {
        let placed = |host: u64, key: Option<&str>| -> Vec<(String, Value)> {
            let mut attrs = vec![
                ("host".to_owned(), Value::UInt(host)),
                ("start_ticks".to_owned(), Value::UInt(0)),
                ("end_ticks".to_owned(), Value::UInt(1)),
            ];
            attrs.extend(key.map(|k| ("key".to_owned(), Value::Str(k.to_owned()))));
            attrs
        };
        // The last host index leaves no lane after it.
        let mut log = SpanLog::new();
        log.push("r", "placed", placed(u64::MAX, Some("k")));
        assert!(matches!(
            render_service_timeline(&log.to_value()),
            Err(ReportError::Schema { .. })
        ));
        // A keyless span is still drawn on its host's lane.
        let mut log = SpanLog::new();
        log.push("r", "placed", placed(3, None));
        log.push("r", "cache_hit", Vec::new());
        let text = render_service_timeline(&log.to_value()).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let hit = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .unwrap();
        assert_eq!(hit.get("tid").unwrap().as_u64(), Some(4));
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
