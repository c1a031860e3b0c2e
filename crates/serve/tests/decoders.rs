//! Byte-level guards on every decoder that reads a canonical-JSON
//! document from a pipe, a socket or the disk: the emitted bytes are
//! pinned, and seeded mutations of valid documents must never panic a
//! decoder, while every mutation a decoder accepts must reach an
//! emit → parse → emit fixed point.

use std::panic::catch_unwind;

use alberta_core::faults::{FaultKind, FaultPlan};
use alberta_core::json::{self, Value};
use alberta_core::protocol::{
    decode_run, run_value, RemoteStatus, SupervisorMsg, TaskMsg, TaskResult, WorkerConfig,
    WorkerMsg, PROTOCOL_VERSION,
};
use alberta_core::telemetry::NANOS_BUCKETS;
use alberta_core::{
    MemoryProfile, MetricsRegistry, MpkiPoint, PathRow, PathTable, Plane, SampleConfig,
    SamplingPolicy, SamplingStats, Scale, SpanLog, TopDownModel, TopDownReport, WorkloadRun,
};
use alberta_profile::ProfilerFault;
use alberta_report::{CacheDocument, MemoryDocument, MetricsDocument, StormReport, SuiteReport};
use alberta_serve::spec::parse_spec;
use alberta_serve::{
    host_counters, ClientMsg, GroupInfo, RequestSpec, ResponseCounts, ServerMsg, WIRE_VERSION,
};
use alberta_stats::variation::TopDownRatios;
use proptest::TestRng;

const BENCH_GOLDEN: &str = include_str!("../../../BENCH_test.json");
const MEM_GOLDEN: &str = include_str!("../../../MEM_test.json");
const STORM_GOLDEN: &str = include_str!("../../../STORM_test.json");
const METRICS_GOLDEN: &str = include_str!("../../../METRICS_test.json");

/// Mutations tried per decoder.
const MUTATIONS: usize = 500;

fn sample_run() -> WorkloadRun {
    WorkloadRun {
        workload: "alberta.3".to_owned(),
        report: TopDownReport {
            ratios: TopDownRatios {
                front_end: 0.125,
                back_end: 0.5,
                bad_speculation: 0.0625,
                retiring: 0.3125,
            },
            cycles: 12345.678,
            retired_ops: u64::MAX - 7,
            ipc: 2.5,
            mispredict_rate: 0.01,
            mispredicts_per_kops: 10.5,
            l1d_miss_ratio: 0.02,
            l2_miss_ratio: 0.3,
            l3_miss_ratio: 0.125,
            dtlb_miss_ratio: 0.001,
            icache_miss_ratio: 0.0,
            predictor: "gshare",
            memory: MemoryProfile {
                l1_mpki: 6.25,
                l2_mpki: 1.875,
                l3_mpki: 0.25,
                row_hit_rate: 0.75,
                dram_bytes: 4096.0,
                footprint_lines: 321,
                footprint_pages: 17,
                mpki_curve: vec![
                    MpkiPoint {
                        size_bytes: 16 * 1024,
                        mpki: 7.5,
                    },
                    MpkiPoint {
                        size_bytes: 32 * 1024,
                        mpki: 6.25,
                    },
                ],
            },
        },
        coverage: [("kernel".to_owned(), 62.5), ("main".to_owned(), 37.5)]
            .into_iter()
            .collect(),
        paths: PathTable::from_rows(vec![
            PathRow {
                path: "main".to_owned(),
                calls: 1,
                exclusive: 3,
                inclusive: 100,
            },
            PathRow {
                path: "main;kernel".to_owned(),
                calls: 42,
                exclusive: 97,
                inclusive: 97,
            },
        ]),
        work: 4096,
        checksum: 0xDEAD_BEEF_CAFE_F00D,
        sampling: Some(SamplingStats {
            interval_work: 1024,
            intervals: 9,
            clusters: 3,
            detailed_ops: 3072,
            total_ops: 9216,
        }),
    }
}

fn sample_config() -> SupervisorMsg {
    let reference = TopDownModel::reference();
    SupervisorMsg::Config(Box::new(WorkerConfig {
        scale: Scale::Train,
        sampling: SampleConfig {
            work_budget: Some(1 << 40),
            fault: Some(ProfilerFault::PanicAtEvent(17)),
            ..SampleConfig::default()
        },
        policy: SamplingPolicy::phase(),
        machine: *reference.config(),
        predictor: reference.predictor(),
        faults: FaultPlan::new(9)
            .inject("mcf", "train", FaultKind::MalformedWorkload)
            .inject("xz", "refrate", FaultKind::WorkerHang { attempts: 2 }),
        beat_ms: 40,
    }))
}

fn sample_result() -> WorkerMsg {
    WorkerMsg::Result(Box::new(TaskResult {
        id: 3,
        status: RemoteStatus::Degraded {
            error: "benchmark mcf panicked: boom".to_owned(),
            retryable: true,
            retried_at: Scale::Test,
        },
        run: Some(sample_run()),
        retries: 1,
        budget_consumed: 9216,
        request: Some("e2e#11".to_owned()),
    }))
}

fn sample_spec() -> RequestSpec {
    let mut spec = RequestSpec::new("mcf", Some("alberta.1"), Scale::Ref);
    spec.policy = SamplingPolicy::phase();
    spec
}

fn sample_cache_document() -> CacheDocument {
    CacheDocument {
        key: sample_spec().run_key("alberta.1"),
        status: RemoteStatus::Ok,
        run: Some(sample_run()),
        retries: 0,
        budget_consumed: 4096,
    }
}

/// The compact wire encodings, the cache key and the cache document,
/// as emitted before the codecs were consolidated. Any byte that moves
/// here changes what workers, clients and the on-disk cache read.
#[test]
fn encodings_are_pinned() {
    assert_eq!(
        sample_config().encode(),
        r#"{"type":"config","protocol":3,"scale":"train","sampling":{"branch_interval":1,"mem_interval":1,"call_interval":1,"trace_capacity":1048576,"work_budget":1099511627776,"interval_work":null,"fault":{"kind":"panic_at_event","at":17}},"policy":{"kind":"phase","interval_work":131072,"k":16,"seed":169599610},"machine":{"issue_width":4,"mispredict_penalty":14,"l2_latency":10,"l3_latency":35,"memory_latency":180,"tlb_penalty":30,"icache_penalty":12,"memory_parallelism":4,"uops_per_unit":3,"taken_branch_bubble":0.35,"baseline_frontend":0.05,"baseline_badspec":0.012,"baseline_backend":0.06,"icache":{"size_bytes":32768,"line_bytes":64,"ways":8},"l1d":{"size_bytes":32768,"line_bytes":64,"ways":8},"l2":{"size_bytes":262144,"line_bytes":64,"ways":8},"l3":{"size_bytes":8388608,"line_bytes":64,"ways":16},"dtlb_entries":64,"dram":{"banks":8,"row_bytes":8192,"line_bytes":64},"fetch_probe_bytes":256},"predictor":{"kind":"gshare","bits":14},"faults":{"seed":9,"faults":[{"benchmark":"mcf","workload":"train","kind":{"kind":"malformed_workload"}},{"benchmark":"xz","workload":"refrate","kind":{"kind":"worker_hang","attempts":2}}]},"beat_ms":40}"#
    );
    assert_eq!(
        sample_result().encode(),
        r#"{"type":"result","id":3,"status":{"kind":"degraded","error":"benchmark mcf panicked: boom","retryable":true,"retried_at":"test"},"run":{"workload":"alberta.3","report":{"front_end":0.125,"back_end":0.5,"bad_speculation":0.0625,"retiring":0.3125,"cycles":12345.678,"retired_ops":18446744073709551608,"ipc":2.5,"mispredict_rate":0.01,"mispredicts_per_kops":10.5,"l1d_miss_ratio":0.02,"l2_miss_ratio":0.3,"l3_miss_ratio":0.125,"dtlb_miss_ratio":0.001,"icache_miss_ratio":0,"predictor":"gshare","memory":{"l1_mpki":6.25,"l2_mpki":1.875,"l3_mpki":0.25,"row_hit_rate":0.75,"dram_bytes":4096,"footprint_lines":321,"footprint_pages":17,"mpki_curve":[{"size_bytes":16384,"mpki":7.5},{"size_bytes":32768,"mpki":6.25}]}},"coverage":{"kernel":62.5,"main":37.5},"paths":[["main",1,3,100],["main;kernel",42,97,97]],"work":4096,"checksum":16045690984503111693,"sampling":{"interval_work":1024,"intervals":9,"clusters":3,"detailed_ops":3072,"total_ops":9216}},"retries":1,"budget_consumed":9216,"request":"e2e#11"}"#
    );
    assert_eq!(
        sample_spec().to_value().render_compact(),
        r#"{"benchmark":"mcf","workload":"alberta.1","scale":"ref","sampling":{"kind":"phase","interval_work":131072,"k":16,"seed":169599610},"machine":{"issue_width":4,"mispredict_penalty":14,"l2_latency":10,"l3_latency":35,"memory_latency":180,"tlb_penalty":30,"icache_penalty":12,"memory_parallelism":4,"uops_per_unit":3,"taken_branch_bubble":0.35,"baseline_frontend":0.05,"baseline_badspec":0.012,"baseline_backend":0.06,"icache":{"size_bytes":32768,"line_bytes":64,"ways":8},"l1d":{"size_bytes":32768,"line_bytes":64,"ways":8},"l2":{"size_bytes":262144,"line_bytes":64,"ways":8},"l3":{"size_bytes":8388608,"line_bytes":64,"ways":16},"dtlb_entries":64,"dram":{"banks":8,"row_bytes":8192,"line_bytes":64},"fetch_probe_bytes":256},"predictor":{"kind":"gshare","bits":14}}"#
    );
    assert_eq!(
        sample_spec().run_key("alberta.1"),
        "80af1b023c74d5af6633fbbf94ca7dc6"
    );
    assert_eq!(sample_cache_document().to_json(), CACHE_DOCUMENT);
}

/// The committed service goldens agree with themselves. In the storm
/// report the hosts' tasks sum to `computed` and their steals to
/// `steals`. In the metrics plane each configured host has one task
/// and one stolen counter, and they sum to the computed keys and the
/// steals (a key a dead host left unplaced counts in neither).
#[test]
fn service_goldens_agree_with_themselves() {
    let storm = StormReport::parse(STORM_GOLDEN).expect("STORM golden parses");
    let storm_tasks: u64 = storm.hosts.iter().map(|h| h.tasks).sum();
    let storm_stolen: u64 = storm.hosts.iter().map(|h| h.stolen).sum();
    assert_eq!(storm_tasks, storm.computed);
    assert_eq!(storm_stolen, storm.steals);

    let golden = json::parse(METRICS_GOLDEN).expect("METRICS golden parses");
    let plane = golden.get("deterministic").expect("deterministic plane");
    let metrics = MetricsDocument::new(plane.clone(), Value::Null);
    let hosts = metrics.gauge("alberta_hosts").expect("the host roster") as usize;
    let (mut tasks, mut stolen) = (0u64, 0u64);
    for host in 0..hosts {
        let (task_counter, stolen_counter) = host_counters(host);
        tasks += metrics.counter(&task_counter).expect(&task_counter);
        stolen += metrics.counter(&stolen_counter).expect(&stolen_counter);
    }
    assert_eq!(Some(tasks), metrics.counter("alberta_keys_computed_total"));
    assert_eq!(Some(stolen), metrics.counter("alberta_steals_total"));
    let per_host = plane
        .get("counters")
        .and_then(Value::as_object)
        .expect("counters")
        .iter()
        .filter(|(name, _)| name.starts_with("alberta_host_"))
        .count();
    assert_eq!(per_host, 2 * hosts, "one pair per host");
}

/// The worker pipe refuses a configuration of another protocol
/// revision, naming both: here, the pinned revision-1 line, which still
/// carried the retired `mode` field, and the revision-2 line, which
/// still carried the retired per-task deadline.
#[test]
fn config_of_another_protocol_revision_is_refused() {
    for (line, revision) in [(PROTOCOL_1_CONFIG, 1), (PROTOCOL_2_CONFIG, 2)] {
        let err = SupervisorMsg::decode(line).unwrap_err();
        assert_eq!(
            err,
            format!(
                "protocol mismatch: worker speaks {PROTOCOL_VERSION}, supervisor sent {revision}"
            )
        );
    }
}

const PROTOCOL_1_CONFIG: &str = r#"{"type":"config","protocol":1,"mode":"resilient","scale":"train","sampling":{"branch_interval":1,"mem_interval":1,"call_interval":1,"trace_capacity":1048576,"work_budget":1099511627776,"interval_work":null,"fault":{"kind":"panic_at_event","at":17}},"policy":{"kind":"phase","interval_work":131072,"k":16,"seed":169599610},"machine":{"issue_width":4,"mispredict_penalty":14,"l2_latency":10,"l3_latency":35,"memory_latency":180,"tlb_penalty":30,"icache_penalty":12,"memory_parallelism":4,"uops_per_unit":3,"taken_branch_bubble":0.35,"baseline_frontend":0.05,"baseline_badspec":0.012,"baseline_backend":0.06,"icache":{"size_bytes":32768,"line_bytes":64,"ways":8},"l1d":{"size_bytes":32768,"line_bytes":64,"ways":8},"l2":{"size_bytes":262144,"line_bytes":64,"ways":8},"l3":{"size_bytes":8388608,"line_bytes":64,"ways":16},"dtlb_entries":64,"dram":{"banks":8,"row_bytes":8192,"line_bytes":64},"fetch_probe_bytes":256},"predictor":{"kind":"gshare","bits":14},"faults":{"seed":9,"faults":[{"benchmark":"mcf","workload":"train","kind":{"kind":"malformed_workload"}},{"benchmark":"xz","workload":"refrate","kind":{"kind":"worker_hang","attempts":2}}]},"deadline_work":null,"beat_ms":40}"#;

const PROTOCOL_2_CONFIG: &str = r#"{"type":"config","protocol":2,"scale":"train","sampling":{"branch_interval":1,"mem_interval":1,"call_interval":1,"trace_capacity":1048576,"work_budget":1099511627776,"interval_work":null,"fault":{"kind":"panic_at_event","at":17}},"policy":{"kind":"phase","interval_work":131072,"k":16,"seed":169599610},"machine":{"issue_width":4,"mispredict_penalty":14,"l2_latency":10,"l3_latency":35,"memory_latency":180,"tlb_penalty":30,"icache_penalty":12,"memory_parallelism":4,"uops_per_unit":3,"taken_branch_bubble":0.35,"baseline_frontend":0.05,"baseline_badspec":0.012,"baseline_backend":0.06,"icache":{"size_bytes":32768,"line_bytes":64,"ways":8},"l1d":{"size_bytes":32768,"line_bytes":64,"ways":8},"l2":{"size_bytes":262144,"line_bytes":64,"ways":8},"l3":{"size_bytes":8388608,"line_bytes":64,"ways":16},"dtlb_entries":64,"dram":{"banks":8,"row_bytes":8192,"line_bytes":64},"fetch_probe_bytes":256},"predictor":{"kind":"gshare","bits":14},"faults":{"seed":9,"faults":[{"benchmark":"mcf","workload":"train","kind":{"kind":"malformed_workload"}},{"benchmark":"xz","workload":"refrate","kind":{"kind":"worker_hang","attempts":2}}]},"deadline_work":null,"beat_ms":40}"#;

/// A machine or predictor no model can build, or no host can hold, is
/// refused when it arrives, on the socket (`parse_spec`) and on the
/// worker pipe (the `Config` message) alike, with an error that names
/// the structure. Accepted, it would run the workload and then panic in
/// the model, or ask for 32 GiB or more of model state, and run again as
/// a retry. Decoding builds nothing, so no case allocates.
#[test]
fn machines_no_model_can_build_are_rejected_by_name() {
    let spec = sample_spec().to_value().render_compact();
    let config = sample_config().encode();
    for (valid, invalid, error) in [
        (r#""ways":16}"#, r#""ways":3}"#, "L3 geometry invalid"),
        (r#""banks":8,"#, r#""banks":6,"#, "DRAM geometry invalid"),
        (
            r#""dtlb_entries":64,"#,
            r#""dtlb_entries":4294967296,"#,
            "D-TLB geometry invalid",
        ),
        (
            r#""l3":{"size_bytes":8388608,"#,
            r#""l3":{"size_bytes":1099511627776,"#,
            "L3 geometry invalid",
        ),
        (
            r#""banks":8,"#,
            r#""banks":1099511627776,"#,
            "DRAM geometry invalid",
        ),
        (r#""bits":14}"#, r#""bits":0}"#, "predictor table invalid"),
        (r#""bits":14}"#, r#""bits":25}"#, "predictor table invalid"),
    ] {
        for text in [&spec, &config] {
            assert_eq!(text.matches(valid).count(), 1, "{valid} in {text}");
        }
        let err = parse_spec(&spec.replace(valid, invalid)).unwrap_err();
        assert!(err.starts_with(error), "{invalid}: {err}");
        let err = SupervisorMsg::decode(&config.replace(valid, invalid)).unwrap_err();
        assert!(err.starts_with(error), "{invalid}: {err}");
    }
}

const CACHE_DOCUMENT: &str = r#"{
  "schema_version": 2,
  "key": "80af1b023c74d5af6633fbbf94ca7dc6",
  "status": {
    "kind": "ok"
  },
  "run": {
    "workload": "alberta.3",
    "report": {
      "front_end": 0.125,
      "back_end": 0.5,
      "bad_speculation": 0.0625,
      "retiring": 0.3125,
      "cycles": 12345.678,
      "retired_ops": 18446744073709551608,
      "ipc": 2.5,
      "mispredict_rate": 0.01,
      "mispredicts_per_kops": 10.5,
      "l1d_miss_ratio": 0.02,
      "l2_miss_ratio": 0.3,
      "l3_miss_ratio": 0.125,
      "dtlb_miss_ratio": 0.001,
      "icache_miss_ratio": 0,
      "predictor": "gshare",
      "memory": {
        "l1_mpki": 6.25,
        "l2_mpki": 1.875,
        "l3_mpki": 0.25,
        "row_hit_rate": 0.75,
        "dram_bytes": 4096,
        "footprint_lines": 321,
        "footprint_pages": 17,
        "mpki_curve": [
          {
            "size_bytes": 16384,
            "mpki": 7.5
          },
          {
            "size_bytes": 32768,
            "mpki": 6.25
          }
        ]
      }
    },
    "coverage": {
      "kernel": 62.5,
      "main": 37.5
    },
    "paths": [
      [
        "main",
        1,
        3,
        100
      ],
      [
        "main;kernel",
        42,
        97,
        97
      ]
    ],
    "work": 4096,
    "checksum": 16045690984503111693,
    "sampling": {
      "interval_work": 1024,
      "intervals": 9,
      "clusters": 3,
      "detailed_ops": 3072,
      "total_ops": 9216
    }
  },
  "retries": 0,
  "budget_consumed": 4096,
  "payload_hash": "8f8fb0a7a333c70c5694f82ac7d2f109"
}
"#;

/// One decoder under test: valid seed documents, and a codec that
/// decodes a text and, when the decoder accepts it, re-emits the
/// decoded value.
struct Decoder {
    name: &'static str,
    seeds: Vec<String>,
    codec: fn(&str) -> Option<String>,
    /// Re-compute the cache entry's integrity hash after half of the
    /// mutations, so the fields behind the hash check get exercised too.
    reseal: bool,
}

fn decoder(name: &'static str, seeds: Vec<String>, codec: fn(&str) -> Option<String>) -> Decoder {
    Decoder {
        name,
        seeds,
        codec,
        reseal: false,
    }
}

fn decoders() -> Vec<Decoder> {
    let run = run_value(&sample_run()).render_compact();
    let mut report = SuiteReport::parse(BENCH_GOLDEN).expect("BENCH golden parses");
    report.benchmarks.retain(|b| b.short_name == "mcf");
    let mut memory = MemoryDocument::parse(MEM_GOLDEN).expect("MEM golden parses");
    memory.rows.truncate(3);
    // The metrics golden holds the deterministic plane alone, which the
    // document parser rejects; the seed adds a volatile plane.
    let golden = json::parse(METRICS_GOLDEN).expect("METRICS golden parses");
    let volatile = MetricsRegistry::new();
    volatile.inc(Plane::Volatile, "alberta_connections_total", 5);
    volatile.observe(
        Plane::Volatile,
        "alberta_drain_nanos",
        NANOS_BUCKETS,
        1_234_567,
    );
    let metrics = MetricsDocument::new(
        golden
            .get("deterministic")
            .expect("deterministic plane")
            .clone(),
        volatile.snapshot(Plane::Volatile),
    );
    let mut spans = SpanLog::new();
    spans.push(
        "storm-m0#1",
        "received",
        vec![("keys".to_owned(), Value::UInt(2))],
    );
    spans.push("storm-m0#1", "completed", Vec::new());
    let failed_entry = CacheDocument {
        status: RemoteStatus::Failed {
            error: "lost".to_owned(),
            retryable: false,
        },
        run: None,
        retries: 2,
        ..sample_cache_document()
    };

    let mut all = vec![
        decoder("decode_run", vec![run], |text| {
            let run = decode_run(&json::parse(text).ok()?).ok()?;
            Some(run_value(&run).render_compact())
        }),
        decoder(
            "SupervisorMsg",
            vec![
                sample_config().encode(),
                SupervisorMsg::Task(TaskMsg {
                    id: 19,
                    benchmark: "deepsjeng".to_owned(),
                    workload: "alberta.7".to_owned(),
                    attempt: 2,
                    request: Some("storm-m1#4".to_owned()),
                })
                .encode(),
            ],
            |text| SupervisorMsg::decode(text).ok().map(|m| m.encode()),
        ),
        decoder(
            "WorkerMsg",
            vec![
                sample_result().encode(),
                WorkerMsg::Hello {
                    protocol: PROTOCOL_VERSION,
                }
                .encode(),
                WorkerMsg::Beat { id: 77 }.encode(),
            ],
            |text| WorkerMsg::decode(text).ok().map(|m| m.encode()),
        ),
        decoder(
            "ClientMsg",
            vec![
                ClientMsg::Hello {
                    protocol: WIRE_VERSION,
                    client: Some("storm-m2".to_owned()),
                    group: Some(GroupInfo {
                        id: "storm-1".to_owned(),
                        size: 4,
                        member: 2,
                    }),
                }
                .encode(),
                ClientMsg::Request {
                    id: 7,
                    spec: Box::new(sample_spec()),
                }
                .encode(),
                ClientMsg::Drain.encode(),
            ],
            |text| ClientMsg::decode(text).ok().map(|m| m.encode()),
        ),
        decoder(
            "ServerMsg",
            vec![
                ServerMsg::Response {
                    id: 4,
                    counts: ResponseCounts {
                        computed: 1,
                        cached: 2,
                        coalesced: 0,
                        failed: 0,
                    },
                    body: run_value(&sample_run()),
                }
                .encode(),
                ServerMsg::Metrics {
                    document: metrics.to_value(),
                }
                .encode(),
                ServerMsg::Spans {
                    spans: spans.to_value(),
                }
                .encode(),
                ServerMsg::Error {
                    id: 3,
                    message: "unknown benchmark \"nope\"".to_owned(),
                }
                .encode(),
            ],
            |text| ServerMsg::decode(text).ok().map(|m| m.encode()),
        ),
        decoder(
            "parse_spec",
            vec![sample_spec().to_value().render_compact()],
            |text| Some(parse_spec(text).ok()?.to_value().render_compact()),
        ),
        decoder("SuiteReport", vec![report.to_json()], |text| {
            SuiteReport::parse(text).ok().map(|r| r.to_json())
        }),
        decoder("MemoryDocument", vec![memory.to_json()], |text| {
            MemoryDocument::parse(text).ok().map(|d| d.to_json())
        }),
        Decoder {
            reseal: true,
            ..decoder(
                "CacheDocument",
                vec![sample_cache_document().to_json(), failed_entry.to_json()],
                |text| CacheDocument::parse(text).ok().map(|d| d.to_json()),
            )
        },
        decoder("StormReport", vec![STORM_GOLDEN.to_owned()], |text| {
            StormReport::parse(text).ok().map(|r| r.to_json())
        }),
        decoder("MetricsDocument", vec![metrics.to_json()], |text| {
            MetricsDocument::parse(text).ok().map(|d| d.to_json())
        }),
    ];
    let every_seed = all.iter().flat_map(|d| d.seeds.clone()).collect();
    all.push(decoder("json::parse", every_seed, |text| {
        json::parse(text).ok().map(|v| v.render())
    }));
    all
}

/// Numbers at the edges of the decoders' integer and float handling.
const EDGE_NUMBERS: [&str; 4] = ["18446744073709551616", "-1", "1e400", "4294967296"];

/// Characters a replacement draws from: JSON structure, number syntax,
/// escapes, control and multi-byte text.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '0', '7', '-', '.', 'e', '\\', 'n', 'u', ' ', '\u{1}', 'μ',
    '🦀',
];

/// A char boundary of `text`, uniformly placed.
fn boundary(rng: &mut TestRng, text: &str) -> usize {
    let mut at = rng.below(text.len() as u64 + 1) as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A half-open range `[start, end)` of `text` on char boundaries.
fn range(rng: &mut TestRng, text: &str) -> (usize, usize) {
    let (a, b) = (boundary(rng, text), boundary(rng, text));
    (a.min(b), a.max(b))
}

/// One seeded mutation of `text`; `other` is a seed to splice from.
fn mutate(rng: &mut TestRng, text: &str, other: &str) -> String {
    match rng.below(5) {
        0 => text[..boundary(rng, text)].to_owned(),
        1 => {
            let at = boundary(rng, text);
            let len = text[at..].chars().next().map_or(0, char::len_utf8);
            let c = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
            format!("{}{c}{}", &text[..at], &text[at + len..])
        }
        2 => {
            let (start, end) = range(rng, text);
            format!("{}{}", &text[..start], &text[end..])
        }
        3 => {
            let (start, end) = range(rng, other);
            let at = boundary(rng, text);
            format!("{}{}{}", &text[..at], &other[start..end], &text[at..])
        }
        _ => {
            let numbers: Vec<(usize, usize)> = text
                .char_indices()
                .filter(|&(i, c)| {
                    c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit())
                })
                .map(|(i, _)| {
                    let len = text[i..]
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(text.len() - i);
                    (i, i + len)
                })
                .collect();
            if numbers.is_empty() {
                return text[..boundary(rng, text)].to_owned();
            }
            let (start, end) = numbers[rng.below(numbers.len() as u64) as usize];
            let edge = EDGE_NUMBERS[rng.below(EDGE_NUMBERS.len() as u64) as usize];
            format!("{}{edge}{}", &text[..start], &text[end..])
        }
    }
}

/// Re-computes a cache entry's `payload_hash` over its other fields,
/// the way [`CacheDocument::to_json`] seals it.
fn reseal(text: &str) -> String {
    let Ok(Value::Object(mut fields)) = json::parse(text) else {
        return text.to_owned();
    };
    fields.retain(|(key, _)| key != "payload_hash");
    let hash = Value::Object(fields.clone()).fingerprint();
    fields.push(("payload_hash".to_owned(), Value::Str(hash)));
    Value::Object(fields).render()
}

#[test]
fn mutated_documents_never_panic_and_accepted_ones_are_fixed_points() {
    let decoders = decoders();
    let every_seed: Vec<&String> = decoders.iter().flat_map(|d| &d.seeds).collect();
    for decoder in &decoders {
        for seed in &decoder.seeds {
            assert!(
                (decoder.codec)(seed).is_some(),
                "{}: seed rejected: {seed}",
                decoder.name
            );
        }
        let mut rng = TestRng::for_test(decoder.name);
        let mut accepted = 0;
        for round in 0..MUTATIONS {
            let seed = &decoder.seeds[rng.below(decoder.seeds.len() as u64) as usize];
            let other = every_seed[rng.below(every_seed.len() as u64) as usize];
            let mut text = mutate(&mut rng, seed, other);
            if decoder.reseal && rng.below(2) == 0 {
                text = reseal(&text);
            }
            let Ok(decoded) = catch_unwind(|| (decoder.codec)(&text)) else {
                panic!(
                    "{}: mutation {round} panicked the decoder: {text:?}",
                    decoder.name
                );
            };
            let Some(emitted) = decoded else { continue };
            accepted += 1;
            let Ok(again) = catch_unwind(|| (decoder.codec)(&emitted)) else {
                panic!(
                    "{}: re-emitted mutation {round} panicked: {emitted:?}",
                    decoder.name
                );
            };
            assert_eq!(
                again.as_deref(),
                Some(emitted.as_str()),
                "{}: mutation {round} is not an emit → parse → emit fixed point: {text:?}",
                decoder.name
            );
        }
        assert!(accepted > 0, "{}: no mutation was accepted", decoder.name);
    }
}
