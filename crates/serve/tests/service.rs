//! End-to-end daemon tests over localhost: cold-vs-warm byte identity,
//! equality with a direct suite computation, grouped drains, the
//! hello's version gate, and shutdown; and the engine's bounded span
//! retention.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use alberta_core::telemetry::SPAN_LOG_CAPACITY;
use alberta_core::{ExecPolicy, Scale, Suite};
use alberta_report::SuiteReport;
use alberta_serve::{
    request_label, BatchRequest, Client, ClientMsg, Daemon, Engine, GroupInfo, RequestSpec,
    ResultCache, ServeConfig,
};

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("alberta-serve-svc-{}-{tag}", std::process::id()))
}

/// Starts a daemon with the given config on an ephemeral port and
/// returns its address plus the thread running its accept loop.
fn start_daemon_with(
    tag: &str,
    config: ServeConfig,
) -> (String, std::thread::JoinHandle<()>, PathBuf) {
    let root = temp_root(tag);
    let engine = Engine::new(config, ResultCache::new(&root));
    let daemon = Daemon::bind("127.0.0.1:0", engine).expect("bind ephemeral port");
    let addr = daemon.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || daemon.run());
    (addr, handle, root)
}

fn start_daemon(tag: &str) -> (String, std::thread::JoinHandle<()>, PathBuf) {
    start_daemon_with(
        tag,
        ServeConfig {
            hosts: 3,
            ..ServeConfig::default()
        },
    )
}

#[test]
fn cold_and_warm_responses_match_each_other_and_direct_compute() {
    let (addr, daemon, root) = start_daemon("cold-warm");
    let spec = RequestSpec::new("mcf", None, Scale::Test);

    // Cold: the daemon has to compute everything.
    let mut client = Client::connect(&addr, None).expect("connect");
    client.request(&spec).expect("send");
    let cold = client.drain().expect("cold drain");
    assert_eq!(cold.len(), 1);
    let cold_body = cold[0]
        .result
        .as_ref()
        .expect("a response")
        .render_compact();
    assert!(cold[0].counts.computed > 0, "cold batch computes");
    assert_eq!(cold[0].counts.cached, 0);

    // Warm: byte-identical, answered entirely from the cache.
    client.request(&spec).expect("send again");
    let warm = client.drain().expect("warm drain");
    let warm_body = warm[0]
        .result
        .as_ref()
        .expect("a response")
        .render_compact();
    assert_eq!(cold_body, warm_body, "cache changes nothing but latency");
    assert_eq!(warm[0].counts.computed, 0);
    assert!(warm[0].counts.cached > 0, "warm batch only reads");

    // Both must equal what a direct in-process sweep produces for the
    // same benchmark — the service adds no bytes of its own.
    let suite = Suite::new(Scale::Test);
    let result = suite
        .characterize_resilient_metered("mcf")
        .expect("mcf exists");
    let mut report = SuiteReport::from_resilient(Scale::Test, &[result]);
    report.strip_telemetry();
    let direct = report
        .benchmark("505.mcf_r")
        .expect("mcf in the reference suite")
        .to_value()
        .render_compact();
    assert_eq!(cold_body, direct, "served bytes match a fresh sweep");

    // The metrics document saw both drains.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.counter("alberta_requests_total"), Some(2));
    assert!(metrics
        .counter("alberta_cache_hits_total")
        .is_some_and(|hits| hits > 0));

    // The daemon drains its handler threads on shutdown, so every
    // other connection must be closed first.
    drop(client);
    Client::connect(&addr, None)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread exits after shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn grouped_drains_resolve_as_one_batch() {
    let (addr, daemon, root) = start_daemon("grouped");
    let spec = RequestSpec::new("mcf", Some("alberta.1"), Scale::Test);

    // Two members of one group send the same workload request; the
    // daemon resolves the union as one batch, so exactly one member
    // computes and the other coalesces — never two computations.
    let specs = [spec.clone(), spec];
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(member, spec)| {
                let addr = &addr;
                scope.spawn(move || {
                    let group = GroupInfo {
                        id: "svc-group".to_owned(),
                        size: 2,
                        member: member as u64,
                    };
                    let mut client = Client::connect(addr, Some(group)).expect("connect");
                    client.request(spec).expect("send");
                    client.drain().expect("drain")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let bodies: Vec<String> = results
        .iter()
        .map(|responses| {
            assert_eq!(responses.len(), 1);
            responses[0]
                .result
                .as_ref()
                .expect("a response")
                .render_compact()
        })
        .collect();
    assert_eq!(bodies[0], bodies[1], "members see identical bytes");
    let computed: u64 = results.iter().map(|r| r[0].counts.computed).sum();
    let coalesced: u64 = results.iter().map(|r| r[0].counts.coalesced).sum();
    assert_eq!(computed, 1, "one member owns the computation");
    assert_eq!(coalesced, 1, "the other coalesces onto it");

    Client::connect(&addr, None)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread exits");
    let _ = std::fs::remove_dir_all(&root);
}

/// Drives one fixed request sequence against a daemon — two named
/// clients, cold then warm drains — and returns the deterministic
/// metrics plane and span log renderings it produced.
fn telemetry_session(addr: &str) -> (String, String) {
    let mut alpha = Client::connect_named(addr, Some("alpha"), None).expect("connect alpha");
    alpha
        .request(&RequestSpec::new("mcf", None, Scale::Test))
        .expect("send");
    alpha
        .request(&RequestSpec::new("xz", Some("train"), Scale::Test))
        .expect("send");
    alpha.drain().expect("alpha drain");

    // A second named client warms onto alpha's cache entries.
    let mut beta = Client::connect_named(addr, Some("beta"), None).expect("connect beta");
    beta.request(&RequestSpec::new("mcf", None, Scale::Test))
        .expect("send");
    beta.drain().expect("beta drain");

    let metrics = alpha.metrics().expect("metrics document");
    let spans = alpha.spans().expect("span log");
    (metrics.deterministic_to_json(), spans.render())
}

#[test]
fn every_span_carries_its_clients_request_id_across_jobs() {
    // Same request sequence against a serial engine and a `--jobs 4`
    // threaded engine: the deterministic metrics plane and the span log
    // must come out byte-identical, and every span must be labeled by
    // the client that minted the request.
    let (serial_addr, serial_daemon, serial_root) = start_daemon_with(
        "telemetry-serial",
        ServeConfig {
            hosts: 3,
            ..ServeConfig::default()
        },
    );
    let (serial_metrics, serial_spans) = telemetry_session(&serial_addr);

    let (jobs_addr, jobs_daemon, jobs_root) = start_daemon_with(
        "telemetry-jobs",
        ServeConfig {
            hosts: 3,
            host_exec: ExecPolicy::with_jobs(4),
            ..ServeConfig::default()
        },
    );
    let (jobs_metrics, jobs_spans) = telemetry_session(&jobs_addr);

    assert_eq!(
        serial_metrics, jobs_metrics,
        "deterministic metrics plane must not depend on --jobs"
    );
    assert_eq!(
        serial_spans, jobs_spans,
        "span log must not depend on --jobs"
    );

    let spans = alberta_core::json::parse(&serial_spans).expect("span log is canonical JSON");
    let events = spans.as_array().expect("span log is an array");
    assert!(!events.is_empty(), "the session produced spans");
    let mut seen = std::collections::BTreeSet::new();
    for event in events {
        let request = event
            .get("request")
            .and_then(|r| r.as_str())
            .expect("every span names a request");
        assert!(
            request == "alpha#0" || request == "alpha#1" || request == "beta#0",
            "span labeled by a client-minted request id, got {request:?}"
        );
        seen.insert(request.to_owned());
    }
    assert_eq!(
        seen.len(),
        3,
        "all three requests appear in the span log: {seen:?}"
    );

    for (addr, daemon, root) in [
        (serial_addr, serial_daemon, serial_root),
        (jobs_addr, jobs_daemon, jobs_root),
    ] {
        Client::connect(&addr, None)
            .expect("connect for shutdown")
            .shutdown()
            .expect("shutdown");
        daemon.join().expect("daemon thread exits");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// After a drain, every computed key is one `*.json` entry under a
/// two-hex shard directory of the cache root.
#[test]
fn stats_report_per_shard_cache_state() {
    let (addr, daemon, root) = start_daemon("shards");
    let mut client = Client::connect(&addr, None).expect("connect");
    client
        .request(&RequestSpec::new("mcf", None, Scale::Test))
        .expect("send");
    client.drain().expect("drain");
    let metrics = client.metrics().expect("metrics");
    let computed = metrics
        .counter("alberta_keys_computed_total")
        .expect("the drain computed");
    assert!(computed > 0);
    assert_eq!(
        metrics.counter("alberta_evictions_total"),
        Some(0),
        "nothing corrupt yet"
    );

    let mut entries = 0u64;
    for shard in std::fs::read_dir(&root).expect("the cache root exists") {
        let shard = shard.expect("a shard directory");
        let name = shard.file_name().to_string_lossy().into_owned();
        assert!(
            name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()),
            "two-hex shard fan-out, got {name:?}"
        );
        for entry in std::fs::read_dir(shard.path()).expect("a readable shard") {
            let entry = entry.expect("an entry");
            let file = entry.file_name().to_string_lossy().into_owned();
            assert!(
                file.starts_with(name.as_str()) && file.ends_with(".json"),
                "{file:?} is a finished entry of shard {name}"
            );
            assert!(entry.metadata().expect("metadata").len() > 0, "{file}");
            entries += 1;
        }
    }
    assert_eq!(entries, computed, "every computed key on disk");

    drop(client);
    Client::connect(&addr, None)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread exits");
    let _ = std::fs::remove_dir_all(&root);
}

/// A hello of another wire revision is refused with both revisions
/// named; here the revision before the `stats` command was retired.
#[test]
fn hello_of_another_wire_revision_is_refused() {
    let (addr, daemon, root) = start_daemon("revision");
    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    let mut hello = ClientMsg::Hello {
        protocol: 2,
        client: None,
        group: None,
    }
    .encode();
    hello.push('\n');
    stream.write_all(hello.as_bytes()).expect("send the hello");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("read the reply");
    assert!(
        reply.contains("protocol mismatch: client speaks 2, daemon speaks 3"),
        "{reply}"
    );
    drop(stream);

    Client::connect(&addr, None)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread exits");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_line_is_rejected_without_killing_the_daemon() {
    let (addr, daemon, root) = start_daemon("deep");
    // A line of 100,000 brackets in place of a hello: the parser must
    // refuse it by depth instead of recursing off the handler's stack.
    let mut stream = TcpStream::connect(&addr).expect("connect raw");
    let mut line = "[".repeat(100_000);
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("send the line");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("read the reply");
    assert!(reply.contains("expected hello"), "{reply}");
    drop(stream);

    let mut client = Client::connect(&addr, None).expect("a fresh client still connects");
    let metrics = client.metrics().expect("and gets its metrics");
    assert_eq!(
        metrics.counter("alberta_requests_total"),
        None,
        "no batch ran"
    );

    drop(client);
    Client::connect(&addr, None)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread exits");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn invalid_names_resolve_to_errors_not_failures() {
    let (addr, daemon, root) = start_daemon("invalid");
    let mut client = Client::connect(&addr, None).expect("connect");
    client
        .request(&RequestSpec::new("nope", None, Scale::Test))
        .expect("send");
    client
        .request(&RequestSpec::new(
            "mcf",
            Some("no-such-workload"),
            Scale::Test,
        ))
        .expect("send");
    let responses = client.drain().expect("drain");
    assert_eq!(responses.len(), 2);
    let unknown_benchmark = responses[0].result.as_ref().expect_err("unknown benchmark");
    assert!(unknown_benchmark.contains("unknown benchmark"));
    let unknown_workload = responses[1].result.as_ref().expect_err("unknown workload");
    assert!(unknown_workload.contains("no workload named"));

    drop(client);
    Client::connect(&addr, None)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread exits");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_warm_engine_keeps_only_the_newest_spans() {
    let root = temp_root("span-ring");
    let engine = Engine::new(ServeConfig::default(), ResultCache::new(&root));
    let spec = RequestSpec::new("mcf", Some("alberta.1"), Scale::Test);
    let batch = |id: u64| {
        engine.resolve_batch(&[BatchRequest {
            token: (0, id),
            request: request_label("ring", id),
            spec: spec.clone(),
        }])
    };
    let cold = batch(0);
    assert_eq!(cold[0].counts.computed, 1, "the first batch computes");
    let cold_spans = engine.spans_value().as_array().expect("an array").len();

    // Every warm single-request batch emits received, cache_hit and
    // completed: enough of them overflow the log.
    let warm = (SPAN_LOG_CAPACITY / 3 + 1) as u64;
    for id in 1..=warm {
        assert_eq!(batch(id)[0].counts.cached, 1, "batch {id} is a hit");
    }
    let emitted = (cold_spans as u64) + 3 * warm;
    assert!(emitted > SPAN_LOG_CAPACITY as u64);

    let spans = engine.spans_value();
    let seqs: Vec<u64> = spans
        .as_array()
        .expect("an array")
        .iter()
        .map(|e| e.get("seq").and_then(|s| s.as_u64()).expect("a seq"))
        .collect();
    let newest: Vec<u64> = (emitted - SPAN_LOG_CAPACITY as u64..emitted).collect();
    assert_eq!(
        seqs,
        newest,
        "the newest spans, gap-free, ending at {}",
        emitted - 1
    );
    let _ = std::fs::remove_dir_all(&root);
}
