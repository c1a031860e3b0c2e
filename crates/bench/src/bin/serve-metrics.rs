//! Telemetry scraper for a running `alberta-serve` daemon.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin serve-metrics -- \
//!     --addr HOST:PORT [--out PATH] [--json PATH] \
//!     [--deterministic-out PATH] [--volatile-out PATH] \
//!     [--timeline PATH] [--shutdown]
//! ```
//!
//! Fetches the daemon's two-plane metrics document and span log and
//! renders them every way the workspace consumes telemetry:
//!
//! * Prometheus text exposition to stdout, or to `--out`;
//! * the full canonical-JSON document to `--json`;
//! * the deterministic plane alone to `--deterministic-out` — the
//!   bytes CI compares against the committed golden;
//! * the volatile plane alone to `--volatile-out` — the artifact CI
//!   uploads without gating;
//! * the span log as a Chrome trace-event service timeline to
//!   `--timeline` (one lane per host, spans tagged by request ID; open
//!   it in `about:tracing` or Perfetto). The daemon keeps only its
//!   newest spans; when older ones were dropped, a line on standard
//!   error says how many.
//!
//! `--shutdown` stops the daemon afterwards, so a CI job can scrape
//! and tear down in one invocation.
//!
//! Exit codes: 0 on success, 1 when the daemon misbehaves, 2 for usage
//! errors.

use alberta_bench::{usage_error, Args};
use alberta_report::render_service_timeline;
use alberta_serve::Client;

fn write_or_die(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        usage_error(&format!("cannot write {path}: {e}"));
    }
}

fn main() {
    let args = Args::parse(
        &[
            "--addr",
            "--out",
            "--json",
            "--deterministic-out",
            "--volatile-out",
            "--timeline",
        ],
        &["--shutdown"],
    )
    .without_operands();
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| usage_error("--addr HOST:PORT is required (see alberta-serve)"));

    let mut client = Client::connect_named(addr, Some("serve-metrics"), None)
        .unwrap_or_else(|e| usage_error(&e));
    let document = match client.metrics() {
        Ok(document) => document,
        Err(e) => {
            eprintln!("serve-metrics: metrics: {e}");
            std::process::exit(1);
        }
    };

    match args.value("--out") {
        Some(path) => {
            write_or_die(path, &document.to_prometheus());
            println!("serve-metrics: Prometheus exposition -> {path}");
        }
        None => print!("{}", document.to_prometheus()),
    }
    if let Some(path) = args.value("--json") {
        write_or_die(path, &document.to_json());
        println!("serve-metrics: metrics document -> {path}");
    }
    if let Some(path) = args.value("--deterministic-out") {
        write_or_die(path, &document.deterministic_to_json());
        println!("serve-metrics: deterministic plane -> {path}");
    }
    if let Some(path) = args.value("--volatile-out") {
        write_or_die(path, &document.volatile_to_json());
        println!("serve-metrics: volatile plane -> {path}");
    }

    if let Some(path) = args.value("--timeline") {
        let spans = match client.spans() {
            Ok(spans) => spans,
            Err(e) => {
                eprintln!("serve-metrics: spans: {e}");
                std::process::exit(1);
            }
        };
        // Sequence numbers count from 0 without gaps, so the first
        // retained one is the number of spans the daemon dropped.
        let dropped = spans
            .as_array()
            .and_then(|events| events.first())
            .and_then(|event| event.get("seq"))
            .and_then(|seq| seq.as_u64())
            .unwrap_or(0);
        if dropped > 0 {
            eprintln!(
                "serve-metrics: timeline truncated: the daemon dropped its {dropped} oldest \
                 span(s)"
            );
        }
        match render_service_timeline(&spans) {
            Ok(trace) => {
                write_or_die(path, &trace);
                println!("serve-metrics: service timeline -> {path}");
            }
            Err(e) => {
                eprintln!("serve-metrics: timeline: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.switch("--shutdown") {
        // The daemon drains its handler threads on shutdown; close our
        // own connection first.
        drop(client);
        let client = Client::connect(addr, None).unwrap_or_else(|e| usage_error(&e));
        if let Err(e) = client.shutdown() {
            eprintln!("serve-metrics: shutdown: {e}");
            std::process::exit(1);
        }
    }
}
