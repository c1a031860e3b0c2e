//! The client storm: a deterministic load generator for
//! `alberta-serve`.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin storm -- \
//!     [test|train|ref] --addr HOST:PORT [--requests N] [--clients C] \
//!     [--seed S] [--out PATH] [--latency-out PATH] \
//!     [--sweep-out PATH] [--shutdown]
//! ```
//!
//! Fires a seeded mix of `--requests` workload-level requests from
//! `--clients` concurrent connections, twice: a cold round that forces
//! computation and a warm round that must be answered entirely from the
//! cache. All clients of a round join one daemon-side group, so the
//! batch the daemon resolves — and every counter in the report — is a
//! function of the mix alone, never of socket timing. The storm
//! verifies that every response is byte-identical across rounds
//! (cached-vs-computed identity) and writes the deterministic
//! [`StormReport`] (`--out`, default `STORM_<scale>.json`): request and
//! cache-hit counters plus the scheduler's per-host placement, steal,
//! and redispatch counters, taken as a before/after delta of the
//! daemon's deterministic metrics plane.
//!
//! `--latency-out` additionally writes the volatile drain-latency
//! percentiles — CI uploads those as an artifact and never gates on
//! them. `--sweep-out` fires one benchmark-level request per benchmark
//! and writes the assembled suite report, which must be byte-identical
//! to a `bench-report` sweep at the same scale (CI compares it with the
//! committed `BENCH_test.json`). `--shutdown` stops the daemon
//! afterwards.
//!
//! Exit codes: 0 on success, 1 when any response failed or the
//! cached-vs-computed comparison found a mismatch, 2 for usage errors.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use alberta_bench::{usage_error, Args};
use alberta_core::benchmark_suite;
use alberta_report::{
    BenchmarkReport, HostRecord, LatencyReport, MetricsDocument, StormReport, SuiteReport,
    SCHEMA_VERSION,
};
use alberta_serve::{host_counters, Client, GroupInfo, RequestSpec, ResponseCounts};
use alberta_workloads::Scale;

/// One client's share of a round: the responses (as spec index, counts,
/// and canonical body bytes) plus the drain's wall time. The wall time
/// is `None` for a member whose share was empty — a drain that drained
/// nothing is a rendezvous, not a latency sample, and must not skew the
/// percentiles toward zero.
type ClientShare = (Vec<(usize, ResponseCounts, String)>, Option<u64>);

/// Runs one round: every client connects into the round's group, sends
/// its share of the mix, and drains. Returns the per-spec-index results
/// and the drain latencies.
fn run_round(
    addr: &str,
    round: u64,
    seed: u64,
    clients: u64,
    mix: &[RequestSpec],
) -> Result<Vec<ClientShare>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|member| {
                scope.spawn(move || -> Result<ClientShare, String> {
                    let group = GroupInfo {
                        id: format!("storm-{seed}-round{round}"),
                        size: clients,
                        member,
                    };
                    let mut client = Client::connect_named(
                        addr,
                        Some(&format!("storm-m{member}")),
                        Some(group),
                    )?;
                    // Round-robin partition: this member's j-th request
                    // is mix[j*clients + member].
                    let my_indices: Vec<usize> = (member as usize..mix.len())
                        .step_by(clients as usize)
                        .collect();
                    for &i in &my_indices {
                        client.request(&mix[i])?;
                    }
                    let started = Instant::now();
                    let responses = client.drain()?;
                    let drain_nanos =
                        (!my_indices.is_empty()).then(|| started.elapsed().as_nanos() as u64);
                    if responses.len() != my_indices.len() {
                        return Err(format!(
                            "member {member} sent {} requests but got {} responses",
                            my_indices.len(),
                            responses.len()
                        ));
                    }
                    let mut share = Vec::with_capacity(responses.len());
                    for response in responses {
                        let spec_index = my_indices[response.id as usize];
                        let body = response.result.map_err(|e| {
                            format!("request for {:?} failed: {e}", mix[spec_index].benchmark)
                        })?;
                        share.push((spec_index, response.counts, body.render_compact()));
                    }
                    Ok((share, drain_nanos))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("storm client thread panicked"))
            .collect()
    })
}

fn main() {
    let args = Args::parse(
        &[
            "--addr",
            "--requests",
            "--clients",
            "--seed",
            "--out",
            "--latency-out",
            "--sweep-out",
        ],
        &["--shutdown"],
    );
    let scale = args.scale();
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| usage_error("--addr HOST:PORT is required (see alberta-serve)"));
    let requests = args.count("--requests", 96) as u64;
    let clients = args.count("--clients", 4) as u64;
    let seed = args.seed("--seed", 42);
    let out = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("STORM_{}.json", scale.name())));

    // The seeded mix: workload-level requests drawn from every
    // (benchmark, workload) pair at this scale with a deterministic
    // LCG, so the same seed always produces the same stream.
    let pairs: Vec<(String, String)> = benchmark_suite(scale)
        .iter()
        .flat_map(|b| {
            let short = b.short_name().to_owned();
            b.workload_names()
                .into_iter()
                .map(move |w| (short.clone(), w))
        })
        .collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mix: Vec<RequestSpec> = (0..requests)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (benchmark, workload) = &pairs[(state >> 33) as usize % pairs.len()];
            RequestSpec::new(benchmark, Some(workload), scale)
        })
        .collect();
    let unique_keys = mix
        .iter()
        .map(|s| s.run_key(s.workload.as_deref().expect("mix is workload-level")))
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;

    let mut metrics_client = Client::connect(addr, None).unwrap_or_else(|e| usage_error(&e));
    let before = metrics_client.metrics().unwrap_or_else(|e| usage_error(&e));

    // Two rounds over the same mix: cold (computes) then warm (all
    // cache hits). Responses for the same spec must match byte for
    // byte across rounds.
    let mut totals = ResponseCounts::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut bodies: BTreeMap<usize, String> = BTreeMap::new();
    let mut failures = 0u64;
    for round in 0..2 {
        match run_round(addr, round, seed, clients, &mix) {
            Err(e) => {
                eprintln!("storm: round {round}: {e}");
                failures += 1;
            }
            Ok(shares) => {
                for (share, drain_nanos) in shares {
                    latencies.extend(drain_nanos);
                    for (spec_index, counts, body) in share {
                        totals.computed += counts.computed;
                        totals.cached += counts.cached;
                        totals.coalesced += counts.coalesced;
                        totals.failed += counts.failed;
                        match bodies.get(&spec_index) {
                            None => {
                                bodies.insert(spec_index, body);
                            }
                            Some(first) if *first == body => {}
                            Some(_) => {
                                eprintln!(
                                    "storm: response for {}/{} differs between rounds",
                                    mix[spec_index].benchmark,
                                    mix[spec_index].workload.as_deref().unwrap_or("*")
                                );
                                failures += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    if totals.failed > 0 {
        eprintln!("storm: {} key(s) failed on the daemon", totals.failed);
        failures += 1;
    }

    let after = metrics_client.metrics().unwrap_or_else(|e| usage_error(&e));
    // A counter no batch has touched yet reads zero.
    let delta = |name: &str| {
        let read = |doc: &MetricsDocument| doc.counter(name).unwrap_or(0);
        read(&after) - read(&before)
    };
    let hosts = after.gauge("alberta_hosts").unwrap_or(0);
    let report = StormReport {
        schema_version: SCHEMA_VERSION,
        requests: 2 * requests,
        unique_keys,
        hits: totals.cached + totals.coalesced,
        computed: totals.computed,
        steals: delta("alberta_steals_total"),
        redispatches: delta("alberta_redispatches_total"),
        hosts: (0..hosts)
            .map(|host| {
                let (tasks, stolen) = host_counters(host as usize);
                HostRecord {
                    host,
                    tasks: delta(&tasks),
                    stolen: delta(&stolen),
                }
            })
            .collect(),
    };
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        usage_error(&format!("cannot write {}: {e}", out.display()));
    }
    println!(
        "storm: {} requests over {} unique keys: {} hit(s), {} computed, hit ratio {:.3}, \
         {} steal(s), {} redispatch(es) -> {}",
        report.requests,
        report.unique_keys,
        report.hits,
        report.computed,
        report.hit_ratio(),
        report.steals,
        report.redispatches,
        out.display()
    );

    if let Some(path) = args.value("--latency-out") {
        let latency = LatencyReport::from_samples(&mut latencies);
        if let Err(e) = std::fs::write(path, latency.to_json()) {
            usage_error(&format!("cannot write {path}: {e}"));
        }
        println!(
            "storm: drain latency over {} sample(s): p50 {}ns p90 {}ns p99 {}ns max {}ns -> {path}",
            latency.samples,
            latency.p50_nanos,
            latency.p90_nanos,
            latency.p99_nanos,
            latency.max_nanos
        );
    }

    if let Some(path) = args.value("--sweep-out") {
        // One benchmark-level request per benchmark, assembled into the
        // same document bench-report writes.
        match sweep(addr, scale) {
            Err(e) => {
                eprintln!("storm: sweep: {e}");
                failures += 1;
            }
            Ok(report) => {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    usage_error(&format!("cannot write {path}: {e}"));
                }
                println!("storm: assembled sweep report -> {path}");
            }
        }
    }

    if args.switch("--shutdown") {
        // The daemon drains its handler threads on shutdown; close our
        // own idle connection first.
        drop(metrics_client);
        let client = Client::connect(addr, None).unwrap_or_else(|e| usage_error(&e));
        if let Err(e) = client.shutdown() {
            eprintln!("storm: shutdown: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("storm: FAILED ({failures} problem(s))");
        std::process::exit(1);
    }
}

/// Requests every benchmark at benchmark level and assembles the bodies
/// into a [`SuiteReport`] — the document a `bench-report` sweep at the
/// same scale must match byte for byte.
fn sweep(addr: &str, scale: Scale) -> Result<SuiteReport, String> {
    let mut client = Client::connect(addr, None)?;
    let names: Vec<String> = benchmark_suite(scale)
        .iter()
        .map(|b| b.short_name().to_owned())
        .collect();
    for name in &names {
        client.request(&RequestSpec::new(name, None, scale))?;
    }
    let responses = client.drain()?;
    if responses.len() != names.len() {
        return Err(format!(
            "asked for {} benchmarks, got {} responses",
            names.len(),
            responses.len()
        ));
    }
    let benchmarks: Vec<BenchmarkReport> = responses
        .into_iter()
        .map(|r| {
            let body = r
                .result
                .map_err(|e| format!("benchmark request failed: {e}"))?;
            BenchmarkReport::from_value(&body)
        })
        .collect::<Result<_, String>>()?;
    Ok(SuiteReport::from_parts(scale, benchmarks))
}
