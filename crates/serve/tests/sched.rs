//! Scheduler and engine determinism under faults and dead hosts.
//!
//! Custom harness: the process-backed host pools re-execute this test
//! binary in the hidden worker mode, so `main` must intercept the
//! worker flag before any test runs (the same idiom as the core
//! crate's `process_exec` tests).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use alberta_core::{benchmark_suite, ExecPolicy, FaultKind, FaultPlan, ProcessConfig, Scale};
use alberta_serve::sched::home_host;
use alberta_serve::{
    host_counters, place, BatchRequest, Engine, RequestSpec, ResultCache, ServeConfig,
};
use proptest::prelude::*;

/// A fresh cache root under the system temp directory, unique per use.
fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("alberta-serve-sched-{}-{tag}", std::process::id()))
}

/// A supervisor tuned for fast failover, so fault tests do not sit out
/// the full 10-second production heartbeat timeout.
fn fast_failover() -> ProcessConfig {
    ProcessConfig {
        heartbeat_timeout_ms: 3_000,
        backoff_ms: 10,
        ..ProcessConfig::default()
    }
}

/// The canonical rendering of a batch's resolution: every token with
/// its counts and compact body, in order. Two resolutions are "the
/// same" exactly when these strings are equal.
fn rendered(engine: &Engine, batch: &[BatchRequest]) -> Vec<String> {
    render_responses(engine.resolve_batch(batch))
}

fn render_responses(responses: Vec<alberta_serve::ResolvedRequest>) -> Vec<String> {
    responses
        .into_iter()
        .map(|r| match r.result {
            Ok(body) => format!(
                "{:?} c{}h{}o{}f{} {}",
                r.token,
                r.counts.computed,
                r.counts.cached,
                r.counts.coalesced,
                r.counts.failed,
                body.render_compact()
            ),
            Err(e) => format!("{:?} error {e}", r.token),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Placement invariants over arbitrary key sets and host rosters:
    /// every key is either placed on a live host or unplaced with a
    /// dead home, per-host totals account for every placed task, and
    /// the whole placement is reproducible.
    fn placement_invariants(
        seed in 0u64..1_000_000,
        keys in 1usize..80,
        hosts in 1usize..6,
        dead_mask in 0u64..64,
    ) {
        let keys: Vec<String> = (0..keys).map(|i| format!("key-{seed}-{i}")).collect();
        let dead: BTreeSet<usize> = (0..hosts).filter(|h| dead_mask & (1 << h) != 0).collect();
        let placement = place(&keys, hosts, &dead);
        prop_assert_eq!(place(&keys, hosts, &dead), placement.clone());

        let placed: u64 = placement.per_host.iter().map(|h| h.tasks).sum();
        prop_assert_eq!(placed + placement.unplaced, keys.len() as u64);
        let stolen: u64 = placement.per_host.iter().map(|h| h.stolen).sum();
        prop_assert_eq!(stolen, placement.steals);
        for (i, task) in placement.tasks.iter().enumerate() {
            match task.host {
                Some(h) => {
                    prop_assert!(!dead.contains(&h), "placed on a live host");
                    prop_assert!(h < hosts);
                    if !task.stolen {
                        prop_assert_eq!(h, home_host(&keys[i], hosts));
                    }
                }
                None => prop_assert!(dead.contains(&home_host(&keys[i], hosts))),
            }
        }
        for &h in &dead {
            prop_assert_eq!(placement.per_host[h].tasks, 0, "dead hosts never execute");
        }
    }
}

/// Benchmark-level requests for the given short names.
fn batch_of(names: &[&str], scale: Scale) -> Vec<BatchRequest> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| BatchRequest {
            token: (0, i as u64),
            request: alberta_serve::request_label("sched", i as u64),
            spec: RequestSpec::new(name, None, scale),
        })
        .collect()
}

/// Seeded recoverable process faults on one host leave every response
/// byte-identical to a clean engine's: single-shot crashes, hangs, and
/// corrupt result lines are absorbed by the host pool's redispatch, and
/// placement does not depend on execution at all.
fn faulty_host_is_byte_identical_to_clean() {
    let scale = Scale::Test;
    let batch = batch_of(&["mcf", "xz"], scale);

    let config = ServeConfig {
        hosts: 3,
        host_exec: ExecPolicy::processes_with_jobs(2),
        process: fast_failover(),
        ..ServeConfig::default()
    };

    // Every (benchmark, workload) in the batch gets a single-shot
    // process fault on every host — whichever host a task lands on,
    // its first dispatch dies and the redispatch succeeds.
    let mut plan = FaultPlan::new(0x5eed);
    let kinds = [
        FaultKind::WorkerCrash {
            attempts: 1,
            clean: false,
        },
        FaultKind::ResultCorrupt { attempts: 1 },
        FaultKind::WorkerCrash {
            attempts: 1,
            clean: true,
        },
    ];
    let mut kind_index = 0usize;
    for benchmark in benchmark_suite(scale) {
        if benchmark.short_name() != "mcf" && benchmark.short_name() != "xz" {
            continue;
        }
        for workload in benchmark.workload_names() {
            plan = plan.inject(
                benchmark.short_name(),
                workload,
                kinds[kind_index % kinds.len()],
            );
            kind_index += 1;
        }
    }
    let host_faults: BTreeMap<usize, FaultPlan> = (0..3).map(|h| (h, plan.clone())).collect();

    let clean_root = temp_root("fault-clean");
    let faulty_root = temp_root("fault-faulty");
    let clean = Engine::new(config.clone(), ResultCache::new(&clean_root));
    let faulty = Engine::new(
        ServeConfig {
            host_faults,
            ..config
        },
        ResultCache::new(&faulty_root),
    );

    let clean_out = rendered(&clean, &batch);
    let faulty_out = rendered(&faulty, &batch);
    assert_eq!(
        clean_out, faulty_out,
        "recoverable faults must not change a single byte"
    );

    let clean_metrics = clean.metrics_document();
    let faulty_metrics = faulty.metrics_document();
    assert_eq!(
        faulty_metrics.counter("alberta_steals_total"),
        clean_metrics.counter("alberta_steals_total"),
        "placement ignores faults"
    );
    for host in 0..3 {
        let (tasks, stolen) = host_counters(host);
        for name in [tasks, stolen] {
            let clean = clean_metrics.counter(&name);
            assert!(clean.is_some(), "{name} is recorded");
            assert_eq!(faulty_metrics.counter(&name), clean, "{name}");
        }
    }
    assert_eq!(
        clean_metrics.counter("alberta_redispatches_total"),
        Some(0),
        "clean run never redispatches"
    );
    assert!(
        faulty_metrics
            .counter("alberta_redispatches_total")
            .is_some_and(|n| n > 0),
        "the faults actually fired and were absorbed"
    );

    let _ = std::fs::remove_dir_all(&clean_root);
    let _ = std::fs::remove_dir_all(&faulty_root);
}

/// A dead host degrades its share to failed records — "n of m
/// survivors", summaries over the survivors — and the batch still
/// completes and reproduces byte for byte.
fn dead_host_degrades_to_failed_survivors() {
    let scale = Scale::Test;
    let suite = benchmark_suite(scale);
    let names: Vec<&str> = suite.iter().take(3).map(|b| b.short_name()).collect();
    let batch = batch_of(&names, scale);

    // Kill the home host of the first workload's key so at least one
    // task is guaranteed to be dead-homed.
    let hosts = 3;
    let first = &batch[0].spec;
    let first_workload = suite[0].workload_names().remove(0);
    let dead_host = home_host(&first.run_key(&first_workload), hosts);
    let dead: BTreeSet<usize> = [dead_host].into_iter().collect();

    let make_engine = |tag: &str| {
        let root = temp_root(tag);
        let engine = Engine::new(
            ServeConfig {
                hosts,
                dead_hosts: dead.clone(),
                ..ServeConfig::default()
            },
            ResultCache::new(&root),
        );
        (engine, root)
    };
    let (engine, root) = make_engine("dead-a");
    let responses = engine.resolve_batch(&batch);
    assert_eq!(responses.len(), batch.len(), "every request completes");
    let first_rendering = render_responses(responses.clone());

    let mut failed = 0u64;
    let mut survivors = 0u64;
    for response in &responses {
        let body = response.result.as_ref().expect("resolution, not an error");
        failed += response.counts.failed;
        survivors += response.counts.computed + response.counts.coalesced;
        let runs = body.get("runs").and_then(|v| v.as_array()).expect("runs");
        let failed_runs = runs
            .iter()
            .filter(|r| r.get("status").and_then(|s| s.as_str()) == Some("failed"))
            .count() as u64;
        assert_eq!(failed_runs, response.counts.failed, "counts match the body");
        if failed_runs > 0 {
            let error = runs
                .iter()
                .find_map(|r| r.get("error").and_then(|e| e.as_str()))
                .expect("failed runs carry the error");
            assert_eq!(error, format!("characterization host {dead_host} is down"));
            if failed_runs < runs.len() as u64 {
                assert!(
                    body.get("summary").is_some(),
                    "survivors still get a summary"
                );
            }
        }
    }
    assert!(failed > 0, "the dead host's share actually failed");
    assert!(survivors > 0, "the live hosts' share actually survived");
    let metrics = engine.metrics_document();
    assert_eq!(metrics.counter("alberta_keys_failed_total"), Some(failed));
    assert_eq!(metrics.counter(&host_counters(dead_host).0), Some(0));

    // Reproducibility: a second engine over a fresh cache resolves the
    // same batch to the same bytes and the same counters.
    let (again, root2) = make_engine("dead-b");
    assert_eq!(first_rendering, rendered(&again, &batch));

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&root2);
}

/// Every host dead: everything fails, nothing hangs, summaries vanish.
fn all_hosts_dead_still_completes() {
    let scale = Scale::Test;
    let batch = batch_of(&["mcf"], scale);
    let root = temp_root("all-dead");
    let engine = Engine::new(
        ServeConfig {
            hosts: 2,
            dead_hosts: (0..2).collect(),
            ..ServeConfig::default()
        },
        ResultCache::new(&root),
    );
    let responses = engine.resolve_batch(&batch);
    assert_eq!(responses.len(), 1);
    let response = &responses[0];
    let body = response.result.as_ref().expect("resolution, not an error");
    let runs = body.get("runs").and_then(|v| v.as_array()).expect("runs");
    assert!(!runs.is_empty());
    assert_eq!(response.counts.failed, runs.len() as u64);
    assert_eq!(response.counts.computed + response.counts.cached, 0);
    assert!(
        runs.iter()
            .all(|r| r.get("status").and_then(|s| s.as_str()) == Some("failed")),
        "no host, no survivors"
    );
    assert!(body.get("summary").is_none(), "nothing to summarize");
    let _ = std::fs::remove_dir_all(&root);
}

/// Serial hosts and crash-isolated process hosts assemble the same
/// bytes — the service inherits the pipeline's execution-policy
/// identity.
fn process_hosts_match_serial_hosts() {
    let scale = Scale::Test;
    let batch = batch_of(&["mcf"], scale);
    let serial_root = temp_root("exec-serial");
    let process_root = temp_root("exec-process");
    let serial = Engine::new(
        ServeConfig {
            hosts: 2,
            ..ServeConfig::default()
        },
        ResultCache::new(&serial_root),
    );
    let processes = Engine::new(
        ServeConfig {
            hosts: 2,
            host_exec: ExecPolicy::processes_with_jobs(2),
            process: fast_failover(),
            ..ServeConfig::default()
        },
        ResultCache::new(&process_root),
    );
    assert_eq!(rendered(&serial, &batch), rendered(&processes, &batch));

    // The span logs must also match byte for byte. The dispatch-side
    // spans are built from the request label as it came *back* through
    // the execution layer — for process hosts, across the worker pipe —
    // so equality here proves the label survived the process boundary
    // (a dropped label would render as an empty request field and
    // mismatch the serial log).
    assert_eq!(
        serial.spans_value().render(),
        processes.spans_value().render(),
        "span logs must be identical across execution policies"
    );
    assert!(
        serial
            .spans_value()
            .as_array()
            .expect("span log is an array")
            .iter()
            .all(|e| e.get("request").and_then(|r| r.as_str()) == Some("sched#0")),
        "every span carries the originating request label"
    );
    assert_eq!(
        serial.metrics_document().deterministic_to_json(),
        processes.metrics_document().deterministic_to_json(),
        "the deterministic metrics plane must be identical across execution policies"
    );

    let _ = std::fs::remove_dir_all(&serial_root);
    let _ = std::fs::remove_dir_all(&process_root);
}

fn main() {
    // Worker-mode hook first: the process-backed host pools re-execute
    // this binary with the hidden worker flag.
    alberta_core::maybe_worker();

    let tests: &[(&str, fn())] = &[
        ("placement_invariants", placement_invariants),
        (
            "faulty_host_is_byte_identical_to_clean",
            faulty_host_is_byte_identical_to_clean,
        ),
        (
            "dead_host_degrades_to_failed_survivors",
            dead_host_degrades_to_failed_survivors,
        ),
        (
            "all_hosts_dead_still_completes",
            all_hosts_dead_still_completes,
        ),
        (
            "process_hosts_match_serial_hosts",
            process_hosts_match_serial_hosts,
        ),
    ];
    // libtest-style filtering so `cargo test --test sched NAME` works.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let mut ran = 0usize;
    for (name, test) in tests {
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        eprintln!("test {name} ...");
        test();
        eprintln!("test {name} ... ok");
        ran += 1;
    }
    println!("sched: {ran} test(s) passed");
}
