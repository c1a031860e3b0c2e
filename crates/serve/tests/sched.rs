//! Scheduler and engine determinism under faults.
//!
//! Custom harness: the process-backed host pools re-execute this test
//! binary in the hidden worker mode, so `main` must intercept the
//! worker flag before any test runs (the same idiom as the core
//! crate's `process_exec` tests).

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
                "{:?} c{}h{}o{} {}",
                r.token,
                r.counts.computed,
                r.counts.cached,
                r.counts.coalesced,
                body.render_compact()
            ),
            Err(e) => format!("{:?} error {e}", r.token),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Placement invariants over arbitrary key sets and host rosters:
    /// every key is placed on a configured host, on its home host
    /// unless stolen, per-host totals account for every task, and the
    /// whole placement is reproducible.
    fn placement_invariants(
        seed in 0u64..1_000_000,
        keys in 1usize..80,
        hosts in 1usize..6,
    ) {
        let keys: Vec<String> = (0..keys).map(|i| format!("key-{seed}-{i}")).collect();
        let placement = place(&keys, hosts);
        prop_assert_eq!(place(&keys, hosts), placement.clone());

        let placed: u64 = placement.per_host.iter().map(|h| h.tasks).sum();
        prop_assert_eq!(placed, keys.len() as u64);
        let stolen: u64 = placement.per_host.iter().map(|h| h.stolen).sum();
        prop_assert_eq!(stolen, placement.steals);
        for (i, task) in placement.tasks.iter().enumerate() {
            prop_assert!(task.host < hosts);
            if !task.stolen {
                prop_assert_eq!(task.host, home_host(&keys[i], hosts));
            }
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

/// Seeded recoverable process faults on the hosts leave every response
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
    // process fault, handed to every host — whichever host a task
    // lands on, its first dispatch dies and the redispatch succeeds.
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

    let clean_root = temp_root("fault-clean");
    let faulty_root = temp_root("fault-faulty");
    let clean = Engine::new(config.clone(), ResultCache::new(&clean_root));
    let faulty = Engine::new(
        ServeConfig {
            faults: plan,
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
