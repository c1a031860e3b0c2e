//! Cache concurrency and integrity: the engine's single-flight and
//! what it persists, corrupt-entry eviction, and version-keyed misses.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Barrier;

use alberta_core::protocol::RemoteStatus;
use alberta_core::Scale;
use alberta_report::{CacheDocument, SCHEMA_VERSION};
use alberta_serve::sched::home_host;
use alberta_serve::{
    request_label, BatchRequest, Engine, RequestSpec, ResponseCounts, ResultCache, ServeConfig,
};

/// A fresh cache root under the system temp directory, unique per test.
fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("alberta-serve-test-{}-{tag}", std::process::id()))
}

fn doc(key: &str) -> CacheDocument {
    CacheDocument {
        key: key.to_owned(),
        status: RemoteStatus::Ok,
        run: None,
        retries: 0,
        budget_consumed: 12_345,
    }
}

/// Workload-level requests, tokenized in order.
fn batch_of(requests: &[(&str, &str)]) -> Vec<BatchRequest> {
    requests
        .iter()
        .enumerate()
        .map(|(i, (benchmark, workload))| BatchRequest {
            token: (0, i as u64),
            request: request_label("cache", i as u64),
            spec: RequestSpec::new(benchmark, Some(workload), Scale::Test),
        })
        .collect()
}

/// The batch lock is the single-flight: two threads resolving the same
/// batch on one engine at once compute each unique key once between
/// them, and the batch that runs second finds every key cached.
#[test]
fn simultaneous_misses_compute_exactly_once() {
    let root = temp_root("single-flight");
    let engine = Engine::new(ServeConfig::default(), ResultCache::new(&root));
    // Three references to two unique keys: within a batch the repeat
    // coalesces onto the first.
    let batch = batch_of(&[("mcf", "alberta.1"), ("xz", "train"), ("mcf", "alberta.1")]);
    let unique = 2u64;
    let barrier = Barrier::new(2);

    let resolved: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.resolve_batch(&batch)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let totals = |responses: &[alberta_serve::ResolvedRequest]| {
        responses
            .iter()
            .fold(ResponseCounts::default(), |mut sum, r| {
                sum.computed += r.counts.computed;
                sum.cached += r.counts.cached;
                sum.coalesced += r.counts.coalesced;
                sum.failed += r.counts.failed;
                sum
            })
    };
    let mut counts: Vec<ResponseCounts> = resolved.iter().map(|r| totals(r)).collect();
    // The batch that took the lock first computed; list it first.
    counts.sort_by_key(|c| std::cmp::Reverse(c.computed));
    assert_eq!(
        counts,
        [
            // Each unique key computed once; the repeat coalesced.
            ResponseCounts {
                computed: unique,
                coalesced: 1,
                ..ResponseCounts::default()
            },
            // Every count of the later batch is cached.
            ResponseCounts {
                cached: batch.len() as u64,
                ..ResponseCounts::default()
            },
        ]
    );
    let bodies = |responses: &[alberta_serve::ResolvedRequest]| -> Vec<String> {
        responses
            .iter()
            .map(|r| r.result.as_ref().expect("a response").render_compact())
            .collect()
    };
    assert_eq!(bodies(&resolved[0]), bodies(&resolved[1]));
    assert_eq!(
        engine
            .metrics_document()
            .counter("alberta_keys_computed_total"),
        Some(unique)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_entry_is_evicted_and_recomputed() {
    let root = temp_root("corrupt");
    let cache = ResultCache::new(&root);
    cache.store(&doc("cafebabe")).expect("store");
    let path = cache.path_for("cafebabe");

    // A bit flip inside the payload: the embedded hash no longer
    // matches, so the entry must be evicted, not trusted.
    let tampered = std::fs::read_to_string(&path)
        .expect("read entry")
        .replace("12345", "12346");
    std::fs::write(&path, tampered).expect("tamper");

    assert!(
        cache.lookup("cafebabe").is_none(),
        "corrupt entry is a miss"
    );
    assert_eq!(cache.evictions(), 1);
    assert!(!path.exists(), "the corrupt file is gone");

    // The next computation's store heals the cache.
    cache.store(&doc("cafebabe")).expect("store again");
    assert!(cache.lookup("cafebabe").is_some());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_entry_is_evicted() {
    let root = temp_root("truncated");
    let cache = ResultCache::new(&root);
    cache.store(&doc("feedface")).expect("store");
    let path = cache.path_for("feedface");
    let text = std::fs::read_to_string(&path).expect("read entry");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

    assert!(cache.lookup("feedface").is_none());
    assert_eq!(cache.evictions(), 1);
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn misfiled_entry_is_evicted() {
    let root = temp_root("misfiled");
    let cache = ResultCache::new(&root);
    // A document stored under someone else's key: internally
    // consistent, but its embedded key disagrees with the file name.
    let stray = doc("0123456789abcdef");
    let path = cache.path_for("fedcba9876543210");
    std::fs::create_dir_all(path.parent().unwrap()).expect("shard dir");
    std::fs::write(&path, stray.to_json()).expect("misfile");

    assert!(cache.lookup("fedcba9876543210").is_none());
    assert_eq!(cache.evictions(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bumped_schema_version_misses_the_cache() {
    let root = temp_root("schema-bump");
    let cache = ResultCache::new(&root);
    let spec = RequestSpec::new("mcf", Some("alberta.1"), Scale::Test);

    let current_key = spec.run_key("alberta.1");
    cache.store(&doc(&current_key)).expect("store");
    assert!(
        cache.lookup(&current_key).is_some(),
        "warm under this build"
    );

    // The same request under the next schema (or code) version must
    // address a different entry — a rebuilt service can never serve a
    // document written by an incompatible writer.
    let bumped_schema = spec.run_key_versioned("alberta.1", SCHEMA_VERSION + 1, "0.1.0");
    assert_ne!(current_key, bumped_schema);
    assert!(cache.lookup(&bumped_schema).is_none());

    let bumped_code = spec.run_key_versioned("alberta.1", SCHEMA_VERSION, "0.2.0");
    assert_ne!(current_key, bumped_code);
    assert!(cache.lookup(&bumped_code).is_none());
    let _ = std::fs::remove_dir_all(&root);
}

/// A key that failed on a dead host is not persisted: an engine with
/// every host alive, over the same cache root, computes it again
/// instead of finding it cached.
#[test]
fn failed_documents_are_not_persisted() {
    let root = temp_root("failed");
    let hosts = 3;
    let spec = RequestSpec::new("mcf", None, Scale::Test);
    let batch = vec![BatchRequest {
        token: (0, 0),
        request: request_label("cache", 0),
        spec: spec.clone(),
    }];
    // Kill the home host of the first workload's key, so at least one
    // key fails.
    let first = alberta_core::benchmark_suite(Scale::Test)
        .iter()
        .find(|b| b.short_name() == "mcf")
        .expect("mcf in the suite")
        .workload_names()
        .remove(0);
    let dead: BTreeSet<usize> = [home_host(&spec.run_key(&first), hosts)].into();

    let degraded = Engine::new(
        ServeConfig {
            hosts,
            dead_hosts: dead,
            ..ServeConfig::default()
        },
        ResultCache::new(&root),
    )
    .resolve_batch(&batch);
    let failed = degraded[0].counts.failed;
    let survived = degraded[0].counts.computed;
    assert!(failed > 0, "the dead host's keys failed");
    assert!(survived > 0, "the live hosts' keys computed");

    let healed = Engine::new(
        ServeConfig {
            hosts,
            ..ServeConfig::default()
        },
        ResultCache::new(&root),
    )
    .resolve_batch(&batch);
    assert_eq!(
        healed[0].counts,
        ResponseCounts {
            computed: failed,
            cached: survived,
            ..ResponseCounts::default()
        },
        "environmental failures must not poison the cache"
    );
    let _ = std::fs::remove_dir_all(&root);
}
