//! Batch resolution: cache lookups, work-stealing dispatch, and
//! canonical-order reassembly.
//!
//! The engine answers a *batch* of requests at a time. It expands each
//! request into per-workload cache keys, answers what it can from the
//! content-addressed cache, places the misses onto the mock host pool
//! with the deterministic work-stealing scheduler, executes each host's
//! share through [`Suite::characterize_tasks_labeled`], persists the
//! results, and reassembles responses in canonical request order.
//! Because every stage is deterministic given the batch contents, a
//! response's bytes do not depend on which host computed it, whether it
//! was cached, or the order requests arrived over the wire.
//!
//! Batches are resolved under a global lock. That serialization is the
//! only single-flight: a key referenced twice in one batch is computed
//! once (the second reference coalesces), and when two storms race the
//! same key set, the first batch computes and the second finds
//! everything on disk. The engine alone decides what to persist: a
//! `Failed` document is never stored. The lock also holds the per-scale
//! name tables requests are validated against, each built once from the
//! reference suite on first use.
//!
//! The two-plane [`MetricsRegistry`] is the one record of what the
//! engine did: requests, hits, coalesced and failed keys, steals,
//! redispatches, evictions and each host's placement
//! ([`host_counters`]) are deterministic counters, bumped every batch.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use alberta_core::json::Value;
use alberta_core::log_info;
use alberta_core::protocol::RemoteStatus;
use alberta_core::telemetry::{
    MetricsRegistry, Plane, SpanLog, COUNT_BUCKETS, NANOS_BUCKETS, TICK_BUCKETS,
};
use alberta_core::{
    benchmark_suite, summarize_runs, ExecPolicy, FaultPlan, LabeledTask, ProcessConfig, Scale,
    Suite,
};
use alberta_report::{BenchmarkReport, CacheDocument, MetricsDocument, RunRecord};

use crate::cache::ResultCache;
use crate::sched::{self, Placement};
use crate::spec::RequestSpec;

/// Static configuration of the mock host pool.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of mock hosts.
    pub hosts: usize,
    /// Execution policy *within* each host (each host is its own
    /// worker pool; `Processes` gives every host a crash-isolated pool).
    pub host_exec: ExecPolicy,
    /// Supervisor tuning for process-backed hosts.
    pub process: ProcessConfig,
    /// Hosts that are down: they never execute, are never stolen from,
    /// and tasks homed on them fail (but always complete).
    pub dead_hosts: BTreeSet<usize>,
    /// Per-host fault plans — injected into that host's suite runs, the
    /// handle the scheduler tests use to shake one host without
    /// touching the others.
    pub host_faults: BTreeMap<usize, FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            hosts: 4,
            host_exec: ExecPolicy::serial(),
            process: ProcessConfig::default(),
            dead_hosts: BTreeSet::new(),
            host_faults: BTreeMap::new(),
        }
    }
}

/// One request inside a batch, tagged with its canonical token
/// `(member, id)`. Tokens order the batch: responses, and the
/// computed-vs-coalesced attribution, follow token order, never socket
/// arrival order.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// `(group member, request id)` — canonical position in the batch.
    pub token: (u64, u64),
    /// The client-minted request label (`client#id`), carried through
    /// every span this request produces.
    pub request: String,
    /// What to characterize.
    pub spec: RequestSpec,
}

/// How each key a response covers was satisfied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponseCounts {
    /// Keys computed on behalf of this request (first referencing
    /// request in token order).
    pub computed: u64,
    /// Keys answered from the on-disk cache.
    pub cached: u64,
    /// Keys another request in the batch computed; this one shares the
    /// result.
    pub coalesced: u64,
    /// Keys that failed (dead home host).
    pub failed: u64,
}

/// A resolved request: either a canonical response body or an error.
#[derive(Debug, Clone)]
pub struct ResolvedRequest {
    /// The request's token.
    pub token: (u64, u64),
    /// Key-satisfaction counts (zeroed for errors).
    pub counts: ResponseCounts,
    /// The canonical body, or a validation error message.
    pub result: Result<Value, String>,
}

/// The deterministic counter names of one host's placement: the tasks
/// it executed, and of those, the tasks it stole from another host's
/// queue. Hosts are indexed by number, so read them by building the
/// name, not by sorting: `host_10` sorts before `host_2`.
pub fn host_counters(host: usize) -> (String, String) {
    (
        format!("alberta_host_{host}_tasks_total"),
        format!("alberta_host_{host}_stolen_total"),
    )
}

/// One reference benchmark's names: what a request may call it, and
/// the workloads it may ask for.
struct BenchmarkNames {
    name: &'static str,
    short_name: &'static str,
    workloads: Vec<String>,
}

/// The names of every benchmark in the reference suite at one scale,
/// in suite order.
fn name_table(scale: Scale) -> Vec<BenchmarkNames> {
    benchmark_suite(scale)
        .iter()
        .map(|b| BenchmarkNames {
            name: b.name(),
            short_name: b.short_name(),
            workloads: b.workload_names(),
        })
        .collect()
}

/// What one request expands to: the benchmark identity plus the ordered
/// per-workload keys it covers.
struct Expansion {
    name: &'static str,
    short_name: &'static str,
    /// True when the request named a single workload.
    narrowed: bool,
    /// `(workload, key)` in workload order.
    keys: Vec<(String, String)>,
}

/// A unique key's task identity: enough to execute it and to rehydrate
/// its status.
#[derive(Clone)]
struct KeyTask {
    spec: RequestSpec,
    short_name: &'static str,
    workload: String,
}

/// The characterization engine: cache + scheduler + host pool +
/// telemetry.
pub struct Engine {
    config: ServeConfig,
    cache: ResultCache,
    metrics: MetricsRegistry,
    /// Each host's `(tasks, stolen)` deterministic counter names, by
    /// host index.
    host_counters: Vec<(String, String)>,
    spans: Mutex<SpanLog>,
    /// Serializes batches, and holds the name tables they validate
    /// against, by scale.
    batch_lock: Mutex<HashMap<Scale, Vec<BenchmarkNames>>>,
}

impl Engine {
    /// Builds an engine over a cache.
    ///
    /// # Panics
    ///
    /// Panics when `ALBERTA_LOG` is set to something that is not a log
    /// level: the daemon must refuse it at start-up, not at its first
    /// log call inside a connection handler.
    pub fn new(config: ServeConfig, cache: ResultCache) -> Self {
        alberta_core::log::max_level();
        let hosts = config.hosts;
        let metrics = MetricsRegistry::new();
        // Roster gauges are configuration, not wall-clock — they live
        // in the deterministic plane.
        metrics.set_gauge(Plane::Deterministic, "alberta_hosts", hosts as u64);
        metrics.set_gauge(
            Plane::Deterministic,
            "alberta_dead_hosts",
            config.dead_hosts.len() as u64,
        );
        Engine {
            config,
            cache,
            metrics,
            host_counters: (0..hosts).map(host_counters).collect(),
            spans: Mutex::new(SpanLog::new()),
            batch_lock: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The host-pool configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The two-plane metrics registry (the daemon records volatile
    /// connection metrics here).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A schema-versioned snapshot of both metric planes.
    pub fn metrics_document(&self) -> MetricsDocument {
        MetricsDocument::new(
            self.metrics.snapshot(Plane::Deterministic),
            self.metrics.snapshot(Plane::Volatile),
        )
    }

    /// The ordered span log as a canonical array.
    pub fn spans_value(&self) -> Value {
        self.spans.lock().expect("span log poisoned").to_value()
    }

    /// Resolves a batch of requests into canonical responses, in token
    /// order. Batches are serialized on a global lock, which doubles as
    /// the cross-batch single-flight: a later batch finds this batch's
    /// results on disk.
    pub fn resolve_batch(&self, requests: &[BatchRequest]) -> Vec<ResolvedRequest> {
        let mut name_tables = self.batch_lock.lock().expect("batch lock poisoned");
        let wall_start = Instant::now();
        let evictions_before = self.cache.evictions();

        let mut ordered: Vec<&BatchRequest> = requests.iter().collect();
        ordered.sort_by_key(|r| r.token);

        // Expand every request against the reference names for its
        // scale; invalid names resolve to errors without executing
        // anything.
        let mut expansions: Vec<Result<Expansion, String>> = Vec::with_capacity(ordered.len());
        let mut key_tasks: BTreeMap<String, KeyTask> = BTreeMap::new();
        let mut first_owner: HashMap<String, usize> = HashMap::new();
        for (idx, request) in ordered.iter().enumerate() {
            let scale = request.spec.scale;
            let names = name_tables
                .entry(scale)
                .or_insert_with(|| name_table(scale));
            let expansion = expand(&request.spec, names);
            if let Ok(expansion) = &expansion {
                for (workload, key) in &expansion.keys {
                    first_owner.entry(key.clone()).or_insert(idx);
                    key_tasks.entry(key.clone()).or_insert_with(|| KeyTask {
                        spec: request.spec.clone(),
                        short_name: expansion.short_name,
                        workload: workload.clone(),
                    });
                }
            }
            expansions.push(expansion);
        }

        // Cache pass over the unique keys, in canonical (sorted) order.
        let mut docs: BTreeMap<String, (CacheDocument, KeyFate)> = BTreeMap::new();
        let mut missed: Vec<String> = Vec::new();
        for key in key_tasks.keys() {
            match self.cache.lookup(key) {
                Some(doc) => {
                    docs.insert(key.clone(), (doc, KeyFate::Cached));
                }
                None => missed.push(key.clone()),
            }
        }

        // The label a key's execution is attributed to: the first
        // referencing request in token order (its "owner").
        let key_labels: BTreeMap<String, String> = first_owner
            .iter()
            .map(|(key, &idx)| (key.clone(), ordered[idx].request.clone()))
            .collect();

        // Place the misses and execute each host's share.
        let placement = sched::place(&missed, self.config.hosts, &self.config.dead_hosts);
        let (computed, redispatches, exec_info) =
            self.execute(&missed, &placement, &key_tasks, &key_labels);
        for (key, doc) in computed {
            let failed = matches!(doc.status, RemoteStatus::Failed { .. });
            if !failed {
                // Persistence is best-effort: an unwritable cache
                // degrades to recomputation on the next batch.
                let _ = self.cache.store(&doc);
            }
            let fate = if failed && doc.run.is_none() && placement_failed(&placement, &missed, &key)
            {
                KeyFate::Unplaced
            } else {
                KeyFate::Computed
            };
            docs.insert(key, (doc, fate));
        }

        // Reassemble responses in token order, narrating each request's
        // lifecycle into the span log as we go. Spans are emitted here —
        // on the batch thread, from deterministic inputs (fates,
        // placement, per-key exec echoes) — never from the racing host
        // threads, so the log's byte rendering is a pure function of
        // the request set.
        let hit_count = docs.values().filter(|(_, f)| *f == KeyFate::Cached).count();
        let mut resolved = Vec::with_capacity(ordered.len());
        let mut total_coalesced = 0u64;
        let mut expansion_errors = 0u64;
        let mut retries_total = 0u64;
        let batch_requests = ordered.len() as u64;
        let key_attr = |key: &str| ("key".to_owned(), Value::Str(key.to_owned()));
        let mut spans = self.spans.lock().expect("span log poisoned");
        for (idx, request) in ordered.iter().enumerate() {
            let label = request.request.as_str();
            let mut received = vec![(
                "benchmark".to_owned(),
                Value::Str(request.spec.benchmark.clone()),
            )];
            if let Some(workload) = &request.spec.workload {
                received.push(("workload".to_owned(), Value::Str(workload.clone())));
            }
            spans.push(label, "received", received);
            if batch_requests > 1 {
                spans.push(
                    label,
                    "grouped",
                    vec![("batch_requests".to_owned(), Value::UInt(batch_requests))],
                );
            }
            match &expansions[idx] {
                Err(message) => {
                    expansion_errors += 1;
                    spans.push(
                        label,
                        "failed",
                        vec![("error".to_owned(), Value::Str(message.clone()))],
                    );
                    resolved.push(ResolvedRequest {
                        token: request.token,
                        counts: ResponseCounts::default(),
                        result: Err(message.clone()),
                    });
                }
                Ok(expansion) => {
                    self.metrics.observe(
                        Plane::Deterministic,
                        "alberta_keys_per_request",
                        COUNT_BUCKETS,
                        expansion.keys.len() as u64,
                    );
                    let mut counts = ResponseCounts::default();
                    for (workload, key) in &expansion.keys {
                        let (doc, fate) = &docs[key];
                        match fate {
                            KeyFate::Cached => {
                                counts.cached += 1;
                                spans.push(label, "cache_hit", vec![key_attr(key)]);
                            }
                            KeyFate::Unplaced => {
                                counts.failed += 1;
                                spans.push(label, "cache_miss", vec![key_attr(key)]);
                                let error = match &doc.status {
                                    RemoteStatus::Failed { error, .. } => error.clone(),
                                    _ => "unplaced".to_owned(),
                                };
                                spans.push(
                                    label,
                                    "failed",
                                    vec![key_attr(key), ("error".to_owned(), Value::Str(error))],
                                );
                            }
                            KeyFate::Computed if first_owner[key] == idx => {
                                counts.computed += 1;
                                spans.push(label, "cache_miss", vec![key_attr(key)]);
                                let placed = missed
                                    .iter()
                                    .position(|k| k == key)
                                    .map(|i| placement.tasks[i]);
                                if let Some(task) = placed {
                                    if let Some(host) = task.host {
                                        spans.push(
                                            label,
                                            "placed",
                                            vec![
                                                key_attr(key),
                                                ("host".to_owned(), Value::UInt(host as u64)),
                                                ("stolen".to_owned(), Value::Bool(task.stolen)),
                                                (
                                                    "start_ticks".to_owned(),
                                                    Value::UInt(task.start_ticks),
                                                ),
                                                (
                                                    "end_ticks".to_owned(),
                                                    Value::UInt(task.end_ticks),
                                                ),
                                                (
                                                    "benchmark".to_owned(),
                                                    Value::Str(expansion.short_name.to_owned()),
                                                ),
                                                (
                                                    "workload".to_owned(),
                                                    Value::Str(workload.clone()),
                                                ),
                                            ],
                                        );
                                        if let Some(exec) = exec_info.get(key) {
                                            // These spans carry the label as it came
                                            // BACK through the execution layer — for
                                            // process hosts, across the worker pipe —
                                            // which is what proves end-to-end
                                            // propagation.
                                            let echo = exec.request.clone().unwrap_or_default();
                                            spans.push(
                                                &echo,
                                                "dispatched",
                                                vec![
                                                    key_attr(key),
                                                    ("host".to_owned(), Value::UInt(host as u64)),
                                                    ("attempt".to_owned(), Value::UInt(1)),
                                                ],
                                            );
                                            for attempt in 2..=u64::from(exec.dispatches.max(1)) {
                                                spans.push(
                                                    &echo,
                                                    "redispatched",
                                                    vec![
                                                        key_attr(key),
                                                        (
                                                            "attempt".to_owned(),
                                                            Value::UInt(attempt),
                                                        ),
                                                    ],
                                                );
                                            }
                                            for retry in 1..=u64::from(exec.retries) {
                                                spans.push(
                                                    &echo,
                                                    "retried",
                                                    vec![
                                                        key_attr(key),
                                                        ("retry".to_owned(), Value::UInt(retry)),
                                                    ],
                                                );
                                            }
                                            retries_total += u64::from(exec.retries);
                                            let status = match &doc.status {
                                                RemoteStatus::Ok => "ok",
                                                RemoteStatus::Degraded { .. } => "degraded",
                                                RemoteStatus::Failed { .. } => "failed",
                                            };
                                            spans.push(
                                                &echo,
                                                "executed",
                                                vec![
                                                    key_attr(key),
                                                    (
                                                        "status".to_owned(),
                                                        Value::Str(status.to_owned()),
                                                    ),
                                                ],
                                            );
                                        }
                                    }
                                }
                            }
                            KeyFate::Computed => {
                                counts.coalesced += 1;
                                spans.push(
                                    label,
                                    "coalesced",
                                    vec![
                                        key_attr(key),
                                        (
                                            "owner".to_owned(),
                                            Value::Str(ordered[first_owner[key]].request.clone()),
                                        ),
                                    ],
                                );
                            }
                        }
                    }
                    total_coalesced += counts.coalesced;
                    spans.push(
                        label,
                        "completed",
                        vec![
                            ("computed".to_owned(), Value::UInt(counts.computed)),
                            ("cached".to_owned(), Value::UInt(counts.cached)),
                            ("coalesced".to_owned(), Value::UInt(counts.coalesced)),
                            ("failed".to_owned(), Value::UInt(counts.failed)),
                        ],
                    );
                    let body = assemble(expansion, &docs);
                    resolved.push(ResolvedRequest {
                        token: request.token,
                        counts,
                        result: Ok(body),
                    });
                }
            }
        }
        drop(spans);

        let computed_count = (missed.len() as u64) - placement.unplaced;
        if placement.unplaced > 0 {
            alberta_core::log_warn!(
                "engine",
                "batch degraded: {} key(s) homed on dead host(s) failed deterministically",
                placement.unplaced
            );
        }
        log_info!(
            "engine",
            "batch resolved: {} request(s), {} computed, {} cached, {} coalesced, {} failed",
            batch_requests,
            computed_count,
            hit_count,
            total_coalesced,
            placement.unplaced
        );

        // Deterministic plane: every counter is touched every batch
        // (`by: 0` still registers it), so the snapshot's shape is
        // stable regardless of what this batch happened to exercise.
        let m = &self.metrics;
        let det = Plane::Deterministic;
        m.inc(det, "alberta_batches_total", 1);
        m.inc(det, "alberta_requests_total", batch_requests);
        m.inc(det, "alberta_request_errors_total", expansion_errors);
        m.inc(det, "alberta_keys_computed_total", computed_count);
        m.inc(det, "alberta_cache_hits_total", hit_count as u64);
        m.inc(det, "alberta_coalesced_total", total_coalesced);
        m.inc(det, "alberta_keys_failed_total", placement.unplaced);
        m.inc(det, "alberta_steals_total", placement.steals);
        m.inc(
            det,
            "alberta_placed_home_total",
            computed_count - placement.steals,
        );
        m.inc(det, "alberta_retries_total", retries_total);
        m.inc(det, "alberta_redispatches_total", redispatches);
        for ((tasks, stolen), load) in self.host_counters.iter().zip(&placement.per_host) {
            m.inc(det, tasks, load.tasks);
            m.inc(det, stolen, load.stolen);
        }
        m.inc(
            det,
            "alberta_evictions_total",
            self.cache.evictions() - evictions_before,
        );
        m.observe(
            det,
            "alberta_batch_keys",
            COUNT_BUCKETS,
            key_tasks.len() as u64,
        );
        for (i, key) in missed.iter().enumerate() {
            if placement.tasks[i].host.is_some() {
                m.observe(
                    det,
                    "alberta_task_cost_ticks",
                    TICK_BUCKETS,
                    sched::task_cost(key),
                );
            }
        }

        // Volatile plane: wall-clock and queue depths — artifact-only.
        let vol = Plane::Volatile;
        m.observe(
            vol,
            "alberta_batch_wall_nanos",
            NANOS_BUCKETS,
            u64::try_from(wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        for exec in exec_info.values() {
            m.observe(
                vol,
                "alberta_run_wall_nanos",
                NANOS_BUCKETS,
                exec.wall_nanos,
            );
        }
        m.set_gauge(vol, "alberta_last_batch_requests", batch_requests);
        m.set_gauge(vol, "alberta_last_batch_missed_keys", missed.len() as u64);

        resolved
    }

    /// Executes the placed misses host by host and returns the computed
    /// documents, the total redispatch count, and per-key execution
    /// info (dispatches, retries, the echoed request label).
    fn execute(
        &self,
        missed: &[String],
        placement: &Placement,
        key_tasks: &BTreeMap<String, KeyTask>,
        key_labels: &BTreeMap<String, String>,
    ) -> (Vec<(String, CacheDocument)>, u64, BTreeMap<String, KeyExec>) {
        // Gather each host's share in placement order, grouped by
        // measurement configuration so tasks sharing a config share one
        // suite.
        let mut host_shares: Vec<Vec<usize>> = vec![Vec::new(); self.config.hosts];
        for (i, task) in placement.tasks.iter().enumerate() {
            if let Some(host) = task.host {
                host_shares[host].push(i);
            }
        }

        let mut out: Vec<(String, CacheDocument)> = Vec::with_capacity(missed.len());
        let mut redispatches = 0u64;

        // Dead-homed tasks fail deterministically — the request always
        // completes, degraded to its survivors.
        for (i, task) in placement.tasks.iter().enumerate() {
            if task.host.is_none() {
                let key = &missed[i];
                let home = sched::home_host(key, self.config.hosts);
                out.push((
                    key.clone(),
                    CacheDocument {
                        key: key.clone(),
                        status: RemoteStatus::Failed {
                            error: format!("characterization host {home} is down"),
                            retryable: true,
                        },
                        run: None,
                        retries: 0,
                        budget_consumed: 0,
                    },
                ));
            }
        }

        // One OS thread per live host with work: hosts execute
        // concurrently (that is the point of the pool), and because
        // each task's result depends only on its inputs, the assembled
        // documents are identical to a serial execution.
        type HostResult = (Vec<(String, CacheDocument, KeyExec)>, u64);
        let results: Vec<HostResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = host_shares
                .iter()
                .enumerate()
                .filter(|(_, share)| !share.is_empty())
                .map(|(host, share)| {
                    let config = &self.config;
                    scope
                        .spawn(move || run_host(host, share, missed, key_tasks, key_labels, config))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("host thread panicked"))
                .collect()
        });
        let mut exec_info = BTreeMap::new();
        for (docs, host_redispatches) in results {
            redispatches += host_redispatches;
            for (key, doc, exec) in docs {
                exec_info.insert(key.clone(), exec);
                out.push((key, doc));
            }
        }
        (out, redispatches, exec_info)
    }
}

/// How one computed key's execution went, as the host pool reported it.
#[derive(Debug, Clone)]
struct KeyExec {
    /// Supervisor dispatch attempts (1 on a clean run).
    dispatches: u32,
    /// In-worker retry attempts.
    retries: u32,
    /// Wall-clock duration of the run (volatile plane only).
    wall_nanos: u64,
    /// The request label as it came back through the execution layer.
    request: Option<String>,
}

/// How a key in a batch was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyFate {
    Cached,
    Computed,
    Unplaced,
}

/// True when `key` was left unplaced by the scheduler (dead home host).
fn placement_failed(placement: &Placement, missed: &[String], key: &str) -> bool {
    missed
        .iter()
        .position(|k| k == key)
        .is_some_and(|i| placement.tasks[i].host.is_none())
}

/// Executes one host's share of the missed keys and returns the
/// resulting documents (with per-key execution info) plus the host's
/// redispatch count.
fn run_host(
    host: usize,
    share: &[usize],
    missed: &[String],
    key_tasks: &BTreeMap<String, KeyTask>,
    key_labels: &BTreeMap<String, String>,
    config: &ServeConfig,
) -> (Vec<(String, CacheDocument, KeyExec)>, u64) {
    // Group the host's tasks by measurement configuration, preserving
    // placement order within each group.
    let mut groups: BTreeMap<String, Vec<&KeyTask>> = BTreeMap::new();
    let mut group_keys: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for &i in share {
        let key = &missed[i];
        let task = &key_tasks[key];
        let config_fp = task.spec.config_fingerprint();
        groups.entry(config_fp.clone()).or_default().push(task);
        group_keys.entry(config_fp).or_default().push(key.clone());
    }

    let mut docs = Vec::new();
    let mut redispatches = 0u64;
    for (config_fp, tasks) in &groups {
        let spec = &tasks[0].spec;
        let mut suite = Suite::new(spec.scale)
            .with_model(alberta_core::TopDownModel::new(
                spec.machine,
                spec.predictor,
            ))
            .with_sampling_policy(spec.policy)
            .with_exec(config.host_exec)
            .with_process_config(config.process);
        if let Some(plan) = config.host_faults.get(&host) {
            suite = suite.with_faults(plan.clone());
        }
        let task_list: Vec<LabeledTask> = tasks
            .iter()
            .zip(&group_keys[config_fp])
            .map(|(t, key)| LabeledTask {
                benchmark: t.short_name.to_owned(),
                workload: t.workload.clone(),
                request: Some(key_labels[key].clone()),
            })
            .collect();
        // Names were validated at expansion time against the same
        // reference suite, so resolution cannot fail here.
        let runs = suite
            .characterize_tasks_labeled(&task_list)
            .expect("expansion validated every task name");
        for (run, key) in runs.into_iter().zip(&group_keys[config_fp]) {
            redispatches += u64::from(run.metrics.dispatches.max(1) - 1);
            let exec = KeyExec {
                dispatches: run.metrics.dispatches.max(1),
                retries: run.metrics.retries,
                wall_nanos: run.metrics.wall_nanos,
                request: run.request,
            };
            docs.push((
                key.clone(),
                CacheDocument {
                    key: key.clone(),
                    status: RemoteStatus::from_status(&run.status),
                    run: run.run,
                    retries: run.metrics.retries,
                    budget_consumed: run.metrics.budget_consumed,
                },
                exec,
            ));
        }
    }
    (docs, redispatches)
}

/// Expands one request into its benchmark identity and ordered key
/// list, validating names against the reference suite's `names` for its
/// scale.
fn expand(spec: &RequestSpec, names: &[BenchmarkNames]) -> Result<Expansion, String> {
    let benchmark = names
        .iter()
        .find(|b| b.short_name == spec.benchmark || b.name == spec.benchmark)
        .ok_or_else(|| format!("unknown benchmark {:?}", spec.benchmark))?;
    let selected: &[String] = match &spec.workload {
        Some(w) if !benchmark.workloads.contains(w) => {
            return Err(format!(
                "benchmark {} has no workload named {w:?}",
                benchmark.short_name
            ));
        }
        Some(w) => std::slice::from_ref(w),
        None => &benchmark.workloads,
    };
    Ok(Expansion {
        name: benchmark.name,
        short_name: benchmark.short_name,
        narrowed: spec.workload.is_some(),
        keys: selected
            .iter()
            .map(|w| (w.clone(), spec.run_key(w)))
            .collect(),
    })
}

/// Assembles a request's canonical response body from the resolved
/// documents: a single run record for a narrowed request, a full
/// benchmark report (runs in workload order plus the Table II summary
/// over the survivors) otherwise. Both go through the exact `RunRecord`
/// construction `bench-report` uses, so response bytes match a fresh
/// sweep's report regardless of cache or host.
fn assemble(expansion: &Expansion, docs: &BTreeMap<String, (CacheDocument, KeyFate)>) -> Value {
    let records: Vec<RunRecord> = expansion
        .keys
        .iter()
        .map(|(workload, key)| {
            let (doc, _) = &docs[key];
            let status = doc.status.clone().into_status(expansion.name);
            RunRecord::from_parts(
                workload,
                &status,
                doc.retries,
                doc.budget_consumed,
                doc.run.as_ref(),
            )
        })
        .collect();
    if expansion.narrowed {
        return records[0].to_value();
    }
    let survivors: Vec<alberta_core::WorkloadRun> = expansion
        .keys
        .iter()
        .filter_map(|(_, key)| docs[key].0.run.clone())
        .collect();
    let summary = summarize_runs(expansion.name, expansion.short_name, survivors)
        .as_ref()
        .map(alberta_report::SummaryRecord::from_characterization);
    BenchmarkReport {
        spec_id: expansion.name.to_owned(),
        short_name: expansion.short_name.to_owned(),
        runs: records,
        summary,
        hot_paths: None,
    }
    .to_value()
}
