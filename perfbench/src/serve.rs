//! `serve-hot`: an in-process characterization daemon answering
//! workload-level requests from a warm cache.
//!
//! Set-up starts a daemon over a fresh cache directory (one serial
//! host) and fills a fixed key set cold through it: every Test-scale
//! `(benchmark, workload)` pair except the deepsjeng and leela runs, the
//! suite's slowest. The timed phase is a closed loop of two
//! connections; each sends one seeded request per drain and waits for
//! the reply, and every request must be a cache hit whose body equals
//! the one computed in set-up.

use crate::metrics::{LayerMetrics, Measured};
use crate::stats::median;
use crate::trace::{self_times, Tracer};
use crate::{procfs, Pacer, Run, SCRATCH_DIR};
use alberta_core::request_label;
use alberta_serve::{BatchRequest, Client, Daemon, Engine, RequestSpec, ResultCache, ServeConfig};
use alberta_workloads::Scale;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon starts and cold fills timed per run: one before the timed
/// phase, the rest after it.
const SETUP_REPS: usize = 3;
/// Connections of the closed loop.
const CONNECTIONS: usize = 2;
/// Round trips per connection in one timed pass.
const PASS_REQUESTS: usize = 20;
/// Benchmarks left out of the key set: the suite's slowest runs.
const SKIPPED: [&str; 2] = ["deepsjeng", "leela"];

/// The fixed key set, as workload-level requests.
fn key_set() -> Vec<RequestSpec> {
    alberta_benchmarks::suite(Scale::Test)
        .iter()
        .filter(|b| !SKIPPED.contains(&b.short_name()))
        .flat_map(|b| {
            b.workload_names()
                .into_iter()
                .map(|w| RequestSpec::new(b.short_name(), Some(&w), Scale::Test))
        })
        .collect()
}

/// The seeded request sequence of one connection: indices into the key
/// set.
struct Sequence(u64);

impl Sequence {
    fn new(seed: u64, connection: usize) -> Self {
        Sequence(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1 + connection as u64),
        )
    }

    fn next_index(&mut self, len: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % len
    }
}

/// A daemon serving on an ephemeral local port from its own thread.
struct Service {
    addr: String,
    dir: PathBuf,
    thread: JoinHandle<()>,
}

impl Service {
    fn start(dir: PathBuf) -> Result<Service, String> {
        // A stale directory from an interrupted run would turn the cold
        // fill into hits.
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            hosts: 1,
            ..ServeConfig::default()
        };
        let engine = Engine::new(config, ResultCache::new(&dir));
        let daemon = Daemon::bind("127.0.0.1:0", engine).map_err(|e| format!("bind: {e}"))?;
        let addr = daemon
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let thread = std::thread::spawn(move || daemon.run());
        Ok(Service { addr, dir, thread })
    }

    /// Shuts the daemon down, joins its thread and removes the cache.
    fn stop(self) -> Result<(), String> {
        let asked = Client::connect(&self.addr, None).and_then(Client::shutdown);
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        asked
    }
}

/// Fills every key cold on one connection; returns each key's body.
fn fill(addr: &str, keys: &[RequestSpec]) -> Result<Vec<String>, String> {
    let mut client = Client::connect_named(addr, Some("fill"), None)?;
    for spec in keys {
        client.request(spec)?;
    }
    let responses = client.drain()?;
    if responses.len() != keys.len() {
        return Err(format!(
            "fill: asked for {} keys, got {} responses",
            keys.len(),
            responses.len()
        ));
    }
    responses
        .into_iter()
        .map(|r| {
            let spec = &keys[r.id as usize];
            let name = format!(
                "{}/{}",
                spec.benchmark,
                spec.workload.as_deref().unwrap_or("*")
            );
            let body = r.result.map_err(|e| format!("fill: {name}: {e}"))?;
            if r.counts.computed != 1 {
                return Err(format!("fill: {name}: not computed cold: {:?}", r.counts));
            }
            Ok(body.render_compact())
        })
        .collect()
}

/// One connection's share of a pass: `(key index, round trip seconds,
/// response body bytes)` per request, or the first problem met.
type Share = Result<Vec<(usize, f64, usize)>, String>;

/// One round trip: a request, a drain, and the hit and body checks.
fn round_trip(
    client: &mut Client,
    keys: &[RequestSpec],
    bodies: &[String],
    i: usize,
) -> Result<(f64, usize), String> {
    let name = || {
        format!(
            "{}/{}",
            keys[i].benchmark,
            keys[i].workload.as_deref().unwrap_or("*")
        )
    };
    let started = Instant::now();
    client.request(&keys[i])?;
    let responses = client.drain()?;
    let elapsed = started.elapsed().as_secs_f64();
    let [response] = responses.as_slice() else {
        return Err(format!(
            "{}: {} responses to one request",
            name(),
            responses.len()
        ));
    };
    let body = response
        .result
        .as_ref()
        .map_err(|e| format!("{}: {e}", name()))?
        .render_compact();
    if response.counts.cached != 1 || response.counts.computed != 0 {
        return Err(format!(
            "{}: not a cache hit: {:?}",
            name(),
            response.counts
        ));
    }
    if body != bodies[i] {
        return Err(format!(
            "{}: body differs from the one computed in set-up",
            name()
        ));
    }
    Ok((elapsed, body.len()))
}

/// One timed pass: every connection makes [`PASS_REQUESTS`] round trips
/// concurrently.
fn pass(
    clients: &mut [Client],
    sequences: &mut [Sequence],
    keys: &[RequestSpec],
    bodies: &[String],
) -> Vec<Share> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sequences.iter_mut())
            .map(|(client, sequence)| {
                scope.spawn(move || -> Share {
                    (0..PASS_REQUESTS)
                        .map(|_| {
                            let i = sequence.next_index(keys.len());
                            round_trip(client, keys, bodies, i).map(|(s, bytes)| (i, s, bytes))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// One set-up: a daemon over a fresh cache directory, filled cold.
/// Returns the service, the bodies, and the set-up and fill seconds.
fn set_up(rep: usize, keys: &[RequestSpec]) -> Result<(Service, Vec<String>, f64, f64), String> {
    let dir = Path::new(SCRATCH_DIR).join(format!("serve-cache-{}-{rep}", std::process::id()));
    let started = Instant::now();
    let service = Service::start(dir)?;
    let fill_started = Instant::now();
    match fill(&service.addr, keys) {
        Ok(bodies) => {
            let fill_s = fill_started.elapsed().as_secs_f64();
            Ok((service, bodies, started.elapsed().as_secs_f64(), fill_s))
        }
        Err(problem) => {
            let _ = service.stop();
            Err(problem)
        }
    }
}

/// Runs the service workload; with `run.trace`, also traces a pass.
///
/// The timed phase and the peak-memory reading follow the first set-up;
/// the remaining set-ups come after them. Each set-up retires a daemon,
/// and the allocator's reuse of the memory it freed varies between
/// processes, so set-ups made earlier would make the peak bimodal.
pub fn run(run: &Run) -> (Measured, LayerMetrics) {
    let mut m = Measured {
        op_kind: "requests",
        ops_per_pass: CONNECTIONS * PASS_REQUESTS,
        ..Measured::default()
    };
    let mut layers = LayerMetrics::default();
    let keys = key_set();
    let mut fills = Vec::new();
    let (service, bodies) = match set_up(0, &keys) {
        Ok((service, bodies, setup_s, fill_s)) => {
            m.setup_s.push(vec![setup_s]);
            fills.push(fill_s);
            (service, bodies)
        }
        Err(problem) => {
            m.failed += 1;
            m.problems.push(format!("serve-hot: set-up: {problem}"));
            return (m, layers);
        }
    };

    let connect = |c: usize| Client::connect_named(&service.addr, Some(&format!("hot-{c}")), None);
    match (0..CONNECTIONS).map(connect).collect::<Result<Vec<_>, _>>() {
        Err(problem) => m.problems.push(format!("serve-hot: connect: {problem}")),
        Ok(mut clients) => {
            let mut sequences: Vec<Sequence> = (0..CONNECTIONS)
                .map(|c| Sequence::new(run.seed, c))
                .collect();
            let pacer = Pacer::new(run.seconds);
            while m.problems.is_empty() && pacer.another(&m.pass_s(), m.attempted) {
                let started = Instant::now();
                let shares = pass(&mut clients, &mut sequences, &keys, &bodies);
                // The two connections overlap: the pass is one part.
                m.passes.push(vec![started.elapsed().as_secs_f64()]);
                let mut latencies = Vec::with_capacity(CONNECTIONS * PASS_REQUESTS);
                for share in shares {
                    m.attempted += PASS_REQUESTS as u64;
                    match share {
                        Ok(trips) => latencies.extend(trips.iter().map(|&(_, s, _)| s)),
                        Err(problem) => {
                            m.failed += 1;
                            m.problems.push(format!("serve-hot: {problem}"));
                        }
                    }
                }
                m.latency_s.push(latencies);
            }
            m.peak_rss_kb = procfs::self_vm_hwm_kb().unwrap_or(0);
            if run.trace && m.problems.is_empty() {
                traced_pass(
                    run,
                    &service,
                    &mut clients,
                    &keys,
                    &bodies,
                    &mut m,
                    &mut layers,
                );
            }
        }
    }
    stop(service, &mut m);

    let mut after = Vec::with_capacity(SETUP_REPS - 1);
    for rep in 1..SETUP_REPS {
        match set_up(rep, &keys) {
            Ok((service, again, setup_s, fill_s)) => {
                after.push(setup_s);
                fills.push(fill_s);
                stop(service, &mut m);
                if again != bodies {
                    m.problems
                        .push("serve-hot: cold fills disagree between set-ups".to_owned());
                }
            }
            Err(problem) => {
                m.failed += 1;
                m.problems.push(format!("serve-hot: set-up: {problem}"));
            }
        }
    }
    m.setup_s.push(after);
    layers.set("serve.fill_s", median(&fills));
    (m, layers)
}

fn stop(service: Service, m: &mut Measured) {
    if let Err(problem) = service.stop() {
        m.problems.push(format!("serve-hot: shutdown: {problem}"));
    }
}

/// The traced pass: the same seeded requests over the same
/// connections, each round trip followed by the same request resolved
/// in-process on an engine over the same cache, a direct cache lookup,
/// and the workload-suite build the engine repeats on every batch.
fn traced_pass(
    run: &Run,
    service: &Service,
    clients: &mut [Client],
    keys: &[RequestSpec],
    bodies: &[String],
    m: &mut Measured,
    layers: &mut LayerMetrics,
) {
    let tracer = Tracer::default();
    let engine = Engine::new(
        ServeConfig {
            hosts: 1,
            ..ServeConfig::default()
        },
        ResultCache::new(&service.dir),
    );
    let started = Instant::now();
    let shares: Vec<Share> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (tracer, engine) = (&tracer, &engine);
                scope.spawn(move || -> Share {
                    let mut sequence = Sequence::new(run.seed, c);
                    let mut trips = Vec::with_capacity(PASS_REQUESTS);
                    for n in 0..PASS_REQUESTS {
                        let i = sequence.next_index(keys.len());
                        let op = (c * PASS_REQUESTS + n) as u64;
                        let (s, bytes) = tracer.span("serve.round_trip", None, op, |_| {
                            round_trip(client, keys, bodies, i)
                        })?;
                        let spec = &keys[i];
                        let resolved = tracer.span("serve.resolve", None, op, |_| {
                            engine.resolve_batch(&[BatchRequest {
                                token: (0, op),
                                request: request_label("traced", op),
                                spec: spec.clone(),
                            }])
                        });
                        let in_process = resolved
                            .first()
                            .and_then(|r| r.result.as_ref().ok())
                            .map(|body| body.render_compact());
                        if in_process.as_deref() != Some(bodies[i].as_str()) {
                            return Err(format!(
                                "{}/{}: in-process resolve differs from the served body",
                                spec.benchmark,
                                spec.workload.as_deref().unwrap_or("*")
                            ));
                        }
                        let key = spec.run_key(spec.workload.as_deref().unwrap_or_default());
                        tracer
                            .span("serve.lookup", None, op, |_| engine.cache().lookup(&key))
                            .ok_or_else(|| format!("{key}: lookup missed"))?;
                        tracer.span("workloads.build", None, op, |_| {
                            alberta_benchmarks::suite(Scale::Test)
                        });
                        trips.push((i, s, bytes));
                    }
                    Ok(trips)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client thread panicked"))
            .collect()
    });
    let traced_wall = started.elapsed().as_secs_f64();
    let mut requests = 0u64;
    let mut bytes = 0u64;
    for share in shares {
        match share {
            Ok(trips) => {
                requests += trips.len() as u64;
                bytes += trips.iter().map(|&(_, _, b)| b as u64).sum::<u64>();
            }
            Err(problem) => {
                m.failed += 1;
                m.problems
                    .push(format!("serve-hot: traced pass: {problem}"));
            }
        }
    }
    crate::write_spans("serve-hot", &tracer);

    let times = self_times(&tracer.spans());
    let n = requests as f64;
    let ms = |seconds: f64| seconds * 1e3;
    layers.set_ratio(
        "serve.resolve_ms",
        ms(times.seconds("serve.resolve")),
        n,
        "total resolve ms / requests",
    );
    layers.set_ratio(
        "serve.lookup_ms",
        ms(times.seconds("serve.lookup")),
        n,
        "total lookup ms / requests",
    );
    layers.set_ratio(
        "serve.wire_ms",
        ms(times.seconds("serve.round_trip") - times.seconds("serve.resolve")),
        n,
        "(round trip - resolve) ms / requests",
    );
    layers.set_ratio(
        "workloads.build_ms",
        ms(times.seconds("workloads.build")),
        n,
        "total build ms / builds",
    );
    layers.set("serve.hits", n);
    layers.set("serve.response_bytes", bytes as f64);
    crate::set_trace_overhead(layers, traced_wall, median(&m.pass_s()));
}
