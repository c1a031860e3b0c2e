//! The repository benchmark: end-to-end and per-layer performance of
//! the Alberta Workloads reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-full|sweep-sampled|replay-ablation|serve-hot \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the output checks read the committed
//! `BENCH_test.json`, and scratch files go under `.perfbench/`. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it also rebuilds the workload from the crates' public entry points
//! with a span around every call and prints the per-layer metrics. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check names the
//! workload and run on standard error and exits 1. See `README.md`.

mod affinity;
mod metrics;
mod procfs;
mod rebuild;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;

use metrics::{result_line, LayerMetrics, Measured};
use rebuild::Tally;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;
use trace::{SelfTimes, Tracer};

/// Scratch directory for span files and the service's cache, relative
/// to the repository root the benchmark runs from.
pub const SCRATCH_DIR: &str = ".perfbench";
/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Timed ops a run collects at least: on the service, 200 requests
/// leave ten samples beyond the 95th percentile.
const MIN_OPS: u64 = 200;
/// Timed passes a run makes at least, so that every part has a second
/// time to be the fastest of, one on each CPU of a serial workload's
/// rotation.
const MIN_PASSES: usize = 2;
/// No pass starts after this many seconds of timed phase, whatever the
/// op count: a run must end well within three minutes.
const HARD_STOP_S: f64 = 90.0;

/// The workloads.
const WORKLOADS: &[&str] = &[
    "sweep-full",
    "sweep-sampled",
    "replay-ablation",
    "serve-hot",
];

/// One invocation's parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Whether to make the traced rebuild.
    pub trace: bool,
}

impl Run {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Run, String> {
        let mut run = Run {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            let number = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v:?}"))
            };
            match flag.as_str() {
                "--workload" => run.workload = value()?,
                "--seed" => run.seed = number(value()?)?,
                "--seconds" => run.seconds = number(value()?)?.max(1),
                "--trace" => {
                    run.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&run.workload.as_str()) {
            return Err(format!(
                "--workload expects one of {}, got {:?}",
                WORKLOADS.join(", "),
                run.workload
            ));
        }
        Ok(run)
    }
}

/// The committed Test-scale report the output checks compare against.
pub struct Golden {
    /// Its bytes.
    pub text: String,
    /// Its parse, made on first use: parsing takes seconds, and a
    /// byte-identical sweep never needs it.
    report: OnceLock<alberta_report::SuiteReport>,
}

impl Golden {
    const PATH: &'static str = "BENCH_test.json";

    fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(Self::PATH)
            .map_err(|e| format!("{}: {e} (run from the repository root)", Self::PATH))?;
        Ok(Golden {
            text,
            report: OnceLock::new(),
        })
    }

    /// The parsed report.
    ///
    /// # Panics
    ///
    /// When the committed report does not parse: every check depends on
    /// it, so there is nothing to measure against.
    pub fn report(&self) -> &alberta_report::SuiteReport {
        self.report.get_or_init(|| {
            alberta_report::SuiteReport::parse(&self.text)
                .unwrap_or_else(|e| panic!("{}: {e}", Self::PATH))
        })
    }
}

/// Decides how many timed passes a run makes.
pub struct Pacer {
    started: Instant,
    seconds: f64,
}

impl Pacer {
    /// Starts the timed phase.
    pub fn new(seconds: u64) -> Self {
        Pacer {
            started: Instant::now(),
            seconds: seconds as f64,
        }
    }

    /// Whether to start another pass: while fewer than [`MIN_PASSES`]
    /// passes or [`MIN_OPS`] ops were timed, or while a pass of the
    /// median length so far still ends within the run's seconds.
    pub fn another(&self, passes: &[f64], ops: u64) -> bool {
        let elapsed = self.started.elapsed().as_secs_f64();
        passes.is_empty()
            || (elapsed < HARD_STOP_S
                && (passes.len() < MIN_PASSES
                    || ops < MIN_OPS
                    || elapsed + stats::median(passes) <= self.seconds))
    }
}

/// Writes a traced run's spans under [`SCRATCH_DIR`]. Losing the file
/// loses no metric, so a failure is reported and ignored.
pub fn write_spans(workload: &str, tracer: &Tracer) {
    let path = Path::new(SCRATCH_DIR).join(format!("spans-{workload}.json"));
    let written = std::fs::create_dir_all(SCRATCH_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_value().render()));
    match written {
        Ok(()) => eprintln!("perfbench: spans -> {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// The `profile` layer from capture spans and tallies.
pub fn set_profile_layer(layers: &mut LayerMetrics, times: &SelfTimes, tally: &Tally) {
    let exec = times.seconds("profile.exec");
    layers.set("profile.exec_s", exec);
    layers.set_ratio(
        "profile.exec_ns_per_op",
        exec * 1e9,
        tally.retired_ops as f64,
        "exec ns / retired ops",
    );
    layers.set("profile.capture_s", exec - times.seconds("profile.bare"));
    layers.set("profile.finish_s", times.seconds("profile.finish"));
    layers.set("profile.retired_ops", tally.retired_ops as f64);
    layers.set("profile.events_offered", tally.events_offered as f64);
    layers.set("profile.events_kept", tally.events_kept as f64);
    layers.set("profile.decimations", tally.decimations as f64);
}

/// The `uarch` layer: `replay_s` is the time spent in the model's
/// replay entry points; the kernels come from their own spans.
pub fn set_uarch_layer(layers: &mut LayerMetrics, replay_s: f64, times: &SelfTimes, tally: &Tally) {
    let events = tally.branches + tally.mem_accesses + tally.calls;
    layers.set("uarch.replay_s", replay_s);
    layers.set_ratio(
        "uarch.ns_per_event",
        replay_s * 1e9,
        events as f64,
        "replay ns / replayed events",
    );
    layers.set("uarch.predictor_s", times.seconds("uarch.predictor"));
    layers.set("uarch.hierarchy_s", times.seconds("uarch.hierarchy"));
    layers.set("uarch.mpki_ladder_s", times.seconds("uarch.mpki_ladder"));
    layers.set("uarch.branches", tally.branches as f64);
    layers.set("uarch.mem_accesses", tally.mem_accesses as f64);
    layers.set("uarch.calls", tally.calls as f64);
}

/// The traced run's own cost: traced wall minus the median untraced
/// pass.
pub fn set_trace_overhead(layers: &mut LayerMetrics, traced_s: f64, untraced_s: f64) {
    layers.set("trace.wall_s", traced_s);
    layers.set("trace.untraced_wall_s", untraced_s);
    layers.set("trace.overhead_s", traced_s - untraced_s);
}

fn main() {
    // The sampled sweep's process pool re-executes this binary as its
    // workers; they must divert before any argument is parsed.
    alberta_core::maybe_worker();
    let run = match Run::parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let golden = match Golden::load() {
        Ok(golden) => golden,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let probe = procfs::RunProbe::start();
    let (mut measured, layers) = match run.workload.as_str() {
        "sweep-full" => sweep::run(sweep::Mode::Full, &run, &golden),
        "sweep-sampled" => sweep::run(sweep::Mode::Sampled, &run, &golden),
        "replay-ablation" => replay::run(&run, &golden),
        "serve-hot" => serve::run(&run),
        _ => unreachable!("workload validated at parse"),
    };
    measured.diagnostics.extend(probe.diagnostics());
    std::process::exit(report(&run, &measured, &layers));
}

/// Prints the run's metrics and the result line; returns the exit code.
fn report(run: &Run, m: &Measured, layers: &LayerMetrics) -> i32 {
    println!(
        "perfbench: {} (seed {}, {} s, trace {})",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let e2e = m.end_to_end();
    for &(name, value, unit, samples) in &e2e {
        println!("  {name:<14} {value:>14.6} {unit:<5} ({samples} samples)");
    }
    let ms = m.latency_samples_ms();
    println!(
        "  ops: {} {} attempted, {} failed; {} timed passes, median pass {:.6} s",
        m.attempted,
        m.op_kind,
        m.failed,
        m.passes.len(),
        stats::median(&m.pass_s())
    );
    println!(
        "  diag op_p95_ms: {:.6} ms ({} samples, {} beyond p95)",
        stats::percentile(&ms, 95.0),
        ms.len(),
        stats::beyond(ms.len(), 95.0)
    );
    for (key, value) in &m.diagnostics {
        println!("  diag {key}: {value}");
    }
    let metrics: Vec<(&'static str, f64, &'static str)> = if run.trace {
        println!("  per-layer (traced run):");
        for (name, value, unit, note) in layers.rows() {
            match note {
                Some(note) => println!("    {name:<24} {value:>16.6} {unit:<8} [{note}]"),
                None => println!("    {name:<24} {value:>16.6} {unit}"),
            }
        }
        layers
            .rows()
            .into_iter()
            .map(|(n, v, u, _)| (n, v, u))
            .collect()
    } else {
        e2e.iter().map(|&(n, v, u, _)| (n, v, u)).collect()
    };
    for problem in &m.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    let correct = m.problems.is_empty() && m.failed == 0;
    println!(
        "{}",
        result_line(correct, m.attempted.max(1), m.failed, &metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Run, String> {
        Run::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let run = parse(&[
            "--workload",
            "serve-hot",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            run,
            Run {
                workload: "serve-hot".to_owned(),
                seed: 9,
                seconds: 12,
                trace: true
            }
        );
        assert_eq!(
            parse(&["--workload", "sweep-full"]).map(|r| r.seed),
            Ok(DEFAULT_SEED)
        );
        assert!(parse(&["--workload", "hit"]).is_err());
        assert!(parse(&["--workload", "sweep-full", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "sweep-full", "--seed"]).is_err());
        assert!(parse(&["--workload", "sweep-full", "--bogus", "1"]).is_err());
    }
}
