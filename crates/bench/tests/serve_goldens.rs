//! The service's goldens: the three service binaries, run in the
//! sequence the README documents, reproduce the committed
//! `STORM_test.json`, `METRICS_test.json` and `BENCH_test.json` byte
//! for byte, and no daemon thread panics.
//!
//! The sequence: `alberta-serve --hosts 4 --host-exec processes
//! --host-jobs 2` on a fresh cache, the seeded storm (`storm test
//! --requests 96 --clients 4 --seed 42`, a cold round then a warm one,
//! plus the served sweep), then `serve-metrics --shutdown`, which
//! scrapes the telemetry and stops the daemon. Every file the sequence
//! writes stays under `CARGO_TARGET_TMPDIR/serve_goldens` for
//! inspection.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Kills and reaps its process on every path out of the test, a failed
/// assertion included, so no daemon or client outlives it.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Reaped {
    /// Waits up to `limit` for the process to exit by itself.
    fn wait_within(&mut self, what: &str, limit: Duration) -> ExitStatus {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.0.try_wait().expect("poll the process") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "{what} still runs after {limit:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Runs one client binary to completion with its stdout and stderr in
/// `dir`, failing the test when it fails or outlasts `limit`.
fn run_client(dir: &Path, name: &str, command: &mut Command, limit: Duration) {
    let stdout = File::create(dir.join(format!("{name}.log"))).expect("create the log");
    let stderr = File::create(dir.join(format!("{name}.err"))).expect("create the log");
    let mut child = Reaped(
        command
            .stdout(stdout)
            .stderr(stderr)
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}")),
    );
    let status = child.wait_within(name, limit);
    let stderr = std::fs::read_to_string(dir.join(format!("{name}.err"))).unwrap_or_default();
    assert!(status.success(), "{name} exited with {status}: {stderr}");
}

/// Fails at the first line where the file `dir/name` departs from the
/// committed golden, so a moved byte reads as one line.
fn assert_golden(golden_name: &str, golden: &str, dir: &Path, name: &str) {
    let actual = std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("read {name}, compared with {golden_name}: {e}"));
    if let Some((i, (g, a))) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (g, a))| g != a)
    {
        panic!("{golden_name} line {}: golden {g:?}, {name} {a:?}", i + 1);
    }
    assert_eq!(
        golden.len(),
        actual.len(),
        "{golden_name} and {name} differ in length"
    );
}

#[test]
fn served_storm_reproduces_the_committed_goldens() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve_goldens");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("delete the previous run's cache and outputs");
    }
    std::fs::create_dir_all(&dir).expect("create the output directory");

    let mut daemon = Reaped(
        Command::new(env!("CARGO_BIN_EXE_alberta-serve"))
            .args(["--listen", "127.0.0.1:0", "--cache-dir"])
            .arg(dir.join("cache"))
            .args(["--hosts", "4"])
            .args(["--host-exec", "processes", "--host-jobs", "2"])
            .stdout(Stdio::piped())
            .stderr(File::create(dir.join("serve.err")).expect("create the daemon's stderr"))
            .spawn()
            .expect("spawn alberta-serve"),
    );
    // The readiness line carries the bound address.
    let mut ready = String::new();
    BufReader::new(daemon.0.stdout.take().expect("piped stdout"))
        .read_line(&mut ready)
        .expect("read the readiness line");
    std::fs::write(dir.join("serve.log"), &ready).expect("keep the readiness line");
    let addr = ready
        .trim_end()
        .strip_prefix("alberta-serve: listening on ")
        .unwrap_or_else(|| panic!("no readiness line, got {ready:?}"))
        .to_owned();

    run_client(
        &dir,
        "storm",
        Command::new(env!("CARGO_BIN_EXE_storm"))
            .args(["test", "--addr", &addr])
            .args(["--requests", "96", "--clients", "4", "--seed", "42"])
            .arg("--out")
            .arg(dir.join("storm.json"))
            .arg("--latency-out")
            .arg(dir.join("latency.json"))
            .arg("--sweep-out")
            .arg(dir.join("sweep.json")),
        Duration::from_secs(600),
    );
    run_client(
        &dir,
        "serve-metrics",
        Command::new(env!("CARGO_BIN_EXE_serve-metrics"))
            .args(["--addr", &addr, "--out"])
            .arg(dir.join("metrics.prom"))
            .arg("--deterministic-out")
            .arg(dir.join("metrics.json"))
            .arg("--volatile-out")
            .arg(dir.join("metrics-volatile.json"))
            .arg("--timeline")
            .arg(dir.join("timeline.json"))
            .arg("--shutdown"),
        Duration::from_secs(120),
    );
    let status = daemon.wait_within("alberta-serve after shutdown", Duration::from_secs(30));
    assert!(status.success(), "alberta-serve exited with {status}");

    let stderr = std::fs::read_to_string(dir.join("serve.err")).expect("read the daemon's stderr");
    assert!(
        !stderr.contains("panicked"),
        "a daemon thread panicked: {stderr}"
    );
    assert_golden(
        "STORM_test.json",
        include_str!("../../../STORM_test.json"),
        &dir,
        "storm.json",
    );
    assert_golden(
        "METRICS_test.json",
        include_str!("../../../METRICS_test.json"),
        &dir,
        "metrics.json",
    );
    assert_golden(
        "BENCH_test.json",
        include_str!("../../../BENCH_test.json"),
        &dir,
        "sweep.json",
    );
}
