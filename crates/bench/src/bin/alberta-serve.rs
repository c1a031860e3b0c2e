//! The characterization-as-a-service daemon.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin alberta-serve -- \
//!     [--listen ADDR] [--cache-dir PATH] [--hosts N] \
//!     [--host-exec serial|threads|processes] [--host-jobs N]
//! ```
//!
//! Listens on `--listen` (default `127.0.0.1:0`, an ephemeral port) and
//! answers characterization requests over the line-delimited wire
//! protocol of [`ClientMsg`](alberta_serve::ClientMsg) and
//! [`ServerMsg`](alberta_serve::ServerMsg). Results come from the
//! content-addressed cache under `--cache-dir` (default
//! `serve-cache/`); misses are placed onto `--hosts` mock hosts by the
//! deterministic work-stealing scheduler and executed under
//! `--host-exec` with `--host-jobs` workers, read as `bench-report`
//! reads `--exec` and `--jobs` (each host is its own worker pool;
//! `processes` gives every host a crash-isolated pool with heartbeats
//! and redispatch).
//!
//! The bound address is printed to stdout as soon as the socket is
//! ready — the tests parse that line instead of racing the daemon with
//! retries. The daemon exits when a client sends
//! `shutdown`.

use alberta_bench::{usage_error, Args};
use alberta_serve::{Daemon, Engine, ResultCache, ServeConfig};

fn main() {
    // Under --host-exec processes the host pools re-execute this binary
    // in the hidden worker mode; intercept that before anything else.
    alberta_bench::maybe_worker();
    let args = Args::parse(
        &[
            "--listen",
            "--cache-dir",
            "--hosts",
            "--host-exec",
            "--host-jobs",
        ],
        &[],
    )
    .without_operands();

    let listen = args.value("--listen").unwrap_or("127.0.0.1:0");
    let cache_dir = args.value("--cache-dir").unwrap_or("serve-cache");
    let hosts = args.count("--hosts", 4);
    let host_exec = args.exec("--host-exec", "--host-jobs");

    let config = ServeConfig {
        hosts,
        host_exec,
        ..ServeConfig::default()
    };
    let engine = Engine::new(config, ResultCache::new(cache_dir));
    let daemon = match Daemon::bind(listen, engine) {
        Ok(daemon) => daemon,
        Err(e) => usage_error(&format!("cannot listen on {listen}: {e}")),
    };
    let addr = daemon
        .local_addr()
        .unwrap_or_else(|e| usage_error(&format!("cannot resolve bound address: {e}")));
    // The readiness line the tests wait for.
    println!("alberta-serve: listening on {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!("alberta-serve: cache {cache_dir}, {hosts} host(s), exec {host_exec:?}");
    daemon.run();
    eprintln!("alberta-serve: shut down");
}
