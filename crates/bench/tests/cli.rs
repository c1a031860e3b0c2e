//! CLI contract tests for the bench binaries: exit codes must follow
//! the repo convention (0 success, 1 regression/gate failure, 2 usage
//! error) so CI pipelines can branch on them.

use alberta_report::{MemoryDocument, SuiteReport, SCHEMA_VERSION};
use alberta_workloads::Scale;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bench_diff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench-diff"))
}

fn empty_report(dir: &std::path::Path, name: &str) -> PathBuf {
    let report = SuiteReport {
        schema_version: SCHEMA_VERSION,
        scale: Scale::Test,
        benchmarks: Vec::new(),
    };
    let path = dir.join(name);
    alberta_report::save(&report, &path).expect("write report");
    path
}

/// `--threshold` must be validated before any file is touched: a
/// malformed value is a usage error (exit 2) even with nonexistent
/// report paths.
#[test]
fn bench_diff_rejects_malformed_thresholds_with_exit_2() {
    for bad in ["-5", "NaN", "inf", "-inf", "five"] {
        let status = bench_diff()
            .args(["a.json", "b.json", "--threshold", bad])
            .status()
            .expect("spawn bench-diff");
        assert_eq!(
            status.code(),
            Some(2),
            "--threshold {bad:?} must exit 2 (usage error)"
        );
    }
}

/// A missing threshold value is also a usage error, not a panic.
#[test]
fn bench_diff_rejects_missing_threshold_value_with_exit_2() {
    let status = bench_diff()
        .args(["a.json", "b.json", "--threshold"])
        .status()
        .expect("spawn bench-diff");
    assert_eq!(status.code(), Some(2));
}

/// Valid thresholds proceed to the diff: comparing a report against
/// itself finds no regression and exits 0.
#[test]
fn bench_diff_accepts_valid_threshold_and_clean_diff_exits_0() {
    let dir = std::env::temp_dir().join(format!("bench-diff-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let report = empty_report(&dir, "same.json");
    let status = bench_diff()
        .args([&report, &report])
        .args(["--threshold", "2.5"])
        .status()
        .expect("spawn bench-diff");
    assert_eq!(status.code(), Some(0), "identical reports must not regress");
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench-report"))
}

/// Worker-count and executor flags are validated before any sweep
/// starts: `--jobs 0` used to silently collapse to serial and must now
/// be a usage error, in every binary that takes the flag.
#[test]
fn bench_report_rejects_bad_exec_flags_with_exit_2() {
    let cases: &[&[&str]] = &[
        &["test", "--jobs", "0"],
        &["test", "--jobs", "many"],
        &["test", "--exec", "fibers"],
        &["test", "--exec", "serial", "--jobs", "4"],
        &["test", "--chaos", "0"],
        &["test", "--chaos", "some"],
        &["test", "--chaos-seed", "7"],
    ];
    for args in cases {
        let status = bench_report()
            .args(*args)
            .status()
            .expect("spawn bench-report");
        assert_eq!(status.code(), Some(2), "args {args:?} must exit 2");
    }
}

/// A malformed `ALBERTA_JOBS` environment is reported with the
/// offending value as a usage error, not a panic mid-sweep.
#[test]
fn bench_report_rejects_malformed_jobs_env_with_exit_2() {
    for bad in ["0", "-3", "lots"] {
        let output = bench_report()
            .args(["test"])
            .env("ALBERTA_JOBS", bad)
            .output()
            .expect("spawn bench-report");
        assert_eq!(
            output.status.code(),
            Some(2),
            "ALBERTA_JOBS={bad:?} must exit 2"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(bad),
            "the error must name the offending value, got: {stderr}"
        );
    }
}

/// Wrong operand counts are usage errors.
#[test]
fn bench_diff_rejects_wrong_operand_count_with_exit_2() {
    for operands in [
        &[][..],
        &["only.json"][..],
        &["a.json", "b.json", "c.json"][..],
    ] {
        let status = bench_diff()
            .args(operands)
            .status()
            .expect("spawn bench-diff");
        assert_eq!(status.code(), Some(2), "operands {operands:?}");
    }
}

/// An unknown flag is a usage error, checked before any sweep starts: a
/// typo such as `--sampel`, or a flag a binary no longer has, used to be
/// skipped silently and cost a full sweep without the requested mode.
#[test]
fn unknown_flags_exit_2_before_any_sweep() {
    let report = env!("CARGO_BIN_EXE_bench-report");
    let cases: &[(&str, &[&str])] = &[
        (report, &["test", "--speed-only"]),
        (report, &["test", "--sampel"]),
    ];
    assert_unknown_flag(cases);
}

/// Asserts each invocation exits 2 and names the flag it rejected.
fn assert_unknown_flag(cases: &[(&str, &[&str])]) {
    for (bin, args) in cases {
        let output = Command::new(bin).args(*args).output().expect("spawn");
        assert_eq!(output.status.code(), Some(2), "{bin} {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unknown flag"),
            "{bin} {args:?} must name the flag, got: {stderr}"
        );
    }
}

/// Each binary checks the command line against its own flags only: a
/// flag that belongs to another binary is as unknown as a typo, and
/// is rejected before any work starts (sweep, socket or file).
#[test]
fn every_bin_rejects_a_flag_it_does_not_read() {
    let report = fixture();
    let report = report.to_str().expect("utf-8 path");
    let cases: &[(&str, &[&str])] = &[
        (
            env!("CARGO_BIN_EXE_bench-diff"),
            &[report, report, "--out", "nowhere.json"],
        ),
        (
            env!("CARGO_BIN_EXE_bench-diff"),
            &[report, report, "--lanes", "3", "--keep-going"],
        ),
        (env!("CARGO_BIN_EXE_bench-report"), &["test", "--curves"]),
        (
            env!("CARGO_BIN_EXE_bench-report"),
            &["test", "--out-dir", "x"],
        ),
        (env!("CARGO_BIN_EXE_table-mem"), &[report, "--l3-size", "1"]),
        (env!("CARGO_BIN_EXE_sample-eval"), &["test", "--top-k", "3"]),
        (env!("CARGO_BIN_EXE_fdo_eval"), &["--bogus-flag"]),
        (env!("CARGO_BIN_EXE_table1"), &[report, "--exec", "threads"]),
        (env!("CARGO_BIN_EXE_table2"), &[report, "--jobs", "2"]),
        (env!("CARGO_BIN_EXE_table2"), &[report, "--sample"]),
        (env!("CARGO_BIN_EXE_table2"), &[report, "--keep-going"]),
        (env!("CARGO_BIN_EXE_fig1"), &[report, "--jobs", "2"]),
        (env!("CARGO_BIN_EXE_fig2"), &[report, "--telemetry"]),
        // The address fails fast should the flag ever be skipped again:
        // nothing listens on port 1, and `nonsense` cannot be bound.
        (
            env!("CARGO_BIN_EXE_serve-metrics"),
            &["--addr", "127.0.0.1:1", "--shutdwon"],
        ),
        (
            env!("CARGO_BIN_EXE_storm"),
            &["test", "--addr", "127.0.0.1:1", "--sample"],
        ),
        (
            env!("CARGO_BIN_EXE_alberta-serve"),
            &["--listen", "nonsense", "--cache"],
        ),
    ];
    assert_unknown_flag(cases);
}

/// A seed is any integer, 0 included: `storm --seed 0` gets as far as
/// connecting (nothing listens on port 1), and the refused connection
/// is what it reports.
#[test]
fn storm_takes_seed_zero() {
    let output = Command::new(env!("CARGO_BIN_EXE_storm"))
        .args(["test", "--addr", "127.0.0.1:1", "--seed", "0"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("connect 127.0.0.1:1"), "{stderr}");
    assert!(!stderr.contains("--seed"), "{stderr}");
}

/// The daemon refuses a bad `ALBERTA_LOG` at start-up, naming the
/// accepted levels, before it listens: left up, it would panic at its
/// first log call, inside a connection handler.
#[test]
fn alberta_serve_refuses_a_bad_log_level_at_start_up() {
    let cache = std::env::temp_dir().join(format!("alberta-cli-log-{}", std::process::id()));
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_alberta-serve"))
        .args(["--listen", "127.0.0.1:0", "--cache-dir"])
        .arg(&cache)
        .env("ALBERTA_LOG", "verbose")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn alberta-serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.try_wait().expect("poll the daemon").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    if daemon.try_wait().expect("poll the daemon").is_none() {
        let _ = daemon.kill();
    }
    let output = daemon.wait_with_output().expect("reap the daemon");
    let _ = std::fs::remove_dir_all(&cache);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.code().is_some_and(|code| code != 0),
        "the daemon exits non-zero by itself, got {:?}",
        output.status
    );
    assert!(!stdout.contains("listening on"), "{stdout}");
    assert!(stderr.contains("off|error|warn|info|debug"), "{stderr}");
}

/// A binary that takes no operand rejects one, and a scale binary
/// rejects a second: stray words on a command line are mistakes.
#[test]
fn unexpected_operands_exit_2() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_fdo_eval"), &["test"]),
        (
            env!("CARGO_BIN_EXE_serve-metrics"),
            &["extra", "--addr", "127.0.0.1:1"],
        ),
        (
            env!("CARGO_BIN_EXE_alberta-serve"),
            &["extra", "--listen", "nonsense"],
        ),
        (env!("CARGO_BIN_EXE_bench-report"), &["test", "extra"]),
    ];
    for (bin, args) in cases {
        let output = Command::new(bin).args(*args).output().expect("spawn");
        assert_eq!(output.status.code(), Some(2), "{bin} {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unexpected operand"),
            "{bin} {args:?} must name the operand, got: {stderr}"
        );
    }
}

/// The committed two-benchmark report: `mcf` survives (one run `ok`,
/// one `degraded`), `xz` failed every run and has no summary.
fn fixture() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../report/tests/golden/two_bench.json"
    ))
}

fn render(bin: &str, report: &std::path::Path) -> std::process::Output {
    Command::new(bin).arg(report).output().expect("spawn")
}

/// The rendering binaries project a saved report: each exits 0 on one
/// with a lost benchmark, prints no Table II row for it, shows its
/// Table I refrate cell as `—`, notes the omitted figures, and writes a
/// memory row per surviving run.
#[test]
fn renderers_project_a_saved_report() {
    let report = fixture();
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_fig1"),
        env!("CARGO_BIN_EXE_fig2"),
    ] {
        let output = render(bin, &report);
        assert_eq!(output.status.code(), Some(0), "{bin}");
    }

    let dir = std::env::temp_dir().join(format!("table-mem-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = dir.join("mem.json");
    let output = Command::new(env!("CARGO_BIN_EXE_table-mem"))
        .arg(&report)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(0), "table-mem");
    let text = std::fs::read_to_string(&out).expect("memory document written");
    let document = MemoryDocument::parse(&text).expect("memory document parses");
    let saved = alberta_report::load(&report).expect("fixture loads");
    let survived: usize = saved.benchmarks.iter().map(|b| b.survived()).sum();
    let attempted: usize = saved.benchmarks.iter().map(|b| b.attempted()).sum();
    assert!(survived < attempted, "the fixture lost a run");
    assert_eq!(document.rows.len(), survived);
    std::fs::remove_dir_all(&dir).ok();

    let table2 = render(env!("CARGO_BIN_EXE_table2"), &report);
    let stdout = String::from_utf8(table2.stdout).expect("utf-8");
    let starts = |prefix: &str| stdout.lines().any(|l| l.trim_start().starts_with(prefix));
    assert!(starts("mcf"), "{stdout}");
    assert!(!starts("xz"), "xz has no summary and no row: {stdout}");
    let stderr = String::from_utf8_lossy(&table2.stderr);
    assert!(stderr.contains("xz: no surviving runs"), "{stderr}");

    let table1 = render(env!("CARGO_BIN_EXE_table1"), &report);
    let stdout = String::from_utf8(table1.stdout).expect("utf-8");
    let xz = stdout
        .lines()
        .find(|l| l.contains("557.xz_r"))
        .expect("xz row");
    assert!(xz.ends_with('—'), "{xz}");

    let fig1 = render(env!("CARGO_BIN_EXE_fig1"), &report);
    let stderr = String::from_utf8_lossy(&fig1.stderr);
    assert!(stderr.contains("xz: no surviving runs"), "{stderr}");
}

/// A report the renderers cannot read is a usage error that names the
/// path and the command that writes a report — so is the old
/// `table2 test` form, whose operand is now a path.
#[test]
fn renderers_reject_unreadable_reports_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("render-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let future = dir.join("future.json");
    let text = std::fs::read_to_string(fixture()).expect("read fixture");
    let text = text.replacen(
        &format!("\"schema_version\": {SCHEMA_VERSION}"),
        "\"schema_version\": 999",
        1,
    );
    assert!(text.contains("999"), "fixture carries a schema_version");
    std::fs::write(&future, text).expect("write report");
    let missing = dir.join("missing.json");
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_fig1"),
        env!("CARGO_BIN_EXE_fig2"),
        env!("CARGO_BIN_EXE_table-mem"),
    ] {
        for args in [
            vec![missing.to_str().expect("utf-8 path")],
            vec![future.to_str().expect("utf-8 path")],
            vec!["test"],
        ] {
            let output = Command::new(bin).args(&args).output().expect("spawn");
            assert_eq!(output.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains(args[0]) && stderr.contains("bench-report <scale> --out"),
                "{bin} {args:?} must name the path and the fix, got: {stderr}"
            );
        }
        let output = Command::new(bin).output().expect("spawn");
        assert_eq!(output.status.code(), Some(2), "{bin} without a report");
    }
    std::fs::remove_dir_all(&dir).ok();
}
