//! CLI contract tests for the bench binaries: exit codes must follow
//! the repo convention (0 success, 1 regression/gate failure, 2 usage
//! error) so CI pipelines can branch on them.

use alberta_report::{SuiteReport, SCHEMA_VERSION};
use alberta_workloads::Scale;
use std::path::PathBuf;
use std::process::Command;

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
    let (report, timing) = (
        env!("CARGO_BIN_EXE_bench-report"),
        env!("CARGO_BIN_EXE_timing"),
    );
    let cases: &[(&str, &[&str])] = &[
        (report, &["test", "--speed-only"]),
        (report, &["test", "--sampel"]),
        (timing, &["--speed-only"]),
        (timing, &["--speed-out", "speed.json"]),
    ];
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
