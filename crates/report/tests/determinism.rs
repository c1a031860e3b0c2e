//! The acceptance criterion of the observability layer, as a test: a
//! Test-scale sweep run serially and under `--jobs 4` must produce the
//! same bytes — the canonical `--out` report and every file of a
//! `--trace-dir` directory, the latter built by the same
//! [`trace_directory`] call `bench-report` makes. CI re-checks the same
//! property on the binary's artifacts with `cmp` and `diff -r`; this
//! test catches it earlier and without the binary in the loop.

use alberta_core::{ExecPolicy, Suite};
use alberta_report::{trace_directory, SuiteReport};
use alberta_workloads::Scale;
use std::collections::BTreeMap;

/// What `bench-report test --trace-dir DIR` writes without
/// `--telemetry`: the `--out` bytes and the directory's files by name.
fn artifacts(exec: ExecPolicy) -> (String, BTreeMap<String, String>) {
    let results = Suite::new(Scale::Test)
        .with_exec(exec)
        .characterize_all_resilient_metered();
    let mut report = SuiteReport::from_resilient(Scale::Test, &results);
    report.strip_telemetry();
    let files = trace_directory(&report, &results, false).expect("virtual trace");
    (report.to_json(), files)
}

#[test]
fn serial_and_parallel_sweeps_serialize_identically() {
    let (out_s, files_s) = artifacts(ExecPolicy::serial());
    let (out_p, files_p) = artifacts(ExecPolicy::with_jobs(4));

    assert!(
        out_s == out_p,
        "canonical reports diverged between serial and --jobs 4 sweeps"
    );
    assert!(
        files_s.keys().eq(files_p.keys()),
        "trace directories hold different files"
    );
    for (name, bytes) in &files_s {
        assert!(bytes == &files_p[name], "{name} diverged");
    }

    // The `--out` artifact is a valid, version-gated document.
    let report = SuiteReport::parse(&out_s).expect("canonical report parses");
    assert_eq!(
        report.benchmarks.len(),
        Suite::new(Scale::Test).benchmarks().len()
    );
    assert!(
        files_s.keys().any(|name| name.ends_with(".folded")),
        "sweep produced collapsed stacks"
    );

    // The stripped trace report still embeds hot paths — they come from
    // the exact call tree, not from telemetry — and every surviving
    // benchmark's hottest path carries real work.
    let report = SuiteReport::parse(&files_s["report.json"]).expect("trace report parses");
    for bench in &report.benchmarks {
        let hot = bench.hot_paths.as_ref().expect("hot paths embedded");
        if bench.survived() > 0 {
            assert!(!hot.is_empty(), "{}: no hot paths", bench.short_name);
            assert!(hot[0].exclusive > 0, "{}: empty hot path", bench.short_name);
            assert!(
                hot.windows(2).all(|w| w[0].exclusive >= w[1].exclusive),
                "{}: hot paths not sorted",
                bench.short_name
            );
        }
    }
}
