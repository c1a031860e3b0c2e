//! Table II benchmark: the cost of characterizing each mini-benchmark.
//!
//! One Criterion benchmark per Table II row. Each iteration runs the
//! benchmark's cheapest canonical workload (train) through the full
//! pipeline — instrumented execution, Top-Down analysis — which is the
//! unit of work a `bench-report` sweep repeats over every workload.

use alberta_core::{Profiler, SampleConfig, Suite, TopDownModel};
use alberta_workloads::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_table2_rows(c: &mut Criterion) {
    let suite = Suite::new(Scale::Test);
    let model = TopDownModel::reference();
    let mut group = c.benchmark_group("table2");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for benchmark in suite.benchmarks() {
        group.bench_function(benchmark.short_name(), |b| {
            b.iter(|| {
                let mut profiler = Profiler::new(SampleConfig::default());
                let out = benchmark
                    .run("train", &mut profiler)
                    .expect("train workload runs");
                let report = model.analyze(&profiler.finish());
                (out.checksum, report.cycles.to_bits())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2_rows);
criterion_main!(benches);
