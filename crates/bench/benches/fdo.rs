//! FDO pipeline benchmarks: profile collection, profile-guided
//! recompilation, and the measurement run.

use alberta_fdo::{classifier_program, Distribution, FdoPipeline, InputGen};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_fdo(c: &mut Criterion) {
    let source = classifier_program(4, &[1, 4, 20, 48]);
    let pipeline = FdoPipeline::new(&source).expect("program compiles");
    let train = InputGen {
        len: 96,
        distribution: Distribution::SkewLow,
    }
    .generate(1);
    let eval = InputGen {
        len: 96,
        distribution: Distribution::Uniform,
    }
    .generate(2);

    let mut group = c.benchmark_group("fdo");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("baseline_measure", |b| {
        b.iter(|| black_box(pipeline.measure_baseline(&eval).expect("runs").cycles))
    });
    group.bench_function("collect_profile", |b| {
        b.iter(|| {
            black_box(
                pipeline
                    .collect_profile(std::slice::from_ref(&train))
                    .expect("runs")
                    .executed_ops(),
            )
        })
    });
    group.bench_function("full_fdo_cycle", |b| {
        b.iter(|| {
            black_box(
                pipeline
                    .measure_fdo(std::slice::from_ref(&train), &eval)
                    .expect("runs")
                    .cycles,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fdo);
criterion_main!(benches);
