//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **predictor choice** — does swapping the branch predictor change the
//!   Top-Down analysis cost (and, via the reported ratios, the Table II
//!   row)?
//! * **event sampling rate** — dense vs sparse profiling of the same
//!   benchmark run;
//! * **xz dictionary-vs-file size** — the paper's memoization/dictionary
//!   discovery, as a parameter sweep.

use alberta_benchmarks::minixz;
use alberta_core::{MachineConfig, PredictorKind, Profiler, SampleConfig, Suite, TopDownModel};
use alberta_workloads::compress::{CompressGen, DataKind};
use alberta_workloads::Scale;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn tune(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
}

/// Ablation (a): characterize xz under three predictors.
fn bench_predictor_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_predictor");
    tune(&mut group);
    for (name, kind) in [
        ("bimodal", PredictorKind::Bimodal { bits: 14 }),
        ("gshare", PredictorKind::Gshare { bits: 14 }),
        ("tournament", PredictorKind::Tournament { bits: 14 }),
    ] {
        let suite =
            Suite::new(Scale::Test).with_model(TopDownModel::new(MachineConfig::default(), kind));
        group.bench_function(name, |b| {
            b.iter(|| {
                let (r, _) = suite.characterize_resilient_metered("xz").expect("xz");
                assert!(r.is_complete(), "{:?}", r.statuses);
                let c = r.characterization.expect("every run survived");
                black_box(c.topdown.mu_g_v.to_bits())
            })
        });
    }
    group.finish();
}

/// Ablation (b): dense vs sparse event sampling for the same pipeline.
fn bench_sampling_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sampling");
    tune(&mut group);
    for (name, sampling) in [
        ("dense_1to1", SampleConfig::default()),
        ("sparse_1to4", SampleConfig::sparse()),
    ] {
        let suite = Suite::new(Scale::Test).with_sampling(sampling);
        group.bench_function(name, |b| {
            b.iter(|| {
                let (r, _) = suite
                    .characterize_resilient_metered("omnetpp")
                    .expect("omnetpp");
                assert!(r.is_complete(), "{:?}", r.statuses);
                let c = r.characterization.expect("every run survived");
                black_box(c.topdown.mu_g_v.to_bits())
            })
        });
    }
    group.finish();
}

/// Ablation (c): the xz dictionary sweep — compression cost as the file
/// size crosses the dictionary size (the paper's 557.xz_r discovery).
fn bench_dictionary_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_xz_dictionary");
    tune(&mut group);
    let dict = 16 * 1024;
    for mult in [1usize, 2, 4, 8] {
        let data = CompressGen {
            size: dict * mult,
            kind: DataKind::Mixed {
                noise_fraction: 0.2,
            },
            dict_bytes: dict,
        }
        .generate(7)
        .data;
        group.bench_with_input(
            BenchmarkId::new("file_over_dict", mult),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut p = Profiler::new(SampleConfig::sparse());
                    let packed = minixz::compress(data, dict, &mut p);
                    let _ = p.finish();
                    black_box(packed.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_predictor_ablation,
    bench_sampling_ablation,
    bench_dictionary_sweep
);
criterion_main!(benches);
