//! Microbenchmarks of the substrate layers: branch predictors, cache
//! hierarchy, the geometric statistics, the workload generators, the
//! search kernels of the two largest mini-benchmarks, and the profiler
//! hooks.

use alberta_benchmarks::minideepsjeng::{self, Board};
use alberta_benchmarks::minileela::{self, Color, GoBoard};
use alberta_core::sampling::pilot_config;
use alberta_core::PhaseSampling;
use alberta_profile::{Profiler, SampleConfig};
use alberta_stats::variation::TopDownRatios;
use alberta_stats::TopDownSummary;
use alberta_uarch::{Cache, CacheConfig, MemoryHierarchy, PredictorKind};
use alberta_workloads::{chess, compress, csrc, flow, sudoku, xmlgen, Scale};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn tune(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
}

fn bench_predictors(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictor");
    tune(&mut group);
    for kind in [
        PredictorKind::Bimodal { bits: 14 },
        PredictorKind::Gshare { bits: 14 },
        PredictorKind::Tournament { bits: 14 },
    ] {
        let mut p = kind.build();
        group.bench_function(p.name(), |b| {
            b.iter(|| {
                let mut wrong = 0u32;
                for i in 0..100_000u64 {
                    let taken = (i / 3) % 5 != 0;
                    if !p.observe((i % 97) as u32, taken) {
                        wrong += 1;
                    }
                }
                black_box(wrong)
            })
        });
    }
    group.finish();
}

fn bench_caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    tune(&mut group);
    group.bench_function("l1_sequential", |b| {
        let mut cache = Cache::new(CacheConfig::l1d());
        b.iter(|| {
            for i in 0..100_000u64 {
                cache.access((i * 8) % (1 << 14));
            }
            black_box(cache.stats().hits)
        })
    });
    group.bench_function("hierarchy_random", |b| {
        let mut h = MemoryHierarchy::new();
        b.iter(|| {
            let mut addr = 0xDEADu64;
            for _ in 0..100_000 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.access(addr % (1 << 26));
            }
            black_box(h.l2_stats().misses)
        })
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    tune(&mut group);
    let runs: Vec<TopDownRatios> = (0..1000)
        .map(|i| {
            let t = (i as f64) / 1000.0;
            let f = 0.1 + 0.05 * t;
            let b = 0.4 - 0.1 * t;
            let s = 0.1 + 0.02 * t;
            TopDownRatios::new(f, b, s, 1.0 - f - b - s).expect("valid")
        })
        .collect();
    group.bench_function("topdown_summary_1000", |b| {
        b.iter(|| TopDownSummary::from_runs(black_box(&runs)).expect("non-empty"))
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generator");
    tune(&mut group);
    group.bench_function("mcf_city_schedule", |b| {
        let gen = flow::FlowGen::standard(Scale::Test);
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(gen.generate(seed).arcs.len())
        })
    });
    group.bench_function("gcc_source", |b| {
        let gen = csrc::CSourceGen::standard(Scale::Test);
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(gen.generate(seed).source.len())
        })
    });
    group.bench_function("xml_document", |b| {
        let gen = xmlgen::XmlGen::standard(Scale::Test);
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(gen.generate(seed).len())
        })
    });
    group.bench_function("sudoku_puzzle", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(sudoku::generate_puzzle(seed, 30).clue_count())
        })
    });
    group.bench_function("chess_workload", |b| {
        let gen = chess::ChessGen::standard(Scale::Test);
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(gen.generate(seed).positions.len())
        })
    });
    group.bench_function("xz_mixed_data", |b| {
        let gen = compress::CompressGen {
            size: 64 * 1024,
            kind: compress::DataKind::Mixed {
                noise_fraction: 0.3,
            },
            dict_bytes: 16 * 1024,
        };
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(gen.generate(seed).data.len())
        })
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    tune(&mut group);
    // 64 scrambled positions, 10 to 49 random plies from the start.
    let positions: Vec<Board> = (0..64u64)
        .map(|seed| {
            Board::from_spec(&chess::PositionSpec {
                seed,
                random_moves: 10 + (seed % 40) as u32,
                depth: 1,
            })
        })
        .collect();
    group.bench_function("deepsjeng_legal_moves", |b| {
        let mut boards = positions.clone();
        b.iter(|| {
            let mut moves = 0;
            for board in boards.iter_mut() {
                moves += board.legal_moves().len();
            }
            black_box(moves)
        })
    });
    // Depth-3 searches of eight scrambled positions: evaluation, move
    // ordering and the piece scan under the default profiler.
    let searches: Vec<chess::PositionSpec> = (0..8u64)
        .map(|seed| chess::PositionSpec {
            seed,
            random_moves: 10 + (seed * 5) as u32,
            depth: 3,
        })
        .collect();
    group.bench_function("deepsjeng_search", |b| {
        b.iter(|| {
            let mut p = Profiler::default();
            let nodes: u64 = searches
                .iter()
                .map(|spec| minideepsjeng::analyze(spec, &mut p).1)
                .sum();
            black_box((nodes, p.finish().totals.retired_ops))
        })
    });
    // A 13×13 board a quarter filled by a seeded random prefix.
    let mut board = GoBoard::new(13);
    let mut rng = 0x5EEDu64;
    let mut to_move = Color::Black;
    for _ in 0..40 {
        let moves = board.legal_moves(to_move);
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let m = moves[(rng >> 33) as usize % moves.len()];
        board.play(m % 13, m / 13, to_move);
        to_move = to_move.other();
    }
    group.bench_function("leela_playout", |b| {
        let mut p = Profiler::default();
        let mut rng = 42u64;
        b.iter(|| black_box(minileela::random_playout(&board, to_move, &mut rng, &mut p)))
    });
    group.finish();
}

fn bench_profiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiler");
    tune(&mut group);
    for (name, sampling) in [
        ("dense", SampleConfig::default()),
        ("sparse", SampleConfig::sparse()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut p = Profiler::new(sampling);
                let f = p.register_function("kernel", 512);
                p.enter(f);
                for i in 0..100_000u64 {
                    p.branch((i % 31) as u32, i % 3 == 0);
                    p.load(i * 64 % (1 << 22));
                    p.retire(2);
                }
                p.exit();
                black_box(p.finish().totals.retired_ops)
            })
        });
    }
    // The pilot pass's configuration over a nested, retire-heavy stream
    // shaped like deepsjeng's evaluation: per rank one load and a few
    // two-op retires. The pilot slices intervals and traces almost
    // nothing, so this times the checkpoint compare and the deferred
    // scope credit.
    let pilot = pilot_config(SampleConfig::default(), &PhaseSampling::default());
    group.bench_function("pilot", |b| {
        b.iter(|| {
            let mut p = Profiler::new(pilot);
            let search = p.register_function("search", 2600);
            let evaluate = p.register_function("evaluate", 1400);
            p.enter(search);
            for i in 0..12_500u64 {
                p.enter(evaluate);
                for rank in 0..8 {
                    p.load(0x6000_0000 + rank * 16);
                    for _ in 0..(i + rank) % 4 {
                        p.retire(2);
                    }
                }
                p.exit();
            }
            p.exit();
            black_box(p.finish().intervals.len())
        })
    });
    // Loads scattered over 1 GiB: nearly every access changes page, so
    // this times the footprint's page lookup.
    group.bench_function("random_pages", |b| {
        b.iter(|| {
            let mut p = Profiler::default();
            let f = p.register_function("kernel", 512);
            p.enter(f);
            let mut addr = 0xDEADu64;
            for _ in 0..100_000 {
                addr = addr
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                p.load((addr >> 16) % (1 << 30));
            }
            p.exit();
            black_box(p.finish().footprint.pages)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_predictors,
    bench_caches,
    bench_stats,
    bench_generators,
    bench_kernels,
    bench_profiler
);
criterion_main!(benches);
