//! Replay-engine microbenchmark: the scalar reference engine vs the
//! batched struct-of-arrays engine over the same synthetic trace, plus
//! the batched engine's per-kind kernels in isolation.
//!
//! The equivalence of the two engines is asserted by the shadow-model
//! tests in `crates/uarch/tests/replay.rs`; this file only times them.

use alberta_profile::{Profile, Profiler, SampleConfig};
use alberta_uarch::{MachineConfig, PredictorKind, ReplayState, TopDownModel};
use alberta_workloads::SeededRng;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

const EVENTS: usize = 1 << 18;

/// Builds a deterministic synthetic profile whose trace mirrors what the
/// mini-benchmarks actually produce: mostly-biased branches over a
/// modest site working set, memory accesses dominated by an L1-resident
/// hot set with streaming and cold tails, and occasional calls — with
/// the *interleaving* of kinds data-dependent, which is exactly the
/// pattern that defeats the host branch predictor in the scalar
/// engine's per-event `match`. `target_events` approximates the
/// retained trace length; the config retains every event (no dilution,
/// no decimation), so the trace is the full event stream.
fn synthetic_profile(target_events: usize) -> Profile {
    let config = SampleConfig {
        trace_capacity: (2 * target_events).next_power_of_two(),
        ..SampleConfig::default()
    };
    let mut prof = Profiler::new(config);
    let fns: Vec<_> = (0..32)
        .map(|i| prof.register_function(&format!("fn{i:02}"), 64 + 96 * i as u32))
        .collect();
    let mut rng = SeededRng::new(0x5eed);
    prof.enter(fns[0]);
    // Each loop iteration emits ~3.8 trace events on average, with the
    // exact kind sequence decided by the random stream.
    let iterations = target_events / 4;
    for i in 0..iterations {
        let r = rng.next_u64();
        // A loop-exit-style branch (heavily taken) over many sites.
        prof.branch((r % 509) as u32, !r.is_multiple_of(16));
        // Hot data: sequential fields of a record in a 4 KiB structure
        // (L1-resident, consecutive accesses share a line). The region
        // sits away from the streaming buffer so the combined working
        // set stays within L1 associativity, as a tuned kernel's would.
        let record = (0x10_0000 + (r % (1 << 12))) & !63;
        prof.load(record);
        prof.load(record + 8);
        prof.load(record + 24);
        if r & 3 != 0 {
            // A patterned data-dependent branch plus a streaming access
            // over a 16 KiB circular buffer.
            prof.branch((i % 131) as u32, i % 3 != 0);
            prof.load((i as u64 * 64) % (1 << 14));
        }
        if r & 31 == 0 {
            // Cold tail (~3% of iterations): scattered stores and far
            // loads that miss deep into the hierarchy.
            prof.store(r % (1 << 20));
            prof.load(0x4000_0000 + (r >> 32) % (1 << 14));
        }
        prof.retire(6);
        if r & 15 == 0 {
            let callee = fns[(r % 31 + 1) as usize];
            prof.enter(callee);
            prof.retire(2);
            prof.exit();
        }
    }
    prof.exit();
    prof.finish()
}

fn bench_replay(c: &mut Criterion) {
    let profile = synthetic_profile(EVENTS);
    // The fixture is the full event stream only if nothing decimated.
    assert_eq!(
        profile.trace.decimations(),
        0,
        "replay fixture must not decimate"
    );
    assert!(
        profile.trace.len() >= EVENTS * 9 / 10,
        "replay fixture should be near-full, got {} events",
        profile.trace.len()
    );
    profile.validate().expect("replay fixture validates");
    let events = profile.chunks.events();
    let cfg = MachineConfig::default();
    let predictor = PredictorKind::Gshare { bits: 12 };
    let model = TopDownModel::new(cfg, predictor);
    let fn_base = model.code_layout(&profile);
    let probe_counts = model.probe_table(&profile);

    let mut group = c.benchmark_group("replay");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut state = ReplayState::new(&cfg, predictor);
            black_box(state.replay(&cfg, &profile, &events, &fn_base))
        })
    });

    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut state = ReplayState::new(&cfg, predictor);
            black_box(state.replay_batched(
                &profile.chunks,
                (0, profile.chunks.len()),
                &probe_counts,
                &fn_base,
            ))
        })
    });

    // Per-kind kernels in isolation, for attributing batched time.
    let slices = profile.chunks.kind_ranges(0, profile.chunks.len());
    group.bench_function("kernel_branches", |b| {
        b.iter(|| {
            let mut p = predictor.build();
            black_box(p.observe_batch(slices.branch_sites, slices.branch_takens))
        })
    });
    group.bench_function("kernel_memory", |b| {
        b.iter(|| {
            let mut h = alberta_uarch::MemoryHierarchy::with_configs(
                cfg.l1d,
                cfg.l2,
                cfg.l3,
                cfg.dtlb_entries,
                cfg.dram,
            );
            black_box(h.access_many(slices.mem_addrs))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
