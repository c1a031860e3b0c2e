//! Shadow-model property tests: the batched struct-of-arrays replay
//! engine must be *output-identical* to the scalar reference engine —
//! not approximately, byte for byte in every [`ReplayCounts`] field —
//! on randomized traces, for every predictor, over full replays and
//! over arbitrary window/gap schedules sharing one warm state.
//!
//! This is the property the golden-report gate enforces end to end; the
//! shadow model pins it at the engine boundary so a divergence points
//! straight at the kernel that broke, not at a drifted report.

use alberta_profile::{Profile, Profiler, SampleConfig};
use alberta_uarch::{MachineConfig, PredictorKind, ReplayState, TopDownModel};
use proptest::prelude::*;

/// Builds a randomized profile: a few functions, then `steps` scripted
/// actions (call/return/branch/load/store/retire) driven by the drawn
/// byte stream. The trace capacity is kept large enough that nothing
/// decimates — windowing below needs stable event indices.
fn random_profile(script: &[u8]) -> Profile {
    let mut prof = Profiler::new(SampleConfig {
        trace_capacity: 1 << 16,
        ..SampleConfig::default()
    });
    let fns: Vec<_> = (0u32..6)
        .map(|i| prof.register_function(&format!("f{i}"), 64 + 997 * i))
        .collect();
    prof.enter(fns[0]);
    let mut depth = 1u32;
    for (i, &b) in script.iter().enumerate() {
        let x = i as u64;
        match b % 7 {
            0 => {
                prof.enter(fns[(b / 7) as usize % fns.len()]);
                depth += 1;
            }
            1 if depth > 1 => {
                prof.exit();
                depth -= 1;
            }
            2 | 3 => prof.branch((b as u32) % 61, (b / 4) % 3 != 0),
            // Spread far enough that the streams miss past the L2 into
            // the shared L3 and DRAM — the shadow property must cover
            // the full hierarchy, row-buffer outcomes included.
            4 => prof.load((x * 97 * 8191) % (1 << 26)),
            5 => prof.store(0x4000 + (x * 4099 * 127) % (1 << 27)),
            _ => prof.retire(1 + (b as u64 % 9)),
        }
    }
    while depth > 1 {
        prof.exit();
        depth -= 1;
    }
    prof.exit();
    prof.finish()
}

const PREDICTORS: [PredictorKind; 4] = [
    PredictorKind::StaticTaken,
    PredictorKind::Bimodal { bits: 8 },
    PredictorKind::Gshare { bits: 8 },
    PredictorKind::Tournament { bits: 8 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-trace replay: identical counts under every predictor.
    #[test]
    fn batched_replay_matches_scalar_on_full_traces(
        script in prop::collection::vec(any::<u8>(), 16..1500),
    ) {
        let profile = random_profile(&script);
        let cfg = MachineConfig::default();
        for predictor in PREDICTORS {
            let model = TopDownModel::new(cfg, predictor);
            let fn_base = model.code_layout(&profile);
            let probes = model.probe_table(&profile);
            let mut scalar = ReplayState::new(&cfg, predictor);
            let mut batched = ReplayState::new(&cfg, predictor);
            let want = scalar.replay(&cfg, &profile, &profile.chunks.events(), &fn_base);
            let got = batched.replay_batched(
                &profile.chunks,
                (0, profile.chunks.len()),
                &probes,
                &fn_base,
            );
            prop_assert_eq!(got, want, "{:?} diverged", predictor);
        }
    }

    /// Windowed replay with gaps: both engines step through the same
    /// randomized window schedule on one persistent state each — exactly
    /// how `estimate` consumes the engine, where stale predictor/cache
    /// state from earlier windows flows into later ones. Counts must
    /// match after *every* window, not just in aggregate.
    #[test]
    fn batched_replay_matches_scalar_across_window_schedules(
        script in prop::collection::vec(any::<u8>(), 64..1500),
        cuts in prop::collection::vec(any::<u16>(), 2..8),
    ) {
        let profile = random_profile(&script);
        let len = profile.chunks.len();
        // Sorted cut points -> alternating window/gap segments. (An empty
        // trace degenerates to empty windows, which must also agree.)
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
        bounds.push(0);
        bounds.push(len);
        bounds.sort_unstable();
        let cfg = MachineConfig::default();
        let predictor = PredictorKind::reference();
        let model = TopDownModel::new(cfg, predictor);
        let fn_base = model.code_layout(&profile);
        let probes = model.probe_table(&profile);
        let events = profile.chunks.events();
        let mut scalar = ReplayState::new(&cfg, predictor);
        let mut batched = ReplayState::new(&cfg, predictor);
        for (w, pair) in bounds.windows(2).enumerate() {
            let (start, end) = (pair[0], pair[1]);
            let want = scalar.replay(&cfg, &profile, &events[start..end], &fn_base);
            let got = batched.replay_batched(&profile.chunks, (start, end), &probes, &fn_base);
            prop_assert_eq!(got, want, "window {} ({start}..{end}) diverged", w);
        }
    }

    /// A working set that fits in the shared L3 reaches DRAM exactly
    /// once per distinct line — the cold miss — no matter how many
    /// passes stream over it: LRU can evict a resident set only under
    /// capacity or conflict pressure, and a contiguous range within
    /// capacity produces neither. The same count is what the exact
    /// footprint tracker reports, tying the two layers together.
    #[test]
    fn working_set_within_l3_capacity_has_only_cold_misses(
        lines in 1u64..4096,
        passes in 1u64..4,
        base in 0u64..(1 << 30),
    ) {
        let mut prof = Profiler::new(SampleConfig {
            trace_capacity: 1 << 15,
            ..SampleConfig::default()
        });
        let f = prof.register_function("ws", 64);
        prof.enter(f);
        let base_line = base & !63;
        for _ in 0..passes {
            for i in 0..lines {
                prof.load(base_line + i * 64);
                prof.retire(1);
            }
        }
        prof.exit();
        let profile = prof.finish();
        let cfg = MachineConfig::default();
        prop_assert!(lines * 64 <= cfg.l3.size_bytes, "working set must fit the L3");
        let predictor = PredictorKind::reference();
        let model = TopDownModel::new(cfg, predictor);
        let fn_base = model.code_layout(&profile);
        let mut scalar = ReplayState::new(&cfg, predictor);
        let counts = scalar.replay(&cfg, &profile, &profile.chunks.events(), &fn_base);
        prop_assert_eq!(counts.dram_accesses, lines, "one DRAM fill per cold line");
        prop_assert!(counts.row_hits <= counts.dram_accesses);
        prop_assert_eq!(profile.footprint.lines, lines);
    }
}
