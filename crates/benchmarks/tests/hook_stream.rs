//! Pins the hook stream of every Test-scale benchmark's `train` workload.
//!
//! The hook stream — which profiler hooks a benchmark calls, in what
//! order, with what arguments and how many ops retire between them — is
//! the contract every golden rests on. A change that moves ops from one
//! hook to another can leave the canonical reports byte-identical, and
//! the sampled reports are only compared across execution policies of
//! one build, so nothing else catches it. This test records each run
//! with fixed-work intervals and an undecimated trace and compares the
//! event count, the totals, every interval's end and a hash of the
//! captured events with recorded constants.

use alberta_benchmarks::suite;
use alberta_profile::{Event, Profile, Profiler, SampleConfig};
use alberta_workloads::Scale;

/// Interval length of the pinned runs, in retired ops.
const INTERVAL_WORK: u64 = 4096;

/// What one pinned run recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    benchmark: &'static str,
    events: u64,
    /// Retired ops, branches, taken branches, loads, stores, calls.
    totals: [u64; 6],
    intervals: usize,
    /// FNV-1a over every interval's `end_ops`.
    interval_ends: u64,
    trace_len: usize,
    /// FNV-1a over the captured events in trace order.
    trace: u64,
}

/// Recorded at commit `233cfbc`, before the profiler's checkpoint
/// compare and deepsjeng's incremental evaluation.
const PINS: [Pin; 15] = [
    Pin {
        benchmark: "502.gcc_r",
        events: 1056,
        totals: [2687, 22, 2, 141, 67, 8],
        intervals: 1,
        interval_ends: 6735794780327794188,
        trace_len: 246,
        trace: 3464150857436083623,
    },
    Pin {
        benchmark: "505.mcf_r",
        events: 84083,
        totals: [104650, 34990, 16493, 25281, 9302, 182],
        intervals: 26,
        interval_ends: 3816215332281203551,
        trace_len: 69937,
        trace: 2783698548617389457,
    },
    Pin {
        benchmark: "507.cactuBSSN_r",
        events: 75196,
        totals: [396160, 0, 0, 23328, 16000, 6],
        intervals: 97,
        interval_ends: 7606892247754070944,
        trace_len: 39340,
        trace: 3232567501184784133,
    },
    Pin {
        benchmark: "510.parest_r",
        events: 11748,
        totals: [99468, 140, 12, 7000, 300, 168],
        intervals: 25,
        interval_ends: 15009842911938873589,
        trace_len: 7776,
        trace: 10277454202800436005,
    },
    Pin {
        benchmark: "511.povray_r",
        events: 31133,
        totals: [104182, 1597, 820, 7745, 1536, 3891],
        intervals: 26,
        interval_ends: 9953639647161148881,
        trace_len: 18660,
        trace: 18349102602565766034,
    },
    Pin {
        benchmark: "519.lbm_r",
        events: 80890,
        totals: [946592, 13824, 5088, 31296, 17872, 13],
        intervals: 232,
        interval_ends: 13474276901665316644,
        trace_len: 63018,
        trace: 10352896369350699874,
    },
    Pin {
        benchmark: "520.omnetpp_r",
        events: 17282,
        totals: [21874, 1982, 870, 1982, 1982, 3964],
        intervals: 6,
        interval_ends: 9202937651268726173,
        trace_len: 13874,
        trace: 3135407643386432037,
    },
    Pin {
        benchmark: "521.wrf_r",
        events: 9416,
        totals: [100352, 0, 0, 3136, 3136, 4],
        intervals: 25,
        interval_ends: 7727041409335931005,
        trace_len: 6280,
        trace: 12433924080622531685,
    },
    Pin {
        benchmark: "523.xalancbmk_r",
        events: 2059,
        totals: [3772, 467, 220, 693, 211, 13],
        intervals: 1,
        interval_ends: 1331731838763327383,
        trace_len: 1397,
        trace: 15362413715676093192,
    },
    Pin {
        benchmark: "526.blender_r",
        events: 1838,
        totals: [7737, 667, 221, 154, 94, 98],
        intervals: 2,
        interval_ends: 1625614594315523394,
        trace_len: 1111,
        trace: 9196341568537557884,
    },
    Pin {
        benchmark: "531.deepsjeng_r",
        events: 696082,
        totals: [1535585, 26926, 8165, 238771, 23058, 43261],
        intervals: 375,
        interval_ends: 1067688059697705554,
        trace_len: 375277,
        trace: 16420182416286965095,
    },
    Pin {
        benchmark: "541.leela_r",
        events: 613680,
        totals: [1032690, 255009, 59078, 203012, 51306, 518],
        intervals: 253,
        interval_ends: 2261238279570146229,
        trace_len: 510363,
        trace: 5987658894363898382,
    },
    Pin {
        benchmark: "544.nab_r",
        events: 5512,
        totals: [39426, 1312, 540, 1540, 326, 22],
        intervals: 10,
        interval_ends: 13634964647933007479,
        trace_len: 3222,
        trace: 16464835447044495446,
    },
    Pin {
        benchmark: "548.exchange2_r",
        events: 178248,
        totals: [293232, 102527, 14276, 8826, 3220, 14164],
        intervals: 72,
        interval_ends: 5768489236620324916,
        trace_len: 142901,
        trace: 1543629071884323982,
    },
    Pin {
        benchmark: "557.xz_r",
        events: 583328,
        totals: [660742, 121436, 71750, 347512, 32764, 8360],
        intervals: 162,
        interval_ends: 8324067205251990008,
        trace_len: 518432,
        trace: 17709005795193708673,
    },
];

fn fnv1a(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn pin(benchmark: &'static str, events: u64, profile: &Profile) -> Pin {
    let t = profile.totals;
    let mut interval_ends = FNV_OFFSET;
    for interval in &profile.intervals {
        fnv1a(&mut interval_ends, interval.end_ops);
    }
    let mut trace = FNV_OFFSET;
    for event in profile.chunks.events() {
        let words: &[u64] = match event {
            Event::Branch { site, taken } => &[1, u64::from(site), u64::from(taken)],
            Event::Mem { addr } => &[2, addr],
            Event::Call { callee } => &[3, u64::from(callee.0)],
            Event::Return => &[4],
        };
        for &word in words {
            fnv1a(&mut trace, word);
        }
    }
    Pin {
        benchmark,
        events,
        totals: [
            t.retired_ops,
            t.branches,
            t.taken_branches,
            t.loads,
            t.stores,
            t.calls,
        ],
        intervals: profile.intervals.len(),
        interval_ends,
        trace_len: profile.trace.len(),
        trace,
    }
}

#[test]
fn train_hook_streams_match_the_recorded_pins() {
    let sampling = SampleConfig {
        trace_capacity: usize::MAX,
        ..SampleConfig::default().with_interval_work(INTERVAL_WORK)
    };
    let mut actual = Vec::new();
    for benchmark in suite(Scale::Test) {
        let mut profiler = Profiler::new(sampling);
        benchmark
            .run("train", &mut profiler)
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name()));
        let events = profiler.event_count();
        let profile = profiler.finish();
        assert_eq!(profile.trace.decimations(), 0, "{}", benchmark.name());
        actual.push(pin(benchmark.name(), events, &profile));
    }
    let table: String = actual.iter().map(|p| format!("    {p:?},\n")).collect();
    assert_eq!(actual, PINS, "actual pins:\n{table}");
}
