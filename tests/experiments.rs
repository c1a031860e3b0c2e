//! Shape assertions for the reproduced experiments: the qualitative
//! claims of the paper's Section V must hold in our reproduction at test
//! scale. These tests pin the *shape* of Table II and Figures 1–2 (who
//! varies more, where the summarization inflates), not absolute numbers.
//! They sweep once and read everything from the sweep's report, as the
//! rendering binaries do. The same serial sweep must also reproduce the
//! committed `BENCH_test.json` and `MEM_test.json` byte for byte, and it
//! is the reference a threads sweep must match in every artifact.

use alberta::core::specdata;
use alberta::core::{ExecPolicy, Suite};
use alberta::report::{
    trace_directory, view, BenchmarkReport, MemoryDocument, StatusKind, SuiteReport, SummaryRecord,
};
use alberta::workloads::Scale;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// What `bench-report test --out … --trace-dir …` writes without
/// `--telemetry`: the canonical report, telemetry stripped, and the
/// trace directory's files by name, built by the same
/// [`trace_directory`] call.
struct Artifacts {
    report: SuiteReport,
    files: BTreeMap<String, String>,
}

fn sweep(exec: ExecPolicy) -> Artifacts {
    let results = Suite::new(Scale::Test)
        .with_exec(exec)
        .characterize_all_resilient_metered();
    let mut report = SuiteReport::from_resilient(Scale::Test, &results);
    report.strip_telemetry();
    let files = trace_directory(&report, &results, false).expect("virtual trace");
    Artifacts { report, files }
}

/// Sweeps the whole suite serially once; shared across the assertions.
/// Every run must come back `ok`.
fn serial() -> &'static Artifacts {
    static SERIAL: OnceLock<Artifacts> = OnceLock::new();
    SERIAL.get_or_init(|| {
        let serial = sweep(ExecPolicy::serial());
        for b in &serial.report.benchmarks {
            for run in &b.runs {
                assert_eq!(
                    run.status,
                    StatusKind::Ok,
                    "{}/{}",
                    b.short_name,
                    run.workload
                );
            }
        }
        serial
    })
}

fn suite_report() -> &'static SuiteReport {
    &serial().report
}

fn benchmark(name: &str) -> &'static BenchmarkReport {
    suite_report()
        .benchmark(name)
        .unwrap_or_else(|| panic!("{name} is in the suite"))
}

fn summary(name: &str) -> &'static SummaryRecord {
    benchmark(name).summary.as_ref().expect("runs survived")
}

/// Fails at the first line where `actual` departs from `reference`, the
/// committed golden or the serial sweep's artifact `name`, so a moved
/// byte reads as one line rather than two dumps of the whole document.
fn assert_same(name: &str, reference: &str, actual: &str) {
    if reference == actual {
        return;
    }
    let (r, a) = (reference.lines(), actual.lines());
    match r.zip(a).enumerate().find(|(_, (r, a))| r != a) {
        Some((i, (r, a))) => panic!("{name} line {}: reference {r:?}, sweep {a:?}", i + 1),
        None => panic!(
            "{name}: reference has {} bytes, the sweep {}",
            reference.len(),
            actual.len()
        ),
    }
}

/// The gate CI's report job applies with `cmp`: the canonical report
/// and the memory document built from it equal the committed goldens
/// byte for byte.
#[test]
fn sweep_reproduces_the_committed_goldens() {
    let report = suite_report();
    assert_same(
        "BENCH_test.json",
        include_str!("../BENCH_test.json"),
        &report.to_json(),
    );
    assert_same(
        "MEM_test.json",
        include_str!("../MEM_test.json"),
        &MemoryDocument::from_report(report).to_json(),
    );
}

/// Parallel execution is bit-identical to serial: a sweep on four
/// worker threads writes the serial sweep's bytes, in the canonical
/// report and in every file of the trace directory — what CI's `cmp`
/// and `diff -r` check on `bench-report`'s artifacts. With the golden
/// gate above, the threads sweep reproduces the goldens too.
#[test]
fn threads_sweep_matches_the_serial_reference() {
    let threads = sweep(ExecPolicy::with_jobs(4));
    let serial = serial();
    assert_same(
        "the serial report",
        &serial.report.to_json(),
        &threads.report.to_json(),
    );
    assert!(
        serial.files.keys().eq(threads.files.keys()),
        "trace directories hold different files"
    );
    for (name, bytes) in &serial.files {
        assert_same(name, bytes, &threads.files[name]);
    }

    // The directories compared are not vacuous: they hold collapsed
    // stacks, and the trace report embeds hot paths — from the exact
    // call tree, not from telemetry — whose hottest carries real work.
    assert!(
        serial.files.keys().any(|name| name.ends_with(".folded")),
        "sweep produced collapsed stacks"
    );
    let report = SuiteReport::parse(&serial.files["report.json"]).expect("trace report parses");
    for bench in &report.benchmarks {
        let hot = bench.hot_paths.as_ref().expect("hot paths embedded");
        assert!(!hot.is_empty(), "{}: no hot paths", bench.short_name);
        assert!(hot[0].exclusive > 0, "{}: empty hot path", bench.short_name);
        assert!(
            hot.windows(2).all(|w| w[0].exclusive >= w[1].exclusive),
            "{}: hot paths not sorted",
            bench.short_name
        );
    }
}

#[test]
fn every_table_ii_benchmark_characterizes() {
    let report = suite_report();
    assert_eq!(report.benchmarks.len(), 15);
    for b in &report.benchmarks {
        let name = &b.short_name;
        let s = summary(name);
        assert!(b.survived() >= 8, "{name} has too few workloads");
        assert!(s.mu_g_v >= 1.0, "{name}");
        assert!(s.mu_g_m > 0.0, "{name}");
        assert!(
            s.refrate_cycles.expect("refrate run survived") > 0.0,
            "{name}"
        );
        for run in &b.runs {
            let measures = run.measures.as_ref().expect("ok runs carry measures");
            let sum: f64 = measures.ratios.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name}/{}", run.workload);
        }
    }
}

#[test]
fn workload_counts_mirror_the_paper() {
    // Our sets are train + refrate + the Alberta workloads whose counts
    // follow the paper's Section IV (gcc 19, lbm 30, leela 9, …).
    let expect = [
        ("gcc", 21),
        ("mcf", 9),
        ("lbm", 32),
        ("leela", 11),
        ("deepsjeng", 11),
        ("exchange2", 12),
        ("omnetpp", 12),
        ("xalancbmk", 10),
        ("wrf", 18),
        ("nab", 13),
    ];
    for (name, count) in expect {
        assert_eq!(benchmark(name).survived(), count, "{name}");
    }
}

/// The paper's Section V-B caveat: benchmarks whose bad-speculation mean
/// is near zero (lbm, cactuBSSN) get an inflated μg(V) that "does not
/// appear to reflect the variability in the behaviour".
#[test]
fn tiny_bad_speculation_means_inflate_mu_g_v() {
    for name in ["lbm", "cactuBSSN"] {
        let s = summary(name);
        assert!(
            s.bad_speculation.geo_mean < 0.03,
            "{name} s mean {}",
            s.bad_speculation.geo_mean
        );
    }
    // Their μg(V) exceeds the suite median — inflated exactly as the
    // paper warns.
    let mut all: Vec<f64> = suite_report()
        .benchmarks
        .iter()
        .map(|b| summary(&b.short_name).mu_g_v)
        .collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = all[all.len() / 2];
    assert!(summary("lbm").mu_g_v >= median, "lbm");
    assert!(summary("cactuBSSN").mu_g_v >= median, "cactuBSSN");
}

/// Figure 2's contrast: xz's method coverage swings hard with the
/// workload (match finder vs entropy coder), deepsjeng's does not.
#[test]
fn xz_method_coverage_varies_more_than_deepsjeng() {
    let max_range = |name: &str| -> f64 {
        view::fig2_series(benchmark(name))
            .expect("runs survived")
            .method_ranges()
            .into_iter()
            .map(|(_, r)| r)
            .fold(0.0, f64::max)
    };
    let xz = max_range("xz");
    let deepsjeng = max_range("deepsjeng");
    assert!(
        xz > deepsjeng * 2.0,
        "xz range {xz:.1}% vs deepsjeng {deepsjeng:.1}%"
    );
}

/// Figure 1 exists for any benchmark; the two panels the paper prints
/// both render with full-width stacks.
#[test]
fn figure_one_series_render() {
    for name in ["xalancbmk", "xz"] {
        let series = view::fig1_series(benchmark(name)).expect("runs survived");
        assert_eq!(series.stacks.len(), benchmark(name).survived());
        assert!(series.visual_variation() > 0.0, "{name} is not constant");
    }
}

/// Memory-bound vs compute-bound split: the discrete-event simulator and
/// the XML transformer live in memory; the ray tracer and Sudoku solver
/// live in the core. (Matches the paper's b column ordering for these.)
#[test]
fn backend_bound_ordering_matches_algorithm_class() {
    for memory_bound in ["omnetpp", "xalancbmk", "lbm"] {
        for compute_bound in ["povray", "exchange2", "leela"] {
            assert!(
                summary(memory_bound).back_end.geo_mean > summary(compute_bound).back_end.geo_mean,
                "{memory_bound} vs {compute_bound}"
            );
        }
    }
}

/// Search/decision codes speculate hardest: leela tops bad speculation in
/// the paper (27.6%) and here.
#[test]
fn game_engines_have_highest_bad_speculation() {
    let leela = summary("leela").bad_speculation.geo_mean;
    for stencil in ["lbm", "cactuBSSN", "wrf", "parest", "povray", "nab"] {
        assert!(
            leela > summary(stencil).bad_speculation.geo_mean,
            "leela vs {stencil}"
        );
    }
}

/// Table I's published data: the 2017 suite is slower on average than
/// the 2006 suite on the same machine (517 s vs 405 s).
#[test]
fn table_one_averages_match_the_paper() {
    let avg = |sel: fn(&specdata::Table1Row) -> Option<f64>| -> f64 {
        let v: Vec<f64> = specdata::TABLE1.iter().filter_map(sel).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let avg2017 = avg(|r| r.time2017);
    let avg2006 = avg(|r| r.time2006);
    assert!((avg2017 - 517.0).abs() < 1.0, "{avg2017}");
    assert!((avg2006 - 405.0).abs() < 1.0, "{avg2006}");
    assert!(avg2017 > avg2006);
}

/// The published Table II data reproduces its own μg(V) from the printed
/// per-category μg/σg, and the prose claims hold within it (xalanc > xz,
/// leela minimal, lbm maximal).
#[test]
fn published_table_ii_is_internally_consistent() {
    let xalanc = specdata::paper_row("xalancbmk").expect("row exists");
    let xz = specdata::paper_row("xz").expect("row exists");
    assert!(xalanc.mu_g_v > xz.mu_g_v);
    let max = specdata::TABLE2
        .iter()
        .max_by(|a, b| a.mu_g_v.partial_cmp(&b.mu_g_v).expect("finite"))
        .expect("non-empty");
    assert_eq!(max.benchmark, "lbm");
    let min = specdata::TABLE2
        .iter()
        .min_by(|a, b| a.mu_g_v.partial_cmp(&b.mu_g_v).expect("finite"))
        .expect("non-empty");
    assert_eq!(min.benchmark, "leela");
}
