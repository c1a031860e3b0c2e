//! Shape assertions for the reproduced experiments: the qualitative
//! claims of the paper's Section V must hold in our reproduction at test
//! scale. These tests pin the *shape* of Table II and Figures 1–2 (who
//! varies more, where the summarization inflates), not absolute numbers.
//! They sweep once and read everything from the sweep's report, as the
//! rendering binaries do. The same sweep must also reproduce the committed
//! `BENCH_test.json` and `MEM_test.json` byte for byte.

use alberta::core::specdata;
use alberta::core::Suite;
use alberta::report::{
    view, BenchmarkReport, MemoryDocument, StatusKind, SuiteReport, SummaryRecord,
};
use alberta::workloads::Scale;
use std::sync::OnceLock;

/// Sweeps the whole suite once; shared across the assertions. Every run
/// must come back `ok`.
fn suite_report() -> &'static SuiteReport {
    static REPORT: OnceLock<SuiteReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let results = Suite::new(Scale::Test).characterize_all_resilient_metered();
        let report = SuiteReport::from_resilient(Scale::Test, &results);
        for b in &report.benchmarks {
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
        report
    })
}

fn benchmark(name: &str) -> &'static BenchmarkReport {
    suite_report()
        .benchmark(name)
        .unwrap_or_else(|| panic!("{name} is in the suite"))
}

fn summary(name: &str) -> &'static SummaryRecord {
    benchmark(name).summary.as_ref().expect("runs survived")
}

/// Fails at the first line where `actual` departs from the committed
/// golden `name`, so a moved byte reads as one line rather than two dumps
/// of the whole document.
fn assert_golden(name: &str, golden: &str, actual: &str) {
    if golden == actual {
        return;
    }
    let (g, a) = (golden.lines(), actual.lines());
    match g.zip(a).enumerate().find(|(_, (g, a))| g != a) {
        Some((i, (g, a))) => panic!("{name} line {}: golden {g:?}, sweep {a:?}", i + 1),
        None => panic!(
            "{name}: golden has {} bytes, the sweep {}",
            golden.len(),
            actual.len()
        ),
    }
}

/// The gate CI's report job applies with `cmp`: the canonical report
/// (telemetry stripped) and the memory document built from it equal the
/// committed goldens byte for byte, under whatever `ALBERTA_JOBS` selects.
#[test]
fn sweep_reproduces_the_committed_goldens() {
    let mut report = suite_report().clone();
    report.strip_telemetry();
    assert_golden(
        "BENCH_test.json",
        include_str!("../BENCH_test.json"),
        &report.to_json(),
    );
    assert_golden(
        "MEM_test.json",
        include_str!("../MEM_test.json"),
        &MemoryDocument::from_report(&report).to_json(),
    );
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
