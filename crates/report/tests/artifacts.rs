//! The paper's artifacts, built by `view` from reports.
//!
//! Most tests read the committed Test-scale golden, `BENCH_test.json`,
//! which CI keeps byte-identical to a fresh sweep, so they run no sweep
//! at all. The lost-run tests characterize one benchmark under an
//! injected fault and render the report `SuiteReport::from_resilient`
//! builds from it.

use alberta_core::{FaultKind, FaultPlan, Suite};
use alberta_report::view::{self, Fig1Series};
use alberta_report::{BenchmarkReport, SuiteReport};
use alberta_workloads::Scale;
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("../../../BENCH_test.json");

fn golden() -> &'static SuiteReport {
    static REPORT: OnceLock<SuiteReport> = OnceLock::new();
    REPORT.get_or_init(|| SuiteReport::parse(GOLDEN).expect("the golden parses"))
}

fn golden_benchmark(name: &str) -> &'static BenchmarkReport {
    golden().benchmark(name).expect("benchmark in the golden")
}

#[test]
fn fig1_bars_are_full_width_and_labelled() {
    let b = golden_benchmark("xalancbmk");
    let series = view::fig1_series(b).expect("runs survived");
    assert_eq!(
        series.benchmark, "xalancbmk",
        "a clean sweep is unannotated"
    );
    assert_eq!(series.stacks.len(), b.survived());
    let rendering = series.render();
    for line in rendering.lines().skip(1) {
        let bar = line.split('|').nth(1).expect("bar present");
        assert_eq!(bar.chars().count(), 40, "{line}");
    }
    assert!(series.render_numeric().contains("front-end"));
}

#[test]
fn fig2_orders_methods_hottest_first() {
    let series = view::fig2_series(golden_benchmark("deepsjeng")).expect("runs survived");
    assert!(!series.methods.is_empty());
    // First method's total coverage is the largest.
    let total = |j: usize| -> f64 { series.rows.iter().map(|(_, p)| p[j]).sum() };
    for j in 1..series.methods.len() {
        assert!(total(0) >= total(j) - 1e-9);
    }
    assert!(series.render().contains("deepsjeng"));
    assert_eq!(series.method_ranges().len(), series.methods.len());
}

#[test]
fn visual_variation_is_zero_for_identical_stacks() {
    let series = Fig1Series {
        benchmark: "x".into(),
        stacks: vec![
            ("a".into(), [0.25, 0.25, 0.25, 0.25]),
            ("b".into(), [0.25, 0.25, 0.25, 0.25]),
        ],
    };
    assert_eq!(series.visual_variation(), 0.0);
    let varied = Fig1Series {
        benchmark: "y".into(),
        stacks: vec![
            ("a".into(), [0.5, 0.2, 0.1, 0.2]),
            ("b".into(), [0.1, 0.5, 0.2, 0.2]),
        ],
    };
    assert!(varied.visual_variation() > 0.0);
}

#[test]
fn table1_renders_with_published_and_measured_columns() {
    let t = view::table1(golden());
    assert!(t.contains("502.gcc_r"));
    assert!(t.contains("Arithmetic Average"));
    assert!(t.contains("517"), "paper's 2017 average");
    assert!(t.contains("405"), "paper's 2006 average");
    let line = |spec: &str| t.lines().find(|l| l.contains(spec)).expect("row");
    // perlbench has no mini: its row ends at the published 2006 time.
    assert!(line("500.perlbench_r").ends_with("425"));
    // gcc's measured cell holds its refrate cycles in millions.
    let cycles = golden_benchmark("gcc")
        .summary
        .as_ref()
        .and_then(|s| s.refrate_cycles)
        .expect("gcc's refrate run survived");
    assert!(line("502.gcc_r").ends_with(&format!("  {:.2}", cycles / 1e6)));
}

#[test]
fn measured_row_mirrors_its_report_summary() {
    let table = view::table2(golden());
    assert_eq!(table.rows.len(), golden().benchmarks.len());
    for b in &golden().benchmarks {
        let s = b.summary.as_ref().expect("a clean sweep summarizes");
        let row = table.row(&b.short_name).expect("one row per benchmark");
        assert_eq!(
            (row.workloads, row.attempted),
            (b.survived(), b.attempted())
        );
        assert_eq!(row.workloads as u64, s.workloads);
        assert_eq!(row.f, (s.front_end.geo_mean, s.front_end.geo_std));
        assert_eq!(row.b, (s.back_end.geo_mean, s.back_end.geo_std));
        assert_eq!(
            row.s,
            (s.bad_speculation.geo_mean, s.bad_speculation.geo_std)
        );
        assert_eq!(row.r, (s.retiring.geo_mean, s.retiring.geo_std));
        assert_eq!(row.mu_g_v.to_bits(), s.mu_g_v.to_bits());
        assert_eq!(row.mu_g_m.to_bits(), s.mu_g_m.to_bits());
        assert_eq!(row.refrate_cycles, s.refrate_cycles);
    }
}

/// Characterizes one benchmark under a fault plan and returns the
/// report of that sweep.
fn sweep_with(name: &str, plan: FaultPlan) -> SuiteReport {
    let suite = Suite::new(Scale::Test).with_faults(plan);
    let result = suite
        .characterize_resilient_metered(name)
        .expect("benchmark exists");
    SuiteReport::from_resilient(Scale::Test, std::slice::from_ref(&result))
}

/// Regression: when the refrate run fails terminally, Table II and
/// Table I render `—` — not a silent 0.00 time.
#[test]
fn failed_refrate_renders_a_dash_not_zero() {
    // CorruptEvents is not retryable, so the refrate run fails outright.
    let plan = FaultPlan::new(3).inject("xz", "refrate", FaultKind::CorruptEvents { at: 10 });
    let report = sweep_with("xz", plan);

    let rendering = view::table2(&report).render();
    let row = rendering
        .lines()
        .find(|l| l.trim_start().starts_with("xz"))
        .expect("xz row renders");
    assert!(row.contains('—'), "missing refrate dash: {row}");
    assert!(!row.contains("0.00"), "zero refrate time leaked: {row}");
    assert!(row.contains(" of "), "lost run not annotated: {row}");

    let table1 = view::table1(&report);
    let row = table1
        .lines()
        .find(|l| l.contains("557.xz_r"))
        .expect("xz row renders");
    assert!(row.ends_with('—'), "missing refrate dash: {row}");
}

/// A lost run annotates the Table II row `n of m` and both figure
/// labels `(n of m workloads)`, and drops out of the figure series.
#[test]
fn lost_run_annotates_its_row_and_figure_labels() {
    let plan = FaultPlan::new(11).inject("mcf", "alberta.2", FaultKind::MalformedWorkload);
    let report = sweep_with("mcf", plan);
    let mcf = &report.benchmarks[0];

    let rendering = view::table2(&report).render();
    let row = rendering
        .lines()
        .find(|l| l.trim_start().starts_with("mcf"))
        .expect("mcf row renders");
    assert!(row.contains("8 of 9"), "{row}");

    let fig1 = view::fig1_series(mcf).expect("eight survivors");
    assert_eq!(fig1.benchmark, "mcf (8 of 9 workloads)");
    assert_eq!(fig1.stacks.len(), 8);
    assert!(fig1.stacks.iter().all(|(w, _)| w != "alberta.2"));
    let fig2 = view::fig2_series(mcf).expect("eight survivors");
    assert_eq!(fig2.benchmark, "mcf (8 of 9 workloads)");
    assert_eq!(fig2.rows.len(), 8);
}
