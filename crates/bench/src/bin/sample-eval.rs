//! Evaluates phase-sampled characterization against full measurement.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin sample-eval \
//!     [test|train|ref] [--exec serial|threads|processes] [--jobs N] [--bound PCT] [--out PATH] \
//!     [--sample-interval OPS] [--sample-k N] [--sample-seed SEED]
//! ```
//!
//! Sweeps the suite twice — once measuring every run in full (ground
//! truth), once under the phase-sampled policy — and reports, per
//! benchmark, the largest Top-Down fraction estimation error, the
//! μg(M) coverage-summary error, and the detailed-measurement work
//! saved (`total_ops / detailed_ops`, aggregated over sampled runs).
//!
//! The evaluation is gated: if any benchmark's Top-Down fraction error
//! or μg(M) relative error exceeds the bound — `--bound PCT`, default
//! the committed `PHASE_ERROR_BOUND_PCT` — the binary exits 1; CI
//! enforces the same bound. `--out PATH` persists the sampled report
//! with per-run `estimate_error` fields embedded.

use alberta_bench::{usage_error, Args};
use alberta_core::{SamplingPolicy, Suite, PHASE_ERROR_BOUND_PCT};
use alberta_report::view::{format_table, Align};
use alberta_report::SuiteReport;
use std::path::PathBuf;

fn main() {
    // Under --exec processes the supervisor re-executes this binary in
    // a hidden worker mode; that must be intercepted before any
    // argument parsing sees the worker flag.
    alberta_bench::maybe_worker();
    let args = Args::parse(
        &[
            "--exec",
            "--jobs",
            "--bound",
            "--out",
            "--sample-interval",
            "--sample-k",
            "--sample-seed",
        ],
        &[],
    );
    let scale = args.scale();
    let exec = args.exec();
    let policy = match args.sampling() {
        // sample-eval exists to evaluate sampling, so it is on by
        // default; the --sample-* flags only tune the parameters.
        SamplingPolicy::Full => SamplingPolicy::phase(),
        configured => configured,
    };
    let bound = args
        .value("--bound")
        .map(|value| match value.parse::<f64>() {
            Ok(pct) if pct.is_finite() && pct >= 0.0 => pct,
            _ => usage_error(&format!(
                "--bound expects a non-negative percentage, got {value:?}"
            )),
        })
        .unwrap_or(PHASE_ERROR_BOUND_PCT);

    let full_suite = Suite::new(scale).with_exec(exec);
    let full_results = full_suite.characterize_all_resilient_metered();
    let mut full = SuiteReport::from_resilient(scale, &full_results);
    full.strip_telemetry();

    let sampled_suite = Suite::new(scale)
        .with_exec(exec)
        .with_sampling_policy(policy);
    let sampled_results = sampled_suite.characterize_all_resilient_metered();
    let mut sampled = SuiteReport::from_resilient(scale, &sampled_results);
    sampled.strip_telemetry();
    sampled.embed_estimate_errors(&full);

    let header: Vec<String> = ["benchmark", "ratio err", "mu_g_m err", "work saved"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let mut rows = Vec::new();
    let mut worst_ratio = 0.0f64;
    let mut worst_mu_g_m = 0.0f64;
    let mut total_ops = 0u64;
    let mut detailed_ops = 0u64;
    for benchmark in &sampled.benchmarks {
        let ratio_err = benchmark
            .runs
            .iter()
            .filter_map(|r| r.sampling.as_ref()?.estimate_error)
            .fold(0.0f64, f64::max);
        let mu_g_m_err = match (
            &benchmark.summary,
            full.benchmark(&benchmark.spec_id)
                .and_then(|b| b.summary.as_ref()),
        ) {
            (Some(est), Some(truth)) if truth.mu_g_m > 0.0 => {
                (est.mu_g_m - truth.mu_g_m).abs() / truth.mu_g_m
            }
            _ => 0.0,
        };
        let (bench_total, bench_detailed) = benchmark
            .runs
            .iter()
            .filter_map(|r| r.sampling.as_ref())
            .fold((0u64, 0u64), |(t, d), s| {
                (t + s.total_ops, d + s.detailed_ops)
            });
        total_ops += bench_total;
        detailed_ops += bench_detailed;
        let saved = if bench_detailed == 0 {
            1.0
        } else {
            bench_total as f64 / bench_detailed as f64
        };
        worst_ratio = worst_ratio.max(ratio_err);
        worst_mu_g_m = worst_mu_g_m.max(mu_g_m_err);
        rows.push(vec![
            benchmark.short_name.clone(),
            format!("{:.2}pp", ratio_err * 100.0),
            format!("{:.2}%", mu_g_m_err * 100.0),
            format!("{saved:.1}x"),
        ]);
    }

    println!("Phase-sampled estimation vs full measurement ({scale:?} scale)\n");
    println!("{}", format_table(&header, &rows, Align::Right));
    let overall_saved = if detailed_ops == 0 {
        1.0
    } else {
        total_ops as f64 / detailed_ops as f64
    };
    println!();
    println!(
        "worst Top-Down fraction error  {:.2}pp",
        worst_ratio * 100.0
    );
    println!(
        "worst mu_g(M) error            {:.2}%",
        worst_mu_g_m * 100.0
    );
    println!("aggregate work saved           {overall_saved:.1}x");

    if let Some(path) = args.value("--out").map(PathBuf::from) {
        if let Err(e) = alberta_report::save(&sampled, &path) {
            eprintln!("sample-eval: {e}");
            std::process::exit(1);
        }
        println!("sampled report -> {}", path.display());
    }

    let worst = worst_ratio.max(worst_mu_g_m) * 100.0;
    if worst > bound {
        eprintln!(
            "sample-eval: estimation error {worst:.2} exceeds bound {bound:.2} \
             (percentage points)"
        );
        std::process::exit(1);
    }
    println!("bound check                    {worst:.2} <= {bound:.2} ok");
}
