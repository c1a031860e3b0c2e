//! Runs the FDO methodology experiments the paper motivates: classic
//! train→ref evaluation vs cross-validation vs combined profiles, plus
//! the hidden-learning demonstration.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin fdo_eval
//! ```

use alberta_bench::Args;
use alberta_fdo::experiments::{classic_train_ref, cross_validate, hidden_learning};
use alberta_fdo::programs::{alberta_inputs, classifier_program, Distribution, InputGen};
use alberta_fdo::FdoPipeline;
use alberta_workloads::Named;

fn main() {
    Args::parse(&[], &[]).without_operands();
    let source = classifier_program(4, &[1, 4, 20, 48]);
    let pipeline = FdoPipeline::new(&source).expect("program compiles");
    let named = |name: &str, dist, seed| {
        Named::new(
            name,
            InputGen {
                len: 128,
                distribution: dist,
            }
            .generate(seed),
        )
    };

    println!("== Classic SPEC-style evaluation (train on one workload) ==");
    let train = named("train", Distribution::SkewLow, 1);
    let reference = named("refrate", Distribution::SkewLow, 2);
    let audit = alberta_inputs(128, 7);
    let classic =
        classic_train_ref(&pipeline, &train, &reference, &audit).expect("experiment runs");
    println!(
        "reported speedup (train→ref): {:.4}",
        classic.reported_speedup
    );
    println!("audited on the Alberta-style workload family:");
    for (name, s) in &classic.actual_speedups {
        println!("  {name:>24}  {s:.4}");
    }
    println!(
        "audit summary: mean {:.4}, min {:.4}, max {:.4}, range {:.4}",
        classic.summary.mean(),
        classic.summary.min(),
        classic.summary.max(),
        classic.summary.range()
    );

    println!("\n== Leave-one-out cross-validation (combined profiles) ==");
    let cv = cross_validate(&pipeline, &audit).expect("experiment runs");
    for fold in &cv.folds {
        println!(
            "  held out {:>24}  speedup {:.4}",
            fold.eval_name, fold.speedup
        );
    }
    println!(
        "cross-validated: mean {:.4} ± {:.4}",
        cv.summary.mean(),
        cv.summary.std_dev()
    );

    println!("\n== Hidden learning (tuning the inline budget) ==");
    let tune = vec![
        named("tune.low", Distribution::SkewLow, 7),
        named("tune.peak20", Distribution::Peak { center: 20 }, 8),
        named("tune.uniform", Distribution::Uniform, 9),
    ];
    let eval = vec![
        named("eval.high", Distribution::SkewHigh, 10),
        named("eval.peak80", Distribution::Peak { center: 80 }, 11),
        named("eval.bimodal", Distribution::Bimodal, 12),
    ];
    let h = hidden_learning(&pipeline, &[0, 1, 2, 4, 8, 16, 32], &tune, &eval)
        .expect("experiment runs");
    println!(
        "tuned on the eval set itself: budget {:>2} → reported mean speedup {:.4}",
        h.tuned_on_eval_budget, h.tuned_on_eval_speedup
    );
    println!(
        "tuned on held-out workloads:  budget {:>2} → honest mean speedup  {:.4}",
        h.tuned_held_out_budget, h.tuned_held_out_speedup
    );
    println!(
        "hidden-learning gap: {:.4}",
        h.tuned_on_eval_speedup - h.tuned_held_out_speedup
    );
}
