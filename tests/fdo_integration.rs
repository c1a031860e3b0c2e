//! Integration of the FDO methodology experiments — the paper's
//! motivating story, end to end.

use alberta::fdo::programs::alberta_inputs;
use alberta::fdo::{
    classic_train_ref, classifier_program, cross_validate, hidden_learning, Distribution,
    FdoPipeline, InputGen,
};
use alberta::workloads::Named;

fn pipeline() -> FdoPipeline {
    FdoPipeline::new(&classifier_program(4, &[1, 4, 20, 48])).expect("program compiles")
}

fn named(name: &str, dist: Distribution, seed: u64) -> Named<Vec<i64>> {
    Named::new(
        name,
        InputGen {
            len: 96,
            distribution: dist,
        }
        .generate(seed),
    )
}

/// The core claim: a single train→ref number hides a spread of outcomes
/// across a workload family. The audit must reveal per-workload speedups
/// that differ from the reported one.
#[test]
fn single_workload_evaluation_hides_a_spread() {
    let p = pipeline();
    let train = named("train", Distribution::SkewLow, 1);
    let reference = named("ref", Distribution::SkewLow, 2);
    let family = alberta_inputs(96, 7);
    let outcome = classic_train_ref(&p, &train, &reference, &family).expect("experiment");
    assert_eq!(outcome.actual_speedups.len(), 7);
    // The audited spread is nonzero and the reported number is not the
    // whole story: at least one workload deviates from it.
    assert!(outcome.summary.range() > 0.0);
    let deviates = outcome
        .actual_speedups
        .iter()
        .any(|(_, s)| (s - outcome.reported_speedup).abs() > 0.001);
    assert!(deviates, "every workload matched the reported speedup");
}

/// FDO never alters program semantics, whatever it was trained on.
#[test]
fn fdo_preserves_semantics_across_all_train_eval_pairs() {
    let p = pipeline();
    let dists = [
        Distribution::Uniform,
        Distribution::SkewLow,
        Distribution::SkewHigh,
        Distribution::Bimodal,
    ];
    for (i, &train_dist) in dists.iter().enumerate() {
        let train = InputGen {
            len: 96,
            distribution: train_dist,
        }
        .generate(100 + i as u64);
        for (j, &eval_dist) in dists.iter().enumerate() {
            let eval = InputGen {
                len: 96,
                distribution: eval_dist,
            }
            .generate(200 + j as u64);
            let base = p.measure_baseline(&eval).expect("baseline");
            let fdo = p
                .measure_fdo(std::slice::from_ref(&train), &eval)
                .expect("fdo");
            assert_eq!(base.result, fdo.result, "{train_dist:?} → {eval_dist:?}");
        }
    }
}

/// Cross-validation over the family yields a well-defined mean ± std —
/// the honest replacement for the single number.
#[test]
fn cross_validation_summarizes_the_family() {
    let p = pipeline();
    let family = alberta_inputs(96, 6);
    let cv = cross_validate(&p, &family).expect("experiment");
    assert_eq!(cv.folds.len(), 6);
    assert!(cv.summary.mean() > 0.7 && cv.summary.mean() < 1.5);
    assert!(cv.summary.std_dev() >= 0.0);
    // Fold names match the held-out workloads.
    for (fold, w) in cv.folds.iter().zip(&family) {
        assert_eq!(fold.eval_name, w.name);
    }
}

/// Hidden learning: tuning a heuristic on the evaluation set reports at
/// least as high a number as honest held-out tuning — the bias the paper
/// warns about is non-negative by construction and usually positive.
#[test]
fn hidden_learning_bias_is_non_negative() {
    let p = pipeline();
    let tune = vec![
        named("t0", Distribution::SkewLow, 11),
        named("t1", Distribution::Peak { center: 15 }, 12),
    ];
    let eval = vec![
        named("e0", Distribution::SkewHigh, 13),
        named("e1", Distribution::Peak { center: 85 }, 14),
    ];
    let h = hidden_learning(&p, &[0, 2, 8, 32], &tune, &eval).expect("experiment");
    assert!(h.tuned_on_eval_speedup >= h.tuned_held_out_speedup - 1e-12);
}

/// Profiles collected on different distributions disagree about hotness —
/// the raw mechanism behind the overfitting.
#[test]
fn training_distribution_shapes_the_profile() {
    let p = pipeline();
    let low = p
        .collect_profile(&[InputGen {
            len: 96,
            distribution: Distribution::SkewLow,
        }
        .generate(21)])
        .expect("profile");
    let high = p
        .collect_profile(&[InputGen {
            len: 96,
            distribution: Distribution::SkewHigh,
        }
        .generate(21)])
        .expect("profile");
    assert_ne!(low.hot_function_order(), high.hot_function_order());
}
