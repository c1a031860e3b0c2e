//! The paper's methodological argument, executable: a single
//! train→ref FDO evaluation reports one number, but the same binary's
//! speedup varies across a workload family — cross-validation tells the
//! honest story.
//!
//! ```text
//! cargo run --release --example fdo_cross_validation
//! ```

use alberta::fdo::programs::alberta_inputs;
use alberta::fdo::{
    classic_train_ref, classifier_program, cross_validate, Distribution, FdoPipeline, InputGen,
};
use alberta::workloads::Named;

fn main() -> Result<(), alberta::fdo::FdoError> {
    // An input-sensitive program: four value buckets dispatched to
    // helpers of very different sizes.
    let source = classifier_program(4, &[1, 4, 20, 48]);
    let pipeline = FdoPipeline::new(&source)?;

    // The criticized protocol: train on ONE workload, report ONE number.
    let train = Named::new(
        "train",
        InputGen {
            len: 128,
            distribution: Distribution::SkewLow,
        }
        .generate(1),
    );
    let reference = Named::new(
        "refrate",
        InputGen {
            len: 128,
            distribution: Distribution::SkewLow,
        }
        .generate(2),
    );
    let family = alberta_inputs(128, 7);
    let classic = classic_train_ref(&pipeline, &train, &reference, &family)?;
    println!(
        "classic train→ref reported speedup: {:.4}",
        classic.reported_speedup
    );
    println!("…but the same FDO binary across the workload family:");
    for (name, s) in &classic.actual_speedups {
        let marker = if *s < 1.0 {
            "  ← slower than baseline!"
        } else {
            ""
        };
        println!("  {name:>24}  {s:.4}{marker}");
    }
    println!(
        "  spread: {:.4} (min {:.4} … max {:.4})",
        classic.summary.range(),
        classic.summary.min(),
        classic.summary.max()
    );

    // The recommended protocol: leave-one-out cross-validation with
    // combined training profiles (Berube & Amaral).
    let cv = cross_validate(&pipeline, &family)?;
    println!(
        "\ncross-validated speedup: {:.4} ± {:.4} over {} folds",
        cv.summary.mean(),
        cv.summary.std_dev(),
        cv.folds.len()
    );
    Ok(())
}
