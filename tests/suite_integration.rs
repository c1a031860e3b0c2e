//! End-to-end integration of the suite facade: coverage accounting,
//! error paths, and configuration knobs.

use alberta::core::{Characterization, MachineConfig, PredictorKind, Suite, TopDownModel};
use alberta::profile::{Profiler, SampleConfig};
use alberta::workloads::Scale;

/// One benchmark's characterization, every run of which came back `Ok`.
fn characterize(suite: &Suite, name: &str) -> Characterization {
    let (result, _) = suite.characterize_resilient_metered(name).expect(name);
    assert!(result.is_complete(), "{name}: {:?}", result.statuses);
    result.characterization.expect("every run survived")
}

#[test]
fn coverage_rows_are_percentages() {
    let suite = Suite::new(Scale::Test);
    let c = characterize(&suite, "wrf");
    for run in &c.runs {
        let sum: f64 = run.coverage.values().sum();
        assert!((sum - 100.0).abs() < 1e-6, "{}", run.workload);
        assert!(run.coverage.values().all(|&p| (0.0..=100.0).contains(&p)));
    }
}

#[test]
fn predictor_override_changes_bad_speculation() {
    let weak = Suite::new(Scale::Test).with_model(TopDownModel::new(
        MachineConfig::default(),
        PredictorKind::StaticTaken,
    ));
    let strong = Suite::new(Scale::Test).with_model(TopDownModel::new(
        MachineConfig::default(),
        PredictorKind::Tournament { bits: 14 },
    ));
    let c_weak = characterize(&weak, "deepsjeng");
    let c_strong = characterize(&strong, "deepsjeng");
    assert!(
        c_weak.topdown.bad_speculation.geo_mean > c_strong.topdown.bad_speculation.geo_mean,
        "static-taken {} vs tournament {}",
        c_weak.topdown.bad_speculation.geo_mean,
        c_strong.topdown.bad_speculation.geo_mean
    );
}

/// Sampling ablation: sparse event sampling never changes program
/// semantics or exact counters, keeps branch-prediction estimates close,
/// but *biases cache miss rates upward* — subsampling an address stream
/// stretches apparent reuse distances. The ablation bench quantifies
/// this; here we pin the direction and bound of the bias.
#[test]
fn sparse_sampling_bias_is_bounded_and_upward_in_memory() {
    let dense = Suite::new(Scale::Test);
    let sparse = Suite::new(Scale::Test).with_sampling(SampleConfig::sparse());
    let c_dense = characterize(&dense, "omnetpp");
    let c_sparse = characterize(&sparse, "omnetpp");
    for (rd, rs) in c_dense.runs.iter().zip(&c_sparse.runs) {
        // Exact counters are sampling-invariant: identical checksums.
        assert_eq!(rd.checksum, rs.checksum, "{}", rd.workload);
        // Decimating the branch stream destroys history correlation, so
        // sparse misprediction estimates drift *upward* (never sharply
        // down) — same direction as the cache bias, bounded in size.
        let branch_drift = rs.report.mispredict_rate - rd.report.mispredict_rate;
        assert!(
            (-0.05..0.40).contains(&branch_drift),
            "{}: mispredict drift {branch_drift}",
            rd.workload
        );
        // Memory-bound share drifts upward but stays bounded.
        let drift = rs.report.ratios.back_end - rd.report.ratios.back_end;
        assert!(
            (-0.05..0.35).contains(&drift),
            "{}: backend drift {drift}",
            rd.workload
        );
    }
}

#[test]
fn benchmarks_reject_unknown_workloads_uniformly() {
    let suite = Suite::new(Scale::Test);
    for b in suite.benchmarks() {
        let mut p = Profiler::default();
        let err = b.run("definitely-not-a-workload", &mut p).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("definitely-not-a-workload"),
            "{}: {msg}",
            b.name()
        );
    }
}

#[test]
fn every_workload_of_every_benchmark_runs() {
    // The broadest smoke test in the repository: all 15 benchmarks × all
    // of their workloads execute without error at test scale.
    let suite = Suite::new(Scale::Test);
    for b in suite.benchmarks() {
        for workload in b.workload_names() {
            let mut p = Profiler::new(SampleConfig::sparse());
            let out = b
                .run(&workload, &mut p)
                .unwrap_or_else(|e| panic!("{}/{workload}: {e}", b.name()));
            let profile = p.finish();
            assert!(
                profile.totals.retired_ops > 0,
                "{}/{workload} retired nothing",
                b.name()
            );
            assert!(out.checksum != 0 || out.work > 0, "{}/{workload}", b.name());
        }
    }
}
