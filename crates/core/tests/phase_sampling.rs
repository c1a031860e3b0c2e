//! Suite-level contract of phase-sampled characterization: estimates
//! stay inside the committed error bound while saving a multiple of the
//! detailed-measurement work, and sampled sweeps keep the repo's
//! serial-vs-parallel byte-identity.
//!
//! The three tests share three sweeps, each run once per harness run
//! by whichever test asks first: the full and the sampled sweep on 4
//! threads, and the sampled sweep on one.

use std::sync::OnceLock;

use alberta_core::{
    Characterization, ExecPolicy, SamplingPolicy, Scale, Suite, PHASE_ERROR_BOUND_PCT,
};

/// The full sweep on 4 threads: the ground truth.
fn full() -> &'static [Characterization] {
    static FULL: OnceLock<Vec<Characterization>> = OnceLock::new();
    FULL.get_or_init(|| characterize(SamplingPolicy::Full, ExecPolicy::with_jobs(4)))
}

/// The sampled sweep on 4 threads.
fn sampled() -> &'static [Characterization] {
    static SAMPLED: OnceLock<Vec<Characterization>> = OnceLock::new();
    SAMPLED.get_or_init(|| characterize(SamplingPolicy::phase(), ExecPolicy::with_jobs(4)))
}

/// The sampled sweep on the calling thread.
fn sampled_serial() -> &'static [Characterization] {
    static SERIAL: OnceLock<Vec<Characterization>> = OnceLock::new();
    SERIAL.get_or_init(|| characterize(SamplingPolicy::phase(), ExecPolicy::Serial))
}

fn characterize(policy: SamplingPolicy, exec: ExecPolicy) -> Vec<Characterization> {
    Suite::new(Scale::Test)
        .with_exec(exec)
        .with_sampling_policy(policy)
        .characterize_all_resilient_metered()
        .into_iter()
        .map(|(r, _)| {
            assert!(r.is_complete(), "{}: {:?}", r.short_name, r.statuses);
            r.characterization.expect("every run survived")
        })
        .collect()
}

/// Every benchmark's sampled estimate must reproduce full measurement
/// within the committed bound: each run's Top-Down fractions within
/// `PHASE_ERROR_BOUND_PCT` percentage points, each benchmark's μg(M)
/// within the same percent relatively — while the suite-wide detailed
/// work drops at least 3×.
#[test]
fn sampled_estimates_whole_suite_within_committed_bound() {
    let (full, sampled) = (full(), sampled());
    assert_eq!(full.len(), sampled.len(), "same benchmark set");

    let bound = PHASE_ERROR_BOUND_PCT / 100.0;
    let mut total_ops = 0u64;
    let mut detailed_ops = 0u64;
    let mut windowed_runs = 0usize;
    for (truth, est) in full.iter().zip(sampled) {
        assert_eq!(truth.short_name, est.short_name);
        for (tr, er) in truth.runs.iter().zip(&est.runs) {
            assert_eq!(tr.workload, er.workload);
            assert_eq!(tr.checksum, er.checksum, "sampling must not change results");
            let worst = tr
                .report
                .ratios
                .as_array()
                .iter()
                .zip(er.report.ratios.as_array().iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= bound,
                "{}/{}: Top-Down fraction error {:.2}pp over bound {PHASE_ERROR_BOUND_PCT}pp",
                est.short_name,
                er.workload,
                worst * 100.0,
            );
            let stats = er.sampling.expect("phase policy annotates every run");
            total_ops += stats.total_ops;
            detailed_ops += stats.detailed_ops;
            windowed_runs += usize::from(stats.detailed_ops < stats.total_ops);
        }
        let mu_err = (truth.coverage.mu_g_m - est.coverage.mu_g_m).abs() / truth.coverage.mu_g_m;
        assert!(
            mu_err <= bound,
            "{}: mu_g(M) error {:.2}% over bound {PHASE_ERROR_BOUND_PCT}%",
            est.short_name,
            mu_err * 100.0,
        );
    }
    assert!(windowed_runs > 0, "at least some runs must actually sample");
    let saved = total_ops as f64 / detailed_ops as f64;
    assert!(saved >= 3.0, "work saved {saved:.2}x below the promised 3x");
}

/// Small runs fall back to full measurement and must report it as such:
/// detailed work equals total work, and the estimate is the exact
/// analysis.
#[test]
fn fallback_runs_are_exact() {
    let mut fallbacks = 0usize;
    for (truth, est) in full().iter().zip(sampled()) {
        for (tr, er) in truth.runs.iter().zip(&est.runs) {
            let stats = er.sampling.expect("phase policy annotates every run");
            if stats.clusters == stats.intervals {
                fallbacks += 1;
                assert_eq!(stats.detailed_ops, stats.total_ops);
                assert_eq!(
                    tr.report.cycles.to_bits(),
                    er.report.cycles.to_bits(),
                    "{}/{}: fallback must be bit-exact",
                    est.short_name,
                    er.workload,
                );
            }
        }
    }
    assert!(fallbacks > 0, "test scale has runs too small to sample");
}

/// A sampled sweep is a pure function of its inputs: distributing it
/// over worker threads must produce bit-identical characterizations.
#[test]
fn sampled_sweep_is_deterministic_serial_and_parallel() {
    let (serial, parallel) = (sampled_serial(), sampled());
    assert_eq!(serial.len(), parallel.len(), "same benchmark set");
    for (a, b) in serial.iter().zip(parallel) {
        assert_eq!(a.short_name, b.short_name);
        assert_eq!(a.topdown.mu_g_v.to_bits(), b.topdown.mu_g_v.to_bits());
        assert_eq!(a.coverage.mu_g_m.to_bits(), b.coverage.mu_g_m.to_bits());
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.workload, rb.workload);
            assert_eq!(ra.checksum, rb.checksum);
            assert_eq!(ra.sampling, rb.sampling);
            assert_eq!(ra.report.cycles.to_bits(), rb.report.cycles.to_bits());
            for (fa, fb) in ra
                .report
                .ratios
                .as_array()
                .iter()
                .zip(rb.report.ratios.as_array().iter())
            {
                assert_eq!(fa.to_bits(), fb.to_bits());
            }
        }
    }
}
