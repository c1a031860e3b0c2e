//! The end-to-end static-FDO pipeline and its cycle-model measurements.

use crate::FdoError;
use alberta_benchmarks::minigcc::vm::DEFAULT_STEP_LIMIT;
use alberta_benchmarks::minigcc::{
    compile, lex, optimize, parse, run_with_inputs, EdgeProfile, Module, OptOptions,
};
use alberta_profile::{Profiler, SampleConfig};
use alberta_stats::variation::TopDownRatios;
use alberta_uarch::TopDownModel;

/// One modelled execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Modelled cycles (lower is better).
    pub cycles: f64,
    /// Modelled instructions per cycle.
    pub ipc: f64,
    /// Top-Down slot breakdown.
    pub ratios: TopDownRatios,
    /// The program's return value (semantic checksum).
    pub result: i64,
}

/// Speedup of `optimized` over `baseline` (>1 means faster).
pub(crate) fn speedup(baseline: &Measurement, optimized: &Measurement) -> f64 {
    baseline.cycles / optimized.cycles
}

/// A compiled program plus the machinery to profile, re-optimize, and
/// measure it under different input workloads.
#[derive(Debug)]
pub struct FdoPipeline {
    source: String,
    /// Minimum dynamic calls for a callee to be force-inlined.
    pub inline_threshold: u64,
    /// Baseline (non-FDO) compiler options.
    pub baseline_options: OptOptions,
}

impl FdoPipeline {
    /// Parses and validates the program once.
    ///
    /// # Errors
    ///
    /// Returns [`FdoError::Program`] when the source is rejected.
    pub fn new(source: &str) -> Result<Self, FdoError> {
        let mut probe = Profiler::default();
        compile_module(source, &OptOptions::default(), &mut probe)?;
        // The baseline deliberately performs no inlining: call-site
        // decisions are exactly what the profile guides, so the baseline
        // compiler leaves them on the table (like `-O2` without
        // `-fprofile-use`).
        let baseline_options = OptOptions {
            inline_calls: false,
            inline_budget: 0,
            ..OptOptions::default()
        };
        Ok(FdoPipeline {
            source: source.to_owned(),
            inline_threshold: 16,
            baseline_options,
        })
    }

    /// Compiles with baseline options and measures on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`FdoError::Program`] on compile or runtime failure.
    pub fn measure_baseline(&self, input: &[i64]) -> Result<Measurement, FdoError> {
        let mut profiler = Profiler::new(SampleConfig::default());
        let module = compile_module(&self.source, &self.baseline_options, &mut profiler)?;
        // Measurement profiles only the program execution, not compilation:
        // use a fresh profiler for the run.
        measure_module(&module, input)
    }

    /// Collects a merged edge profile from instrumented runs on the
    /// training inputs.
    ///
    /// # Errors
    ///
    /// Returns [`FdoError::Program`] on compile or runtime failure.
    pub fn collect_profile(&self, training_inputs: &[Vec<i64>]) -> Result<EdgeProfile, FdoError> {
        let mut profiler = Profiler::new(SampleConfig::sparse());
        let module = compile_module(&self.source, &self.baseline_options, &mut profiler)?;
        let mut merged = EdgeProfile::default();
        for input in training_inputs {
            let mut run_profiler = Profiler::new(SampleConfig::sparse());
            let (_, edges) = run_with_inputs(
                &module,
                &mut run_profiler,
                DEFAULT_STEP_LIMIT,
                &named_inputs(input),
            )
            .map_err(|e| FdoError::Program {
                message: e.to_string(),
            })?;
            merged.merge(&edges);
        }
        Ok(merged)
    }

    /// Derives profile-guided options from an edge profile.
    pub(crate) fn guided_options(&self, profile: &EdgeProfile) -> OptOptions {
        OptOptions {
            function_order: Some(profile.hot_function_order()),
            force_inline: profile.hot_callees(self.inline_threshold),
            ..self.baseline_options.clone()
        }
    }

    /// Full static FDO: train on `training_inputs`, measure on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`FdoError::Program`] on compile or runtime failure.
    pub fn measure_fdo(
        &self,
        training_inputs: &[Vec<i64>],
        input: &[i64],
    ) -> Result<Measurement, FdoError> {
        let profile = self.collect_profile(training_inputs)?;
        self.measure_with_options(&self.guided_options(&profile), input)
    }

    /// Compiles with explicit options and measures on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`FdoError::Program`] on compile or runtime failure.
    pub(crate) fn measure_with_options(
        &self,
        options: &OptOptions,
        input: &[i64],
    ) -> Result<Measurement, FdoError> {
        let mut profiler = Profiler::new(SampleConfig::default());
        let module = compile_module(&self.source, options, &mut profiler)?;
        measure_module(&module, input)
    }
}

fn named_inputs(input: &[i64]) -> Vec<(String, Vec<i64>)> {
    vec![
        ("input".to_owned(), input.to_vec()),
        ("input_len".to_owned(), vec![input.len() as i64]),
    ]
}

fn compile_module(
    source: &str,
    options: &OptOptions,
    profiler: &mut Profiler,
) -> Result<Module, FdoError> {
    let program = lex(source)
        .and_then(|t| parse(&t))
        .map_err(|message| FdoError::Program { message })?;
    let program = optimize(program, options, profiler);
    compile(&program, options, profiler).map_err(|message| FdoError::Program { message })
}

fn measure_module(module: &Module, input: &[i64]) -> Result<Measurement, FdoError> {
    let mut profiler = Profiler::new(SampleConfig::default());
    let (result, _) = run_with_inputs(
        module,
        &mut profiler,
        DEFAULT_STEP_LIMIT,
        &named_inputs(input),
    )
    .map_err(|e| FdoError::Program {
        message: e.to_string(),
    })?;
    let profile = profiler.finish();
    let report = TopDownModel::reference().analyze(&profile);
    Ok(Measurement {
        cycles: report.cycles,
        ipc: report.ipc,
        ratios: report.ratios,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{classifier_program, Distribution, InputGen};

    fn pipeline() -> FdoPipeline {
        // Helpers of very different sizes so layout/inlining matter.
        FdoPipeline::new(&classifier_program(4, &[1, 3, 24, 60])).unwrap()
    }

    fn input(dist: Distribution, seed: u64) -> Vec<i64> {
        InputGen {
            len: 96,
            distribution: dist,
        }
        .generate(seed)
    }

    #[test]
    fn fdo_preserves_semantics() {
        let p = pipeline();
        for dist in [
            Distribution::Uniform,
            Distribution::SkewLow,
            Distribution::SkewHigh,
        ] {
            let train = input(dist, 1);
            let eval = input(dist, 2);
            let base = p.measure_baseline(&eval).unwrap();
            let fdo = p.measure_fdo(&[train], &eval).unwrap();
            assert_eq!(base.result, fdo.result, "{dist:?}");
        }
    }

    #[test]
    fn matched_training_beats_baseline() {
        let p = pipeline();
        let train = input(Distribution::SkewLow, 1);
        let eval = input(Distribution::SkewLow, 2);
        let base = p.measure_baseline(&eval).unwrap();
        let fdo = p.measure_fdo(&[train], &eval).unwrap();
        assert!(
            speedup(&base, &fdo) > 1.0,
            "matched FDO should help: base {} fdo {}",
            base.cycles,
            fdo.cycles
        );
    }

    #[test]
    fn profile_reflects_input_distribution() {
        let p = pipeline();
        let low = p
            .collect_profile(&[input(Distribution::SkewLow, 3)])
            .unwrap();
        let high = p
            .collect_profile(&[input(Distribution::SkewHigh, 3)])
            .unwrap();
        // With skewed-low inputs, bucket0 dominates; with skewed-high,
        // the last bucket does.
        let order_low = low.hot_function_order();
        let order_high = high.hot_function_order();
        assert_ne!(order_low, order_high, "profiles must differ");
        let pos = |order: &[String], name: &str| {
            order
                .iter()
                .position(|n| n == name)
                .expect("function known")
        };
        assert!(pos(&order_low, "bucket0") < pos(&order_high, "bucket0"));
        assert!(pos(&order_high, "bucket3") < pos(&order_low, "bucket3"));
    }

    #[test]
    fn measurements_are_deterministic() {
        let p = pipeline();
        let eval = input(Distribution::Bimodal, 4);
        let a = p.measure_baseline(&eval).unwrap();
        let b = p.measure_baseline(&eval).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_program_is_rejected_at_construction() {
        assert!(FdoPipeline::new("int main( {").is_err());
        assert!(
            FdoPipeline::new("int f() { return 0; }").is_err(),
            "no main"
        );
    }

    #[test]
    fn guided_options_contain_profile_decisions() {
        let p = pipeline();
        let profile = p
            .collect_profile(&[input(Distribution::Uniform, 5)])
            .unwrap();
        let options = p.guided_options(&profile);
        assert!(options.function_order.is_some());
        let order = options.function_order.unwrap();
        assert!(order.contains(&"main".to_owned()));
    }
}
