//! Characterization request specifications and their content addresses.
//!
//! A [`RequestSpec`] names everything that determines a
//! characterization result: the benchmark, an optional single workload,
//! the workload scale, the sampling policy, and the full machine model
//! (configuration plus branch predictor). Because the pipeline is
//! deterministic, those inputs *are* the result's identity — two
//! requests with equal specs produce byte-identical documents — so the
//! cache key is simply the fingerprint of the spec's canonical JSON
//! rendering, extended with the report schema version and the crate
//! version so a schema or code change can never serve a stale document.

use alberta_core::json::{self, opt, req, DecodeError, Value};
use alberta_core::protocol::{
    decode_machine, decode_predictor, decode_sampling_policy, machine_value, predictor_value,
    sampling_policy_value,
};
use alberta_core::{MachineConfig, PredictorKind, SamplingPolicy, Scale, TopDownModel};
use alberta_report::SCHEMA_VERSION;

/// The code version baked into every cache key: a rebuilt service never
/// trusts documents written by a different crate version.
pub(crate) const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// One characterization request: a benchmark (optionally narrowed to a
/// single workload) plus the complete measurement configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// Benchmark short name (`mcf`) or SPEC id (`505.mcf_r`).
    pub benchmark: String,
    /// A single workload, or `None` for every workload the benchmark
    /// has at the requested scale.
    pub workload: Option<String>,
    /// Workload scale.
    pub scale: Scale,
    /// Sampling policy (full measurement or phase-sampled estimation).
    pub policy: SamplingPolicy,
    /// Machine model configuration.
    pub machine: MachineConfig,
    /// Branch predictor.
    pub predictor: PredictorKind,
}

impl RequestSpec {
    /// A spec under the paper's reference model with full measurement.
    pub fn new(benchmark: &str, workload: Option<&str>, scale: Scale) -> Self {
        let model = TopDownModel::reference();
        RequestSpec {
            benchmark: benchmark.to_owned(),
            workload: workload.map(str::to_owned),
            scale,
            policy: SamplingPolicy::Full,
            machine: *model.config(),
            predictor: model.predictor(),
        }
    }

    /// The spec as its canonical wire object.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![("benchmark".to_owned(), Value::Str(self.benchmark.clone()))];
        if let Some(workload) = &self.workload {
            fields.push(("workload".to_owned(), Value::Str(workload.clone())));
        }
        fields.push(("scale".to_owned(), Value::Str(self.scale.name().to_owned())));
        fields.push(("sampling".to_owned(), sampling_policy_value(&self.policy)));
        fields.push(("machine".to_owned(), machine_value(&self.machine)));
        fields.push(("predictor".to_owned(), predictor_value(self.predictor)));
        Value::Object(fields)
    }

    /// Parses a spec from its canonical wire object.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the missing or mistyped field.
    pub(crate) fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(RequestSpec {
            benchmark: req(value, "benchmark")?,
            workload: opt(value, "workload")?,
            scale: req(value, "scale")?,
            policy: decode_sampling_policy(req(value, "sampling")?)?,
            machine: decode_machine(req(value, "machine")?)?,
            predictor: decode_predictor(req(value, "predictor")?)?,
        })
    }

    /// The content address of one workload run under this spec: the
    /// fingerprint of a canonical document covering every input the
    /// result depends on, including the report schema version and the
    /// crate version. Independent of [`RequestSpec::workload`] — a
    /// benchmark-level request addresses the same per-workload entries
    /// a narrowed request does, so the two share cache lines.
    pub fn run_key(&self, workload: &str) -> String {
        self.run_key_versioned(workload, SCHEMA_VERSION, CODE_VERSION)
    }

    /// [`RequestSpec::run_key`] with explicit versions — exposed so the
    /// version-miss regression test can prove that bumping either
    /// version changes the key (and therefore misses the cache).
    pub fn run_key_versioned(
        &self,
        workload: &str,
        schema_version: u64,
        code_version: &str,
    ) -> String {
        let document = Value::Object(vec![
            ("schema_version".to_owned(), Value::UInt(schema_version)),
            (
                "code_version".to_owned(),
                Value::Str(code_version.to_owned()),
            ),
            ("benchmark".to_owned(), Value::Str(self.benchmark.clone())),
            ("workload".to_owned(), Value::Str(workload.to_owned())),
            ("scale".to_owned(), Value::Str(self.scale.name().to_owned())),
            ("sampling".to_owned(), sampling_policy_value(&self.policy)),
            ("machine".to_owned(), machine_value(&self.machine)),
            ("predictor".to_owned(), predictor_value(self.predictor)),
        ]);
        document.fingerprint()
    }

    /// Fingerprint of the measurement configuration alone (scale,
    /// sampling, machine, predictor) — the grouping key the engine uses
    /// to batch tasks that can share one [`Suite`](alberta_core::Suite).
    pub(crate) fn config_fingerprint(&self) -> String {
        let document = Value::Object(vec![
            ("scale".to_owned(), Value::Str(self.scale.name().to_owned())),
            ("sampling".to_owned(), sampling_policy_value(&self.policy)),
            ("machine".to_owned(), machine_value(&self.machine)),
            ("predictor".to_owned(), predictor_value(self.predictor)),
        ]);
        document.fingerprint()
    }
}

/// Parses a spec from compact wire text.
///
/// # Errors
///
/// A [`DecodeError`] for malformed JSON or a malformed spec.
pub fn parse_spec(text: &str) -> Result<RequestSpec, DecodeError> {
    let value = json::parse(text).map_err(|e| format!("malformed spec: {e}"))?;
    RequestSpec::from_value(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_wire_form() {
        let spec = RequestSpec::new("mcf", Some("alberta.1"), Scale::Test);
        let text = spec.to_value().render_compact();
        let parsed = parse_spec(&text).expect("round trip");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_value().render_compact(), text);
    }

    #[test]
    fn run_keys_separate_every_input() {
        let spec = RequestSpec::new("mcf", None, Scale::Test);
        let base = spec.run_key("alberta.1");
        assert_eq!(base.len(), 32, "fingerprint is 32 hex chars");
        assert_eq!(base, spec.run_key("alberta.1"), "keys are stable");
        assert_ne!(base, spec.run_key("alberta.2"), "workload enters the key");

        let mut other = spec.clone();
        other.benchmark = "xz".to_owned();
        assert_ne!(base, other.run_key("alberta.1"), "benchmark enters the key");

        let mut other = spec.clone();
        other.scale = Scale::Train;
        assert_ne!(base, other.run_key("alberta.1"), "scale enters the key");

        let mut other = spec.clone();
        other.machine.issue_width += 1.0;
        assert_ne!(base, other.run_key("alberta.1"), "machine enters the key");
    }

    #[test]
    fn bumped_versions_change_the_key() {
        let spec = RequestSpec::new("mcf", None, Scale::Test);
        let current = spec.run_key("alberta.1");
        assert_ne!(
            current,
            spec.run_key_versioned("alberta.1", SCHEMA_VERSION + 1, CODE_VERSION),
            "a schema bump must miss the cache"
        );
        assert_ne!(
            current,
            spec.run_key_versioned("alberta.1", SCHEMA_VERSION, "99.0.0"),
            "a code-version bump must miss the cache"
        );
    }

    #[test]
    fn workload_narrowing_shares_cache_lines() {
        let broad = RequestSpec::new("mcf", None, Scale::Test);
        let narrow = RequestSpec::new("mcf", Some("alberta.1"), Scale::Test);
        assert_eq!(broad.run_key("alberta.1"), narrow.run_key("alberta.1"));
    }
}
