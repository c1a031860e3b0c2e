//! The metrics the benchmark prints, and the result line.
//!
//! Every name here is declared in `BENCHMARK.json` with the same unit;
//! a test keeps the two in step.

use crate::stats::{median, percentile};
use alberta_core::json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A
/// layer a workload does not exercise reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("profile.exec_s", "s"),
    ("profile.exec_ns_per_op", "ns/op"),
    ("profile.capture_s", "s"),
    ("profile.finish_s", "s"),
    ("profile.retired_ops", "count"),
    ("profile.events_offered", "count"),
    ("profile.events_kept", "count"),
    ("profile.decimations", "count"),
    ("uarch.replay_s", "s"),
    ("uarch.ns_per_event", "ns/event"),
    ("uarch.predictor_s", "s"),
    ("uarch.hierarchy_s", "s"),
    ("uarch.mpki_ladder_s", "s"),
    ("uarch.branches", "count"),
    ("uarch.mem_accesses", "count"),
    ("uarch.calls", "count"),
    ("sampling.pilot_s", "s"),
    ("sampling.plan_s", "s"),
    ("sampling.detail_s", "s"),
    ("sampling.estimate_s", "s"),
    ("sampling.fallback_runs", "count"),
    ("sampling.work_saved", "ratio"),
    ("sampling.err_pp", "pp"),
    ("process.busy_s", "s"),
    ("process.utilization", "ratio"),
    ("process.dispatches", "count"),
    ("process.codec_ms", "ms"),
    ("process.codec_bytes", "bytes"),
    ("stats.summarize_ms", "ms"),
    ("report.encode_ms", "ms"),
    ("report.bytes", "bytes"),
    ("serve.resolve_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.response_bytes", "bytes"),
    ("serve.fill_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up durations in seconds, one list per window of repetitions:
    /// one window before the timed phase and one after it.
    pub setup_s: Vec<Vec<f64>>,
    /// One entry per timed pass over the workload's fixed unit of work:
    /// its duration in seconds, split into the parts the pass runs one
    /// after another. Every pass has the same parts in the same order:
    /// the sweep's runs or the grid's `analyze` calls, then the rest of
    /// the pass. A pass whose ops overlap in time is one part.
    pub passes: Vec<Vec<f64>>,
    /// Ops one pass completes.
    pub ops_per_pass: usize,
    /// Latencies of the ops a caller waits for, in seconds, one list per
    /// timed pass: `analyze` calls or requests. Empty when the caller
    /// waits for the whole pass, as on the sweeps.
    pub latency_s: Vec<Vec<f64>>,
    /// Whether the `i`-th latency of every pass is the same operation (a
    /// replay grid's calls). Its latency is then its fastest over the
    /// passes; otherwise every latency is a sample of its own.
    pub latency_aligned: bool,
    /// What an op is: runs, analyze calls, requests.
    pub op_kind: &'static str,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed or failed their output check.
    pub failed: u64,
    /// Peak resident set of the benchmark process or its workers, KiB.
    pub peak_rss_kb: u64,
    /// Output-check failures, each naming the workload and run.
    pub problems: Vec<String>,
    /// Lines printed beside the metrics, never gated.
    pub diagnostics: Vec<(String, String)>,
}

impl Measured {
    /// Each timed pass's duration, in seconds.
    pub fn pass_s(&self) -> Vec<f64> {
        self.passes.iter().map(|parts| parts.iter().sum()).collect()
    }

    /// One pass's duration made of each part's fastest time over the
    /// passes. The host's slow spells only ever add time, so a part's
    /// fastest time is the one they inflated least. With one part per
    /// pass this is the fastest pass.
    pub fn wall_s(&self) -> f64 {
        fastest(&self.passes).iter().sum()
    }

    /// The latency samples percentiles are taken over, in milliseconds;
    /// [`Measured::wall_s`] when the caller waits for the whole pass.
    pub fn latency_samples_ms(&self) -> Vec<f64> {
        let seconds = if self.latency_s.is_empty() {
            vec![self.wall_s()]
        } else if self.latency_aligned {
            fastest(&self.latency_s)
        } else {
            self.latency_s.concat()
        };
        seconds.into_iter().map(|s| s * 1e3).collect()
    }

    /// The end-to-end metrics: `(name, value, unit, samples)`.
    /// `setup_s` is the faster window's median: a window that fell in
    /// one of the host's slow spells overstates set-up, so `setup_s` is
    /// slow only when both did. `ops_per_s` is the ops of a pass over
    /// `wall_s`.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        let wall_s = self.wall_s();
        let ops_per_s = if wall_s > 0.0 {
            self.ops_per_pass as f64 / wall_s
        } else {
            0.0
        };
        let setup_s = self
            .setup_s
            .iter()
            .filter(|window| !window.is_empty())
            .map(|window| median(window))
            .reduce(f64::min)
            .unwrap_or(0.0);
        let passes = self.passes.len();
        let ms = self.latency_samples_ms();
        let op_samples = if self.latency_s.is_empty() {
            passes
        } else {
            ms.len()
        };
        let values = [
            (setup_s, self.setup_s.iter().map(Vec::len).sum()),
            (wall_s, passes),
            (ops_per_s, passes),
            (percentile(&ms, 50.0), op_samples),
            (self.peak_rss_kb as f64 / 1024.0, 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| (name, value, unit, samples))
            .collect()
    }
}

/// Each part's fastest time over the passes, where the `i`-th entry of
/// every pass is the same part.
pub fn fastest(passes: &[Vec<f64>]) -> Vec<f64> {
    let parts = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..parts)
        .map(|i| {
            passes
                .iter()
                .map(|pass| pass[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Per-layer metric values, all declared names present.
#[derive(Debug, Clone)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
}

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics {
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            notes: BTreeMap::new(),
        }
    }
}

impl LayerMetrics {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// On an undeclared name: a typo here is a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        *slot = value;
    }

    /// Sets a ratio metric and records its numerator and denominator,
    /// which are printed beside it. A zero denominator reads zero.
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64, how: &str) {
        self.set(name, if den == 0.0 { 0.0 } else { num / den });
        self.notes
            .insert(name, format!("{how}: {num:.6} / {den:.6}"));
    }

    /// The metrics in declaration order: `(name, value, unit, note)`.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str, Option<&str>)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    self.values[name],
                    unit,
                    self.notes.get(name).map(String::as_str),
                )
            })
            .collect()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), finite(value)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(attempted)),
        ("failed".to_owned(), Value::UInt(failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
    .render_compact()
}

/// JSON has no NaN or infinity; a degenerate value reads zero.
fn finite(value: f64) -> Value {
    Value::Float(if value.is_finite() { value } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_core::json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_with_its_unit() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let measured = Measured {
            // Window medians 0.25 and 0.2: the faster window counts.
            setup_s: vec![vec![0.3, 0.2, 0.25], vec![0.2, 0.1, 0.3]],
            passes: vec![vec![2.0], vec![3.0], vec![1.0]],
            ops_per_pass: 40,
            latency_s: vec![vec![0.01; 40], vec![0.01; 40], vec![0.01; 40]],
            peak_rss_kb: 2048,
            ..Measured::default()
        };
        let rows: Vec<_> = measured
            .end_to_end()
            .into_iter()
            .map(|(n, v, u, _)| (n, v, u))
            .collect();
        let line = result_line(true, 40, 0, &rows);
        let doc = json::parse(&line).expect("result line is JSON");
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(40));
        let metric = |n: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(n))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .expect(n)
        };
        assert_eq!(metric("setup_s"), 0.2);
        assert_eq!(metric("wall_s"), 1.0);
        assert_eq!(metric("ops_per_s"), 40.0);
        assert_eq!(metric("op_p50_ms"), 10.0);
        assert_eq!(metric("peak_rss_mb"), 2.0);

        let layers = LayerMetrics::default();
        let rows: Vec<_> = layers
            .rows()
            .into_iter()
            .map(|(n, v, u, _)| (n, v, u))
            .collect();
        assert_eq!(rows.len(), PER_LAYER.len());
    }

    #[test]
    fn each_part_and_aligned_op_keeps_its_fastest_time() {
        // Part 0 is fastest in the second pass, part 1 in the first.
        let aligned = Measured {
            passes: vec![vec![0.3, 0.1], vec![0.2, 0.4], vec![0.5, 0.2]],
            latency_s: vec![vec![0.001, 0.010], vec![0.003, 0.030], vec![0.002, 0.020]],
            latency_aligned: true,
            ..Measured::default()
        };
        assert!((aligned.wall_s() - 0.3).abs() < 1e-12);
        assert_eq!(aligned.pass_s().len(), 3);
        assert_eq!(aligned.latency_samples_ms(), vec![1.0, 10.0]);

        let pooled = Measured {
            latency_s: aligned.latency_s.clone(),
            ..Measured::default()
        };
        assert_eq!(pooled.latency_samples_ms().len(), 6);

        // A caller waiting for the whole pass waits `wall_s`.
        let whole = Measured {
            passes: vec![vec![2.5], vec![2.0]],
            ..Measured::default()
        };
        assert_eq!(whole.latency_samples_ms(), vec![2000.0]);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_layer_metric_is_a_bug() {
        LayerMetrics::default().set("profile.exec_ms", 1.0);
    }
}
