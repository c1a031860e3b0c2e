//! Round-trip and self-diff properties of the report schema.
//!
//! The central invariant the whole observability layer leans on:
//! `emit → parse → emit` is the identity on bytes. CI compares report
//! files with `cmp`, so any instability in the serialization —
//! float formatting, field ordering, escaping — would show up as
//! phantom regressions. The generator below deliberately sweeps the
//! awkward corners: full-range `u64` checksums (beyond 2^53), integral
//! floats that render like integers, empty coverage maps, names that
//! need escaping, and both telemetry-bearing and canonical records.

use alberta_core::{MemoryProfile, MpkiPoint};
use alberta_report::{
    view, BenchmarkReport, CacheDocument, CategoryRecord, DiffOptions, HotPathRecord,
    MeasureRecord, MemoryDocument, MetricsDocument, ReportDiff, ReportError, RunRecord,
    SamplingRecord, StatusKind, StormReport, SuiteReport, SummaryRecord, SCHEMA_VERSION,
};
use alberta_workloads::Scale;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Characters a generated name can contain — including ones the JSON
/// string escaper must handle (quote, backslash, newline, control,
/// non-ASCII).
const NAME_CHARS: &[char] = &[
    'a', 'b', 'z', 'Q', '0', '9', '_', '.', '-', ' ', '"', '\\', '\n', '\t', '\u{1}', 'μ', '→',
    '🦀',
];

fn arb_name(rng: &mut TestRng, prefix: &str, index: usize) -> String {
    let len = rng.below(8) as usize;
    let tail: String = (0..len)
        .map(|_| NAME_CHARS[rng.below(NAME_CHARS.len() as u64) as usize])
        .collect();
    // The index keeps names unique within their parent: duplicate
    // workloads would make map-style lookups ambiguous, which the diff
    // layer (reasonably) does not support.
    format!("{prefix}{index}{tail}")
}

/// A finite float sweeping the representational corners: zero, exact
/// integers (which render without a decimal point and re-parse as
/// integers), small reals, and large-magnitude values.
fn arb_f64(rng: &mut TestRng) -> f64 {
    match rng.below(5) {
        0 => 0.0,
        1 => rng.below(10_000) as f64,
        2 => -(rng.below(1_000) as f64),
        3 => rng.unit() * 2e9,
        _ => (rng.unit() - 0.5) * (rng.unit() * 60.0).exp2(),
    }
}

fn arb_scale(rng: &mut TestRng) -> Scale {
    match rng.below(3) {
        0 => Scale::Test,
        1 => Scale::Train,
        _ => Scale::Ref,
    }
}

fn arb_measures(rng: &mut TestRng) -> MeasureRecord {
    let mut coverage = BTreeMap::new();
    for i in 0..rng.below(4) {
        coverage.insert(arb_name(rng, "m", i as usize), arb_f64(rng));
    }
    MeasureRecord {
        ratios: [arb_f64(rng), arb_f64(rng), arb_f64(rng), arb_f64(rng)],
        cycles: arb_f64(rng),
        ipc: arb_f64(rng),
        retired_ops: rng.next_u64(),
        work: rng.next_u64(),
        checksum: rng.next_u64(),
        coverage,
        memory: arb_memory(rng),
    }
}

fn arb_memory(rng: &mut TestRng) -> MemoryProfile {
    MemoryProfile {
        l1_mpki: arb_f64(rng),
        l2_mpki: arb_f64(rng),
        l3_mpki: arb_f64(rng),
        row_hit_rate: rng.unit(),
        dram_bytes: arb_f64(rng),
        footprint_lines: rng.next_u64(),
        footprint_pages: rng.next_u64(),
        mpki_curve: (0..rng.below(4))
            .map(|i| MpkiPoint {
                size_bytes: 1 << (14 + i),
                mpki: arb_f64(rng),
            })
            .collect(),
    }
}

fn arb_run(rng: &mut TestRng, index: usize) -> RunRecord {
    let status = match rng.below(4) {
        0 => StatusKind::Degraded,
        1 => StatusKind::Failed,
        _ => StatusKind::Ok,
    };
    let telemetry = rng.below(2) == 0;
    RunRecord {
        workload: arb_name(rng, "w", index),
        status,
        error: (status != StatusKind::Ok).then(|| arb_name(rng, "err", 0)),
        retried_at: (status == StatusKind::Degraded).then(|| arb_scale(rng)),
        retries: rng.below(3) as u32,
        budget_consumed: rng.next_u64(),
        wall_nanos: telemetry.then(|| rng.next_u64()),
        start_nanos: telemetry.then(|| rng.next_u64()),
        worker: telemetry.then(|| rng.below(64)),
        dispatches: telemetry.then(|| 1 + (rng.below(3) as u32)),
        // The schema requires measures for ok runs, forbids nothing for
        // degraded ones, and failed runs have nothing to measure.
        measures: match status {
            StatusKind::Ok => Some(arb_measures(rng)),
            StatusKind::Degraded => (rng.below(2) == 0).then(|| arb_measures(rng)),
            StatusKind::Failed => None,
        },
        sampling: (rng.below(3) == 0).then(|| SamplingRecord {
            interval_work: rng.below(1 << 20).max(1),
            intervals: rng.below(512),
            clusters: rng.below(16),
            detailed_ops: rng.next_u64(),
            total_ops: rng.next_u64(),
            estimate_error: (rng.below(2) == 0).then(|| rng.unit() * 0.25),
        }),
    }
}

fn arb_category(rng: &mut TestRng) -> CategoryRecord {
    CategoryRecord {
        geo_mean: arb_f64(rng),
        geo_std: arb_f64(rng),
        variation: arb_f64(rng),
    }
}

fn arb_benchmark(rng: &mut TestRng, index: usize) -> BenchmarkReport {
    let runs: Vec<RunRecord> = (0..rng.below(5) as usize)
        .map(|i| arb_run(rng, i))
        .collect();
    let summary = (rng.below(4) != 0).then(|| SummaryRecord {
        workloads: runs.len() as u64,
        front_end: arb_category(rng),
        back_end: arb_category(rng),
        bad_speculation: arb_category(rng),
        retiring: arb_category(rng),
        mu_g_v: arb_f64(rng),
        mu_g_m: arb_f64(rng),
        refrate_cycles: (rng.below(3) != 0).then(|| rng.unit() * 1e10 + 1.0),
    });
    let hot_paths = (rng.below(3) == 0).then(|| {
        (0..rng.below(4) as usize)
            .map(|i| HotPathRecord {
                path: format!("{0};{0}_kernel{1}", arb_name(rng, "f", i), i),
                exclusive: rng.next_u64(),
                calls: rng.next_u64(),
            })
            .collect()
    });
    BenchmarkReport {
        spec_id: arb_name(rng, "5", index),
        short_name: arb_name(rng, "b", index),
        runs,
        summary,
        hot_paths,
    }
}

fn arb_report(rng: &mut TestRng) -> SuiteReport {
    SuiteReport {
        schema_version: SCHEMA_VERSION,
        scale: arb_scale(rng),
        benchmarks: (0..rng.below(5) as usize)
            .map(|i| arb_benchmark(rng, i))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// emit → parse → emit is the identity on bytes, and parse
    /// reconstructs the exact in-memory document.
    #[test]
    fn emit_parse_emit_is_byte_identity(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let report = arb_report(&mut rng);
        let text = report.to_json();
        let parsed = SuiteReport::parse(&text)
            .unwrap_or_else(|e| panic!("emitted report must parse: {e}\n{text}"));
        prop_assert_eq!(&parsed, &report);
        prop_assert_eq!(parsed.to_json(), text);
    }

    /// Stripping telemetry is idempotent and never breaks the
    /// round-trip.
    #[test]
    fn stripped_reports_round_trip_too(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut report = arb_report(&mut rng);
        report.strip_telemetry();
        let mut twice = report.clone();
        twice.strip_telemetry();
        prop_assert_eq!(&twice, &report);
        let text = report.to_json();
        prop_assert_eq!(SuiteReport::parse(&text).expect("parses").to_json(), text);
    }

    /// A report diffed against itself is clean: no regressions, no
    /// warnings, every numeric delta exactly zero.
    #[test]
    fn self_diff_is_clean(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let report = arb_report(&mut rng);
        let diff = ReportDiff::compute(&report, &report, DiffOptions::default());
        prop_assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        prop_assert!(diff.warnings.is_empty(), "{:?}", diff.warnings);
        prop_assert!(diff.over_threshold().is_empty());
        prop_assert!(diff.is_clean());
        if let Some(ratio) = diff.geo_mean_cycle_ratio {
            prop_assert!((ratio - 1.0).abs() < 1e-12);
        }
    }

    /// The renderers never panic on a parsed report: the rendering
    /// binaries print from bytes read off disk, so every `view` builder
    /// and `render*` method must cope with anything the schema admits.
    #[test]
    fn views_render_any_parsed_report(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut report = arb_report(&mut rng);
        // Give Table I a measured cell to fill now and then.
        if let Some(b) = report.benchmarks.first_mut() {
            if rng.below(2) == 0 {
                b.short_name = "xz".to_owned();
            }
        }
        let report = SuiteReport::parse(&report.to_json()).expect("emitted report parses");
        prop_assert!(view::table1(&report).contains("Arithmetic Average"));
        let table = view::table2(&report);
        table.render();
        table.render_comparison();
        for b in &report.benchmarks {
            if let Some(series) = view::fig1_series(b) {
                series.render();
                series.render_numeric();
                series.visual_variation();
            }
            if let Some(series) = view::fig2_series(b) {
                series.render();
                series.method_ranges();
            }
        }
        let memory = MemoryDocument::from_report(&report);
        view::render_memory_table(&memory);
        view::render_mpki_curves(&memory);
    }
}

#[test]
fn future_schema_version_is_rejected_with_clear_error() {
    let doc = r#"{
  "schema_version": 3,
  "scale": "test",
  "benchmarks": []
}
"#;
    match SuiteReport::parse(doc) {
        Err(ReportError::UnsupportedVersion { found: 3 }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let message = SuiteReport::parse(doc).unwrap_err().to_string();
    assert!(
        message.contains("schema_version 3") && message.contains("version 2"),
        "error must name both versions: {message}"
    );
}

#[test]
fn version_gate_fires_before_structural_validation() {
    // Everything about this document is wrong except that it is JSON —
    // the version check must win, because field meanings are undefined
    // for unknown versions. Every versioned document shares the gate.
    let doc = r#"{"schema_version": 99, "nonsense": true}"#;
    let outcomes = [
        ("SuiteReport", SuiteReport::parse(doc).err()),
        ("MemoryDocument", MemoryDocument::parse(doc).err()),
        ("CacheDocument", CacheDocument::parse(doc).err()),
        ("StormReport", StormReport::parse(doc).err()),
        ("MetricsDocument", MetricsDocument::parse(doc).err()),
    ];
    for (document, outcome) in outcomes {
        match outcome {
            Some(ReportError::UnsupportedVersion { found: 99 }) => {}
            other => panic!("{document}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn missing_schema_version_is_a_schema_error() {
    let doc = r#"{"scale": "test", "benchmarks": []}"#;
    match SuiteReport::parse(doc) {
        Err(ReportError::Schema { message }) => {
            assert!(message.contains("schema_version"), "{message}");
        }
        other => panic!("expected Schema error, got {other:?}"),
    }
}

#[test]
fn ok_run_without_measures_is_rejected() {
    let doc = r#"{
  "schema_version": 2,
  "scale": "test",
  "benchmarks": [
    {
      "spec_id": "505.mcf_r",
      "short_name": "mcf",
      "runs": [
        {"workload": "train", "status": "ok", "retries": 0, "budget_consumed": 1}
      ]
    }
  ]
}
"#;
    match SuiteReport::parse(doc) {
        Err(ReportError::Schema { message }) => assert!(message.contains("measures"), "{message}"),
        other => panic!("expected Schema error, got {other:?}"),
    }
}
