//! Report comparison: the engine behind `bench-diff`.
//!
//! A diff separates findings into two severity classes:
//!
//! * **structural regressions** — a benchmark or workload present in
//!   the baseline vanished, a run's status got worse (`ok` →
//!   `degraded` → `failed`), a benchmark lost its summary, or the two
//!   reports were taken at different scales. These always fail: they
//!   mean the sweep no longer produces what it used to.
//! * **numeric deltas** — modelled refrate cycles, behaviour variation
//!   `μg(V)`, and coverage variation `μg(M)` moved. These fail only
//!   beyond a configurable threshold, because the modelled numbers
//!   shift legitimately when workloads or the machine model are
//!   retuned.
//!
//! Checksum changes are reported as warnings: a changed semantic
//! checksum with an unchanged status usually means a workload generator
//! was deliberately altered, which a human should confirm.

use crate::schema::{StatusKind, SuiteReport};
use crate::view::{format_table, Align};
use alberta_core::MemoryProfile;

/// Knobs for [`ReportDiff::compute`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative change (fraction, e.g. `0.05` for 5 %) above which a
    /// numeric delta counts as a regression.
    pub threshold: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        // 5 %: generous against float noise (the model is deterministic,
        // so any drift at all is a real change), tight enough to catch a
        // mistuned workload.
        DiffOptions { threshold: 0.05 }
    }
}

/// One benchmark's numeric comparison.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Benchmark short name.
    pub benchmark: String,
    /// Baseline → new modelled refrate cycles, when both exist.
    pub cycles: Option<(f64, f64)>,
    /// Baseline → new `μg(V)`, when both exist.
    pub mu_g_v: Option<(f64, f64)>,
    /// Baseline → new `μg(M)`, when both exist.
    pub mu_g_m: Option<(f64, f64)>,
    /// Largest absolute relative change across the memory sections
    /// (MPKI per level, row-buffer hit rate, DRAM bytes, footprint,
    /// MPKI curve) of the benchmark's runs present in both reports.
    pub memory: Option<f64>,
}

impl DeltaRow {
    /// The largest absolute relative change across the row's metrics.
    pub fn max_relative_change(&self) -> f64 {
        [self.cycles, self.mu_g_v, self.mu_g_m]
            .iter()
            .flatten()
            .map(|&(base, new)| relative_change(base, new).abs())
            .chain(self.memory)
            .fold(0.0, f64::max)
    }
}

/// Largest absolute relative change across two runs' memory sections.
/// Curve points are matched by swept size; a size present on only one
/// side counts as an infinite change (the sweep grid itself moved).
fn memory_drift(base: &MemoryProfile, new: &MemoryProfile) -> f64 {
    let scalars = [
        (base.l1_mpki, new.l1_mpki),
        (base.l2_mpki, new.l2_mpki),
        (base.l3_mpki, new.l3_mpki),
        (base.row_hit_rate, new.row_hit_rate),
        (base.dram_bytes, new.dram_bytes),
        (base.footprint_lines as f64, new.footprint_lines as f64),
        (base.footprint_pages as f64, new.footprint_pages as f64),
    ];
    let mut drift = scalars
        .iter()
        .map(|&(b, n)| relative_change(b, n).abs())
        .fold(0.0, f64::max);
    if base.mpki_curve.len() != new.mpki_curve.len()
        || base
            .mpki_curve
            .iter()
            .zip(&new.mpki_curve)
            .any(|(b, n)| b.size_bytes != n.size_bytes)
    {
        return f64::INFINITY;
    }
    for (b, n) in base.mpki_curve.iter().zip(&new.mpki_curve) {
        drift = drift.max(relative_change(b.mpki, n.mpki).abs());
    }
    drift
}

/// The outcome of comparing two reports.
#[derive(Debug, Clone)]
pub struct ReportDiff {
    /// Structural regressions: failures at any threshold.
    pub regressions: Vec<String>,
    /// Non-gating observations (improvements, additions, checksum
    /// changes).
    pub warnings: Vec<String>,
    /// Per-benchmark numeric comparison, in baseline order.
    pub rows: Vec<DeltaRow>,
    /// Geometric mean of per-benchmark `new/base` refrate-cycle ratios
    /// over benchmarks present in both reports.
    pub geo_mean_cycle_ratio: Option<f64>,
    threshold: f64,
}

fn relative_change(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - base) / base
    }
}

fn percent(base: f64, new: f64) -> String {
    let change = relative_change(base, new);
    if change.is_infinite() {
        "∞".to_owned()
    } else {
        format!("{:+.2}%", change * 100.0)
    }
}

impl ReportDiff {
    /// Compares `new` against `base`.
    pub fn compute(base: &SuiteReport, new: &SuiteReport, options: DiffOptions) -> Self {
        let mut regressions = Vec::new();
        let mut warnings = Vec::new();
        let mut rows = Vec::new();
        let mut cycle_ratios = Vec::new();

        if base.scale != new.scale {
            regressions.push(format!(
                "scale mismatch: baseline is {:?}, new report is {:?} — the numbers are not comparable",
                base.scale, new.scale
            ));
        }

        for bench in &base.benchmarks {
            let name = &bench.short_name;
            let Some(other) = new.benchmark(name) else {
                regressions.push(format!("benchmark {name}: missing from new report"));
                continue;
            };
            let mut memory: Option<f64> = None;
            for run in &bench.runs {
                let workload = &run.workload;
                let Some(new_run) = other.run(workload) else {
                    regressions.push(format!(
                        "{name}/{workload}: workload missing from new report"
                    ));
                    continue;
                };
                match new_run.status.rank().cmp(&run.status.rank()) {
                    std::cmp::Ordering::Greater => regressions.push(format!(
                        "{name}/{workload}: status worsened {} -> {}{}",
                        status_name(run.status),
                        status_name(new_run.status),
                        new_run
                            .error
                            .as_deref()
                            .map(|e| format!(" ({e})"))
                            .unwrap_or_default(),
                    )),
                    std::cmp::Ordering::Less => warnings.push(format!(
                        "{name}/{workload}: status improved {} -> {}",
                        status_name(run.status),
                        status_name(new_run.status),
                    )),
                    std::cmp::Ordering::Equal => {}
                }
                if let (Some(old_m), Some(new_m)) = (&run.measures, &new_run.measures) {
                    if old_m.checksum != new_m.checksum {
                        warnings.push(format!(
                            "{name}/{workload}: output checksum changed \
                             ({:#x} -> {:#x}) — workload semantics moved",
                            old_m.checksum, new_m.checksum,
                        ));
                    }
                    let drift = memory_drift(&old_m.memory, &new_m.memory);
                    memory = Some(memory.unwrap_or(0.0).max(drift));
                }
            }
            for new_run in &other.runs {
                if bench.run(&new_run.workload).is_none() {
                    warnings.push(format!(
                        "{name}/{}: new workload not in baseline",
                        new_run.workload
                    ));
                }
            }

            let row = match (&bench.summary, &other.summary) {
                (Some(old_s), Some(new_s)) => {
                    let cycles = match (old_s.refrate_cycles, new_s.refrate_cycles) {
                        (Some(b), Some(n)) => {
                            if b > 0.0 && n > 0.0 {
                                cycle_ratios.push(n / b);
                            }
                            Some((b, n))
                        }
                        (Some(_), None) => {
                            regressions.push(format!(
                                "{name}: refrate cycles lost (refrate run no longer survives)"
                            ));
                            None
                        }
                        _ => None,
                    };
                    DeltaRow {
                        benchmark: name.clone(),
                        cycles,
                        mu_g_v: Some((old_s.mu_g_v, new_s.mu_g_v)),
                        mu_g_m: Some((old_s.mu_g_m, new_s.mu_g_m)),
                        memory,
                    }
                }
                (Some(_), None) => {
                    regressions.push(format!(
                        "{name}: summary lost (every workload failed in the new report)"
                    ));
                    DeltaRow {
                        benchmark: name.clone(),
                        cycles: None,
                        mu_g_v: None,
                        mu_g_m: None,
                        memory,
                    }
                }
                _ => DeltaRow {
                    benchmark: name.clone(),
                    cycles: None,
                    mu_g_v: None,
                    mu_g_m: None,
                    memory,
                },
            };
            rows.push(row);
        }

        for bench in &new.benchmarks {
            if base.benchmark(&bench.short_name).is_none() {
                warnings.push(format!(
                    "benchmark {}: new, not in baseline",
                    bench.short_name
                ));
            }
        }

        // Same Eq. (1) implementation the characterization pipeline uses;
        // the ratios are positive by construction (both cycle counts > 0).
        let geo_mean_cycle_ratio = (!cycle_ratios.is_empty()).then(|| {
            alberta_stats::geometric_mean(&cycle_ratios).expect("cycle ratios are positive")
        });

        ReportDiff {
            regressions,
            warnings,
            rows,
            geo_mean_cycle_ratio,
            threshold: options.threshold,
        }
    }

    /// Benchmarks whose numeric drift exceeds the threshold.
    pub fn over_threshold(&self) -> Vec<&DeltaRow> {
        self.rows
            .iter()
            .filter(|r| r.max_relative_change() > self.threshold)
            .collect()
    }

    /// True when nothing changed at all: no regressions, no warnings,
    /// and every numeric delta is exactly zero.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
            && self.warnings.is_empty()
            && self.rows.iter().all(|r| r.max_relative_change() == 0.0)
    }

    /// Renders the human-readable comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = [
            "benchmark",
            "cycles (base)",
            "cycles (new)",
            "Δcycles",
            "Δμg(V)",
            "Δμg(M)",
            "max|Δmem|",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let pair = |p: Option<(f64, f64)>| match p {
            Some((b, n)) => percent(b, n),
            None => "—".to_owned(),
        };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    r.cycles
                        .map(|(b, _)| format!("{b:.0}"))
                        .unwrap_or_else(|| "—".to_owned()),
                    r.cycles
                        .map(|(_, n)| format!("{n:.0}"))
                        .unwrap_or_else(|| "—".to_owned()),
                    pair(r.cycles),
                    pair(r.mu_g_v),
                    pair(r.mu_g_m),
                    match r.memory {
                        Some(d) if d.is_infinite() => "∞".to_owned(),
                        Some(d) => format!("{:.2}%", d * 100.0),
                        None => "—".to_owned(),
                    },
                ]
            })
            .collect();
        out.push_str(&format_table(&header, &rows, Align::Right));
        if let Some(ratio) = self.geo_mean_cycle_ratio {
            out.push_str(&format!(
                "\ngeo-mean refrate cycle ratio (new/base): {ratio:.6} ({})\n",
                percent(1.0, ratio)
            ));
        }
        if !self.regressions.is_empty() {
            out.push_str("\nregressions:\n");
            for r in &self.regressions {
                out.push_str(&format!("  ✗ {r}\n"));
            }
        }
        if !self.warnings.is_empty() {
            out.push_str("\nwarnings:\n");
            for w in &self.warnings {
                out.push_str(&format!("  ! {w}\n"));
            }
        }
        out
    }
}

fn status_name(status: StatusKind) -> &'static str {
    match status {
        StatusKind::Ok => "ok",
        StatusKind::Degraded => "degraded",
        StatusKind::Failed => "failed",
    }
}
