//! The paper's artifacts, built from a report and rendered as text.
//!
//! This module is the only code that builds a paper artifact: Table I
//! ([`table1`]), Table II ([`table2`]), Figure 1 ([`fig1_series`]) and
//! Figure 2 ([`fig2_series`]), plus the memory views of a
//! [`MemoryDocument`]. Every builder reads a [`SuiteReport`], so a sweep
//! runs once (`bench-report`) and the rendering binaries print from the
//! saved document: the artifact on disk and the text on the terminal
//! cannot disagree. Callers that hold characterizations build the report
//! with [`SuiteReport::from_resilient`] first.
//!
//! Lost runs are annotated, never hidden: a Table II row over
//! fewer workloads than attempted reads `n of m` in its workload column,
//! a figure's benchmark label gains `(n of m workloads)`, and a lost
//! refrate run renders as `—`, never as a zero time. A benchmark that
//! lost every run has no summary and so no Table II row or figure.

use crate::mem::MemoryDocument;
use crate::schema::{BenchmarkReport, SuiteReport};
use alberta_core::specdata::{self, Table1Row};
use std::collections::BTreeMap;

/// Column alignment for [`format_table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right.
    Left,
    /// Pad on the left.
    Right,
}

/// Renders rows under a header with aligned, space-separated columns and
/// a separator rule. Ragged rows are padded with empty cells.
pub fn format_table(header: &[String], rows: &[Vec<String>], align: Align) -> String {
    let columns = header
        .len()
        .max(rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut widths = vec![0usize; columns];
    let measure = |widths: &mut Vec<usize>, row: &[String]| {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    };
    measure(&mut widths, header);
    for row in rows {
        measure(&mut widths, row);
    }
    let render_row = |row: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, width) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = row.get(i).unwrap_or(&empty);
            let pad = width - cell.chars().count();
            match align {
                Align::Left => {
                    line.push_str(cell);
                    line.extend(std::iter::repeat_n(' ', pad));
                }
                Align::Right => {
                    line.extend(std::iter::repeat_n(' ', pad));
                    line.push_str(cell);
                }
            }
            if i + 1 < widths.len() {
                line.push_str("  ");
            }
        }
        line.trim_end().to_owned()
    };
    let mut out = render_row(header, &widths);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders Table I: the paper's published columns plus the report's
/// modelled refrate cycles (in millions) for each SPEC 2017 benchmark
/// with a mini-benchmark analogue. The cell is `—` when that
/// benchmark's refrate run was lost, and empty when the report has no
/// such benchmark.
pub fn table1(report: &SuiteReport) -> String {
    let header = vec![
        "Application Area".to_owned(),
        "SPEC 2017".to_owned(),
        "SPEC 2006".to_owned(),
        "2017 s".to_owned(),
        "2006 s".to_owned(),
        "mini Mcyc".to_owned(),
    ];
    let mut rows = Vec::new();
    for row in &specdata::TABLE1 {
        let benchmark = table1_mini(row)
            .and_then(|name| report.benchmarks.iter().find(|b| b.short_name == name));
        let measured = match benchmark {
            Some(b) => b
                .summary
                .as_ref()
                .and_then(|s| s.refrate_cycles)
                .map_or_else(|| "—".to_owned(), |cycles| format!("{:.2}", cycles / 1e6)),
            None => String::new(),
        };
        rows.push(vec![
            row.area.to_owned(),
            row.spec2017.to_owned(),
            row.spec2006.to_owned(),
            row.time2017.map(|t| format!("{t:.0}")).unwrap_or_default(),
            row.time2006.map(|t| format!("{t:.0}")).unwrap_or_default(),
            measured,
        ]);
    }
    // The paper closes with the arithmetic average of the times.
    let avg = |sel: fn(&Table1Row) -> Option<f64>| -> f64 {
        let v: Vec<f64> = specdata::TABLE1.iter().filter_map(sel).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    rows.push(vec![
        "Arithmetic Average of Times".to_owned(),
        String::new(),
        String::new(),
        format!("{:.0}", avg(|r| r.time2017)),
        format!("{:.0}", avg(|r| r.time2006)),
        String::new(),
    ]);
    format_table(&header, &rows, Align::Left)
}

/// The mini-benchmark short name a Table I row maps to (`505.mcf_r` →
/// `mcf`), regardless of whether the suite implements it.
fn table1_mini(row: &Table1Row) -> Option<&str> {
    row.spec2017
        .split('.')
        .nth(1)
        .map(|s| s.trim_end_matches("_r"))
}

/// One measured row of the reproduced Table II.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Short benchmark name.
    pub benchmark: String,
    /// Workloads whose runs survived and entered the summaries.
    pub workloads: usize,
    /// Workloads attempted. Equals `workloads` for a clean sweep; larger
    /// when runs were lost, in which case the rendered row is annotated
    /// `n of m`.
    pub attempted: usize,
    /// `(μg, σg)` for front-end bound.
    pub f: (f64, f64),
    /// `(μg, σg)` for back-end bound.
    pub b: (f64, f64),
    /// `(μg, σg)` for bad speculation.
    pub s: (f64, f64),
    /// `(μg, σg)` for retiring.
    pub r: (f64, f64),
    /// `μg(V)`.
    pub mu_g_v: f64,
    /// `μg(M)`.
    pub mu_g_m: f64,
    /// Modelled refrate cycles (time analogue); `None` when the refrate
    /// run did not survive — rendered as `—`, never as a silent zero.
    pub refrate_cycles: Option<f64>,
}

/// The reproduced Table II.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Measured rows in Table II order.
    pub rows: Vec<MeasuredRow>,
}

/// Assembles Table II from a report, one row per benchmark with a
/// summary. A benchmark that lost every run has no summary and no row.
pub fn table2(report: &SuiteReport) -> Table2 {
    Table2 {
        rows: report.benchmarks.iter().filter_map(measured_row).collect(),
    }
}

fn measured_row(b: &BenchmarkReport) -> Option<MeasuredRow> {
    let s = b.summary.as_ref()?;
    Some(MeasuredRow {
        benchmark: b.short_name.clone(),
        workloads: b.survived(),
        attempted: b.attempted(),
        f: (s.front_end.geo_mean, s.front_end.geo_std),
        b: (s.back_end.geo_mean, s.back_end.geo_std),
        s: (s.bad_speculation.geo_mean, s.bad_speculation.geo_std),
        r: (s.retiring.geo_mean, s.retiring.geo_std),
        mu_g_v: s.mu_g_v,
        mu_g_m: s.mu_g_m,
        refrate_cycles: s.refrate_cycles,
    })
}

impl Table2 {
    /// Renders the measured table in the paper's layout.
    pub fn render(&self) -> String {
        let header = vec![
            "Benchmark".to_owned(),
            "#wl".to_owned(),
            "f μg%".to_owned(),
            "f σg".to_owned(),
            "b μg%".to_owned(),
            "b σg".to_owned(),
            "s μg%".to_owned(),
            "s σg".to_owned(),
            "r μg%".to_owned(),
            "r σg".to_owned(),
            "μg(V)".to_owned(),
            "μg(M)".to_owned(),
            "ref Mcyc".to_owned(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    if r.workloads < r.attempted {
                        format!("{} of {}", r.workloads, r.attempted)
                    } else {
                        r.workloads.to_string()
                    },
                    format!("{:.1}", r.f.0 * 100.0),
                    format!("{:.1}", r.f.1),
                    format!("{:.1}", r.b.0 * 100.0),
                    format!("{:.1}", r.b.1),
                    format!("{:.1}", r.s.0 * 100.0),
                    format!("{:.1}", r.s.1),
                    format!("{:.1}", r.r.0 * 100.0),
                    format!("{:.1}", r.r.1),
                    format!("{:.1}", r.mu_g_v),
                    format!("{:.1}", r.mu_g_m),
                    r.refrate_cycles
                        .map_or_else(|| "—".to_owned(), |c| format!("{:.2}", c / 1e6)),
                ]
            })
            .collect();
        format_table(&header, &rows, Align::Right)
    }

    /// Renders measured vs paper side by side for the headline columns.
    pub fn render_comparison(&self) -> String {
        let header = vec![
            "Benchmark".to_owned(),
            "#wl (paper)".to_owned(),
            "μg(V) meas".to_owned(),
            "μg(V) paper".to_owned(),
            "μg(M) meas".to_owned(),
            "μg(M) paper".to_owned(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let paper = specdata::paper_row(&r.benchmark);
                vec![
                    r.benchmark.clone(),
                    format!(
                        "{} ({})",
                        r.workloads,
                        paper.map(|p| p.workloads.to_string()).unwrap_or_default()
                    ),
                    format!("{:.1}", r.mu_g_v),
                    paper
                        .map(|p| format!("{:.1}", p.mu_g_v))
                        .unwrap_or_default(),
                    format!("{:.1}", r.mu_g_m),
                    paper
                        .map(|p| format!("{:.1}", p.mu_g_m))
                        .unwrap_or_default(),
                ]
            })
            .collect();
        format_table(&header, &rows, Align::Right)
    }

    /// Measured row by benchmark short name.
    pub fn row(&self, benchmark: &str) -> Option<&MeasuredRow> {
        self.rows.iter().find(|r| r.benchmark == benchmark)
    }
}

/// The benchmark label a figure carries: annotated `(n of m workloads)`
/// when runs were lost.
fn figure_label(b: &BenchmarkReport) -> String {
    let (n, m) = (b.survived(), b.attempted());
    if n < m {
        format!("{} ({n} of {m} workloads)", b.short_name)
    } else {
        b.short_name.clone()
    }
}

/// Figure 1 data: per-workload Top-Down stacks for one benchmark.
///
/// The paper plots `523.xalancbmk_r` (visibly workload-sensitive) beside
/// `557.xz_r` (visibly stable); [`fig1_series`] produces the series for
/// any benchmark of a report.
#[derive(Debug, Clone)]
pub struct Fig1Series {
    /// Benchmark label, annotated when runs were lost.
    pub benchmark: String,
    /// `(workload, [f, b, s, r])` per surviving workload.
    pub stacks: Vec<(String, [f64; 4])>,
}

/// Extracts the Figure 1 series (per-workload Top-Down stacks) for one
/// benchmark of a report. `None` when no run survived.
pub fn fig1_series(b: &BenchmarkReport) -> Option<Fig1Series> {
    let stacks: Vec<(String, [f64; 4])> = b
        .runs
        .iter()
        .filter_map(|r| Some((r.workload.clone(), r.measures.as_ref()?.ratios)))
        .collect();
    (!stacks.is_empty()).then(|| Fig1Series {
        benchmark: figure_label(b),
        stacks,
    })
}

impl Fig1Series {
    /// Renders the stacked bars as rows of `F`/`B`/`S`/`R` glyphs, forty
    /// columns per workload — a terminal rendition of the paper's plot.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Top-Down stacks for {} (F=front end, B=back end, S=bad speculation, R=retiring)\n",
            self.benchmark
        );
        const WIDTH: usize = 40;
        for (workload, stack) in &self.stacks {
            let mut bar = String::with_capacity(WIDTH);
            let glyphs = ['F', 'B', 'S', 'R'];
            let mut assigned = 0;
            for (k, &fraction) in stack.iter().enumerate() {
                let cells = if k == stack.len() - 1 {
                    WIDTH - assigned
                } else {
                    (fraction * WIDTH as f64).round() as usize
                };
                let cells = cells.min(WIDTH - assigned);
                bar.extend(std::iter::repeat_n(glyphs[k], cells));
                assigned += cells;
            }
            out.push_str(&format!("{workload:>24} |{bar}|\n"));
        }
        out
    }

    /// Renders the numeric series (one row per workload).
    pub fn render_numeric(&self) -> String {
        let header = vec![
            "workload".to_owned(),
            "front-end".to_owned(),
            "back-end".to_owned(),
            "bad-spec".to_owned(),
            "retiring".to_owned(),
        ];
        let rows: Vec<Vec<String>> = self
            .stacks
            .iter()
            .map(|(w, s)| {
                let mut row = vec![w.clone()];
                row.extend(s.iter().map(|v| format!("{:.3}", v)));
                row
            })
            .collect();
        format_table(&header, &rows, Align::Right)
    }

    /// Mean absolute per-category deviation across workloads — a simple
    /// visual-variation score used by the shape tests.
    pub fn visual_variation(&self) -> f64 {
        if self.stacks.is_empty() {
            return 0.0;
        }
        let n = self.stacks.len() as f64;
        let mut mean = [0.0f64; 4];
        for (_, s) in &self.stacks {
            for (m, v) in mean.iter_mut().zip(s) {
                *m += v / n;
            }
        }
        let mut dev = 0.0;
        for (_, s) in &self.stacks {
            for (m, v) in mean.iter().zip(s) {
                dev += (v - m).abs();
            }
        }
        dev / n
    }
}

/// Figure 2 data: per-workload method coverage for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig2Series {
    /// Benchmark label, annotated when runs were lost.
    pub benchmark: String,
    /// Method names (columns), hottest overall first.
    pub methods: Vec<String>,
    /// `(workload, per-method percent)` rows, parallel to `methods`.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Extracts the Figure 2 series (per-workload method coverage) for one
/// benchmark of a report. Methods come hottest overall first; equal
/// totals keep alphabetical order. `None` when no run survived.
pub fn fig2_series(b: &BenchmarkReport) -> Option<Fig2Series> {
    let survivors: Vec<_> = b
        .runs
        .iter()
        .filter_map(|r| Some((r.workload.clone(), r.measures.as_ref()?)))
        .collect();
    if survivors.is_empty() {
        return None;
    }
    let mut totals: BTreeMap<&str, f64> = Default::default();
    for (_, m) in &survivors {
        for (method, pct) in &m.coverage {
            *totals.entry(method.as_str()).or_default() += pct;
        }
    }
    // A stable sort over the alphabetical keys is the tie-break. Totals
    // are sums of finite percentages, which cannot be NaN.
    let mut methods: Vec<String> = totals.keys().map(|s| (*s).to_owned()).collect();
    methods.sort_by(|a, b| {
        totals[b.as_str()]
            .partial_cmp(&totals[a.as_str()])
            .expect("finite totals")
    });
    let rows = survivors
        .iter()
        .map(|(workload, m)| {
            (
                workload.clone(),
                methods
                    .iter()
                    .map(|method| m.coverage.get(method).copied().unwrap_or(0.0))
                    .collect(),
            )
        })
        .collect();
    Some(Fig2Series {
        benchmark: figure_label(b),
        methods,
        rows,
    })
}

impl Fig2Series {
    /// Renders the coverage matrix as an aligned table.
    pub fn render(&self) -> String {
        let mut header = vec!["workload".to_owned()];
        header.extend(self.methods.iter().cloned());
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(w, pcts)| {
                let mut row = vec![w.clone()];
                row.extend(pcts.iter().map(|p| format!("{p:.1}")));
                row
            })
            .collect();
        format!(
            "Method coverage (% of work) for {}\n{}",
            self.benchmark,
            format_table(&header, &rows, Align::Right)
        )
    }

    /// Per-method range (max − min percent across workloads) — the
    /// quantity the paper's bar plots make visible.
    pub fn method_ranges(&self) -> Vec<(String, f64)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(j, m)| {
                let col: Vec<f64> = self.rows.iter().map(|(_, p)| p[j]).collect();
                let max = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let min = col.iter().cloned().fold(f64::INFINITY, f64::min);
                (m.clone(), max - min)
            })
            .collect()
    }
}

/// Renders the per-run memory characterization table from a memory
/// document: MPKI per cache level, DRAM row-buffer hit rate, bytes read
/// from DRAM, and the exact footprint. Deterministic — same bytes for
/// the same document.
pub fn render_memory_table(doc: &MemoryDocument) -> String {
    let header: Vec<String> = [
        "benchmark",
        "workload",
        "L1 MPKI",
        "L2 MPKI",
        "L3 MPKI",
        "row-hit %",
        "DRAM KiB",
        "lines",
        "pages",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let rows: Vec<Vec<String>> = doc
        .rows
        .iter()
        .map(|row| {
            let m = &row.memory;
            vec![
                row.benchmark.clone(),
                row.workload.clone(),
                format!("{:.3}", m.l1_mpki),
                format!("{:.3}", m.l2_mpki),
                format!("{:.3}", m.l3_mpki),
                format!("{:.1}", m.row_hit_rate * 100.0),
                format!("{:.1}", m.dram_bytes / 1024.0),
                m.footprint_lines.to_string(),
                m.footprint_pages.to_string(),
            ]
        })
        .collect();
    format_table(&header, &rows, Align::Right)
}

/// Renders the MPKI-vs-cache-size curves of a memory document, one line
/// per run: the working-set view the paper's cache-sensitivity analysis
/// reads off. Sizes are annotated in KiB/MiB; each point is the MPKI a
/// cache of that capacity (fixed line size and associativity) would
/// have seen over the same replayed address stream.
pub fn render_mpki_curves(doc: &MemoryDocument) -> String {
    let size_label = |bytes: u64| {
        if bytes >= 1 << 20 {
            format!("{}M", bytes >> 20)
        } else {
            format!("{}K", bytes >> 10)
        }
    };
    let sizes: Vec<u64> = doc
        .rows
        .first()
        .map(|row| row.memory.mpki_curve.iter().map(|p| p.size_bytes).collect())
        .unwrap_or_default();
    let mut header = vec!["benchmark".to_owned(), "workload".to_owned()];
    header.extend(sizes.iter().map(|&s| size_label(s)));
    let rows: Vec<Vec<String>> = doc
        .rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.benchmark.clone(), row.workload.clone()];
            cells.extend(
                row.memory
                    .mpki_curve
                    .iter()
                    .map(|p| format!("{:.3}", p.mpki)),
            );
            cells
        })
        .collect();
    format_table(&header, &rows, Align::Right)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn columns_align_right() {
        let t = format_table(
            &s(&["name", "value"]),
            &[s(&["a", "1"]), s(&["long", "12345"])],
            Align::Right,
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("value"));
        assert!(lines[2].ends_with("    1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn columns_align_left() {
        let t = format_table(&s(&["h1", "h2"]), &[s(&["aa", "b"])], Align::Left);
        assert!(t.starts_with("h1"));
        assert!(t.contains("aa"));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let t = format_table(&s(&["a", "b", "c"]), &[s(&["1"])], Align::Right);
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn separator_spans_all_columns() {
        let t = format_table(&s(&["aa", "bb"]), &[], Align::Left);
        let sep = t.lines().nth(1).unwrap();
        assert!(sep.chars().all(|c| c == '-'));
        assert_eq!(sep.len(), 2 + 2 + 2);
    }
}
