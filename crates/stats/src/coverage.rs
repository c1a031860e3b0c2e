//! Method-coverage variation summarization — Section V-C, Eq. (5).
//!
//! *Method coverage* is the percentage of execution time (here: attributed
//! work) spent in each method. [`CoverageMatrix`] holds one row per workload
//! and one column per method; [`CoverageSummary`] applies the paper's
//! recipe:
//!
//! 1. methods that account for less than 0.05% of the time in *all*
//!    workloads are folded into an `others` category;
//! 2. 0.01 (percentage points) is added to every fraction so the geometric
//!    mean is defined when a method gets zero time under some workload;
//! 3. per-method `V(mⱼ) = σg/μg` is computed across workloads;
//! 4. `μg(M)` is the geometric mean of the `V(mⱼ)`.

use crate::geometric::{geometric_mean, geometric_std};
use crate::StatsError;
use std::collections::{BTreeMap, BTreeSet};

/// Threshold (in percent) below which a method is folded into `others`
/// when it stays below it for every workload.
pub(crate) const OTHERS_THRESHOLD_PERCENT: f64 = 0.05;

/// Offset (in percentage points) added to every time fraction before taking
/// logarithms, exactly as in the paper.
pub(crate) const COVERAGE_EPSILON: f64 = 0.01;

/// Name of the synthetic bucket that absorbs insignificant methods.
pub(crate) const OTHERS: &str = "others";

/// Per-workload method coverage: method name → percentage of time, for a
/// set of workloads of one benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageMatrix {
    rows: Vec<(String, BTreeMap<String, f64>)>,
}

impl CoverageMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one workload's coverage row.
    ///
    /// `percentages` maps method name → percent of execution time. Rows need
    /// not mention every method; missing methods are treated as 0%. A method
    /// listed more than once has its percentages accumulated.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotFinite`] if any percentage is NaN/infinite
    /// or [`StatsError::NonPositive`] if negative.
    pub fn push_workload<I, S>(&mut self, workload: &str, percentages: I) -> Result<(), StatsError>
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        let mut row = BTreeMap::new();
        for (index, (name, pct)) in percentages.into_iter().enumerate() {
            if !pct.is_finite() {
                return Err(StatsError::NotFinite { index });
            }
            if pct < 0.0 {
                return Err(StatsError::NonPositive { index });
            }
            *row.entry(name.into()).or_insert(0.0) += pct;
        }
        self.rows.push((workload.to_owned(), row));
        Ok(())
    }

    /// Number of workload rows.
    pub(crate) fn workload_count(&self) -> usize {
        self.rows.len()
    }

    /// The union of method names across all rows, sorted.
    pub(crate) fn method_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .rows
            .iter()
            .flat_map(|(_, row)| row.keys().map(String::as_str))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Coverage of `method` for each workload (0 when absent), in row order.
    pub(crate) fn column(&self, method: &str) -> Vec<f64> {
        self.rows
            .iter()
            .map(|(_, row)| row.get(method).copied().unwrap_or(0.0))
            .collect()
    }

    /// Folds methods below [`OTHERS_THRESHOLD_PERCENT`] in every workload
    /// into a single [`OTHERS`] column, returning the reduced matrix.
    pub(crate) fn fold_others(&self) -> CoverageMatrix {
        // Compute the method union once: it allocates and sorts every
        // method name, so recomputing it per workload row is quadratic in
        // the matrix size.
        let all_methods = self.method_names();
        let significant: BTreeSet<&str> = all_methods
            .iter()
            .copied()
            .filter(|method| {
                self.column(method)
                    .iter()
                    .any(|&p| p >= OTHERS_THRESHOLD_PERCENT)
            })
            .collect();
        let any_folded = significant.len() < all_methods.len();
        let mut folded = CoverageMatrix::new();
        for (workload, row) in &self.rows {
            let mut new_row: BTreeMap<String, f64> = BTreeMap::new();
            let mut others = 0.0;
            for (method, pct) in row {
                if significant.contains(method.as_str()) {
                    new_row.insert(method.clone(), *pct);
                } else {
                    others += pct;
                }
            }
            if others > 0.0 || any_folded {
                new_row.insert(OTHERS.to_owned(), others);
            }
            folded.rows.push((workload.clone(), new_row));
        }
        folded
    }
}

/// Per-method and aggregate coverage-variation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSummary {
    /// `(method, μg, σg, V)` per significant method (plus `others`).
    pub methods: Vec<MethodVariation>,
    /// Eq. (5): `μg(M)`, geometric mean of the per-method variations.
    pub mu_g_m: f64,
}

/// Variation statistics for a single method across workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodVariation {
    /// Method name (or `OTHERS`).
    pub method: String,
    /// Geometric mean of the (offset) time percentage.
    pub geo_mean: f64,
    /// Geometric standard deviation.
    pub geo_std: f64,
    /// Proportional variation `σg/μg`.
    pub variation: f64,
}

impl CoverageSummary {
    /// Applies the paper's Eq. (5) recipe to a coverage matrix.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] when the matrix has no workloads or no
    /// methods.
    ///
    /// # Examples
    ///
    /// ```
    /// use alberta_stats::{CoverageMatrix, CoverageSummary};
    ///
    /// # fn main() -> Result<(), alberta_stats::StatsError> {
    /// let mut m = CoverageMatrix::new();
    /// m.push_workload("w0", [("search", 70.0), ("eval", 30.0)])?;
    /// m.push_workload("w1", [("search", 50.0), ("eval", 50.0)])?;
    /// let s = CoverageSummary::from_matrix(&m)?;
    /// assert!(s.mu_g_m > 0.0 && s.mu_g_m.is_finite());
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_matrix(matrix: &CoverageMatrix) -> Result<Self, StatsError> {
        if matrix.workload_count() == 0 {
            return Err(StatsError::Empty);
        }
        let folded = matrix.fold_others();
        let names = folded.method_names();
        if names.is_empty() {
            return Err(StatsError::Empty);
        }
        let mut methods = Vec::with_capacity(names.len());
        for method in names {
            let col: Vec<f64> = folded
                .column(method)
                .into_iter()
                .map(|p| p + COVERAGE_EPSILON)
                .collect();
            let geo_mean = geometric_mean(&col)?;
            let geo_std = geometric_std(&col)?;
            methods.push(MethodVariation {
                method: method.to_owned(),
                geo_mean,
                geo_std,
                variation: geo_std / geo_mean,
            });
        }
        let variations: Vec<f64> = methods.iter().map(|m| m.variation).collect();
        let mu_g_m = geometric_mean(&variations)?;
        Ok(CoverageSummary { methods, mu_g_m })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[(&str, &[(&str, f64)])]) -> CoverageMatrix {
        let mut m = CoverageMatrix::new();
        for (w, percentages) in rows {
            m.push_workload(w, percentages.iter().map(|&(n, p)| (n, p)))
                .unwrap();
        }
        m
    }

    #[test]
    fn column_defaults_missing_methods_to_zero() {
        let m = matrix(&[("w0", &[("a", 60.0), ("b", 40.0)]), ("w1", &[("a", 100.0)])]);
        assert_eq!(m.column("b"), vec![40.0, 0.0]);
        assert_eq!(m.workload_count(), 2);
        assert_eq!(m.method_names(), vec!["a", "b"]);
    }

    #[test]
    fn fold_others_keeps_methods_significant_anywhere() {
        let m = matrix(&[
            ("w0", &[("hot", 99.9), ("cold", 0.04), ("warm", 0.06)]),
            ("w1", &[("hot", 99.9), ("cold", 0.04), ("warm", 0.01)]),
        ]);
        let folded = m.fold_others();
        let names = folded.method_names();
        assert!(names.contains(&"hot"));
        assert!(names.contains(&"warm"), "significant in w0");
        assert!(!names.contains(&"cold"), "below threshold everywhere");
        assert!(names.contains(&OTHERS));
        assert_eq!(folded.column(OTHERS), vec![0.04, 0.04]);
    }

    #[test]
    fn stable_coverage_yields_smaller_mu_g_m() {
        let stable = matrix(&[
            ("w0", &[("f", 50.0), ("g", 50.0)]),
            ("w1", &[("f", 51.0), ("g", 49.0)]),
            ("w2", &[("f", 49.0), ("g", 51.0)]),
        ]);
        let varied = matrix(&[
            ("w0", &[("f", 90.0), ("g", 10.0)]),
            ("w1", &[("f", 10.0), ("g", 90.0)]),
            ("w2", &[("f", 50.0), ("g", 50.0)]),
        ]);
        let s_stable = CoverageSummary::from_matrix(&stable).unwrap();
        let s_varied = CoverageSummary::from_matrix(&varied).unwrap();
        assert!(s_varied.mu_g_m > s_stable.mu_g_m);
    }

    #[test]
    fn epsilon_makes_zero_coverage_well_defined() {
        let m = matrix(&[
            ("w0", &[("f", 100.0), ("g", 0.0)]),
            ("w1", &[("f", 0.0), ("g", 100.0)]),
        ]);
        // Without the epsilon this would take ln(0).
        let s = CoverageSummary::from_matrix(&m).unwrap();
        assert!(s.mu_g_m.is_finite());
        assert!(s.mu_g_m > 1.0);
    }

    #[test]
    fn single_workload_has_unit_variations() {
        let m = matrix(&[("w0", &[("f", 30.0), ("g", 70.0)])]);
        let s = CoverageSummary::from_matrix(&m).unwrap();
        for mv in &s.methods {
            assert!((mv.geo_std - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_methods_accumulate_instead_of_overwriting() {
        // Regression: `row.insert` silently dropped the earlier value when
        // one row listed the same method twice (e.g. coverage assembled
        // from call-tree paths sharing a leaf function).
        let mut m = CoverageMatrix::new();
        m.push_workload("w0", [("f", 30.0), ("g", 40.0), ("f", 30.0)])
            .unwrap();
        assert_eq!(m.column("f"), vec![60.0]);
        assert_eq!(m.column("g"), vec![40.0]);
    }

    #[test]
    fn fold_others_folds_duplicate_accumulated_methods_consistently() {
        // An insignificant method split across duplicate entries must be
        // judged by its accumulated total, not its last fragment.
        let mut m = CoverageMatrix::new();
        m.push_workload("w0", [("hot", 99.9), ("tiny", 0.03), ("tiny", 0.03)])
            .unwrap();
        let folded = m.fold_others();
        assert!(
            folded.method_names().contains(&"tiny"),
            "0.06% accumulated is above the 0.05% threshold"
        );
    }

    #[test]
    fn rejects_invalid_rows() {
        let mut m = CoverageMatrix::new();
        assert!(m.push_workload("w", [("f", f64::NAN)]).is_err());
        assert!(m.push_workload("w", [("f", -1.0)]).is_err());
        assert!(CoverageSummary::from_matrix(&CoverageMatrix::new()).is_err());
    }

    #[test]
    fn workload_names_preserved_in_order() {
        let m = matrix(&[("zeta", &[("f", 1.0)]), ("alpha", &[("f", 1.0)])]);
        let names: Vec<&str> = m.rows.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, vec!["zeta", "alpha"]);
    }
}
