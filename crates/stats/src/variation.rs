//! Top-Down behaviour-variation summarization — Section V-B, Eq. (4).
//!
//! Given one set of four Top-Down ratios per workload (front-end bound,
//! back-end bound, bad speculation, retiring), [`TopDownSummary`] computes
//! the per-category geometric mean `μg`, geometric standard deviation `σg`,
//! proportional variation `V`, and the single-number sensitivity proxy
//! `μg(V)` reported in Table II.

use crate::geometric::{geometric_mean, geometric_std};
use crate::StatsError;

/// Per-category summary: `μg`, `σg` and `V = σg/μg` for one Top-Down
/// category across all workloads of a benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSummary {
    /// Geometric mean of the ratio across workloads, in `[0, 1]`.
    pub geo_mean: f64,
    /// Geometric standard deviation (dimensionless, `≥ 1`).
    pub geo_std: f64,
    /// Proportional variation `σg / μg`.
    pub variation: f64,
}

impl RatioSummary {
    /// Summarizes one category's ratio across workloads.
    ///
    /// Ratios of exactly zero are clamped to `floor` first: hardware-counter
    /// sampling can attribute zero cycles to a category on a short run, and
    /// the geometric statistics are undefined at zero. The paper's data
    /// exhibits the same effect as near-zero means with inflated `σg`
    /// (e.g. bad speculation for `519.lbm_r`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] when `ratios` is empty, or
    /// [`StatsError::NotFinite`] for NaN/infinite entries.
    pub(crate) fn from_ratios(ratios: &[f64], floor: f64) -> Result<Self, StatsError> {
        if ratios.is_empty() {
            return Err(StatsError::Empty);
        }
        let mut clamped = Vec::with_capacity(ratios.len());
        for (index, &r) in ratios.iter().enumerate() {
            if !r.is_finite() {
                return Err(StatsError::NotFinite { index });
            }
            if r < 0.0 {
                return Err(StatsError::NonPositive { index });
            }
            clamped.push(r.max(floor));
        }
        let geo_mean = geometric_mean(&clamped)?;
        let geo_std = geometric_std(&clamped)?;
        Ok(RatioSummary {
            geo_mean,
            geo_std,
            variation: geo_std / geo_mean,
        })
    }
}

/// One workload's Top-Down classification: the fraction of pipeline slots in
/// each of Intel's four categories. Fractions sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopDownRatios {
    /// Slots lost because the front end could not supply micro-ops.
    pub front_end: f64,
    /// Slots lost because back-end resources were exhausted.
    pub back_end: f64,
    /// Slots spent on micro-ops that never retired (mis-speculation).
    pub bad_speculation: f64,
    /// Slots that retired useful micro-ops.
    pub retiring: f64,
}

impl TopDownRatios {
    /// Builds a ratio set, validating that components are non-negative,
    /// finite, and sum to 1 within `1e-6`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotFinite`] for non-finite components and
    /// [`StatsError::NonPositive`] when a component is negative or the sum
    /// is not 1.
    pub fn new(
        front_end: f64,
        back_end: f64,
        bad_speculation: f64,
        retiring: f64,
    ) -> Result<Self, StatsError> {
        let parts = [front_end, back_end, bad_speculation, retiring];
        for (index, &p) in parts.iter().enumerate() {
            if !p.is_finite() {
                return Err(StatsError::NotFinite { index });
            }
            if p < 0.0 {
                return Err(StatsError::NonPositive { index });
            }
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(StatsError::NonPositive { index: 4 });
        }
        Ok(TopDownRatios {
            front_end,
            back_end,
            bad_speculation,
            retiring,
        })
    }

    /// The four ratios in Table II column order: `f, b, s, r`.
    pub fn as_array(&self) -> [f64; 4] {
        [
            self.front_end,
            self.back_end,
            self.bad_speculation,
            self.retiring,
        ]
    }
}

/// Summary of Top-Down behaviour variation across a benchmark's workloads —
/// the per-benchmark row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct TopDownSummary {
    /// Number of workloads summarized.
    pub workloads: usize,
    /// Front-end-bound summary.
    pub front_end: RatioSummary,
    /// Back-end-bound summary.
    pub back_end: RatioSummary,
    /// Bad-speculation summary.
    pub bad_speculation: RatioSummary,
    /// Retiring summary.
    pub retiring: RatioSummary,
    /// Eq. (4): geometric mean of the four proportional variations.
    pub mu_g_v: f64,
}

/// Floor applied to zero ratios before taking logarithms.
///
/// 0.01% of slots: below any category the simulated counters can resolve,
/// mirroring the quantization floor of sampled hardware counters.
pub(crate) const RATIO_FLOOR: f64 = 1e-4;

impl TopDownSummary {
    /// Summarizes the Top-Down ratios of every workload of one benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] when `runs` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use alberta_stats::variation::TopDownRatios;
    /// use alberta_stats::TopDownSummary;
    ///
    /// # fn main() -> Result<(), alberta_stats::StatsError> {
    /// let runs = vec![
    ///     TopDownRatios::new(0.25, 0.40, 0.10, 0.25)?,
    ///     TopDownRatios::new(0.20, 0.45, 0.12, 0.23)?,
    /// ];
    /// let summary = TopDownSummary::from_runs(&runs)?;
    /// assert_eq!(summary.workloads, 2);
    /// assert!(summary.mu_g_v > 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_runs(runs: &[TopDownRatios]) -> Result<Self, StatsError> {
        if runs.is_empty() {
            return Err(StatsError::Empty);
        }
        let column =
            |select: fn(&TopDownRatios) -> f64| -> Vec<f64> { runs.iter().map(select).collect() };
        let front_end = RatioSummary::from_ratios(&column(|r| r.front_end), RATIO_FLOOR)?;
        let back_end = RatioSummary::from_ratios(&column(|r| r.back_end), RATIO_FLOOR)?;
        let bad_speculation =
            RatioSummary::from_ratios(&column(|r| r.bad_speculation), RATIO_FLOOR)?;
        let retiring = RatioSummary::from_ratios(&column(|r| r.retiring), RATIO_FLOOR)?;
        let mu_g_v = geometric_mean(&[
            front_end.variation,
            back_end.variation,
            bad_speculation.variation,
            retiring.variation,
        ])?;
        Ok(TopDownSummary {
            workloads: runs.len(),
            front_end,
            back_end,
            bad_speculation,
            retiring,
            mu_g_v,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratios(f: f64, b: f64, s: f64, r: f64) -> TopDownRatios {
        TopDownRatios::new(f, b, s, r).unwrap()
    }

    #[test]
    fn ratios_must_sum_to_one() {
        assert!(TopDownRatios::new(0.3, 0.3, 0.3, 0.3).is_err());
        assert!(TopDownRatios::new(0.25, 0.25, 0.25, 0.25).is_ok());
        assert!(TopDownRatios::new(-0.1, 0.5, 0.3, 0.3).is_err());
        assert!(TopDownRatios::new(f64::NAN, 0.5, 0.25, 0.25).is_err());
    }

    #[test]
    fn identical_workloads_have_unit_variation() {
        let runs = vec![ratios(0.2, 0.4, 0.1, 0.3); 5];
        let s = TopDownSummary::from_runs(&runs).unwrap();
        assert!((s.front_end.geo_std - 1.0).abs() < 1e-12);
        // For identical runs V = 1/μg per category, so μg(V) is the
        // geometric mean of the reciprocals of the category means.
        let expected = (1.0f64 / (0.2 * 0.4 * 0.1 * 0.3)).powf(0.25);
        assert!((s.mu_g_v - expected).abs() < 1e-9);
    }

    #[test]
    fn varied_workloads_have_larger_mu_g_v_than_stable_ones() {
        let stable: Vec<_> = (0..8)
            .map(|i| {
                let d = i as f64 * 1e-4;
                ratios(0.2 + d, 0.4 - d, 0.1, 0.3)
            })
            .collect();
        let varied: Vec<_> = (0..8)
            .map(|i| {
                let d = i as f64 * 0.02;
                ratios(0.1 + d, 0.5 - d, 0.1, 0.3)
            })
            .collect();
        let s_stable = TopDownSummary::from_runs(&stable).unwrap();
        let s_varied = TopDownSummary::from_runs(&varied).unwrap();
        assert!(s_varied.mu_g_v > s_stable.mu_g_v);
    }

    #[test]
    fn tiny_category_inflates_mu_g_v_like_lbm() {
        // The 519.lbm_r effect: a near-zero bad-speculation mean with noisy
        // samples inflates μg(V) beyond what overall behaviour suggests.
        let lbm_like: Vec<_> = [0.002, 0.008, 0.001, 0.016]
            .iter()
            .map(|&s| ratios(0.02, 0.63 - s + 0.004, s, 0.346))
            .collect();
        let steady: Vec<_> = [0.10, 0.11, 0.09, 0.105]
            .iter()
            .map(|&s| ratios(0.02, 0.55 - s + 0.1, s, 0.33))
            .collect();
        let s_lbm = TopDownSummary::from_runs(&lbm_like).unwrap();
        let s_steady = TopDownSummary::from_runs(&steady).unwrap();
        assert!(s_lbm.bad_speculation.geo_std > s_steady.bad_speculation.geo_std);
        assert!(s_lbm.mu_g_v > s_steady.mu_g_v);
    }

    #[test]
    fn zero_ratio_is_floored_not_rejected() {
        let runs = vec![ratios(0.2, 0.5, 0.0, 0.3), ratios(0.2, 0.45, 0.05, 0.3)];
        let s = TopDownSummary::from_runs(&runs).unwrap();
        assert!(s.bad_speculation.geo_mean >= RATIO_FLOOR);
    }

    #[test]
    fn paper_table_shape_gcc_row() {
        // Synthetic data mimicking 502.gcc_r's published summary:
        // μg(f)≈0.234 σg≈1.2; μg(V)≈5.1. Verify our pipeline lands in the
        // same ballpark when fed ratios drawn around those means.
        let runs: Vec<_> = (0..19)
            .map(|i| {
                let t = (i as f64 / 18.0 - 0.5) * 0.3; // ±15% multiplicative-ish spread
                let f = 0.234 * (1.0 + t);
                let b = 0.336 * (1.0 - t * 0.5);
                let s = 0.119 * (1.0 + t * 0.8);
                let r = 1.0 - f - b - s;
                ratios(f, b, s, r)
            })
            .collect();
        let s = TopDownSummary::from_runs(&runs).unwrap();
        assert!((s.front_end.geo_mean - 0.234).abs() < 0.01);
        assert!(s.mu_g_v > 3.0 && s.mu_g_v < 8.0);
    }

    #[test]
    fn as_array_order_matches_table_ii() {
        let r = ratios(0.1, 0.2, 0.3, 0.4);
        assert_eq!(r.as_array(), [0.1, 0.2, 0.3, 0.4]);
    }
}
