//! Arithmetic summary statistics for execution-time reporting.
//!
//! The paper reports the *arithmetic* mean of three executions of each
//! benchmark with the refrate workload (Table II, last column) and bar plots
//! of mean and variance per workload. [`Summary`] captures exactly those
//! quantities plus the usual order statistics.

use crate::StatsError;

/// Arithmetic summary of a sample set: mean, variance, extremes, median.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), alberta_stats::StatsError> {
/// let s = alberta_stats::Summary::from_samples(&[281.0, 280.0, 282.0])?;
/// assert_eq!(s.mean(), 281.0);
/// assert_eq!(s.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    len: usize,
    mean: f64,
    variance: f64,
    min: f64,
    max: f64,
    median: f64,
}

impl Summary {
    /// Builds a summary from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] if `samples` is empty and
    /// [`StatsError::NotFinite`] if any sample is NaN or infinite.
    pub fn from_samples(samples: &[f64]) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        for (index, &x) in samples.iter().enumerate() {
            if !x.is_finite() {
                return Err(StatsError::NotFinite { index });
            }
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        // Population variance: the three paper runs are the whole population
        // of measurements, not a sample from a larger one.
        let variance = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare totally"));
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        Ok(Summary {
            len: samples.len(),
            mean,
            variance,
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            median,
        })
    }

    /// Number of samples summarized.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the summary covers zero samples (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median sample (mean of the two central samples for even counts).
    pub fn median(&self) -> f64 {
        self.median
    }

    /// Half-width of the sample range, a crude dispersion bound used in the
    /// per-benchmark bar plots.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_series() {
        let s = Summary::from_samples(&[5.0; 7]).unwrap();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn summary_hand_computed() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.variance(), 1.25);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn median_odd_count() {
        let s = Summary::from_samples(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert_eq!(Summary::from_samples(&[]), Err(StatsError::Empty));
        assert_eq!(
            Summary::from_samples(&[1.0, f64::NAN]),
            Err(StatsError::NotFinite { index: 1 })
        );
    }
}
