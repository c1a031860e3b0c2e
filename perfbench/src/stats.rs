//! Order statistics over timing samples.

/// The median; the mean of the two middle values for an even count.
/// Zero for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `pct`-th percentile: the smallest sample with at
/// least `pct`% of the samples at or below it. Zero for no samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `pct`-th percentile's rank.
pub fn beyond(count: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * count as f64).ceil() as usize;
    count - rank.min(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 100.0);
        assert_eq!(percentile(&samples, 95.0), 190.0);
        assert_eq!(percentile(&samples, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(216, 95.0), 10);
    }
}
