//! Geometric statistics — Equations (1)–(3) of the paper.
//!
//! All routines operate on strictly positive, finite samples and compute in
//! log space for numerical stability (a product of hundreds of small ratios
//! would underflow `f64` long before the logarithmic form loses precision).

use crate::{validate_positive, StatsError};

/// Computes the geometric mean `μg = (∏ xᵢ)^(1/n)` — Eq. (1).
///
/// Computed as `exp(mean(ln xᵢ))` to avoid overflow/underflow.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] for an empty slice and
/// [`StatsError::NonPositive`]/[`StatsError::NotFinite`] for invalid samples.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), alberta_stats::StatsError> {
/// let mu = alberta_stats::geometric_mean(&[1.0, 4.0])?;
/// assert!((mu - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn geometric_mean(samples: &[f64]) -> Result<f64, StatsError> {
    validate_positive(samples)?;
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    Ok((log_sum / samples.len() as f64).exp())
}

/// Computes the geometric standard deviation — Eq. (2):
///
/// `σg = exp( √( Σ ln²(xᵢ/μg) / n ) )`
///
/// The result is a dimensionless multiplicative factor `≥ 1`; a value of
/// `1.0` means every sample equals the geometric mean.
///
/// # Errors
///
/// Same conditions as [`geometric_mean`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), alberta_stats::StatsError> {
/// // A constant series has no multiplicative spread.
/// let sigma = alberta_stats::geometric_std(&[3.0, 3.0, 3.0])?;
/// assert!((sigma - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn geometric_std(samples: &[f64]) -> Result<f64, StatsError> {
    let mu = geometric_mean(samples)?;
    let n = samples.len() as f64;
    let sum_sq: f64 = samples
        .iter()
        .map(|x| {
            let d = (x / mu).ln();
            d * d
        })
        .sum();
    Ok((sum_sq / n).sqrt().exp())
}

/// Computes the proportional variation `V = σg / μg` — Eq. (3).
///
/// The paper uses this instead of the coefficient of variation because the
/// underlying samples are themselves ratios: a small category (say, 0.4% of
/// cycles in bad speculation) with a noisy measurement gets a large `V`,
/// which is exactly the `519.lbm_r` caveat discussed in Section V-B.
///
/// # Errors
///
/// Same conditions as [`geometric_mean`].
pub fn proportional_variation(samples: &[f64]) -> Result<f64, StatsError> {
    let mu = geometric_mean(samples)?;
    let sigma = geometric_std(samples)?;
    Ok(sigma / mu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} !~ {b}");
    }

    #[test]
    fn gmean_of_single_sample_is_the_sample() {
        assert_close(geometric_mean(&[7.25]).unwrap(), 7.25, 1e-12);
    }

    #[test]
    fn gmean_matches_hand_computation() {
        // (2 * 8)^(1/2) = 4
        assert_close(geometric_mean(&[2.0, 8.0]).unwrap(), 4.0, 1e-12);
        // (1 * 10 * 100)^(1/3) = 10
        assert_close(geometric_mean(&[1.0, 10.0, 100.0]).unwrap(), 10.0, 1e-9);
    }

    #[test]
    fn gmean_never_exceeds_arithmetic_mean() {
        let xs = [0.3, 1.7, 2.2, 9.8, 0.04];
        let am: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(geometric_mean(&xs).unwrap() <= am);
    }

    #[test]
    fn gmean_is_stable_for_many_tiny_values() {
        // 1000 samples of 1e-300 would underflow a naive product.
        let xs = vec![1e-300; 1000];
        let mu = geometric_mean(&xs).unwrap();
        assert!((mu / 1e-300 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gstd_matches_hand_computation() {
        // Samples {e, e^-1}: μg = 1, deviations ln(e)=1, ln(1/e)=-1,
        // mean square = 1, σg = e.
        let e = std::f64::consts::E;
        let sigma = geometric_std(&[e, 1.0 / e]).unwrap();
        assert_close(sigma, e, 1e-12);
    }

    #[test]
    fn gstd_is_scale_invariant() {
        let xs = [0.1, 0.4, 0.9, 0.2];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 1234.5).collect();
        assert_close(
            geometric_std(&xs).unwrap(),
            geometric_std(&scaled).unwrap(),
            1e-12,
        );
    }

    #[test]
    fn variation_matches_paper_gcc_row_shape() {
        // Table II, 502.gcc_r: μg(f)=23.4%, σg(f)=1.2 → V(f) ≈ 1.2/0.234.
        // Construct samples with that approximate mean and spread and check
        // V is the quotient of the two summary statistics.
        let xs = [0.20, 0.28, 0.22, 0.25];
        let v = proportional_variation(&xs).unwrap();
        let mu = geometric_mean(&xs).unwrap();
        let sigma = geometric_std(&xs).unwrap();
        assert_close(v, sigma / mu, 1e-12);
        assert!(v > 1.0, "a fraction below one always has V above sigma");
    }

    #[test]
    fn errors_propagate() {
        assert!(geometric_mean(&[]).is_err());
        assert!(geometric_std(&[1.0, -1.0]).is_err());
        assert!(proportional_variation(&[0.0]).is_err());
    }
}
