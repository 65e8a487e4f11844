//! Estimation statistics for Monte-Carlo experiments: the reported
//! [`ErrorEstimate`] and fits over measured series. The interval math —
//! binomial (Wilson) intervals and their weighted generalization for the
//! engine's fault-count-stratified estimator — is the engine's own
//! ([`rft_revsim::estimate`]), re-exported here.

use rft_revsim::engine::McOutcome;
use rft_revsim::estimate::Interval;
use serde::{Deserialize, Serialize};

pub use rft_revsim::estimate::{stratified_estimate, wilson_interval};

/// A binomial error-rate estimate with a Wilson confidence interval.
#[must_use = "an estimate should be inspected or reported"]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorEstimate {
    /// Observed failures.
    pub failures: u64,
    /// Trials run.
    pub trials: u64,
    /// Point estimate `failures / trials`.
    pub rate: f64,
    /// Lower bound of the 95% Wilson interval.
    pub low: f64,
    /// Upper bound of the 95% Wilson interval.
    pub high: f64,
}

impl ErrorEstimate {
    /// Builds an estimate from counts with a 95% Wilson interval.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `failures > trials`.
    pub fn from_counts(failures: u64, trials: u64) -> Self {
        assert!(trials > 0, "need at least one trial");
        assert!(failures <= trials, "more failures than trials");
        let Interval { rate, low, high } = Interval::binomial(failures, trials);
        ErrorEstimate {
            failures,
            trials,
            rate,
            low,
            high,
        }
    }

    /// Converts a per-`cycles` failure rate into a per-cycle rate via
    /// `p₁ = 1 − (1−p)^(1/cycles)`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    pub fn per_cycle(&self, cycles: usize) -> f64 {
        assert!(cycles > 0, "need at least one cycle");
        if self.rate >= 1.0 {
            return 1.0;
        }
        1.0 - (1.0 - self.rate).powf(1.0 / cycles as f64)
    }

    /// Whether the interval excludes a given rate.
    #[must_use]
    pub fn excludes(&self, rate: f64) -> bool {
        rate < self.low || rate > self.high
    }
}

/// An [`Engine`](rft_revsim::engine::Engine) estimation outcome wraps
/// directly into its pooled interval ([`McOutcome::interval`]) over the
/// trials actually executed (which is what adaptive early stopping leaves
/// behind): Wilson's for a plain outcome, [`stratified_estimate`] — with
/// the exact stratum weights — for a stratified one, whose counts are the
/// pooled conditional ones.
impl From<McOutcome> for ErrorEstimate {
    fn from(outcome: McOutcome) -> Self {
        let Interval { rate, low, high } = outcome.interval();
        ErrorEstimate {
            failures: outcome.failures,
            trials: outcome.trials,
            rate,
            low,
            high,
        }
    }
}

/// Least-squares slope of `y` against `x` — used to fit poly-log overhead
/// exponents (§2.3) from measured series.
///
/// # Panics
///
/// Panics if fewer than two points or mismatched lengths.
pub fn linear_slope(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "mismatched series");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let var: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_from_counts() {
        let e = ErrorEstimate::from_counts(5, 1000);
        assert!((e.rate - 0.005).abs() < 1e-12);
        assert!(e.low < e.rate && e.rate < e.high);
        assert!(e.excludes(0.5));
        assert!(!e.excludes(0.005));
    }

    #[test]
    fn per_cycle_inverts_compounding() {
        // p over 10 cycles with per-cycle rate q: p = 1-(1-q)^10.
        let q: f64 = 0.01;
        let p = 1.0 - (1.0 - q).powi(10);
        let e = ErrorEstimate {
            failures: 0,
            trials: 1,
            rate: p,
            low: 0.0,
            high: 1.0,
        };
        assert!((e.per_cycle(10) - q).abs() < 1e-12);
    }

    #[test]
    fn per_cycle_saturates_at_one() {
        let e = ErrorEstimate {
            failures: 1,
            trials: 1,
            rate: 1.0,
            low: 0.0,
            high: 1.0,
        };
        assert_eq!(e.per_cycle(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn from_counts_rejects_zero_trials() {
        let _ = ErrorEstimate::from_counts(0, 0);
    }

    #[test]
    fn slope_fits_a_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((linear_slope(&x, &y) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slope_fits_polylog_exponent() {
        // y = x^4.75 in log-log space.
        let x: Vec<f64> = (1..8).map(|i| (i as f64).ln()).collect();
        let y: Vec<f64> = (1..8).map(|i| 4.75 * (i as f64).ln()).collect();
        assert!((linear_slope(&x, &y) - 4.75).abs() < 1e-9);
    }
}
