//! Order statistics with the benchmark's tail rule.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer, one unlucky sample would *be* the
//! percentile. [`Summary`] therefore names the percentile it actually
//! reports next to the value and the sample count.

use std::time::Duration;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail levels tried from the highest down.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Nearest-rank quantile of an ascending sample: the smallest value with
/// at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else { return f64::NAN };
    sorted[rank(sorted.len(), q).saturating_sub(1).min(last)]
}

/// 1-based nearest rank of level `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The tolerance keeps `0.99 · 1000` at rank 990 whichever way the
    // product rounds.
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond level `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n.saturating_sub(rank(n, q)) >= MIN_BEYOND
}

/// The highest ladder level `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&q| supports(n, q))
}

/// Median and tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The level `tail` reports: 0.99 when supported, else the highest
    /// supported ladder level, else 1.0 (the maximum).
    pub tail_q: f64,
    /// The tail value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_q = if supports(n, 0.99) { 0.99 } else { highest_supported(n).unwrap_or(1.0) };
        Self { n, p50: quantile(&sorted, 0.5), tail_q, tail: quantile(&sorted, tail_q) }
    }

    /// Whether the tail is the true 99th percentile.
    pub fn is_p99(&self) -> bool {
        self.tail_q >= 0.99
    }
}

/// Median of any sample (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(1500), Some(0.99));
        assert_eq!(highest_supported(500), Some(0.95));
        assert_eq!(highest_supported(25), Some(0.5));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn summary_reports_the_level_it_used() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&big);
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (1000, 500.0, 0.99, 990.0));
        assert!(s.is_p99());
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(big.iter().filter(|&&v| v > s.tail).count(), MIN_BEYOND);

        let small: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&small);
        assert_eq!((s.tail_q, s.tail), (0.95, 190.0));
        assert!(!s.is_p99());
        assert_eq!(small.iter().filter(|&&v| v > s.tail).count(), MIN_BEYOND);

        let tiny = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((tiny.p50, tiny.tail_q, tiny.tail), (2.0, 1.0, 3.0));
    }

    #[test]
    fn empty_sample_is_nan() {
        assert!(median(&[]).is_nan());
    }
}
