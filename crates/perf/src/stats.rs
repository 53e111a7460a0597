//! Reducers: percentiles a sample can support, fastest-of-K, the
//! quartile over repetitions, and the quartiles `compare` reports.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(q * n)`. No interpolation, so the result is
/// always a latency that was actually observed.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `q`: the tail
/// that backs the percentile up.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Whether a sample of `n` supports reporting quantile `q`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_BEYOND
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Smallest value: the fastest of K repetitions of fixed work. Noise on
/// a shared host only ever adds time, so the minimum is the repetition
/// the neighbours disturbed least.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank lower quartile: the reducer over repetitions of fixed
/// work, for a timing. Host noise only adds time, so the faster
/// repetitions say most about the code; the very fastest is left out
/// because the host now and then runs a quarter faster for a few
/// seconds, and a run that catches such a stretch would not agree with
/// one that does not.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.25)
}

/// [`lower_quartile`] for a rate, where higher is better: the value a
/// quarter of the repetitions reached or beat.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn upper_quartile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    v[v.len() - rank(v.len(), 0.25)]
}

/// Median (mean of the two middle values for an even count): the
/// reducer over latency passes, where each pass is already a
/// percentile of many samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the spread rule this benchmark is accepted under uses that
/// function, so `compare` must agree with it to the last digit.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest of p99.9 / p99 / p90 / p50 an ascending-sorted sample
/// can back with [`MIN_BEYOND`] samples beyond it, as `(q, value)`.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| supports(sorted.len(), *q))
        .map(|q| (q, percentile(sorted, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_returns_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // ceil(0.5 * 5) = 3rd value; never an interpolated one.
        assert_eq!(percentile(&[1.0, 2.0, 10.0, 20.0, 30.0], 0.5), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 sits at rank 990: exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // The traced run's 1200-request pass keeps 12 beyond p99.
        assert_eq!(samples_beyond(1200, 0.99), 12);
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
        // A 900-sample pass backs a p90 (90 beyond) but not a p99 (9).
        let v: Vec<f64> = (1..=900).map(f64::from).collect();
        assert_eq!(highest_supported(&v), Some((0.9, 810.0)));
        assert_eq!(highest_supported(&v[..5]), None);
    }

    #[test]
    fn fastest_of_k_quartile_and_median_of_repetitions() {
        let reps = [4.31, 3.02, 3.40];
        assert_eq!(fastest(&reps), 3.02);
        // Nearest rank: the 3rd of 11, the 1st of 4, never interpolated.
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&eleven), 3.0);
        assert_eq!(upper_quartile(&eleven), 9.0);
        assert_eq!(lower_quartile(&[5.0, 2.0, 9.0, 7.0]), 2.0);
        assert_eq!(upper_quartile(&[5.0, 2.0, 9.0, 7.0]), 9.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(upper_quartile(&[5.0]), 5.0);
        assert_eq!(median(&reps), 3.40);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
