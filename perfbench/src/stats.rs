//! Order statistics over per-op host latencies.

/// The tail percentile every timing reports beside its median.
pub const TAIL: u32 = 90;

/// Fewest samples a reported percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples: the
/// smallest rank with at least `p` percent of the samples at or below it.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank `p`-th percentile of an ascending-sorted, non-empty series.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Samples strictly above the `p`-th percentile's rank among `n`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Refuses a run whose `n` samples leave fewer than [`MIN_BEYOND`] above
/// the reported tail percentile; returns how many lie beyond it.
pub fn tail_guard(n: usize) -> Result<usize, String> {
    let beyond = samples_beyond(n, TAIL);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "{n} samples leave {beyond} beyond p{TAIL} (need {MIN_BEYOND}): run longer"
        ));
    }
    Ok(beyond)
}

/// Median of a non-empty series (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_one_to_hundred() {
        let series: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&series, 50), 50.0);
        assert_eq!(percentile(&series, 90), 90.0);
        assert_eq!(percentile(&series, 99), 99.0);
        assert_eq!(percentile(&series, 100), 100.0);
        assert_eq!(percentile(&series, 0), 1.0);
        assert_eq!(samples_beyond(100, 90), 10);
    }

    #[test]
    fn percentiles_of_a_short_uneven_series() {
        let series = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        // Ranks: p50 → ceil(3.5) = 4, p90 → ceil(6.3) = 7.
        assert_eq!(percentile(&series, 50), 8.0);
        assert_eq!(percentile(&series, 90), 64.0);
        assert_eq!(samples_beyond(7, 90), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_guard_needs_ten_samples_beyond_p90() {
        assert!(tail_guard(0).is_err());
        assert!(tail_guard(99).is_err());
        assert_eq!(tail_guard(100), Ok(10));
        assert_eq!(tail_guard(1234), Ok(123));
    }
}
