//! Order statistics for timing samples.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are less than or equal to it. Returns `None` for
/// an empty sample set. Unlike a bucketed histogram, two distributions whose
/// medians differ by any amount get different answers.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Nearest-rank median (`percentile(samples, 50)`), or 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_data() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), Some(50.0));
        assert_eq!(percentile(&data, 99.0), Some(99.0));
        assert_eq!(percentile(&data, 100.0), Some(100.0));
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        // Order of the input does not matter.
        let mut reversed = data.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 99.0), Some(99.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn distributions_ten_percent_apart_get_distinct_medians() {
        // Latency-like samples: 5.0 µs ± jitter versus the same shape
        // scaled by 1.1. A decade-bucket histogram reports both as one
        // bucket; the nearest-rank estimator must not.
        let base: Vec<f64> = (0..1000).map(|i| 5.0 + f64::from(i % 37) * 0.01).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.1).collect();
        let (a, b) = (median(&base), median(&slower));
        assert!(b > a, "p50 {b} should exceed {a}");
        assert!((b / a - 1.1).abs() < 1e-9);
        let (a99, b99) = (
            percentile(&base, 99.0).unwrap(),
            percentile(&slower, 99.0).unwrap(),
        );
        assert!(b99 > a99);
    }
}
