//! Order statistics over latency samples.

/// The `q` quantile (`0.0..=1.0`) of an ascending, non-empty slice, by
/// nearest rank.
///
/// # Panics
///
/// Panics when `sorted` is empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Sorts `values` ascending and returns its median.
///
/// # Panics
///
/// Panics when `values` is empty.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Whether the `q` quantile of `n` samples has at least ten samples
/// beyond it — the condition for reporting that percentile at all.
#[must_use]
pub fn has_tail(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 51.0);
        assert_eq!(quantile(&sorted, 0.99), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_p99_needs_a_thousand_samples() {
        assert!(!has_tail(999, 0.99));
        assert!(has_tail(1000, 0.99));
        assert!(has_tail(20, 0.5));
    }
}
