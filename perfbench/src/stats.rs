//! Small statistics helpers.

/// Nearest-rank percentile `p` in `(0, 1]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: impl IntoIterator<Item = usize>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, c), v| (s + v as f64, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Geometric mean of the positive `values`; 0 when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .filter(|v| *v > 0.0)
        .fold((0.0, 0usize), |(s, c), v| (s + v.ln(), c + 1));
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 9.0, 1.0]), 2.0);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean([1, 2, 6]), 3.0);
    }
}
