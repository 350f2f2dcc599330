//! Numerically stable log-space kernels.
//!
//! The production kernels are the buffer-reusing [`softmax_into`] and
//! [`smooth_max_and_weights_into`]. The allocating `log_sum_exp`,
//! `softmax`, `smooth_max` and `smooth_max_weights` are compiled only for
//! tests, where they are the reference the fused kernels must match bit for
//! bit.

/// Stable `log(Σ exp(x_i))`.
///
/// Returns `f64::NEG_INFINITY` for an empty slice (the sum of zero terms).
#[cfg(test)]
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + sum.ln()
}

/// Stable softmax: `out[i] = exp(x_i) / Σ_j exp(x_j)`.
///
/// The result sums to 1 (up to floating point) for non-empty input.
#[cfg(test)]
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = xs.iter().map(|&x| (x - m).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Stable softmax into a reusable buffer (cleared first):
/// `out[i] = exp(x_i) / Σ_j exp(x_j)`. Bit-identical to the test-only
/// allocating `softmax`: same shift by the maximum, same sequential sum.
pub fn softmax_into(xs: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if xs.is_empty() {
        return;
    }
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    out.reserve(xs.len());
    for &x in xs {
        out.push((x - m).exp());
    }
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// Smoothed maximum: `smooth_max(xs, τ) = τ · log Σ exp(x_i / τ)`.
///
/// As `τ → 0` this converges to `max(xs)` from above; it is used to smooth
/// the max-link-utilization objective so that gradient methods apply.
#[cfg(test)]
pub fn smooth_max(xs: &[f64], tau: f64) -> f64 {
    assert!(tau > 0.0, "smoothing temperature must be positive");
    let scaled: Vec<f64> = xs.iter().map(|&x| x / tau).collect();
    tau * log_sum_exp(&scaled)
}

/// Gradient weights of [`smooth_max`] with respect to each input:
/// `∂ smooth_max / ∂ x_i = softmax(x / τ)_i`.
#[cfg(test)]
pub fn smooth_max_weights(xs: &[f64], tau: f64) -> Vec<f64> {
    assert!(tau > 0.0, "smoothing temperature must be positive");
    let scaled: Vec<f64> = xs.iter().map(|&x| x / tau).collect();
    softmax(&scaled)
}

/// Smoothed maximum `τ · log Σ exp(x_i / τ)` fused with its gradient
/// weights `softmax(x / τ)`: returns the smoothed maximum and writes the
/// weights into `weights` (cleared first, capacity reused). As `τ → 0` the
/// value converges to `max(xs)` from above. Bit-identical to the test-only
/// `smooth_max` and `smooth_max_weights` called separately — the scaled
/// values, exponentials and their sequential sum are computed in the same
/// order — but with a single pass and no temporary allocations, which
/// matters in the splitting optimizer's inner loop where `xs` is the full
/// (matrix × edge) utilization vector evaluated thousands of times.
pub fn smooth_max_and_weights_into(xs: &[f64], tau: f64, weights: &mut Vec<f64>) -> f64 {
    assert!(tau > 0.0, "smoothing temperature must be positive");
    weights.clear();
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs
        .iter()
        .map(|&x| x / tau)
        .fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        // Matches softmax on an all-(-∞) input (NaN weights) and
        // log_sum_exp's -∞ guard for the value.
        weights.extend(xs.iter().map(|_| f64::NAN));
        return f64::NEG_INFINITY;
    }
    weights.reserve(xs.len());
    let mut sum = 0.0;
    for &x in xs {
        let e = (x / tau - m).exp();
        weights.push(e);
        sum += e;
    }
    for w in weights.iter_mut() {
        *w /= sum;
    }
    tau * (m + sum.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_on_small_values() {
        let xs: [f64; 3] = [0.0, 1.0, -2.0];
        let naive = (xs.iter().map(|x| x.exp()).sum::<f64>()).ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_values() {
        let xs = [1000.0, 1000.0];
        // naive would overflow; stable version gives 1000 + ln 2.
        assert!((log_sum_exp(&xs) - (1000.0 + 2f64.ln())).abs() < 1e-9);
        let xs = [-1000.0, -1000.0];
        assert!((log_sum_exp(&xs) - (-1000.0 + 2f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_of_empty_is_neg_infinity() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        let sum: f64 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_handles_extreme_inputs() {
        let s = softmax(&[-1e6, 0.0, 1e6]);
        assert!(s.iter().all(|v| v.is_finite()));
        assert!((s[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smooth_max_upper_bounds_max_and_converges() {
        let xs = [0.3, 0.9, 0.7];
        let m = 0.9;
        for &tau in &[1.0, 0.1, 0.01, 0.001] {
            let sm = smooth_max(&xs, tau);
            assert!(sm >= m - 1e-12);
        }
        assert!((smooth_max(&xs, 1e-4) - m).abs() < 1e-3);
    }

    #[test]
    fn smooth_max_weights_are_a_distribution_peaked_at_the_max() {
        let xs = [0.3, 0.9, 0.7];
        let w = smooth_max_weights(&xs, 0.01);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w[1] > 0.99);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn smooth_max_rejects_non_positive_tau() {
        let _ = smooth_max(&[1.0], 0.0);
    }

    #[test]
    fn fused_smooth_max_is_bit_identical_to_separate_calls() {
        let xs = [0.31, 0.94, 0.72, 0.11, 0.94];
        let mut weights = vec![999.0; 2]; // stale contents must be cleared
        for &tau in &[1.0, 0.05, 1e-4] {
            let fused = smooth_max_and_weights_into(&xs, tau, &mut weights);
            assert_eq!(fused, smooth_max(&xs, tau));
            assert_eq!(weights, smooth_max_weights(&xs, tau));
        }
        assert_eq!(
            smooth_max_and_weights_into(&[], 1.0, &mut weights),
            f64::NEG_INFINITY
        );
        assert!(weights.is_empty());
    }
}
