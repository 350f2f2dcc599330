//! The Adam minimizer of the splitting optimizer.
//!
//! The COYOTE splitting-ratio optimization minimizes a smooth non-linear
//! objective (the log-sum-exp-smoothed worst-case link utilization as a
//! function of log-splitting parameters). The paper uses MOSEK's
//! interior-point method; this reproduction uses Adam, which reaches the
//! same optima on the problem sizes of the evaluation (verified against
//! analytic solutions and LP lower bounds in `coyote-core`).

/// First-moment decay.
const BETA1: f64 = 0.9;
/// Second-moment decay.
const BETA2: f64 = 0.999;
/// Numerical floor inside the update.
const EPSILON: f64 = 1e-8;
/// Stop when the infinity norm of the gradient falls below this value.
const GRADIENT_TOLERANCE: f64 = 1e-7;
/// Stop when the best objective has not improved by more than
/// `VALUE_TOLERANCE` over the last [`PATIENCE`] iterations.
const VALUE_TOLERANCE: f64 = 1e-9;
/// See [`VALUE_TOLERANCE`].
const PATIENCE: usize = 150;

/// Result of a [`minimize_adam`] run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at [`OptResult::x`].
    pub value: f64,
    /// Number of iterations performed.
    pub iterations: usize,
}

/// Minimizes `objective` starting from `x0` with the Adam optimizer.
///
/// `objective(x, grad)` returns the value at `x` and adds the gradient into
/// `grad`, which is zeroed before every call. The run stops after
/// `max_iters` iterations, or earlier once the gradient vanishes or the best
/// value stops improving.
pub fn minimize_adam(
    mut objective: impl FnMut(&[f64], &mut [f64]) -> f64,
    x0: &[f64],
    learning_rate: f64,
    max_iters: usize,
) -> OptResult {
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut m = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut grad = vec![0.0; n];

    let mut best_x = x.clone();
    let mut best_val = f64::INFINITY;
    let mut since_improvement = 0usize;
    let mut iterations = 0usize;

    for t in 1..=max_iters {
        iterations = t;
        grad.iter_mut().for_each(|g| *g = 0.0);
        let val = objective(&x, &mut grad);
        if val < best_val - VALUE_TOLERANCE {
            best_val = val;
            best_x.copy_from_slice(&x);
            since_improvement = 0;
        } else {
            if val < best_val {
                best_val = val;
                best_x.copy_from_slice(&x);
            }
            since_improvement += 1;
        }

        let gnorm = grad.iter().fold(0.0_f64, |a, &g| a.max(g.abs()));
        if gnorm < GRADIENT_TOLERANCE || since_improvement >= PATIENCE {
            break;
        }

        let b1t = 1.0 - BETA1.powi(t as i32);
        let b2t = 1.0 - BETA2.powi(t as i32);
        for i in 0..n {
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * grad[i];
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * grad[i] * grad[i];
            let mh = m[i] / b1t;
            let vh = v[i] / b2t;
            x[i] -= learning_rate * mh / (vh.sqrt() + EPSILON);
        }
    }

    coyote_obs::counter("gp.adam.runs", 1);
    coyote_obs::counter("gp.adam.iterations", iterations as u64);

    OptResult {
        x: best_x,
        value: best_val,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // f(x) = (x0 - 3)^2 + 2 (x1 + 1)^2
        let res = minimize_adam(
            |x, g| {
                g[0] += 2.0 * (x[0] - 3.0);
                g[1] += 4.0 * (x[1] + 1.0);
                (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2)
            },
            &[0.0, 0.0],
            0.05,
            20_000,
        );
        assert!(res.value < 1e-6, "value = {}", res.value);
        assert!((res.x[0] - 3.0).abs() < 1e-2);
        assert!((res.x[1] + 1.0).abs() < 1e-2);
    }

    #[test]
    fn adam_respects_iteration_limit() {
        let res = minimize_adam(
            |x, g| {
                g[0] += 1.0; // constant slope: never converges
                x[0]
            },
            &[0.0],
            0.05,
            50,
        );
        assert_eq!(res.iterations, 50);
    }
}
