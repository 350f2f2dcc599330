//! # coyote-gp
//!
//! Adam minimizer and log-space kernels of the splitting optimizer.
//!
//! COYOTE's in-DAG traffic-splitting optimization (Section V-C and
//! Appendix C of the paper) minimizes a smoothed worst-case link
//! utilization over softmax-parametrized splitting ratios. Link loads are
//! *products* of ratios along paths, so the problem is not a linear
//! program; the paper hands it to MOSEK. `coyote-core::oblivious` instead
//! evaluates the objective and its analytic gradient itself and minimizes
//! it with this crate's three functions:
//!
//! * [`minimize_adam`] — the Adam first-order minimizer;
//! * [`softmax_into`] — per-node splitting ratios from log-space parameters;
//! * [`smooth_max_and_weights_into`] — the log-sum-exp smoothed maximum and
//!   its gradient weights.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod logspace;
mod solver;

pub use logspace::{smooth_max_and_weights_into, softmax_into};
pub use solver::{minimize_adam, OptResult};
