//! # coyote-lp
//!
//! A self-contained, two-phase **revised simplex** linear-programming
//! solver over a sparse CSR constraint matrix with an incrementally updated
//! LU basis factorization. It is the only LP kernel the library runs. The
//! crate's tests keep a dense tableau simplex as a differential oracle; it
//! is compiled only under `cfg(test)`.
//!
//! The COYOTE paper solves several families of linear programs:
//!
//! * the *demands-aware optimum* `OPTU(D)` — a per-destination
//!   multicommodity-flow LP minimizing maximum link utilization
//!   (Section III / VI, used as the normalizing denominator of every
//!   performance ratio);
//! * the *"slave LP"* (Appendix C) that finds, for a fixed routing and a
//!   fixed edge, the demand matrix maximizing that edge's utilization over
//!   all matrices routable within the capacities (optionally intersected
//!   with the operator's uncertainty box) — the building block of both the
//!   constraint-generation loop and the oblivious-ratio evaluation;
//! * the dual "weight" certificates of Theorem 5.
//!
//! The original work delegates these to AMPL/MOSEK; this crate implements the
//! solver from scratch so that the whole reproduction is dependency-free.
//!
//! Repeated solves over growing constraint systems (the constraint-generation
//! loop in `coyote-core::worst_case`) can warm-start: phase-one replay via
//! [`PhaseOneCache`] is bit-identical to a cold solve and is on by default
//! ([`set_warm_starts`] turns it off, for cold reference runs); basis
//! restore via [`WarmBasis`] survives row/column appends and falls back to a
//! cold solve when the restored basis is no longer primal feasible.
//!
//! ## Usage
//!
//! ```
//! use coyote_lp::{LpProblem, Sense, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = lp.add_var("y", 0.0, f64::INFINITY, 2.0);
//! lp.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-6);
//! assert!((sol.value(x) - 4.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod basis;
#[cfg(test)]
mod differential;
pub mod error;
pub mod model;
pub mod revised;
#[cfg(test)]
mod simplex;
pub mod solution;
pub mod sparse;

pub use error::LpError;
pub use model::{set_warm_starts, LpProblem, Relation, Sense, VarId};
pub use revised::{BasisKey, PhaseOneCache, RowKey, WarmBasis};
pub use solution::{LpSolution, SolveStats};
pub use sparse::CsrMatrix;
