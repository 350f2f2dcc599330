//! The COYOTE repository benchmark.
//!
//! Three workloads drive the pipelines through their public entry points
//! (`conform`, `failures`, `serve`); `src/main.rs` times them, checks their
//! outputs and prints the metrics. Layers are measured from outside: a
//! traced run installs a `coyote_obs::Registry`, and [`selftime`] turns its
//! trace into per-layer self time.

pub mod conform;
pub mod failures;
pub mod selftime;
pub mod serve;
pub mod stats;
