//! The `failures` workload: `run_failures` on the AS3257 slice of the
//! conformance grid, every event class, on the worker pool.

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{
    run_failures, Effort, EventClass, FailureGrid, FailureRecord, FailureReport, SweepGrid,
};
use coyote_core::prelude::CoreError;

/// The topology the slice keeps.
const TOPOLOGY: &str = "AS3257";
/// Worker-pool threads.
const THREADS: usize = 2;

/// Builds the grid and its seeded event catalogue (the workload's set-up).
pub fn setup(seed: u64) -> Result<FailureGrid, CoreError> {
    let grid = SweepGrid::conformance(Effort::Quick).filter(TOPOLOGY);
    FailureGrid::build(&grid, EventClass::All, seed)
}

/// Runs the grid once.
pub fn run(grid: &FailureGrid) -> Result<FailureReport, CoreError> {
    run_failures(grid, THREADS, DEFAULT_TOLERANCE)
}

/// A cell fails when either mode is missing or it has no finite
/// degradation ratio.
pub fn failed(record: &FailureRecord) -> bool {
    record.oblivious.is_none() || record.reoptimized.is_none() || record.degradation_ratio.is_none()
}
