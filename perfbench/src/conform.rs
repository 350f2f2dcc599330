//! The `conform` workload: the 28-cell conformance grid, serially, compiled
//! at `CompressionLevel::lossy()`.
//!
//! [`compose_cell`] runs the steps of `conformance_record_with` one public
//! call at a time, each under a benchmark-owned `stage.*` span, so the
//! traced run can split a cell by stage and the untraced run keeps the
//! scenario's `coyote_partial` ratio. `tests/drift_guard.rs` pins the
//! composition to the real pipeline.

use coyote_bench::conformance::{COMPILE_BUDGET, DEFAULT_TOLERANCE};
use coyote_bench::{
    evaluate_scenario, ConformanceRecord, Effort, MatrixConformance, Scenario, SimSummary,
    SweepGrid, SweepSpec,
};
use coyote_core::prelude::CoreError;
use coyote_ospf::{
    compare_routings, compute_program_with, fake_nodes_per_destination, realized_routing,
    CompressionLevel, VirtualLinkBudget,
};
use coyote_sim::FlowSimulator;
use coyote_traffic::DemandMatrix;

/// Tolerance of the cell verdict, as in `experiments conform`.
pub const TOLERANCE: f64 = DEFAULT_TOLERANCE;

/// One composed cell: the pipeline's record plus the scenario's
/// partial-knowledge performance ratio.
#[derive(Debug, Clone)]
pub struct ComposedCell {
    /// Equal to `conformance_record_with(spec, tolerance, level)`.
    pub record: ConformanceRecord,
    /// `evaluate_scenario(..).ratios.coyote_partial`.
    pub coyote_partial: f64,
}

/// The workload's inputs: the grid and its resolved scenarios.
pub struct Inputs {
    /// The conformance grid at quick effort.
    pub specs: Vec<SweepSpec>,
    /// One scenario per spec, in grid order.
    pub scenarios: Vec<Scenario>,
}

/// Builds the grid and loads its topologies (the workload's set-up).
pub fn setup() -> Result<Inputs, CoreError> {
    let specs = SweepGrid::conformance(Effort::Quick).specs;
    let scenarios = specs
        .iter()
        .map(SweepSpec::to_scenario)
        .collect::<Result<_, _>>()?;
    Ok(Inputs { specs, scenarios })
}

/// Runs one cell through evaluate → compile → realize → verify → simulate.
pub fn compose_cell(
    spec: &SweepSpec,
    scenario: &Scenario,
    tolerance: f64,
    level: CompressionLevel,
) -> Result<ComposedCell, CoreError> {
    let started = std::time::Instant::now();
    let eval = {
        let _span = coyote_obs::span("stage.evaluate");
        evaluate_scenario(scenario)?
    };
    let graph = &eval.graph;
    let intended = &eval.coyote_routing;
    let program = {
        let _span = coyote_obs::span("stage.compile");
        compute_program_with(
            graph,
            intended,
            VirtualLinkBudget::per_prefix(COMPILE_BUDGET),
            level,
        )
        .map_err(|e| CoreError::InvalidRouting(e.to_string()))?
    };
    let realized = {
        let _span = coyote_obs::span("stage.realize");
        realized_routing(graph, &program).map_err(|e| CoreError::InvalidRouting(e.to_string()))?
    };
    let (verification, max_fakes) = {
        let _span = coyote_obs::span("stage.verify");
        let verification = compare_routings(graph, intended, &realized);
        let per_destination = fake_nodes_per_destination(graph, &program);
        let max_fakes = per_destination.iter().map(|&(_, c)| c).max().unwrap_or(0);
        (verification, max_fakes)
    };
    let (base, worst) = {
        let _span = coyote_obs::span("stage.simulate");
        let worst_dm = eval
            .evaluation
            .worst_matrix(graph, intended)
            .cloned()
            .unwrap_or_else(|| eval.base.clone());
        let intended_sim = FlowSimulator::from_pd_routing(graph, intended);
        let realized_sim = FlowSimulator::from_pd_routing(graph, &realized);
        (
            measure(&intended_sim, &realized_sim, &eval.base),
            measure(&intended_sim, &realized_sim, &worst_dm),
        )
    };
    let max_utilization_delta = base
        .max_utilization_delta()
        .max(worst.max_utilization_delta());
    let drop_rate_delta = base.drop_rate_delta().max(worst.drop_rate_delta());
    let faithful = verification.is_faithful(tolerance);
    Ok(ComposedCell {
        coyote_partial: eval.ratios.coyote_partial,
        record: ConformanceRecord {
            spec: spec.clone(),
            dags_match: verification.dags_match,
            max_split_error: verification.max_split_error,
            faithful,
            fake_nodes: program.stats.fake_nodes,
            prefix_advertisements: program.stats.prefix_advertisements,
            compression: level.label(),
            max_fake_nodes_per_destination: max_fakes,
            base,
            worst,
            max_utilization_delta,
            drop_rate_delta,
            within_tolerance: faithful
                && max_utilization_delta <= tolerance
                && drop_rate_delta <= tolerance,
            wall_secs: started.elapsed().as_secs_f64(),
        },
    })
}

fn measure(
    intended: &FlowSimulator,
    realized: &FlowSimulator,
    dm: &DemandMatrix,
) -> MatrixConformance {
    let summary = |sim: &FlowSimulator| {
        let outcome = sim.run_matrix(dm);
        SimSummary {
            offered: outcome.offered,
            delivered: outcome.delivered,
            drop_rate: outcome.drop_rate(),
            max_utilization: sim.max_utilization(&outcome),
        }
    };
    MatrixConformance {
        intended: summary(intended),
        realized: summary(realized),
    }
}
