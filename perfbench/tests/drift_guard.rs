//! Drift guard: the benchmark's stage-by-stage `conform` cell must equal
//! the real pipeline's record, so the composition cannot silently diverge
//! from `conformance_record_with`.

use coyote_bench::Effort;
use coyote_bench::{conformance_record_with, SweepGrid};
use coyote_ospf::CompressionLevel;
use coyote_perfbench::conform::{compose_cell, TOLERANCE};

#[test]
fn composed_cells_match_the_pipeline_on_abilene() {
    let specs = SweepGrid::conformance(Effort::Quick)
        .filter("Abilene")
        .specs;
    assert_eq!(specs.len(), 2, "Abilene gravity and bimodal");
    for spec in &specs {
        let scenario = spec.to_scenario().expect("Abilene is in the zoo");
        let composed = compose_cell(spec, &scenario, TOLERANCE, CompressionLevel::lossy())
            .expect("composed cell");
        let pipeline = conformance_record_with(spec, TOLERANCE, CompressionLevel::lossy())
            .expect("pipeline cell");
        assert_eq!(
            composed.record.deterministic_view(),
            pipeline.deterministic_view(),
            "{}",
            spec.id()
        );
        assert!(composed.record.within_tolerance, "{}", spec.id());
        assert!(composed.coyote_partial >= 1.0 - 1e-9, "{}", spec.id());
    }
}
