//! Warm-start correctness for the revised simplex.
//!
//! Two distinct protocols are under test (see the `coyote_lp::revised`
//! module docs):
//!
//! * **Phase-one replay** ([`PhaseOneCache`] / `solve_cached`): the cached
//!   basis may only be replayed for an *identical* constraint system, and a
//!   warm solve must then be **bit-identical** to a cold one — same
//!   objective bits, same value bits — because the pipeline's determinism
//!   guarantees ride on it.
//! * **Basis restore** ([`WarmBasis`] / `solve_warm`): the basis survives
//!   model edits (appended rows, appended columns, changed bounds); a warm
//!   solve must reach the same optimal *objective* as a cold solve of the
//!   edited problem, though possibly at a different optimal vertex.

use coyote_lp::{LpProblem, PhaseOneCache, Relation, Sense, VarId, WarmBasis};

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} != {b}");
}

/// `set_warm_starts` is process-global and the test harness runs tests in
/// parallel threads; every test that asserts on `warm_restore` after a
/// `solve_cached` takes this lock so the toggle test cannot race them.
static TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn toggle_guard() -> std::sync::MutexGuard<'static, ()> {
    TOGGLE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small transportation-style LP whose phase one does real work: two
/// supply equalities, one demand inequality, bounded link variables.
fn transport_lp(cost_scale: f64) -> (LpProblem, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_var("x", 0.0, 4.0, 1.0 * cost_scale);
    let y = lp.add_var("y", 0.0, 4.0, 2.0 * cost_scale);
    let z = lp.add_var("z", 0.0, 4.0, 3.0 * cost_scale);
    lp.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
    lp.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
    (lp, vec![x, y, z])
}

// ---------------------------------------------------------------------------
// Phase-one replay (solve_cached)
// ---------------------------------------------------------------------------

/// A cached warm solve of the same system must be bitwise identical to the
/// cold solve — objective and every variable value.
#[test]
fn phase_one_replay_is_bit_identical_to_cold() {
    let _guard = toggle_guard();
    let (lp, ids) = transport_lp(1.0);
    let cold = lp.solve().unwrap();

    let mut cache = PhaseOneCache::new();
    let first = lp.solve_cached(&mut cache).unwrap();
    assert!(cache.is_primed());
    let warm = lp.solve_cached(&mut cache).unwrap();

    assert_eq!(cold.objective.to_bits(), first.objective.to_bits());
    assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
    for &v in &ids {
        assert_eq!(cold.value(v).to_bits(), warm.value(v).to_bits());
        assert_eq!(cold.value(v).to_bits(), first.value(v).to_bits());
    }
    assert!(
        warm.stats.warm_restore,
        "second solve should replay phase one"
    );
    assert_eq!(warm.stats.phase1_pivots, 0);
    assert!(!first.stats.warm_restore);
}

/// The cache key is the constraint system only: changing the objective
/// (the constraint-generation loop's pattern) still replays phase one, and
/// each solve matches its own cold run bit for bit.
#[test]
fn phase_one_replay_survives_objective_changes() {
    let _guard = toggle_guard();
    let mut cache = PhaseOneCache::new();
    let (lp0, _) = transport_lp(1.0);
    lp0.solve_cached(&mut cache).unwrap();

    for scale in [2.0, -1.0, 0.5] {
        let (lp, ids) = transport_lp(scale);
        let cold = lp.solve().unwrap();
        let warm = lp.solve_cached(&mut cache).unwrap();
        assert!(
            warm.stats.warm_restore,
            "scale {scale} should hit the cache"
        );
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
        for &v in &ids {
            assert_eq!(cold.value(v).to_bits(), warm.value(v).to_bits());
        }
    }
}

/// Changing the constraint system (here: a right-hand side) must miss the
/// cache, fall back to a cold solve and re-prime.
#[test]
fn phase_one_cache_misses_on_constraint_change() {
    let _guard = toggle_guard();
    let mut cache = PhaseOneCache::new();
    let (lp, _) = transport_lp(1.0);
    lp.solve_cached(&mut cache).unwrap();

    let mut edited = LpProblem::new(Sense::Minimize);
    let x = edited.add_var("x", 0.0, 4.0, 1.0);
    let y = edited.add_var("y", 0.0, 4.0, 2.0);
    let z = edited.add_var("z", 0.0, 4.0, 3.0);
    edited.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 5.0);
    edited.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);

    let sol = edited.solve_cached(&mut cache).unwrap();
    assert!(!sol.stats.warm_restore, "different rhs must not replay");
    assert_close(sol.objective, 2.0 + 6.0); // x=2, y=3 -> 2 + 6
                                            // The miss re-primes the cache for the *edited* system.
    let again = edited.solve_cached(&mut cache).unwrap();
    assert!(again.stats.warm_restore);
    assert_eq!(sol.objective.to_bits(), again.objective.to_bits());
}

/// The global toggle routes `solve_cached` to plain cold solves; results
/// must be unchanged (bit-identical) either way.
#[test]
fn warm_start_toggle_does_not_change_results() {
    let _guard = toggle_guard();
    let (lp, ids) = transport_lp(1.0);
    let mut cache = PhaseOneCache::new();
    lp.solve_cached(&mut cache).unwrap();

    coyote_lp::set_warm_starts(false);
    let off = lp.solve_cached(&mut cache).unwrap();
    coyote_lp::set_warm_starts(true);
    let on = lp.solve_cached(&mut cache).unwrap();

    assert!(!off.stats.warm_restore);
    assert!(on.stats.warm_restore);
    assert_eq!(off.objective.to_bits(), on.objective.to_bits());
    for &v in &ids {
        assert_eq!(off.value(v).to_bits(), on.value(v).to_bits());
    }
}

// ---------------------------------------------------------------------------
// Basis restore (solve_warm)
// ---------------------------------------------------------------------------

/// Re-solving an unchanged problem from its own optimal basis takes zero
/// phase-one pivots and reproduces the objective.
#[test]
fn basis_restore_on_unchanged_problem_skips_phase_one() {
    let (lp, _) = transport_lp(1.0);
    let (cold, basis) = lp.solve_warm(None).unwrap();
    let (warm, _) = lp.solve_warm(Some(&basis)).unwrap();
    assert!(warm.stats.warm_restore);
    assert_eq!(warm.stats.phase1_pivots, 0);
    assert_close(warm.objective, cold.objective);
}

/// Appending a row: the previous optimal basis is restored (repaired where
/// needed) and the warm solve reaches the same objective as a cold solve of
/// the extended problem.
#[test]
fn basis_restore_survives_row_append() {
    let (lp, _) = transport_lp(1.0);
    let (_, basis) = lp.solve_warm(None).unwrap();

    // Same build sequence plus one extra (binding) constraint.
    let mut extended = LpProblem::new(Sense::Minimize);
    let x = extended.add_var("x", 0.0, 4.0, 1.0);
    let y = extended.add_var("y", 0.0, 4.0, 2.0);
    let z = extended.add_var("z", 0.0, 4.0, 3.0);
    extended.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
    extended.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
    extended.add_constraint("cap_x", &[(x, 1.0)], Relation::Le, 2.0);

    let cold = extended.solve().unwrap();
    let (warm, next) = extended.solve_warm(Some(&basis)).unwrap();
    assert_close(warm.objective, cold.objective);
    assert!(next.len() > basis.len(), "new row adds a basic column");
}

/// Appending a column (a new variable used by existing rows): semantic keys
/// keep the old basis meaningful and the warm objective matches cold.
#[test]
fn basis_restore_survives_column_append() {
    let (lp, _) = transport_lp(1.0);
    let (_, basis) = lp.solve_warm(None).unwrap();

    // Same rows, one extra cheap variable in both constraints.
    let mut extended = LpProblem::new(Sense::Minimize);
    let x = extended.add_var("x", 0.0, 4.0, 1.0);
    let y = extended.add_var("y", 0.0, 4.0, 2.0);
    let z = extended.add_var("z", 0.0, 4.0, 3.0);
    let w = extended.add_var("w", 0.0, 4.0, 0.5);
    extended.add_constraint(
        "supply",
        &[(x, 1.0), (y, 1.0), (z, 1.0), (w, 1.0)],
        Relation::Eq,
        6.0,
    );
    extended.add_constraint("mix", &[(y, 1.0), (z, 1.0), (w, 1.0)], Relation::Ge, 3.0);

    let cold = extended.solve().unwrap();
    let (warm, _) = extended.solve_warm(Some(&basis)).unwrap();
    assert_close(warm.objective, cold.objective);
}

/// A warm basis that is primal-infeasible for the edited problem (the rhs
/// moved against it) must be rejected in favor of a cold fallback — and
/// still end at the cold objective.
#[test]
fn basis_restore_falls_back_when_infeasible() {
    let (lp, _) = transport_lp(1.0);
    let (_, basis) = lp.solve_warm(None).unwrap();

    // Tighten the system so the old vertex is far outside the new feasible
    // region; whichever path the solver takes, objectives must agree.
    let mut edited = LpProblem::new(Sense::Minimize);
    let x = edited.add_var("x", 0.0, 1.0, 1.0);
    let y = edited.add_var("y", 0.0, 1.0, 2.0);
    let z = edited.add_var("z", 0.0, 1.0, 3.0);
    edited.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 3.0);
    edited.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 2.0);

    let cold = edited.solve().unwrap();
    let (warm, _) = edited.solve_warm(Some(&basis)).unwrap();
    assert_close(warm.objective, cold.objective);
}

/// A chain of growing problems (the `opt_mcf` usage pattern): each solve
/// warm-starts from the previous optimal basis and must track the cold
/// objective at every step.
#[test]
fn basis_restore_chain_tracks_cold_objectives() {
    let mut warm: Option<WarmBasis> = None;
    for n in 2..7usize {
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..n)
            .map(|i| lp.add_var(format!("x{i}"), 0.0, 10.0, 1.0 + i as f64))
            .collect();
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint("total", &all, Relation::Eq, n as f64 + 1.0);
        lp.add_constraint("tail", &[(vars[n - 1], 1.0)], Relation::Ge, 0.5);

        let cold = lp.solve().unwrap();
        let (sol, next) = lp.solve_warm(warm.as_ref()).unwrap();
        assert_close(sol.objective, cold.objective);
        warm = Some(next);
    }
}
