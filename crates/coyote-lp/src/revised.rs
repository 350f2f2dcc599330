//! Revised simplex over a sparse column store, with warm starts.
//!
//! This is the only LP kernel the library runs: [`crate::LpProblem::solve`]
//! and its warm-start variants all call into it. It implements the same
//! two-phase method as the dense tableau that the crate's differential
//! tests keep as an oracle (`simplex.rs`, compiled only under `cfg(test)`)
//! — identical standard-form conversion, identical tolerances, Dantzig
//! pricing with the stall-triggered switch to Bland's rule, the pivot-size
//! guard and the noise-column clamp — but instead of a dense tableau it
//! keeps:
//!
//! * the constraint matrix by columns in CSR form ([`crate::sparse`]), so
//!   pricing is one BTRAN plus an `O(nnz)` sweep instead of a dense row scan;
//! * an LU factorization of the basis with product-form eta updates
//!   (the private `basis` module), refactorized every `REFRESH_PIVOTS`
//!   pivots, so each pivot costs `O(nnz)` instead of `O(rows × cols)`.
//!
//! Reduced costs are recomputed from a fresh BTRAN every iteration, so the
//! dense solver's cost-row drift problem does not exist here; the
//! optimize→refactorize→verify loop (`run_phase`) still re-checks claimed
//! optimality against a fresh factorization because the *basic values*
//! accumulate drift through the eta file.
//!
//! ## Warm starts
//!
//! Two protocols, deliberately distinct (see `docs/ARCHITECTURE.md`):
//!
//! * **Phase-one replay** ([`PhaseOneCache`], used via
//!   [`crate::LpProblem::solve_cached`]): caches the feasible basis reached
//!   at the end of phase one, keyed by a fingerprint of the *constraint
//!   system only* (bounds, rows, right-hand sides — never the objective).
//!   Phase one is a pure function of the constraints, so re-entering phase
//!   two from the cached basis is **bit-identical** to a cold solve of the
//!   same problem: both paths refactorize from scratch and recompute the
//!   basic values at the phase boundary, making the phase-two start state a
//!   pure function of (basis, constraints). This is what the
//!   constraint-generation loop uses when it re-solves the slave LP per
//!   edge with only the objective changing.
//! * **Basis restore** ([`WarmBasis`], used via
//!   [`crate::LpProblem::solve_warm`]): re-enters from a previous *optimal*
//!   basis after the problem changed (rows/columns appended, right-hand
//!   sides moved). Basis members are tracked by semantic [`BasisKey`]s so
//!   they survive index shifts; unresolvable keys are dropped, the basis is
//!   completed with slack/artificial columns and repaired if singular, and
//!   if the restored basis is primal-infeasible the solver falls back to a
//!   cold solve. This reaches the same optimal *objective* as a cold solve
//!   (both are optimal within the dual tolerance) but may report a
//!   different optimal vertex, which is why the bit-identity-sensitive
//!   pipeline paths use phase-one replay instead.

use crate::basis::{Factorization, LuFactors};
use crate::error::LpError;
use crate::model::{LpProblem, Relation, Sense};
use crate::solution::{LpSolution, SolveStats};
use crate::sparse::CsrMatrix;

/// Numerical tolerance for pivot magnitudes, ratio tests and feasibility.
pub(crate) const EPS: f64 = 1e-9;
/// Dual-feasibility tolerance: a column enters the basis only when its
/// reduced cost is below −DUAL_TOL. Looser than [`EPS`] on purpose — on the
/// sweep grid's 500-row flow LPs reduced costs are only clean to ~1e-8, and
/// an entering threshold tighter than that sends the solver into hundreds
/// of thousands of zero-progress pivots chasing rounding noise. The
/// objective error this tolerates is far below every downstream consumer's
/// tolerance.
pub(crate) const DUAL_TOL: f64 = 1e-7;
/// A reduced cost above this (negative) threshold is treated as numerical
/// noise when its column admits no pivot: a column with reduced cost −2e-9
/// and entries ~1e-10 is elimination residue, not a certificate of
/// unboundedness. Genuinely unbounded LPs enter with decisively negative
/// reduced costs (|rc| ≫ this).
pub(crate) const NOISE_RC_TOL: f64 = 1e-6;
/// Refresh rounds per phase: after a phase claims optimality the basis is
/// refactorized and the phase re-runs if fresh reduced costs still show a
/// descent direction. Bounds the optimize→verify loop that repairs drift.
pub(crate) const MAX_REFRESH_ROUNDS: usize = 4;
/// Residual tolerated at the end of phase one before declaring infeasible.
/// Slightly loose so that the anti-degeneracy perturbation (see
/// [`RHS_PERTURBATION`]) can never flip a feasible flow LP to "infeasible".
pub(crate) const PHASE1_TOL: f64 = 1e-5;
/// Consecutive non-improving pivots before switching to Bland's rule.
pub(crate) const STALL_LIMIT: usize = 64;
/// Minimum magnitude for a *preferred* pivot element in the ratio test;
/// entries in (EPS, PIVOT_TOL] are used only when no better pivot exists.
pub(crate) const PIVOT_TOL: f64 = 1e-7;
/// Values this close to zero after an update are snapped to an exact zero
/// (catastrophic-cancellation residue, ~1e3 × machine epsilon below the
/// decision tolerance EPS).
pub(crate) const SNAP_TOL: f64 = 1e-12;
/// Deterministic right-hand-side perturbation that breaks the massive
/// degeneracy of flow LPs (many zero-supply conservation rows). The
/// perturbation is far below the feasibility tolerance, so reported
/// solutions are unaffected, but it makes ties in the ratio test — the
/// cause of degenerate pivot stalls — vanishingly rare.
pub(crate) const RHS_PERTURBATION: f64 = 1e-7;

/// How an original variable maps to standard-form column(s). Mirrors the
/// dense oracle's conversion exactly so both solve the same standard-form
/// problem.
#[derive(Debug, Clone)]
enum VarMap {
    /// `x = lower + x_std[col]`
    Shifted { col: usize, lower: f64 },
    /// `x = upper - x_std[col]`
    Mirrored { col: usize, upper: f64 },
    /// `x = x_std[pos] - x_std[neg]`
    Split { pos: usize, neg: usize },
}

/// A standard-form row, identified independently of its current index so a
/// basis can be re-mapped after constraints are appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKey {
    /// The i-th user constraint of the [`LpProblem`].
    Constraint(usize),
    /// The finite-upper-bound row generated for the given variable index.
    Bound(usize),
}

/// A standard-form column, identified semantically (variable or row role)
/// rather than positionally, so a basis survives row/column appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasisKey {
    /// The primary standard column of a variable (its shifted, mirrored or
    /// positive-split part).
    Primary(usize),
    /// The negative-split column of a free variable.
    Negative(usize),
    /// The slack/surplus column of a row.
    Slack(RowKey),
    /// The artificial column of a row.
    Artificial(RowKey),
}

/// An optimal basis captured from a previous solve, re-usable as a warm
/// start via [`crate::LpProblem::solve_warm`]. Opaque: it stays valid (if
/// not necessarily useful) across arbitrary model edits.
#[derive(Debug, Clone)]
pub struct WarmBasis {
    pub(crate) keys: Vec<BasisKey>,
}

impl WarmBasis {
    /// Number of basic columns recorded.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True for the empty basis (a problem with no constraint rows).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[derive(Debug, Clone)]
struct PhaseOneEntry {
    fingerprint: u64,
    keys: Vec<BasisKey>,
    phase1_pivots: usize,
}

/// Cache for phase-one replay across solves that share a constraint system
/// and differ only in the objective (see the module docs; used by
/// [`crate::LpProblem::solve_cached`]).
#[derive(Debug, Clone, Default)]
pub struct PhaseOneCache {
    entry: Option<PhaseOneEntry>,
}

impl PhaseOneCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once a phase-one basis has been captured.
    pub fn is_primed(&self) -> bool {
        self.entry.is_some()
    }
}

/// Sparse standard form: the same conversion as the dense solver's
/// `build_standard_form` + tableau assembly, stored by columns.
struct SparseForm {
    m: usize,
    total_cols: usize,
    art_base: usize,
    /// One CSR row per LP column, over the `m` constraint rows, with the
    /// right-hand-side sign flips already applied.
    cols: CsrMatrix,
    /// Non-negative, deterministically perturbed right-hand side.
    b: Vec<f64>,
    /// Phase-two (minimization) cost over all columns; zero outside the
    /// structural block.
    phase2_cost: Vec<f64>,
    /// Phase-one cost: one on artificial columns.
    phase1_cost: Vec<f64>,
    objective_offset: f64,
    var_map: Vec<VarMap>,
    is_artificial: Vec<bool>,
    /// Initial basis: slack (effective-`<=` rows) or artificial.
    initial_basis: Vec<usize>,
    /// Artificial column of each row (`usize::MAX` if none).
    art_of_row: Vec<usize>,
    /// Slack column of each row (`usize::MAX` if none).
    slack_of_row: Vec<usize>,
    /// A unit-ish column per row used for basis repair: the artificial if
    /// the row has one, its slack otherwise (every row has one of the two).
    unit_col_of_row: Vec<usize>,
    /// Semantic identity of every column.
    col_key: Vec<BasisKey>,
    /// Standard-form row behind each row index.
    row_key: Vec<RowKey>,
    /// Bound-row index of each variable (`usize::MAX` if none).
    bound_row_of_var: Vec<usize>,
    /// Constraint-system fingerprint (objective and sense excluded).
    fingerprint: u64,
    has_artificials: bool,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fingerprint of the constraint system: variable bounds, constraint terms,
/// relations and right-hand sides. The objective and the optimization sense
/// are deliberately excluded — phase one never sees them.
fn constraint_fingerprint(problem: &LpProblem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, &(problem.vars.len() as u64).to_le_bytes());
    for v in &problem.vars {
        fnv1a(&mut h, &v.lower.to_bits().to_le_bytes());
        fnv1a(&mut h, &v.upper.to_bits().to_le_bytes());
    }
    fnv1a(&mut h, &(problem.constraints.len() as u64).to_le_bytes());
    for c in &problem.constraints {
        let tag: u8 = match c.relation {
            Relation::Le => 0,
            Relation::Ge => 1,
            Relation::Eq => 2,
        };
        fnv1a(&mut h, &[tag]);
        fnv1a(&mut h, &c.rhs.to_bits().to_le_bytes());
        fnv1a(&mut h, &(c.terms.len() as u64).to_le_bytes());
        for &(var, coeff) in &c.terms {
            fnv1a(&mut h, &(var.index() as u64).to_le_bytes());
            fnv1a(&mut h, &coeff.to_bits().to_le_bytes());
        }
    }
    h
}

impl SparseForm {
    fn build(problem: &LpProblem) -> Self {
        // --- Variable mapping (identical to the dense conversion). ---
        let mut var_map = Vec::with_capacity(problem.vars.len());
        let mut num_structural = 0usize;
        let mut bound_rows: Vec<(usize, f64, usize)> = Vec::new(); // (col, ub, var)
        let mut bound_row_of_var = vec![usize::MAX; problem.vars.len()];
        let mut primary_col_key: Vec<(usize, BasisKey)> = Vec::new();
        for (vi, v) in problem.vars.iter().enumerate() {
            if v.lower.is_finite() {
                let col = num_structural;
                num_structural += 1;
                if v.upper.is_finite() {
                    bound_rows.push((col, v.upper - v.lower, vi));
                }
                var_map.push(VarMap::Shifted {
                    col,
                    lower: v.lower,
                });
                primary_col_key.push((col, BasisKey::Primary(vi)));
            } else if v.upper.is_finite() {
                let col = num_structural;
                num_structural += 1;
                var_map.push(VarMap::Mirrored {
                    col,
                    upper: v.upper,
                });
                primary_col_key.push((col, BasisKey::Primary(vi)));
            } else {
                let pos = num_structural;
                let neg = num_structural + 1;
                num_structural += 2;
                var_map.push(VarMap::Split { pos, neg });
                primary_col_key.push((pos, BasisKey::Primary(vi)));
                primary_col_key.push((neg, BasisKey::Negative(vi)));
            }
        }

        // --- Minimization objective over structural columns. ---
        let sign = match problem.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut objective = vec![0.0; num_structural];
        let mut objective_offset = 0.0;
        for (v, map) in problem.vars.iter().zip(&var_map) {
            let c = sign * v.objective;
            match *map {
                VarMap::Shifted { col, lower } => {
                    objective[col] += c;
                    objective_offset += c * lower;
                }
                VarMap::Mirrored { col, upper } => {
                    objective[col] -= c;
                    objective_offset += c * upper;
                }
                VarMap::Split { pos, neg } => {
                    objective[pos] += c;
                    objective[neg] -= c;
                }
            }
        }

        // --- Rows: user constraints then bound rows, as sparse triplets. ---
        struct Row {
            terms: Vec<(usize, f64)>,
            rhs: f64,
            relation: Relation,
            key: RowKey,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(problem.constraints.len() + bound_rows.len());
        for (ci, cons) in problem.constraints.iter().enumerate() {
            let mut terms: Vec<(usize, f64)> = Vec::new();
            let mut rhs = cons.rhs;
            for &(var, coeff) in &cons.terms {
                match var_map[var.index()] {
                    VarMap::Shifted { col, lower } => {
                        terms.push((col, coeff));
                        rhs -= coeff * lower;
                    }
                    VarMap::Mirrored { col, upper } => {
                        terms.push((col, -coeff));
                        rhs -= coeff * upper;
                    }
                    VarMap::Split { pos, neg } => {
                        terms.push((pos, coeff));
                        terms.push((neg, -coeff));
                    }
                }
            }
            rows.push(Row {
                terms,
                rhs,
                relation: cons.relation,
                key: RowKey::Constraint(ci),
            });
        }
        for &(col, ub, vi) in &bound_rows {
            bound_row_of_var[vi] = rows.len();
            rows.push(Row {
                terms: vec![(col, 1.0)],
                rhs: ub,
                relation: Relation::Le,
                key: RowKey::Bound(vi),
            });
        }

        let m = rows.len();
        let rhs_scale = rows.iter().map(|r| r.rhs.abs()).fold(1.0_f64, f64::max);
        let num_slack = rows
            .iter()
            .filter(|r| matches!(r.relation, Relation::Le | Relation::Ge))
            .count();
        let slack_base = num_structural;
        let art_base = num_structural + num_slack;

        // --- Assemble columns, flips, perturbation, initial basis. ---
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = Vec::with_capacity(m);
        let mut initial_basis = vec![usize::MAX; m];
        let mut art_of_row = vec![usize::MAX; m];
        let mut slack_of_row = vec![usize::MAX; m];
        let mut total_cols = art_base;
        let mut col_key: Vec<BasisKey> = vec![BasisKey::Primary(usize::MAX); art_base];
        for &(col, key) in &primary_col_key {
            col_key[col] = key;
        }
        let mut row_key = Vec::with_capacity(m);
        let mut slack_idx = 0usize;
        // Artificial columns are appended after this loop so `col_key`
        // indices stay dense; remember which rows need one.
        let mut art_rows: Vec<usize> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            row_key.push(row.key);
            let flip = row.rhs < 0.0;
            let rhs = row.rhs.abs();
            for &(col, coeff) in &row.terms {
                let v = if flip { -coeff } else { coeff };
                // `from_triplets` coalesces repeated variables exactly like
                // the dense `row[col] += coeff` accumulation.
                triplets.push((col, i, v));
            }
            let rel = match (row.relation, flip) {
                (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
                (Relation::Ge, false) | (Relation::Le, true) => Relation::Ge,
                (Relation::Eq, _) => Relation::Eq,
            };
            match rel {
                Relation::Le => {
                    let col = slack_base + slack_idx;
                    slack_idx += 1;
                    triplets.push((col, i, 1.0));
                    col_key[col] = BasisKey::Slack(row.key);
                    slack_of_row[i] = col;
                    initial_basis[i] = col;
                }
                Relation::Ge => {
                    let col = slack_base + slack_idx;
                    slack_idx += 1;
                    triplets.push((col, i, -1.0));
                    col_key[col] = BasisKey::Slack(row.key);
                    slack_of_row[i] = col;
                }
                Relation::Eq => {}
            }
            if initial_basis[i] == usize::MAX {
                art_rows.push(i);
            }
            // Anti-degeneracy perturbation: same rule as the dense solver —
            // only original *equality* rows, scaled by the rhs magnitude and
            // a deterministic row-dependent factor.
            let rhs = if matches!(row.relation, Relation::Eq) {
                rhs + RHS_PERTURBATION * rhs_scale * ((i % 97) as f64 + 1.0) / 97.0
            } else {
                rhs
            };
            b.push(rhs);
        }
        for &i in &art_rows {
            let col = total_cols;
            total_cols += 1;
            triplets.push((col, i, 1.0));
            col_key.push(BasisKey::Artificial(row_key[i]));
            art_of_row[i] = col;
            initial_basis[i] = col;
        }

        let cols = CsrMatrix::from_triplets(total_cols, m, &triplets);
        let mut is_artificial = vec![false; total_cols];
        for c in is_artificial.iter_mut().skip(art_base) {
            *c = true;
        }
        let mut phase1_cost = vec![0.0; total_cols];
        for c in phase1_cost.iter_mut().skip(art_base) {
            *c = 1.0;
        }
        let mut phase2_cost = vec![0.0; total_cols];
        phase2_cost[..num_structural].copy_from_slice(&objective);
        let unit_col_of_row: Vec<usize> = (0..m)
            .map(|i| {
                if art_of_row[i] != usize::MAX {
                    art_of_row[i]
                } else {
                    slack_of_row[i]
                }
            })
            .collect();
        let has_artificials = !art_rows.is_empty();

        SparseForm {
            m,
            total_cols,
            art_base,
            cols,
            b,
            phase2_cost,
            phase1_cost,
            objective_offset,
            var_map,
            is_artificial,
            initial_basis,
            art_of_row,
            slack_of_row,
            unit_col_of_row,
            col_key,
            row_key,
            bound_row_of_var,
            fingerprint: constraint_fingerprint(problem),
            has_artificials,
        }
    }

    /// Resolves a semantic key to its current column, if it still exists
    /// with the same role.
    fn resolve_key(&self, key: BasisKey) -> Option<usize> {
        let row_of = |rk: RowKey| -> Option<usize> {
            match rk {
                RowKey::Constraint(i) => {
                    // User constraints always occupy the leading rows.
                    let ncons = self
                        .row_key
                        .iter()
                        .take_while(|k| matches!(k, RowKey::Constraint(_)))
                        .count();
                    (i < ncons).then_some(i)
                }
                RowKey::Bound(vi) => self
                    .bound_row_of_var
                    .get(vi)
                    .copied()
                    .filter(|&r| r != usize::MAX),
            }
        };
        match key {
            BasisKey::Primary(vi) => match self.var_map.get(vi)? {
                VarMap::Shifted { col, .. } | VarMap::Mirrored { col, .. } => Some(*col),
                VarMap::Split { pos, .. } => Some(*pos),
            },
            BasisKey::Negative(vi) => match self.var_map.get(vi)? {
                VarMap::Split { neg, .. } => Some(*neg),
                _ => None,
            },
            BasisKey::Slack(rk) => {
                let r = row_of(rk)?;
                (self.slack_of_row[r] != usize::MAX).then(|| self.slack_of_row[r])
            }
            BasisKey::Artificial(rk) => {
                let r = row_of(rk)?;
                (self.art_of_row[r] != usize::MAX).then(|| self.art_of_row[r])
            }
        }
    }

    /// Maps a key list to distinct columns. `strict` requires every key to
    /// resolve (phase-one replay: the system is supposed to be identical);
    /// otherwise unresolved or duplicate keys are dropped and the basis is
    /// completed with per-row unit columns (basis restore after edits).
    fn map_keys(&self, keys: &[BasisKey], strict: bool) -> Option<Vec<usize>> {
        let mut cols = Vec::with_capacity(self.m);
        let mut used = vec![false; self.total_cols];
        for &key in keys {
            match self.resolve_key(key) {
                Some(c) if !used[c] => {
                    used[c] = true;
                    cols.push(c);
                }
                _ if strict => return None,
                _ => {}
            }
        }
        if strict && cols.len() != self.m {
            return None;
        }
        // Complete a short basis with repair columns, rows in order.
        let mut row = 0usize;
        while cols.len() < self.m && row < self.m {
            let c = self.unit_col_of_row[row];
            if !used[c] {
                used[c] = true;
                cols.push(c);
            }
            row += 1;
        }
        (cols.len() == self.m).then_some(cols)
    }
}

/// Mutable solver state shared by both phases.
struct Solver<'a> {
    sf: &'a SparseForm,
    limit: usize,
    pivots_total: usize,
    basis: Vec<usize>,
    /// Basis position of every column (`usize::MAX` when nonbasic).
    pos_of: Vec<usize>,
    fact: Factorization,
    x_b: Vec<f64>,
    clamped: Vec<bool>,
    refresh_rounds: usize,
    pivot_guard_triggers: usize,
    noise_clamps: usize,
    refactorizations: usize,
    basis_repairs: usize,
}

impl<'a> Solver<'a> {
    fn new(sf: &'a SparseForm, limit: usize) -> Result<Self, LpError> {
        let basis = sf.initial_basis.clone();
        let mut pos_of = vec![usize::MAX; sf.total_cols];
        for (i, &c) in basis.iter().enumerate() {
            pos_of[c] = i;
        }
        let mut solver = Self {
            sf,
            limit,
            pivots_total: 0,
            basis,
            pos_of,
            fact: Factorization::new(LuFactors::empty()),
            x_b: Vec::new(),
            clamped: vec![false; sf.total_cols],
            refresh_rounds: 0,
            pivot_guard_triggers: 0,
            noise_clamps: 0,
            refactorizations: 0,
            basis_repairs: 0,
        };
        solver.refactorize()?;
        Ok(solver)
    }

    /// Factorizes `basis` with singularity repair: a dependent column is
    /// replaced by the unit column of a still-uncovered row (failure
    /// positions strictly increase, so the loop terminates). Returns the
    /// factors, the (possibly repaired) basis and the repair count.
    fn factorize_repaired(
        sf: &SparseForm,
        mut basis: Vec<usize>,
    ) -> Result<(LuFactors, Vec<usize>, usize), LpError> {
        let mut repairs = 0usize;
        loop {
            match LuFactors::factorize(&sf.cols, &basis) {
                Ok(lu) => return Ok((lu, basis, repairs)),
                Err(singular) => {
                    let in_basis: std::collections::HashSet<usize> =
                        basis.iter().copied().collect();
                    let replacement = singular
                        .unpivoted_rows
                        .iter()
                        .map(|&r| sf.unit_col_of_row[r])
                        .find(|c| !in_basis.contains(c));
                    let Some(col) = replacement else {
                        return Err(LpError::Numerical {
                            context: "basis repair found no replacement column".into(),
                        });
                    };
                    basis[singular.position] = col;
                    repairs += 1;
                }
            }
        }
    }

    /// Refactorizes the current basis from scratch and recomputes the basic
    /// values from the original right-hand side, resetting eta-file drift.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let (lu, basis, repairs) =
            Self::factorize_repaired(self.sf, std::mem::take(&mut self.basis))?;
        if repairs > 0 {
            self.basis_repairs += repairs;
            for p in self.pos_of.iter_mut() {
                *p = usize::MAX;
            }
            for (i, &c) in basis.iter().enumerate() {
                self.pos_of[c] = i;
            }
        }
        self.basis = basis;
        self.fact = Factorization::new(lu);
        self.x_b = self.fact.ftran(&self.sf.b);
        self.refactorizations += 1;
        Ok(())
    }

    /// Tries to install an externally supplied basis. On success the solver
    /// state is fully replaced (fresh factorization, fresh basic values);
    /// on failure (`primal infeasible beyond tolerance`) the previous state
    /// is kept untouched.
    fn try_install(&mut self, candidate: Vec<usize>) -> bool {
        let Ok((lu, basis, repairs)) = Self::factorize_repaired(self.sf, candidate) else {
            return false;
        };
        let fact = Factorization::new(lu);
        let x_b = fact.ftran(&self.sf.b);
        if x_b.iter().any(|&v| v < -PHASE1_TOL) {
            return false;
        }
        let residual: f64 = basis
            .iter()
            .zip(&x_b)
            .filter(|&(&c, _)| self.sf.is_artificial[c])
            .map(|(_, &v)| v.abs())
            .sum();
        if residual > PHASE1_TOL {
            return false;
        }
        for p in self.pos_of.iter_mut() {
            *p = usize::MAX;
        }
        for (i, &c) in basis.iter().enumerate() {
            self.pos_of[c] = i;
        }
        self.basis = basis;
        self.fact = fact;
        self.x_b = x_b;
        self.basis_repairs += repairs;
        self.refactorizations += 1;
        true
    }

    /// FTRAN of one constraint-matrix column.
    fn ftran_col(&self, col: usize) -> Vec<f64> {
        let mut dense = vec![0.0; self.sf.m];
        for (r, v) in self.sf.cols.iter_row(col) {
            dense[r] = v;
        }
        self.fact.ftran(&dense)
    }

    /// BTRAN of the basic components of a cost vector: the simplex
    /// multipliers `y` with `yᵀB = c_Bᵀ`.
    fn multipliers(&self, cost: &[f64]) -> Vec<f64> {
        let cb: Vec<f64> = self.basis.iter().map(|&c| cost[c]).collect();
        self.fact.btran(&cb)
    }

    /// Reduced cost of a column given the multipliers.
    #[inline]
    fn reduced_cost(&self, cost: &[f64], y: &[f64], col: usize) -> f64 {
        let mut dot = 0.0;
        for (r, v) in self.sf.cols.iter_row(col) {
            dot += y[r] * v;
        }
        cost[col] - dot
    }

    /// Current phase objective `c_B · x_B`.
    fn phase_objective(&self, cost: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(&self.x_b)
            .map(|(&c, &x)| cost[c] * x)
            .sum()
    }

    /// One optimization sweep: pivot until the phase claims optimality.
    /// Mirrors the dense `Tableau::run` — Dantzig pricing, Bland after
    /// [`STALL_LIMIT`] non-improving pivots, identical ratio-test
    /// tie-breaks, the pivot-size guard and the noise-column clamp.
    fn optimize(&mut self, cost: &[f64], exclude_artificials: bool) -> Result<usize, LpError> {
        // A fresh sweep re-examines previously clamped columns, exactly as
        // the dense reprice rebuilds the cost row.
        for c in self.clamped.iter_mut() {
            *c = false;
        }
        let mut pivots = 0usize;
        let mut stall = 0usize;
        let mut last_obj = self.phase_objective(cost);
        loop {
            if self.pivots_total >= self.limit {
                return Err(LpError::IterationLimit { limit: self.limit });
            }
            let use_bland = stall >= STALL_LIMIT;
            let y = self.multipliers(cost);
            // Entering column.
            let mut enter: Option<(usize, f64)> = None;
            let mut best = -DUAL_TOL;
            for j in 0..self.sf.total_cols {
                if self.pos_of[j] != usize::MAX || self.clamped[j] {
                    continue;
                }
                if exclude_artificials && self.sf.is_artificial[j] {
                    continue;
                }
                let rc = self.reduced_cost(cost, &y, j);
                if rc < -DUAL_TOL {
                    if use_bland {
                        enter = Some((j, rc));
                        break;
                    }
                    if rc < best {
                        best = rc;
                        enter = Some((j, rc));
                    }
                }
            }
            let Some((col, rc)) = enter else {
                return Ok(pivots); // optimal for this sweep
            };
            let w = self.ftran_col(col);
            // Leaving row: minimum ratio test with the dense tie-breaks.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (r, &wr) in w.iter().enumerate() {
                if wr > EPS {
                    let ratio = self.x_b[r] / wr;
                    let better = if ratio < best_ratio - EPS {
                        true
                    } else if ratio < best_ratio + EPS {
                        match leave {
                            None => true,
                            Some(lr) => {
                                if use_bland {
                                    self.basis[r] < self.basis[lr]
                                } else {
                                    wr > w[lr]
                                }
                            }
                        }
                    } else {
                        false
                    };
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            // Pivot-size guard (disabled under Bland's rule, as in the
            // dense solver).
            if let (Some(lr), false) = (leave, use_bland) {
                if w[lr] < PIVOT_TOL {
                    let relax = EPS * (1.0 + best_ratio.abs());
                    let mut alt: Option<usize> = None;
                    for (r, &wr) in w.iter().enumerate() {
                        if wr >= PIVOT_TOL && self.x_b[r] / wr <= best_ratio + relax {
                            let better = match alt {
                                None => true,
                                Some(ar) => wr > w[ar],
                            };
                            if better {
                                alt = Some(r);
                            }
                        }
                    }
                    if let Some(ar) = alt {
                        leave = Some(ar);
                        self.pivot_guard_triggers += 1;
                    }
                }
            }
            let Some(row) = leave else {
                if rc >= -NOISE_RC_TOL && w.iter().all(|v| v.abs() <= PIVOT_TOL) {
                    // Numerically-zero descent direction, not a real ray.
                    self.clamped[col] = true;
                    self.noise_clamps += 1;
                    continue;
                }
                return Err(LpError::Unbounded);
            };
            self.pivot(&w, row, col);
            pivots += 1;
            self.pivots_total += 1;
            if self.fact.needs_refresh() {
                self.refactorize()?;
            }
            let obj = self.phase_objective(cost);
            if obj < last_obj - EPS {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
    }

    /// Applies one pivot: updates basic values, the eta file and the basis
    /// bookkeeping.
    fn pivot(&mut self, w: &[f64], row: usize, col: usize) {
        let theta = self.x_b[row] / w[row];
        for (i, &wi) in w.iter().enumerate() {
            if i == row {
                continue;
            }
            let v = self.x_b[i] - theta * wi;
            self.x_b[i] = if v.abs() < SNAP_TOL { 0.0 } else { v };
        }
        self.x_b[row] = theta;
        self.fact.update(w, row);
        self.pos_of[self.basis[row]] = usize::MAX;
        self.basis[row] = col;
        self.pos_of[col] = row;
    }

    /// True when fresh reduced costs (against a just-refactorized basis)
    /// show no genuine descent direction — the sparse analogue of the dense
    /// post-reprice clean check.
    fn verified_optimal(&self, cost: &[f64], exclude_artificials: bool) -> bool {
        let y = self.multipliers(cost);
        for j in 0..self.sf.total_cols {
            if self.pos_of[j] != usize::MAX {
                continue;
            }
            if exclude_artificials && self.sf.is_artificial[j] {
                continue;
            }
            let rc = self.reduced_cost(cost, &y, j);
            if rc >= -DUAL_TOL {
                continue;
            }
            if rc >= -NOISE_RC_TOL {
                let w = self.ftran_col(j);
                if w.iter().all(|v| v.abs() <= PIVOT_TOL) {
                    continue; // numerically-zero column, not a descent direction
                }
            }
            return false;
        }
        true
    }

    /// Runs one phase to verified optimality: optimize, refactorize (which
    /// also recomputes the basic values from scratch) and re-run while
    /// fresh reduced costs still descend, bounded by
    /// [`MAX_REFRESH_ROUNDS`].
    fn run_phase(&mut self, cost: &[f64], exclude_artificials: bool) -> Result<usize, LpError> {
        let mut pivots = 0usize;
        for _ in 0..MAX_REFRESH_ROUNDS {
            self.refresh_rounds += 1;
            pivots += self.optimize(cost, exclude_artificials)?;
            self.refactorize()?;
            if self.verified_optimal(cost, exclude_artificials) {
                break;
            }
        }
        Ok(pivots)
    }

    /// Sum of the basic artificial values — the phase-one residual.
    fn artificial_residual(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.x_b)
            .filter(|&(&c, _)| self.sf.is_artificial[c])
            .map(|(_, &v)| v.abs())
            .sum()
    }

    /// Drives basic artificials out of the basis at zero level, mirroring
    /// the dense post-phase-one sweep.
    fn drive_out_artificials(&mut self) -> Result<(), LpError> {
        for r in 0..self.sf.m {
            if !self.sf.is_artificial[self.basis[r]] {
                continue;
            }
            // Row r of B⁻¹, via BTRAN of the unit vector.
            let mut e = vec![0.0; self.sf.m];
            e[r] = 1.0;
            let rho = self.fact.btran(&e);
            let mut found = None;
            for c in 0..self.sf.art_base {
                if self.pos_of[c] != usize::MAX {
                    continue;
                }
                let mut entry = 0.0;
                for (rr, v) in self.sf.cols.iter_row(c) {
                    entry += rho[rr] * v;
                }
                if entry.abs() > 1e-7 {
                    found = Some(c);
                    break;
                }
            }
            if let Some(c) = found {
                let w = self.ftran_col(c);
                self.pivot(&w, r, c);
                if self.fact.needs_refresh() {
                    self.refactorize()?;
                }
            }
            // If no column qualifies the row is redundant; the artificial
            // stays basic at value zero, and phase two's allowed() filter
            // keeps it from growing.
        }
        Ok(())
    }

    /// Semantic keys of the current basis, in position order.
    fn basis_keys(&self) -> Vec<BasisKey> {
        self.basis.iter().map(|&c| self.sf.col_key[c]).collect()
    }
}

/// How a solve enters the two-phase loop.
enum Start<'a> {
    Cold,
    /// Replay a cached post-phase-one basis (identical constraint system).
    PhaseOne(&'a [BasisKey]),
    /// Restore a previous optimal basis across model edits.
    Full(&'a [BasisKey]),
}

struct Outcome {
    solution: LpSolution,
    final_keys: Vec<BasisKey>,
    post_phase1_keys: Vec<BasisKey>,
    /// True when the warm entry path was actually used (phase one skipped).
    warm: bool,
}

fn solve_inner(problem: &LpProblem, sf: &SparseForm, start: Start<'_>) -> Result<Outcome, LpError> {
    let _span = coyote_obs::span("lp.solve");
    let limit = problem
        .iteration_limit
        .unwrap_or(200 * (sf.m + sf.total_cols) + 20_000);
    let mut solver = Solver::new(sf, limit)?;
    let mut stats = SolveStats {
        standard_vars: sf.art_base - sf.slack_count(),
        rows: sf.m,
        ..Default::default()
    };

    // Warm entry: map the keys and install the basis. Both warm kinds skip
    // phase one on success; `try_install` rejects anything that is not
    // primal-feasible within the phase-one tolerance.
    let mut warm = false;
    match start {
        Start::Cold => {}
        Start::PhaseOne(keys) => {
            if let Some(candidate) = sf.map_keys(keys, true) {
                warm = solver.try_install(candidate);
            }
        }
        Start::Full(keys) => {
            if let Some(candidate) = sf.map_keys(keys, false) {
                warm = solver.try_install(candidate);
            }
        }
    }

    if !warm {
        if sf.has_artificials {
            stats.phase1_pivots = solver.run_phase(&sf.phase1_cost, false)?;
            let residual = solver.artificial_residual();
            if residual > PHASE1_TOL {
                return Err(LpError::Infeasible { residual });
            }
            solver.drive_out_artificials()?;
        }
        // Phase boundary normalization: a fresh factorization and fresh
        // basic values make the phase-two start state a pure function of
        // (basis, constraint system) — the invariant phase-one replay
        // relies on for bit-identical results.
        solver.refactorize()?;
    }
    let post_phase1_keys = solver.basis_keys();

    stats.phase2_pivots = solver.run_phase(&sf.phase2_cost, true)?;

    // ---- Extract the solution. ----
    let mut std_values = vec![0.0; sf.total_cols];
    for (i, &c) in solver.basis.iter().enumerate() {
        std_values[c] = solver.x_b[i];
    }
    let mut values = vec![0.0; problem.vars.len()];
    for (i, map) in sf.var_map.iter().enumerate() {
        values[i] = match *map {
            VarMap::Shifted { col, lower } => lower + std_values[col],
            VarMap::Mirrored { col, upper } => upper - std_values[col],
            VarMap::Split { pos, neg } => std_values[pos] - std_values[neg],
        };
    }
    let internal_obj = solver.phase_objective(&sf.phase2_cost) + sf.objective_offset;
    let objective = match problem.sense {
        Sense::Minimize => internal_obj,
        Sense::Maximize => -internal_obj,
    };

    stats.refresh_rounds = solver.refresh_rounds;
    stats.pivot_guard_triggers = solver.pivot_guard_triggers;
    stats.noise_clamps = solver.noise_clamps;
    stats.refactorizations = solver.refactorizations;
    stats.basis_repairs = solver.basis_repairs;
    stats.warm_restore = warm;

    let final_keys = solver.basis_keys();
    Ok(Outcome {
        solution: LpSolution {
            objective,
            values,
            stats,
        },
        final_keys,
        post_phase1_keys,
        warm,
    })
}

impl SparseForm {
    fn slack_count(&self) -> usize {
        self.slack_of_row
            .iter()
            .filter(|&&c| c != usize::MAX)
            .count()
    }
}

/// Publishes one completed solve's tallies to the global obs sink (a single
/// `enabled()` atomic load when profiling is off). All quantities are exact
/// per-solve workload counts, so their totals are bit-identical no matter
/// how solves are distributed over worker threads.
fn report(stats: &SolveStats) {
    if !coyote_obs::enabled() {
        return;
    }
    let pivots = (stats.phase1_pivots + stats.phase2_pivots) as u64;
    coyote_obs::counter("lp.solves", 1);
    coyote_obs::counter("lp.pivots", pivots);
    coyote_obs::counter("lp.phase1_pivots", stats.phase1_pivots as u64);
    coyote_obs::counter("lp.phase2_pivots", stats.phase2_pivots as u64);
    coyote_obs::counter("lp.refresh_rounds", stats.refresh_rounds as u64);
    coyote_obs::counter("lp.pivot_guard_triggers", stats.pivot_guard_triggers as u64);
    coyote_obs::counter("lp.noise_clamps", stats.noise_clamps as u64);
    coyote_obs::counter("lp.refactorizations", stats.refactorizations as u64);
    coyote_obs::counter("lp.basis_repairs", stats.basis_repairs as u64);
    coyote_obs::observe("lp.pivots_per_solve", pivots);
    coyote_obs::observe("lp.rows_per_solve", stats.rows as u64);
    if stats.warm_restore {
        coyote_obs::counter("lp.warm_solves", 1);
        coyote_obs::counter("lp.warm_pivots_saved", stats.warm_pivots_saved as u64);
    } else {
        coyote_obs::counter("lp.cold_solves", 1);
    }
}

/// Cold revised-simplex solve (already validated).
pub(crate) fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    let sf = SparseForm::build(problem);
    let out = solve_inner(problem, &sf, Start::Cold)?;
    report(&out.solution.stats);
    Ok(out.solution)
}

/// Solve with phase-one replay against `cache` (already validated).
pub(crate) fn solve_cached(
    problem: &LpProblem,
    cache: &mut PhaseOneCache,
) -> Result<LpSolution, LpError> {
    let sf = SparseForm::build(problem);
    let cached = cache
        .entry
        .as_ref()
        .filter(|e| e.fingerprint == sf.fingerprint)
        .cloned();
    let mut out = match &cached {
        Some(entry) => solve_inner(problem, &sf, Start::PhaseOne(&entry.keys))?,
        None => solve_inner(problem, &sf, Start::Cold)?,
    };
    if out.warm {
        out.solution.stats.warm_pivots_saved =
            cached.as_ref().map(|e| e.phase1_pivots).unwrap_or(0);
    } else {
        cache.entry = Some(PhaseOneEntry {
            fingerprint: sf.fingerprint,
            keys: out.post_phase1_keys.clone(),
            phase1_pivots: out.solution.stats.phase1_pivots,
        });
    }
    report(&out.solution.stats);
    Ok(out.solution)
}

/// Solve restoring `warm` when provided; returns the optimal basis for the
/// next restore (already validated).
pub(crate) fn solve_warm(
    problem: &LpProblem,
    warm: Option<&WarmBasis>,
) -> Result<(LpSolution, WarmBasis), LpError> {
    let sf = SparseForm::build(problem);
    let out = match warm {
        Some(wb) => {
            let attempted = solve_inner(problem, &sf, Start::Full(&wb.keys))?;
            if !attempted.warm && coyote_obs::enabled() {
                coyote_obs::counter("lp.warm_fallbacks", 1);
            }
            attempted
        }
        None => solve_inner(problem, &sf, Start::Cold)?,
    };
    report(&out.solution.stats);
    Ok((
        out.solution,
        WarmBasis {
            keys: out.final_keys,
        },
    ))
}

#[cfg(test)]
mod tests {
    use crate::error::LpError;
    use crate::model::{LpProblem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximize_with_le_constraints() {
        // Classic textbook LP: max 3x+2y, x+y<=4, x+3y<=6 -> (4, 0), obj 12.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 3.0);
        let y = lp.add_nonneg_var("y", 2.0);
        lp.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 12.0);
        assert_close(sol.value(x), 4.0);
        assert_close(sol.value(y), 0.0);
    }

    #[test]
    fn minimize_with_ge_constraints_needs_phase_one() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  -> x=7, y=3, obj 23.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 2.0, f64::INFINITY, 2.0);
        let y = lp.add_var("y", 3.0, f64::INFINITY, 3.0);
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 23.0);
        assert_close(sol.value(x), 7.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 4, x - y == 1 -> x=2, y=1, obj 3.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("e1", &[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        lp.add_constraint("e2", &[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 1.0, 1.0);
        lp.add_constraint("c", &[(x, 1.0)], Relation::Ge, 5.0);
        assert!(matches!(lp.solve(), Err(LpError::Infeasible { .. })));
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint("c", &[(x, -1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::Unbounded)));
    }

    #[test]
    fn free_variables_are_split() {
        // min |style| problem: min x s.t. x >= -5 with x free -> -5.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_constraint("lb", &[(x, 1.0)], Relation::Ge, -5.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, -5.0);
        assert_close(sol.value(x), -5.0);
    }

    #[test]
    fn upper_bounded_only_variable() {
        // max x with x <= 3 (no lower bound) and x >= -10 as a row.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", f64::NEG_INFINITY, 3.0, 1.0);
        lp.add_constraint("lb", &[(x, 1.0)], Relation::Ge, -10.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.value(x), 3.0);
    }

    #[test]
    fn shifted_lower_bounds_and_finite_upper_bounds() {
        // max x + y with 1 <= x <= 2, 0.5 <= y <= 0.75.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0, 2.0, 1.0);
        let y = lp.add_var("y", 0.5, 0.75, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.75);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 0.75);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint("c", &[(x, -1.0)], Relation::Le, -3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(x), 3.0);
    }

    #[test]
    fn degenerate_problems_terminate() {
        // A problem with many redundant constraints (degeneracy stress).
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        for i in 0..20 {
            let s = 1.0 + (i as f64) * 0.0; // identical rows
            lp.add_constraint(format!("r{i}"), &[(x, 1.0), (y, 1.0)], Relation::Le, s);
        }
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn eval_matches_constraints_at_optimum() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 5.0);
        let y = lp.add_nonneg_var("y", 4.0);
        lp.add_constraint("c1", &[(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        lp.add_constraint("c2", &[(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 21.0);
        assert!(sol.eval(&[(x, 6.0), (y, 4.0)]) <= 24.0 + 1e-6);
        assert!(sol.eval(&[(x, 1.0), (y, 2.0)]) <= 6.0 + 1e-6);
    }

    #[test]
    fn min_cost_flow_style_lp() {
        // Send 2 units from s to t over two parallel paths with costs 1 and 3
        // and capacities 1.5 each: cheapest sends 1.5 on the cheap path.
        let mut lp = LpProblem::new(Sense::Minimize);
        let f1 = lp.add_var("f1", 0.0, 1.5, 1.0);
        let f2 = lp.add_var("f2", 0.0, 1.5, 3.0);
        lp.add_constraint("demand", &[(f1, 1.0), (f2, 1.0)], Relation::Eq, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(f1), 1.5);
        assert_close(sol.value(f2), 0.5);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn zero_constraint_problem_uses_bounds_only() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", -2.0, 7.0, 1.5);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(x), -2.0);
        assert_close(sol.objective, -3.0);
    }
}

/// Degenerate and pathological instances: cycling-prone pivots, redundant
/// systems, and the error paths the worst-case LPs rely on.
#[cfg(test)]
mod edge_case_tests {
    use crate::error::LpError;
    use crate::model::{LpProblem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Beale's classic cycling example: plain Dantzig pivoting loops forever
    /// on it; the stall-triggered switch to Bland's rule must terminate at
    /// the optimum (objective 1/20 at x = (1/25, 0, 1, 0)).
    #[test]
    fn beale_cycling_instance_terminates_at_optimum() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x1 = lp.add_nonneg_var("x1", 0.75);
        let x2 = lp.add_nonneg_var("x2", -150.0);
        let x3 = lp.add_nonneg_var("x3", 0.02);
        let x4 = lp.add_nonneg_var("x4", -6.0);
        lp.add_constraint(
            "r1",
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            "r2",
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint("r3", &[(x3, 1.0)], Relation::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.05);
        assert_close(sol.value(x1), 0.04);
        assert_close(sol.value(x3), 1.0);
    }

    /// A degenerate vertex where three constraints meet: the optimum (1, 1)
    /// satisfies all of them with equality, forcing zero-progress pivots.
    #[test]
    fn degenerate_vertex_is_handled() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("cx", &[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint("cy", &[(y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Le, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 1.0);
    }

    /// An all-zero objective is optimal at any feasible point; the solver
    /// must still return one that satisfies the constraints.
    #[test]
    fn zero_objective_returns_a_feasible_point() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 0.0);
        let y = lp.add_nonneg_var("y", 0.0);
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert_close(sol.value(x) + sol.value(y), 4.0);
        assert!(sol.value(x) >= -1e-9 && sol.value(y) >= -1e-9);
    }

    /// Duplicated equality rows are redundant, not infeasible.
    #[test]
    fn duplicate_equality_rows_are_harmless() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 2.0);
        lp.add_constraint("e", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint("e_again", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.value(x), 3.0);
    }

    /// Contradictory equalities must surface as `Infeasible`, not as a
    /// silently wrong answer.
    #[test]
    fn contradictory_equalities_are_infeasible() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("a", &[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
        lp.add_constraint("b", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        assert!(matches!(lp.solve(), Err(LpError::Infeasible { .. })));
    }

    /// A genuinely unbounded ray whose reduced cost sits inside the
    /// noise-clamp window (−NOISE_RC_TOL, −DUAL_TOL]: the clamp only
    /// neutralizes numerically-zero columns, so the decisive −1 entry here
    /// must still surface as `Unbounded`, not "optimal at 0".
    #[test]
    fn tiny_objective_unbounded_ray_is_still_detected() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", -5.0e-7);
        let s = lp.add_nonneg_var("s", 0.0);
        lp.add_constraint("c", &[(s, 1.0), (x, -1.0)], Relation::Eq, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::Unbounded)));
    }

    /// A free variable pushed down by a minimization with no lower bound.
    #[test]
    fn free_variable_unbounded_below() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_constraint("ub", &[(x, 1.0)], Relation::Le, 5.0);
        assert!(matches!(lp.solve(), Err(LpError::Unbounded)));
    }

    /// The iteration limit aborts the solve with the configured limit echoed
    /// back (two equality rows need at least two phase-one pivots).
    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("e1", &[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        lp.add_constraint("e2", &[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        lp.set_iteration_limit(1);
        assert!(matches!(
            lp.solve(),
            Err(LpError::IterationLimit { limit: 1 })
        ));
    }

    /// NaN input is rejected up front by validation rather than corrupting
    /// the tableau.
    #[test]
    fn nan_coefficients_are_rejected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", f64::NAN);
        lp.add_constraint("c", &[(x, 1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::NotFinite { .. })));
    }
}
