//! COYOTE's in-DAG traffic-splitting optimization (Section V-C, Appendix C).
//!
//! Given the per-destination DAGs, COYOTE chooses the splitting ratios
//! `φ_t(e)` that minimize the worst-case link utilization over the
//! operator's uncertainty set, normalized by the demands-aware optimum. The
//! paper casts this as an iterative mixed linear–geometric program solved
//! with an interior-point solver; this reproduction keeps the same outer
//! structure but solves the inner problem with a first-order method:
//!
//! 1. **Log-domain parametrization.** Splitting ratios are expressed as a
//!    softmax of free parameters per (destination, node), which enforces the
//!    "ratios sum to one" constraint exactly — the constraint the paper has
//!    to approximate with monomial condensation — while keeping every load a
//!    smooth function of the parameters (products of ratios along paths, as
//!    in the paper's GP view).
//! 2. **Smoothed worst case.** The maximum utilization over (edge, demand
//!    matrix) pairs is smoothed with log-sum-exp and minimized with Adam
//!    (`coyote-gp`); gradients are computed analytically with an adjoint
//!    sweep over each DAG.
//! 3. **Constraint generation (the dualization step's practical twin).** The
//!    finite working set of demand matrices is grown by solving the exact
//!    slave LP of Appendix C for the current bottleneck edges; the witness
//!    matrices are added and the splitting ratios re-optimized, exactly like
//!    the paper's iterative approach alternates between the master and the
//!    dualized adversary.
//!
//! The result can only improve on ECMP over the working set because uniform
//! splitting over the augmented DAGs (which contain the shortest-path DAGs)
//! is a feasible starting point (Section V-B).

use crate::dag_builder::{build_all_dags, DagMode};
use crate::error::CoreError;
use crate::perf::{EvaluationOptions, EvaluationSet};
use crate::routing::PdRouting;
use crate::worst_case::{bottleneck_candidates, performance_ratio_exact, RoutabilityScope};
use coyote_gp::{minimize_adam, smooth_max_and_weights_into, softmax_into};
use coyote_graph::{Dag, Graph, NodeId};
use coyote_traffic::{DemandMatrix, UncertaintySet};
use std::cell::RefCell;

/// Configuration of the COYOTE splitting optimizer.
#[derive(Debug, Clone)]
pub struct CoyoteConfig {
    /// Outer constraint-generation rounds (adversarial matrices added).
    pub cg_rounds: usize,
    /// How many bottleneck edges to probe with the exact slave LP per round.
    pub cg_candidate_edges: usize,
    /// Adam iterations per inner optimization.
    pub adam_iterations: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Smoothing temperature of the max (relative to the current maximum).
    pub smoothing: f64,
    /// Options for the initial finite working set of demand matrices.
    pub evaluation: EvaluationOptions,
    /// Stop constraint generation once the exact adversary cannot raise the
    /// working-set ratio by more than this factor.
    pub cg_tolerance: f64,
    /// Routability scope for the adversary's certifying flow.
    pub scope: RoutabilityScope,
}

impl Default for CoyoteConfig {
    fn default() -> Self {
        Self {
            cg_rounds: 3,
            cg_candidate_edges: 3,
            adam_iterations: 1_500,
            learning_rate: 0.08,
            smoothing: 0.02,
            evaluation: EvaluationOptions::default(),
            cg_tolerance: 1.02,
            scope: RoutabilityScope::WithinDags,
        }
    }
}

impl CoyoteConfig {
    /// A cheaper configuration for tests and quick sweeps.
    pub fn fast() -> Self {
        Self {
            cg_rounds: 2,
            cg_candidate_edges: 2,
            adam_iterations: 600,
            evaluation: EvaluationOptions {
                corners: 6,
                samples: 3,
                spikes: 4,
                seed: 0xC0707E,
            },
            ..Self::default()
        }
    }
}

/// Outcome of a COYOTE optimization run.
#[derive(Debug, Clone)]
pub struct CoyoteResult {
    /// The optimized routing.
    pub routing: PdRouting,
    /// Performance ratio over the final working set of demand matrices.
    pub working_set_ratio: f64,
    /// Number of demand matrices in the final working set.
    pub working_set_size: usize,
    /// Constraint-generation rounds actually performed.
    pub rounds: usize,
}

/// Flat, precomputed view of the per-destination DAGs that the splitting
/// optimizer sweeps, built once per [`optimize_splitting_with_working_set`]
/// call.
///
/// Only nodes with at least two DAG out-edges get splitting parameters;
/// single-out-edge nodes always forward everything. The parameters of one
/// (destination, node) softmax group are contiguous, in `out_edges` order,
/// and ratios live in one flat array indexed `t · E + e`.
struct DagLayout {
    edge_count: usize,
    /// Flat ratio position of each parameter.
    slot: Vec<usize>,
    /// Parameter range `(start, end)` of each softmax group.
    groups: Vec<(usize, usize)>,
    /// Ratios that do not depend on the parameters: 1 on the out-edge of
    /// every single-out-edge node, 0 everywhere else.
    fixed_phi: Vec<f64>,
    /// Per DAG, sources first: each node with its `(in-edge, tail)` pairs.
    forward: Sweeps,
    /// Per DAG, destination first (destination excluded): each node with
    /// its `(out-edge, head)` pairs.
    adjoint: Sweeps,
}

/// Per-DAG node sweeps in CSR form: DAG `t` visits
/// `nodes[dag_start[t]..dag_start[t + 1]]`, and entry `(v, lo, hi)` owns
/// the `(edge, neighbour)` pairs `links[lo..hi]`.
struct Sweeps {
    dag_start: Vec<usize>,
    nodes: Vec<(usize, usize, usize)>,
    links: Vec<(usize, usize)>,
}

impl Sweeps {
    fn new() -> Self {
        Self {
            dag_start: vec![0],
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Appends node `v` and its `(edge, neighbour)` pairs to the DAG being
    /// built.
    fn push(&mut self, v: NodeId, links: impl Iterator<Item = (usize, usize)>) {
        let lo = self.links.len();
        self.links.extend(links);
        self.nodes.push((v.index(), lo, self.links.len()));
    }

    fn end_dag(&mut self) {
        self.dag_start.push(self.nodes.len());
    }

    fn dag(&self, t: usize) -> &[(usize, usize, usize)] {
        &self.nodes[self.dag_start[t]..self.dag_start[t + 1]]
    }
}

impl DagLayout {
    fn new(graph: &Graph, dags: &[Dag]) -> Self {
        let ne = graph.edge_count();
        let mut slot = Vec::new();
        let mut groups = Vec::new();
        let mut fixed_phi = vec![0.0; dags.len() * ne];
        let mut forward = Sweeps::new();
        let mut adjoint = Sweeps::new();
        for (t, dag) in dags.iter().enumerate() {
            let base = t * ne;
            for v in graph.nodes() {
                match dag.out_edges(v) {
                    [] => {}
                    [e] => fixed_phi[base + e.index()] = 1.0,
                    out => {
                        let start = slot.len();
                        slot.extend(out.iter().map(|e| base + e.index()));
                        groups.push((start, slot.len()));
                    }
                }
            }
            let topo = dag.topo_from_destination();
            for &v in topo.iter().rev() {
                let tails = dag.in_edges(v).iter();
                forward.push(v, tails.map(|&e| (e.index(), graph.edge(e).src.index())));
            }
            for &v in topo.iter().filter(|&&v| v != dag.destination()) {
                let heads = dag.out_edges(v).iter();
                adjoint.push(v, heads.map(|&e| (e.index(), graph.edge(e).dst.index())));
            }
            forward.end_dag();
            adjoint.end_dag();
        }
        Self {
            edge_count: ne,
            slot,
            groups,
            fixed_phi,
            forward,
            adjoint,
        }
    }

    /// Number of free parameters.
    fn len(&self) -> usize {
        self.slot.len()
    }

    /// Writes the softmax ratios of `theta` into `phi`, a flat ratio array
    /// that started as a copy of `fixed_phi`; `probs` is scratch.
    fn ratios_into(&self, theta: &[f64], phi: &mut [f64], probs: &mut Vec<f64>) {
        for &(lo, hi) in &self.groups {
            softmax_into(&theta[lo..hi], probs);
            for (&s, &p) in self.slot[lo..hi].iter().zip(probs.iter()) {
                phi[s] = p;
            }
        }
    }
}

/// Reusable buffers for [`SplittingObjective::eval`], sized once when the
/// objective is built. Every entry an evaluation reads is either a fixed
/// ratio or rewritten earlier in the same evaluation, so no state carries
/// over between calls.
struct EvalScratch {
    /// Flat ratios, `t · E + e`.
    phi: Vec<f64>,
    probs: Vec<f64>,
    /// Node flows of active pair `p` at `p · N + v`.
    flows: Vec<f64>,
    /// Utilization of edge `e` under matrix `k` at `k · E + e`.
    values: Vec<f64>,
    /// Smoothed-max weight of each value, then divided by its denominator.
    weights: Vec<f64>,
    /// `∂J/∂φ_t(e)` at `t · E + e`.
    dphi: Vec<f64>,
    lambda: Vec<f64>,
}

/// The differentiable objective: smoothed maximum over (matrix, edge) of
/// `load / (capacity · OPTU(D))`.
///
/// One objective serves one constraint-generation round, whose working set
/// is fixed, so everything derived from the working set is computed here
/// once and [`Self::eval`] only sweeps flat index arrays.
struct SplittingObjective<'a> {
    layout: &'a DagLayout,
    node_count: usize,
    matrices: Vec<&'a DemandMatrix>,
    /// Active destinations of matrix `k`, ascending, are
    /// `active[active_start[k]..active_start[k + 1]]`; a position in
    /// `active` numbers the (matrix, destination) pair.
    active: Vec<usize>,
    active_start: Vec<usize>,
    /// `capacity(e) · OPTU(D_k)` at `k · E + e`.
    denom: Vec<f64>,
    smoothing: f64,
    scratch: RefCell<EvalScratch>,
}

impl<'a> SplittingObjective<'a> {
    fn new(
        graph: &Graph,
        layout: &'a DagLayout,
        working_set: impl IntoIterator<Item = (&'a DemandMatrix, f64)>,
        smoothing: f64,
    ) -> Self {
        let n = graph.node_count();
        let mut matrices = Vec::new();
        let mut active = Vec::new();
        let mut active_start = vec![0];
        let mut denom = Vec::new();
        for (dm, r) in working_set {
            matrices.push(dm);
            active.extend(dm.active_destinations().iter().map(|t| t.index()));
            active_start.push(active.len());
            denom.extend(graph.edges().map(|e| graph.capacity(e) * r));
        }
        let scratch = EvalScratch {
            phi: layout.fixed_phi.clone(),
            probs: Vec::new(),
            flows: vec![0.0; active.len() * n],
            values: vec![0.0; denom.len()],
            weights: Vec::with_capacity(denom.len()),
            dphi: vec![0.0; layout.fixed_phi.len()],
            lambda: vec![0.0; n],
        };
        Self {
            layout,
            node_count: n,
            matrices,
            active,
            active_start,
            denom,
            smoothing,
            scratch: RefCell::new(scratch),
        }
    }

    /// Evaluates the smoothed objective and accumulates the gradient.
    fn eval(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let layout = self.layout;
        let (n, ne) = (self.node_count, layout.edge_count);
        let scratch = &mut *self.scratch.borrow_mut();
        let EvalScratch {
            phi,
            probs,
            flows,
            values,
            weights,
            dphi,
            lambda,
        } = scratch;
        layout.ratios_into(theta, phi, probs);

        // Forward pass per (matrix, active destination): node flows, sources
        // first. Each DAG edge is an in-edge of exactly one node, so its load
        // term is added once per destination, in ascending destination order.
        for (k, dm) in self.matrices.iter().enumerate() {
            let loads = &mut values[k * ne..(k + 1) * ne];
            loads.fill(0.0);
            for p in self.active_start[k]..self.active_start[k + 1] {
                let t = self.active[p];
                let phi_t = &phi[t * ne..(t + 1) * ne];
                let flow = &mut flows[p * n..(p + 1) * n];
                for (s, f) in flow.iter_mut().enumerate() {
                    *f = if s == t {
                        0.0
                    } else {
                        dm.get(NodeId(s), NodeId(t))
                    };
                }
                for &(v, lo, hi) in layout.forward.dag(t) {
                    let mut acc = 0.0;
                    for &(e, u) in &layout.forward.links[lo..hi] {
                        let carried = flow[u] * phi_t[e];
                        acc += carried;
                        loads[e] += carried;
                    }
                    flow[v] += acc;
                }
            }
            for (load, d) in loads.iter_mut().zip(&self.denom[k * ne..(k + 1) * ne]) {
                *load /= d;
            }
        }

        let max_val = values.iter().copied().fold(0.0_f64, f64::max);
        let tau = (self.smoothing * max_val).max(1e-6);
        let objective = smooth_max_and_weights_into(values, tau, weights);
        for (w, d) in weights.iter_mut().zip(&self.denom) {
            *w /= d;
        }

        // Backward pass (adjoint) per (matrix, active destination):
        // λ(v) = Σ_{e=(v,x)} φ(e) (w_e + λ(x)), destination first so heads
        // are final, and dJ/dφ_t(e) += F(v) (w_e + λ(x)) on the same visit.
        dphi.fill(0.0);
        for k in 0..self.matrices.len() {
            let w = &weights[k * ne..(k + 1) * ne];
            for p in self.active_start[k]..self.active_start[k + 1] {
                let t = self.active[p];
                let phi_t = &phi[t * ne..(t + 1) * ne];
                let dphi_t = &mut dphi[t * ne..(t + 1) * ne];
                let flow = &flows[p * n..(p + 1) * n];
                // The destination's adjoint is the only entry read before
                // this sweep writes it.
                lambda[t] = 0.0;
                for &(v, lo, hi) in layout.adjoint.dag(t) {
                    let mut acc = 0.0;
                    for &(e, x) in &layout.adjoint.links[lo..hi] {
                        let g = w[e] + lambda[x];
                        acc += phi_t[e] * g;
                        dphi_t[e] += flow[v] * g;
                    }
                    lambda[v] = acc;
                }
            }
        }

        // Chain rule through the per-node softmax.
        for &(lo, hi) in &layout.groups {
            let slots = &layout.slot[lo..hi];
            let dot: f64 = slots.iter().map(|&s| dphi[s] * phi[s]).sum();
            for (g, &s) in grad[lo..hi].iter_mut().zip(slots) {
                *g += phi[s] * (dphi[s] - dot);
            }
        }

        objective
    }
}

/// Optimizes the splitting ratios within the given DAGs for the uncertainty
/// set. `base` is the base demand matrix the margins were derived from (it
/// seeds the working set); pass `None` in the fully oblivious setting.
pub fn optimize_splitting(
    graph: &Graph,
    dags: Vec<Dag>,
    uncertainty: &UncertaintySet,
    base: Option<&DemandMatrix>,
    config: &CoyoteConfig,
) -> Result<CoyoteResult, CoreError> {
    if dags.len() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "{} DAGs for {} nodes",
            dags.len(),
            graph.node_count()
        )));
    }
    let working = EvaluationSet::build(graph, &dags, uncertainty, base, &config.evaluation)?;
    optimize_splitting_with_working_set(graph, dags, uncertainty, base, config, working)
}

/// Same as [`optimize_splitting`] but starting from a caller-supplied
/// working set of demand matrices (with their precomputed optima). The
/// experiment harness reuses one evaluation family across the COYOTE
/// variants to avoid recomputing the `OPTU` LPs.
pub fn optimize_splitting_with_working_set(
    graph: &Graph,
    dags: Vec<Dag>,
    uncertainty: &UncertaintySet,
    base: Option<&DemandMatrix>,
    config: &CoyoteConfig,
    initial_working_set: EvaluationSet,
) -> Result<CoyoteResult, CoreError> {
    let _span = coyote_obs::span("core.optimize_splitting");
    if dags.len() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "{} DAGs for {} nodes",
            dags.len(),
            graph.node_count()
        )));
    }

    // Working set of demand matrices with their LP optima.
    let mut working = initial_working_set;
    if working.is_empty() {
        working = EvaluationSet::build(graph, &dags, uncertainty, base, &config.evaluation)?;
    }

    let layout = DagLayout::new(graph, &dags);
    let mut theta = vec![0.0; layout.len()];
    let mut rounds = 0usize;

    for round in 0..config.cg_rounds.max(1) {
        rounds = round + 1;
        // ---- Inner optimization over the current working set. ----
        if layout.len() > 0 {
            let objective =
                SplittingObjective::new(graph, &layout, working.entries(), config.smoothing);
            theta = minimize_adam(
                |x, grad| objective.eval(x, grad),
                &theta,
                config.learning_rate,
                config.adam_iterations,
            )
            .x;
        }

        // Current routing and its ratio over the working set.
        let routing = routing_from_theta(graph, &dags, &layout, &theta);
        let current = working.performance_ratio(graph, &routing);

        if round + 1 == config.cg_rounds.max(1) {
            break;
        }

        // ---- Constraint generation: ask the exact adversary. ----
        let reference = uncertainty
            .upper_envelope()
            .or_else(|| base.cloned())
            .unwrap_or_else(|| {
                working
                    .entries()
                    .next()
                    .map(|(dm, _)| dm.clone())
                    .unwrap_or_else(|| DemandMatrix::zeros(graph.node_count()))
            });
        let candidates =
            bottleneck_candidates(graph, &routing, &reference, config.cg_candidate_edges);
        let wc = performance_ratio_exact(
            graph,
            &routing,
            uncertainty,
            config.scope,
            Some(&candidates),
        )?;
        if wc.ratio <= current * config.cg_tolerance {
            break;
        }
        working.try_add(graph, &dags, wc.demand)?;
    }

    let routing = routing_from_theta(graph, &dags, &layout, &theta);
    let ratio = working.performance_ratio(graph, &routing);
    coyote_obs::counter("core.cg.optimizations", 1);
    coyote_obs::counter("core.cg.rounds", rounds as u64);
    coyote_obs::observe("core.cg.rounds_per_optimization", rounds as u64);
    Ok(CoyoteResult {
        routing,
        working_set_ratio: ratio,
        working_set_size: working.len(),
        rounds,
    })
}

fn routing_from_theta(graph: &Graph, dags: &[Dag], layout: &DagLayout, theta: &[f64]) -> PdRouting {
    let ne = graph.edge_count();
    let mut phi = layout.fixed_phi.clone();
    layout.ratios_into(theta, &mut phi, &mut Vec::new());
    let ratios = (0..dags.len())
        .map(|t| phi[t * ne..(t + 1) * ne].to_vec())
        .collect();
    PdRouting::from_ratios(graph, dags.to_vec(), ratios)
}

/// End-to-end COYOTE: build the augmented DAGs from the graph's current OSPF
/// weights (Section V-B) and optimize the splitting ratios for the given
/// uncertainty set (Section V-C).
pub fn coyote(
    graph: &Graph,
    uncertainty: &UncertaintySet,
    base: Option<&DemandMatrix>,
    config: &CoyoteConfig,
) -> Result<CoyoteResult, CoreError> {
    let dags = build_all_dags(graph, DagMode::Augmented)?;
    optimize_splitting(graph, dags, uncertainty, base, config)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecmp::ecmp_routing;
    use crate::worst_case::performance_ratio_exact;
    use coyote_graph::EdgeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fig1() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let s1 = g.add_node("s1").unwrap();
        let s2 = g.add_node("s2").unwrap();
        let v = g.add_node("v").unwrap();
        let t = g.add_node("t").unwrap();
        g.add_bidirectional_edge(s1, s2, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s1, v, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s2, v, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s2, t, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(v, t, 1.0, 1.0).unwrap();
        (g, s1, s2, v, t)
    }

    fn fig1_uncertainty(s1: NodeId, s2: NodeId, t: NodeId) -> UncertaintySet {
        let mut upper = coyote_traffic::DemandMatrix::zeros(4);
        upper.set(s1, t, 2.0);
        upper.set(s2, t, 2.0);
        UncertaintySet::from_bounds(coyote_traffic::DemandMatrix::zeros(4), upper)
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (g, s1, s2, _v, t) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let layout = DagLayout::new(&g, &dags);
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.5);
        dm.set(s2, t, 0.5);
        let objective = SplittingObjective::new(&g, &layout, [(&dm, 1.0)], 0.05);
        let theta: Vec<f64> = (0..layout.len()).map(|i| 0.1 * (i as f64) - 0.3).collect();
        let mut grad = vec![0.0; layout.len()];
        let f0 = objective.eval(&theta, &mut grad);
        assert!(f0.is_finite());
        let h = 1e-5;
        for i in 0..layout.len() {
            let mut tp = theta.clone();
            tp[i] += h;
            let mut tm = theta.clone();
            tm[i] -= h;
            let mut scratch = vec![0.0; layout.len()];
            let fp = objective.eval(&tp, &mut scratch);
            let mut scratch = vec![0.0; layout.len()];
            let fm = objective.eval(&tm, &mut scratch);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-4,
                "param {i}: analytic {} vs fd {fd}",
                grad[i]
            );
        }
    }

    /// Asserts that the precomputed objective matches the reference
    /// evaluation bit for bit, value and every gradient entry, at θ = 0 and
    /// at two seeded random points. Every point is evaluated twice on the
    /// same objective, so state left over from an earlier call would show.
    fn assert_matches_reference(g: &Graph, dags: &[Dag], working: &EvaluationSet) {
        let ne = g.edge_count();
        let layout = DagLayout::new(g, dags);
        let map = reference::ParamMap::new(g, dags);
        assert_eq!(layout.len(), map.len);
        for (i, &s) in layout.slot.iter().enumerate() {
            assert_eq!(map.get(s / ne, EdgeId(s % ne)), Some(i), "parameter {i}");
        }
        let set: Vec<(DemandMatrix, f64)> =
            working.entries().map(|(dm, r)| (dm.clone(), r)).collect();
        let smoothing = CoyoteConfig::default().smoothing;
        let objective = SplittingObjective::new(g, &layout, working.entries(), smoothing);

        let mut rng = StdRng::seed_from_u64(0x0B11);
        let mut points = vec![vec![0.0; layout.len()]];
        for _ in 0..2 {
            points.push(
                (0..layout.len())
                    .map(|_| rng.gen_range(-2.0..2.0))
                    .collect(),
            );
        }
        for pass in 0..2 {
            for (p, theta) in points.iter().enumerate() {
                let mut grad = vec![0.0; layout.len()];
                let mut want_grad = vec![0.0; layout.len()];
                let got = objective.eval(theta, &mut grad);
                let want = reference::eval(g, dags, &map, &set, smoothing, theta, &mut want_grad);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "value, point {p} pass {pass}"
                );
                for (i, (a, b)) in grad.iter().zip(&want_grad).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "grad[{i}], point {p} pass {pass}");
                }
            }
        }
    }

    #[test]
    fn objective_is_bit_identical_to_reference_on_fig1() {
        let (g, s1, s2, _v, t) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let unc = fig1_uncertainty(s1, s2, t);
        let working =
            EvaluationSet::build(&g, &dags, &unc, None, &EvaluationOptions::default()).unwrap();
        assert_matches_reference(&g, &dags, &working);
    }

    #[test]
    fn objective_is_bit_identical_to_reference_on_abilene() {
        let g = coyote_topology::zoo::abilene().to_graph().unwrap();
        let n = g.node_count();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let base = coyote_traffic::GravityModel::default().generate(&g);
        let options = CoyoteConfig::fast().evaluation;

        let margin_box = UncertaintySet::from_margin(&base, 2.0);
        let working = EvaluationSet::build(&g, &dags, &margin_box, Some(&base), &options).unwrap();
        assert_matches_reference(&g, &dags, &working);

        let oblivious = UncertaintySet::oblivious(n);
        let working = EvaluationSet::build(&g, &dags, &oblivious, None, &options).unwrap();
        assert!(
            working
                .entries()
                .any(|(dm, _)| dm.active_destinations().len() < n),
            "the oblivious working set should hold matrices with inactive destinations"
        );
        assert_matches_reference(&g, &dags, &working);
    }

    #[test]
    fn coyote_beats_ecmp_on_the_running_example() {
        // The paper: traditional ECMP cannot do better than 3/2 on Fig. 1,
        // while COYOTE achieves 4/3 (and its optimization even reaches the
        // golden-ratio optimum ≈ 1.236 within the Fig. 1c DAG).
        let (g, s1, s2, _v, t) = fig1();
        let unc = fig1_uncertainty(s1, s2, t);
        let result = coyote(&g, &unc, None, &CoyoteConfig::fast()).unwrap();
        result.routing.validate(&g).unwrap();

        let coyote_exact =
            performance_ratio_exact(&g, &result.routing, &unc, RoutabilityScope::AllEdges, None)
                .unwrap();
        let ecmp = ecmp_routing(&g).unwrap();
        let ecmp_exact =
            performance_ratio_exact(&g, &ecmp, &unc, RoutabilityScope::AllEdges, None).unwrap();

        assert!(
            coyote_exact.ratio < ecmp_exact.ratio - 0.2,
            "COYOTE {} should clearly beat ECMP {}",
            coyote_exact.ratio,
            ecmp_exact.ratio
        );
        // The golden-ratio optimum for this instance is √5 − 1 ≈ 1.236; allow
        // some slack for the first-order solver.
        assert!(
            coyote_exact.ratio < 1.40,
            "COYOTE ratio {} too far from the analytic optimum 1.236",
            coyote_exact.ratio
        );
    }

    #[test]
    fn optimizer_improves_over_uniform_starting_point() {
        let (g, s1, s2, _v, t) = fig1();
        let unc = fig1_uncertainty(s1, s2, t);
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let uniform = PdRouting::uniform(&g, dags.clone());
        let working =
            EvaluationSet::build(&g, &dags, &unc, None, &EvaluationOptions::default()).unwrap();
        let uniform_ratio = working.performance_ratio(&g, &uniform);
        let result = optimize_splitting(&g, dags, &unc, None, &CoyoteConfig::fast()).unwrap();
        assert!(
            result.working_set_ratio <= uniform_ratio + 1e-6,
            "optimized {} vs uniform {}",
            result.working_set_ratio,
            uniform_ratio
        );
    }

    #[test]
    fn partial_knowledge_beats_full_obliviousness_on_its_own_box() {
        // Optimizing for the (tight) box around the base matrix should do at
        // least as well on that box as optimizing for "anything goes".
        let (g, s1, s2, _v, t) = fig1();
        let base = DemandMatrix::from_pairs(4, &[(s1, t, 1.0), (s2, t, 1.0)]);
        let margin_box = UncertaintySet::from_margin(&base, 1.5);
        let oblivious = UncertaintySet::oblivious(4);

        let cfg = CoyoteConfig::fast();
        let partial = coyote(&g, &margin_box, Some(&base), &cfg).unwrap();
        let obl = coyote(&g, &oblivious, Some(&base), &cfg).unwrap();

        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let eval = EvaluationSet::build(
            &g,
            &dags,
            &margin_box,
            Some(&base),
            &EvaluationOptions::default(),
        )
        .unwrap();
        let partial_ratio = eval.performance_ratio(&g, &partial.routing);
        let obl_ratio = eval.performance_ratio(&g, &obl.routing);
        assert!(
            partial_ratio <= obl_ratio + 0.1,
            "partial {partial_ratio} should not lose to oblivious {obl_ratio} on the box"
        );
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (g, ..) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let unc = UncertaintySet::oblivious(4);
        let err = optimize_splitting(&g, dags[..2].to_vec(), &unc, None, &CoyoteConfig::fast());
        assert!(matches!(err, Err(CoreError::DimensionMismatch(_))));
    }

    #[test]
    fn result_metadata_is_populated() {
        let (g, s1, s2, _v, t) = fig1();
        let unc = fig1_uncertainty(s1, s2, t);
        let result = coyote(&g, &unc, None, &CoyoteConfig::fast()).unwrap();
        assert!(result.rounds >= 1);
        assert!(result.working_set_size >= 1);
        assert!(result.working_set_ratio.is_finite());
    }
}
