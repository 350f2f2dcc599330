//! Test oracle: the splitting objective evaluated the direct way, deriving
//! active destinations, DAG edge lists and sweep orders from the matrices
//! and DAGs on every call. [`super::SplittingObjective::eval`] must match it
//! bit for bit.

use coyote_gp::{smooth_max_and_weights_into, softmax_into};
use coyote_graph::{Dag, EdgeId, Graph, NodeId};
use coyote_traffic::DemandMatrix;

/// Mapping between the flat optimization vector and (destination, edge)
/// splitting parameters: `index[t][e]` is the position in the flat vector,
/// or `usize::MAX` for edges of nodes with fewer than two DAG out-edges.
pub(super) struct ParamMap {
    index: Vec<Vec<usize>>,
    pub(super) len: usize,
}

impl ParamMap {
    pub(super) fn new(graph: &Graph, dags: &[Dag]) -> Self {
        let mut index = vec![vec![usize::MAX; graph.edge_count()]; dags.len()];
        let mut len = 0usize;
        for (t, dag) in dags.iter().enumerate() {
            for v in graph.nodes() {
                let out = dag.out_edges(v);
                if out.len() >= 2 {
                    for &e in out {
                        index[t][e.index()] = len;
                        len += 1;
                    }
                }
            }
        }
        Self { index, len }
    }

    pub(super) fn get(&self, t: usize, e: EdgeId) -> Option<usize> {
        let i = self.index[t][e.index()];
        if i == usize::MAX {
            None
        } else {
            Some(i)
        }
    }
}

fn ratios_from_params(graph: &Graph, dags: &[Dag], map: &ParamMap, theta: &[f64]) -> Vec<Vec<f64>> {
    let ne = graph.edge_count();
    let mut phi = vec![vec![0.0; ne]; dags.len()];
    for (t, dag) in dags.iter().enumerate() {
        let phi_t = &mut phi[t];
        for v in graph.nodes() {
            let out = dag.out_edges(v);
            match out.len() {
                0 => {}
                1 => phi_t[out[0].index()] = 1.0,
                _ => {
                    let logits: Vec<f64> = out
                        .iter()
                        .map(|&e| theta[map.get(t, e).expect("multi-out edges are parametrized")])
                        .collect();
                    let mut probs = Vec::new();
                    softmax_into(&logits, &mut probs);
                    for (&e, &p) in out.iter().zip(probs.iter()) {
                        phi_t[e.index()] = p;
                    }
                }
            }
        }
    }
    phi
}

/// Per-destination aggregated node flow for explicit ratios.
fn destination_flow(
    graph: &Graph,
    dag: &Dag,
    phi: &[f64],
    dm: &DemandMatrix,
    t: NodeId,
) -> Vec<f64> {
    let mut flow = vec![0.0; graph.node_count()];
    for s in graph.nodes() {
        if s != t {
            flow[s.index()] = dm.get(s, t);
        }
    }
    for &v in dag.topo_from_destination().iter().rev() {
        let mut acc = 0.0;
        for &e in dag.in_edges(v) {
            let u = graph.edge(e).src;
            acc += flow[u.index()] * phi[e.index()];
        }
        flow[v.index()] += acc;
    }
    flow
}

/// Smoothed maximum over (matrix, edge) of `load / (capacity · OPTU(D))`,
/// with its gradient accumulated into `grad`.
pub(super) fn eval(
    graph: &Graph,
    dags: &[Dag],
    map: &ParamMap,
    working_set: &[(DemandMatrix, f64)],
    smoothing: f64,
    theta: &[f64],
    grad: &mut [f64],
) -> f64 {
    let ne = graph.edge_count();
    let phi = ratios_from_params(graph, dags, map, theta);

    // Forward pass: per (matrix, destination) node flows and per-matrix
    // edge loads.
    let mut flows: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); dags.len()]; working_set.len()];
    for ((dm, _), per_dest) in working_set.iter().zip(flows.iter_mut()) {
        for t in dm.active_destinations() {
            per_dest[t.index()] = destination_flow(graph, &dags[t.index()], &phi[t.index()], dm, t);
        }
    }
    let mut values = Vec::with_capacity(working_set.len() * ne);
    for ((dm, r), per_dest) in working_set.iter().zip(flows.iter()) {
        let mut loads = vec![0.0; ne];
        for t in dm.active_destinations() {
            let dag = &dags[t.index()];
            let flow = &per_dest[t.index()];
            for e in dag.edges() {
                let u = graph.edge(e).src;
                loads[e.index()] += flow[u.index()] * phi[t.index()][e.index()];
            }
        }
        for e in graph.edges() {
            values.push(loads[e.index()] / (graph.capacity(e) * r));
        }
    }

    let max_val = values.iter().copied().fold(0.0_f64, f64::max);
    let tau = (smoothing * max_val).max(1e-6);
    let mut weights = Vec::new();
    let objective = smooth_max_and_weights_into(&values, tau, &mut weights);

    // Backward pass (adjoint) per (matrix, destination).
    let mut dphi = vec![vec![0.0; ne]; dags.len()];
    for (k, ((dm, r), per_dest)) in working_set.iter().zip(flows.iter()).enumerate() {
        let w_of = |e: EdgeId| weights[k * ne + e.index()] / (graph.capacity(e) * r);
        for t in dm.active_destinations() {
            let dag = &dags[t.index()];
            let flow = &per_dest[t.index()];
            let phi_t = &phi[t.index()];
            let mut lambda = vec![0.0; graph.node_count()];
            for &v in dag.topo_from_destination() {
                if v == dag.destination() {
                    continue;
                }
                let mut acc = 0.0;
                for &e in dag.out_edges(v) {
                    let x = graph.edge(e).dst;
                    acc += phi_t[e.index()] * (w_of(e) + lambda[x.index()]);
                }
                lambda[v.index()] = acc;
            }
            for e in dag.edges() {
                let (u, x) = graph.endpoints(e);
                dphi[t.index()][e.index()] += flow[u.index()] * (w_of(e) + lambda[x.index()]);
            }
        }
    }

    // Chain rule through the per-node softmax.
    for (t, dag) in dags.iter().enumerate() {
        for v in graph.nodes() {
            let out = dag.out_edges(v);
            if out.len() < 2 {
                continue;
            }
            let dot: f64 = out
                .iter()
                .map(|&e| dphi[t][e.index()] * phi[t][e.index()])
                .sum();
            for &e in out {
                let idx = map.get(t, e).expect("parametrized edge");
                grad[idx] += phi[t][e.index()] * (dphi[t][e.index()] - dot);
            }
        }
    }

    objective
}
