//! Access-path planning: materialized `BinRel` vs. seeded product-BFS.
//!
//! The paper's hot queries — tgd head-satisfaction probes, egd premise
//! checks, certain-answer tests — arrive with one or both endpoints of
//! most atoms already bound (seeded variables or constants). Materializing
//! `⟦r⟧_G` per atom pays up to `O(|V|²)` regardless; a demand-driven
//! product-BFS ([`gdx_nre::demand`]) pays only for the slice reachable
//! from the bound endpoint. Neither dominates: a BFS per binding loses
//! when the join funnels thousands of bindings through an atom whose full
//! relation is small.
//!
//! `plan_query` therefore walks the atoms greedily (bound endpoints
//! first, selective atoms early — mirroring the materializing join order)
//! and picks one `AccessChoice` per atom from a small cost model over
//! [`Graph::label_stats`]:
//!
//! * `est_pairs(r)` — Σ label counts of `r`'s symbols, plus `|V|` when `r`
//!   is nullable (identity pairs), times `√|V|` when `r` is starred
//!   (closure amplification). The materialization cost and the size
//!   surrogate for join ordering.
//! * `demand_cost(r)` — (estimated bindings flowing into the atom) ×
//!   (automaton size ≈ `r.size()`) × (average fanout of `r`'s labels + 1).
//!
//! An atom with at least one bound endpoint takes the demand path when
//! `demand_cost < est_pairs`; everything else materializes. The estimated
//! binding count starts at 1 (the seed row) and grows by the estimated
//! fanout of each placed atom, so a join that explodes upstream falls
//! back to materialization downstream. Expressions the demand compiler
//! rejects ([`gdx_nre::demand::MAX_STATES`]) are flipped back to
//! materialization at execution time.

use crate::cnre::Cnre;
use crate::explain::AtomExplain;
use gdx_common::{FxHashSet, Symbol, Term};
use gdx_graph::Graph;
use gdx_nre::Nre;

/// Evaluation strategy selector for the planned entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// Cost-based choice between materialization and product-BFS.
    #[default]
    Auto,
    /// Always materialize (the pre-planner behaviour; baseline for
    /// benches and the reference oracle for tests).
    Materialize,
}

/// Per-atom access path chosen by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessChoice {
    /// Full `⟦r⟧_G` via the (incremental or cold) materializing cache.
    Materialize,
    /// Seeded product-BFS from whichever endpoint is bound.
    Demand,
}

impl AccessChoice {
    /// Stable lowercase label used by explain renderings.
    pub fn label(self) -> &'static str {
        match self {
            AccessChoice::Materialize => "materialize",
            AccessChoice::Demand => "demand",
        }
    }
}

/// A join order plus one access choice per atom (indexed by atom
/// position, not order position).
#[derive(Debug)]
pub(crate) struct QueryPlan {
    pub order: Vec<usize>,
    pub access: Vec<AccessChoice>,
}

/// Upper bound used when clamping estimates into sort keys.
const EST_CAP: f64 = 1e15;

fn has_star(r: &Nre) -> bool {
    match r {
        Nre::Epsilon | Nre::Label(_) | Nre::Inverse(_) => false,
        Nre::Union(a, b) | Nre::Concat(a, b) => has_star(a) || has_star(b),
        Nre::Star(_) => true,
        Nre::Test(a) => has_star(a),
    }
}

/// Estimated size of `⟦r⟧_G` from the graph's per-label statistics.
fn est_pairs(graph: &Graph, r: &Nre) -> f64 {
    let nodes = graph.node_count() as f64;
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum of integer-valued f64s is exact, so order-free"
    )]
    let mut est: f64 = r
        .symbols()
        .iter()
        .map(|s| graph.label_count(*s) as f64)
        .sum();
    if r.nullable() {
        est += nodes;
    }
    if has_star(r) {
        est *= nodes.sqrt().max(1.0);
    }
    est.clamp(1.0, EST_CAP)
}

/// Estimated nodes reached by one seeded BFS step bundle: the average
/// out-degree of the mentioned labels, plus one for staying in place.
fn est_fanout(graph: &Graph, r: &Nre) -> f64 {
    let nodes = (graph.node_count() as f64).max(1.0);
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum of integer-valued f64s is exact, so order-free"
    )]
    let edges: f64 = r
        .symbols()
        .iter()
        .map(|s| graph.label_count(*s) as f64)
        .sum();
    (edges / nodes + 1.0).clamp(1.0, EST_CAP)
}

/// Estimated cost of answering the atom by product-BFS for `rows`
/// incoming bindings.
fn demand_cost(graph: &Graph, r: &Nre, rows: f64) -> f64 {
    (rows * r.size() as f64 * est_fanout(graph, r)).min(EST_CAP)
}

/// Plans the join order and per-atom access paths. `bound` is the set of
/// variables fixed before the join starts (the seed); constants count as
/// bound endpoints throughout.
pub(crate) fn plan_query(
    graph: &Graph,
    query: &Cnre,
    bound: &FxHashSet<Symbol>,
    mode: PlannerMode,
) -> QueryPlan {
    plan_query_traced(graph, query, bound, mode, None)
}

/// The planning loop, optionally narrating each placement into `trace`.
/// `plan_query` passes `None` (no per-decision strings are built on the
/// hot path); [`crate::explain`] passes a buffer and renders it.
pub(crate) fn plan_query_traced(
    graph: &Graph,
    query: &Cnre,
    bound: &FxHashSet<Symbol>,
    mode: PlannerMode,
    mut trace: Option<&mut Vec<AtomExplain>>,
) -> QueryPlan {
    let n = query.atoms.len();
    let mut bound = bound.clone();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut access: Vec<AccessChoice> = vec![AccessChoice::Materialize; n];
    let mut est_rows: f64 = 1.0;

    let endpoint_bound = |t: &Term, bound: &FxHashSet<Symbol>| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
    };

    while let Some((pos, &best)) = remaining.iter().enumerate().max_by_key(|(_, &i)| {
        let a = &query.atoms[i];
        let b = usize::from(endpoint_bound(&a.left, &bound))
            + usize::from(endpoint_bound(&a.right, &bound));
        let size = est_pairs(graph, &a.nre) as u64;
        (b, u64::MAX - size)
    }) {
        let atom = &query.atoms[best];
        let bound_endpoints = usize::from(endpoint_bound(&atom.left, &bound))
            + usize::from(endpoint_bound(&atom.right, &bound));
        let mat = est_pairs(graph, &atom.nre);
        let fanout = est_fanout(graph, &atom.nre);
        let demand = demand_cost(graph, &atom.nre, est_rows);
        if mode == PlannerMode::Auto && bound_endpoints >= 1 && demand < mat {
            access[best] = AccessChoice::Demand;
        }
        if let Some(out) = trace.as_deref_mut() {
            out.push(AtomExplain {
                atom: best,
                pattern: atom.to_string(),
                bound_endpoints,
                est_pairs: mat,
                est_fanout: fanout,
                est_rows_in: est_rows,
                demand_cost: demand,
                choice: access[best],
            });
        }
        est_rows = match bound_endpoints {
            2 => est_rows,
            1 => (est_rows * fanout).min(EST_CAP),
            _ => (est_rows * mat).min(EST_CAP),
        };
        bound.extend(atom.variables());
        order.push(best);
        remaining.swap_remove(pos);
    }
    QueryPlan { order, access }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_graph::NodeId;

    fn chain_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.add_const(&format!("v{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge_labelled(w[0], "f", w[1]);
        }
        g
    }

    #[test]
    fn constants_pick_demand_on_large_graphs() {
        let g = chain_graph(200);
        let q = Cnre::parse("(\"v0\", f.f, \"v2\")").unwrap();
        let p = plan_query(&g, &q, &FxHashSet::default(), PlannerMode::Auto);
        assert_eq!(p.access, vec![AccessChoice::Demand]);
        // Forced materialization overrides the cost model.
        let m = plan_query(&g, &q, &FxHashSet::default(), PlannerMode::Materialize);
        assert_eq!(m.access, vec![AccessChoice::Materialize]);
    }

    #[test]
    fn unbound_atoms_materialize() {
        let g = chain_graph(200);
        let q = Cnre::parse("(x, f, y)").unwrap();
        let p = plan_query(&g, &q, &FxHashSet::default(), PlannerMode::Auto);
        assert_eq!(p.access, vec![AccessChoice::Materialize]);
    }

    #[test]
    fn seeded_variable_counts_as_bound() {
        let g = chain_graph(200);
        let q = Cnre::parse("(x, f, y), (y, f, z)").unwrap();
        let mut seed = FxHashSet::default();
        seed.insert(Symbol::new("x"));
        let p = plan_query(&g, &q, &seed, PlannerMode::Auto);
        assert_eq!(p.access, vec![AccessChoice::Demand, AccessChoice::Demand]);
        // The seeded atom is placed first.
        assert_eq!(p.order[0], 0);
    }

    #[test]
    fn estimates_respect_label_stats() {
        let mut g = chain_graph(50);
        for i in 0..40 {
            let a = g.add_const(&format!("h{i}"));
            let b = g.add_const(&format!("k{i}"));
            g.add_edge_labelled(a, "dense", b);
        }
        let sparse = Nre::label("f");
        let dense = Nre::label("dense");
        assert!(est_pairs(&g, &sparse) > est_pairs(&g, &Nre::label("absent")));
        assert!(est_pairs(&g, &dense) < est_pairs(&g, &sparse.clone().star()));
        assert!(est_fanout(&g, &sparse) >= 1.0);
    }
}
