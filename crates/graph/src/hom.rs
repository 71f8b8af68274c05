//! Graph-to-graph homomorphisms and isomorphisms.
//!
//! A homomorphism `h : G → G'` maps nodes to nodes such that (i) `h` is the
//! identity on constants and (ii) every edge `(u, a, v)` of `G` has an edge
//! `(h(u), a, h(v))` in `G'`. This is the plain-graph specialization of the
//! pattern homomorphisms of [Barceló–Pérez–Reutter 2013]; the pattern
//! version (with NREs on edges) lives in `gdx-pattern`.
//!
//! Isomorphism (bijective, edge-reflecting, identity on constants) is what
//! the tests use to compare chase outputs against the paper's figures "up
//! to null renaming".

use crate::frozen::FrozenGraph;
use crate::graph::{Graph, NodeId};
use gdx_common::{FxHashMap, FxHashSet};

/// Searches for a homomorphism from `g` to `h`. Returns the node mapping if
/// one exists.
///
/// Constants of `g` must exist in `h` (identity requirement); nulls may map
/// to any node. Backtracking over `g`'s nulls with forward pruning on edge
/// constraints.
pub fn find_homomorphism(g: &Graph, h: &Graph) -> Option<FxHashMap<NodeId, NodeId>> {
    let mut assign: FxHashMap<NodeId, NodeId> = FxHashMap::default();

    // Constants are forced.
    for id in g.node_ids() {
        let node = g.node(id);
        if node.is_const() {
            let target = h.node_id(node)?;
            assign.insert(id, target);
        }
    }

    // Order nulls: most-constrained (highest degree) first.
    let mut degree: FxHashMap<NodeId, usize> = FxHashMap::default();
    for &(s, _, d) in g.edges() {
        *degree.entry(s).or_insert(0) += 1;
        *degree.entry(d).or_insert(0) += 1;
    }
    let mut nulls: Vec<NodeId> = g.node_ids().filter(|&id| !g.node(id).is_const()).collect();
    nulls.sort_by_key(|id| std::cmp::Reverse(degree.get(id).copied().unwrap_or(0)));

    // The search probes h's edges once per (candidate, edge) pair — the
    // frozen CSR serves those probes by galloping over sorted neighbor
    // slices instead of hashing into the mutable edge set.
    let hf = h.freeze();
    if search(g, h, &hf, &nulls, 0, &mut assign, false) {
        Some(assign)
    } else {
        None
    }
}

/// Tests whether `g` and `h` are isomorphic: same node and edge counts, a
/// bijective homomorphism whose inverse is also a homomorphism, identity on
/// constants. Suitable for the small figure-sized graphs in tests.
pub fn is_isomorphic(g: &Graph, h: &Graph) -> bool {
    if g.node_count() != h.node_count() || g.edge_count() != h.edge_count() {
        return false;
    }
    let mut assign: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    for id in g.node_ids() {
        let node = g.node(id);
        if node.is_const() {
            match h.node_id(node) {
                Some(t) => {
                    assign.insert(id, t);
                }
                None => return false,
            }
        }
    }
    let mut nulls: Vec<NodeId> = g.node_ids().filter(|&id| !g.node(id).is_const()).collect();
    // Most-constrained first.
    let mut degree: FxHashMap<NodeId, usize> = FxHashMap::default();
    for &(s, _, d) in g.edges() {
        *degree.entry(s).or_insert(0) += 1;
        *degree.entry(d).or_insert(0) += 1;
    }
    nulls.sort_by_key(|id| std::cmp::Reverse(degree.get(id).copied().unwrap_or(0)));
    search(g, h, &h.freeze(), &nulls, 0, &mut assign, true)
}

/// Backtracking search assigning `nulls[depth..]`. When `injective` is set,
/// the assignment must be injective *and* edges must be reflected exactly
/// (isomorphism); edge counts being equal, a bijective homomorphism with no
/// merged images is automatically edge-reflecting only if we also check the
/// reverse direction — which the final check performs.
fn search(
    g: &Graph,
    h: &Graph,
    hf: &FrozenGraph,
    nulls: &[NodeId],
    depth: usize,
    assign: &mut FxHashMap<NodeId, NodeId>,
    injective: bool,
) -> bool {
    if depth == nulls.len() {
        if !check_full(g, hf, assign) {
            return false;
        }
        if injective {
            // With equal node counts an injective total map is a bijection;
            // with equal edge counts an edge-preserving bijection whose
            // image contains all of h's edges is an isomorphism.
            let mut image_edges: FxHashSet<(NodeId, gdx_common::Symbol, NodeId)> =
                FxHashSet::default();
            for &(s, l, d) in g.edges() {
                image_edges.insert((assign[&s], l, assign[&d]));
            }
            if image_edges.len() != h.edge_count() {
                return false;
            }
        }
        return true;
    }
    let u = nulls[depth];
    #[expect(
        clippy::disallowed_methods,
        reason = "collected into a set: hash order cannot escape"
    )]
    let used: FxHashSet<NodeId> = if injective {
        assign.values().copied().collect::<FxHashSet<_>>()
    } else {
        FxHashSet::default()
    };
    for cand in h.node_ids() {
        if injective {
            if used.contains(&cand) {
                continue;
            }
            // Nulls must map to nulls for an isomorphism that is the
            // identity on constants: a null mapping onto a constant would
            // leave some constant of h uncovered (constants are matched by
            // name), breaking bijectivity — and "up to null renaming" means
            // null↦null anyway.
            if h.node(cand).is_const() {
                continue;
            }
        }
        assign.insert(u, cand);
        if consistent_so_far(g, hf, assign) && search(g, h, hf, nulls, depth + 1, assign, injective)
        {
            return true;
        }
        assign.remove(&u);
    }
    false
}

/// Checks edges whose endpoints are both assigned.
fn consistent_so_far(g: &Graph, h: &FrozenGraph, assign: &FxHashMap<NodeId, NodeId>) -> bool {
    for &(s, l, d) in g.edges() {
        if let (Some(&hs), Some(&hd)) = (assign.get(&s), assign.get(&d)) {
            if !h.has_edge(hs, l, hd) {
                return false;
            }
        }
    }
    true
}

fn check_full(g: &Graph, h: &FrozenGraph, assign: &FxHashMap<NodeId, NodeId>) -> bool {
    g.edges()
        .all(|&(s, l, d)| h.has_edge(assign[&s], l, assign[&d]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hom_identity() {
        let g = Graph::parse("(a, f, b); (b, h, c);").unwrap();
        let m = find_homomorphism(&g, &g).unwrap();
        for id in g.node_ids() {
            assert_eq!(m[&id], id);
        }
    }

    #[test]
    fn null_can_fold_onto_constant() {
        let g = Graph::parse("(a, f, _N); (_N, f, b);").unwrap();
        let h = Graph::parse("(a, f, m); (m, f, b);").unwrap();
        assert!(find_homomorphism(&g, &h).is_some());
        // Reverse direction fails: constant m of h is absent from g.
        assert!(find_homomorphism(&h, &g).is_none());
    }

    #[test]
    fn hom_respects_labels() {
        let g = Graph::parse("(a, f, _N);").unwrap();
        let h = Graph::parse("(a, h, x);").unwrap();
        assert!(find_homomorphism(&g, &h).is_none());
    }

    #[test]
    fn two_nulls_can_merge_in_hom() {
        let g = Graph::parse("(a, f, _N1); (a, f, _N2); (_N1, h, b); (_N2, h, b);").unwrap();
        let h = Graph::parse("(a, f, _M); (_M, h, b);").unwrap();
        assert!(find_homomorphism(&g, &h).is_some());
    }

    #[test]
    fn iso_up_to_null_renaming() {
        let g = Graph::parse("(a, f, _N1); (_N1, f, _N2); (_N2, f, a);").unwrap();
        let h = Graph::parse("(a, f, _X); (_X, f, _Y); (_Y, f, a);").unwrap();
        assert!(is_isomorphic(&g, &h));
    }

    #[test]
    fn iso_rejects_different_shape() {
        let g = Graph::parse("(a, f, _N1); (_N1, f, _N2);").unwrap();
        let h = Graph::parse("(a, f, _X); (a, f, _Y);").unwrap();
        assert!(!is_isomorphic(&g, &h));
        let k = Graph::parse("(a, f, _X);").unwrap();
        assert!(!is_isomorphic(&g, &k));
    }

    #[test]
    fn iso_rejects_constant_mismatch() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let h = Graph::parse("(a, f, c);").unwrap();
        assert!(!is_isomorphic(&g, &h));
    }

    #[test]
    fn iso_null_cannot_stand_for_constant() {
        let g = Graph::parse("(a, f, _N);").unwrap();
        let h = Graph::parse("(a, f, b);").unwrap();
        assert!(!is_isomorphic(&g, &h));
        assert!(find_homomorphism(&g, &h).is_some(), "hom is still fine");
    }

    #[test]
    fn hom_onto_smaller_graph() {
        // Path of nulls folds onto a self-loop.
        let g = Graph::parse("(_N1, f, _N2); (_N2, f, _N3);").unwrap();
        let h = Graph::parse("(_M, f, _M);").unwrap();
        assert!(find_homomorphism(&g, &h).is_some());
    }
}
