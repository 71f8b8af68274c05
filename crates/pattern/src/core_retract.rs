//! Core computation for graph patterns.
//!
//! The oblivious chase fires every trigger, so its output often contains
//! redundant nulls (two triggers demanding isomorphic sub-patterns). The
//! *core* — the smallest retract — is the canonical minimal
//! representative, a standard notion in relational data exchange
//! (Fagin–Kolaitis–Popa) lifted here to NRE-labeled patterns by treating
//! distinct NREs as distinct edge labels (sound: a fold that preserves
//! syntactic edges preserves every `Rep` homomorphism).
//!
//! The algorithm is greedy single-null folding: repeatedly look for a null
//! `n` and a node `m ≠ n` such that replacing `n` by `m` maps every edge
//! onto an *existing* edge; each fold is a retraction, so the result is
//! homomorphically equivalent to the input (`Rep` is preserved both ways —
//! property-tested). Greedy folding reaches *a* retract; for the
//! chase-shaped patterns in this workspace it coincides with the core.

use crate::pattern::{GraphPattern, PNodeId};
use gdx_common::{FxHashSet, UnionFind};
use gdx_nre::Nre;

/// Greedily folds redundant nulls; returns the retract and the number of
/// folds performed.
///
/// Folding happens on a union-find overlay over the input's node ids: the
/// canonical edge set (edges keyed by current representatives) is rewritten
/// in place per fold — O(deg) per fold instead of a full pattern rebuild —
/// and the pattern is quotiented exactly once at the end. The scan order
/// (nulls in id order × candidates in id order, restart after every fold)
/// matches the previous rebuild-per-fold implementation, because quotients
/// preserve the relative order of surviving nodes; fold counts are
/// identical.
pub fn retract_core(pattern: &GraphPattern) -> (GraphPattern, usize) {
    let n = pattern.node_count();
    let mut uf = UnionFind::new(n);
    let mut edges: FxHashSet<(PNodeId, Nre, PNodeId)> = pattern.edges().iter().cloned().collect();
    let mut folds = 0usize;
    'outer: loop {
        let reps: Vec<PNodeId> = (0..n as PNodeId)
            .filter(|&id| uf.find_const(id) == id)
            .collect();
        for &nl in reps.iter().filter(|&&id| !pattern.node(id).is_const()) {
            for &m in &reps {
                if m == nl {
                    continue;
                }
                if fold_ok(&edges, nl, m) {
                    // Apply the fold: rewrite edges incident to `nl` onto
                    // `m` (membership dedups against existing edges).
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "incident edges are rewritten and re-inserted into the edge set; membership dedup makes order immaterial"
                    )]
                    let incident: Vec<_> = edges
                        .iter()
                        .filter(|(s, _, d)| *s == nl || *d == nl)
                        .cloned()
                        .collect();
                    for e in &incident {
                        edges.remove(e);
                    }
                    for (s, r, d) in incident {
                        let hs = if s == nl { m } else { s };
                        let hd = if d == nl { m } else { d };
                        edges.insert((hs, r, hd));
                    }
                    uf.union_into(m, nl);
                    folds += 1;
                    continue 'outer;
                }
            }
        }
        let core = pattern.quotient(|id| uf.find_const(id));
        return (core, folds);
    }
}

/// Does mapping `n ↦ m` (identity elsewhere) send every canonical edge
/// onto an existing canonical edge?
#[expect(clippy::disallowed_methods, reason = "`all` is order-free")]
fn fold_ok(edges: &FxHashSet<(PNodeId, Nre, PNodeId)>, n: PNodeId, m: PNodeId) -> bool {
    edges.iter().all(|(s, r, d)| {
        if *s != n && *d != n {
            return true;
        }
        let hs = if *s == n { m } else { *s };
        let hd = if *d == n { m } else { *d };
        edges.contains(&(hs, r.clone(), hd))
    })
}

/// Does mapping `n ↦ m` (identity elsewhere) send every edge onto an
/// existing edge?
fn fold_is_retraction(p: &GraphPattern, n: PNodeId, m: PNodeId) -> bool {
    let h = |id: PNodeId| if id == n { m } else { id };
    p.edges().iter().all(|(s, r, d)| {
        let (hs, hd) = (h(*s), h(*d));
        if (hs, hd) == (*s, *d) {
            true
        } else {
            p.has_edge(hs, r, hd)
        }
    })
}

/// True when no null can fold — the pattern is its own retract.
pub fn is_retract_minimal(pattern: &GraphPattern) -> bool {
    let nulls: Vec<PNodeId> = pattern
        .node_ids()
        .filter(|&id| !pattern.node(id).is_const())
        .collect();
    for &n in &nulls {
        for m in pattern.node_ids() {
            if m != n && fold_is_retraction(pattern, n, m) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::represents;
    use crate::instantiate::instantiate_shortest;

    #[test]
    fn duplicate_nulls_fold() {
        // Two isomorphic triggers: (a, f, N1) and (a, f, N2).
        let p = GraphPattern::parse("(a, f, _N1); (a, f, _N2);").unwrap();
        let (core, folds) = retract_core(&p);
        assert_eq!(folds, 1);
        assert_eq!(core.node_count(), 2);
        assert_eq!(core.edge_count(), 1);
        assert!(is_retract_minimal(&core));
    }

    #[test]
    fn figure_3_pattern_is_minimal() {
        let p = GraphPattern::parse(
            "(c1, f.f*, _N1); (_N1, f.f*, c2); (_N1, h, hy);
             (c1, f.f*, _N2); (_N2, f.f*, c2); (_N2, h, hx);
             (c3, f.f*, _N3); (_N3, f.f*, c2); (_N3, h, hx);",
        )
        .unwrap();
        // N3 cannot fold onto N2: (c3, f.f*, N2) does not exist.
        let (core, folds) = retract_core(&p);
        assert_eq!(folds, 0);
        assert_eq!(core.node_count(), p.node_count());
        assert!(is_retract_minimal(&p));
    }

    #[test]
    fn null_folds_onto_constant() {
        // (a, f, N) folds onto the existing (a, f, b).
        let p = GraphPattern::parse("(a, f, b); (a, f, _N);").unwrap();
        let (core, folds) = retract_core(&p);
        assert_eq!(folds, 1);
        assert_eq!(core.edge_count(), 1);
        assert!(core.node_id(gdx_graph::Node::null("N")).is_none());
    }

    #[test]
    fn chain_folds_transitively() {
        // Three redundant copies collapse to one.
        let p = GraphPattern::parse(
            "(a, f, _N1); (_N1, h, b); (a, f, _N2); (_N2, h, b);
             (a, f, _N3); (_N3, h, b);",
        )
        .unwrap();
        let (core, folds) = retract_core(&p);
        assert_eq!(folds, 2);
        assert_eq!(core.edge_count(), 2);
    }

    #[test]
    fn retract_preserves_rep() {
        let p = GraphPattern::parse("(a, f.f*, _N1); (_N1, h, b); (a, f.f*, _N2); (_N2, h, b);")
            .unwrap();
        let (core, folds) = retract_core(&p);
        assert_eq!(folds, 1);
        // Rep(core) == Rep(p): both directions via canonical instantiations.
        let gi = instantiate_shortest(&p).unwrap();
        let gc = instantiate_shortest(&core).unwrap();
        assert!(represents(&core, &gi));
        assert!(represents(&p, &gc));
    }

    #[test]
    fn distinct_nres_block_folding() {
        // Same endpoints but different NREs: no fold.
        let p = GraphPattern::parse("(a, f, _N1); (a, f.f*, _N2);").unwrap();
        let (_, folds) = retract_core(&p);
        assert_eq!(folds, 0);
    }

    #[test]
    fn constants_never_fold() {
        let p = GraphPattern::parse("(a, f, b); (a, f, c);").unwrap();
        let (core, folds) = retract_core(&p);
        assert_eq!(folds, 0);
        assert_eq!(core.node_count(), 3);
    }
}
