//! Weak acyclicity: the classical chase-termination criterion
//! (Fagin–Kolaitis–Miller–Popa), applied to the single-symbol fragment of
//! target tgds.
//!
//! In the graph setting, a *position* is `(label, end)` with `end ∈ {src,
//! dst}` — the two argument positions of the binary relation a label
//! denotes. The dependency graph has
//!
//! * a **regular edge** `p → q` when some tgd has a universal variable at
//!   body position `p` that also occurs at head position `q`;
//! * a **special edge** `p ⇒ q` when some tgd has a universal variable at
//!   body position `p` and an *existential* variable at head position `q`.
//!
//! The tgd set is weakly acyclic iff no cycle passes through a special
//! edge; then the chase terminates on every input. Tgds whose atoms are
//! not single symbols are rejected with `Unsupported` (the criterion is
//! defined on relational atoms).

use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol};
use gdx_mapping::TargetTgd;
use gdx_nre::Nre;

/// A position in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Position {
    label: Symbol,
    /// `false` = source end, `true` = destination end.
    dst: bool,
}

/// Decides weak acyclicity of a set of single-symbol target tgds.
pub fn is_weakly_acyclic(tgds: &[TargetTgd]) -> Result<bool> {
    // Collect positions and edges.
    let mut nodes: FxHashSet<Position> = FxHashSet::default();
    // (from, to, special)
    let mut edges: Vec<(Position, Position, bool)> = Vec::new();

    for tgd in tgds {
        // Position map of universal (body) variables.
        let mut body_positions: FxHashMap<Symbol, Vec<Position>> = FxHashMap::default();
        for atom in &tgd.body.atoms {
            let label = single_symbol(&atom.nre)?;
            for (term, dst) in [(&atom.left, false), (&atom.right, true)] {
                let p = Position { label, dst };
                nodes.insert(p);
                if let Some(v) = term.as_var() {
                    body_positions.entry(v).or_default().push(p);
                }
            }
        }
        let existential: FxHashSet<Symbol> = tgd.existential.iter().copied().collect();
        for atom in &tgd.head.atoms {
            let label = single_symbol(&atom.nre)?;
            for (term, dst) in [(&atom.left, false), (&atom.right, true)] {
                let q = Position { label, dst };
                nodes.insert(q);
                let Some(v) = term.as_var() else { continue };
                if existential.contains(&v) {
                    // Special edge from every position of every universal
                    // variable occurring in the head.
                    for hv in tgd.head.variables() {
                        if existential.contains(&hv) {
                            continue;
                        }
                        for &p in body_positions.get(&hv).into_iter().flatten() {
                            edges.push((p, q, true));
                        }
                    }
                } else {
                    for &p in body_positions.get(&v).into_iter().flatten() {
                        edges.push((p, q, false));
                    }
                }
            }
        }
    }

    // Weak acyclicity fails iff some special edge lies on a cycle, i.e.
    // both its endpoints are in the same strongly connected component.
    #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
    let mut node_list: Vec<Position> = nodes.iter().copied().collect();
    node_list.sort_unstable();
    let index: FxHashMap<Position, usize> =
        node_list.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); node_list.len()];
    for &(a, b, _) in &edges {
        adj[index[&a]].push(index[&b]);
    }
    let scc = tarjan_scc(&adj);
    for &(a, b, special) in &edges {
        if special && scc[index[&a]] == scc[index[&b]] {
            return Ok(false);
        }
    }
    Ok(true)
}

fn single_symbol(r: &Nre) -> Result<Symbol> {
    match r {
        Nre::Label(a) => Ok(*a),
        other => Err(GdxError::unsupported(format!(
            "weak acyclicity is defined on single-symbol tgds, found `{other}`"
        ))),
    }
}

/// Iterative Tarjan SCC; returns the component id per node.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    // Explicit DFS stack: (node, child-iterator position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_query::Cnre;

    fn tgd(body: &str, existential: &[&str], head: &str) -> TargetTgd {
        TargetTgd {
            body: Cnre::parse(body).unwrap(),
            existential: existential.iter().map(|s| Symbol::new(s)).collect(),
            head: Cnre::parse(head).unwrap(),
        }
    }

    #[test]
    fn acyclic_chain_is_weakly_acyclic() {
        let ts = [
            tgd("(x, f, y)", &["z"], "(y, g, z)"),
            tgd("(x, g, y)", &["w"], "(y, h0, w)"),
        ];
        assert!(is_weakly_acyclic(&ts).unwrap());
    }

    #[test]
    fn self_feeding_tgd_is_not() {
        // (x, f, y) → ∃z (y, f, z): special edge inside the f-cycle.
        let ts = [tgd("(x, f, y)", &["z"], "(y, f, z)")];
        assert!(!is_weakly_acyclic(&ts).unwrap());
    }

    #[test]
    fn two_step_cycle_detected() {
        let ts = [
            tgd("(x, f, y)", &["z"], "(y, g, z)"),
            tgd("(x, g, y)", &["w"], "(y, f, w)"),
        ];
        assert!(!is_weakly_acyclic(&ts).unwrap());
    }

    #[test]
    fn copy_only_tgds_are_acyclic() {
        // No existentials at all: only regular edges, cycles are harmless.
        let ts = [
            tgd("(x, f, y)", &[], "(y, f, x)"),
            tgd("(x, f, y)", &[], "(x, g, y)"),
        ];
        assert!(is_weakly_acyclic(&ts).unwrap());
    }

    #[test]
    fn non_single_symbol_rejected() {
        let ts = [tgd("(x, f.f, y)", &["z"], "(y, f, z)")];
        assert!(is_weakly_acyclic(&ts).is_err());
    }

    #[test]
    fn chase_agrees_with_criterion() {
        use crate::tgd::{chase_target_tgds, TgdChaseConfig};
        let g = gdx_graph::Graph::parse("(a, f, b);").unwrap();
        let good = [
            tgd("(x, f, y)", &["z"], "(y, g, z)"),
            tgd("(x, g, y)", &["w"], "(y, h0, w)"),
        ];
        assert!(is_weakly_acyclic(&good).unwrap());
        assert!(chase_target_tgds(&g, &good, TgdChaseConfig::default()).is_ok());

        let bad = [tgd("(x, f, y)", &["z"], "(y, f, z)")];
        assert!(!is_weakly_acyclic(&bad).unwrap());
        assert!(chase_target_tgds(
            &g,
            &bad,
            TgdChaseConfig {
                max_steps: 64,
                ..TgdChaseConfig::default()
            }
        )
        .is_err());
    }
}
