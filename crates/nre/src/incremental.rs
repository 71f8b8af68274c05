//! Incremental (delta-driven) NRE evaluation.
//!
//! The chase evaluates the same NREs over the same graph again and again,
//! while between two evaluations only a handful of edges appear. This
//! module keeps `⟦r⟧_G` materialized **per subexpression** and advances it
//! by consuming the graph's append-only logs ([`Graph::edges_since`] /
//! [`Graph::nodes_since`]) instead of re-scanning:
//!
//! * `a` / `a⁻` / `ε` read only the new edges/nodes;
//! * `x + y`, `x · y`, `[x]` combine the children's *pair deltas*
//!   ([`BinRel::pairs_since`]) with the children's full relations — the
//!   classic semi-naive rule `Δ(X·Y) = ΔX⋈Y ∪ X⋈ΔY`;
//! * `x*` extends the stored closure frontier-style: each new inner pair
//!   `(u, v)` triggers, for every source already reaching `u`, one BFS
//!   from `v` over the *inner* relation, guarded by closure membership —
//!   total work is proportional to the pairs actually added, not to
//!   `|V|·(|V|+|E|)` per round.
//!
//! A cache is pinned to one graph value ([`Graph::id`]); handing it a
//! different graph (a clone, a quotient) resets it transparently, so
//! callers can hold a cache across chase rounds without tracking graph
//! replacement themselves. Consumers track their own read positions with
//! [`EvalMark`]s, so several consumers (e.g. the atoms of one rule body)
//! can share one cache at different paces.
//!
//! The naive evaluator ([`crate::eval::eval`]) remains the reference
//! oracle; `prop` tests assert agreement after random update schedules.

use crate::ast::Nre;
use crate::eval::BinRel;
use gdx_common::FxHashMap;
use gdx_graph::{Epoch, Graph, GraphId, NodeId};

/// One memoized subexpression: its full relation plus the watermarks of
/// everything it has consumed so far.
#[derive(Debug, Default)]
struct Entry {
    rel: BinRel,
    /// Graph watermark consumed (drives `a` / `a⁻` / `ε` / reflexivity).
    epoch: Epoch,
    /// Log positions consumed from each child entry (in child order).
    child_marks: [usize; 2],
}

impl Entry {
    fn fresh() -> Entry {
        Entry {
            rel: BinRel::new(),
            epoch: Epoch::ZERO,
            child_marks: [0, 0],
        }
    }
}

/// Consumer-side watermark into a cached relation, as returned by
/// [`eval_delta`]. Marks are pinned to a graph value; a mark taken against
/// one graph is treated as zero against another (so cache resets can never
/// silently skip pairs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalMark {
    graph: Option<GraphId>,
    pairs: usize,
}

impl EvalMark {
    /// The zero mark: a delta against it is the full relation.
    pub const ZERO: EvalMark = EvalMark {
        graph: None,
        pairs: 0,
    };

    /// The log position this mark denotes for `graph` — 0 when the mark
    /// was taken against a different graph value (full re-read).
    pub fn position(&self, graph: &Graph) -> usize {
        match self.graph {
            Some(id) if id == graph.id() => self.pairs,
            _ => 0,
        }
    }

    /// A mark at the current end of `rel`, pinned to `graph`.
    pub fn capture(graph: &Graph, rel: &BinRel) -> EvalMark {
        EvalMark {
            graph: Some(graph.id()),
            pairs: rel.mark(),
        }
    }
}

/// Persistent, per-subexpression incremental evaluation cache. Carries a
/// [`DemandPool`](crate::demand::DemandPool) so planned evaluation can mix
/// incrementally materialized relations with seeded product-BFS.
#[derive(Debug, Default)]
pub struct IncrementalCache {
    graph: Option<GraphId>,
    entries: FxHashMap<Nre, Entry>,
    demand: crate::demand::DemandPool,
}

impl IncrementalCache {
    /// An empty cache.
    pub fn new() -> IncrementalCache {
        IncrementalCache::default()
    }

    /// Binds the cache to `graph`, dropping all state when the graph
    /// value changed since the last call.
    fn sync_graph(&mut self, graph: &Graph) {
        if self.graph != Some(graph.id()) {
            self.entries.clear();
            self.graph = Some(graph.id());
        }
    }

    /// Brings `r` (and all subexpressions) up to `graph.epoch()` and
    /// returns the full relation `⟦r⟧_G`.
    pub fn eval_full(&mut self, graph: &Graph, r: &Nre) -> &BinRel {
        self.ensure(graph, r);
        &self.entries[r].rel
    }

    /// Like [`IncrementalCache::eval_full`] without returning the
    /// relation — pair with [`IncrementalCache::get`] when several
    /// relations must be borrowed at once.
    pub fn ensure(&mut self, graph: &Graph, r: &Nre) {
        self.sync_graph(graph);
        self.update(graph, r);
    }

    /// The cached relation, if [`IncrementalCache::ensure`] ran for `r`
    /// against the current graph.
    pub fn get(&self, r: &Nre) -> Option<&BinRel> {
        self.entries.get(r).map(|e| &e.rel)
    }

    /// The demand evaluators probing this cache's graph. (Demand
    /// evaluators pin their memos to the graph version themselves.)
    pub fn demand(&self) -> &crate::demand::DemandPool {
        &self.demand
    }

    /// Mutable access to [`IncrementalCache::demand`], for creating
    /// evaluators.
    pub fn demand_mut(&mut self) -> &mut crate::demand::DemandPool {
        &mut self.demand
    }

    /// Recursively advances the entry for `r` to the graph's epoch.
    fn update(&mut self, graph: &Graph, r: &Nre) {
        if let Some(entry) = self.entries.get(r) {
            if entry.epoch == graph.epoch() {
                return;
            }
        }
        // Children first: their relations must be current before this
        // node consumes their deltas.
        match r {
            Nre::Epsilon | Nre::Label(_) | Nre::Inverse(_) => {}
            Nre::Star(x) | Nre::Test(x) => self.update(graph, x),
            Nre::Union(x, y) | Nre::Concat(x, y) => {
                self.update(graph, x);
                self.update(graph, y);
            }
        }
        // Take the entry out so child entries stay borrowable. A node is
        // never its own strict subexpression, so the children survive.
        let mut entry = self.entries.remove(r).unwrap_or_else(Entry::fresh);
        let epoch = entry.epoch;
        match r {
            Nre::Epsilon => {
                for v in graph.nodes_since(epoch) {
                    entry.rel.insert(v, v);
                }
            }
            Nre::Label(a) => {
                for &(s, l, d) in graph.edges_since(epoch) {
                    if l == *a {
                        entry.rel.insert(s, d);
                    }
                }
            }
            Nre::Inverse(a) => {
                for &(s, l, d) in graph.edges_since(epoch) {
                    if l == *a {
                        entry.rel.insert(d, s);
                    }
                }
            }
            Nre::Union(x, y) => {
                let [mx, my] = entry.child_marks;
                let (xr, yr) = (&self.entries[x].rel, &self.entries[y].rel);
                for &(u, v) in xr.pairs_since(mx) {
                    entry.rel.insert(u, v);
                }
                for &(u, v) in yr.pairs_since(my) {
                    entry.rel.insert(u, v);
                }
                entry.child_marks = [xr.mark(), yr.mark()];
            }
            Nre::Concat(x, y) => {
                let [mx, my] = entry.child_marks;
                let (xr, yr) = (&self.entries[x].rel, &self.entries[y].rel);
                // Δ(X·Y) = ΔX ⋈ Y ∪ X ⋈ ΔY (both against the *new* full
                // partner relation; the ΔX ⋈ ΔY overlap dedups away).
                for &(u, m) in xr.pairs_since(mx) {
                    for &v in yr.image(m) {
                        entry.rel.insert(u, v);
                    }
                }
                for &(m, v) in yr.pairs_since(my) {
                    for &u in xr.preimage(m) {
                        entry.rel.insert(u, v);
                    }
                }
                entry.child_marks = [xr.mark(), yr.mark()];
            }
            Nre::Star(x) => {
                let mx = entry.child_marks[0];
                let xr = &self.entries[x].rel;
                // Reflexive pairs for nodes that appeared since last time.
                for v in graph.nodes_since(epoch) {
                    entry.rel.insert(v, v);
                }
                // Frontier extension: each new inner pair (u, v) lets
                // every source already reaching u reach v — and, from v,
                // everything BFS over the (fully updated) inner relation
                // finds. The closure-membership guard bounds total work
                // by the number of closure pairs actually added.
                for &(u, v) in xr.pairs_since(mx) {
                    // (u, u) is always present (reflexivity above), so
                    // preimage(u) includes u itself.
                    let sources: Vec<NodeId> = entry.rel.preimage(u).to_vec();
                    for w in sources {
                        if !entry.rel.insert(w, v) {
                            continue;
                        }
                        let mut stack = vec![v];
                        while let Some(n) = stack.pop() {
                            for &n2 in xr.image(n) {
                                if entry.rel.insert(w, n2) {
                                    stack.push(n2);
                                }
                            }
                        }
                    }
                }
                entry.child_marks[0] = xr.mark();
            }
            Nre::Test(x) => {
                let mx = entry.child_marks[0];
                let xr = &self.entries[x].rel;
                for &(u, _) in xr.pairs_since(mx) {
                    entry.rel.insert(u, u);
                }
                entry.child_marks[0] = xr.mark();
            }
        }
        entry.epoch = graph.epoch();
        self.entries.insert(r.clone(), entry);
    }
}

/// Evaluates `⟦r⟧_G` incrementally and returns **only the pairs added
/// since `since`**, plus the new mark to pass next time.
///
/// The first call (with [`EvalMark::ZERO`]) returns the full relation; if
/// the graph value changed since the mark was taken (clone, quotient),
/// the mark degrades to zero and the full relation is returned again —
/// never a silently truncated delta.
pub fn eval_delta<'a>(
    graph: &Graph,
    r: &Nre,
    since: EvalMark,
    cache: &'a mut IncrementalCache,
) -> (&'a [(NodeId, NodeId)], EvalMark) {
    cache.ensure(graph, r);
    // `ensure` just materialized (or refreshed) exactly this entry.
    #[allow(clippy::expect_used)]
    let rel = cache.get(r).expect("ensure materialized the entry");
    let from = match since.graph {
        Some(id) if id == graph.id() => since.pairs.min(rel.mark()),
        _ => 0,
    };
    let mark = EvalMark {
        graph: Some(graph.id()),
        pairs: rel.mark(),
    };
    (rel.pairs_since(from), mark)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parse::parse_nre;
    use gdx_common::FxHashSet;

    const EXPRS: &[&str] = &[
        "f",
        "f-",
        "eps",
        "f.f",
        "f*",
        "(f+g)*",
        "[h]",
        "f.[h].f-",
        "f.f*.[h].f-.(f-)*",
        "(f.g)*+h",
    ];

    fn as_set(pairs: &[(NodeId, NodeId)]) -> FxHashSet<(NodeId, NodeId)> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn incremental_matches_naive_under_growth() {
        // Grow a graph edge by edge; after every step the incremental
        // relation must equal the naive one, and the deltas must
        // partition it.
        let script = [
            ("a", "f", "b"),
            ("b", "f", "c"),
            ("c", "g", "a"),
            ("b", "h", "d"),
            ("d", "g", "b"),
            ("c", "f", "c"),
            ("d", "f", "a"),
        ];
        for expr in EXPRS {
            let r = parse_nre(expr).unwrap();
            let mut g = Graph::new();
            let mut cache = IncrementalCache::new();
            let mut mark = EvalMark::ZERO;
            let mut accumulated: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
            for (s, l, d) in script {
                g.add_edge_consts(s, l, d);
                let (delta, next) = eval_delta(&g, &r, mark, &mut cache);
                for p in delta {
                    assert!(accumulated.insert(*p), "{expr}: duplicate delta pair {p:?}");
                }
                mark = next;
                let naive: FxHashSet<(NodeId, NodeId)> = eval(&g, &r).iter().collect();
                assert_eq!(accumulated, naive, "{expr} diverged after ({s},{l},{d})");
            }
        }
    }

    #[test]
    fn batched_growth_matches_naive() {
        // Same, but consuming several edges per delta call.
        let mut g = Graph::new();
        g.add_edge_consts("a", "f", "b");
        let r = parse_nre("f.f*.[h].f-.(f-)*").unwrap();
        let mut cache = IncrementalCache::new();
        let (full, mut mark) = eval_delta(&g, &r, EvalMark::ZERO, &mut cache);
        let mut acc = as_set(full);
        for batch in [
            vec![("b", "f", "c"), ("c", "h", "x")],
            vec![("c", "f", "a"), ("a", "h", "y"), ("b", "g", "c")],
            vec![("d", "f", "d"), ("d", "h", "x")],
        ] {
            for (s, l, d) in batch {
                g.add_edge_consts(s, l, d);
            }
            let (delta, next) = eval_delta(&g, &r, mark, &mut cache);
            acc.extend(delta.iter().copied());
            mark = next;
            let naive: FxHashSet<(NodeId, NodeId)> = eval(&g, &r).iter().collect();
            assert_eq!(acc, naive);
        }
    }

    #[test]
    fn empty_delta_when_nothing_changed() {
        let mut g = Graph::new();
        g.add_edge_consts("a", "f", "b");
        let r = parse_nre("f*").unwrap();
        let mut cache = IncrementalCache::new();
        let (_, mark) = eval_delta(&g, &r, EvalMark::ZERO, &mut cache);
        let (delta, _) = eval_delta(&g, &r, mark, &mut cache);
        assert!(delta.is_empty());
    }

    #[test]
    fn graph_swap_resets_marks() {
        let mut g = Graph::new();
        g.add_edge_consts("a", "f", "b");
        let r = parse_nre("f").unwrap();
        let mut cache = IncrementalCache::new();
        let (full, mark) = eval_delta(&g, &r, EvalMark::ZERO, &mut cache);
        assert_eq!(full.len(), 1);
        // A clone is a different graph value: the stale mark degrades to
        // zero and the full relation comes back.
        let g2 = g.clone();
        let (full2, _) = eval_delta(&g2, &r, mark, &mut cache);
        assert_eq!(full2.len(), 1);
    }

    #[test]
    fn star_frontier_closes_through_old_edges() {
        // Adding one bridging edge must surface closure pairs that travel
        // through pre-existing edges on both sides.
        let mut g = Graph::new();
        g.add_edge_consts("a", "f", "b");
        g.add_edge_consts("c", "f", "d");
        let r = parse_nre("f*").unwrap();
        let mut cache = IncrementalCache::new();
        let (_, mark) = eval_delta(&g, &r, EvalMark::ZERO, &mut cache);
        g.add_edge_consts("b", "f", "c");
        let (delta, _) = eval_delta(&g, &r, mark, &mut cache);
        let delta = as_set(delta);
        let id = |name: &str| g.node_id(gdx_graph::Node::cst(name)).unwrap();
        // New pairs: a→c, a→d, b→c, b→d.
        assert_eq!(delta.len(), 4);
        assert!(delta.contains(&(id("a"), id("d"))));
        assert!(delta.contains(&(id("b"), id("c"))));
    }
}
