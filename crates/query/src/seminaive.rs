//! Semi-naive CNRE evaluation: only the *new* matches since last time.
//!
//! For a body `A₁ ∧ … ∧ Aₖ` whose per-atom relations grew by `Δ₁ … Δₖ`
//! since the previous evaluation, every new match must use at least one
//! new pair, so
//!
//! ```text
//! Δmatches = ⋃ᵢ (Δᵢ ⋈ full others)
//! ```
//!
//! (matches hit by several deltas are deduplicated). The per-atom
//! relations and deltas come from the incremental NRE evaluator
//! ([`gdx_nre::incremental`]); the joins reuse the same slot/greedy-order
//! machinery as the full evaluator, with the delta atom forced first.
//!
//! [`SemiNaiveState`] is the per-rule persistent structure the chase keeps
//! alive across rounds: an [`IncrementalCache`] for the body's NREs plus
//! one [`EvalMark`] per atom. Graph replacement (clone, quotient) is
//! detected via [`Graph::id`] and degrades the next call to a full
//! evaluation — never to a silently truncated delta.

use crate::cnre::Cnre;
use crate::eval::{greedy_order, join_access, resolve_slots, AtomAccess, NodeBindings, RowBuf};
use crate::plan::PlannerMode;
use crate::prepared::PreparedQuery;
use gdx_common::{FxHashMap, FxHashSet, Result, Symbol};
use gdx_graph::{Graph, NodeId};
use gdx_nre::incremental::{EvalMark, IncrementalCache};
use gdx_nre::BinRel;
use gdx_runtime::Runtime;

/// Minimum delta pairs per worker chunk before a delta join fans out.
const PAR_MIN_DELTA: usize = 512;

/// Persistent semi-naive evaluation state for one rule body.
///
/// Feed it the *same* query on every call; the state is keyed by atom
/// position, so swapping queries mid-stream would mix up the marks (a
/// debug assertion guards the atom count).
#[derive(Debug, Default)]
pub struct SemiNaiveState {
    cache: IncrementalCache,
    marks: Vec<EvalMark>,
}

impl SemiNaiveState {
    /// Fresh state: the first [`SemiNaiveState::delta_matches`] call
    /// returns every match.
    pub fn new() -> SemiNaiveState {
        SemiNaiveState::default()
    }

    /// The matches of `query` over `graph` that did **not** exist at the
    /// previous call (first call: all matches). Works in O(Δ ⋈ …) rather
    /// than re-evaluating the full body.
    pub fn delta_matches(&mut self, graph: &Graph, query: &Cnre) -> Result<NodeBindings> {
        self.delta_matches_rt(graph, query, &Runtime::sequential())
    }

    /// [`SemiNaiveState::delta_matches`] with an explicit [`Runtime`]:
    /// each atom's delta window is sharded into contiguous pair chunks and
    /// the `Δᵢ ⋈ full others` join runs once per chunk on its own worker.
    /// Chunk results concatenate in window order, so the returned rows —
    /// order included — are byte-identical to the 1-worker join (the
    /// chase's firing order and fresh-null naming depend on this).
    pub fn delta_matches_rt(
        &mut self,
        graph: &Graph,
        query: &Cnre,
        rt: &Runtime,
    ) -> Result<NodeBindings> {
        query.validate(None)?;
        let vars = query.variables();
        let n = query.atoms.len();
        debug_assert!(
            self.marks.is_empty() || self.marks.len() == n,
            "SemiNaiveState must be fed a fixed query"
        );
        self.marks.resize(n, EvalMark::ZERO);

        // Phase 1: advance every atom's relation to the current epoch.
        for atom in &query.atoms {
            self.cache.ensure(graph, &atom.nre);
        }
        #[expect(
            clippy::expect_used,
            reason = "every atom was ensured in the loop above; a miss is a cache bug"
        )]
        let rels: Vec<&BinRel> = query
            .atoms
            .iter()
            .map(|a| self.cache.get(&a.nre).expect("ensured"))
            .collect();

        // Per-atom delta windows [from, to) into the relation logs.
        let windows: Vec<(usize, usize)> = rels
            .iter()
            .zip(&self.marks)
            .map(|(rel, mark)| (mark.position(graph), rel.mark()))
            .collect();
        let new_marks: Vec<EvalMark> = rels
            .iter()
            .map(|rel| EvalMark::capture(graph, rel))
            .collect();

        // A constant absent from the graph: no atom resolution, hence no
        // matches. Marks still advance — any future pair involving a
        // later-created constant node necessarily postdates it, so it
        // arrives in a later delta window.
        let Some(slots) = resolve_slots(graph, query) else {
            self.marks = new_marks;
            return Ok(NodeBindings::empty(vars));
        };

        let mut rows = RowBuf::new(vars.len());
        for i in 0..n {
            let (from, to) = windows[i];
            if from >= to {
                continue;
            }
            #[cfg(not(feature = "fault-delta-window"))]
            let window = &rels[i].pairs_since(from)[..to - from];
            // Deliberate off-by-one for the gdx-sim detector-sharpness
            // self-test: the last delta pair is silently dropped, so the
            // semi-naive chase misses firings the naive oracle makes.
            #[cfg(feature = "fault-delta-window")]
            let window = &rels[i].pairs_since(from)[..(to - from).saturating_sub(1)];
            // Delta atom first, the rest greedily. The order is
            // chunk-independent: `greedy_order` excludes atom `i`, so it
            // only consults the *other* atoms' full relations.
            let bound: FxHashSet<Symbol> = query.atoms[i].variables().collect();
            let mut order = Vec::with_capacity(n);
            order.push(i);
            order.extend(greedy_order(query, &rels, bound, Some(i)));
            // Δᵢ ⋈ full others, one shard per contiguous pair chunk. A
            // match's position only depends on its triggering pair's
            // window position, so in-order concatenation reproduces the
            // single-shard row order exactly.
            let chunk_rows = rt.par_chunks(window, PAR_MIN_DELTA, |_, chunk| {
                let mut delta_rel = BinRel::new();
                for &(u, v) in chunk {
                    delta_rel.insert(u, v);
                }
                let mut term_rels: Vec<&BinRel> = rels.clone();
                term_rels[i] = &delta_rel;
                let access: Vec<AtomAccess> =
                    term_rels.iter().map(|r| AtomAccess::Mat(r)).collect();
                let mut binding: FxHashMap<Symbol, NodeId> = FxHashMap::default();
                let mut shard_rows = RowBuf::new(vars.len());
                join_access(
                    graph,
                    &access,
                    &slots,
                    &order,
                    0,
                    &mut binding,
                    &vars,
                    &mut shard_rows,
                    None,
                );
                shard_rows
            });
            for shard in chunk_rows {
                rows.append(shard);
            }
        }
        self.marks = new_marks;

        // Dedup within this delta (a match touched by two deltas appears
        // under both terms). Matches from *earlier* calls cannot
        // reappear: every term forces at least one pair from a delta
        // window, and a match all of whose pairs predate the window was
        // already reported.
        rows.dedup_preserving_order();
        Ok(NodeBindings::from_parts(vars, rows))
    }
}

/// Seeded evaluation of a prepared query backed by an
/// [`IncrementalCache`] — the incremental sibling of
/// [`PreparedQuery::evaluate_seeded`], used by the chase for
/// head-satisfaction checks so repeated checks advance materialized
/// relations instead of rebuilding them. Atoms the planner routes to the
/// demand path skip materialization entirely (product-BFS from the seeded
/// endpoint, memoized in the cache's demand pool).
pub fn evaluate_seeded_incremental(
    graph: &Graph,
    query: &PreparedQuery,
    cache: &mut IncrementalCache,
    seed: &FxHashMap<Symbol, NodeId>,
) -> Result<NodeBindings> {
    query.eval_in(
        graph,
        cache,
        seed,
        PlannerMode::Auto,
        None,
        &Runtime::sequential(),
    )
}

/// Existence probe under a seed against an [`IncrementalCache`]:
/// early-exits at the first satisfying row — the shape of the tgd chase's
/// head-satisfaction checks.
pub fn evaluate_seeded_incremental_exists(
    graph: &Graph,
    query: &PreparedQuery,
    cache: &mut IncrementalCache,
    seed: &FxHashMap<Symbol, NodeId>,
) -> Result<bool> {
    Ok(!query
        .eval_in(
            graph,
            cache,
            seed,
            PlannerMode::Auto,
            Some(1),
            &Runtime::sequential(),
        )?
        .is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_common::FxHashSet;

    fn row_set(b: &NodeBindings) -> FxHashSet<Vec<NodeId>> {
        b.rows().map(|r| r.to_vec()).collect()
    }

    fn evaluate(graph: &Graph, query: &Cnre) -> Result<NodeBindings> {
        PreparedQuery::new(query.clone()).evaluate(graph)
    }

    #[test]
    fn first_call_returns_all_matches() {
        let g = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, h, hx);").unwrap();
        let q = Cnre::parse("(x, f, y), (y, h, z)").unwrap();
        let mut state = SemiNaiveState::new();
        let delta = state.delta_matches(&g, &q).unwrap();
        let full = evaluate(&g, &q).unwrap();
        assert_eq!(row_set(&delta), row_set(&full));
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn deltas_partition_the_match_set() {
        let mut g = Graph::parse("(a, f, b);").unwrap();
        let q = Cnre::parse("(x, f, y), (y, h, z)").unwrap();
        let mut state = SemiNaiveState::new();
        let mut acc = row_set(&state.delta_matches(&g, &q).unwrap());
        assert!(acc.is_empty());

        let script: &[&[(&str, &str, &str)]] = &[
            &[("b", "h", "p")],
            &[("c", "f", "d"), ("d", "h", "p")],
            &[("b", "h", "q"), ("e", "f", "b")],
            &[],
        ];
        for batch in script {
            for &(s, l, d) in *batch {
                g.add_edge_consts(s, l, d);
            }
            let delta = state.delta_matches(&g, &q).unwrap();
            for row in delta.rows() {
                assert!(acc.insert(row.to_vec()), "match {row:?} reported twice");
            }
            let full = evaluate(&g, &q).unwrap();
            assert_eq!(acc, row_set(&full), "after batch {batch:?}");
        }
    }

    #[test]
    fn kleene_star_bodies_stay_exact() {
        let mut g = Graph::parse("(a, f, b);").unwrap();
        let q = Cnre::parse("(x, f.f*, y)").unwrap();
        let mut state = SemiNaiveState::new();
        let mut acc = row_set(&state.delta_matches(&g, &q).unwrap());
        for (s, l, d) in [("b", "f", "c"), ("c", "f", "a"), ("d", "f", "d")] {
            g.add_edge_consts(s, l, d);
            let delta = state.delta_matches(&g, &q).unwrap();
            for row in delta.rows() {
                assert!(acc.insert(row.to_vec()));
            }
            assert_eq!(acc, row_set(&evaluate(&g, &q).unwrap()));
        }
    }

    #[test]
    fn late_constants_are_not_lost() {
        // The query names constant "c9" before it exists; matches must
        // surface once it appears, even though earlier deltas advanced.
        let mut g = Graph::parse("(a, f, b);").unwrap();
        let q = Cnre::parse("(\"c9\", f, x)").unwrap();
        let mut state = SemiNaiveState::new();
        assert!(state.delta_matches(&g, &q).unwrap().is_empty());
        g.add_edge_consts("a", "f", "c");
        assert!(state.delta_matches(&g, &q).unwrap().is_empty());
        g.add_edge_consts("c9", "f", "z");
        let delta = state.delta_matches(&g, &q).unwrap();
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn graph_swap_resets_to_full_evaluation() {
        let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let q = Cnre::parse("(x, f, y)").unwrap();
        let mut state = SemiNaiveState::new();
        assert_eq!(state.delta_matches(&g, &q).unwrap().len(), 2);
        assert_eq!(state.delta_matches(&g, &q).unwrap().len(), 0);
        // Quotients/clones are new graph values: full re-evaluation.
        let g2 = g.clone();
        assert_eq!(state.delta_matches(&g2, &q).unwrap().len(), 2);
    }

    #[test]
    fn seeded_incremental_matches_seeded() {
        let g = Graph::parse("(c1, f, _N); (_N, h, hx); (_N, h, hy);").unwrap();
        let q = PreparedQuery::parse("(x, f, y), (y, h, z)").unwrap();
        let mut inc = IncrementalCache::new();
        let mut seed = FxHashMap::default();
        seed.insert(
            Symbol::new("x"),
            g.node_id(gdx_graph::Node::cst("c1")).unwrap(),
        );
        let a = evaluate_seeded_incremental(&g, &q, &mut inc, &seed).unwrap();
        let mut cache = gdx_nre::eval::EvalCache::new();
        let b = q.evaluate_seeded(&g, &mut cache, &seed).unwrap();
        assert_eq!(row_set(&a), row_set(&b));
        assert_eq!(a.len(), 2);
    }
}
