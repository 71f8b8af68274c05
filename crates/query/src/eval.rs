//! CNRE evaluation over graphs.
//!
//! Evaluation is a join over per-atom *access paths*: each atom is served
//! either by a materialized [`BinRel`] (memoized in an [`EvalCache`] or
//! [`IncrementalCache`](gdx_nre::IncrementalCache)) or by a seeded
//! product-BFS [`DemandEvaluator`] — chosen per query by the cost model in
//! [`crate::plan`]. Atoms are joined in a greedy order: constants and
//! already-bound variables first, smaller (estimated or actual) relations
//! preferred.

use crate::cnre::Cnre;
use crate::plan::{plan_query, AccessChoice, PlannerMode};
use crate::prepared::{CompiledAtom, DemandCredit};
use gdx_common::{FxHashMap, FxHashSet, Result, Symbol, Term};
use gdx_graph::{Graph, Node, NodeId};
use gdx_nre::demand::{DemandEvaluator, DemandPool, DemandStats};
use gdx_nre::eval::EvalCache;
use gdx_nre::{BinRel, Nre};
use gdx_runtime::Runtime;
use std::cell::RefCell;

/// A flat, row-major buffer of answer rows — the data-plane half of
/// [`NodeBindings`], also used as the join's output sink.
///
/// All rows live in one `Vec<NodeId>` (`arity` values per row): pushing a
/// row is `arity` appends to one array instead of a boxed-slice
/// allocation per row, which matters because the chase materializes
/// millions of body-match rows per run. The row count is tracked
/// separately from the data length: a constants-only (Boolean) query has
/// arity 0 yet one (empty) row when satisfied.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct RowBuf {
    arity: usize,
    len: usize,
    data: Vec<NodeId>,
}

impl RowBuf {
    pub(crate) fn new(arity: usize) -> RowBuf {
        RowBuf {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends one row, reading each column's value from `binding`.
    pub(crate) fn push_from(&mut self, vars: &[Symbol], binding: &FxHashMap<Symbol, NodeId>) {
        debug_assert_eq!(vars.len(), self.arity);
        self.data.extend(vars.iter().map(|v| binding[v]));
        self.len += 1;
    }

    /// Concatenates `other`'s rows (same arity) after this buffer's.
    pub(crate) fn append(&mut self, other: RowBuf) {
        debug_assert_eq!(self.arity, other.arity);
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    pub(crate) fn rows(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            arity: self.arity,
            remaining: self.len,
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[NodeId] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Removes duplicate rows, keeping each row's **first** occurrence in
    /// place — the same visible semantics as the old
    /// `retain(|r| seen.insert(r))` hash dedup, without one hash probe
    /// and one boxed clone per row. Sorts an index array (ties broken by
    /// position, so the run leader *is* the first occurrence), then
    /// compacts the flat data in original order.
    pub(crate) fn dedup_preserving_order(&mut self) {
        if self.len <= 1 {
            return;
        }
        if self.arity == 0 {
            // Every row is the empty row.
            self.len = 1;
            return;
        }
        let mut idx: Vec<u32> = (0..self.len as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            self.row(a as usize)
                .cmp(self.row(b as usize))
                .then(a.cmp(&b))
        });
        let mut keep = vec![false; self.len];
        let mut i = 0;
        while i < idx.len() {
            keep[idx[i] as usize] = true;
            let mut j = i + 1;
            while j < idx.len() && self.row(idx[j] as usize) == self.row(idx[i] as usize) {
                j += 1;
            }
            i = j;
        }
        let mut write = 0usize;
        let mut kept = 0usize;
        for (r, &keep_row) in keep.iter().enumerate() {
            if keep_row {
                self.data
                    .copy_within(r * self.arity..(r + 1) * self.arity, write);
                write += self.arity;
                kept += 1;
            }
        }
        self.data.truncate(write);
        self.len = kept;
    }
}

/// Iterator over the rows of a [`NodeBindings`], yielding one
/// `&[NodeId]` slice per answer (aligned with [`NodeBindings::vars`]).
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    data: &'a [NodeId],
    arity: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [NodeId];

    fn next(&mut self) -> Option<&'a [NodeId]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (head, tail) = self.data.split_at(self.arity);
        self.data = tail;
        Some(head)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// Evaluation result: named columns over graph node ids, stored row-major
/// in one flat array (`vars.len()` ids per answer — no per-row boxing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBindings {
    vars: Vec<Symbol>,
    rows: RowBuf,
}

impl NodeBindings {
    /// Column order.
    pub fn vars(&self) -> &[Symbol] {
        &self.vars
    }

    /// The answer rows, each aligned with [`NodeBindings::vars`].
    pub fn rows(&self) -> Rows<'_> {
        self.rows.rows()
    }

    /// The `i`-th answer row.
    pub fn row(&self, i: usize) -> &[NodeId] {
        debug_assert!(i < self.rows.len());
        self.rows.row(i)
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no answer exists. For a constants-only (Boolean) query,
    /// `is_empty() == false` means *satisfied* (one empty row).
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// Rows translated to [`Node`]s via `graph`.
    pub fn node_rows<'a>(&'a self, graph: &'a Graph) -> impl Iterator<Item = Vec<Node>> + 'a {
        self.rows()
            .map(move |r| r.iter().map(|&id| graph.node(id)).collect())
    }

    /// The answers projected to rows where *every* value is a constant —
    /// the candidate certain answers.
    pub fn constant_rows(&self, graph: &Graph) -> FxHashSet<Vec<Node>> {
        self.node_rows(graph)
            .filter(|row| row.iter().all(Node::is_const))
            .collect()
    }

    /// Membership of a full assignment.
    pub fn contains_row(&self, row: &[NodeId]) -> bool {
        self.rows().any(|r| r == row)
    }

    pub(crate) fn from_parts(vars: Vec<Symbol>, rows: RowBuf) -> NodeBindings {
        debug_assert_eq!(rows.arity, vars.len());
        NodeBindings { vars, rows }
    }

    pub(crate) fn empty(vars: Vec<Symbol>) -> NodeBindings {
        let rows = RowBuf::new(vars.len());
        NodeBindings { vars, rows }
    }
}

/// The per-graph cache interface planned evaluation draws on:
/// materialized relations plus the demand evaluators probing the graph.
/// Implemented by the cold [`EvalCache`] and the epoch-advancing
/// [`IncrementalCache`](gdx_nre::IncrementalCache).
pub(crate) trait RelCache {
    /// Materializes `r`. The runtime partitions expensive constructions
    /// (star closures, compositions) across workers where the backing
    /// cache supports it; the cached relation is byte-identical either
    /// way.
    fn ensure(&mut self, graph: &Graph, r: &Nre, rt: &Runtime);
    fn get(&self, r: &Nre) -> Option<&BinRel>;
    fn demand(&self) -> &DemandPool;
    fn demand_mut(&mut self) -> &mut DemandPool;
}

impl RelCache for EvalCache {
    fn ensure(&mut self, graph: &Graph, r: &Nre, rt: &Runtime) {
        EvalCache::ensure_rt(self, graph, r, rt);
    }
    fn get(&self, r: &Nre) -> Option<&BinRel> {
        EvalCache::get(self, r)
    }
    fn demand(&self) -> &DemandPool {
        EvalCache::demand(self)
    }
    fn demand_mut(&mut self) -> &mut DemandPool {
        EvalCache::demand_mut(self)
    }
}

impl RelCache for gdx_nre::IncrementalCache {
    // The incremental cache advances by log deltas (cheap by
    // construction), so it ignores the runtime rather than parallelize
    // per-delta work that rarely clears a chunk threshold.
    fn ensure(&mut self, graph: &Graph, r: &Nre, _rt: &Runtime) {
        gdx_nre::IncrementalCache::ensure(self, graph, r);
    }
    fn get(&self, r: &Nre) -> Option<&BinRel> {
        gdx_nre::IncrementalCache::get(self, r)
    }
    fn demand(&self) -> &DemandPool {
        gdx_nre::IncrementalCache::demand(self)
    }
    fn demand_mut(&mut self) -> &mut DemandPool {
        gdx_nre::IncrementalCache::demand_mut(self)
    }
}

/// The planned evaluation core: pick access paths, ensure the chosen
/// backing per atom (a materialized relation, or a demand evaluator the
/// cache creates from the atom's entry in `compiled`, `None` meaning
/// outside the demand fragment), then run the mixed join and credit the
/// demand evaluators' work to the compiled atoms' counters. `limit` stops
/// the join after that many rows (existence probes pass 1).
///
/// The runtime parallelizes two layers: relation materialization (through
/// [`RelCache::ensure`]) and — for unlimited, fully-materialized joins —
/// the outer loop of the join itself, partitioning the first atom's
/// candidate bindings across workers ([`parallel_outer_join`]). Both are
/// merged in input order, so the answer rows are byte-identical to a
/// 1-worker evaluation.
#[expect(
    clippy::expect_used,
    reason = "the `expect(\"ensured\")` cache lookups below follow the ensure pass over the same atoms; a miss is a planner/cache bug that a silent fallback would only hide"
)]
#[expect(
    clippy::too_many_arguments,
    reason = "the join threads the planner state through every level; bundling it into a struct would only rename the arguments"
)]
pub(crate) fn planned_eval<C: RelCache>(
    graph: &Graph,
    query: &Cnre,
    compiled: &[Option<CompiledAtom>],
    cache: &mut C,
    seed: &FxHashMap<Symbol, NodeId>,
    mode: PlannerMode,
    limit: Option<usize>,
    rt: &Runtime,
) -> Result<NodeBindings> {
    query.validate(None)?;
    let vars = query.variables();
    let Some(slots) = resolve_slots(graph, query) else {
        return Ok(NodeBindings::empty(vars));
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "collected into a set: hash order cannot escape"
    )]
    let bound: FxHashSet<Symbol> = seed.keys().copied().filter(|v| vars.contains(v)).collect();
    let mut plan = plan_query(graph, query, &bound, mode);
    for (i, atom) in query.atoms.iter().enumerate() {
        match (plan.access[i], &compiled[i]) {
            (AccessChoice::Demand, Some(c)) => {
                cache.demand_mut().ensure(&atom.nre, &c.automata);
            }
            // Outside the demand-evaluable fragment: flip back.
            (AccessChoice::Demand, None) => {
                plan.access[i] = AccessChoice::Materialize;
                cache.ensure(graph, &atom.nre, rt);
            }
            (AccessChoice::Materialize, _) => cache.ensure(graph, &atom.nre, rt),
        }
    }
    let cache = &*cache;
    let access: Vec<AtomAccess> = query
        .atoms
        .iter()
        .enumerate()
        .map(|(i, a)| match plan.access[i] {
            AccessChoice::Materialize => AtomAccess::Mat(cache.get(&a.nre).expect("ensured")),
            AccessChoice::Demand => {
                AtomAccess::Demand(cache.demand().get(&a.nre).expect("ensured"))
            }
        })
        .collect();
    if mode == PlannerMode::Materialize {
        // The baseline mode reproduces the pre-planner behaviour exactly:
        // every relation is materialized above, so order by *actual*
        // relation sizes rather than the estimates.
        let rels: Vec<&BinRel> = query
            .atoms
            .iter()
            .map(|a| cache.get(&a.nre).expect("ensured"))
            .collect();
        plan.order = greedy_order(query, &rels, bound, None);
    }
    // One work snapshot per distinct evaluator (atoms sharing an NRE
    // share both the evaluator and the counters).
    let mut credited: Vec<(&DemandCredit, &RefCell<DemandEvaluator>, DemandStats)> = Vec::new();
    for (a, c) in access.iter().zip(compiled) {
        if let (AtomAccess::Demand(ev), Some(c)) = (a, c) {
            if !credited.iter().any(|(_, seen, _)| std::ptr::eq(*seen, *ev)) {
                credited.push((&c.credit, ev, ev.borrow().stats()));
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "map-to-map copy: hash order cannot escape"
    )]
    let mut binding: FxHashMap<Symbol, NodeId> = seed.iter().map(|(&v, &id)| (v, id)).collect();
    binding.retain(|v, _| vars.contains(v));
    let mut rows = match parallel_outer_join(
        graph,
        &access,
        &slots,
        &plan.order,
        &binding,
        &vars,
        limit,
        rt,
    ) {
        Some(rows) => rows,
        None => {
            let mut rows = RowBuf::new(vars.len());
            join_access(
                graph,
                &access,
                &slots,
                &plan.order,
                0,
                &mut binding,
                &vars,
                &mut rows,
                limit,
            );
            rows
        }
    };
    for (credit, ev, before) in credited {
        credit.add(ev.borrow().stats().delta_since(&before));
    }
    rows.dedup_preserving_order();
    Ok(NodeBindings::from_parts(vars, rows))
}

/// Minimum depth-0 candidates before the join outer loop fans out.
const PAR_MIN_OUTER: usize = 256;
/// Candidates per worker chunk once it does.
const PAR_OUTER_CHUNK: usize = 64;

/// One depth-0 extension of the join: the variable bindings the first
/// ordered atom contributes before recursion continues at depth 1.
enum OuterCand {
    One(Symbol, NodeId),
    Two(Symbol, NodeId, Symbol, NodeId),
}

/// Partitions the outer (depth-0) candidate set of a fully-materialized,
/// unlimited join across workers; each worker replays the exact recursion
/// the sequential join would run under its candidates, and per-chunk rows
/// concatenate in candidate order — byte-identical output.
///
/// Returns `None` (caller falls back to the sequential join) when: a
/// `limit` demands early exit, any atom took the demand access path (its
/// memoizing evaluator belongs to the caller's one cache), both
/// endpoints of the outer atom are already bound, or the candidate count
/// is below [`PAR_MIN_OUTER`].
#[expect(
    clippy::too_many_arguments,
    reason = "the join threads the planner state through every level; bundling it into a struct would only rename the arguments"
)]
fn parallel_outer_join(
    graph: &Graph,
    access: &[AtomAccess],
    slots: &[(TermSlot, TermSlot)],
    order: &[usize],
    binding: &FxHashMap<Symbol, NodeId>,
    vars: &[Symbol],
    limit: Option<usize>,
    rt: &Runtime,
) -> Option<RowBuf> {
    if limit.is_some() || !rt.is_parallel() || order.is_empty() {
        return None;
    }
    // `AtomAccess` as a *type* cannot cross threads (its demand variant
    // holds a `RefCell`), so extract the all-materialized view first and
    // let each worker rebuild its own access vector from the Sync
    // relations.
    let mats: Vec<&BinRel> = access
        .iter()
        .map(|a| match a {
            AtomAccess::Mat(rel) => Some(*rel),
            AtomAccess::Demand(_) => None,
        })
        .collect::<Option<_>>()?;
    let ai = order[0];
    let (l, r) = slots[ai];
    let lv = match l {
        TermSlot::Fixed(id) => Some(id),
        TermSlot::Var(v) => binding.get(&v).copied(),
    };
    let rv = match r {
        TermSlot::Fixed(id) => Some(id),
        TermSlot::Var(v) => binding.get(&v).copied(),
    };
    let rel = mats[ai];
    let cands: Vec<OuterCand> = match (lv, rv) {
        (Some(_), Some(_)) => return None,
        (Some(u), None) => {
            let TermSlot::Var(rvar) = r else {
                unreachable!()
            };
            rel.image(u)
                .iter()
                .map(|&w| OuterCand::One(rvar, w))
                .collect()
        }
        (None, Some(w)) => {
            let TermSlot::Var(lvar) = l else {
                unreachable!()
            };
            rel.preimage(w)
                .iter()
                .map(|&u| OuterCand::One(lvar, u))
                .collect()
        }
        (None, None) => {
            let (TermSlot::Var(lvar), TermSlot::Var(rvar)) = (l, r) else {
                unreachable!()
            };
            if lvar == rvar {
                rel.iter()
                    .filter(|(u, w)| u == w)
                    .map(|(u, _)| OuterCand::One(lvar, u))
                    .collect()
            } else {
                rel.iter()
                    .map(|(u, w)| OuterCand::Two(lvar, u, rvar, w))
                    .collect()
            }
        }
    };
    if cands.len() < PAR_MIN_OUTER {
        return None;
    }
    let chunk_rows = rt.par_chunks(&cands, PAR_OUTER_CHUNK, |_, chunk| {
        let worker_access: Vec<AtomAccess> = mats.iter().map(|r| AtomAccess::Mat(r)).collect();
        let mut b = binding.clone();
        let mut rows = RowBuf::new(vars.len());
        for cand in chunk {
            match *cand {
                OuterCand::One(v, id) => {
                    b.insert(v, id);
                    join_access(
                        graph,
                        &worker_access,
                        slots,
                        order,
                        1,
                        &mut b,
                        vars,
                        &mut rows,
                        None,
                    );
                    b.remove(&v);
                }
                OuterCand::Two(lv, lid, rv, rid) => {
                    b.insert(lv, lid);
                    b.insert(rv, rid);
                    join_access(
                        graph,
                        &worker_access,
                        slots,
                        order,
                        1,
                        &mut b,
                        vars,
                        &mut rows,
                        None,
                    );
                    b.remove(&rv);
                    b.remove(&lv);
                }
            }
        }
        rows
    });
    let mut out = RowBuf::new(vars.len());
    for chunk in chunk_rows {
        out.append(chunk);
    }
    Some(out)
}

/// Resolves every atom's terms to slots; `None` when a constant is absent
/// from the graph (no atom can match, hence no answers).
pub(crate) fn resolve_slots(graph: &Graph, query: &Cnre) -> Option<Vec<(TermSlot, TermSlot)>> {
    let resolve = |t: &Term| -> Option<TermSlot> {
        match t {
            Term::Var(v) => Some(TermSlot::Var(*v)),
            Term::Const(c) => graph.node_id(Node::Const(*c)).map(TermSlot::Fixed),
        }
    };
    query
        .atoms
        .iter()
        .map(|atom| Some((resolve(&atom.left)?, resolve(&atom.right)?)))
        .collect()
}

/// Greedy atom order: prefer atoms whose variables are already bound (or
/// constant), then smaller relations. `exclude` removes one atom from the
/// ordering (the semi-naive driver places its delta atom first itself).
pub(crate) fn greedy_order(
    query: &Cnre,
    rels: &[&BinRel],
    mut bound: FxHashSet<Symbol>,
    exclude: Option<usize>,
) -> Vec<usize> {
    let n = query.atoms.len();
    let mut remaining: Vec<usize> = (0..n).filter(|&i| Some(i) != exclude).collect();
    let mut order: Vec<usize> = Vec::with_capacity(remaining.len());
    while let Some((pos, &best)) = remaining.iter().enumerate().max_by_key(|(_, &i)| {
        let a = &query.atoms[i];
        let shared = a.variables().filter(|v| bound.contains(v)).count();
        let fixed = [&a.left, &a.right].iter().filter(|t| !t.is_var()).count();
        (shared + fixed, usize::MAX - rels[i].len())
    }) {
        order.push(best);
        bound.extend(query.atoms[best].variables());
        remaining.swap_remove(pos);
    }
    order
}

#[derive(Clone, Copy)]
pub(crate) enum TermSlot {
    Var(Symbol),
    Fixed(NodeId),
}

/// One atom's backing during a join: a materialized relation, or a
/// memoizing demand evaluator probed from whichever endpoint is bound.
pub(crate) enum AtomAccess<'a> {
    Mat(&'a BinRel),
    Demand(&'a RefCell<DemandEvaluator>),
}

/// The mixed-access join. Returns `true` when `limit` rows were collected
/// (early exit for existence probes).
#[expect(
    clippy::too_many_arguments,
    reason = "the join threads the planner state through every level; bundling it into a struct would only rename the arguments"
)]
pub(crate) fn join_access(
    graph: &Graph,
    access: &[AtomAccess],
    slots: &[(TermSlot, TermSlot)],
    order: &[usize],
    depth: usize,
    binding: &mut FxHashMap<Symbol, NodeId>,
    vars: &[Symbol],
    rows: &mut RowBuf,
    limit: Option<usize>,
) -> bool {
    if depth == order.len() {
        rows.push_from(vars, binding);
        return limit.is_some_and(|l| rows.len() >= l);
    }
    let ai = order[depth];
    let (l, r) = slots[ai];
    let lv = match l {
        TermSlot::Fixed(id) => Some(id),
        TermSlot::Var(v) => binding.get(&v).copied(),
    };
    let rv = match r {
        TermSlot::Fixed(id) => Some(id),
        TermSlot::Var(v) => binding.get(&v).copied(),
    };
    macro_rules! recurse {
        () => {
            join_access(
                graph,
                access,
                slots,
                order,
                depth + 1,
                binding,
                vars,
                rows,
                limit,
            )
        };
    }
    match (lv, rv) {
        (Some(u), Some(w)) => {
            let hit = match &access[ai] {
                AtomAccess::Mat(rel) => rel.contains(u, w),
                AtomAccess::Demand(ev) => ev.borrow_mut().contains(graph, u, w),
            };
            if hit {
                return recurse!();
            }
            false
        }
        (Some(u), None) => {
            let TermSlot::Var(rvar) = r else {
                unreachable!()
            };
            match &access[ai] {
                AtomAccess::Mat(rel) => {
                    for &w in rel.image(u) {
                        binding.insert(rvar, w);
                        if recurse!() {
                            binding.remove(&rvar);
                            return true;
                        }
                    }
                }
                AtomAccess::Demand(ev) => {
                    // Copy the memoized slice so the evaluator is free for
                    // re-borrowing inside the recursion.
                    let cand: Vec<NodeId> = ev.borrow_mut().image(graph, u).to_vec();
                    for w in cand {
                        binding.insert(rvar, w);
                        if recurse!() {
                            binding.remove(&rvar);
                            return true;
                        }
                    }
                }
            }
            binding.remove(&rvar);
            false
        }
        (None, Some(w)) => {
            let TermSlot::Var(lvar) = l else {
                unreachable!()
            };
            match &access[ai] {
                AtomAccess::Mat(rel) => {
                    for &u in rel.preimage(w) {
                        binding.insert(lvar, u);
                        if recurse!() {
                            binding.remove(&lvar);
                            return true;
                        }
                    }
                }
                AtomAccess::Demand(ev) => {
                    let cand: Vec<NodeId> = ev.borrow_mut().preimage(graph, w).to_vec();
                    for u in cand {
                        binding.insert(lvar, u);
                        if recurse!() {
                            binding.remove(&lvar);
                            return true;
                        }
                    }
                }
            }
            binding.remove(&lvar);
            false
        }
        (None, None) => {
            let TermSlot::Var(lvar) = l else {
                unreachable!()
            };
            let TermSlot::Var(rvar) = r else {
                unreachable!()
            };
            // The planner only assigns the demand path to atoms with a
            // bound endpoint, so a doubly-free atom is materialized; the
            // defensive arm below keeps the join total regardless.
            let pairs: Box<dyn Iterator<Item = (NodeId, NodeId)> + '_> = match &access[ai] {
                AtomAccess::Mat(rel) => Box::new(rel.iter()),
                AtomAccess::Demand(ev) => {
                    debug_assert!(false, "planner bound-endpoint invariant violated");
                    let mut all: Vec<(NodeId, NodeId)> = Vec::new();
                    for u in graph.node_ids() {
                        for &v in ev.borrow_mut().image(graph, u) {
                            all.push((u, v));
                        }
                    }
                    Box::new(all.into_iter())
                }
            };
            if lvar == rvar {
                // Self-join on one variable: diagonal pairs only.
                for (u, w) in pairs {
                    if u == w {
                        binding.insert(lvar, u);
                        let done = recurse!();
                        binding.remove(&lvar);
                        if done {
                            return true;
                        }
                    }
                }
            } else {
                for (u, w) in pairs {
                    binding.insert(lvar, u);
                    binding.insert(rvar, w);
                    let done = recurse!();
                    binding.remove(&rvar);
                    binding.remove(&lvar);
                    if done {
                        return true;
                    }
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    // The join core, driven through `PreparedQuery` — the only entry
    // point into planned evaluation.
    use super::*;
    use crate::PreparedQuery;

    fn evaluate(graph: &Graph, query: &Cnre) -> Result<NodeBindings> {
        PreparedQuery::new(query.clone()).evaluate(graph)
    }

    fn g1() -> Graph {
        // Figure 1(a).
        Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);").unwrap()
    }

    #[test]
    fn single_atom_query() {
        let g = g1();
        let q = Cnre::parse("(x, h, y)").unwrap();
        let b = evaluate(&g, &q).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn papers_query_certainlike_eval() {
        let g = g1();
        let q = Cnre::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let b = evaluate(&g, &q).unwrap();
        let consts = b.constant_rows(&g);
        // JQK_G1 = {(c1,c1),(c1,c3),(c3,c1),(c3,c3)} — all constants.
        assert_eq!(b.len(), 4);
        assert_eq!(consts.len(), 4);
    }

    #[test]
    fn conjunction_join() {
        let g = g1();
        // Cities x with a flight to y that has hotel hx.
        let q = Cnre::parse("(x, f, y), (y, h, \"hx\")").unwrap();
        let b = evaluate(&g, &q).unwrap();
        assert_eq!(b.len(), 2, "c1→N and c3→N");
        let rows = b.constant_rows(&g);
        assert!(rows.is_empty(), "y is the null N in every answer");
    }

    #[test]
    fn boolean_query_constants_only() {
        let g = g1();
        let yes = Cnre::parse("(\"c1\", f.f, \"c2\")").unwrap();
        assert!(!evaluate(&g, &yes).unwrap().is_empty());
        let no = Cnre::parse("(\"c2\", f, \"c1\")").unwrap();
        assert!(evaluate(&g, &no).unwrap().is_empty());
    }

    #[test]
    fn missing_constant_gives_empty() {
        let g = g1();
        let q = Cnre::parse("(\"nope\", f, x)").unwrap();
        assert!(evaluate(&g, &q).unwrap().is_empty());
    }

    #[test]
    fn repeated_variable_in_atom() {
        let g = Graph::parse("(a, f, a); (a, f, b);").unwrap();
        let q = Cnre::parse("(x, f, x)").unwrap();
        let b = evaluate(&g, &q).unwrap();
        assert_eq!(b.len(), 1, "only the self-loop");
    }

    #[test]
    fn shared_variable_across_atoms() {
        let g = Graph::parse("(a, f, b); (b, g, c); (b, g, d); (x, g, y);").unwrap();
        let q = Cnre::parse("(u, f, v), (v, g, w)").unwrap();
        let b = evaluate(&g, &q).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn eval_with_shared_cache() {
        let g = g1();
        let mut cache = EvalCache::new();
        let q = PreparedQuery::parse("(x, f.f*, y)").unwrap();
        let a1 = q.matches(&g, &mut cache).unwrap();
        let a2 = q.matches(&g, &mut cache).unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn seeded_evaluation_fixes_variables() {
        let g = g1();
        let q = PreparedQuery::parse("(x, f, y), (y, h, z)").unwrap();
        let mut cache = EvalCache::new();
        let c1 = g.node_id(Node::cst("c1")).unwrap();
        let mut seed = FxHashMap::default();
        seed.insert(Symbol::new("x"), c1);
        let b = q.evaluate_seeded(&g, &mut cache, &seed).unwrap();
        // x fixed to c1: y = N, z ∈ {hx, hy}.
        assert_eq!(b.len(), 2);
        for row in b.rows() {
            assert_eq!(row[0], c1);
        }
        // Seeding an unused variable is harmless.
        seed.insert(Symbol::new("unused"), c1);
        let b2 = q.evaluate_seeded(&g, &mut cache, &seed).unwrap();
        assert_eq!(b2.len(), 2);
    }

    #[test]
    fn planner_modes_agree() {
        // Demand-eligible shapes (constants, seeds) and materialize-only
        // shapes (all-free) must produce identical answer sets.
        let g = g1();
        let row_set =
            |b: &NodeBindings| -> FxHashSet<Vec<NodeId>> { b.rows().map(|r| r.to_vec()).collect() };
        for (query, seed_var) in [
            ("(\"c1\", f.f, \"c2\")", None),
            ("(x, f, y), (y, h, z)", Some("x")),
            ("(x1, f.f*.[h].f-.(f-)*, x2)", None),
            ("(x1, f.f*.[h].f-.(f-)*, x2)", Some("x1")),
            ("(x, f, y), (y, h, \"hx\")", None),
        ] {
            let q = PreparedQuery::parse(query).unwrap();
            let mut seed = FxHashMap::default();
            if let Some(v) = seed_var {
                seed.insert(Symbol::new(v), g.node_id(Node::cst("c1")).unwrap());
            }
            let mut c1 = EvalCache::new();
            let auto = q
                .evaluate_seeded_mode(&g, &mut c1, &seed, PlannerMode::Auto)
                .unwrap();
            let mut c2 = EvalCache::new();
            let mat = q
                .evaluate_seeded_mode(&g, &mut c2, &seed, PlannerMode::Materialize)
                .unwrap();
            assert_eq!(row_set(&auto), row_set(&mat), "{query} seed {seed_var:?}");
            let mut c3 = EvalCache::new();
            assert_eq!(
                q.evaluate_seeded_exists(&g, &mut c3, &seed).unwrap(),
                !mat.is_empty(),
                "{query}"
            );
        }
    }

    #[test]
    fn evaluate_exists_probes_constants() {
        let g = g1();
        let exists = |text: &str| {
            PreparedQuery::parse(text)
                .unwrap()
                .evaluate_exists(&g)
                .unwrap()
        };
        assert!(exists("(\"c1\", f.f, \"c2\")"));
        assert!(!exists("(\"c2\", f, \"c1\")"));
        assert!(!exists("(\"nope\", f, x)"));
    }

    #[test]
    fn egd_body_from_example_2_2() {
        // (x1, h, x3), (x2, h, x3): pairs of cities sharing a hotel.
        let g = Graph::parse("(_N1, h, hy); (_N2, h, hx); (_N3, h, hx);").unwrap();
        let q = Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap();
        let b = evaluate(&g, &q).unwrap();
        // Pairs over hy: (N1,N1). Over hx: (N2,N2),(N2,N3),(N3,N2),(N3,N3).
        assert_eq!(b.len(), 5);
    }
}
