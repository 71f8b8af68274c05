//! Evaluation of NREs over graphs: `⟦r⟧_G ⊆ V × V`.
//!
//! Bottom-up relational evaluation. Composition joins on the middle node
//! through [`BinRel`]'s flat (arena-indexed) adjacency; Kleene star is a
//! per-source BFS over the closure of the inner relation with a dense
//! bitset visited set, which keeps the worst case at
//! `O(|V|·(|V|+|R|))` instead of cubic matrix iteration.

use crate::ast::Nre;
use gdx_common::{FxHashMap, FxHashSet, ScratchBits, Symbol};
use gdx_graph::{Graph, NodeId};

/// Flat, arena-backed adjacency: every key's neighbor block lives in one
/// shared backing array, addressed *directly* by the dense `NodeId` — no
/// hashing, no per-key heap `Vec`. A lookup is one slot read plus one
/// slice into the arena; an append is amortized O(1) (blocks relocate to
/// the arena end with doubled capacity when full, and a block already at
/// the end grows in place — the common case for bulk per-key runs like
/// the star closure's per-source BFS output).
///
/// Neighbor order within a block is **insertion order**: the evaluation
/// row order — and through it the chase's firing order and fresh-null
/// names — depends on image enumeration order, so the flat layout must
/// reproduce exactly what the old hash-map-of-`Vec`s produced.
#[derive(Debug, Clone, Default)]
struct AdjList {
    slots: Vec<Slot>,
    arena: Vec<NodeId>,
}

/// One key's block descriptor.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    start: u32,
    len: u32,
    cap: u32,
}

impl AdjList {
    fn with_capacity(keys: usize, vals: usize) -> AdjList {
        AdjList {
            slots: Vec::with_capacity(keys),
            arena: Vec::with_capacity(vals),
        }
    }

    /// Groups `(key, val)` pairs by key, keeping their order in each
    /// block: one counting pass sizes every block exactly, a second fills
    /// them.
    fn from_pairs(pairs: impl Iterator<Item = (NodeId, NodeId)> + Clone) -> AdjList {
        let mut slots: Vec<Slot> = Vec::new();
        for (key, _) in pairs.clone() {
            let k = key as usize;
            if k >= slots.len() {
                slots.resize(k + 1, Slot::default());
            }
            slots[k].cap += 1;
        }
        let mut start = 0;
        for slot in &mut slots {
            slot.start = start;
            start += slot.cap;
        }
        let mut arena = vec![0; start as usize];
        for (key, val) in pairs {
            let slot = &mut slots[key as usize];
            arena[(slot.start + slot.len) as usize] = val;
            slot.len += 1;
        }
        AdjList { slots, arena }
    }

    /// Appends `val` to `key`'s block (no dedup — [`BinRel::insert`]
    /// dedups via the packed pair set before calling this).
    fn push(&mut self, key: NodeId, val: NodeId) {
        let k = key as usize;
        if k >= self.slots.len() {
            self.slots.resize(k + 1, Slot::default());
        }
        let slot = self.slots[k];
        if slot.len == slot.cap {
            let new_cap = if slot.cap == 0 { 2 } else { slot.cap * 2 };
            if u64::from(slot.start) + u64::from(slot.cap) == self.arena.len() as u64 {
                // Block ends the arena: grow in place.
                self.arena.resize(slot.start as usize + new_cap as usize, 0);
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "capacity invariant: u32 arena offsets outlast memory"
                )]
                let new_start = u32::try_from(self.arena.len()).expect("arena overflow");
                let s = slot.start as usize;
                self.arena.extend_from_within(s..s + slot.len as usize);
                self.arena.resize(new_start as usize + new_cap as usize, 0);
                self.slots[k].start = new_start;
            }
            self.slots[k].cap = new_cap;
        }
        let slot = self.slots[k];
        self.arena[(slot.start + slot.len) as usize] = val;
        self.slots[k].len += 1;
    }

    #[inline]
    fn slice(&self, key: NodeId) -> &[NodeId] {
        match self.slots.get(key as usize) {
            Some(s) => &self.arena[s.start as usize..(s.start + s.len) as usize],
            None => &[],
        }
    }

    /// Keys with a non-empty block, ascending.
    fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len > 0)
            .map(|(i, _)| i as NodeId)
    }
}

/// A binary relation over graph nodes with flat forward/backward
/// adjacency.
///
/// Insertions are deduplicated and *logged*: [`BinRel::mark`] returns a
/// watermark into the insertion log, and [`BinRel::pairs_since`] returns
/// exactly the pairs added after a watermark — the delta protocol used by
/// the incremental evaluator and the semi-naive join.
///
/// The data plane is cache-conscious: adjacency lives in two `AdjList`
/// arenas indexed directly by dense node id (image/preimage are two array
/// reads — no hash, no per-key `Vec`), and the only hash structure left
/// is the membership index of pairs packed into single `u64`s
/// (`src << 32 | dst`). That index is maintained **lazily**: the bulk
/// constructors of the materializing evaluator (star closure,
/// composition) prove uniqueness structurally — a per-source/per-group
/// bitset — and append hash-free via `push_new`; the pair index is then
/// *sealed* (built in one pass over the log) the first time something
/// actually needs membership — an [`BinRel::insert`], or the public
/// constructors before handing the relation out. [`BinRel::contains`]
/// stays exact on an unsealed relation by scanning the unhashed log
/// tail. Insertion order is preserved everywhere it is observable — the
/// log, and each node's image/preimage slice — because row order, chase
/// firing order and fresh-null names all derive from it.
#[derive(Debug, Clone, Default)]
pub struct BinRel {
    pairs: FxHashSet<u64>,
    /// Log entries `[..hashed]` are reflected in `pairs`; the tail was
    /// appended by `push_new` and awaits `seal_pairs`.
    hashed: usize,
    log: Vec<(NodeId, NodeId)>,
    fwd: AdjList,
    rev: AdjList,
}

/// The packed hash key of a pair.
#[inline]
fn pack(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

impl BinRel {
    /// The empty relation.
    pub fn new() -> BinRel {
        BinRel::default()
    }

    /// An empty relation with pre-sized pair set/log and adjacency
    /// arenas — for callers that know roughly how many pairs and distinct
    /// endpoints are coming, e.g. label relations sized from
    /// [`Graph::label_count`](gdx_graph::Graph) with endpoints bounded by
    /// the node count (the slot tables hold one entry per endpoint, the
    /// arenas one per pair).
    pub fn with_capacity(pairs: usize, endpoints: usize) -> BinRel {
        BinRel {
            pairs: FxHashSet::with_capacity_and_hasher(pairs, Default::default()),
            hashed: 0,
            log: Vec::with_capacity(pairs),
            fwd: AdjList::with_capacity(endpoints, pairs),
            rev: AdjList::with_capacity(endpoints, pairs),
        }
    }

    /// Appends a pair the caller has *proved* absent (e.g. via a BFS
    /// visited bitset) — log, arenas, no hash. The pair index picks the
    /// entry up at the next [`BinRel::seal_pairs`].
    fn push_new(&mut self, u: NodeId, v: NodeId) {
        self.log.push((u, v));
        self.fwd.push(u, v);
        self.rev.push(v, u);
    }

    /// Brings the packed pair index up to date with the log (idempotent,
    /// O(unsealed tail)).
    fn seal_pairs(&mut self) {
        for &(u, v) in &self.log[self.hashed..] {
            self.pairs.insert(pack(u, v));
        }
        self.hashed = self.log.len();
    }

    /// Inserts a pair; returns `true` when new. Seals the pair index
    /// first when bulk constructors left it behind the log.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.hashed < self.log.len() {
            self.seal_pairs();
        }
        if self.pairs.insert(pack(u, v)) {
            self.log.push((u, v));
            self.fwd.push(u, v);
            self.rev.push(v, u);
            self.hashed = self.log.len();
            true
        } else {
            false
        }
    }

    /// Membership test: one probe of the packed pair index, plus a scan
    /// of the unsealed log tail (empty on every relation the public
    /// constructors hand out).
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.pairs.contains(&pack(u, v)) || self.log[self.hashed..].contains(&(u, v))
    }

    /// All pairs, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.log.iter().copied()
    }

    /// Watermark into the insertion log (`== len()`).
    pub fn mark(&self) -> usize {
        self.log.len()
    }

    /// The pairs inserted since a [`BinRel::mark`] watermark.
    pub fn pairs_since(&self, mark: usize) -> &[(NodeId, NodeId)] {
        &self.log[mark..]
    }

    /// Successors of `u` in the relation, in insertion order.
    pub fn image(&self, u: NodeId) -> &[NodeId] {
        self.fwd.slice(u)
    }

    /// Predecessors of `v` in the relation, in insertion order.
    pub fn preimage(&self, v: NodeId) -> &[NodeId] {
        self.rev.slice(v)
    }

    /// Number of pairs (the log is duplicate-free by construction).
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The set of first components, in ascending node-id order.
    pub fn domain(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.fwd.keys()
    }

    /// The set of second components, in ascending node-id order — with
    /// [`BinRel::domain`], the sorted unary projections that candidate
    /// pruning intersects by galloping merge.
    pub fn codomain(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.rev.keys()
    }

    /// Builds a relation from pairs the caller guarantees distinct (an
    /// edge log filtered to one label, a node id range) — hash-free.
    fn from_unique_pairs(
        pairs_hint: usize,
        endpoints_hint: usize,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> BinRel {
        let mut r = BinRel::with_capacity(pairs_hint, endpoints_hint);
        for (u, v) in pairs {
            r.push_new(u, v);
        }
        r
    }

    /// Builds a relation from pairs the caller has *proved* distinct (e.g.
    /// by a visited bitset), in their order: the pairs become the log,
    /// each adjacency is laid out by one counting pass, and one pass fills
    /// the pair index, so the result is sealed like every relation the
    /// public constructors hand out.
    pub fn from_distinct_pairs(log: Vec<(NodeId, NodeId)>) -> BinRel {
        let mut r = BinRel {
            pairs: FxHashSet::with_capacity_and_hasher(log.len(), Default::default()),
            hashed: 0,
            fwd: AdjList::from_pairs(log.iter().copied()),
            rev: AdjList::from_pairs(log.iter().map(|&(u, v)| (v, u))),
            log,
        };
        r.seal_pairs();
        debug_assert_eq!(r.pairs.len(), r.log.len(), "pairs must be distinct");
        r
    }

    /// The transpose `{(v, u) | (u, v) ∈ self}`, with its pairs in the
    /// order of `self`'s: the adjacency arenas swap roles, so only the
    /// pair index is rebuilt.
    pub fn transpose(&self) -> BinRel {
        let log: Vec<(NodeId, NodeId)> = self.log.iter().map(|&(u, v)| (v, u)).collect();
        let mut r = BinRel {
            pairs: FxHashSet::with_capacity_and_hasher(log.len(), Default::default()),
            hashed: 0,
            fwd: self.rev.clone(),
            rev: self.fwd.clone(),
            log,
        };
        r.seal_pairs();
        r
    }

    /// Relation composition `self ; other`.
    pub fn compose(&self, other: &BinRel) -> BinRel {
        let mut out = compose_unsealed(self, other);
        out.seal_pairs();
        out
    }

    /// Reflexive-transitive closure over the node universe of `graph`.
    pub fn star(&self, graph: &Graph) -> BinRel {
        let mut out = star_unsealed(self, graph);
        out.seal_pairs();
        out
    }
}

/// `a ; b` with an unsealed pair index. Shared by [`BinRel::compose`] and
/// [`eval`] so the two cannot drift apart (the insertion-log order is part
/// of the delta protocol's correctness). Iterating *grouped by source* is
/// what makes the construction hash-free: within one source, a dense
/// bitset dedups the candidate targets; across sources pairs cannot
/// collide at all.
fn compose_unsealed(a: &BinRel, b: &BinRel) -> BinRel {
    let mut out = BinRel::new();
    let mut seen = ScratchBits::new();
    for u in a.domain() {
        seen.reset();
        for &m in a.image(u) {
            for &v in b.image(m) {
                if seen.insert(v as usize) {
                    out.push_new(u, v);
                }
            }
        }
    }
    out
}

/// Star closure over the node universe of `graph`, with an unsealed pair
/// index. Shared by [`BinRel::star`] and [`eval`] — one traversal
/// definition, so the log order is the same on both paths.
///
/// The visited set is a dense bitset over node ids, reset (in time
/// proportional to the previous source's reach) rather than reallocated
/// between sources: the closure loop runs once per node of the graph, so
/// per-source hash-set churn used to dominate its cost.
fn star_unsealed(inner: &BinRel, graph: &Graph) -> BinRel {
    let mut out = BinRel::new();
    let mut seen = ScratchBits::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    for src in graph.node_ids() {
        // DFS-order expansion from src over the relation's adjacency.
        seen.reset();
        frontier.clear();
        frontier.push(src);
        seen.insert(src as usize);
        out.push_new(src, src);
        while let Some(u) = frontier.pop() {
            for &v in inner.image(u) {
                if seen.insert(v as usize) {
                    out.push_new(src, v);
                    frontier.push(v);
                }
            }
        }
    }
    out
}

/// Evaluates `⟦r⟧_G`.
///
/// ```
/// use gdx_graph::Graph;
/// use gdx_nre::parse::parse_nre;
/// use gdx_nre::eval::eval;
/// let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
/// let r = eval(&g, &parse_nre("f.f").unwrap());
/// let a = g.node_id(gdx_graph::Node::cst("a")).unwrap();
/// let c = g.node_id(gdx_graph::Node::cst("c")).unwrap();
/// assert!(r.contains(a, c));
/// assert_eq!(r.len(), 1);
/// ```
///
/// The returned relation is sealed; the intermediate subexpression
/// relations live and die inside this call without ever paying for a
/// pair index.
pub fn eval(graph: &Graph, r: &Nre) -> BinRel {
    let mut rel = eval_unsealed(graph, r);
    rel.seal_pairs();
    rel
}

/// The recursive evaluation core; results may have an unsealed pair
/// index (exact for everything but O(1) `contains`, which the pipeline
/// itself never calls).
fn eval_unsealed(graph: &Graph, r: &Nre) -> BinRel {
    match r {
        Nre::Epsilon => BinRel::from_unique_pairs(
            graph.node_count(),
            graph.node_count(),
            graph.node_ids().map(|v| (v, v)),
        ),
        Nre::Label(a) => BinRel::from_unique_pairs(
            graph.label_count(*a),
            graph.label_count(*a).min(graph.node_count()),
            graph.label_pairs(*a),
        ),
        Nre::Inverse(a) => BinRel::from_unique_pairs(
            graph.label_count(*a),
            graph.label_count(*a).min(graph.node_count()),
            graph.label_pairs(*a).map(|(u, v)| (v, u)),
        ),
        Nre::Union(x, y) => {
            // `insert` needs membership, so the union target seals once.
            let mut rel = eval_unsealed(graph, x);
            for (u, v) in eval_unsealed(graph, y).iter() {
                rel.insert(u, v);
            }
            rel
        }
        Nre::Concat(x, y) => compose_unsealed(&eval_unsealed(graph, x), &eval_unsealed(graph, y)),
        Nre::Star(inner) => star_unsealed(&eval_unsealed(graph, inner), graph),
        Nre::Test(inner) => {
            let rel = eval_unsealed(graph, inner);
            let hint = rel.len().min(graph.node_count());
            BinRel::from_unique_pairs(hint, hint, rel.domain().map(|u| (u, u)))
        }
    }
}

/// Nodes reachable from `src` via `r`: `{v | (src, v) ∈ ⟦r⟧_G}`.
///
/// Computed on the fly without materializing the full relation — the
/// single-source evaluator recursions stay local except for `Inverse` under
/// `Star`, which falls back to label-pair scans.
pub fn eval_from(graph: &Graph, r: &Nre, src: NodeId) -> FxHashSet<NodeId> {
    let mut set = FxHashSet::default();
    set.insert(src);
    eval_from_set(graph, r, &set)
}

/// Image of a node set under `⟦r⟧_G`.
pub fn eval_from_set(graph: &Graph, r: &Nre, srcs: &FxHashSet<NodeId>) -> FxHashSet<NodeId> {
    match r {
        Nre::Epsilon => srcs.clone(),
        Nre::Label(a) => {
            let mut out = FxHashSet::default();
            #[expect(
                clippy::iter_over_hash_type,
                reason = "per-source images are unioned into a set"
            )]
            for &u in srcs {
                out.extend(graph.successors(u, *a).iter().copied());
            }
            out
        }
        Nre::Inverse(a) => {
            let mut out = FxHashSet::default();
            #[expect(
                clippy::iter_over_hash_type,
                reason = "per-source images are unioned into a set"
            )]
            for &u in srcs {
                out.extend(graph.predecessors(u, *a).iter().copied());
            }
            out
        }
        Nre::Union(x, y) => {
            let mut out = eval_from_set(graph, x, srcs);
            out.extend(eval_from_set(graph, y, srcs));
            out
        }
        Nre::Concat(x, y) => {
            let mid = eval_from_set(graph, x, srcs);
            eval_from_set(graph, y, &mid)
        }
        Nre::Star(inner) => {
            // BFS on the inner relation starting from srcs.
            let mut reached = srcs.clone();
            let mut frontier: FxHashSet<NodeId> = srcs.clone();
            while !frontier.is_empty() {
                let next = eval_from_set(graph, inner, &frontier);
                frontier = next.into_iter().filter(|v| reached.insert(*v)).collect();
            }
            reached
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "filtered into a set: hash order cannot escape"
        )]
        Nre::Test(inner) => srcs
            .iter()
            .copied()
            .filter(|&u| {
                let mut single = FxHashSet::default();
                single.insert(u);
                !eval_from_set(graph, inner, &single).is_empty()
            })
            .collect::<FxHashSet<_>>(),
    }
}

/// Convenience: does `(u, v) ∈ ⟦r⟧_G` hold?
pub fn holds(graph: &Graph, r: &Nre, u: NodeId, v: NodeId) -> bool {
    eval_from(graph, r, u).contains(&v)
}

/// Per-graph evaluation state: materialized relations memoized per NRE,
/// plus a [`DemandPool`] of seeded product-BFS evaluators, so the
/// access-path planner can mix both access paths over one cache. Use one
/// cache per graph (version): it holds *all* mutable evaluation state,
/// while compiled automata stay with the query that created them.
///
/// [`DemandPool`]: crate::demand::DemandPool
#[derive(Debug, Default)]
pub struct EvalCache {
    cache: FxHashMap<Nre, BinRel>,
    demand: crate::demand::DemandPool,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Evaluates with memoization on the NRE (top level only — inner
    /// subexpressions recurse through [`eval`]).
    pub fn eval<'a>(&'a mut self, graph: &Graph, r: &Nre) -> &'a BinRel {
        self.cache
            .entry(r.clone())
            .or_insert_with(|| eval(graph, r))
    }

    /// Materializes `r` without returning it — pair with [`EvalCache::get`]
    /// when several relations must be borrowed simultaneously.
    pub fn ensure(&mut self, graph: &Graph, r: &Nre) {
        self.eval(graph, r);
    }

    /// The cached relation, if [`EvalCache::eval`]/[`EvalCache::ensure`]
    /// ran for `r`.
    pub fn get(&self, r: &Nre) -> Option<&BinRel> {
        self.cache.get(r)
    }

    /// The demand evaluators probing this cache's graph.
    pub fn demand(&self) -> &crate::demand::DemandPool {
        &self.demand
    }

    /// Mutable access to [`EvalCache::demand`], for creating evaluators.
    pub fn demand_mut(&mut self) -> &mut crate::demand::DemandPool {
        &mut self.demand
    }
}

/// All labels mentioned by an NRE that actually occur in the graph —
/// a cheap emptiness precheck.
#[expect(clippy::disallowed_methods, reason = "`any` is order-free")]
pub fn mentions_absent_label(graph: &Graph, r: &Nre) -> bool {
    let present: FxHashSet<Symbol> = graph.labels().collect();
    r.symbols().iter().any(|s| !present.contains(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_nre;
    use gdx_graph::Node;

    fn id(g: &Graph, name: &str) -> NodeId {
        g.node_id(Node::cst(name))
            .or_else(|| g.node_id(Node::null(name)))
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    fn pairs(g: &Graph, expr: &str) -> FxHashSet<(String, String)> {
        let rel = eval(g, &parse_nre(expr).unwrap());
        rel.iter()
            .map(|(u, v)| (g.node(u).to_string(), g.node(v).to_string()))
            .collect()
    }

    #[test]
    fn label_and_inverse() {
        let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let fwd = pairs(&g, "f");
        assert_eq!(fwd.len(), 2);
        assert!(fwd.contains(&("a".into(), "b".into())));
        let bwd = pairs(&g, "f-");
        assert!(bwd.contains(&("b".into(), "a".into())));
        assert_eq!(bwd.len(), 2);
    }

    #[test]
    fn epsilon_is_identity() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let rel = eval(&g, &Nre::Epsilon);
        assert_eq!(rel.len(), 2);
        for v in g.node_ids() {
            assert!(rel.contains(v, v));
        }
    }

    #[test]
    fn concat_and_union() {
        let g = Graph::parse("(a, f, b); (b, g, c); (a, h, c);").unwrap();
        let fg = pairs(&g, "f.g");
        assert_eq!(fg.len(), 1);
        assert!(fg.contains(&("a".into(), "c".into())));
        let u = pairs(&g, "f.g+h");
        assert_eq!(u.len(), 1, "both disjuncts give (a,c)");
    }

    #[test]
    fn star_closure() {
        let g = Graph::parse("(a, f, b); (b, f, c); (c, f, d);").unwrap();
        let rel = eval(&g, &parse_nre("f*").unwrap());
        // 4 reflexive + 3+2+1 forward = 10
        assert_eq!(rel.len(), 10);
        assert!(rel.contains(id(&g, "a"), id(&g, "d")));
        assert!(!rel.contains(id(&g, "d"), id(&g, "a")));
    }

    #[test]
    fn star_on_cycle() {
        let g = Graph::parse("(a, f, b); (b, f, a);").unwrap();
        let rel = eval(&g, &parse_nre("f*").unwrap());
        assert_eq!(rel.len(), 4, "complete relation on the 2-cycle");
    }

    #[test]
    fn plus_requires_one_step() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let rel = eval(&g, &parse_nre("f.f*").unwrap());
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(id(&g, "a"), id(&g, "b")));
    }

    #[test]
    fn test_selects_nodes_with_witness() {
        // [h] holds at nodes that have an outgoing h-edge.
        let g = Graph::parse("(n1, h, hx); (n2, g, hx);").unwrap();
        let rel = eval(&g, &parse_nre("[h]").unwrap());
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(id(&g, "n1"), id(&g, "n1")));
    }

    #[test]
    fn papers_query_on_g1() {
        // Figure 1(a): G1, query Q = f.f*.[h].f-.(f-)*.
        let g = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);")
            .unwrap();
        let q = parse_nre("f.f*.[h].f-.(f-)*").unwrap();
        let rel = eval(&g, &q);
        let sel: FxHashSet<(String, String)> = rel
            .iter()
            .map(|(u, v)| (g.node(u).to_string(), g.node(v).to_string()))
            .collect();
        let expected: FxHashSet<(String, String)> =
            [("c1", "c1"), ("c1", "c3"), ("c3", "c1"), ("c3", "c3")]
                .iter()
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect();
        assert_eq!(sel, expected, "JQK_G1 from Example 2.2");
    }

    #[test]
    fn papers_query_on_g2() {
        // Figure 1(b): G2 has an extra hop c1 -f-> N1 -f-> N2(-h->hy), N2 -f-> c2…
        // Per the paper: JQK_G2 has 9 pairs.
        let g = Graph::parse(
            "(c1, f, _N1); (_N1, f, _N2); (_N2, f, c2);
             (c3, f, _N2); (_N2, h, hx); (_N1, h, hy); (_N2, f, c2);
             (c3, f, _N1);",
        )
        .unwrap();
        // This is a hand-encoding of Fig 1(b); the paper draws
        // c1→N1→N2→c2, c3→N2, c3→N1? — the answer set below is what the
        // paper lists, which is the ground truth we check against.
        let q = parse_nre("f.f*.[h].f-.(f-)*").unwrap();
        let rel = eval(&g, &q);
        let names: FxHashSet<(String, String)> = rel
            .iter()
            .map(|(u, v)| (g.node(u).to_string(), g.node(v).to_string()))
            .collect();
        for (a, b) in [("c1", "c1"), ("c1", "c3"), ("c3", "c1"), ("c3", "c3")] {
            assert!(names.contains(&(a.to_string(), b.to_string())), "{a},{b}");
        }
    }

    #[test]
    fn eval_from_matches_full_eval() {
        let g = Graph::parse("(a, f, b); (b, f, c); (c, g, a); (b, h, d); (d, g, b);").unwrap();
        for expr in ["f", "f-", "f.f", "f*", "(f+g)*", "[h]", "f.[h].f-", "eps"] {
            let r = parse_nre(expr).unwrap();
            let full = eval(&g, &r);
            for u in g.node_ids() {
                let from = eval_from(&g, &r, u);
                let expected: FxHashSet<NodeId> = full
                    .iter()
                    .filter(|&(s, _)| s == u)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(from, expected, "expr {expr} src {}", g.node(u));
            }
        }
    }

    #[test]
    fn holds_shortcut() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let r = parse_nre("f").unwrap();
        assert!(holds(&g, &r, id(&g, "a"), id(&g, "b")));
        assert!(!holds(&g, &r, id(&g, "b"), id(&g, "a")));
    }

    #[test]
    fn caches_are_send_and_automata_are_sync() {
        // The interior-mutability audit in type form: per-graph caches
        // (and the demand evaluators inside them) move *into* runtime
        // workers, so they must be `Send`; they stay `!Sync` (RefCell
        // demand pools), so each cache has one owner at a time. Compiled
        // automata, graphs and relations are shared read-only across
        // workers and must be `Sync`.
        fn is_send<T: Send>() {}
        fn is_sync<T: Sync + Send>() {}
        is_send::<EvalCache>();
        is_send::<crate::demand::DemandEvaluator>();
        is_send::<crate::IncrementalCache>();
        is_sync::<crate::demand::DemandAutomata>();
        is_sync::<Graph>();
        is_sync::<BinRel>();
    }

    #[test]
    fn cache_reuses_results() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let mut cache = EvalCache::new();
        let r = parse_nre("f*").unwrap();
        let n1 = cache.eval(&g, &r).len();
        let n2 = cache.eval(&g, &r).len();
        assert_eq!(n1, n2);
    }

    #[test]
    fn absent_label_detection() {
        let g = Graph::parse("(a, f, b);").unwrap();
        assert!(mentions_absent_label(&g, &parse_nre("f.zzz").unwrap()));
        assert!(!mentions_absent_label(&g, &parse_nre("f.f").unwrap()));
    }

    #[test]
    fn distinct_pairs_build_the_relation_inserts_build() {
        let pairs = vec![(3, 1), (0, 2), (3, 0), (5, 3), (0, 1), (2, 2), (1, 3)];
        let built = BinRel::from_distinct_pairs(pairs.clone());
        let mut inserted = BinRel::new();
        for &(u, v) in &pairs {
            inserted.insert(u, v);
        }
        assert!(built.iter().eq(inserted.iter()));
        for n in 0..7 {
            assert_eq!(built.image(n), inserted.image(n), "image of {n}");
            assert_eq!(built.preimage(n), inserted.preimage(n), "preimage of {n}");
            for m in 0..7 {
                assert_eq!(built.contains(n, m), inserted.contains(n, m), "({n}, {m})");
            }
        }
        assert!(built.domain().eq(inserted.domain()));
        assert!(built.codomain().eq(inserted.codomain()));
        // Later inserts grow the exactly sized blocks.
        let mut grown = built;
        assert!(grown.insert(3, 4) && !grown.insert(0, 2));
        assert_eq!(grown.image(3), &[1, 0, 4]);
        assert_eq!(grown.preimage(4), &[3]);
    }

    #[test]
    fn transpose_equals_the_reversed_pairs_built_in_order() {
        // A relation grown by inserts (slack in its arenas), transposed.
        let mut rel = BinRel::new();
        for (u, v) in [
            (3, 1),
            (0, 2),
            (3, 0),
            (5, 3),
            (0, 1),
            (2, 2),
            (1, 3),
            (3, 4),
        ] {
            rel.insert(u, v);
        }
        let t = rel.transpose();
        let built = BinRel::from_distinct_pairs(rel.iter().map(|(u, v)| (v, u)).collect());
        assert!(t.iter().eq(built.iter()));
        for n in 0..7 {
            assert_eq!(t.image(n), built.image(n), "image of {n}");
            assert_eq!(t.preimage(n), built.preimage(n), "preimage of {n}");
            for m in 0..7 {
                assert_eq!(t.contains(n, m), rel.contains(m, n), "({n}, {m})");
            }
        }
        let mut grown = t;
        assert!(grown.insert(4, 0) && !grown.insert(4, 3));
        assert_eq!(grown.image(4), &[3, 0]);
    }
}
