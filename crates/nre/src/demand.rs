//! Demand-driven NRE evaluation: BFS over the product `G × A` of the
//! graph with the expression's automaton, from seeded endpoints only.
//!
//! The paper's workloads — existence-of-solutions probes, certain-answer
//! checks, egd premise matching — overwhelmingly evaluate NREs with one or
//! both endpoints already bound. The bottom-up evaluator
//! ([`crate::eval::eval`]) still materializes the full relation `⟦r⟧_G`
//! first (worst case `O(|V|²)` pairs). This module answers the seeded
//! question directly, in the classic RPQ style: compile `r` into a small
//! automaton, then explore only the `(node, state)` pairs reachable from
//! the seeds.
//!
//! # The guarded automaton
//!
//! `r` compiles to the ε-free Thompson automaton of [`crate::nfa`] — the
//! same automaton `gdx_automata` determinizes for inclusion checks. Its
//! **guard transitions** (nesting tests `[t]`) fire at a graph node `u`
//! only when `∃v. (u, v) ∈ ⟦t⟧` — decided on demand by a recursive,
//! seeded sub-evaluation of `t` from exactly `u`, memoized per node.
//! Backward runs ([`DemandEvaluator::preimage`]) use the automaton
//! of the reversed expression ([`Nre::reversed`]), under which guards stay
//! in place as node predicates.
//!
//! Expressions beyond [`MAX_STATES`] automaton states fall outside the
//! supported fragment; [`eval_from`] / [`eval_into`] then fall back to the
//! materializing evaluator restricted to the seeds. The naive evaluator
//! stays the semantics of record either way — the property tests in
//! `tests/prop.rs` assert agreement on random NREs × graphs.
//!
//! [`DemandStats`] counts the `(node, state)` pairs actually expanded, so
//! regression tests can assert that seeded evaluation visits a small
//! fraction of what full materialization enumerates.
//!
//! The BFS inner loop runs on the cache-conscious data plane: once a
//! `(GraphId, Epoch)` version proves read-heavy (second BFS), adjacency
//! comes from the graph's frozen CSR snapshot ([`Graph::freeze`]) — the
//! first probe of a version reads the mutable index, so chase loops that
//! grow the graph between probes never pay per-epoch snapshot rebuilds.
//! The visited/output sets are dense bitsets from a per-thread scratch
//! pool, reset in time proportional to the previous probe's reach — a
//! probe allocates nothing beyond its memoized output once the thread has
//! run one.

use crate::ast::Nre;
use crate::eval::{eval, BinRel};
use crate::nfa::{Action, Nfa, State};
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, ScratchBits};
use gdx_graph::{FrozenGraph, Graph, GraphId, NodeId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Automata larger than this fall back to materializing evaluation: a
/// giant expression amortizes bottom-up evaluation across its shared
/// subterms better than a per-seed product walk would.
pub const MAX_STATES: usize = 4096;

/// Work counters of a [`DemandEvaluator`] — cumulative across calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemandStats {
    /// `(node, state)` product pairs expanded by BFS.
    pub visited: usize,
    /// Product-BFS runs started (one per uncached seed).
    pub bfs_runs: usize,
    /// Guard-predicate decisions requested (memoized hits included).
    pub guard_checks: usize,
}

impl DemandStats {
    /// Component-wise difference against an earlier snapshot of the same
    /// cumulative counters (saturating).
    pub fn delta_since(&self, earlier: &DemandStats) -> DemandStats {
        DemandStats {
            visited: self.visited.saturating_sub(earlier.visited),
            bfs_runs: self.bfs_runs.saturating_sub(earlier.bfs_runs),
            guard_checks: self.guard_checks.saturating_sub(earlier.guard_checks),
        }
    }

    /// Bridge into the shared registry under the `demand.*` namespace.
    /// Call with a *delta* (see [`DemandStats::delta_since`]) — registry
    /// counters are cumulative, so recording a cumulative snapshot twice
    /// would double-count.
    pub fn record_into(&self, obs: &gdx_obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.add("demand.visited", self.visited as u64);
        obs.add("demand.bfs_runs", self.bfs_runs as u64);
        obs.add("demand.guard_checks", self.guard_checks as u64);
    }

    /// Stable JSON rendering (fixed field order, no dependencies).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"visited\": {}, \"bfs_runs\": {}, \"guard_checks\": {}}}",
            self.visited, self.bfs_runs, self.guard_checks
        )
    }
}

/// Run direction over the product.
#[derive(Clone, Copy)]
enum Dir {
    Fwd,
    Bwd,
}

/// Early-exit policy of one product BFS.
#[derive(Clone, Copy)]
enum BfsStop {
    /// Collect the full image.
    Exhaust,
    /// Stop at the first accepting pair (existence probes, guards).
    FirstAccept,
    /// Stop once this node is reached in an accepting state (membership
    /// probes).
    Node(NodeId),
}

/// The compiled, immutable half of demand evaluation for one NRE: the
/// guarded automaton of `r`, the automaton of `rev(r)` for backward runs,
/// and — recursively — the compiled form of every nesting test. Holds no
/// graph state, so it is `Send + Sync` and shared behind an [`Arc`] by
/// every [`DemandEvaluator`] created from it ([`DemandAutomata::evaluator`]).
///
/// A prepared query compiles one of these per atom once; the per-graph
/// caches turn it into evaluators that carry the memo state.
#[derive(Debug)]
pub struct DemandAutomata {
    fwd: Nfa,
    bwd: Nfa,
    /// Compiled nesting tests, indexed by [`Action::Guard`] ids of both
    /// automata (guards are direction-independent, so one list serves
    /// both).
    guards: Vec<Arc<DemandAutomata>>,
}

impl DemandAutomata {
    /// Compiles `r`. Errors when the expression — or any of its
    /// nesting-test subexpressions, compiled eagerly here — falls outside
    /// the supported fragment ([`MAX_STATES`]); callers then fall back to
    /// the materializing evaluator instead of discovering an uncompilable
    /// guard mid-run.
    pub fn compile(r: &Nre) -> Result<Arc<DemandAutomata>> {
        let (fwd, mut tests) = Nfa::compile(r);
        let n = fwd.state_count();
        if n > MAX_STATES {
            return Err(GdxError::limit(format!(
                "NRE compiles to {n} automaton states (> {MAX_STATES}); \
                 demand evaluation falls back to materialization"
            )));
        }
        // `rev(r)` has the same shape as `r`, hence the same state count.
        let (mut bwd, bwd_tests) = Nfa::compile(&r.reversed());
        // One guard list for both directions: forward ids stay, backward
        // ids are renumbered onto it. (Transition order is left as
        // compiled, so exploration order does not change.)
        let renumber: Vec<u32> = bwd_tests
            .into_iter()
            .map(|t| {
                let id = tests.iter().position(|x| *x == t).unwrap_or_else(|| {
                    tests.push(t);
                    tests.len() - 1
                });
                id as u32
            })
            .collect();
        for row in &mut bwd.trans {
            for (action, _) in row {
                if let Action::Guard(gi) = action {
                    *gi = renumber[*gi as usize];
                }
            }
        }
        let guards = tests
            .iter()
            .map(DemandAutomata::compile)
            .collect::<Result<Vec<_>>>()?;
        Ok(Arc::new(DemandAutomata { fwd, bwd, guards }))
    }

    /// A fresh evaluator over these automata: empty memos, zeroed
    /// counters. Nothing is compiled.
    pub fn evaluator(self: &Arc<Self>) -> DemandEvaluator {
        DemandEvaluator {
            automata: Arc::clone(self),
            graph: None,
            frozen: None,
            probes_in_version: 0,
            fwd_images: FxHashMap::default(),
            bwd_images: FxHashMap::default(),
            nonempty: FxHashMap::default(),
            pair_memo: FxHashMap::default(),
            guard_evals: self.guards.iter().map(DemandAutomata::evaluator).collect(),
            stats: DemandStats::default(),
        }
    }
}

/// A memoizing demand evaluator for one NRE: the mutable half of demand
/// evaluation, over shared [`DemandAutomata`].
///
/// Holds per-node memo tables for images, preimages and guard decisions.
/// Memos are pinned to one graph value via
/// [`Graph::id`]; handing the evaluator a different graph (clone,
/// quotient) resets them transparently. Guard predicates recurse into
/// nested [`DemandEvaluator`]s, one per distinct test subexpression.
///
/// ```
/// use gdx_graph::Graph;
/// use gdx_nre::parse::parse_nre;
/// use gdx_nre::demand::DemandEvaluator;
/// let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
/// let mut ev = DemandEvaluator::try_new(&parse_nre("f.f").unwrap()).unwrap();
/// let a = g.node_id(gdx_graph::Node::cst("a")).unwrap();
/// let c = g.node_id(gdx_graph::Node::cst("c")).unwrap();
/// assert_eq!(ev.image(&g, a), &[c]);
/// ```
#[derive(Debug)]
pub struct DemandEvaluator {
    automata: Arc<DemandAutomata>,
    /// The graph *version* the memos are valid for: value identity plus
    /// epoch. Chase engines grow one graph value in place; growth adds
    /// reachable pairs, so memos from an older epoch would under-report.
    graph: Option<(GraphId, gdx_graph::Epoch)>,
    /// CSR snapshot of the pinned graph version: once present, the
    /// product-BFS reads adjacency from here (two array lookups per
    /// step) instead of the mutable graph's hash index. Built **lazily**
    /// on the second BFS within one `(GraphId, Epoch)` version: chase
    /// loops that fire (moving the epoch) after every probe never pay an
    /// O(V+E) snapshot rebuild per firing — they keep reading the
    /// mutable index, exactly as cheaply as before — while read-heavy
    /// phases (certain sweeps, solution checks against a settled graph)
    /// freeze once and amortize it over every subsequent probe. The
    /// snapshot itself is memoized on the graph, so all evaluators
    /// probing one version share a single rebuild.
    frozen: Option<Arc<FrozenGraph>>,
    /// BFS runs since the last version change — the lazy-freeze trigger.
    probes_in_version: u32,
    fwd_images: FxHashMap<NodeId, Vec<NodeId>>,
    bwd_images: FxHashMap<NodeId, Vec<NodeId>>,
    /// Guard-style memo: does *any* node lie in the forward image?
    nonempty: FxHashMap<NodeId, bool>,
    /// Membership-probe memo, keyed by the packed `(u, v)` pair —
    /// target-early-exited runs are not full images, so they memoize here
    /// instead of in `fwd_images`.
    pair_memo: FxHashMap<u64, bool>,
    /// Recursive evaluators for test subexpressions, aligned with
    /// [`DemandAutomata::guards`].
    guard_evals: Vec<DemandEvaluator>,
    stats: DemandStats,
}

/// Product-BFS working memory: visited bits over the dense
/// `(node, state)` product (`node · |states| + state`), accept-output bits
/// over nodes, the FIFO frontier, and the accepted nodes in discovery
/// order. Reset costs are proportional to the previous run's reach
/// ([`ScratchBits::reset`]), so a tiny probe never pays for the universe.
///
/// Scratch is working memory, not evaluator state: each thread keeps a
/// small pool of it (one set per level of guard sub-runs in flight), so
/// the many short-lived evaluators of per-graph caches share warm
/// buffers instead of each growing its own.
#[derive(Default)]
struct BfsScratch {
    visited: ScratchBits,
    out_seen: ScratchBits,
    queue: VecDeque<(NodeId, State)>,
    accepted: Vec<NodeId>,
}

thread_local! {
    static BFS_SCRATCH: RefCell<Vec<BfsScratch>> = const { RefCell::new(Vec::new()) };
}

impl BfsScratch {
    /// A cleared scratch set from this thread's pool (or a new one).
    fn take() -> BfsScratch {
        let mut s = BFS_SCRATCH
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        s.visited.reset();
        s.out_seen.reset();
        s.queue.clear();
        s.accepted.clear();
        s
    }

    /// Returns the set to this thread's pool.
    fn give_back(self) {
        BFS_SCRATCH.with(|pool| pool.borrow_mut().push(self));
    }
}

#[inline]
fn pack(node: NodeId, state: State) -> u64 {
    (u64::from(node) << 32) | u64::from(state)
}

impl DemandEvaluator {
    /// Compiles `r` and returns a fresh evaluator over it — shorthand for
    /// [`DemandAutomata::compile`] + [`DemandAutomata::evaluator`] when
    /// the automata need not be shared.
    pub fn try_new(r: &Nre) -> Result<DemandEvaluator> {
        Ok(DemandAutomata::compile(r)?.evaluator())
    }

    /// Cumulative work counters (survive graph resets).
    pub fn stats(&self) -> DemandStats {
        self.stats
    }

    /// Drops memos when the graph value — or its epoch — changed since
    /// the last call. The frozen snapshot is dropped too but *not*
    /// rebuilt here: [`DemandEvaluator::bfs`] re-freezes only once the
    /// version proves read-heavy (see the `frozen` field docs).
    fn sync(&mut self, graph: &Graph) {
        let version = (graph.id(), graph.epoch());
        if self.graph != Some(version) {
            self.fwd_images.clear();
            self.bwd_images.clear();
            self.nonempty.clear();
            self.pair_memo.clear();
            self.frozen = None;
            self.probes_in_version = 0;
            self.graph = Some(version);
        }
    }

    /// `{v | (u, v) ∈ ⟦r⟧_G}`, memoized per `u`.
    pub fn image(&mut self, graph: &Graph, u: NodeId) -> &[NodeId] {
        self.sync(graph);
        if !self.fwd_images.contains_key(&u) {
            let list = self.bfs(graph, Dir::Fwd, u, BfsStop::Exhaust);
            self.fwd_images.insert(u, list.unwrap_or_default());
        }
        &self.fwd_images[&u]
    }

    /// `{u | (u, v) ∈ ⟦r⟧_G}`, memoized per `v` (backward product run).
    pub fn preimage(&mut self, graph: &Graph, v: NodeId) -> &[NodeId] {
        self.sync(graph);
        if !self.bwd_images.contains_key(&v) {
            let list = self.bfs(graph, Dir::Bwd, v, BfsStop::Exhaust);
            self.bwd_images.insert(v, list.unwrap_or_default());
        }
        &self.bwd_images[&v]
    }

    /// Does `(u, v) ∈ ⟦r⟧_G` hold? Uses whichever memo already exists;
    /// otherwise runs a forward BFS that stops as soon as `v` is reached
    /// in an accepting state — the constant-tuple probe shape never pays
    /// for the full image.
    pub fn contains(&mut self, graph: &Graph, u: NodeId, v: NodeId) -> bool {
        self.sync(graph);
        if let Some(list) = self.fwd_images.get(&u) {
            return list.contains(&v);
        }
        if let Some(list) = self.bwd_images.get(&v) {
            return list.contains(&u);
        }
        let key = pack(u, v);
        if let Some(&b) = self.pair_memo.get(&key) {
            return b;
        }
        match self.bfs(graph, Dir::Fwd, u, BfsStop::Node(v)) {
            None => {
                self.pair_memo.insert(key, true);
                true
            }
            Some(image) => {
                // The target was never reached, so the BFS ran to
                // exhaustion and produced the complete image of `u` —
                // memoize it so further probes from `u` are lookups, not
                // re-runs.
                self.fwd_images.insert(u, image);
                false
            }
        }
    }

    /// Does *some* `v` with `(u, v) ∈ ⟦r⟧_G` exist? Early-exits the BFS
    /// at the first accepting pair; the guard checks of enclosing
    /// evaluators run through this.
    pub fn has_any_successor(&mut self, graph: &Graph, u: NodeId) -> bool {
        self.sync(graph);
        if let Some(list) = self.fwd_images.get(&u) {
            return !list.is_empty();
        }
        if let Some(&b) = self.nonempty.get(&u) {
            return b;
        }
        // An exhausted first-accept run accepted nothing.
        let found = self.bfs(graph, Dir::Fwd, u, BfsStop::FirstAccept).is_none();
        self.nonempty.insert(u, found);
        found
    }

    /// Product BFS from `(src, start-states)` over the graph nodes reached
    /// in an accepting automaton state, stopping early per `stop`. Returns
    /// the complete image when the run exhausted, `None` when `stop` cut
    /// it short (a first accept, or the target node reached).
    ///
    /// Adjacency comes from the frozen CSR snapshot once the graph
    /// version has seen a second BFS (sorted neighbor slices — two array
    /// reads per step; the first run reads the mutable index so
    /// fire-probe-fire chase loops never rebuild snapshots). The working
    /// memory comes from the thread's [`BfsScratch`] pool and goes back
    /// to it afterwards, so a run allocates nothing beyond the image it
    /// returns once the pool is warm — even on a fresh evaluator.
    fn bfs(&mut self, graph: &Graph, dir: Dir, src: NodeId, stop: BfsStop) -> Option<Vec<NodeId>> {
        let automata = Arc::clone(&self.automata);
        let auto = match dir {
            Dir::Fwd => &automata.fwd,
            Dir::Bwd => &automata.bwd,
        };
        self.probes_in_version += 1;
        if self.frozen.is_none() && self.probes_in_version >= 2 {
            self.frozen = Some(graph.freeze());
        }
        let frozen = self.frozen.clone();
        self.stats.bfs_runs += 1;
        let states = auto.trans.len();
        let mut scratch = BfsScratch::take();
        let BfsScratch {
            visited,
            out_seen,
            queue,
            accepted: out,
        } = &mut scratch;
        let mut exhausted = true;
        let idx = |node: NodeId, q: State| node as usize * states + q as usize;
        for &q in &auto.start {
            if visited.insert(idx(src, q)) {
                queue.push_back((src, q));
            }
        }
        // FIFO order matters for the early exits: a breadth-first frontier
        // reaches a target at graph distance d before touching anything at
        // distance d+1, so `FirstAccept`/`Node` probes stay local.
        'run: while let Some((u, q)) = queue.pop_front() {
            self.stats.visited += 1;
            if auto.accept[q as usize] && out_seen.insert(u as usize) {
                out.push(u);
                if match stop {
                    BfsStop::Exhaust => false,
                    BfsStop::FirstAccept => true,
                    BfsStop::Node(t) => u == t,
                } {
                    exhausted = false;
                    break 'run;
                }
            }
            for (action, targets) in &auto.trans[q as usize] {
                match *action {
                    Action::Fwd(a) => {
                        let succ = match &frozen {
                            Some(f) => f.successors(u, a),
                            None => graph.successors(u, a),
                        };
                        for &v in succ {
                            for &q2 in targets {
                                if visited.insert(idx(v, q2)) {
                                    queue.push_back((v, q2));
                                }
                            }
                        }
                    }
                    Action::Bwd(a) => {
                        let pred = match &frozen {
                            Some(f) => f.predecessors(u, a),
                            None => graph.predecessors(u, a),
                        };
                        for &v in pred {
                            for &q2 in targets {
                                if visited.insert(idx(v, q2)) {
                                    queue.push_back((v, q2));
                                }
                            }
                        }
                    }
                    Action::Guard(gi) => {
                        if self.guard_holds(graph, gi, u) {
                            for &q2 in targets {
                                if visited.insert(idx(u, q2)) {
                                    queue.push_back((u, q2));
                                }
                            }
                        }
                    }
                }
            }
        }
        let image = exhausted.then(|| out.clone());
        scratch.give_back();
        image
    }

    /// Decides guard `gi` (a test `[t]`) at node `u` by seeded
    /// sub-evaluation of `t` from exactly `u`, through the nested
    /// evaluator [`DemandAutomata::evaluator`] created with this one.
    fn guard_holds(&mut self, graph: &Graph, gi: u32, u: NodeId) -> bool {
        self.stats.guard_checks += 1;
        let sub = &mut self.guard_evals[gi as usize];
        let before = sub.stats.visited;
        let held = sub.has_any_successor(graph, u);
        // Fold the nested run's work into this evaluator's counters so
        // regression tests see the full cost of a seeded evaluation.
        let delta = sub.stats.visited - before;
        self.stats.visited += delta;
        held
    }
}

/// The demand evaluators of one graph's cache, keyed by NRE — the
/// demand-side companion of the materializing caches
/// ([`crate::eval::EvalCache`], [`crate::incremental::IncrementalCache`]).
///
/// The pool never compiles: an evaluator is created on first use from
/// the [`DemandAutomata`] the caller (a prepared query) compiled once, so
/// the pool holds only memo state for the cache's graph. Atoms sharing an
/// NRE share one evaluator.
///
/// Evaluators sit behind `RefCell` so that several atoms of one query can
/// hold the pool by shared reference while borrowing their (possibly
/// shared) evaluator mutably one probe at a time. The pool is therefore
/// `Send` but not `Sync`: a cache belongs to one thread at a time.
#[derive(Debug, Default)]
pub struct DemandPool {
    evals: FxHashMap<Nre, RefCell<DemandEvaluator>>,
}

impl DemandPool {
    /// An empty pool.
    pub fn new() -> DemandPool {
        DemandPool::default()
    }

    /// Creates the evaluator for `r` from `automata` unless the pool
    /// already holds one (`automata` must be `r`'s compiled form).
    pub fn ensure(&mut self, r: &Nre, automata: &Arc<DemandAutomata>) {
        if !self.evals.contains_key(r) {
            self.evals
                .insert(r.clone(), RefCell::new(automata.evaluator()));
        }
    }

    /// The evaluator for `r`, if [`DemandPool::ensure`] created one.
    pub fn get(&self, r: &Nre) -> Option<&RefCell<DemandEvaluator>> {
        self.evals.get(r)
    }
}

/// `⟦r⟧_G` restricted to the given source nodes: the pairs
/// `{(u, v) | u ∈ sources, (u, v) ∈ ⟦r⟧_G}`, computed by product-BFS from
/// the sources only. Falls back to the materializing evaluator when `r`
/// is outside the supported fragment.
pub fn eval_from(graph: &Graph, r: &Nre, sources: &[NodeId]) -> BinRel {
    match DemandEvaluator::try_new(r) {
        Ok(mut ev) => {
            let mut out = BinRel::new();
            for &u in sources {
                for &v in ev.image(graph, u) {
                    out.insert(u, v);
                }
            }
            out
        }
        Err(_) => {
            let full = eval(graph, r);
            let set: FxHashSet<NodeId> = sources.iter().copied().collect();
            let mut out = BinRel::new();
            for (u, v) in full.iter() {
                if set.contains(&u) {
                    out.insert(u, v);
                }
            }
            out
        }
    }
}

/// `⟦r⟧_G` restricted to the given target nodes: the pairs
/// `{(u, v) | v ∈ targets, (u, v) ∈ ⟦r⟧_G}`, computed by backward
/// product-BFS from the targets only.
pub fn eval_into(graph: &Graph, r: &Nre, targets: &[NodeId]) -> BinRel {
    match DemandEvaluator::try_new(r) {
        Ok(mut ev) => {
            let mut out = BinRel::new();
            for &v in targets {
                for &u in ev.preimage(graph, v) {
                    out.insert(u, v);
                }
            }
            out
        }
        Err(_) => {
            let full = eval(graph, r);
            let set: FxHashSet<NodeId> = targets.iter().copied().collect();
            let mut out = BinRel::new();
            for (u, v) in full.iter() {
                if set.contains(&v) {
                    out.insert(u, v);
                }
            }
            out
        }
    }
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

    fn check_restriction(g: &Graph, expr: &str) {
        let r = parse_nre(expr).unwrap();
        let full = eval(g, &r);
        let all: Vec<NodeId> = g.node_ids().collect();
        for &u in &all {
            let from = eval_from(g, &r, &[u]);
            for (a, b) in full.iter().filter(|&(s, _)| s == u) {
                assert!(from.contains(a, b), "{expr}: missing ({a},{b}) from {u}");
            }
            assert_eq!(
                from.len(),
                full.iter().filter(|&(s, _)| s == u).count(),
                "{expr} from {u}"
            );
            let into = eval_into(g, &r, &[u]);
            assert_eq!(
                into.len(),
                full.iter().filter(|&(_, d)| d == u).count(),
                "{expr} into {u}"
            );
            for (a, b) in into.iter() {
                assert!(full.contains(a, b), "{expr}: spurious ({a},{b}) into {u}");
            }
        }
    }

    #[test]
    fn agrees_with_naive_on_paper_graph() {
        let g = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);")
            .unwrap();
        for expr in [
            "f",
            "f-",
            "f.f",
            "f*",
            "(f+h)*",
            "[h]",
            "f.[h].f-",
            "f.f*.[h].f-.(f-)*",
            "eps",
            "[[h]]",
            "[h-]",
        ] {
            check_restriction(&g, expr);
        }
    }

    #[test]
    fn seeded_run_visits_local_slice_only() {
        // A long f-chain: BFS from the head visits the chain, not |V|².
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..100).map(|i| g.add_const(&format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge_labelled(w[0], "f", w[1]);
        }
        let r = parse_nre("f.f").unwrap();
        let mut ev = DemandEvaluator::try_new(&r).unwrap();
        assert_eq!(ev.image(&g, ids[0]), &[ids[2]]);
        let visited = ev.stats().visited;
        assert!(
            visited <= 16,
            "two-hop probe must stay local, visited {visited}"
        );
    }

    #[test]
    fn memoization_and_graph_reset() {
        let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let r = parse_nre("f*").unwrap();
        let mut ev = DemandEvaluator::try_new(&r).unwrap();
        let a = id(&g, "a");
        let first = ev.image(&g, a).to_vec();
        let runs = ev.stats().bfs_runs;
        let again = ev.image(&g, a).to_vec();
        assert_eq!(first, again);
        assert_eq!(ev.stats().bfs_runs, runs, "memoized: no second run");
        // A clone is a different graph value: memos reset.
        let g2 = g.clone();
        let _ = ev.image(&g2, a);
        assert_eq!(ev.stats().bfs_runs, runs + 1);
    }

    #[test]
    fn in_place_growth_invalidates_memos() {
        // The chase grows one graph value in place; a memo from an older
        // epoch must not under-report the new witnesses.
        let mut g = Graph::parse("(a, f, b);").unwrap();
        let r = parse_nre("f.f").unwrap();
        let mut ev = DemandEvaluator::try_new(&r).unwrap();
        let a = id(&g, "a");
        assert!(ev.image(&g, a).is_empty());
        let b = id(&g, "b");
        let c = g.add_const("c");
        g.add_edge_labelled(b, "f", c);
        assert_eq!(ev.image(&g, a), &[c]);
    }

    #[test]
    fn contains_and_existence_probes() {
        let g = Graph::parse("(a, f, b); (b, h, x);").unwrap();
        let r = parse_nre("f.[h]").unwrap();
        let mut ev = DemandEvaluator::try_new(&r).unwrap();
        assert!(ev.contains(&g, id(&g, "a"), id(&g, "b")));
        assert!(!ev.contains(&g, id(&g, "b"), id(&g, "a")));
        assert!(ev.has_any_successor(&g, id(&g, "a")));
        assert!(!ev.has_any_successor(&g, id(&g, "x")));
    }

    #[test]
    fn contains_early_exits_and_memoizes() {
        // A membership probe must stop at the target, not enumerate the
        // image, and repeated probes must hit the pair memo.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..200).map(|i| g.add_const(&format!("c{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge_labelled(w[0], "f", w[1]);
        }
        let r = parse_nre("f.f*").unwrap();
        let mut ev = DemandEvaluator::try_new(&r).unwrap();
        assert!(ev.contains(&g, ids[0], ids[1]));
        let after_first = ev.stats().visited;
        assert!(
            after_first < 50,
            "probe to an adjacent node explored {after_first} pairs"
        );
        let runs = ev.stats().bfs_runs;
        assert!(ev.contains(&g, ids[0], ids[1]));
        assert_eq!(ev.stats().bfs_runs, runs, "second probe hits the memo");
        assert!(!ev.contains(&g, ids[199], ids[0]), "chain is one-way");
    }

    #[test]
    fn oversized_expression_falls_back() {
        // A balanced concat tree of 2^12 labels compiles to 2^13 states —
        // over the budget; the public entry points must still answer, via
        // the materializing fallback. (Balanced, not left-deep: the naive
        // evaluator recurses by tree depth.)
        fn balanced_concat(depth: u32) -> Nre {
            if depth == 0 {
                Nre::label("f")
            } else {
                Nre::Concat(
                    Box::new(balanced_concat(depth - 1)),
                    Box::new(balanced_concat(depth - 1)),
                )
            }
        }
        let big = balanced_concat(12);
        assert!(DemandEvaluator::try_new(&big).is_err());
        let g = Graph::parse("(a, f, a); (b, g, a);").unwrap();
        let a = id(&g, "a");
        let from = eval_from(&g, &big, &[a]);
        assert_eq!(from.len(), 1, "f^4096 on the self-loop is {{(a,a)}}");
        assert!(from.contains(a, a));
        let into = eval_into(&g, &big, &[a]);
        assert_eq!(into.len(), 1);
        assert!(into.contains(a, a));

        // An oversized expression *inside a nesting test* must surface at
        // construction time too (the outer automaton alone is tiny), so
        // the fallback fires instead of a mid-run guard failure.
        let guarded = Nre::Test(Box::new(big));
        assert!(DemandEvaluator::try_new(&guarded).is_err());
        let from = eval_from(&g, &guarded, &[a]);
        assert_eq!(from.len(), 1, "[f^4096] holds at the self-loop node");
        assert!(from.contains(a, a));
        assert!(eval_into(&g, &guarded, &[a]).contains(a, a));
    }

    #[test]
    fn multi_seed_eval_from() {
        let g = Graph::parse("(a, f, b); (c, f, d); (e, g, a);").unwrap();
        let r = parse_nre("f").unwrap();
        let rel = eval_from(&g, &r, &[id(&g, "a"), id(&g, "c"), id(&g, "e")]);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(id(&g, "a"), id(&g, "b")));
        assert!(rel.contains(id(&g, "c"), id(&g, "d")));
    }

    #[test]
    fn demand_stats_bridge_and_json() {
        let g = Graph::parse("(a, f, b); (b, f, c);").unwrap();
        let mut ev = DemandEvaluator::try_new(&parse_nre("f.f").unwrap()).unwrap();
        let _ = ev.image(&g, id(&g, "a"));
        let stats = ev.stats();
        assert!(stats.bfs_runs >= 1);
        let obs = gdx_obs::Obs::enabled();
        stats.record_into(&obs);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("demand.visited"), stats.visited as u64);
        assert_eq!(reg.counter("demand.bfs_runs"), stats.bfs_runs as u64);
        let json = stats.render_json();
        assert!(json.starts_with("{\"visited\": "), "{json}");
        let zero = stats.delta_since(&stats);
        assert_eq!(zero.visited, 0);
        assert_eq!(zero.bfs_runs, 0);
        assert_eq!(zero.guard_checks, 0);
    }
}
