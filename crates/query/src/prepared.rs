//! Prepared CNRE queries: parse, validate, and compile once — evaluate
//! many times, from any number of threads.
//!
//! The paper's workloads ask the same CNREs over and over — constraint
//! bodies per chase round, certain-answer probes per solution graph — so
//! [`PreparedQuery`] hoists everything that depends only on the *query*
//! into construction:
//!
//! * the query text is parsed and validated once ([`PreparedQuery::parse`]);
//! * every atom's NRE is compiled into its guarded demand automata up
//!   front ([`gdx_nre::DemandAutomata`]); atoms outside the demand
//!   fragment are remembered as materialize-only, so planning never
//!   re-attempts compilation;
//! * the variable list (the output schema) is computed once.
//!
//! # Where evaluation state lives
//!
//! One rule, for every caller at every worker count: **compiled automata
//! live in the query, memo state lives in the graph's cache.** A prepared
//! query is immutable (`Send + Sync`), so one instance can be probed from
//! every worker of a parallel region at once. Everything an evaluation
//! mutates — materialized relations, and the demand evaluators with their
//! per-node memos, bitsets and BFS frontier — lives in the caller's
//! per-graph [`EvalCache`] (or [`IncrementalCache`]). A cache creates an
//! atom's evaluator from the query's compiled automata on first use, so
//! nothing compiles on the evaluation path, and a cache has one owner at
//! a time.
//!
//! The query does own one piece of shared state: counters crediting the
//! demand work done on its behalf ([`PreparedQuery::demand_stats`]),
//! summed over every cache and thread that evaluated it.
//!
//! ```
//! use gdx_graph::Graph;
//! use gdx_nre::eval::EvalCache;
//! use gdx_query::PreparedQuery;
//!
//! let q = PreparedQuery::parse("(\"c1\", f.f, \"c2\")").unwrap();
//! let g1 = Graph::parse("(c1, f, _N); (_N, f, c2);").unwrap();
//! let g2 = Graph::parse("(c1, f, c2);").unwrap();
//! // One compiled query, probed against two different graphs.
//! assert!(q.evaluate_exists(&g1).unwrap());
//! assert!(!q.evaluate_exists(&g2).unwrap());
//! // Callers with a cache keep relations and memos warm across calls.
//! let mut cache = EvalCache::new();
//! let rows = q.matches(&g1, &mut cache).unwrap();
//! assert_eq!(rows.len(), 1, "Boolean query: one empty witness row");
//! ```
//!
//! [`IncrementalCache`]: gdx_nre::IncrementalCache

use crate::cnre::Cnre;
use crate::eval::{planned_eval, NodeBindings, RelCache};
use crate::plan::PlannerMode;
use gdx_common::{FxHashMap, Result, Symbol, Term};
use gdx_graph::{Graph, NodeId};
use gdx_nre::eval::EvalCache;
use gdx_nre::{DemandAutomata, DemandStats, Nre};
use gdx_runtime::Runtime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A parsed, validated CNRE with pre-compiled demand automata and its
/// output schema — reusable across graphs, epochs and threads.
///
/// Construct once per query shape (per constraint body, per user query),
/// then call the evaluation methods freely; see the [module docs](self)
/// for what is hoisted into construction and where evaluation state
/// lives.
#[derive(Debug)]
pub struct PreparedQuery {
    query: Cnre,
    vars: Vec<Symbol>,
    /// Per atom, its compiled demand side; `None` outside the demand
    /// fragment (the atom always materializes).
    compiled: Vec<Option<CompiledAtom>>,
}

/// One atom's compiled demand side: the automata every cache creates the
/// atom's evaluator from, and the counters that evaluator's work is
/// credited to. Atoms sharing an NRE share both (and one evaluator per
/// cache).
#[derive(Debug, Clone)]
pub(crate) struct CompiledAtom {
    pub(crate) automata: Arc<DemandAutomata>,
    pub(crate) credit: Arc<DemandCredit>,
}

// The query is shared by reference across runtime workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedQuery>();
};

/// Cumulative [`DemandStats`] credited to one atom NRE of a query.
#[derive(Debug, Default)]
pub(crate) struct DemandCredit {
    visited: AtomicUsize,
    bfs_runs: AtomicUsize,
    guard_checks: AtomicUsize,
}

impl DemandCredit {
    pub(crate) fn add(&self, d: DemandStats) {
        self.visited.fetch_add(d.visited, Ordering::Relaxed);
        self.bfs_runs.fetch_add(d.bfs_runs, Ordering::Relaxed);
        self.guard_checks
            .fetch_add(d.guard_checks, Ordering::Relaxed);
    }

    fn load(&self) -> DemandStats {
        DemandStats {
            visited: self.visited.load(Ordering::Relaxed),
            bfs_runs: self.bfs_runs.load(Ordering::Relaxed),
            guard_checks: self.guard_checks.load(Ordering::Relaxed),
        }
    }
}

impl PreparedQuery {
    /// Prepares a query from its text form, validating it first.
    ///
    /// ```
    /// use gdx_query::PreparedQuery;
    /// let q = PreparedQuery::parse("(x, f.f*, y), (y, h, \"hx\")").unwrap();
    /// assert_eq!(q.variables().len(), 2);
    /// assert!(PreparedQuery::parse("(x, , y)").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<PreparedQuery> {
        let query = Cnre::parse(text)?;
        query.validate(None)?;
        Ok(PreparedQuery::new(query))
    }

    /// Prepares an already-built query. Compilation cannot fail (atoms
    /// outside the demand fragment simply materialize); shape validation
    /// happens on evaluation.
    pub fn new(query: Cnre) -> PreparedQuery {
        let vars = query.variables();
        let mut compiled: Vec<Option<CompiledAtom>> = Vec::new();
        for (i, atom) in query.atoms.iter().enumerate() {
            let c = match query.atoms[..i].iter().position(|a| a.nre == atom.nre) {
                Some(j) => compiled[j].clone(),
                None => DemandAutomata::compile(&atom.nre)
                    .ok()
                    .map(|automata| CompiledAtom {
                        automata,
                        credit: Arc::default(),
                    }),
            };
            compiled.push(c);
        }
        PreparedQuery {
            query,
            vars,
            compiled,
        }
    }

    /// Prepares the single-atom query `(left, r, right)` — the shape of
    /// the paper's query answering problem.
    pub fn single(left: Term, nre: Nre, right: Term) -> PreparedQuery {
        PreparedQuery::new(Cnre::single(left, nre, right))
    }

    /// The underlying query.
    pub fn cnre(&self) -> &Cnre {
        &self.query
    }

    /// Output schema: distinct variables in first-occurrence order.
    pub fn variables(&self) -> &[Symbol] {
        &self.vars
    }

    /// Evaluates over `graph` with a private, throwaway cache. Callers
    /// issuing several calls against one graph should use
    /// [`PreparedQuery::matches`] with a shared [`EvalCache`].
    pub fn evaluate(&self, graph: &Graph) -> Result<NodeBindings> {
        self.matches(graph, &mut EvalCache::new())
    }

    /// Is the query satisfiable over `graph`? Early-exits at the first
    /// answer row; with a constants-only query this is the certain-answer
    /// probe shape, served by seeded product-BFS.
    pub fn evaluate_exists(&self, graph: &Graph) -> Result<bool> {
        self.evaluate_seeded_exists(graph, &mut EvalCache::new(), &FxHashMap::default())
    }

    /// All matches over `graph`, with materialized relations and demand
    /// memos drawn from (and left in) `cache` for reuse across calls on
    /// the same graph.
    pub fn matches(&self, graph: &Graph, cache: &mut EvalCache) -> Result<NodeBindings> {
        self.evaluate_seeded(graph, cache, &FxHashMap::default())
    }

    /// Evaluates with some variables pre-bound to graph nodes — the tgd
    /// head-satisfaction shape (frontier variables seeded, existential
    /// variables free). Seeded variables appear in the output columns with
    /// their fixed values.
    pub fn evaluate_seeded(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
    ) -> Result<NodeBindings> {
        self.evaluate_limited(graph, cache, seed, PlannerMode::Auto, None)
    }

    /// [`PreparedQuery::evaluate_seeded`] with an explicit planner mode —
    /// [`PlannerMode::Materialize`] forces the single-strategy baseline
    /// the benches and equivalence tests compare against.
    pub fn evaluate_seeded_mode(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
    ) -> Result<NodeBindings> {
        self.evaluate_limited(graph, cache, seed, mode, None)
    }

    /// Existence probe under a seed: early-exits at the first satisfying
    /// row.
    pub fn evaluate_seeded_exists(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
    ) -> Result<bool> {
        Ok(!self
            .evaluate_limited(graph, cache, seed, PlannerMode::Auto, Some(1))?
            .is_empty())
    }

    /// Explains the plan evaluation would use over `graph` with no seed:
    /// the per-atom access-path decisions and the cost estimates behind
    /// them, in join order. Shares the planner's loop, so the answer can
    /// never drift from what [`PreparedQuery::evaluate`] actually does.
    pub fn explain(&self, graph: &Graph, mode: PlannerMode) -> crate::explain::PlanExplain {
        crate::explain::explain_query(graph, &self.query, &Default::default(), mode)
    }

    /// Demand-evaluator work done on behalf of this query for the atom
    /// NRE `r`, summed over every cache and worker that evaluated it;
    /// `None` when `r` is not an atom of this query in the demand
    /// fragment — observability for tests, benches and the session's
    /// `demand.*` counters.
    pub fn demand_stats(&self, r: &Nre) -> Option<gdx_nre::DemandStats> {
        self.query
            .atoms
            .iter()
            .zip(&self.compiled)
            .find_map(|(a, c)| c.as_ref().filter(|_| a.nre == *r))
            .map(|c| c.credit.load())
    }

    /// The full-control entry point: planner mode and an answer-row cap
    /// (`limit`) in one call — the shape session-level `Options` map onto.
    pub fn evaluate_limited(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
        limit: Option<usize>,
    ) -> Result<NodeBindings> {
        self.eval_in(graph, cache, seed, mode, limit)
    }

    /// [`PreparedQuery::evaluate_limited`]: runs on the calling thread and
    /// ignores `rt`. It stays for source compatibility; to evaluate
    /// several solution graphs at once, call
    /// [`PreparedQuery::evaluate_limited`] from one worker per graph, each
    /// with that graph's own cache — the query itself is shared.
    pub fn evaluate_limited_rt(
        &self,
        graph: &Graph,
        cache: &mut EvalCache,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
        limit: Option<usize>,
        _rt: &Runtime,
    ) -> Result<NodeBindings> {
        self.evaluate_limited(graph, cache, seed, mode, limit)
    }

    /// Planned evaluation against any per-graph cache.
    pub(crate) fn eval_in<C: RelCache>(
        &self,
        graph: &Graph,
        cache: &mut C,
        seed: &FxHashMap<Symbol, NodeId>,
        mode: PlannerMode,
        limit: Option<usize>,
    ) -> Result<NodeBindings> {
        planned_eval(graph, &self.query, &self.compiled, cache, seed, mode, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_common::FxHashSet;
    use gdx_graph::Node;

    fn g1() -> Graph {
        Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);").unwrap()
    }

    fn row_set(b: &NodeBindings) -> FxHashSet<Vec<NodeId>> {
        b.rows().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn prepared_agrees_with_materialize_baseline_across_shapes() {
        let g = g1();
        for text in [
            "(x, h, y)",
            "(x1, f.f*.[h].f-.(f-)*, x2)",
            "(x, f, y), (y, h, \"hx\")",
            "(\"c1\", f.f, \"c2\")",
        ] {
            let q = PreparedQuery::parse(text).unwrap();
            let baseline = q
                .evaluate_seeded_mode(
                    &g,
                    &mut EvalCache::new(),
                    &FxHashMap::default(),
                    PlannerMode::Materialize,
                )
                .unwrap();
            assert_eq!(
                row_set(&q.evaluate(&g).unwrap()),
                row_set(&baseline),
                "{text}"
            );
            assert_eq!(
                q.evaluate_exists(&g).unwrap(),
                !baseline.is_empty(),
                "{text}"
            );
        }
    }

    #[test]
    fn demand_work_is_credited_across_caches_and_threads() {
        // The compiled automata are shared; each cache grows its own
        // evaluator, and every evaluation credits its work to the query.
        let q = PreparedQuery::parse("(\"c1\", f.f, \"c2\")").unwrap();
        let r = gdx_nre::parse::parse_nre("f.f").unwrap();
        assert_eq!(q.demand_stats(&r).unwrap().visited, 0);
        let g = g1();
        // A graph big enough for the planner to pick the demand path.
        let mut big = g.clone();
        for i in 0..200 {
            let a = big.add_const(&format!("a{i}"));
            let b = big.add_const(&format!("b{i}"));
            big.add_edge_labelled(a, "f", b);
        }
        let mut one = EvalCache::new();
        assert!(q
            .evaluate_seeded_exists(&big, &mut one, &FxHashMap::default())
            .unwrap());
        let single = q.demand_stats(&r).unwrap();
        assert!(single.visited > 0, "the probe took the demand path");
        // The same probe on four fresh caches from four threads.
        #[expect(
            clippy::disallowed_methods,
            reason = "the test probes from raw threads on purpose"
        )]
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut cache = EvalCache::new();
                    assert!(q
                        .evaluate_seeded_exists(&big, &mut cache, &FxHashMap::default())
                        .unwrap());
                });
            }
        });
        assert_eq!(q.demand_stats(&r).unwrap().visited, 5 * single.visited);
        // A warm cache answers from its memo: no new work.
        assert!(q
            .evaluate_seeded_exists(&big, &mut one, &FxHashMap::default())
            .unwrap());
        assert_eq!(q.demand_stats(&r).unwrap().visited, 5 * single.visited);
        // NREs that are not atoms of the query report nothing.
        assert!(q
            .demand_stats(&gdx_nre::parse::parse_nre("h").unwrap())
            .is_none());
    }

    #[test]
    fn one_prepared_query_serves_many_graphs() {
        let q = PreparedQuery::parse("(x, f, y), (y, h, z)").unwrap();
        let with = g1();
        let without = Graph::parse("(a, f, b);").unwrap();
        assert_eq!(q.evaluate(&with).unwrap().len(), 4);
        assert!(q.evaluate(&without).unwrap().is_empty());
        // …and the same graph again after it grew (epoch advance).
        let mut grown = without;
        let b = grown.node_id(Node::cst("b")).unwrap();
        let p = grown.add_const("p");
        grown.add_edge_labelled(b, "h", p);
        assert_eq!(q.evaluate(&grown).unwrap().len(), 1);
    }

    #[test]
    fn seeded_and_mode_variants_agree() {
        let g = g1();
        let q = PreparedQuery::parse("(x, f, y), (y, h, z)").unwrap();
        let c1 = g.node_id(Node::cst("c1")).unwrap();
        let mut seed = FxHashMap::default();
        seed.insert(Symbol::new("x"), c1);
        let mut cache = EvalCache::new();
        let auto = q.evaluate_seeded(&g, &mut cache, &seed).unwrap();
        let mut cache2 = EvalCache::new();
        let mat = q
            .evaluate_seeded_mode(&g, &mut cache2, &seed, PlannerMode::Materialize)
            .unwrap();
        assert_eq!(row_set(&auto), row_set(&mat));
        assert_eq!(auto.len(), 2);
        let mut cache3 = EvalCache::new();
        assert!(q.evaluate_seeded_exists(&g, &mut cache3, &seed).unwrap());
    }

    #[test]
    fn limit_caps_answer_rows() {
        let g = g1();
        let q = PreparedQuery::parse("(x, h, y)").unwrap();
        let mut cache = EvalCache::new();
        let capped = q
            .evaluate_limited(
                &g,
                &mut cache,
                &FxHashMap::default(),
                PlannerMode::Auto,
                Some(1),
            )
            .unwrap();
        assert_eq!(capped.len(), 1);
        assert_eq!(q.matches(&g, &mut cache).unwrap().len(), 2);
    }

    #[test]
    fn parse_validates_eagerly() {
        assert!(PreparedQuery::parse("(x, f y)").is_err());
        assert!(PreparedQuery::parse("").is_err());
    }

    #[test]
    fn single_matches_paper_shape() {
        let q = PreparedQuery::single(
            Term::cst("c1"),
            gdx_nre::parse::parse_nre("f.f").unwrap(),
            Term::cst("c2"),
        );
        assert!(q.evaluate_exists(&g1()).unwrap());
        assert!(q.variables().is_empty());
    }
}
