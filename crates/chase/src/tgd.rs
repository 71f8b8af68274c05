//! Bounded restricted chase for target tgds on concrete graphs.
//!
//! A target tgd `φ_Σ(x̄) → ∃ȳ ψ_Σ(x̄, ȳ)` fires on a body match whose head
//! has no witness; firing materializes the head atoms (shortest witness
//! paths, fresh nulls for `ȳ`). The chase may not terminate in general —
//! callers either verify weak acyclicity first
//! ([`crate::weak_acyclicity`]) or rely on the step bound.
//!
//! # Worklist semantics (semi-naive mode, the default)
//!
//! The engine keeps one persistent [`SemiNaiveState`] per rule (plus an
//! [`IncrementalCache`] for its head) and drives a **worklist of dirty
//! rules** instead of round-robin full scans:
//!
//! 1. every rule starts dirty; popping a rule asks its body state for
//!    [`delta_matches`] — only the body matches that did not exist the
//!    last time this rule was examined (the first call returns all);
//! 2. each new match is head-checked against the *current* graph (the
//!    incremental head cache advances by graph deltas) and fired when
//!    unwitnessed. Firing records the graph epoch around it, so the edges
//!    it produced are known exactly;
//! 3. after a rule's turn, every rule whose body mentions one of the
//!    produced edge labels — or whose body has a nullable atom, when
//!    nodes appeared — is re-marked dirty. Rules never re-examine old
//!    matches: graphs only grow during the tgd chase and heads are
//!    positive, so a witnessed head stays witnessed.
//!
//! The engine is **restartable**: [`TgdChaseEngine::run`] may be called
//! again after other actors (sameAs saturation, the solver's repair loop)
//! mutated the same graph — the per-rule caches survive and only the
//! foreign deltas are re-examined. Replacing the graph value entirely
//! (clone, quotient) is detected via [`Graph::id`] and resets the caches.
//!
//! Naive round-robin evaluation ([`TgdChaseMode::Naive`]) is kept as the
//! reference oracle: the equivalence property test in `tests/` asserts
//! both modes produce homomorphically equivalent results, and the
//! [`ChaseStats`] counters let benches compare evaluation effort.
//!
//! [`SemiNaiveState`]: gdx_query::SemiNaiveState
//! [`delta_matches`]: gdx_query::SemiNaiveState::delta_matches
//! [`IncrementalCache`]: gdx_nre::IncrementalCache

use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol, Term};
use gdx_graph::{Graph, GraphId, Node, NodeId, NullFactory};
use gdx_mapping::TargetTgd;
use gdx_nre::eval::EvalCache;
use gdx_nre::witness;
use gdx_nre::IncrementalCache;
use gdx_obs::Obs;
use gdx_query::{evaluate_seeded_incremental_exists, PreparedQuery, SemiNaiveState};
use gdx_runtime::Threads;

/// Body-evaluation strategy of the target-tgd chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TgdChaseMode {
    /// Delta-driven worklist chase with persistent per-rule caches.
    #[default]
    SemiNaive,
    /// Reference oracle: round-robin, cold full body evaluation per rule
    /// per round (the pre-epoch behaviour).
    Naive,
}

/// Configuration of the target-tgd chase.
#[derive(Debug, Clone, Copy)]
pub struct TgdChaseConfig {
    /// Maximum number of firings before giving up. The budget is
    /// inclusive: a chase that reaches fixpoint in exactly `max_steps`
    /// firings succeeds; only a firing *beyond* the budget trips
    /// [`GdxError::LimitExceeded`]. At `0`, any needed firing trips it,
    /// while an already-satisfied graph still chases to a clean no-op.
    pub max_steps: usize,
    /// Body-evaluation strategy.
    pub mode: TgdChaseMode,
    /// Ignored: the chase runs on the calling thread. The field stays for
    /// source compatibility with callers that set it.
    pub threads: Threads,
}

impl Default for TgdChaseConfig {
    fn default() -> TgdChaseConfig {
        TgdChaseConfig {
            max_steps: 10_000,
            mode: TgdChaseMode::default(),
            threads: Threads::Auto,
        }
    }
}

/// Evaluation-effort counters, for regression tests comparing naive and
/// semi-naive evaluation. `PartialEq` so determinism tests can pin the
/// N-worker counters against the 1-worker run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Tgd firings.
    pub steps: usize,
    /// Rule turns taken (worklist pops / naive rule visits).
    pub turns: usize,
    /// Body match rows examined across all turns. Naive mode re-examines
    /// every match each round; semi-naive examines each match once.
    pub body_rows: usize,
    /// Body evaluations that ran from a cold cache.
    pub full_evals: usize,
    /// Body evaluations answered from a warm per-rule delta state.
    pub delta_evals: usize,
    /// Fresh nulls invented by firings (one per existential variable per
    /// firing).
    pub null_births: usize,
}

impl ChaseStats {
    /// Component-wise difference against an earlier snapshot of the same
    /// cumulative counters (saturating, so a reset engine yields zeros
    /// rather than wrapping).
    pub fn delta_since(&self, earlier: &ChaseStats) -> ChaseStats {
        ChaseStats {
            steps: self.steps.saturating_sub(earlier.steps),
            turns: self.turns.saturating_sub(earlier.turns),
            body_rows: self.body_rows.saturating_sub(earlier.body_rows),
            full_evals: self.full_evals.saturating_sub(earlier.full_evals),
            delta_evals: self.delta_evals.saturating_sub(earlier.delta_evals),
            null_births: self.null_births.saturating_sub(earlier.null_births),
        }
    }

    /// Bridge into the shared registry under the `chase.*` namespace.
    /// Call with a *delta* (see [`ChaseStats::delta_since`]) — registry
    /// counters are cumulative, so recording a cumulative snapshot twice
    /// would double-count.
    pub fn record_into(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.add("chase.firings", self.steps as u64);
        obs.add("chase.turns", self.turns as u64);
        obs.add("chase.body_rows", self.body_rows as u64);
        obs.add("chase.full_evals", self.full_evals as u64);
        obs.add("chase.delta_evals", self.delta_evals as u64);
        obs.add("chase.null_births", self.null_births as u64);
    }

    /// Stable JSON rendering (fixed field order, no dependencies).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"steps\": {}, \"turns\": {}, \"body_rows\": {}, \"full_evals\": {}, \"delta_evals\": {}, \"null_births\": {}}}",
            self.steps, self.turns, self.body_rows, self.full_evals, self.delta_evals, self.null_births
        )
    }
}

/// Output of the target-tgd chase.
#[derive(Debug, Clone)]
pub struct TgdChaseResult {
    /// The chased graph.
    pub graph: Graph,
    /// Number of tgd firings.
    pub steps: usize,
    /// Evaluation-effort counters.
    pub stats: ChaseStats,
}

/// Per-rule persistent state of the semi-naive engine.
#[derive(Debug)]
struct RuleState {
    tgd: TargetTgd,
    /// Delta-driven body matcher (cache + per-atom marks).
    body: SemiNaiveState,
    /// Incremental relations and demand memos for head-satisfaction
    /// checks.
    head: IncrementalCache,
    /// Body and head compiled once per engine: every head check (the
    /// incremental one, naive mode's cold caches) creates its evaluators
    /// from `head_q`'s automata.
    body_q: PreparedQuery,
    head_q: PreparedQuery,
    /// Alphabet symbols of the body NREs: an edge with a foreign label
    /// cannot create a body match.
    symbols: FxHashSet<Symbol>,
    /// Whether some body atom is nullable: only then can a bare node
    /// addition (identity pair) create a body match.
    nullable_atom: bool,
    dirty: bool,
    /// Whether the body state has evaluated at least once (distinguishes
    /// full prime from delta evaluation in the stats).
    primed: bool,
}

impl RuleState {
    fn new(tgd: &TargetTgd) -> RuleState {
        let symbols = tgd.body.symbols();
        let nullable_atom = tgd.body.atoms.iter().any(|a| a.nre.nullable());
        RuleState {
            tgd: tgd.clone(),
            body: SemiNaiveState::new(),
            head: IncrementalCache::new(),
            body_q: PreparedQuery::new(tgd.body.clone()),
            head_q: PreparedQuery::new(tgd.head.clone()),
            symbols,
            nullable_atom,
            dirty: true,
            primed: false,
        }
    }
}

/// A restartable, semi-naive target-tgd chase engine.
///
/// Owns the per-rule caches; [`TgdChaseEngine::run`] chases a graph
/// *in place* to a fixpoint and may be called repeatedly as the graph
/// grows — each call re-examines only what changed since the last one.
#[derive(Debug)]
pub struct TgdChaseEngine {
    cfg: TgdChaseConfig,
    rules: Vec<RuleState>,
    nulls: NullFactory,
    /// The graph value the caches are valid for.
    graph: Option<GraphId>,
    /// Firings charged against `cfg.max_steps`, reset per graph value.
    steps_in_graph: usize,
    stats: ChaseStats,
    /// Observability sink (disabled by default; see
    /// [`TgdChaseEngine::set_obs`]).
    obs: Obs,
}

impl TgdChaseEngine {
    /// An engine for the given rules (rules are fixed per engine).
    pub fn new(tgds: &[TargetTgd], cfg: TgdChaseConfig) -> TgdChaseEngine {
        TgdChaseEngine {
            cfg,
            rules: tgds.iter().map(RuleState::new).collect(),
            nulls: NullFactory::new(),
            graph: None,
            steps_in_graph: 0,
            stats: ChaseStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability sink: each [`TgdChaseEngine::run`] spans
    /// `chase.run`, records its per-turn delta-window sizes into the
    /// `chase.delta_window` histogram, and flushes the run's
    /// [`ChaseStats`] delta into `chase.*` counters. Recording never
    /// changes the chase itself — graph, firing order, null names and
    /// stats stay byte-identical.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Builder form of [`TgdChaseEngine::set_obs`].
    pub fn with_obs(mut self, obs: Obs) -> TgdChaseEngine {
        self.set_obs(obs);
        self
    }

    /// Cumulative evaluation-effort counters (across graphs and
    /// [`TgdChaseEngine::run`] calls).
    pub fn stats(&self) -> ChaseStats {
        self.stats
    }

    /// Chases `graph` in place until every tgd is satisfied or the step
    /// bound trips ([`GdxError::LimitExceeded`]).
    pub fn run(&mut self, graph: &mut Graph) -> Result<()> {
        if self.graph != Some(graph.id()) {
            for rule in &mut self.rules {
                rule.body = SemiNaiveState::new();
                rule.head = IncrementalCache::new();
                rule.primed = false;
            }
            self.nulls = NullFactory::new();
            self.graph = Some(graph.id());
            self.steps_in_graph = 0;
        }
        // Every rule re-enters the worklist: if nothing changed since the
        // last run, its delta is empty and the turn costs O(1).
        for rule in &mut self.rules {
            rule.dirty = true;
        }
        let _span = self
            .obs
            .span_fields("chase.run", &[("rules", self.rules.len() as u64)]);
        let before = self.stats;
        let result = match self.cfg.mode {
            TgdChaseMode::SemiNaive => self.run_semi_naive(graph),
            TgdChaseMode::Naive => self.run_naive(graph),
        };
        // Flush this run's effort delta into the registry at the batch
        // boundary — cumulative counters take deltas, never snapshots.
        self.stats.delta_since(&before).record_into(&self.obs);
        if result.is_err() {
            // An error abandons the current delta batch mid-flight: the
            // per-rule marks have already advanced past matches that were
            // never fired. Drop the binding so a later `run` on this graph
            // resets the caches and re-chases from scratch instead of
            // silently reporting a fixpoint.
            self.graph = None;
        }
        result
    }

    fn run_semi_naive(&mut self, graph: &mut Graph) -> Result<()> {
        // Round-robin over dirty rules (rotating cursor): a self-feeding
        // rule must not starve the others, mirroring the fairness of the
        // naive round-robin oracle.
        let mut cursor = 0usize;
        loop {
            let n = self.rules.len();
            let Some(ri) = (0..n)
                .map(|k| (cursor + k) % n)
                .find(|&i| self.rules[i].dirty)
            else {
                return Ok(());
            };
            cursor = (ri + 1) % n.max(1);
            self.rules[ri].dirty = false;
            self.stats.turns += 1;
            let turn_start = graph.epoch();

            let matches = {
                let rule = &mut self.rules[ri];
                if rule.primed {
                    self.stats.delta_evals += 1;
                } else {
                    self.stats.full_evals += 1;
                    rule.primed = true;
                }
                rule.body.delta_matches(graph, &rule.tgd.body)?
            };
            self.stats.body_rows += matches.len();
            self.obs.observe("chase.delta_window", matches.len() as u64);

            let vars: Vec<Symbol> = matches.vars().to_vec();
            // Each head is checked against the *current* graph: earlier
            // firings in this batch may have produced its witness.
            for row in matches.rows() {
                let m: FxHashMap<Symbol, NodeId> =
                    vars.iter().copied().zip(row.iter().copied()).collect();
                let rule = &mut self.rules[ri];
                if head_witnessed_incremental(graph, rule, &m)? {
                    continue;
                }
                // Budget check precedes the firing: a chase that reaches
                // fixpoint in exactly `max_steps` firings succeeds; only
                // a would-be firing *beyond* the budget trips the limit
                // (at max_steps = 0, any needed firing trips it).
                if self.steps_in_graph >= self.cfg.max_steps {
                    return Err(step_limit(self.cfg.max_steps));
                }
                let births = rule.tgd.existential.len();
                fire(graph, &rule.tgd, &m, &mut self.nulls)?;
                self.stats.steps += 1;
                self.stats.null_births += births;
                self.steps_in_graph += 1;
            }

            // Dirty every rule the turn's new edges/nodes could affect
            // (including this one: its own firings can feed its body).
            let added_labels: FxHashSet<Symbol> =
                graph.edges_since(turn_start).map(|&(_, l, _)| l).collect();
            let nodes_added = graph.epoch().nodes() > turn_start.nodes();
            if !added_labels.is_empty() || nodes_added {
                #[expect(clippy::disallowed_methods, reason = "`any` is order-free")]
                for rule in &mut self.rules {
                    rule.dirty |= rule.symbols.iter().any(|s| added_labels.contains(s))
                        || (nodes_added && rule.nullable_atom);
                }
            }
        }
    }

    fn run_naive(&mut self, graph: &mut Graph) -> Result<()> {
        loop {
            let mut fired_this_round = false;
            for ri in 0..self.rules.len() {
                self.stats.turns += 1;
                self.stats.full_evals += 1;
                // Body matches are computed against the current graph from
                // a cold cache; firing invalidates it, so matches are
                // collected first.
                let matches: Vec<FxHashMap<Symbol, NodeId>> = {
                    let rule = &self.rules[ri];
                    let b = rule.body_q.matches(graph, &mut EvalCache::new())?;
                    let vars: Vec<Symbol> = b.vars().to_vec();
                    b.rows()
                        .map(|row| vars.iter().copied().zip(row.iter().copied()).collect())
                        .collect()
                };
                self.stats.body_rows += matches.len();
                for m in matches {
                    let rule = &self.rules[ri];
                    if head_witnessed(graph, &rule.tgd, &rule.head_q, &m)? {
                        continue;
                    }
                    // Same pre-firing budget check as the semi-naive
                    // loop: exactly-max_steps chases succeed, and the
                    // two modes trip the limit at the same firing count.
                    if self.steps_in_graph >= self.cfg.max_steps {
                        return Err(step_limit(self.cfg.max_steps));
                    }
                    let tgd = &self.rules[ri].tgd;
                    let births = tgd.existential.len();
                    fire(graph, tgd, &m, &mut self.nulls)?;
                    self.stats.steps += 1;
                    self.stats.null_births += births;
                    self.steps_in_graph += 1;
                    fired_this_round = true;
                }
            }
            if !fired_this_round {
                return Ok(());
            }
        }
    }
}

fn step_limit(max_steps: usize) -> GdxError {
    GdxError::limit(format!(
        "target-tgd chase exceeded {max_steps} steps (non-terminating set?)"
    ))
}

/// Runs the restricted chase of `tgds` on a copy of `graph` until every
/// tgd is satisfied or the step bound trips ([`GdxError::LimitExceeded`]).
pub fn chase_target_tgds(
    graph: &Graph,
    tgds: &[TargetTgd],
    cfg: TgdChaseConfig,
) -> Result<TgdChaseResult> {
    let mut g = graph.clone();
    let mut engine = TgdChaseEngine::new(tgds, cfg);
    engine.run(&mut g)?;
    let stats = engine.stats();
    Ok(TgdChaseResult {
        graph: g,
        steps: stats.steps,
        stats,
    })
}

/// Does the head hold under the body match (some assignment of the
/// existential variables)? Naive-mode variant: cold cache per check. The
/// frontier seed bounds the head atoms' endpoints, so the access-path
/// planner answers by seeded product-BFS with an early exit instead of
/// materializing head relations.
fn head_witnessed(
    graph: &Graph,
    tgd: &TargetTgd,
    head_q: &PreparedQuery,
    body_match: &FxHashMap<Symbol, NodeId>,
) -> Result<bool> {
    let mut cache = EvalCache::new();
    let seed = head_seed(tgd, body_match);
    head_q.evaluate_seeded_exists(graph, &mut cache, &seed)
}

/// Incremental variant: the per-rule head cache (materialized relations
/// advanced by graph deltas, plus memoized demand evaluators) persists
/// across checks.
fn head_witnessed_incremental(
    graph: &Graph,
    rule: &mut RuleState,
    body_match: &FxHashMap<Symbol, NodeId>,
) -> Result<bool> {
    let seed = head_seed(&rule.tgd, body_match);
    evaluate_seeded_incremental_exists(graph, &rule.head_q, &mut rule.head, &seed)
}

/// Frontier variables of the head, seeded from the body match.
fn head_seed(tgd: &TargetTgd, body_match: &FxHashMap<Symbol, NodeId>) -> FxHashMap<Symbol, NodeId> {
    tgd.head
        .variables()
        .into_iter()
        .filter_map(|v| body_match.get(&v).map(|&id| (v, id)))
        .collect()
}

/// Materializes the head under the body match, inventing fresh nulls.
fn fire(
    graph: &mut Graph,
    tgd: &TargetTgd,
    body_match: &FxHashMap<Symbol, NodeId>,
    nulls: &mut NullFactory,
) -> Result<()> {
    let mut fresh: FxHashMap<Symbol, NodeId> = FxHashMap::default();
    for &y in &tgd.existential {
        fresh.insert(y, nulls.fresh_in(graph));
    }
    let resolve = |g: &mut Graph, t: &Term, fresh: &FxHashMap<Symbol, NodeId>| -> Result<NodeId> {
        match t {
            Term::Const(c) => Ok(g.add_node(Node::Const(*c))),
            Term::Var(v) => fresh
                .get(v)
                .or_else(|| body_match.get(v))
                .copied()
                .ok_or_else(|| GdxError::schema(format!("unbound head variable {v}"))),
        }
    };
    for atom in &tgd.head.atoms {
        let s = resolve(graph, &atom.left, &fresh)?;
        let d = resolve(graph, &atom.right, &fresh)?;
        let w = witness::shortest(&atom.nre);
        if w.main_len() == 0 && s != d {
            let w2 = witness::shortest_nonempty(&atom.nre).ok_or_else(|| {
                GdxError::unsupported("target tgd head atom with ε-only NRE between distinct nodes")
            })?;
            witness::materialize(graph, &w2, s, d)?;
        } else {
            witness::materialize(graph, &w, s, d)?;
        }
    }
    Ok(())
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

    fn both_modes() -> [TgdChaseConfig; 2] {
        [
            TgdChaseConfig::default(),
            TgdChaseConfig {
                mode: TgdChaseMode::Naive,
                ..TgdChaseConfig::default()
            },
        ]
    }

    #[test]
    fn satisfied_tgd_does_not_fire() {
        let g = Graph::parse("(a, f, b); (b, g, c);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z)");
        for cfg in both_modes() {
            let out = chase_target_tgds(&g, std::slice::from_ref(&t), cfg).unwrap();
            assert_eq!(out.steps, 0);
            assert_eq!(out.graph.edge_count(), 2);
        }
    }

    #[test]
    fn unsatisfied_tgd_fires_once() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z)");
        for cfg in both_modes() {
            let out = chase_target_tgds(&g, std::slice::from_ref(&t), cfg).unwrap();
            assert_eq!(out.steps, 1);
            assert_eq!(out.graph.edge_count(), 2);
            assert_eq!(out.graph.node_count(), 3);
        }
    }

    #[test]
    fn cascading_fires_terminate_when_acyclic() {
        // f-edge demands g-edge; g-edge demands h-edge.
        let g = Graph::parse("(a, f, b);").unwrap();
        let ts = [
            tgd("(x, f, y)", &["z"], "(y, g, z)"),
            tgd("(x, g, y)", &["w"], "(y, h0, w)"),
        ];
        for cfg in both_modes() {
            let out = chase_target_tgds(&g, &ts, cfg).unwrap();
            assert_eq!(out.steps, 2);
            assert_eq!(out.graph.edge_count(), 3);
        }
    }

    #[test]
    fn non_terminating_set_hits_bound() {
        // Every f-edge demands another f-edge: infinite chase.
        let g = Graph::parse("(a, f, b);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, f, z)");
        for mode in [TgdChaseMode::SemiNaive, TgdChaseMode::Naive] {
            let err = chase_target_tgds(
                &g,
                std::slice::from_ref(&t),
                TgdChaseConfig {
                    max_steps: 50,
                    mode,
                    ..TgdChaseConfig::default()
                },
            );
            assert!(matches!(err, Err(GdxError::LimitExceeded(_))));
        }
    }

    #[test]
    fn exactly_max_steps_firings_succeed() {
        // Three f-edges each demand one g-edge: the chase reaches
        // fixpoint in exactly 3 firings. A budget of exactly 3 must
        // succeed in both modes; a budget of 2 must trip, and a budget
        // of 0 trips on the first needed firing.
        let g = Graph::parse("(a, f, b); (c, f, d); (e, f, q);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z)");
        for mode in [TgdChaseMode::SemiNaive, TgdChaseMode::Naive] {
            let cfg = |max_steps| TgdChaseConfig {
                max_steps,
                mode,
                ..TgdChaseConfig::default()
            };
            let out = chase_target_tgds(&g, std::slice::from_ref(&t), cfg(3)).unwrap();
            assert_eq!(out.steps, 3, "{mode:?}");
            for budget in [0, 2] {
                assert!(
                    matches!(
                        chase_target_tgds(&g, std::slice::from_ref(&t), cfg(budget)),
                        Err(GdxError::LimitExceeded(_))
                    ),
                    "{mode:?} with budget {budget}"
                );
            }
            // An already-satisfied graph needs no firings: even a zero
            // budget succeeds.
            let done = chase_target_tgds(&out.graph, std::slice::from_ref(&t), cfg(0)).unwrap();
            assert_eq!(done.steps, 0, "{mode:?}");
        }
    }

    #[test]
    fn existential_reuse_within_head() {
        // One fresh z shared by two head atoms.
        let g = Graph::parse("(a, f, b);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z), (z, g, x)");
        for cfg in both_modes() {
            let out = chase_target_tgds(&g, std::slice::from_ref(&t), cfg).unwrap();
            assert_eq!(out.steps, 1);
            assert_eq!(out.graph.node_count(), 3);
            assert_eq!(out.graph.edge_count(), 3);
        }
    }

    #[test]
    fn nre_heads_materialize_witnesses() {
        // Head demands y -g·g→ x: two edges through a fresh null.
        let g = Graph::parse("(a, f, b);").unwrap();
        let t = tgd("(x, f, y)", &[], "(y, g.g, x)");
        let out = chase_target_tgds(&g, &[t], TgdChaseConfig::default()).unwrap();
        assert_eq!(out.steps, 1);
        assert_eq!(out.graph.edge_count(), 3);
        // The demand is now satisfied; chasing again is a no-op.
        let again = chase_target_tgds(
            &out.graph,
            &[tgd("(x, f, y)", &[], "(y, g.g, x)")],
            TgdChaseConfig::default(),
        )
        .unwrap();
        assert_eq!(again.steps, 0);
    }

    #[test]
    fn star_heads_satisfied_by_zero_steps() {
        // (y, f*, x) with y≠x needs a path; shortest non-empty is one f.
        let g = Graph::parse("(a, f, b);").unwrap();
        let t = tgd("(x, f, y)", &[], "(y, f*, x)");
        let out = chase_target_tgds(&g, &[t], TgdChaseConfig::default()).unwrap();
        assert_eq!(out.steps, 1);
        let a = out.graph.node_id(Node::cst("a")).unwrap();
        let b = out.graph.node_id(Node::cst("b")).unwrap();
        assert!(gdx_nre::eval::holds(
            &out.graph,
            &gdx_nre::parse::parse_nre("f*").unwrap(),
            b,
            a
        ));
    }

    #[test]
    fn engine_restarts_preserve_caches_and_consume_foreign_deltas() {
        // Run to fixpoint, mutate the graph from outside, run again: the
        // engine picks up exactly the foreign delta and its consequences.
        let mut g = Graph::parse("(a, f, b);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z)");
        let mut engine = TgdChaseEngine::new(std::slice::from_ref(&t), TgdChaseConfig::default());
        engine.run(&mut g).unwrap();
        assert_eq!(engine.stats().steps, 1);
        let full_evals_after_first = engine.stats().full_evals;

        let c = g.add_const("c");
        let a = g.node_id(Node::cst("a")).unwrap();
        g.add_edge_labelled(c, "f", a);
        engine.run(&mut g).unwrap();
        assert_eq!(engine.stats().steps, 2, "one firing for the new f-edge");
        assert_eq!(
            engine.stats().full_evals,
            full_evals_after_first,
            "restart must reuse the per-rule cache, not re-prime it"
        );
    }

    #[test]
    fn engine_resets_after_step_limit_error() {
        // Hitting the step bound abandons a delta batch mid-flight; the
        // engine must not treat that graph as chased afterwards.
        let mut g = Graph::parse("(a, f, b); (c, f, d); (e, f, q);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z)");
        let mut engine = TgdChaseEngine::new(
            std::slice::from_ref(&t),
            TgdChaseConfig {
                max_steps: 2,
                ..TgdChaseConfig::default()
            },
        );
        assert!(matches!(
            engine.run(&mut g),
            Err(GdxError::LimitExceeded(_))
        ));
        // A budget-raised rerun on the same graph must re-chase from
        // scratch, not report a silent fixpoint over the lost matches.
        engine.cfg.max_steps = 100;
        engine.run(&mut g).unwrap();
        for name in ["b", "d", "q"] {
            let id = g.node_id(Node::cst(name)).unwrap();
            assert_eq!(
                g.successors(id, gdx_common::Symbol::new("g")).len(),
                1,
                "{name} must have its g-successor"
            );
        }
        // 2 fires before the trip; the rerun re-evaluates everything but
        // only the one unwitnessed match still fires.
        assert_eq!(engine.stats().steps, 3);
    }

    #[test]
    fn engine_resets_on_graph_replacement() {
        let g = Graph::parse("(a, f, b);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z)");
        let mut engine = TgdChaseEngine::new(std::slice::from_ref(&t), TgdChaseConfig::default());
        let mut g1 = g.clone();
        engine.run(&mut g1).unwrap();
        assert_eq!(engine.stats().steps, 1);
        // A clone is a different graph value: the engine restarts cleanly
        // and chases it from scratch.
        let mut g2 = g.clone();
        engine.run(&mut g2).unwrap();
        assert_eq!(engine.stats().steps, 2);
        assert_eq!(g2.edge_count(), 2);
    }

    #[test]
    fn obs_recording_matches_stats_and_never_perturbs_the_chase() {
        let g = Graph::parse("(a, f, b); (c, f, d);").unwrap();
        let t = tgd("(x, f, y)", &["z"], "(y, g, z)");
        let obs = Obs::enabled();
        let mut observed = g.clone();
        let mut engine = TgdChaseEngine::new(std::slice::from_ref(&t), TgdChaseConfig::default())
            .with_obs(obs.clone());
        engine.run(&mut observed).unwrap();

        let reg = obs.registry().unwrap();
        let stats = engine.stats();
        assert_eq!(reg.counter("chase.firings"), stats.steps as u64);
        assert_eq!(reg.counter("chase.turns"), stats.turns as u64);
        assert_eq!(reg.counter("chase.null_births"), stats.null_births as u64);
        assert_eq!(stats.null_births, 2, "one fresh z per firing");
        let trace = obs.render_trace(16);
        assert!(trace.contains("enter chase.run rules=1"), "{trace}");
        assert!(trace.contains("exit chase.run"), "{trace}");

        // The identical chase with recording disabled: same graph, same
        // counters.
        let mut plain_graph = g.clone();
        let mut plain = TgdChaseEngine::new(std::slice::from_ref(&t), TgdChaseConfig::default());
        plain.run(&mut plain_graph).unwrap();
        assert_eq!(plain.stats(), stats);
        assert_eq!(plain_graph.edge_count(), observed.edge_count());
        assert_eq!(plain_graph.node_count(), observed.node_count());
    }

    #[test]
    fn chase_stats_json_is_stable() {
        let stats = ChaseStats {
            steps: 1,
            turns: 2,
            body_rows: 3,
            full_evals: 4,
            delta_evals: 5,
            null_births: 6,
        };
        assert_eq!(
            stats.render_json(),
            "{\"steps\": 1, \"turns\": 2, \"body_rows\": 3, \"full_evals\": 4, \"delta_evals\": 5, \"null_births\": 6}"
        );
        let earlier = ChaseStats {
            steps: 1,
            ..ChaseStats::default()
        };
        assert_eq!(stats.delta_since(&earlier).steps, 0);
        assert_eq!(stats.delta_since(&earlier).turns, 2);
    }

    #[test]
    fn semi_naive_examines_fewer_rows_on_chains() {
        // A chain of k rules forces k naive rounds, each re-evaluating
        // every body; the semi-naive engine touches each match once.
        let g = Graph::parse("(a, l0, b); (b, l0, c); (c, l0, d);").unwrap();
        let ts: Vec<TargetTgd> = (0..4)
            .map(|i| {
                tgd(
                    &format!("(x, l{i}, y)"),
                    &["z"],
                    &format!("(y, l{}, z)", i + 1),
                )
            })
            .collect();
        let semi = chase_target_tgds(&g, &ts, TgdChaseConfig::default()).unwrap();
        let naive = chase_target_tgds(
            &g,
            &ts,
            TgdChaseConfig {
                mode: TgdChaseMode::Naive,
                ..TgdChaseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(semi.steps, naive.steps);
        assert!(
            naive.stats.body_rows >= 2 * semi.stats.body_rows,
            "expected ≥2× fewer rows examined: naive {} vs semi-naive {}",
            naive.stats.body_rows,
            semi.stats.body_rows
        );
    }
}
