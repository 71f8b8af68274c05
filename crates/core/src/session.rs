//! The stateful exchange session: build expensive artifacts once, answer
//! many questions.
//!
//! The paper's workloads are multi-shot — chase one universal
//! representative, then answer many certain-answer queries against it;
//! enumerate solutions lazily until a witness suffices. [`ExchangeSession`]
//! is the surface for that shape: it owns a setting and an instance and
//! lazily computes and memoizes
//!
//! * the chased **universal representative** (s-t chase + adapted egd
//!   chase) — [`ExchangeSession::representative`] — and the entailment
//!   index of its certain-answer lower bound;
//! * the verified **minimal-solution family** (the counterexample pool of
//!   every certain-answer decision) plus one materialization cache per
//!   solution graph — filled by draining
//!   [`ExchangeSession::solutions`] — and, per solution graph and query
//!   NRE, the constant-pair bit matrix of single-atom queries;
//! * the **SAT encoding** of existence for the restricted fragment —
//!   [`ExchangeSession::solution_exists_sat`];
//! * the **chase engines** (sameAs saturator, target-tgd engine), the
//!   compiled egd repairer, and the compiled solution checker, which
//!   persist across candidates *and* across calls.
//!
//! Everything observes the session's [`Options`] — chase bounds, planner
//! mode, caps, null seed. Replacing the options
//! ([`ExchangeSession::set_options`]) invalidates every memoized artifact;
//! nothing else does (the setting and instance are immutable once the
//! session is built).
//!
//! ```
//! use gdx_exchange::ExchangeSession;
//! use gdx_mapping::Setting;
//! use gdx_query::PreparedQuery;
//! use gdx_relational::Instance;
//!
//! let mut session = ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2());
//! // Existence stops at the first verified witness…
//! assert!(session.solution_exists().unwrap().exists());
//! // …and certain-answer queries share the memoized solution family.
//! let q = PreparedQuery::parse("(\"c1\", f.f*, \"c2\")").unwrap();
//! assert!(session.certain(&q).unwrap().is_certain());
//! let q2 = PreparedQuery::parse("(\"c2\", f, \"c1\")").unwrap();
//! assert!(!session.certain(&q2).unwrap().is_certain());
//! ```

use crate::certain::CertainAnswer;
use crate::encode::{self, Encoding};
use crate::exists::{exact_fragment, EgdRepairer, Existence};
use crate::options::Options;
use crate::representative::{LowerBoundIndex, RepresentativeOutcome, UniversalRepresentative};
use crate::solution::{SolutionChecker, StTriggers};
use gdx_chase::{
    chase_egds_on_pattern_obs, chase_st_with_nulls, ChaseStats, EgdChaseOutcome, SameAsEngine,
    StChaseVariant, TgdChaseEngine,
};
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol, Term};
use gdx_graph::{Graph, GraphId, Node, NullFactory};
use gdx_mapping::{Egd, SameAs, Setting, TargetTgd};
use gdx_nre::eval::EvalCache;
use gdx_nre::{DemandStats, Nre};
use gdx_obs::Obs;
use gdx_pattern::InstantiationFamily;
use gdx_query::{ConstantPairs, ConstantRows, PlannerMode, PreparedQuery};
use gdx_relational::Instance;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A stateful exchange session over one `(setting, instance)` pair.
///
/// See the [module docs](self) for what is memoized and when it is
/// invalidated. All methods take `&mut self`: they may fill memos or
/// advance engine caches. Results are value types — clone them out if the
/// borrow gets in the way.
pub struct ExchangeSession {
    setting: Setting,
    instance: Instance,
    options: Options,
    // Split views of the setting, computed once.
    egds: Vec<Egd>,
    same_as: Vec<SameAs>,
    target_tgds: Vec<TargetTgd>,
    // Memoized artifacts.
    representative: Option<RepresentativeOutcome>,
    representative_merges: usize,
    /// The representative's pattern-level lower-bound index, built on the
    /// first bounds check and kept with the representative.
    lower_bound: Option<LowerBoundIndex>,
    /// On a failed egd chase: the clashing constant pair and the merges
    /// performed before the failure (diagnostics the unit-variant
    /// `RepresentativeOutcome::ChaseFailed` does not carry).
    chase_failure: Option<((Symbol, Symbol), usize)>,
    encoding: Option<std::result::Result<Encoding, GdxError>>,
    solutions_memo: Option<SolutionsMemo>,
    /// A partially-consumed live enumeration, stashed when a
    /// [`SolutionStream`] is dropped mid-family: the next stream resumes
    /// here instead of re-examining candidates from scratch.
    pending: Option<PendingEnumeration>,
    /// Prepared constant-pair probes, keyed by `(r, c1, c2)` — repeated
    /// `certain_pair` calls reuse the compiled automaton.
    probe_cache: FxHashMap<(Nre, Symbol, Symbol), PreparedQuery>,
    // Compiled helpers and engines, lazily built, persistent.
    checker: Option<SolutionChecker>,
    /// The s-t tgd triggers of the instance, built on the first check.
    /// They depend on the setting and the instance only, so no option
    /// change invalidates them.
    st_triggers: Option<StTriggers>,
    repairer: Option<EgdRepairer>,
    engines_ready: bool,
    sameas_engine: Option<SameAsEngine>,
    tgd_engine: Option<TgdChaseEngine>,
    /// Evaluation caches (materialized relations and demand memos) for
    /// the *frozen* graphs of the solution memo, keyed by graph identity —
    /// certain-answer queries over the same solution reuse each other's
    /// relations and memos. Never used for graphs that still mutate (the
    /// candidate loop builds cold caches instead).
    graph_caches: FxHashMap<GraphId, EvalCache>,
    /// Next to each frozen graph's cache: per single-atom query NRE, the
    /// graph's constant pairs (see [`ExchangeSession::dense_rows`]), so a
    /// repeated query over the family is a word-wise AND.
    constant_pairs: FxHashMap<GraphId, FxHashMap<Nre, ConstantPairs>>,
    candidates_examined: usize,
    /// Observability sink threaded into every engine and parallel region
    /// (disabled by default — see [`ExchangeSession::set_obs`]). This is
    /// configuration, not a memoized artifact: replacing the options
    /// keeps it.
    obs: Obs,
}

/// The fully-enumerated verified-solution family.
struct SolutionsMemo {
    graphs: Vec<Graph>,
    exact: bool,
}

/// A live enumeration paused mid-family (stream dropped before
/// exhaustion): the candidate iterator plus the verified prefix.
struct PendingEnumeration {
    family: Box<InstantiationFamily>,
    collected: Vec<Graph>,
    exact: bool,
}

impl ExchangeSession {
    /// A session with default [`Options`].
    pub fn new(setting: Setting, instance: Instance) -> ExchangeSession {
        let egds = setting.egds().cloned().collect();
        let same_as = setting.same_as_constraints().cloned().collect();
        let target_tgds = setting.target_tgds().cloned().collect();
        ExchangeSession {
            setting,
            instance,
            options: Options::default(),
            egds,
            same_as,
            target_tgds,
            representative: None,
            representative_merges: 0,
            lower_bound: None,
            chase_failure: None,
            encoding: None,
            solutions_memo: None,
            pending: None,
            probe_cache: FxHashMap::default(),
            checker: None,
            st_triggers: None,
            repairer: None,
            engines_ready: false,
            sameas_engine: None,
            tgd_engine: None,
            graph_caches: FxHashMap::default(),
            constant_pairs: FxHashMap::default(),
            candidates_examined: 0,
            obs: Obs::disabled(),
        }
    }

    /// Builder form of [`ExchangeSession::set_obs`].
    pub fn with_obs(mut self, obs: Obs) -> ExchangeSession {
        self.set_obs(obs);
        self
    }

    /// Attaches an observability sink. The session spans its public
    /// requests, records an s-t chase/egd chase/candidate chase/eval/verify/
    /// lower-bound phase breakdown (`session.phase.*_us` histograms,
    /// timestamps from the sink's injected clock), and threads the sink
    /// into the chase engines, the demand evaluators' stat bridges and
    /// the family scan's runtime pool.
    /// Recording never changes any result — every output stays
    /// byte-identical to the disabled run.
    ///
    /// Engines compiled before this call keep recording into the
    /// previously attached sink; attach before the first query for a
    /// complete picture.
    pub fn set_obs(&mut self, obs: Obs) {
        if let Some(engine) = &mut self.tgd_engine {
            engine.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The session's observability sink (disabled unless
    /// [`ExchangeSession::set_obs`] attached one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Builder-style options override (typically right after
    /// [`ExchangeSession::new`]).
    pub fn with_options(mut self, options: Options) -> ExchangeSession {
        self.set_options(options);
        self
    }

    /// Replaces the options, invalidating every memoized artifact (they
    /// were computed under the old bounds).
    pub fn set_options(&mut self, options: Options) {
        self.options = options;
        self.representative = None;
        self.representative_merges = 0;
        self.lower_bound = None;
        self.chase_failure = None;
        self.encoding = None;
        self.solutions_memo = None;
        self.pending = None;
        self.probe_cache.clear();
        self.checker = None;
        self.repairer = None;
        self.engines_ready = false;
        self.sameas_engine = None;
        self.tgd_engine = None;
        self.graph_caches.clear();
        self.constant_pairs.clear();
    }

    /// The session's options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Replaces only [`Options::deadline_micros`], **without**
    /// invalidating memoized artifacts: the deadline never changes what
    /// a memo contains, only how far a single call gets before pausing.
    /// This is the per-request budget hook for long-lived sessions (the
    /// `gdx-server` pool maps each request's budget here while keeping
    /// the warm representative, solution family and engine caches).
    pub fn set_deadline(&mut self, deadline_micros: Option<u64>) {
        self.options.deadline_micros = deadline_micros;
    }

    /// Has the per-request budget expired, measured from `start` on the
    /// injected observability clock? Always `false` without a deadline
    /// or without a real clock (disabled obs and `NoopClock` both read
    /// `0`, so `elapsed == 0` and the strict comparison never trips).
    fn deadline_expired_since(&self, start: u64) -> bool {
        match self.options.deadline_micros {
            None => false,
            Some(budget) => self.obs.now_micros().saturating_sub(start) > budget,
        }
    }

    /// The data exchange setting `Ω`.
    pub fn setting(&self) -> &Setting {
        &self.setting
    }

    /// The source instance `I`.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Cumulative target-tgd chase effort across every candidate this
    /// session examined — the counters that let tests pin "streaming did
    /// strictly less work than exhaustive enumeration".
    pub fn chase_stats(&self) -> ChaseStats {
        self.tgd_engine
            .as_ref()
            .map(TgdChaseEngine::stats)
            .unwrap_or_default()
    }

    /// Candidate instantiations examined so far (across all
    /// [`ExchangeSession::solutions`] streams).
    pub fn candidates_examined(&self) -> usize {
        self.candidates_examined
    }

    /// `G ∈ Sol_Ω(I)`? Exact; the compiled checker persists across calls.
    #[expect(
        clippy::expect_used,
        reason = "the `expect`s below read memos the preceding ensure_* call just filled; a miss is a session-state bug worth a loud panic"
    )]
    pub fn is_solution(&mut self, graph: &Graph) -> Result<bool> {
        self.ensure_checker();
        let verify_start = self.obs.now_micros();
        let verdict = self
            .checker
            .as_ref()
            .expect("just filled")
            .is_solution_with(self.st_triggers.as_ref().expect("just filled"), graph);
        self.obs.observe(
            "session.phase.verify_us",
            self.obs.now_micros().saturating_sub(verify_start),
        );
        verdict
    }

    /// The chased universal representative `(pattern, constraints)` of
    /// Section 5, memoized: the s-t chase and the adapted egd chase run at
    /// most once per session.
    #[expect(
        clippy::expect_used,
        reason = "the `expect`s below read memos the preceding ensure_* call just filled; a miss is a session-state bug worth a loud panic"
    )]
    pub fn representative(&mut self) -> Result<&RepresentativeOutcome> {
        if self.representative.is_none() {
            let _span = self.obs.span("session.representative");
            // S-t chase phase: the source instance becomes the
            // representative pattern.
            let st_start = self.obs.now_micros();
            let st = chase_st_with_nulls(
                &self.instance,
                &self.setting,
                StChaseVariant::Oblivious,
                NullFactory::starting_at(self.options.null_seed),
            )?;
            self.obs.observe(
                "session.phase.st_chase_us",
                self.obs.now_micros().saturating_sub(st_start),
            );
            // Chase phase: the adapted egd chase repairs the pattern.
            let chase_start = self.obs.now_micros();
            let outcome = if self.egds.is_empty() {
                RepresentativeOutcome::Representative(UniversalRepresentative {
                    pattern: st.pattern,
                    constraints: self.setting.target_constraints.clone(),
                })
            } else {
                match chase_egds_on_pattern_obs(
                    &st.pattern,
                    &self.egds,
                    self.options.egd_chase,
                    &self.obs,
                )? {
                    EgdChaseOutcome::Success { pattern, merges } => {
                        self.representative_merges = merges;
                        RepresentativeOutcome::Representative(UniversalRepresentative {
                            pattern,
                            constraints: self.setting.target_constraints.clone(),
                        })
                    }
                    EgdChaseOutcome::Failed { constants, merges } => {
                        self.chase_failure = Some((constants, merges));
                        RepresentativeOutcome::ChaseFailed
                    }
                }
            };
            self.obs.observe(
                "session.phase.egd_chase_us",
                self.obs.now_micros().saturating_sub(chase_start),
            );
            self.representative = Some(outcome);
        }
        Ok(self.representative.as_ref().expect("just filled"))
    }

    /// Node merges performed by the representative's egd phase (0 until
    /// [`ExchangeSession::representative`] ran, or when it failed).
    pub fn representative_merges(&self) -> usize {
        self.representative_merges
    }

    /// When the representative's egd chase failed: the two constants
    /// forced equal (the no-solution witness) and the merges performed
    /// before the failure. `None` while the chase hasn't run or succeeded.
    pub fn representative_failure(&self) -> Option<((Symbol, Symbol), usize)> {
        self.chase_failure
    }

    /// Decides whether `Sol_Ω(I) ≠ ∅`. Streams candidates and stops at the
    /// first verified witness; a previously memoized solution family
    /// answers without any new work.
    pub fn solution_exists(&mut self) -> Result<Existence> {
        if let Some(memo) = &self.solutions_memo {
            return Ok(match memo.graphs.first() {
                Some(g) => Existence::Exists(g.clone()),
                None if memo.exact => Existence::NoSolution,
                None => Existence::Unknown(
                    "bounded candidate search exhausted outside the exact fragment".to_owned(),
                ),
            });
        }
        let mut stream = self.solutions()?;
        match stream.next() {
            Some(g) => Ok(Existence::Exists(g?)),
            None => {
                if stream.exact() {
                    Ok(Existence::NoSolution)
                } else {
                    Ok(Existence::Unknown(
                        "bounded candidate search exhausted outside the exact fragment".to_owned(),
                    ))
                }
            }
        }
    }

    /// Existence via the memoized SAT encoding (exact within the
    /// single-symbol/union-of-symbols fragment, `Unsupported` outside it).
    /// The encoding is built once; only the solve runs per call.
    #[expect(
        clippy::expect_used,
        reason = "the `expect`s below read memos the preceding ensure_* call just filled; a miss is a session-state bug worth a loud panic"
    )]
    pub fn solution_exists_sat(&mut self) -> Result<Existence> {
        if self.encoding.is_none() {
            self.encoding = Some(encode::encode_existence(&self.instance, &self.setting));
        }
        match self.encoding.as_ref().expect("just filled") {
            Ok(enc) => encode::solve_encoding(enc),
            Err(e) => Err(e.clone()),
        }
    }

    /// Lazily streams the **verified minimal solutions** of the session:
    /// candidates come one by one out of the bounded instantiation family,
    /// each is repaired/chased to a fixpoint and verified, and verified
    /// graphs are yielded as they are found. Taking one witness costs one
    /// (successful) candidate's work, not the whole family's.
    ///
    /// Draining the stream memoizes the family: later calls replay the
    /// memo (cloning each graph), and certain-answer methods reuse it as
    /// their counterexample pool. [`SolutionStream::exact`] reports, after
    /// exhaustion, whether the family provably covered all
    /// homomorphism-minimal solutions.
    pub fn solutions(&mut self) -> Result<SolutionStream<'_>> {
        // The per-request budget runs from stream creation on the
        // injected clock (0 forever without one — see
        // `Options::deadline_micros`).
        let deadline_start = self.obs.now_micros();
        if self.solutions_memo.is_some() {
            return Ok(SolutionStream {
                session: self,
                mode: StreamMode::Replay(0),
                exact: true, // read from the memo in `exact()`
                yielded: 0,
                collected: Vec::new(),
                finished: false,
                cap_stopped: false,
                deadline_start,
            });
        }
        if let Some(pending) = self.pending.take() {
            // Resume a paused enumeration: replay the verified prefix,
            // then continue pulling candidates where the last stream
            // stopped.
            self.ensure_engines();
            return Ok(SolutionStream {
                session: self,
                mode: StreamMode::Live {
                    family: pending.family,
                    prefix: 0,
                },
                exact: pending.exact,
                yielded: 0,
                collected: pending.collected,
                finished: false,
                cap_stopped: false,
                deadline_start,
            });
        }
        let inst_cfg = self.options.instantiation;
        let mut exact = exact_fragment(&self.setting);
        let mode = match self.representative()? {
            RepresentativeOutcome::ChaseFailed => {
                // A failed adapted chase is a sound no-solution proof in
                // *every* fragment: the empty family is provably complete.
                exact = true;
                StreamMode::Empty
            }
            RepresentativeOutcome::Representative(rep) => {
                match InstantiationFamily::new(&rep.pattern, inst_cfg) {
                    Ok(family) => StreamMode::Live {
                        family: Box::new(family),
                        prefix: 0,
                    },
                    // Bounds left some edge without a realization:
                    // inconclusive.
                    Err(GdxError::LimitExceeded(_)) => {
                        exact = false;
                        StreamMode::Empty
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        self.ensure_engines();
        Ok(SolutionStream {
            session: self,
            mode,
            exact,
            yielded: 0,
            collected: Vec::new(),
            finished: false,
            cap_stopped: false,
            deadline_start,
        })
    }

    /// Is the Boolean (constants-only) prepared query certain —
    /// `cert_Ω(Q, I)` contains its (empty) answer tuple?
    ///
    /// The first call enumerates and memoizes the minimal-solution family;
    /// every further call reuses it, plus one shared materialization cache
    /// per solution graph, so the marginal cost of a query is evaluation
    /// only.
    #[expect(
        clippy::expect_used,
        reason = "the `expect`s below read memos the preceding ensure_* call just filled; a miss is a session-state bug worth a loud panic"
    )]
    pub fn certain(&mut self, query: &PreparedQuery) -> Result<CertainAnswer> {
        if !query.variables().is_empty() {
            return Err(GdxError::unsupported(
                "certain expects a constants-only (Boolean) query",
            ));
        }
        let _span = self.obs.span("session.certain");
        self.obs.incr("session.requests");
        // A tuple the pattern proves holds in every solution: it has no
        // counterexample, so the family need not be built or scanned.
        let bounds_first = self.bounds_first();
        if bounds_first {
            match self.proven_rows(query.cnre())? {
                Some(rows) if !rows.is_empty() => {
                    self.obs.incr("session.lower_bound.proven");
                    return Ok(CertainAnswer::Certain);
                }
                Some(_) => self.obs.incr("session.lower_bound.fallback"),
                None => {}
            }
        }
        self.ensure_solutions()?;
        if self.solutions_memo.is_none() {
            // The per-request deadline paused the enumeration: the
            // verified prefix is a sound counterexample pool (a
            // `NotCertain` found in it stays definite), but nothing
            // beyond `Unknown` can be claimed — even the representative
            // lower bound is skipped, the budget is spent.
            return self.certain_partial(query);
        }
        {
            // Fan the probe out across the memoized solution family with
            // a first-failure early exit (see `family_probe`): the verdict
            // always picks the lowest-index failure, so every worker count
            // agrees with the sequential scan.
            let memo = self.solutions_memo.take().expect("ensured");
            let holds_res = self.family_probe(&memo.graphs, query, Some(1), true);
            self.solutions_memo = Some(memo);
            let holds = holds_res?;
            let memo = self.solutions_memo.as_ref().expect("just restored");
            if let Some(i) = holds.iter().position(|b| b.is_empty()) {
                return Ok(CertainAnswer::NotCertain(memo.graphs[i].clone()));
            }
            if memo.graphs.is_empty() {
                if memo.exact {
                    // Sol_Ω(I) = ∅ ⇒ the intersection is everything.
                    return Ok(CertainAnswer::Certain);
                }
                return Ok(CertainAnswer::Unknown(
                    "no candidate solutions within bounds".to_owned(),
                ));
            }
            if memo.exact {
                return Ok(CertainAnswer::Certain);
            }
        }
        // Outside the exact fragment, a pattern-level entailment proof can
        // still establish certainty (sound lower bound on cert — see
        // `representative::certain_answer_lower_bound`). A constants-only
        // query has one empty answer row when proven.
        if !bounds_first
            && self
                .proven_rows(query.cnre())?
                .is_some_and(|r| !r.is_empty())
        {
            self.obs.incr("session.lower_bound.proven");
            return Ok(CertainAnswer::Certain);
        }
        Ok(CertainAnswer::Unknown(
            "all bounded candidates select the tuple, but the family may be \
             incomplete"
                .to_owned(),
        ))
    }

    /// The deadline-paused tail of [`ExchangeSession::certain`]: probe
    /// only the verified prefix stashed by the pause for a
    /// counterexample, then put the stash back so the next call resumes
    /// the enumeration.
    fn certain_partial(&mut self, query: &PreparedQuery) -> Result<CertainAnswer> {
        let Some(pending) = self.pending.take() else {
            return Ok(CertainAnswer::Unknown(
                "deadline exceeded before any candidate was examined".to_owned(),
            ));
        };
        let holds_res = self.family_probe(&pending.collected, query, Some(1), true);
        let counterexample = match &holds_res {
            Ok(holds) => holds
                .iter()
                .position(|b| b.is_empty())
                .map(|i| pending.collected[i].clone()),
            Err(_) => None,
        };
        self.pending = Some(pending);
        holds_res?;
        if let Some(g) = counterexample {
            return Ok(CertainAnswer::NotCertain(g));
        }
        Ok(CertainAnswer::Unknown(
            "deadline exceeded: every solution examined so far selects the \
             tuple, but the enumeration is paused mid-family"
                .to_owned(),
        ))
    }

    /// Is `(c1, c2)` a certain answer of the single-NRE query `r`? (The
    /// shape of the paper's query answering problem.) Prepared probes are
    /// cached per `(r, c1, c2)`, so repeated calls skip recompilation.
    pub fn certain_pair(&mut self, r: &Nre, c1: &str, c2: &str) -> Result<CertainAnswer> {
        let key = (r.clone(), Symbol::new(c1), Symbol::new(c2));
        // Take the probe out of the cache for the duration of the call
        // (certain() needs `&mut self`), then put it back.
        let query = self
            .probe_cache
            .remove(&key)
            .unwrap_or_else(|| PreparedQuery::single(Term::cst(c1), r.clone(), Term::cst(c2)));
        let verdict = self.certain(&query);
        // Bound the cache: a service probing unboundedly many distinct
        // triples must not grow the session without limit.
        if self.probe_cache.len() >= 1024 {
            self.probe_cache.clear();
        }
        self.probe_cache.insert(key, query);
        verdict
    }

    /// The full certain-answer *set* of a query over constants appearing
    /// in the enumerated solutions: the intersection of constant-only
    /// answer rows. Returns `(rows, exact)`; with `exact == false` the set
    /// is not provably complete — either the candidate family was bounded,
    /// or `Options::row_limit` cut rows off the returned set.
    ///
    /// Outside the exact fragment the answer is squeezed first: the
    /// pattern-level lower bound is contained in the certain answers,
    /// which are contained in the first verified graph's constant rows.
    /// When the two meet, they are the answer, and the rest of the family
    /// is left unbuilt (paused, resumable). Otherwise the whole family is
    /// drained and intersected. Under a deadline the squeeze waits until
    /// the session holds the lower-bound index.
    #[expect(
        clippy::expect_used,
        reason = "the `expect`s below read memos the preceding ensure_* call just filled; a miss is a session-state bug worth a loud panic"
    )]
    pub fn certain_answers(&mut self, query: &PreparedQuery) -> Result<(Vec<Vec<Node>>, bool)> {
        let _span = self.obs.span("session.certain_answers");
        self.obs.incr("session.requests");
        if self.bounds_first() {
            if let Some(answer) = self.certain_answers_by_bounds(query)? {
                return Ok(answer);
            }
        }
        self.ensure_solutions()?;
        if self.solutions_memo.is_none() {
            // Deadline pause: intersect over the verified prefix only.
            // The intersection over a *sub*family is a superset of the
            // certain answers, so it is reported inexact — never as a
            // definite answer set.
            let Some(pending) = self.pending.take() else {
                return Ok((Vec::new(), false));
            };
            let res = self.intersect_rows(&pending.collected, false, query);
            self.pending = Some(pending);
            return res;
        }
        // Full evaluations fan out across the solution family (one
        // worker per graph, each with its own cache); a single-graph
        // family instead parallelizes *inside* its evaluation. The
        // intersection is set-valued, so the fan-out order cannot leak
        // into the answer.
        let memo = self.solutions_memo.take().expect("ensured");
        let res = self.intersect_rows(&memo.graphs, memo.exact, query);
        self.solutions_memo = Some(memo);
        res
    }

    /// Are the two bounds consulted before the family? Never inside the
    /// exact fragment, where the family decides `exact`. Under a deadline
    /// only once the session holds the lower-bound index: building it is
    /// work the budget does not cover.
    fn bounds_first(&self) -> bool {
        !exact_fragment(&self.setting)
            && (self.options.deadline_micros.is_none() || self.lower_bound.is_some())
    }

    /// The pattern-level lower bound of `query` (see
    /// [`UniversalRepresentative::certain_answer_lower_bound`]) from the
    /// session's memoized index; `None` when the adapted chase failed.
    fn proven_rows(&mut self, query: &gdx_query::Cnre) -> Result<Option<Vec<Vec<Node>>>> {
        self.representative()?;
        let Some(RepresentativeOutcome::Representative(rep)) = &self.representative else {
            return Ok(None);
        };
        let start = self.obs.now_micros();
        let options = self.options;
        let index = self
            .lower_bound
            .get_or_insert_with(|| LowerBoundIndex::new(&rep.pattern, &options));
        let rows = index.rows(&rep.pattern, query);
        self.obs.observe(
            "session.phase.lower_bound_us",
            self.obs.now_micros().saturating_sub(start),
        );
        rows.map(Some)
    }

    /// The early exit of [`ExchangeSession::certain_answers`]:
    /// `lower ⊆ cert ⊆ rows(G₀)`, so when the lower bound equals the
    /// first verified graph's constant rows, both are the answer — the
    /// same rows the drained intersection would return.
    fn certain_answers_by_bounds(
        &mut self,
        query: &PreparedQuery,
    ) -> Result<Option<(Vec<Vec<Node>>, bool)>> {
        let Some(lower) = self.proven_rows(query.cnre())? else {
            return Ok(None);
        };
        match self.first_graph_rows(query)? {
            Some(upper) if lower.len() == upper.len() && upper.contains_all(&lower) => {
                self.obs.incr("session.lower_bound.proven");
                // Outside the exact fragment the family is never exact.
                Ok(Some(self.answer_rows(upper.into_rows(), false)))
            }
            _ => {
                self.obs.incr("session.lower_bound.fallback");
                Ok(None)
            }
        }
    }

    /// The constant rows of `query` on the first verified solution: from
    /// the memo, from a paused prefix, or from one freshly pulled
    /// candidate (the dropped stream pauses the rest of the family).
    /// `None` when the family has no member.
    fn first_graph_rows(&mut self, query: &PreparedQuery) -> Result<Option<RowSet>> {
        let prefix_empty = self.pending.as_ref().is_none_or(|p| p.collected.is_empty());
        if self.solutions_memo.is_none() && prefix_empty {
            if let Some(g) = self.solutions()?.next() {
                g?;
            }
        }
        // Probe the stored graph, not a clone: its evaluation cache is
        // the one a later family scan reuses.
        if let Some(memo) = self.solutions_memo.take() {
            let rows = self.rows_of_first(&memo.graphs, query);
            self.solutions_memo = Some(memo);
            return rows;
        }
        let Some(pending) = self.pending.take() else {
            return Ok(None);
        };
        let rows = self.rows_of_first(&pending.collected, query);
        self.pending = Some(pending);
        rows
    }

    fn rows_of_first(&mut self, graphs: &[Graph], query: &PreparedQuery) -> Result<Option<RowSet>> {
        let Some(first) = graphs.first() else {
            return Ok(None);
        };
        let first = std::slice::from_ref(first);
        if let Some(rows) = self.dense_rows(first, query) {
            return Ok(Some(RowSet::Dense(rows)));
        }
        let bindings = self.family_probe(first, query, None, false)?;
        Ok(bindings
            .first()
            .map(|b| RowSet::Hashed(b.constant_rows(&first[0]))))
    }

    /// Sorted constant-row intersection over a solution family, with the
    /// `Options::row_limit` truncation applied — the shared tail of
    /// [`ExchangeSession::certain_answers`]'s exact and deadline-paused
    /// paths.
    fn intersect_rows(
        &mut self,
        graphs: &[Graph],
        base_exact: bool,
        query: &PreparedQuery,
    ) -> Result<(Vec<Vec<Node>>, bool)> {
        if let Some(rows) = self.dense_rows(graphs, query) {
            return Ok(self.answer_rows(rows.into_rows(), base_exact));
        }
        let per_graph = self.family_probe(graphs, query, None, false)?;
        let mut sets = graphs
            .iter()
            .zip(&per_graph)
            .map(|(g, b)| b.constant_rows(g));
        let Some(mut inter) = sets.next() else {
            return Ok((Vec::new(), base_exact));
        };
        for rows in sets {
            inter.retain(|r| rows.contains(r));
        }
        Ok(self.answer_rows(inter.into_iter().collect(), base_exact))
    }

    /// The order-free route of [`ExchangeSession::rows_of_first`] and
    /// [`ExchangeSession::intersect_rows`]: the constant rows a
    /// single-atom query `(t₁, r, t₂)` selects on every graph of a
    /// non-empty family, intersected on the dense kernel. Each graph's
    /// [`ConstantPairs`] of `r` is memoized next to its evaluation cache.
    ///
    /// `None` keeps the caller on planned evaluation: a conjunction, the
    /// `Materialize` planner (the baseline the simulation's `planner`
    /// oracle compares this route against), an empty family, or a graph
    /// above the dense kernel's size bound. The time is recorded as an
    /// eval phase, like the planned probe's, with no demand-evaluator
    /// work.
    fn dense_rows(&mut self, graphs: &[Graph], query: &PreparedQuery) -> Option<ConstantRows> {
        let [atom] = query.cnre().atoms.as_slice() else {
            return None;
        };
        if self.options.planner != PlannerMode::Auto || graphs.is_empty() {
            return None;
        }
        let start = self.obs.now_micros();
        let mut inter: Option<ConstantPairs> = None;
        for g in graphs {
            let memo = self.constant_pairs.entry(g.id()).or_default();
            if !memo.contains_key(&atom.nre) {
                memo.insert(atom.nre.clone(), ConstantPairs::eval(g, &atom.nre)?);
            }
            let pairs = &memo[&atom.nre];
            match &mut inter {
                Some(acc) => acc.intersect(pairs),
                None => inter = Some(pairs.clone()),
            }
        }
        DemandStats::default().record_into(&self.obs);
        self.obs.observe(
            "session.phase.eval_us",
            self.obs.now_micros().saturating_sub(start),
        );
        inter.map(|p| p.select(atom))
    }

    /// An answer set (distinct rows) in its returned form: rows sorted by
    /// constant name, then cut to `Options::row_limit` (a cut set is
    /// inexact).
    fn answer_rows(&self, mut rows: Vec<Vec<Node>>, base_exact: bool) -> (Vec<Vec<Node>>, bool) {
        // The key reads names through the interner: compute it once per
        // row, not twice per comparison.
        rows.sort_by_cached_key(|r| r.iter().map(|n| n.name().as_str()).collect::<Vec<_>>());
        let mut exact = base_exact;
        if let Some(cap) = self.options.row_limit {
            if rows.len() > cap {
                rows.truncate(cap);
                // A truncated answer set is no longer provably the full
                // intersection.
                exact = false;
            }
        }
        (rows, exact)
    }

    /// Evaluates `query` over every graph of the (temporarily detached)
    /// solution family, returning one result per graph in family order.
    ///
    /// The family's graphs share nothing, so this is the one place a
    /// request fans out. One path at every worker count: each graph's
    /// persistent cache leaves `graph_caches` for the duration of the
    /// call, the family fans out one graph per worker through
    /// [`gdx_runtime::Runtime::par_map_mut`] (inline, in order, at one
    /// worker), and the caches merge back at the barrier. The shared query
    /// brings the compiled automata; each graph's cache holds that graph's
    /// demand memos.
    ///
    /// `stop_at_first_empty` gives the scan a first-counterexample early
    /// exit: no graph past the lowest-index empty result (or error) found
    /// so far is started, so one worker stops exactly there, and the
    /// returned vector is a prefix of the family ending at its first
    /// empty result. Parallel workers may have probed past it while it
    /// ran; callers only rely on the *lowest-index* empty entry, which
    /// every schedule agrees on.
    fn family_probe(
        &mut self,
        graphs: &[Graph],
        query: &PreparedQuery,
        limit: Option<usize>,
        stop_at_first_empty: bool,
    ) -> Result<Vec<gdx_query::NodeBindings>> {
        let eval_start = self.obs.now_micros();
        let demand_before = demand_snapshot(query);
        let result = self.family_probe_inner(graphs, query, limit, stop_at_first_empty);
        // Eval phase boundary: flush the probe's demand-evaluator effort
        // delta and the wall time into the registry.
        demand_snapshot(query)
            .delta_since(&demand_before)
            .record_into(&self.obs);
        self.obs.observe(
            "session.phase.eval_us",
            self.obs.now_micros().saturating_sub(eval_start),
        );
        result
    }

    fn family_probe_inner(
        &mut self,
        graphs: &[Graph],
        query: &PreparedQuery,
        limit: Option<usize>,
        stop_at_first_empty: bool,
    ) -> Result<Vec<gdx_query::NodeBindings>> {
        let planner = self.options.planner;
        let rt = self.options.runtime().with_obs(self.obs.clone());
        let mut caches: Vec<EvalCache> = graphs
            .iter()
            .map(|g| self.graph_caches.remove(&g.id()).unwrap_or_default())
            .collect();
        // Lowest index found so far whose result ends the scan. A hint
        // only: results travel back through the barrier, not through it.
        let stop_at = AtomicUsize::new(usize::MAX);
        let results = rt.par_map_mut(&mut caches, |i, cache| {
            if stop_at.load(Ordering::Relaxed) < i {
                return None;
            }
            let res =
                query.evaluate_limited(&graphs[i], cache, &FxHashMap::default(), planner, limit);
            if res
                .as_ref()
                .map_or(true, |b| stop_at_first_empty && b.is_empty())
            {
                stop_at.fetch_min(i, Ordering::Relaxed);
            }
            Some(res)
        });
        for (g, cache) in graphs.iter().zip(caches) {
            self.graph_caches.insert(g.id(), cache);
        }
        // Every graph up to the lowest stopping index was evaluated, so
        // the in-order walk meets that index before any skipped graph.
        let mut out = Vec::with_capacity(results.len());
        for res in results.into_iter().map_while(|r| r) {
            let bindings = res?;
            let stop = stop_at_first_empty && bindings.is_empty();
            out.push(bindings);
            if stop {
                break;
            }
        }
        Ok(out)
    }

    /// Fills the solution memo by draining a stream (no-op when already
    /// filled).
    fn ensure_solutions(&mut self) -> Result<()> {
        if self.solutions_memo.is_some() {
            return Ok(());
        }
        {
            let mut stream = self.solutions()?;
            for g in &mut stream {
                g?;
            }
        }
        // Exhausting the live stream stored the memo; a deadline pause
        // instead stashed the pending enumeration for the next call.
        debug_assert!(self.solutions_memo.is_some() || self.pending.is_some());
        Ok(())
    }

    fn ensure_engines(&mut self) {
        if !self.engines_ready {
            self.sameas_engine =
                (!self.same_as.is_empty()).then(|| SameAsEngine::new(&self.same_as));
            self.tgd_engine = (!self.target_tgds.is_empty()).then(|| {
                TgdChaseEngine::new(&self.target_tgds, self.options.tgd_chase)
                    .with_obs(self.obs.clone())
            });
            self.repairer = Some(EgdRepairer::new(&self.egds));
            self.ensure_checker();
            self.engines_ready = true;
        }
    }

    /// Compiles the solution checker under the session's planner mode,
    /// and builds the instance's trigger table once.
    #[expect(
        clippy::expect_used,
        reason = "the checker is filled just above the table that reads it"
    )]
    fn ensure_checker(&mut self) {
        if self.checker.is_none() {
            self.checker =
                Some(SolutionChecker::new(&self.setting).with_planner(self.options.planner));
        }
        if self.st_triggers.is_none() {
            let checker = self.checker.as_ref().expect("just filled");
            self.st_triggers = Some(checker.st_triggers(&self.instance));
        }
    }
}

/// The constant rows of `query` on the first verified solution: a bit
/// set from the dense kernel, or a hash set from planned evaluation.
enum RowSet {
    Dense(ConstantRows),
    Hashed(FxHashSet<Vec<Node>>),
}

impl RowSet {
    fn len(&self) -> usize {
        match self {
            RowSet::Dense(rows) => rows.len(),
            RowSet::Hashed(rows) => rows.len(),
        }
    }

    fn contains_all(&self, rows: &[Vec<Node>]) -> bool {
        match self {
            RowSet::Dense(set) => set.contains_all(rows),
            RowSet::Hashed(set) => rows.iter().all(|r| set.contains(r)),
        }
    }

    fn into_rows(self) -> Vec<Vec<Node>> {
        match self {
            RowSet::Dense(rows) => rows.into_rows(),
            RowSet::Hashed(rows) => rows.into_iter().collect(),
        }
    }
}

/// Sums the cumulative [`DemandStats`] credited to every atom of `query`
/// (whichever cache and worker did the work) — the session records
/// *deltas* of this around each probe.
fn demand_snapshot(query: &PreparedQuery) -> DemandStats {
    let mut total = DemandStats::default();
    for atom in &query.cnre().atoms {
        if let Some(s) = query.demand_stats(&atom.nre) {
            total.visited += s.visited;
            total.bfs_runs += s.bfs_runs;
            total.guard_checks += s.guard_checks;
        }
    }
    total
}

/// Which source a [`SolutionStream`] draws from.
enum StreamMode {
    /// Clone out of the memoized family.
    Replay(usize),
    /// Drive candidates out of the lazy instantiation family; `prefix`
    /// indexes into the already-verified `collected` graphs served before
    /// fresh candidates (non-zero progress when resuming a paused
    /// enumeration).
    Live {
        family: Box<InstantiationFamily>,
        prefix: usize,
    },
    /// No candidates at all (failed chase, or instantiation bounds).
    Empty,
}

/// Lazy iterator over the session's verified minimal solutions — see
/// [`ExchangeSession::solutions`].
pub struct SolutionStream<'s> {
    session: &'s mut ExchangeSession,
    mode: StreamMode,
    exact: bool,
    yielded: usize,
    /// Verified solutions seen by a live stream, memoized on exhaustion.
    collected: Vec<Graph>,
    finished: bool,
    /// Iteration ended at `Options::solution_cap`, not at family
    /// exhaustion.
    cap_stopped: bool,
    /// Clock reading (µs, injected obs clock) at stream creation — the
    /// origin of `Options::deadline_micros`.
    deadline_start: u64,
}

impl SolutionStream<'_> {
    /// After exhaustion: did the candidate family provably cover all
    /// homomorphism-minimal solutions (so "no solution yielded" proves
    /// `Sol_Ω(I) = ∅` and "every solution selects the tuple" proves
    /// certainty)? Mid-stream the value reflects the evidence so far.
    pub fn exact(&self) -> bool {
        if let StreamMode::Replay(_) = self.mode {
            return !self.cap_stopped
                && self
                    .session
                    .solutions_memo
                    .as_ref()
                    .map(|m| m.exact)
                    .unwrap_or(false);
        }
        self.exact
    }

    #[expect(
        clippy::expect_used,
        reason = "the `expect`s below read memos the preceding ensure_* call just filled; a miss is a session-state bug worth a loud panic"
    )]
    fn advance(&mut self) -> Result<Option<Graph>> {
        if self.finished {
            return Ok(None);
        }
        if let Some(cap) = self.session.options.solution_cap {
            if self.yielded >= cap {
                // Stopping early leaves candidates unexamined; the capped
                // prefix is still a sound counterexample pool, so a live
                // stream memoizes it (as inexact).
                self.exact = false;
                self.cap_stopped = true;
                self.finish_live();
                return Ok(None);
            }
        }
        match &mut self.mode {
            StreamMode::Empty => {
                self.finish_live();
                Ok(None)
            }
            StreamMode::Replay(i) => {
                let memo = self.session.solutions_memo.as_ref().expect("replay mode");
                if let Some(g) = memo.graphs.get(*i) {
                    *i += 1;
                    self.yielded += 1;
                    Ok(Some(g.clone()))
                } else {
                    self.finished = true;
                    Ok(None)
                }
            }
            StreamMode::Live { .. } => self.advance_live(),
        }
    }

    /// The candidate loop of the bounded search: pull one candidate at a
    /// time, enforce the three constraint kinds to a joint fixpoint,
    /// verify, and yield. The enforcement engines live on the session and persist
    /// across candidates *and* streams: within a candidate they mutate the
    /// graph in place, so their delta caches survive the fixpoint rounds;
    /// switching candidates — or an egd quotient replacing the graph
    /// value — resets them via graph-identity detection.
    #[expect(
        clippy::expect_used,
        reason = "the `expect`s below read memos the preceding ensure_* call just filled; a miss is a session-state bug worth a loud panic"
    )]
    fn advance_live(&mut self) -> Result<Option<Graph>> {
        // A resumed stream serves the already-verified prefix first, so
        // every stream yields the family from its beginning.
        if let StreamMode::Live { prefix, .. } = &mut self.mode {
            if *prefix < self.collected.len() {
                let g = self.collected[*prefix].clone();
                *prefix += 1;
                self.yielded += 1;
                return Ok(Some(g));
            }
        }
        'candidates: loop {
            // Per-request budget, checked between candidates (the
            // unbounded part of a request). Expiry pauses the
            // enumeration exactly like a dropped stream — the stash
            // keeps the exactness evidence gathered so far, while this
            // call's view degrades to a prefix (`exact = false`).
            if self.session.deadline_expired_since(self.deadline_start) {
                self.session.obs.incr("session.deadline_pauses");
                self.pause_live();
                self.exact = false;
                return Ok(None);
            }
            let StreamMode::Live { family, .. } = &mut self.mode else {
                unreachable!("advance_live called off a live stream")
            };
            let Some(candidate) = family.next() else {
                if family.truncated() {
                    // The cap truncated the family: coverage is no longer
                    // provable.
                    self.exact = false;
                }
                self.finish_live();
                return Ok(None);
            };
            let mut g = candidate?;
            self.session.candidates_examined += 1;
            self.session.obs.incr("session.candidates");
            // Enforce the three constraint kinds to a joint fixpoint: egd
            // merges can create new sameAs/tgd obligations and vice versa.
            // Each enforcement is monotone (adds edges or merges nodes),
            // so a handful of rounds suffices; the final is_solution check
            // keeps Exists sound regardless of the round cap.
            for _round in 0..8 {
                let chase_start = self.session.obs.now_micros();
                if let Some(engine) = &mut self.session.sameas_engine {
                    engine.saturate(&mut g)?;
                }
                if let Some(engine) = &mut self.session.tgd_engine {
                    match engine.run(&mut g) {
                        Ok(()) => {}
                        Err(GdxError::LimitExceeded(_)) => {
                            self.exact = false;
                            continue 'candidates;
                        }
                        Err(e) => return Err(e),
                    }
                }
                self.session.obs.observe(
                    "session.phase.candidate_chase_us",
                    self.session.obs.now_micros().saturating_sub(chase_start),
                );
                // Concrete egd repair: merge forced violations; a constant
                // clash kills the candidate. Violation-free rounds keep
                // the graph value (and hence the engine caches) intact.
                if !self
                    .session
                    .repairer
                    .as_ref()
                    .expect("engines ready")
                    .repair(&mut g)?
                {
                    continue 'candidates;
                }
                let verify_start = self.session.obs.now_micros();
                let verified = self
                    .session
                    .checker
                    .as_ref()
                    .expect("engines ready")
                    .is_solution_with(
                        self.session.st_triggers.as_ref().expect("engines ready"),
                        &g,
                    )?;
                self.session.obs.observe(
                    "session.phase.verify_us",
                    self.session.obs.now_micros().saturating_sub(verify_start),
                );
                if verified {
                    self.collected.push(g.clone());
                    if let StreamMode::Live { prefix, .. } = &mut self.mode {
                        // Keep the prefix cursor past the fresh yield so a
                        // pause/resume never serves it twice.
                        *prefix = self.collected.len();
                    }
                    self.yielded += 1;
                    return Ok(Some(g));
                }
                if self.session.same_as.is_empty() && self.session.target_tgds.is_empty() {
                    // Nothing else can change: the candidate is dead.
                    continue 'candidates;
                }
            }
        }
    }

    /// Pauses a live stream on deadline expiry: the verified prefix and
    /// the candidate iterator move onto the session (exactly like a
    /// dropped stream), so the next call resumes where the budget ran
    /// out. Unlike [`SolutionStream::finish_live`], nothing is memoized
    /// — a budget-truncated prefix must not masquerade as the
    /// enumeration's result, or a warm session would serve it forever.
    fn pause_live(&mut self) {
        self.finished = true;
        if let StreamMode::Live { family, .. } =
            std::mem::replace(&mut self.mode, StreamMode::Empty)
        {
            self.session.pending = Some(PendingEnumeration {
                family,
                collected: std::mem::take(&mut self.collected),
                exact: self.exact,
            });
        }
    }

    /// Ends a live stream, memoizing the family when it was fully drained.
    fn finish_live(&mut self) {
        self.finished = true;
        if matches!(self.mode, StreamMode::Live { .. } | StreamMode::Empty)
            && self.session.solutions_memo.is_none()
        {
            self.session.solutions_memo = Some(SolutionsMemo {
                graphs: std::mem::take(&mut self.collected),
                exact: self.exact,
            });
        }
    }
}

impl Drop for SolutionStream<'_> {
    /// A live stream dropped mid-family pauses the enumeration on the
    /// session instead of discarding it: the verified prefix and the
    /// candidate iterator resume on the next [`ExchangeSession::solutions`]
    /// call (taking one witness, then asking a certain-answer query, never
    /// re-examines candidate 1).
    fn drop(&mut self) {
        if self.finished || self.session.solutions_memo.is_some() {
            return;
        }
        if let StreamMode::Live { family, .. } =
            std::mem::replace(&mut self.mode, StreamMode::Empty)
        {
            self.session.pending = Some(PendingEnumeration {
                family,
                collected: std::mem::take(&mut self.collected),
                exact: self.exact,
            });
        }
    }
}

impl Iterator for SolutionStream<'_> {
    type Item = Result<Graph>;

    fn next(&mut self) -> Option<Result<Graph>> {
        match self.advance() {
            Ok(Some(g)) => Some(Ok(g)),
            Ok(None) => None,
            Err(e) => {
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_nre::parse::parse_nre;

    fn session_2_2() -> ExchangeSession {
        ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2())
    }

    #[test]
    fn representative_is_memoized() {
        let mut s = session_2_2();
        let nodes = match s.representative().unwrap() {
            RepresentativeOutcome::Representative(rep) => rep.pattern.node_count(),
            RepresentativeOutcome::ChaseFailed => panic!("chase succeeds"),
        };
        assert_eq!(nodes, 7, "Figure 5 pattern");
        // Second call must hand back the same memo (merges stick around).
        let merges = s.representative_merges();
        s.representative().unwrap();
        assert_eq!(s.representative_merges(), merges);
    }

    #[test]
    fn first_witness_examines_one_candidate() {
        let mut s = session_2_2();
        let mut stream = s.solutions().unwrap();
        let g = stream.next().unwrap().unwrap();
        drop(stream);
        assert_eq!(s.candidates_examined(), 1, "lazy: one candidate pulled");
        assert!(s.is_solution(&g).unwrap());
    }

    #[test]
    fn drained_stream_memoizes_and_replays() {
        let mut s = session_2_2();
        let all: Vec<Graph> = s.solutions().unwrap().map(|g| g.unwrap()).collect();
        assert!(!all.is_empty());
        let examined = s.candidates_examined();
        // Replay: same family, no new candidate work.
        let again: Vec<Graph> = s.solutions().unwrap().map(|g| g.unwrap()).collect();
        assert_eq!(again.len(), all.len());
        assert_eq!(s.candidates_examined(), examined);
    }

    #[test]
    fn certain_pair_matches_paper() {
        let mut s = session_2_2();
        // (c1, f.f*, c2) is provably certain (pattern-level entailment);
        // the reverse pair has a counterexample solution.
        let r = parse_nre("f.f*").unwrap();
        assert!(s.certain_pair(&r, "c1", "c2").unwrap().is_certain());
        assert!(matches!(
            s.certain_pair(&r, "c2", "c1").unwrap(),
            CertainAnswer::NotCertain(_)
        ));
    }

    #[test]
    fn certain_rejects_non_boolean_queries() {
        let mut s = session_2_2();
        let q = PreparedQuery::parse("(x, f, y)").unwrap();
        assert!(s.certain(&q).is_err());
    }

    #[test]
    fn certain_answers_shared_family() {
        let mut s = session_2_2();
        let q = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let (rows, _exact) = s.certain_answers(&q).unwrap();
        assert_eq!(rows.len(), 4, "the paper's four certain pairs");
        let examined = s.candidates_examined();
        // A second query reuses the verified prefix.
        let q2 = PreparedQuery::parse("(x, f.f*, y)").unwrap();
        let (rows2, _exact) = s.certain_answers(&q2).unwrap();
        assert!(!rows2.is_empty());
        assert_eq!(s.candidates_examined(), examined);
    }

    #[test]
    fn certain_answers_stop_when_the_bounds_meet() {
        // The pattern proves every pair the first verified graph answers:
        // one candidate is examined, the rest of the family stays paused,
        // and the answer is the drained family's.
        let q = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let mut early = session_2_2();
        let answer = early.certain_answers(&q).unwrap();
        assert_eq!(early.candidates_examined(), 1);
        let mut drained = session_2_2();
        drained.solutions().unwrap().for_each(drop);
        assert!(drained.candidates_examined() > 1);
        assert_eq!(drained.certain_answers(&q).unwrap(), answer);
        // The paused family resumes where the early exit left it.
        let family = early.solutions().unwrap().count();
        assert_eq!(family, drained.solutions().unwrap().count());
        assert_eq!(early.candidates_examined(), drained.candidates_examined());
        // A proven probe needs no family at all.
        let mut cold = session_2_2();
        let probe = PreparedQuery::parse("(\"c1\", f.f*.[h].f-.(f-)*, \"c3\")").unwrap();
        assert!(cold.certain(&probe).unwrap().is_certain());
        assert_eq!(cold.candidates_examined(), 0);
    }

    /// The sorted constant rows planned evaluation gives on every graph,
    /// intersected: the reference of the dense route.
    fn planned_intersection(graphs: &[Graph], q: &PreparedQuery) -> Vec<Vec<Node>> {
        let mut sets = graphs
            .iter()
            .map(|g| q.evaluate(g).unwrap().constant_rows(g));
        let mut inter = sets.next().unwrap();
        for rows in sets {
            inter.retain(|r| rows.contains(r));
        }
        let mut rows: Vec<Vec<Node>> = inter.into_iter().collect();
        rows.sort_by_cached_key(|r| r.iter().map(|n| n.name().as_str()).collect::<Vec<_>>());
        rows
    }

    #[test]
    fn dense_route_agrees_with_planned_evaluation_on_every_atom_shape() {
        for text in [
            "(x1, f.f*.[h].f-.(f-)*, x2)",
            "(x, f*, x)",
            "(x, f.f*, \"c2\")",
            "(\"c1\", f.f*.[h], y)",
            "(\"c1\", f.f*.[h].f-.(f-)*, \"c3\")",
            "(x, f, y), (y, f, z)",
        ] {
            let q = PreparedQuery::parse(text).unwrap();
            let mut auto = session_2_2();
            let mut materialize = session_2_2()
                .with_options(Options::default().with_planner(PlannerMode::Materialize));
            assert_eq!(
                auto.certain_answers(&q).unwrap(),
                materialize.certain_answers(&q).unwrap(),
                "{text}"
            );
            let family: Vec<Graph> = auto.solutions().unwrap().map(|g| g.unwrap()).collect();
            assert_eq!(
                auto.certain_answers(&q).unwrap().0,
                planned_intersection(&family, &q),
                "{text} over the drained family"
            );
        }
    }

    #[test]
    fn dense_intersection_maps_constants_with_other_ids() {
        // `c3` has id 2 in the first graph and id 0 in the second: the
        // word-wise AND would compare unrelated constants, so the second
        // graph is mapped through the constant names.
        let graphs = [
            Graph::parse("(c1, f, c2); (c2, f, c3); (c1, f, c3); (c3, f, c1);").unwrap(),
            Graph::parse("(c3, f, c1); (c1, f, c2); (c2, f, c3); (c2, f, c1);").unwrap(),
        ];
        let c3 = Node::cst("c3");
        assert_ne!(graphs[0].node_id(c3), graphs[1].node_id(c3));
        let mut s = session_2_2();
        for text in ["(x, f.f*, y)", "(x, f, y)", "(x, f.f, x)", "(\"c3\", f, y)"] {
            let q = PreparedQuery::parse(text).unwrap();
            let (rows, exact) = s.intersect_rows(&graphs, true, &q).unwrap();
            assert!(exact);
            assert_eq!(rows, planned_intersection(&graphs, &q), "{text}");
            assert!(!rows.is_empty(), "{text}");
        }
        // Every pair is memoized once per (graph, NRE).
        assert_eq!(s.constant_pairs[&graphs[0].id()].len(), 3);
    }

    #[test]
    fn both_sides_of_the_dense_size_bound_give_the_same_answers() {
        // Runs of eight constants chained by `f`, with an `h` edge out of
        // every fourth: at the bound the dense route answers, one node
        // above it planned evaluation does.
        let mut at_bound = Graph::new();
        let ids: Vec<gdx_graph::NodeId> = (0..gdx_nre::dense::DENSE_MAX_NODES)
            .map(|i| at_bound.add_const(&format!("n{i}")))
            .collect();
        for (i, w) in ids.windows(2).enumerate() {
            if i % 8 != 7 {
                at_bound.add_edge_labelled(w[0], "f", w[1]);
            }
            if i % 4 == 0 {
                at_bound.add_edge_labelled(w[0], "h", w[1]);
            }
        }
        let mut above = at_bound.clone();
        above.add_const("isolated");
        let q = PreparedQuery::parse("(x, f.f*.[h], y)").unwrap();
        let nre = &q.cnre().atoms[0].nre;
        assert!(ConstantPairs::eval(&at_bound, nre).is_some());
        assert!(ConstantPairs::eval(&above, nre).is_none());
        let mut s = session_2_2();
        let dense = s
            .intersect_rows(std::slice::from_ref(&at_bound), true, &q)
            .unwrap();
        let planned = s
            .intersect_rows(std::slice::from_ref(&above), true, &q)
            .unwrap();
        assert_eq!(dense, planned);
        assert_eq!(
            dense.0,
            planned_intersection(std::slice::from_ref(&at_bound), &q)
        );
        assert_eq!(dense.0.len(), 512 * 4);
    }

    #[test]
    fn dropped_stream_resumes_instead_of_restarting() {
        // Take one witness, drop the stream, then run the rest of the
        // workload: candidate 1 must never be re-examined.
        let mut s = session_2_2();
        let first = {
            let mut stream = s.solutions().unwrap();
            stream.next().expect("solutions exist").unwrap()
        };
        assert_eq!(s.candidates_examined(), 1);
        // solution_exists resumes the paused enumeration (prefix replay).
        assert!(s.solution_exists().unwrap().exists());
        assert_eq!(s.candidates_examined(), 1, "no candidate re-examined");
        // A full drain continues from candidate 2 onwards and includes the
        // witness already verified.
        let all: Vec<Graph> = s.solutions().unwrap().map(|g| g.unwrap()).collect();
        assert!(all.iter().any(|g| gdx_graph::is_isomorphic(g, &first)));
        let examined = s.candidates_examined();
        let q = PreparedQuery::parse("(\"c1\", f.f*, \"c2\")").unwrap();
        s.certain(&q).unwrap();
        assert_eq!(s.candidates_examined(), examined, "memo answers certain()");
    }

    #[test]
    fn solution_cap_is_observed() {
        let mut s = session_2_2().with_options(Options {
            solution_cap: Some(1),
            ..Options::default()
        });
        let sols: Vec<_> = s.solutions().unwrap().collect();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn row_limit_is_observed() {
        let mut s = session_2_2().with_options(Options {
            row_limit: Some(2),
            ..Options::default()
        });
        let q = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let (rows, exact) = s.certain_answers(&q).unwrap();
        assert_eq!(rows.len(), 2, "row_limit truncates the certain set");
        assert!(!exact, "a truncated answer set is not provably complete");
    }

    #[test]
    fn null_seed_is_observed() {
        let mut base = session_2_2();
        let mut seeded = session_2_2().with_options(Options {
            null_seed: 1000,
            ..Options::default()
        });
        let name_of = |s: &mut ExchangeSession| match s.representative().unwrap() {
            RepresentativeOutcome::Representative(rep) => rep
                .pattern
                .node_ids()
                .map(|id| rep.pattern.node(id))
                .filter(|n| !n.is_const())
                .map(|n| n.name().to_string())
                .collect::<Vec<_>>(),
            RepresentativeOutcome::ChaseFailed => panic!("chase succeeds"),
        };
        let base_nulls = name_of(&mut base);
        let seeded_nulls = name_of(&mut seeded);
        assert!(!base_nulls.is_empty());
        assert!(seeded_nulls.iter().all(|n| n.contains("100")));
        assert_ne!(base_nulls, seeded_nulls);
    }

    #[test]
    fn observed_session_matches_plain_session_byte_for_byte() {
        let obs = Obs::enabled();
        let mut observed = session_2_2().with_obs(obs.clone());
        let mut plain = session_2_2();
        let q = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let (rows_o, exact_o) = observed.certain_answers(&q).unwrap();
        let (rows_p, exact_p) = plain.certain_answers(&q).unwrap();
        assert_eq!(rows_o, rows_p, "recording must never perturb answers");
        assert_eq!(exact_o, exact_p);
        assert_eq!(observed.chase_stats(), plain.chase_stats());

        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("session.requests"), 1);
        assert_eq!(
            reg.counter("session.candidates"),
            observed.candidates_examined() as u64
        );
        assert_eq!(reg.counter("session.lower_bound.proven"), 1);
        assert_eq!(reg.counter("session.lower_bound.fallback"), 0);
        assert_eq!(
            reg.counter("chase.firings"),
            observed.chase_stats().steps as u64
        );
        assert!(reg.counter("egd.merges") >= 1, "Example 2.2 merges a null");
        let snap = reg.snapshot();
        let phase = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| h.count)
                .unwrap_or(0)
        };
        for name in [
            "session.phase.st_chase_us",
            "session.phase.egd_chase_us",
            "session.phase.candidate_chase_us",
            "session.phase.eval_us",
            "session.phase.verify_us",
            "session.phase.lower_bound_us",
        ] {
            assert!(phase(name) >= 1, "missing phase observation: {name}");
        }
        let trace = obs.render_trace(64);
        assert!(trace.contains("enter session.certain_answers"), "{trace}");
        assert!(trace.contains("enter session.representative"), "{trace}");
    }

    #[test]
    fn sat_backend_is_memoized_and_agrees() {
        use crate::reduction::{Reduction, ReductionFlavor};
        use gdx_sat::{Cnf, Lit};
        let mut f = Cnf::new(2);
        f.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        let red = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
        let mut s = ExchangeSession::new(red.setting.clone(), red.instance.clone());
        assert!(s.solution_exists_sat().unwrap().exists());
        // Second call reuses the memoized encoding.
        assert!(s.solution_exists_sat().unwrap().exists());
    }
}
