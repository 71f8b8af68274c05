//! Scenario execution and the differential oracles.
//!
//! [`run_scenario`] executes a [`Scenario`] under one [`Oracle`] and
//! returns the first [`SimFailure`], if any. Every op runs inside
//! `catch_unwind` — a panic anywhere in the engine is itself a failure —
//! and any `GdxError::Internal` escaping a public entry point is an
//! unsoundness (the session's own invariant check tripped).
//!
//! Strict oracles (`replay`, `planner`, `threads`, `fork`) compare
//! byte-rendered outcomes: the engine's contract for these pairs is
//! *byte-identical* results. Loose oracles (`chase-mode`, `sat`) compare
//! up to null renaming (graph isomorphism) and never compare free-text
//! diagnostics. The `faults` oracle runs the scenario once with generous
//! bounds and then re-runs it under adversarial boundary options,
//! asserting graceful degradation against the baseline. The `sandwich`
//! oracle squeezes every open query's answer between the pattern-level
//! lower bound and an independently drained family intersection.
//!
//! The `threads` and `faults` oracles run on a thread of their own under
//! a wall-clock [`WATCHDOG`], so a deadlock or livelock fails as
//! [`SimFailure::Hang`] instead of stalling the campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use gdx_chase::TgdChaseMode;
use gdx_common::{GdxError, Result};
use gdx_exchange::representative::RepresentativeOutcome;
use gdx_exchange::{CertainAnswer, ExchangeSession, Existence};
use gdx_graph::{is_isomorphic, Graph, Node};
use gdx_mapping::Setting;
use gdx_query::{PlannerMode, PreparedQuery};
use gdx_relational::Instance;

use crate::trace::{Op, Scenario, SimOptions};
use crate::Oracle;

/// A simulation failure: the evidence `gdx sim` campaigns hunt for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFailure {
    /// The scenario itself did not parse/validate — not an engine bug.
    Setup {
        /// What failed to build.
        message: String,
    },
    /// An engine panic escaped a public entry point.
    Panic {
        /// Index of the op that panicked.
        op: usize,
        /// The panic payload.
        message: String,
    },
    /// Two supposedly-equivalent executions disagreed.
    Mismatch {
        /// Index of the diverging op.
        op: usize,
        /// Which oracle compared them.
        oracle: &'static str,
        /// Left side's rendered outcome.
        left: String,
        /// Right side's rendered outcome.
        right: String,
    },
    /// A soundness contract was violated (internal error escaped,
    /// contradictory definite verdicts, truncation without
    /// `exact=false`, a cap overrun, …).
    Unsound {
        /// Index of the offending op.
        op: usize,
        /// What contract broke.
        message: String,
    },
    /// The run did not finish within the watchdog's wall-clock limit.
    Hang {
        /// Index of the op that was running when the limit passed.
        op: usize,
        /// The wall-clock limit that passed.
        limit: Duration,
    },
}

impl SimFailure {
    /// One-line deterministic summary — recorded in repro files and
    /// compared byte-for-byte on replay.
    pub fn summary(&self) -> String {
        fn clip(s: &str) -> String {
            let flat: String = s.replace('\n', "\\n");
            if flat.len() > 120 {
                let mut end = 120;
                while !flat.is_char_boundary(end) {
                    end -= 1;
                }
                format!("{}…", &flat[..end])
            } else {
                flat
            }
        }
        match self {
            SimFailure::Setup { message } => format!("setup: {}", clip(message)),
            SimFailure::Panic { op, message } => format!("panic op={op}: {}", clip(message)),
            SimFailure::Mismatch {
                op,
                oracle,
                left,
                right,
            } => format!(
                "mismatch op={op} oracle={oracle} left={} right={}",
                clip(left),
                clip(right)
            ),
            SimFailure::Unsound { op, message } => format!("unsound op={op}: {}", clip(message)),
            SimFailure::Hang { op, limit } => format!("hang op={op}: no result within {limit:?}"),
        }
    }
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimFailure::Setup { message } => write!(f, "setup failure: {message}"),
            SimFailure::Panic { op, message } => write!(f, "panic at op {op}: {message}"),
            SimFailure::Mismatch {
                op,
                oracle,
                left,
                right,
            } => write!(
                f,
                "oracle `{oracle}` mismatch at op {op}\n--- left ---\n{left}\n--- right ---\n{right}"
            ),
            SimFailure::Unsound { op, message } => write!(f, "unsound at op {op}: {message}"),
            SimFailure::Hang { op, limit } => {
                write!(f, "hang at op {op}: the run gave no result within {limit:?}")
            }
        }
    }
}

/// Knob forced onto one side of a differential pair (reapplied after
/// every `SetOptions` op, so trace-embedded mutations cannot unforce it).
#[derive(Debug, Clone, Copy)]
enum Knob {
    AsIs,
    Mode(TgdChaseMode),
    Planner(PlannerMode),
    Threads(usize),
}

impl Knob {
    fn apply(&self, opts: &mut SimOptions) {
        match self {
            Knob::AsIs => {}
            Knob::Mode(m) => opts.mode = *m,
            Knob::Planner(p) => opts.planner = *p,
            Knob::Threads(n) => opts.threads = Some(*n),
        }
    }
}

/// Fully-drained/partial solution-stream observation.
#[derive(Debug, Clone)]
struct SolsOut {
    graphs: Vec<Graph>,
    exact: bool,
    /// The stream was exhausted (only then is `exact` a stable claim —
    /// mid-stream it reflects evidence so far, which legitimately differs
    /// between a cold and a memoized session).
    finished: bool,
}

/// What one op produced, structured for both strict and loose compares.
#[derive(Debug, Clone)]
enum Outcome {
    Exist(Result<Existence>),
    Bool(Result<bool>),
    Cert(Result<CertainAnswer>),
    Rows(Result<(Vec<String>, bool)>),
    Sols(Result<SolsOut>),
    GraphState(String),
    Options(String),
}

fn err_kind(e: &GdxError) -> &'static str {
    match e {
        GdxError::Parse { .. } => "parse",
        GdxError::Schema(_) => "schema",
        GdxError::Unsupported(_) => "unsupported",
        GdxError::LimitExceeded(_) => "limit",
        GdxError::Internal(_) => "internal",
    }
}

impl Outcome {
    /// Full rendering for byte-compare oracles.
    fn render(&self) -> String {
        match self {
            Outcome::Exist(Ok(Existence::Exists(g))) => format!("exists: {g}"),
            Outcome::Exist(Ok(Existence::NoSolution)) => "no-solution".to_owned(),
            Outcome::Exist(Ok(Existence::Unknown(m))) => format!("unknown: {m}"),
            Outcome::Exist(Err(e)) => format!("error: {e}"),
            Outcome::Bool(Ok(b)) => b.to_string(),
            Outcome::Bool(Err(e)) => format!("error: {e}"),
            Outcome::Cert(Ok(CertainAnswer::Certain)) => "certain".to_owned(),
            Outcome::Cert(Ok(CertainAnswer::NotCertain(g))) => format!("not-certain: {g}"),
            Outcome::Cert(Ok(CertainAnswer::Unknown(m))) => format!("unknown: {m}"),
            Outcome::Cert(Err(e)) => format!("error: {e}"),
            Outcome::Rows(Ok((rows, exact))) => {
                format!("rows exact={exact} [{}]", rows.join("; "))
            }
            Outcome::Rows(Err(e)) => format!("error: {e}"),
            Outcome::Sols(Ok(s)) => {
                let texts: Vec<String> = s.graphs.iter().map(|g| g.to_string()).collect();
                let exact = if s.finished {
                    s.exact.to_string()
                } else {
                    // Mid-stream exactness is evidence-so-far, not a claim.
                    "~".to_owned()
                };
                format!(
                    "solutions n={} exact={exact} [{}]",
                    texts.len(),
                    texts.join(" || ")
                )
            }
            Outcome::Sols(Err(e)) => format!("error: {e}"),
            Outcome::GraphState(s) => format!("graph: {s}"),
            Outcome::Options(line) => format!("options: {line}"),
        }
    }

    /// Loose comparison: structural equality up to graph isomorphism and
    /// free-text diagnostics. Returns the rendered pair on mismatch.
    fn loose_mismatch(&self, other: &Outcome) -> Option<(String, String)> {
        let differ = || Some((self.render(), other.render()));
        match (self, other) {
            (Outcome::Exist(a), Outcome::Exist(b)) => match (a, b) {
                (Ok(Existence::Exists(x)), Ok(Existence::Exists(y))) => {
                    if is_isomorphic(x, y) {
                        None
                    } else {
                        differ()
                    }
                }
                (Ok(Existence::NoSolution), Ok(Existence::NoSolution))
                | (Ok(Existence::Unknown(_)), Ok(Existence::Unknown(_))) => None,
                (Err(x), Err(y)) if err_kind(x) == err_kind(y) => None,
                _ => differ(),
            },
            (Outcome::Bool(a), Outcome::Bool(b)) => match (a, b) {
                (Ok(x), Ok(y)) if x == y => None,
                (Err(x), Err(y)) if err_kind(x) == err_kind(y) => None,
                _ => differ(),
            },
            (Outcome::Cert(a), Outcome::Cert(b)) => match (a, b) {
                (Ok(CertainAnswer::Certain), Ok(CertainAnswer::Certain))
                | (Ok(CertainAnswer::Unknown(_)), Ok(CertainAnswer::Unknown(_))) => None,
                (Ok(CertainAnswer::NotCertain(x)), Ok(CertainAnswer::NotCertain(y))) => {
                    if is_isomorphic(x, y) {
                        None
                    } else {
                        differ()
                    }
                }
                (Err(x), Err(y)) if err_kind(x) == err_kind(y) => None,
                _ => differ(),
            },
            (Outcome::Rows(a), Outcome::Rows(b)) => match (a, b) {
                (Ok(x), Ok(y)) if x == y => None,
                (Err(x), Err(y)) if err_kind(x) == err_kind(y) => None,
                _ => differ(),
            },
            (Outcome::Sols(a), Outcome::Sols(b)) => match (a, b) {
                (Ok(x), Ok(y)) => {
                    if x.finished != y.finished
                        || (x.finished && x.exact != y.exact)
                        || !iso_matched(&x.graphs, &y.graphs)
                    {
                        differ()
                    } else {
                        None
                    }
                }
                (Err(x), Err(y)) if err_kind(x) == err_kind(y) => None,
                _ => differ(),
            },
            (Outcome::GraphState(a), Outcome::GraphState(b)) if a == b => None,
            (Outcome::Options(a), Outcome::Options(b)) if a == b => None,
            _ => differ(),
        }
    }

    /// The typed error carried by this outcome, if any.
    fn error(&self) -> Option<&GdxError> {
        match self {
            Outcome::Exist(Err(e))
            | Outcome::Bool(Err(e))
            | Outcome::Cert(Err(e))
            | Outcome::Rows(Err(e))
            | Outcome::Sols(Err(e)) => Some(e),
            _ => None,
        }
    }
}

/// Greedy perfect matching of two small graph families up to isomorphism.
fn iso_matched(xs: &[Graph], ys: &[Graph]) -> bool {
    if xs.len() != ys.len() {
        return false;
    }
    let mut used = vec![false; ys.len()];
    'outer: for x in xs {
        for (j, y) in ys.iter().enumerate() {
            if !used[j] && is_isomorphic(x, y) {
                used[j] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One executing side: a long-lived session plus the mutable work graph
/// (and, for the fork oracle, its compacted twin).
struct Side {
    setting: Setting,
    instance: Instance,
    session: ExchangeSession,
    work: Graph,
    twin: Option<Graph>,
    opts: SimOptions,
    knob: Knob,
}

impl Side {
    fn new(sc: &Scenario, knob: Knob, with_twin: bool) -> std::result::Result<Side, SimFailure> {
        Side::with_options(sc, sc.options.clone(), knob, with_twin)
    }

    fn with_options(
        sc: &Scenario,
        mut opts: SimOptions,
        knob: Knob,
        with_twin: bool,
    ) -> std::result::Result<Side, SimFailure> {
        let setup = |what: &str, e: &dyn std::fmt::Display| SimFailure::Setup {
            message: format!("{what}: {e}"),
        };
        let setting =
            gdx_mapping::dsl::parse_setting(&sc.setting).map_err(|e| setup("setting parse", &e))?;
        setting.validate().map_err(|e| setup("setting", &e))?;
        let instance = Instance::parse(setting.source.clone(), &sc.instance)
            .map_err(|e| setup("instance parse", &e))?;
        let work = if sc.graph.trim().is_empty() {
            Graph::new()
        } else {
            Graph::parse(&sc.graph).map_err(|e| setup("graph parse", &e))?
        };
        knob.apply(&mut opts);
        let session =
            ExchangeSession::new(setting.clone(), instance.clone()).with_options(opts.to_options());
        let twin = with_twin.then(|| work.compact());
        Ok(Side {
            setting,
            instance,
            session,
            work,
            twin,
            opts,
            knob,
        })
    }

    /// A cold session over this side's current state — the replay model.
    fn fresh(&self) -> Side {
        Side {
            setting: self.setting.clone(),
            instance: self.instance.clone(),
            session: ExchangeSession::new(self.setting.clone(), self.instance.clone())
                .with_options(self.opts.to_options()),
            work: self.work.clone(),
            twin: None,
            opts: self.opts.clone(),
            knob: self.knob,
        }
    }

    /// Executes one op, converting engine panics into `Err(message)`.
    fn apply(&mut self, op: &Op) -> std::result::Result<Outcome, String> {
        catch_unwind(AssertUnwindSafe(|| self.apply_inner(op))).map_err(panic_message)
    }

    fn apply_inner(&mut self, op: &Op) -> Outcome {
        match op {
            Op::Chase => Outcome::Exist(self.session.solution_exists()),
            Op::IsSolution => Outcome::Bool(self.session.is_solution(&self.work)),
            Op::Certain(q) => match PreparedQuery::parse(q) {
                Ok(pq) => Outcome::Cert(self.session.certain(&pq)),
                Err(e) => Outcome::Cert(Err(e)),
            },
            Op::CertainAnswers(q) => match PreparedQuery::parse(q) {
                Ok(pq) => Outcome::Rows(
                    self.session
                        .certain_answers(&pq)
                        .map(|(rows, exact)| (row_texts(&rows), exact)),
                ),
                Err(e) => Outcome::Rows(Err(e)),
            },
            Op::Solutions(take) => {
                let stream = match self.session.solutions() {
                    Ok(s) => s,
                    Err(e) => return Outcome::Sols(Err(e)),
                };
                let mut stream = stream;
                let mut graphs = Vec::new();
                let mut finished = false;
                loop {
                    if take.is_some_and(|n| graphs.len() >= n) {
                        break;
                    }
                    match stream.next() {
                        Some(Ok(g)) => graphs.push(g),
                        Some(Err(e)) => return Outcome::Sols(Err(e)),
                        None => {
                            finished = true;
                            break;
                        }
                    }
                }
                let exact = stream.exact();
                Outcome::Sols(Ok(SolsOut {
                    graphs,
                    exact,
                    finished,
                }))
            }
            Op::InsertEdge(s, l, d) => {
                self.work.add_edge_consts(s, l, d);
                if let Some(twin) = &mut self.twin {
                    twin.add_edge_consts(s, l, d);
                }
                Outcome::GraphState(self.work.to_string())
            }
            Op::Fork => {
                let child = self.work.fork();
                self.work = child;
                if let Some(twin) = &mut self.twin {
                    *twin = twin.compact();
                }
                Outcome::GraphState(self.work.to_string())
            }
            Op::Compact => {
                self.work = self.work.compact();
                if let Some(twin) = &mut self.twin {
                    *twin = twin.compact();
                }
                Outcome::GraphState(self.work.to_string())
            }
            Op::SetOptions(o) => {
                self.opts = o.clone();
                self.knob.apply(&mut self.opts);
                self.session.set_options(self.opts.to_options());
                // Render the *requested* options: the side-local forced
                // knob must not show up in cross-side comparisons.
                Outcome::Options(o.to_line())
            }
        }
    }

    /// Fork-oracle invariant: overlay chain and compacted twin must stay
    /// byte-identical.
    fn twin_divergence(&self) -> Option<(String, String)> {
        let twin = self.twin.as_ref()?;
        let (w, t) = (self.work.to_string(), twin.to_string());
        (w != t).then_some((w, t))
    }
}

/// Fails on a `GdxError::Internal` escaping a public entry point.
fn check_no_internal(op: usize, outcome: &Outcome) -> std::result::Result<(), SimFailure> {
    if let Some(GdxError::Internal(m)) = outcome.error() {
        return Err(SimFailure::Unsound {
            op,
            message: format!("internal error escaped: {m}"),
        });
    }
    Ok(())
}

/// Executes `sc` under `oracle`; `Ok(())` means every check passed.
pub fn run_scenario(sc: &Scenario, oracle: Oracle) -> std::result::Result<(), SimFailure> {
    match oracle {
        Oracle::Replay => run_replay(sc),
        Oracle::ChaseMode => run_pair(
            sc,
            oracle,
            Knob::Mode(TgdChaseMode::SemiNaive),
            Knob::Mode(TgdChaseMode::Naive),
            false,
            &AtomicUsize::new(0),
        ),
        Oracle::Planner => run_pair(
            sc,
            oracle,
            Knob::Planner(PlannerMode::Auto),
            Knob::Planner(PlannerMode::Materialize),
            true,
            &AtomicUsize::new(0),
        ),
        Oracle::Threads => {
            let sc = sc.clone();
            watchdog(WATCHDOG, move |progress| {
                run_pair(
                    &sc,
                    oracle,
                    Knob::Threads(1),
                    Knob::Threads(4),
                    true,
                    progress,
                )
            })
        }
        Oracle::Sat => run_sat(sc),
        Oracle::Fork => run_fork(sc),
        Oracle::Faults => {
            let sc = sc.clone();
            watchdog(WATCHDOG, move |progress| faults::run(&sc, progress))
        }
        Oracle::Sandwich => run_sandwich(sc),
    }
}

/// Wall-clock limit of one `threads` or `faults` run. A scenario
/// finishes in well under a second; only a hang comes near it.
pub const WATCHDOG: Duration = Duration::from_secs(20);

/// Runs `run` on a thread of its own and waits at most `limit` for its
/// result. `run` records the index of the op it is executing in the
/// counter it is handed; past the limit, that index becomes a
/// [`SimFailure::Hang`]. A hung thread cannot be stopped: it is left
/// behind, detached, and the caller moves on.
pub(crate) fn watchdog<F>(limit: Duration, run: F) -> std::result::Result<(), SimFailure>
where
    F: FnOnce(&AtomicUsize) -> std::result::Result<(), SimFailure> + Send + 'static,
{
    let progress = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel();
    let worker_progress = Arc::clone(&progress);
    #[expect(
        clippy::disallowed_methods,
        reason = "the watchdog must outlive a hung run, so the run gets a detachable thread of its own"
    )]
    let handle = std::thread::spawn(move || {
        // The receiver is gone only after a timeout: nobody listens.
        let _ = tx.send(run(&worker_progress));
    });
    let op = || progress.load(Ordering::SeqCst);
    match rx.recv_timeout(limit) {
        Ok(result) => {
            // The run has sent its result, so the join returns at once.
            let _ = handle.join();
            result
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(SimFailure::Hang { op: op(), limit }),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(SimFailure::Panic {
            op: op(),
            message: match handle.join() {
                Err(payload) => panic_message(payload),
                Ok(()) => "watchdog run ended without a result".to_owned(),
            },
        }),
    }
}

/// Long-lived memoizing session vs a cold session replaying the same
/// state — memoization must never change an answer. A third cold side
/// runs with metrics + span tracing recording (on a [`VirtualClock`],
/// so timestamps are deterministic too) and must render byte-identically
/// as well: observability is part of the replay contract.
fn run_replay(sc: &Scenario) -> std::result::Result<(), SimFailure> {
    let mut live = Side::new(sc, Knob::AsIs, false)?;
    for (i, op) in sc.ops.iter().enumerate() {
        let lo = live
            .apply(op)
            .map_err(|message| SimFailure::Panic { op: i, message })?;
        check_no_internal(i, &lo)?;
        if op.is_query() {
            let mut fresh = live.fresh();
            let mut observed = live.fresh();
            observed
                .session
                .set_obs(gdx_obs::Obs::with_clock(std::sync::Arc::new(
                    gdx_obs::VirtualClock::new(),
                )));
            for (fresh_side, oracle) in [(&mut fresh, "replay"), (&mut observed, "replay-observed")]
            {
                let fo = fresh_side
                    .apply(op)
                    .map_err(|message| SimFailure::Panic { op: i, message })?;
                check_no_internal(i, &fo)?;
                let (l, r) = (lo.render(), fo.render());
                if l != r {
                    return Err(SimFailure::Mismatch {
                        op: i,
                        oracle,
                        left: l,
                        right: r,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Two identically-driven sessions differing in exactly one knob. The
/// index of each op is stored into `progress` before it runs (the
/// watchdog reports it on a hang).
fn run_pair(
    sc: &Scenario,
    oracle: Oracle,
    kl: Knob,
    kr: Knob,
    strict: bool,
    progress: &AtomicUsize,
) -> std::result::Result<(), SimFailure> {
    let name = oracle.name();
    let mut left = Side::new(sc, kl, false)?;
    let mut right = Side::new(sc, kr, false)?;
    if oracle == Oracle::Threads {
        // Work counters must read the same at any worker count.
        left.session.set_obs(gdx_obs::Obs::enabled());
        right.session.set_obs(gdx_obs::Obs::enabled());
    }
    for (i, op) in sc.ops.iter().enumerate() {
        progress.store(i, Ordering::SeqCst);
        let lo = left
            .apply(op)
            .map_err(|message| SimFailure::Panic { op: i, message })?;
        let ro = right
            .apply(op)
            .map_err(|message| SimFailure::Panic { op: i, message })?;
        check_no_internal(i, &lo)?;
        check_no_internal(i, &ro)?;
        let mismatch = if strict {
            let (l, r) = (lo.render(), ro.render());
            (l != r).then_some((l, r))
        } else {
            lo.loose_mismatch(&ro)
        };
        if let Some((left_r, right_r)) = mismatch {
            return Err(SimFailure::Mismatch {
                op: i,
                oracle: name,
                left: left_r,
                right: right_r,
            });
        }
        if oracle == Oracle::ChaseMode {
            // Confluence contract on stratified sets: both modes fire the
            // same number of tgd steps (seminaive_equiv pins this on the
            // engine level; the session level must preserve it).
            let (ls, rs) = (
                left.session.chase_stats().steps,
                right.session.chase_stats().steps,
            );
            if ls != rs {
                return Err(SimFailure::Mismatch {
                    op: i,
                    oracle: name,
                    left: format!("chase steps {ls}"),
                    right: format!("chase steps {rs}"),
                });
            }
        }
        if oracle == Oracle::Threads {
            let (l, r) = (lower_bound_counters(&left), lower_bound_counters(&right));
            if l != r {
                return Err(SimFailure::Mismatch {
                    op: i,
                    oracle: name,
                    left: l,
                    right: r,
                });
            }
        }
    }
    Ok(())
}

/// The side's `session.lower_bound.*` counters, rendered.
fn lower_bound_counters(side: &Side) -> String {
    let Some(reg) = side.session.obs().registry() else {
        return "no registry".to_owned();
    };
    format!(
        "lower bound proven={} fallback={}",
        reg.counter("session.lower_bound.proven"),
        reg.counter("session.lower_bound.fallback")
    )
}

/// SAT-encoded existence vs chase-driven existence: definite verdicts
/// must never contradict (SAT may be `Unsupported` outside its
/// single-symbol/union fragment; that is not a failure).
fn run_sat(sc: &Scenario) -> std::result::Result<(), SimFailure> {
    let mut side = Side::new(sc, Knob::AsIs, false)?;
    for (i, op) in sc.ops.iter().enumerate() {
        let out = side
            .apply(op)
            .map_err(|message| SimFailure::Panic { op: i, message })?;
        check_no_internal(i, &out)?;
        if let Op::Chase = op {
            let sat = catch_unwind(AssertUnwindSafe(|| side.session.solution_exists_sat()))
                .map_err(|p| SimFailure::Panic {
                    op: i,
                    message: panic_message(p),
                })?;
            if let Err(GdxError::Internal(m)) = &sat {
                return Err(SimFailure::Unsound {
                    op: i,
                    message: format!("internal error escaped SAT path: {m}"),
                });
            }
            let contradiction = matches!(
                (&out, &sat),
                (
                    Outcome::Exist(Ok(Existence::Exists(_))),
                    Ok(Existence::NoSolution)
                ) | (
                    Outcome::Exist(Ok(Existence::NoSolution)),
                    Ok(Existence::Exists(_))
                )
            );
            if contradiction {
                let sat_render = Outcome::Exist(sat).render();
                return Err(SimFailure::Mismatch {
                    op: i,
                    oracle: "sat",
                    left: out.render(),
                    right: sat_render,
                });
            }
        }
    }
    Ok(())
}

/// Copy-on-write fork overlays vs compacted deep copies: byte-identical
/// text and identical solution verdicts at every step.
fn run_fork(sc: &Scenario) -> std::result::Result<(), SimFailure> {
    let mut side = Side::new(sc, Knob::AsIs, true)?;
    for (i, op) in sc.ops.iter().enumerate() {
        let out = side
            .apply(op)
            .map_err(|message| SimFailure::Panic { op: i, message })?;
        check_no_internal(i, &out)?;
        if let Some((work, twin)) = side.twin_divergence() {
            return Err(SimFailure::Mismatch {
                op: i,
                oracle: "fork",
                left: format!("fork-chain graph: {work}"),
                right: format!("compacted twin: {twin}"),
            });
        }
        if let Op::IsSolution = op {
            // The twin must agree on the solution verdict too.
            let twin = match &side.twin {
                Some(t) => t.clone(),
                None => continue,
            };
            let tv = catch_unwind(AssertUnwindSafe(|| side.session.is_solution(&twin))).map_err(
                |p| SimFailure::Panic {
                    op: i,
                    message: panic_message(p),
                },
            )?;
            let (l, r) = (out.render(), Outcome::Bool(tv).render());
            if l != r {
                return Err(SimFailure::Mismatch {
                    op: i,
                    oracle: "fork",
                    left: l,
                    right: r,
                });
            }
        }
    }
    Ok(())
}

/// The certain-answer sandwich. After every `certain-answers` op, over
/// the side's current options:
///
/// * the pattern-level lower bound lies inside the intersection of the
///   drained family's constant rows, computed here from the streamed
///   graphs (when the family has a member);
/// * a fresh session's `certain_answers`, which may return early once
///   the two bounds meet, equals that intersection, and equals the
///   answer of a session whose family was drained first.
fn run_sandwich(sc: &Scenario) -> std::result::Result<(), SimFailure> {
    let mut side = Side::new(sc, Knob::AsIs, false)?;
    for (i, op) in sc.ops.iter().enumerate() {
        let out = side
            .apply(op)
            .map_err(|message| SimFailure::Panic { op: i, message })?;
        check_no_internal(i, &out)?;
        if let Op::CertainAnswers(q) = op {
            let Ok(query) = PreparedQuery::parse(q) else {
                continue;
            };
            catch_unwind(AssertUnwindSafe(|| check_sandwich(&side, i, &query))).map_err(
                |p| SimFailure::Panic {
                    op: i,
                    message: panic_message(p),
                },
            )??;
        }
    }
    Ok(())
}

/// One sandwich check (see [`run_sandwich`]). Engine errors skip the
/// check: the other oracles own error behaviour.
fn check_sandwich(
    side: &Side,
    op: usize,
    query: &PreparedQuery,
) -> std::result::Result<(), SimFailure> {
    let options = side.opts.to_options();
    let session =
        || ExchangeSession::new(side.setting.clone(), side.instance.clone()).with_options(options);
    let mismatch = |what: &str, left: String, right: String| {
        Err(SimFailure::Mismatch {
            op,
            oracle: "sandwich",
            left: format!("{what}: {left}"),
            right,
        })
    };

    // The family, drained on a session of its own.
    let mut drained = session();
    let (graphs, family_exact) = {
        let Ok(mut stream) = drained.solutions() else {
            return Ok(());
        };
        let mut graphs = Vec::new();
        for g in &mut stream {
            let Ok(g) = g else {
                return Ok(());
            };
            graphs.push(g);
        }
        (graphs, stream.exact())
    };
    let mut per_graph = Vec::with_capacity(graphs.len());
    for g in &graphs {
        let Ok(bindings) = query.evaluate(g) else {
            return Ok(());
        };
        per_graph.push(bindings.constant_rows(g));
    }
    let intersection = per_graph.split_first().map(|(first, rest)| {
        let mut inter = first.clone();
        inter.retain(|row| rest.iter().all(|rows| rows.contains(row)));
        inter
    });

    // Lower bound ⊆ ⋂ family.
    if let Some(inter) = &intersection {
        if let Ok(RepresentativeOutcome::Representative(rep)) = drained.representative() {
            if let Ok(lower) = rep.certain_answer_lower_bound(query.cnre(), &options) {
                if let Some(row) = lower.iter().find(|row| !inter.contains(*row)) {
                    return Err(SimFailure::Unsound {
                        op,
                        message: format!(
                            "lower bound row {} is missing from the family intersection",
                            row_texts(std::slice::from_ref(row)).join("")
                        ),
                    });
                }
            }
        }
    }

    // The same answer, sorted and cut as the session returns it.
    let mut rows: Vec<Vec<Node>> = intersection.unwrap_or_default().into_iter().collect();
    rows.sort_by_key(|r| r.iter().map(|n| n.name().as_str()).collect::<Vec<_>>());
    let mut exact = family_exact;
    if let Some(cap) = options.row_limit {
        if rows.len() > cap {
            rows.truncate(cap);
            exact = false;
        }
    }
    let render = |(rows, exact): (Vec<Vec<Node>>, bool)| {
        Outcome::Rows(Ok((row_texts(&rows), exact))).render()
    };
    let reference = render((rows, exact));
    let Ok(fresh) = session().certain_answers(query) else {
        return Ok(());
    };
    let fresh = render(fresh);
    if fresh != reference {
        return mismatch("fresh session", fresh, reference);
    }
    let Ok(warm) = drained.certain_answers(query) else {
        return Ok(());
    };
    let warm = render(warm);
    if warm != reference {
        return mismatch("drained session", warm, reference);
    }
    Ok(())
}

/// Answer rows as comma-joined constant names, the form outcomes render.
fn row_texts(rows: &[Vec<Node>]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|n| n.name().to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// Fault injection: baseline vs boundary-resource sweeps.
pub(crate) mod faults {
    use super::*;

    /// Generous baseline for the sweep to compare against. `max_steps`
    /// stays modest so chase-termination-boundary (cyclic) scenarios
    /// reach their typed `LimitExceeded` quickly.
    fn baseline_options(sc: &Scenario) -> SimOptions {
        SimOptions {
            row_limit: None,
            solution_cap: None,
            max_steps: 300,
            ..sc.options.clone()
        }
    }

    struct RunOut {
        outcomes: Vec<Outcome>,
        chase_steps: usize,
    }

    /// Runs every op under `opts` (ignoring trace-embedded `SetOptions`,
    /// which would clobber the swept knobs). Panics and escaped internal
    /// errors fail immediately; typed errors are recorded as outcomes.
    fn exec_all(
        sc: &Scenario,
        opts: &SimOptions,
        progress: &AtomicUsize,
    ) -> std::result::Result<RunOut, SimFailure> {
        let mut side = Side::with_options(sc, opts.clone(), Knob::AsIs, false)?;
        let mut outcomes = Vec::with_capacity(sc.ops.len());
        for (i, op) in sc.ops.iter().enumerate() {
            progress.store(i, Ordering::SeqCst);
            if let Op::SetOptions(_) = op {
                outcomes.push(Outcome::Options("skipped".to_owned()));
                continue;
            }
            let out = side
                .apply(op)
                .map_err(|message| SimFailure::Panic { op: i, message })?;
            check_no_internal(i, &out)?;
            outcomes.push(out);
        }
        Ok(RunOut {
            chase_steps: side.session.chase_stats().steps,
            outcomes,
        })
    }

    /// Graceful-degradation checks of one swept run against the baseline.
    fn check_degradation(
        base: &RunOut,
        run: &RunOut,
        opts: &SimOptions,
    ) -> std::result::Result<(), SimFailure> {
        for (i, (b, o)) in base.outcomes.iter().zip(&run.outcomes).enumerate() {
            let unsound = |message: String| {
                Err(SimFailure::Unsound {
                    op: i,
                    message: format!("[{}] {message}", opts.to_line()),
                })
            };
            match (b, o) {
                // Definite existence verdicts are sound at any bound:
                // they must never contradict the unconstrained baseline.
                (Outcome::Exist(Ok(x)), Outcome::Exist(Ok(y))) => {
                    if matches!(
                        (x, y),
                        (Existence::Exists(_), Existence::NoSolution)
                            | (Existence::NoSolution, Existence::Exists(_))
                    ) {
                        return unsound(format!(
                            "existence contradiction: baseline {} vs swept {}",
                            Outcome::Exist(Ok(x.clone())).render(),
                            Outcome::Exist(Ok(y.clone())).render()
                        ));
                    }
                }
                // Solution checking takes no resource bounds: both-Ok
                // verdicts must be equal.
                (Outcome::Bool(Ok(x)), Outcome::Bool(Ok(y))) if x != y => {
                    return unsound(format!("is_solution flipped: {x} vs {y}"));
                }
                (Outcome::Cert(Ok(x)), Outcome::Cert(Ok(y))) => {
                    if matches!(
                        (x, y),
                        (CertainAnswer::Certain, CertainAnswer::NotCertain(_))
                            | (CertainAnswer::NotCertain(_), CertainAnswer::Certain)
                    ) {
                        return unsound("certainty contradiction under bounds".to_owned());
                    }
                }
                (Outcome::Rows(Ok((brows, bexact))), Outcome::Rows(Ok((rows, exact)))) => {
                    if let Some(cap) = opts.row_limit {
                        if rows.len() > cap {
                            return unsound(format!(
                                "row_limit={cap} overrun: {} rows",
                                rows.len()
                            ));
                        }
                    }
                    if *bexact && rows.len() < brows.len() && *exact {
                        return unsound(format!(
                            "rows truncated ({} < {}) but exact=true",
                            rows.len(),
                            brows.len()
                        ));
                    }
                    if *bexact && *exact && rows != brows {
                        return unsound("two exact answer sets differ".to_owned());
                    }
                }
                (Outcome::Sols(Ok(bs)), Outcome::Sols(Ok(s))) => {
                    if let Some(cap) = opts.solution_cap {
                        if s.graphs.len() > cap {
                            return unsound(format!(
                                "solution_cap={cap} overrun: {} solutions",
                                s.graphs.len()
                            ));
                        }
                    }
                    if bs.finished
                        && bs.exact
                        && s.graphs.len() < bs.graphs.len()
                        && s.finished
                        && s.exact
                    {
                        return unsound(format!(
                            "solutions truncated ({} < {}) but exact=true",
                            s.graphs.len(),
                            bs.graphs.len()
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    pub(crate) fn run(
        sc: &Scenario,
        progress: &AtomicUsize,
    ) -> std::result::Result<(), SimFailure> {
        let base_opts = baseline_options(sc);
        let base = exec_all(sc, &base_opts, progress)?;

        // Measure "need" for the just-below-need boundaries.
        let max_rows = base
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Rows(Ok((rows, _))) => Some(rows.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let max_sols = base
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Sols(Ok(s)) => Some(s.graphs.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0);

        let mut sweeps: Vec<SimOptions> = Vec::new();
        for cap in boundary_values(max_sols) {
            sweeps.push(SimOptions {
                solution_cap: Some(cap),
                ..base_opts.clone()
            });
        }
        for cap in boundary_values(max_rows) {
            sweeps.push(SimOptions {
                row_limit: Some(cap),
                ..base_opts.clone()
            });
        }
        for steps in boundary_values(base.chase_steps) {
            sweeps.push(SimOptions {
                max_steps: steps,
                ..base_opts.clone()
            });
        }
        for mg in [0usize, 1] {
            sweeps.push(SimOptions {
                max_graphs: mg,
                ..base_opts.clone()
            });
        }
        // Everything starved at once: pure no-panic/no-internal probe.
        sweeps.push(SimOptions {
            row_limit: Some(0),
            solution_cap: Some(0),
            max_steps: 0,
            max_graphs: 0,
            ..base_opts.clone()
        });
        for opts in &sweeps {
            let out = exec_all(sc, opts, progress)?;
            check_degradation(&base, &out, opts)?;
        }

        // Thread sweep: byte-identical to the baseline at any worker
        // count (including the documented Fixed(0) → 1 clamp).
        for t in [0usize, 2, 4] {
            let opts = SimOptions {
                threads: Some(t),
                ..base_opts.clone()
            };
            let out = exec_all(sc, &opts, progress)?;
            for (i, (b, o)) in base.outcomes.iter().zip(&out.outcomes).enumerate() {
                let (l, r) = (b.render(), o.render());
                if l != r {
                    return Err(SimFailure::Mismatch {
                        op: i,
                        oracle: "faults",
                        left: format!("threads=auto: {l}"),
                        right: format!("threads={t}: {r}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// `0`, `1`, and just-below-need (deduplicated, ordered).
    fn boundary_values(need: usize) -> Vec<usize> {
        let mut vals = vec![0, 1];
        if need >= 3 {
            vals.push(need - 1);
        }
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_passes_a_finished_run_through() {
        let failure = SimFailure::Setup {
            message: "scenario".to_owned(),
        };
        let expected = failure.clone();
        assert_eq!(watchdog(WATCHDOG, |_| Ok(())), Ok(()));
        assert_eq!(watchdog(WATCHDOG, move |_| Err(failure)), Err(expected));
    }

    #[test]
    fn watchdog_turns_a_hang_into_a_failure() {
        // The run blocks until the test releases it, after the verdict.
        let (release, blocked) = mpsc::channel::<()>();
        let limit = Duration::from_millis(50);
        let got = watchdog(limit, move |progress| {
            progress.store(3, Ordering::SeqCst);
            let _ = blocked.recv();
            Ok(())
        });
        release.send(()).expect("the run is still waiting");
        match got {
            Err(SimFailure::Hang { limit: l, .. }) => assert_eq!(l, limit),
            other => panic!("expected a hang, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_reports_a_panicking_run() {
        let got = watchdog(WATCHDOG, |progress| {
            progress.store(2, Ordering::SeqCst);
            panic!("boom")
        });
        assert_eq!(
            got,
            Err(SimFailure::Panic {
                op: 2,
                message: "boom".to_owned()
            })
        );
    }
}
