//! The single knob surface of the exchange stack.
//!
//! Every session entry point observes one [`Options`] value (absorbing the
//! former `SolverConfig`): the candidate-instantiation bounds, the two
//! chase configurations, the query planner mode, answer/solution caps, and
//! the fresh-null name seed. One struct, threaded everywhere — no method
//! gets to pick its own defaults behind the caller's back.

use gdx_chase::{EgdChaseConfig, TgdChaseConfig};
use gdx_pattern::InstantiationConfig;
use gdx_query::PlannerMode;
use gdx_runtime::{Runtime, Threads};

/// Solver and evaluation knobs shared by every [`crate::ExchangeSession`]
/// entry point.
///
/// The default value reproduces the historical `SolverConfig::default()`
/// behaviour exactly: bounded candidate search, automatic access-path
/// planning, no extra caps, null names from `~0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Canonical-instantiation bounds (witness enumeration per pattern
    /// edge, candidate-family cap).
    pub instantiation: InstantiationConfig,
    /// Adapted-chase bounds (egd steps on graph patterns). Its
    /// `path_bound` caps only the egd chase: the certain-answer lower
    /// bound follows pattern paths of any length. Both read pattern
    /// edges reversed when `allow_reversed` is set.
    pub egd_chase: EgdChaseConfig,
    /// Target-tgd chase bounds and evaluation mode.
    pub tgd_chase: TgdChaseConfig,
    /// Access-path planner mode for the session's *query-answering*
    /// evaluations (the `certain*` family).
    /// [`PlannerMode::Materialize`] forces the single-strategy baseline
    /// there. The internal enforcement engines (solution checking, chase,
    /// egd repair) always use the cost-based planner — their baseline is
    /// reachable directly via
    /// [`PreparedQuery::evaluate_seeded_mode`](gdx_query::PreparedQuery::evaluate_seeded_mode).
    pub planner: PlannerMode,
    /// Cap on the number of rows returned by answer-set computations
    /// (e.g. [`crate::ExchangeSession::certain_answers`] truncates its
    /// result to this many rows). `None` = unbounded. `Some(0)` is valid
    /// and returns no rows; whenever rows were actually withheld the
    /// accompanying exactness flag is `false`.
    pub row_limit: Option<usize>,
    /// Cap on the number of solutions yielded by
    /// [`crate::ExchangeSession::solutions`]. Stopping at the cap leaves
    /// candidates unexamined, so exactness claims are withdrawn
    /// (`exact() == false`). `None` = bounded only by the candidate
    /// family. `Some(0)` is valid: the stream yields nothing, and claims
    /// exactness only when there were no candidates to examine at all.
    pub solution_cap: Option<usize>,
    /// First fresh-null name used by the session's source-to-target chase
    /// (`~{seed}`, see [`gdx_graph::NullFactory::starting_at`]) — lets
    /// co-hosted sessions keep disjoint, reproducible null namespaces.
    pub null_seed: u64,
    /// Worker count for the session's parallel layers (the `gdx-runtime`
    /// pool): sharded chase delta joins, the speculative head pre-filter,
    /// partitioned NRE materialization, and the certain-answer fan-out
    /// over the solution family. Defaults to [`Threads::Auto`]
    /// (`GDX_THREADS` env, else the machine's available parallelism).
    /// Every session result is byte-identical at any worker count —
    /// threads only change wall-clock. This knob also governs the
    /// engines' pools, overriding `tgd_chase.threads`.
    /// [`Threads::Fixed`]`(0)` is not an error: worker counts clamp to
    /// at least one, so it behaves exactly like `Fixed(1)`.
    pub threads: Threads,
    /// Per-request wall-clock budget in microseconds, measured on the
    /// session's *injected* observability clock ([`gdx_obs::Clock`] via
    /// [`crate::ExchangeSession::set_obs`]) — library code never reads
    /// the wall clock itself. Entry points activate it by attaching a
    /// real clock: the server and CLI inject a `MonotonicClock`, the
    /// simulator a `VirtualClock`; with the default disabled handle (or
    /// a `NoopClock`) elapsed time is always `0` and the deadline is
    /// inert. The budget is checked **between candidates** of the
    /// solution enumeration (the unbounded part of a request): an
    /// expired deadline pauses the enumeration exactly like a dropped
    /// [`crate::SolutionStream`] — results degrade to
    /// `exact = false` / `Unknown` and the *next* call resumes where the
    /// budget ran out. A definite verdict is never flipped: truncation
    /// can withhold a `Certain`/`NoSolution` claim, and a
    /// counterexample-backed `NotCertain` found within the budget stays
    /// sound. `Some(0)` never expires on a frozen clock (the comparison
    /// is strictly greater-than), so the knob composes with byte-stable
    /// NoopClock dumps.
    ///
    /// Unlike every other knob, the deadline never changes what a
    /// memoized artifact *contains* — only how far one call gets — so
    /// [`crate::ExchangeSession::set_deadline`] updates it without
    /// invalidating session memos (the warm-session pool of
    /// `gdx-server` depends on exactly that).
    pub deadline_micros: Option<u64>,
}

impl Options {
    /// Options with a different candidate-family cap — the most common
    /// adjustment (exactness over reductions needs `2^n` candidates).
    pub fn with_max_graphs(mut self, max_graphs: usize) -> Options {
        self.instantiation.max_graphs = max_graphs;
        self
    }

    /// Options with a fixed planner mode.
    pub fn with_planner(mut self, planner: PlannerMode) -> Options {
        self.planner = planner;
        self
    }

    /// Options with a fixed worker count.
    pub fn with_threads(mut self, threads: Threads) -> Options {
        self.threads = threads;
        self
    }

    /// Options with a per-request wall-clock budget (µs on the injected
    /// clock; see [`Options::deadline_micros`]).
    pub fn with_deadline_micros(mut self, deadline_micros: Option<u64>) -> Options {
        self.deadline_micros = deadline_micros;
        self
    }

    /// The runtime handle these options denote (resolved now).
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.threads)
    }
}
