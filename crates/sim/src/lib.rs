//! # gdx-sim
//!
//! Deterministic simulation + differential-fuzzing harness for the
//! exchange session (ROADMAP item 5).
//!
//! From a single `u64` seed, [`gen::generate`] builds a [`Scenario`]: a
//! random stratified setting, a source instance, an initial work graph,
//! and an interleaved [`ExchangeSession`](gdx_exchange::ExchangeSession)
//! op-sequence (chase / is-solution / certain / certain-answers /
//! streamed solutions, mixed with incremental edge insertions, forks,
//! compactions, and Options mutations). [`exec::run_scenario`] executes
//! it against the real session and checks every step against the chosen
//! [`Oracle`]:
//!
//! | oracle       | checks                                                        |
//! |--------------|---------------------------------------------------------------|
//! | `replay`     | long-lived memoizing session ≡ fresh per-query session (strict)|
//! | `chase-mode` | semi-naive ≡ naive chase (isomorphic results, equal steps)    |
//! | `planner`    | `Auto` ≡ `Materialize` planner (byte-identical)               |
//! | `threads`    | N-worker ≡ 1-worker (byte-identical, lower-bound counters too)|
//! | `sat`        | SAT existence vs chase existence (no contradicting verdicts)  |
//! | `fork`       | fork overlays ≡ `compact()` deep copies (byte-identical)      |
//! | `faults`     | boundary-resource sweep: graceful degradation (see below)     |
//! | `sandwich`   | lower bound ⊆ drained-family answers; early exit ≡ full drain |
//!
//! Every oracle also asserts the blanket soundness contract: no panics
//! and no `GdxError::Internal` escapes, whatever the inputs. The
//! `faults` oracle additionally sweeps adversarial resource boundaries
//! (`row_limit`/`solution_cap`/`max_steps`/thread counts at 0, 1, and
//! just-below-need, plus chase-termination-boundary cyclic settings)
//! and asserts `exact == false` wherever truncation occurred and that
//! definite verdicts never contradict an unconstrained baseline. The
//! `threads` and `faults` oracles run under a wall-clock watchdog
//! ([`exec::WATCHDOG`]): a run that hangs fails as [`SimFailure::Hang`]
//! and shrinks like any other failure.
//!
//! Failing runs auto-shrink ([`shrink::shrink`]) — drop ops, facts,
//! constraints, edges; re-check the failure still reproduces
//! *deterministically* after every step — down to a minimal seed+trace
//! [`Repro`] file replayable via `gdx sim replay <file>`.
//! [`campaign::run_campaign`] drives multi-seed sweeps (`gdx sim run`).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod campaign;
pub mod exec;
#[cfg(feature = "fault-lints")]
pub mod fault_lints;
pub mod gen;
pub mod shrink;
pub mod trace;

pub use campaign::{replay_text, run_campaign, CampaignReport, FoundFailure, Replayed};
pub use exec::{run_scenario, SimFailure};
pub use gen::generate;
pub use trace::{Op, Repro, Scenario, SimOptions};

/// The differential oracles a campaign can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Fresh-session replay model: memoization must not change answers.
    Replay,
    /// Semi-naive vs naive target-tgd chase.
    ChaseMode,
    /// Cost-based vs always-materialize query planner.
    Planner,
    /// Multi-worker vs single-worker runtime.
    Threads,
    /// SAT-encoded existence vs chase-driven existence.
    Sat,
    /// Copy-on-write fork overlays vs compacted deep copies.
    Fork,
    /// Boundary-resource fault injection.
    Faults,
    /// The two certain-answer bounds: pattern-level lower bound vs the
    /// drained family, and the early exit vs a full drain.
    Sandwich,
}

impl Oracle {
    /// Every oracle, in campaign order.
    pub const ALL: [Oracle; 8] = [
        Oracle::Replay,
        Oracle::ChaseMode,
        Oracle::Planner,
        Oracle::Threads,
        Oracle::Sat,
        Oracle::Fork,
        Oracle::Faults,
        Oracle::Sandwich,
    ];

    /// The CLI / repro-file name.
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::Replay => "replay",
            Oracle::ChaseMode => "chase-mode",
            Oracle::Planner => "planner",
            Oracle::Threads => "threads",
            Oracle::Sat => "sat",
            Oracle::Fork => "fork",
            Oracle::Faults => "faults",
            Oracle::Sandwich => "sandwich",
        }
    }

    /// Inverse of [`Oracle::name`].
    pub fn from_name(name: &str) -> Option<Oracle> {
        Oracle::ALL.iter().copied().find(|o| o.name() == name)
    }
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_round_trip() {
        for o in Oracle::ALL {
            assert_eq!(Oracle::from_name(o.name()), Some(o));
        }
        assert_eq!(Oracle::from_name("tea-leaves"), None);
    }
}
