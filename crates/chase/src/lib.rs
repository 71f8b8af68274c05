//! # gdx-chase
//!
//! The chase engines of the reproduction:
//!
//! * [`st`] — the source-to-target chase: evaluates every s-t tgd body over
//!   the relational instance and fires triggers into a [graph pattern]
//!   (the universal-representative construction of Section 3.2, adapted
//!   from graph-to-graph exchange to the relational-to-graph setting);
//! * [`egd_pattern`] — the paper's *adapted chase* of Section 5: egd
//!   steps on graph patterns, with the fail / substitute / merge policy
//!   (constants never merge);
//! * [`sameas`] — sameAs saturation on concrete graphs (the tractable
//!   solution-construction route of Proposition 4.3);
//! * [`tgd`] — a bounded restricted chase for target tgds on concrete
//!   graphs: a semi-naive, worklist-driven, restartable engine
//!   ([`tgd::TgdChaseEngine`]) with naive round-robin kept as the
//!   reference oracle;
//! * [`weak_acyclicity`] — the classical termination criterion, applicable
//!   to the single-symbol fragment of target tgds.
//!
//! [graph pattern]: gdx_pattern::GraphPattern

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod egd_pattern;
pub mod sameas;
pub mod st;
pub mod tgd;
pub mod weak_acyclicity;

pub use egd_pattern::{
    chase_egds_on_pattern, chase_egds_on_pattern_obs, EgdChaseConfig, EgdChaseOutcome,
};
pub use sameas::{saturate_same_as, SameAsEngine};
pub use st::{chase_st, chase_st_with_nulls, StChaseResult, StChaseVariant};
pub use tgd::{
    chase_target_tgds, ChaseStats, TgdChaseConfig, TgdChaseEngine, TgdChaseMode, TgdChaseResult,
};
pub use weak_acyclicity::is_weakly_acyclic;
