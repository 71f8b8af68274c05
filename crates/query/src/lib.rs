//! # gdx-query
//!
//! Conjunctions of nested regular expressions (CNREs) — the target-side
//! query language, used for (i) the right-hand sides of s-t tgds, (ii) the
//! bodies of target constraints, and (iii) the queries of the
//! query-answering problem.
//!
//! A CNRE is a conjunction of atoms `(t, r, t')` where `t, t'` are
//! variables or constants and `r` is an NRE; its answers over a graph `G`
//! are the assignments of nodes to variables such that every atom's pair is
//! in `⟦r⟧_G`.
//!
//! * [`Cnre`] / [`CnreAtom`] — the query type with a text format
//!   `(x1, f.f*, y), (y, h, x4)` (quoted names are constants);
//! * [`PreparedQuery`] — parse + validate once, pre-compile the demand
//!   automata, evaluate many times (across graphs, epochs and threads);
//!   the evaluation surface;
//! * [`eval`] — the join core over per-atom *access paths*: materialized
//!   relations or seeded product-BFS, chosen by the cost model in
//!   [`plan`] (bound endpoints and label selectivity from
//!   [`gdx_graph::Graph::label_stats`]);
//! * [`seminaive`] — delta-driven evaluation for the chase:
//!   [`SemiNaiveState::delta_matches`] returns only the matches that did
//!   not exist at the previous call, via `⋃ᵢ (Δᵢ ⋈ full others)` on top of
//!   the incremental NRE evaluator.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cnre;
pub mod eval;
pub mod explain;
pub mod plan;
pub mod prepared;
pub mod seminaive;

pub use cnre::{Cnre, CnreAtom};
pub use eval::{NodeBindings, Rows};
pub use explain::{explain_query, AtomExplain, PlanExplain};
pub use plan::{AccessChoice, PlannerMode};
pub use prepared::PreparedQuery;
pub use seminaive::{
    evaluate_seeded_incremental, evaluate_seeded_incremental_exists, SemiNaiveState,
};
