//! # gdx — Graph Data Exchange with Target Constraints
//!
//! Meta-crate re-exporting the public API of the whole workspace, a
//! production-quality Rust reproduction of:
//!
//! > Iovka Boneva, Angela Bonifati, Radu Ciucanu.
//! > *Graph Data Exchange with Target Constraints.*
//! > EDBT/ICDT Workshops — Querying Graph Structured Data (GraphQ), 2015.
//!
//! See the README for a quickstart and DESIGN.md for the system inventory.
//!
//! The usual entry points are:
//!
//! * [`mapping::Setting`] — a data exchange setting `Ω = (R, Σ, M_st, M_t)`,
//!   parsed from the mapping DSL or built programmatically;
//! * [`exchange::ExchangeSession`] — the stateful session: solution
//!   checking, the chase, existence of solutions, streaming solution
//!   enumeration, certain answers, universal representatives — with the
//!   expensive artifacts memoized across calls;
//! * [`query::PreparedQuery`] — parse/compile a CNRE once, evaluate many
//!   times;
//! * [`exchange::reduction`] — the Theorem 4.1 reduction from 3SAT.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use gdx_automata as automata;
pub use gdx_chase as chase;
pub use gdx_common as common;
pub use gdx_datagen as datagen;
pub use gdx_exchange as exchange;
pub use gdx_graph as graph;
pub use gdx_mapping as mapping;
pub use gdx_nre as nre;
pub use gdx_obs as obs;
pub use gdx_pattern as pattern;
pub use gdx_query as query;
pub use gdx_relational as relational;
pub use gdx_runtime as runtime;
pub use gdx_sat as sat;

/// Curated prelude: the types most programs need.
pub mod prelude {
    pub use gdx_common::{GdxError, Result, Symbol};
    pub use gdx_exchange::{CertainAnswer, ExchangeSession, Existence, Options};
    pub use gdx_graph::{Graph, Node};
    pub use gdx_mapping::{Setting, SourceToTargetTgd, TargetConstraint};
    pub use gdx_nre::Nre;
    pub use gdx_obs::Obs;
    pub use gdx_pattern::GraphPattern;
    pub use gdx_query::{Cnre, PreparedQuery};
    pub use gdx_relational::{Instance, Schema};
    pub use gdx_runtime::{Runtime, Threads};
}
