//! # gdx-common
//!
//! Shared foundations for the `gdx` workspace (a reproduction of *Graph Data
//! Exchange with Target Constraints*, EDBT/ICDT GraphQ 2015):
//!
//! * [`Symbol`] — globally interned strings used for relation names, edge
//!   labels, constants, and variable names. Comparisons and hashing are on a
//!   `u32`, which keeps joins and adjacency lookups cheap.
//! * [`hash`] — a hand-rolled Fx-style hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases. Integer-keyed maps dominate this workspace; SipHash is wasted
//!   on them.
//! * [`bits`] — dense reusable bitsets ([`ScratchBits`]) for the BFS
//!   visited sets of the evaluation inner loops.
//! * [`gallop`] — galloping search and intersection over the sorted
//!   adjacency slices of the frozen data-plane views.
//! * [`UnionFind`] — path-compressed union-find used by the egd chase when
//!   merging graph-pattern nodes.
//! * [`lexer`] — a single tokenizer shared by every text format in the
//!   workspace (relational instances, graphs, NREs, mapping DSL, DIMACS is
//!   separate).
//! * [`json`] — a minimal order-preserving JSON value with parser and
//!   deterministic renderer, shared by the observability dumps and the
//!   `gdx-server` wire protocol (the workspace carries no serde).
//! * [`GdxError`] — the workspace-wide error type.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bits;
pub mod error;
pub mod gallop;
pub mod hash;
pub mod intern;
pub mod json;
pub mod lexer;
pub mod term;
pub mod union_find;

pub use bits::ScratchBits;
pub use error::{GdxError, Result};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use intern::Symbol;
pub use term::Term;
pub use union_find::UnionFind;
