//! # gdx-graph
//!
//! The graph substrate: the *target* side of the data exchange setting.
//!
//! An instance over a target schema (finite alphabet) `Σ` is a directed,
//! edge-labeled graph `G = (V, E)` with `V ⊆ 𝒱 ∪ 𝒩` — node ids are either
//! *constants* (shared with the relational domain) or *labeled nulls*
//! (invented by the chase), and `E ⊆ V × Σ × V`.
//!
//! * [`Graph`] — adjacency-indexed edge-labeled graph with dense `u32` node
//!   handles, a text format (`(c1, f, c2); (c1, h, _N1);` — `_`-prefixed
//!   names are nulls), DOT export, and quotienting (used by the egd chase).
//! * [`hom`] — graph-to-graph homomorphism and isomorphism checks (identity
//!   on constants), used to compare chase outputs against the paper's
//!   figures "up to null renaming".

//! * [`graph::Epoch`] / [`Graph::edges_since`] — watermarks into the
//!   graph's append-only node/edge logs, the delta protocol behind the
//!   semi-naive chase;
//! * [`graph::NullFactory`] — deterministic per-run fresh-null naming;
//! * [`frozen::FrozenGraph`] — per-label CSR snapshots with sorted
//!   neighbor slices, memoized per `(GraphId, Epoch)` by
//!   [`Graph::freeze`] — the read-optimized data plane the evaluation
//!   inner loops run on.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod frozen;
pub mod graph;
pub mod hom;

pub use frozen::FrozenGraph;
pub use graph::{Epoch, Graph, GraphId, Node, NodeId, NullFactory};
pub use hom::{find_homomorphism, is_isomorphic};
