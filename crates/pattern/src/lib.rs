//! # gdx-pattern
//!
//! Graph patterns: the universal-representative formalism of graph data
//! exchange (Barceló–Pérez–Reutter 2013, adopted by the paper).
//!
//! A pattern `π = (N, D)` has nodes `N ⊆ 𝒱 ∪ 𝒩` (constants and labeled
//! nulls) and edges `D ⊆ N × NRE(Σ) × N` — edges carry whole NREs, not
//! single symbols. Its semantics is the set of graphs it maps into:
//! `Rep_Σ(π) = {G | π → G}`, where a homomorphism `h` must be the identity
//! on constants and satisfy `(h(u), h(v)) ∈ ⟦r⟧_G` for every pattern edge
//! `(u, r, v)`.
//!
//! * [`GraphPattern`] — the pattern type, text format
//!   (`(c1, f.f*, _N1);`), quotienting (for the egd chase);
//! * [`hom`] — pattern-to-graph homomorphism search / `Rep` membership;
//! * [`instantiate`] — canonical instantiation: realize every NRE edge by a
//!   witness path (shortest, or an enumerated family for counterexample
//!   search). Every instantiation `G` satisfies `π → G`, i.e. lies in
//!   `Rep_Σ(π)`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod core_retract;
pub mod hom;
pub mod instantiate;
pub mod pattern;

pub use core_retract::{is_retract_minimal, retract_core};
pub use hom::{find_pattern_homomorphism, represents};
pub use instantiate::{
    instantiate_shortest, instantiation_family, InstantiationConfig, InstantiationFamily,
};
pub use pattern::{GraphPattern, PNodeId};
