//! # gdx-mapping
//!
//! Schema mappings and target constraints — the `M_st` and `M_t` of a data
//! exchange setting `Ω = (R, Σ, M_st, M_t)` (Definition 2.1 of the paper).
//!
//! * [`SourceToTargetTgd`] — `∀x̄. φ_R(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ)` with a
//!   relational CQ body and a CNRE head;
//! * [`Egd`] — target equality-generating dependency
//!   `ψ_Σ(x̄) → x₁ = x₂`;
//! * [`TargetTgd`] — target tuple-generating dependency
//!   `φ_Σ(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ)`;
//! * [`SameAs`] — the paper's RDF-inspired relaxation
//!   `ψ_Σ(x̄) → (x₁, sameAs, x₂)`;
//! * [`Setting`] — the full setting plus a text DSL:
//!
//! ```text
//! source { Flight/3; Hotel/2 }
//! target { f; h }
//! sttgd Flight(x1,x2,x3), Hotel(x1,x4)
//!       -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
//! egd (x1, h, x3), (x2, h, x3) -> x1 = x2;
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod constraint;
pub mod dsl;
pub mod setting;

pub use constraint::{Egd, SameAs, SourceToTargetTgd, TargetConstraint, TargetTgd};
pub use setting::Setting;

/// The reserved edge label added by sameAs constraints.
pub fn same_as_symbol() -> gdx_common::Symbol {
    gdx_common::Symbol::new("sameAs")
}
