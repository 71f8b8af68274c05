//! # gdx-exchange
//!
//! The paper's primary contribution, as a library: relational-to-graph
//! data exchange with target constraints.
//!
//! Given a setting `Ω = (R, Σ, M_st, M_t)` and an instance `I` of `R`,
//! this crate answers the paper's two problems of interest:
//!
//! 1. **Existence of solutions** — is there a graph `G` over `Σ` such that
//!    `(I, G) ⊨ M_st` and `G ⊨ M_t`? ([`exists`])
//!    * trivial without target constraints (Section 3.2);
//!    * polynomial with sameAs constraints (Section 4.2);
//!    * NP-hard with egds (Theorem 4.1) — solved by bounded search, with
//!      an exactness flag telling when the bounds are provably sufficient,
//!      plus a SAT-encoding backend for the union-of-symbols fragment.
//! 2. **Query answering** — the certain answers
//!    `cert_Ω(Q, I) = ⋂ {⟦Q⟧_G | G ∈ Sol_Ω(I)}` ([`certain`]), coNP-hard
//!    with egds (Corollary 4.2) and already with sameAs constraints
//!    (Proposition 4.3).
//!
//! **The entry point is [`ExchangeSession`]**: a stateful handle over one
//! `(setting, instance)` pair that memoizes the expensive artifacts — the
//! chased universal representative, the verified minimal-solution family,
//! the SAT encoding, the chase engines — and exposes the whole workload
//! surface as methods ([`is_solution`][ExchangeSession::is_solution],
//! [`solution_exists`][ExchangeSession::solution_exists],
//! [`solutions`][ExchangeSession::solutions] (lazy streaming),
//! [`certain`][ExchangeSession::certain] /
//! [`certain_pair`][ExchangeSession::certain_pair] /
//! [`certain_answers`][ExchangeSession::certain_answers],
//! [`representative`][ExchangeSession::representative]). Every method
//! observes the session's [`Options`].
//!
//! Supporting modules:
//!
//! * [`session`] — the stateful session and its streaming solution
//!   iterator;
//! * [`options`] — the single knob surface ([`Options`]);
//! * [`solution`] — the `Sol_Ω(I)` membership check (and its compiled
//!   [`solution::SolutionChecker`] form);
//! * [`reduction`] — the Theorem 4.1 reduction (3SAT → setting) and its
//!   inverse;
//! * [`encode`] — SAT encoding of existence for the restricted fragment;
//! * [`representative`] — universal representatives as
//!   `(pattern, constraints)` pairs (Section 5).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod certain;
pub mod direct;
pub mod encode;
pub mod exists;
pub mod options;
pub mod reduction;
pub mod representative;
pub mod session;
pub mod solution;

pub use certain::CertainAnswer;
pub use exists::Existence;
pub use gdx_runtime::{Runtime, Threads};
pub use options::Options;
pub use reduction::Reduction;
pub use representative::UniversalRepresentative;
pub use session::{ExchangeSession, SolutionStream};
pub use solution::{is_solution, SolutionChecker};
