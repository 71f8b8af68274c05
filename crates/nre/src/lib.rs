//! # gdx-nre
//!
//! Nested regular expressions (NREs), the path language of the paper
//! (adopted from Barceló–Pérez–Reutter, *Schema mappings and data exchange
//! for graph databases*, ICDT 2013):
//!
//! ```text
//! r := ε | a | a⁻ | r + r | r · r | r* | [r]        (a ∈ Σ)
//! ```
//!
//! An NRE denotes a binary relation `⟦r⟧_G` over the nodes of an
//! edge-labeled graph `G`; `[r]` is the *nesting test* — it selects pairs
//! `(u, u)` such that some `v` with `(u, v) ∈ ⟦r⟧_G` exists.
//!
//! Modules:
//!
//! * [`ast`] — the expression tree with smart constructors and printing;
//! * [`parse`] — text syntax `f.f*.[h].f-.(f-)*` (`.` concatenation, `+`
//!   union, postfix `*`, postfix `-` inverse, `[r]` test, `eps`/`ε`);
//! * [`classify`] — fragment detection: single symbols, unions of symbols
//!   (`a+b`), SORE(·) concatenations, test-free expressions — the
//!   restrictions under which the paper's hardness results already hold;
//! * [`mod@eval`] — `⟦r⟧_G` by bottom-up relational evaluation with BFS-based
//!   Kleene closure, plus single-source variants;
//! * [`dense`] — `⟦r⟧_G` as a Boolean matrix of `u64` words on small
//!   graphs, for consumers that need a pair *set*, not a pair order;
//! * [`nfa`] — the ε-free Thompson automaton of an NRE (nesting tests as
//!   guard transitions), shared by demand evaluation and the DFA-based
//!   inclusion checks of `gdx-automata`;
//! * [`demand`] — demand-driven evaluation: product-automaton BFS from
//!   seeded endpoints only ([`demand::eval_from`] / [`demand::eval_into`]),
//!   with nesting tests decided by recursive seeded sub-evaluation;
//! * [`incremental`] — delta-driven evaluation: per-subexpression
//!   materialized relations advanced by consuming the graph's epoch logs,
//!   with frontier-style Kleene closure ([`incremental::eval_delta`]);
//! * [`witness`] — bounded enumeration of *witness paths* (words with
//!   nested test branches) and their materialization into graphs: the
//!   engine behind canonical instantiation of graph patterns.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ast;
pub mod classify;
pub mod demand;
pub mod dense;
pub mod eval;
pub mod incremental;
pub mod nfa;
pub mod parse;
pub mod simplify;
pub mod witness;

pub use ast::Nre;
pub use classify::Fragment;
pub use demand::{DemandAutomata, DemandEvaluator, DemandPool, DemandStats};
pub use eval::{eval, eval_from, BinRel};
pub use incremental::{eval_delta, EvalMark, IncrementalCache};
pub use witness::{PathStep, Witness};
