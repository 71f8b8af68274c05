//! # gdx-relational
//!
//! The relational substrate of the data exchange setting: the *source* side
//! of `Ω = (R, Σ, M_st, M_t)`.
//!
//! * [`Schema`] — a finite collection of relation symbols with arities.
//! * [`Instance`] — a set of tuples over the shared constant domain `V` for
//!   each relation symbol, with a text format
//!   (`Flight(01, c1, c2); Hotel(01, hx);`).
//! * [`ConjunctiveQuery`] — conjunctions of relational atoms over variables
//!   and constants: the left-hand sides of s-t tgds.
//! * [`eval`] — CQ evaluation by hash-join with greedy atom ordering,
//!   producing all satisfying assignments (the *triggers* of the chase).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cq;
pub mod eval;
pub mod instance;
pub mod schema;

pub use cq::{Atom, ConjunctiveQuery};
pub use eval::{evaluate, Bindings};
pub use instance::Instance;
pub use schema::Schema;
