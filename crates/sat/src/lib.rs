//! # gdx-sat
//!
//! A small, dependency-free SAT solver substrate.
//!
//! Theorem 4.1 of the paper reduces 3SAT to existence-of-solutions; this
//! crate supplies (a) the CNF/3-CNF machinery that reduction needs, (b) a
//! DPLL solver used both as the *ground truth oracle* in the reproduction
//! experiments (existence ⇔ satisfiability must agree) and as the backend
//! of the SAT-encoding existence solver, and (c) DIMACS I/O.
//!
//! * [`Cnf`] / [`Lit`] — formulas in conjunctive normal form;
//! * [`solve`] / [`SolverConfig`] — recursive DPLL with unit propagation,
//!   optional pure-literal elimination and a dynamic-frequency branching
//!   heuristic;
//! * [`brute_force`] — exhaustive check for cross-validation on small
//!   formulas.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod cnf;
pub mod solver;

pub use cnf::{Clause, Cnf, Lit, Var};
pub use solver::{brute_force, solve, SatResult, SolverConfig, SolverStats};
