//! # gdx-automata
//!
//! Finite automata over *directed letters* — alphabet symbols tagged with a
//! traversal direction, so the two-way flavor of (test-free) NREs becomes an
//! ordinary one-way regular language over the doubled alphabet
//! `{a, a⁻ | a ∈ Σ}`.
//!
//! The egd chase needs to decide, given a path of pattern edges labeled
//! `r₁ … r_k` and an egd atom labeled `s`, whether *every* realization of
//! the path satisfies the atom: the language inclusion
//! `L(r₁·…·r_k) ⊆ L(s)`. This crate provides exactly that:
//!
//! * [`Letter`] — the doubled alphabet, read by the ε-free Thompson
//!   automaton of `gdx_nre::nfa` (the one NRE automaton construction of
//!   the workspace, shared with demand-driven evaluation);
//! * [`Dfa`] — subset construction over that automaton, completion,
//!   complement, product, emptiness, shortest accepted word, Moore
//!   minimization;
//! * [`included`] / [`equivalent`] — language inclusion and equivalence.
//!
//! NREs with nesting tests are outside regular-language territory for the
//! inclusion question; the chase falls back to a syntactic check for them
//! (DESIGN.md §5 item 3).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod dfa;
pub mod letter;

pub use dfa::Dfa;
pub use letter::Letter;

use gdx_common::Result;
use gdx_nre::Nre;

/// Decides `L(a) ⊆ L(b)` for test-free NREs.
///
/// ```
/// use gdx_automata::included;
/// use gdx_nre::parse::parse_nre;
/// let h = parse_nre("h").unwrap();
/// let hs = parse_nre("h+g").unwrap();
/// assert!(included(&h, &hs).unwrap());
/// assert!(!included(&hs, &h).unwrap());
/// ```
pub fn included(a: &Nre, b: &Nre) -> Result<bool> {
    let alphabet = letter::joint_alphabet(&[a, b]);
    let da = Dfa::from_nre(a, &alphabet)?;
    let db = Dfa::from_nre(b, &alphabet)?;
    Ok(da.intersect(&db.complement()).is_empty_language())
}

/// Decides `L(a) = L(b)` for test-free NREs.
pub fn equivalent(a: &Nre, b: &Nre) -> Result<bool> {
    Ok(included(a, b)? && included(b, a)?)
}

/// Decides `L(a) ∩ L(b) ≠ ∅` for test-free NREs.
pub fn intersects(a: &Nre, b: &Nre) -> Result<bool> {
    let alphabet = letter::joint_alphabet(&[a, b]);
    let da = Dfa::from_nre(a, &alphabet)?;
    let db = Dfa::from_nre(b, &alphabet)?;
    Ok(!da.intersect(&db).is_empty_language())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_nre::parse::parse_nre;

    fn incl(a: &str, b: &str) -> bool {
        included(&parse_nre(a).unwrap(), &parse_nre(b).unwrap()).unwrap()
    }

    #[test]
    fn basic_inclusions() {
        assert!(incl("a", "a"));
        assert!(incl("a", "a+b"));
        assert!(!incl("a+b", "a"));
        assert!(incl("a.a", "a.a*"));
        assert!(incl("a.b", "a.b*"));
        assert!(!incl("a.b.b", "a.b"));
        assert!(incl("eps", "a*"));
        assert!(!incl("eps", "a.a*"));
    }

    #[test]
    fn star_reasoning() {
        assert!(incl("a*", "(a+b)*"));
        assert!(!incl("(a+b)*", "a*"));
        assert!(incl("a.a.a", "a*"));
        assert!(incl("(a.a)*", "a*"));
        assert!(!incl("a*", "(a.a)*"));
    }

    #[test]
    fn inverses_are_distinct_letters() {
        assert!(!incl("a", "a-"));
        assert!(!incl("a-", "a"));
        assert!(incl("a-", "a-+a"));
        assert!(incl("a.a-", "a.(a-)*"));
    }

    #[test]
    fn equivalence() {
        let e =
            |a: &str, b: &str| equivalent(&parse_nre(a).unwrap(), &parse_nre(b).unwrap()).unwrap();
        assert!(e("a*", "eps+a.a*"));
        assert!(e("(a+b)*", "(a*.b*)*"));
        assert!(!e("a*", "a.a*"));
    }

    #[test]
    fn intersection_tests() {
        let i =
            |a: &str, b: &str| intersects(&parse_nre(a).unwrap(), &parse_nre(b).unwrap()).unwrap();
        assert!(i("a+b", "b+c"));
        assert!(!i("a", "b"));
        assert!(i("a*", "b*"), "both contain eps");
        assert!(!i("a.a*", "b.b*"));
    }

    #[test]
    fn tests_are_rejected() {
        let t = parse_nre("[a]").unwrap();
        let a = parse_nre("a").unwrap();
        assert!(included(&t, &a).is_err());
        assert!(included(&a, &t).is_err());
    }

    #[test]
    fn example_5_2_language() {
        // a·(b*+c*)·a vs a·a: the egd of Example 5.2 matches only the
        // zero-iteration realization, so inclusion fails…
        assert!(!incl("a.(b*+c*).a", "a.a"));
        // …but a·a is one possible realization:
        assert!(incl("a.a", "a.(b*+c*).a"));
    }
}
