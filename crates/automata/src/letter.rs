//! Directed letters: the doubled alphabet `{a, a⁻ | a ∈ Σ}`.

use gdx_common::{FxHashSet, Symbol};
use gdx_nre::nfa::Action;
use gdx_nre::Nre;
use std::fmt;

/// One letter of the doubled alphabet: a symbol plus a direction flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Letter {
    /// The underlying alphabet symbol.
    pub symbol: Symbol,
    /// `true` for the backward letter `a⁻`.
    pub inverse: bool,
}

impl Letter {
    /// Forward letter `a`.
    pub fn fwd(symbol: Symbol) -> Letter {
        Letter {
            symbol,
            inverse: false,
        }
    }

    /// Backward letter `a⁻`.
    pub fn bwd(symbol: Symbol) -> Letter {
        Letter {
            symbol,
            inverse: true,
        }
    }

    /// The automaton action that reads this letter.
    pub fn action(self) -> Action {
        if self.inverse {
            Action::Bwd(self.symbol)
        } else {
            Action::Fwd(self.symbol)
        }
    }
}

impl fmt::Display for Letter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inverse {
            write!(f, "{}-", self.symbol)
        } else {
            write!(f, "{}", self.symbol)
        }
    }
}

/// The directed letters actually used by an NRE.
pub fn letters_of(r: &Nre) -> FxHashSet<Letter> {
    let mut out = FxHashSet::default();
    collect(r, &mut out);
    out
}

fn collect(r: &Nre, out: &mut FxHashSet<Letter>) {
    match r {
        Nre::Epsilon => {}
        Nre::Label(a) => {
            out.insert(Letter::fwd(*a));
        }
        Nre::Inverse(a) => {
            out.insert(Letter::bwd(*a));
        }
        Nre::Union(x, y) | Nre::Concat(x, y) => {
            collect(x, out);
            collect(y, out);
        }
        Nre::Star(x) | Nre::Test(x) => collect(x, out),
    }
}

/// The sorted union of the letters of several NREs — the alphabet both
/// automata of an inclusion check must share.
pub fn joint_alphabet(exprs: &[&Nre]) -> Vec<Letter> {
    let mut set: FxHashSet<Letter> = FxHashSet::default();
    for e in exprs {
        set.extend(letters_of(e));
    }
    let mut v: Vec<Letter> = set.into_iter().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_nre::parse::parse_nre;

    #[test]
    fn letters_distinguish_direction() {
        let r = parse_nre("a.a-").unwrap();
        let ls = letters_of(&r);
        assert_eq!(ls.len(), 2);
        assert!(ls.contains(&Letter::fwd(Symbol::new("a"))));
        assert!(ls.contains(&Letter::bwd(Symbol::new("a"))));
    }

    #[test]
    fn joint_alphabet_is_sorted_union() {
        let a = parse_nre("a.b").unwrap();
        let b = parse_nre("b+c-").unwrap();
        let j = joint_alphabet(&[&a, &b]);
        assert_eq!(j.len(), 3, "a, b, c- with b shared");
        let mut sorted = j.clone();
        sorted.sort();
        assert_eq!(j, sorted);
    }

    #[test]
    fn display() {
        assert_eq!(Letter::fwd(Symbol::new("f")).to_string(), "f");
        assert_eq!(Letter::bwd(Symbol::new("f")).to_string(), "f-");
    }
}
