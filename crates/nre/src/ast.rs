//! The NRE expression tree.

use gdx_common::{FxHashSet, Symbol};
use std::fmt;

/// A nested regular expression over a target alphabet `Σ`.
///
/// Construction goes through the smart constructors ([`Nre::concat`],
/// [`Nre::union`], [`Nre::star`], …), which perform the obvious local
/// simplifications (`ε·r = r`, `(r*)* = r*`, `r+r = r`), or through the
/// parser ([`crate::parse::parse_nre`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Nre {
    /// `ε` — the identity relation.
    Epsilon,
    /// `a` — one forward edge.
    Label(Symbol),
    /// `a⁻` — one backward edge.
    Inverse(Symbol),
    /// `r + s` — union.
    Union(Box<Nre>, Box<Nre>),
    /// `r · s` — concatenation (relation composition).
    Concat(Box<Nre>, Box<Nre>),
    /// `r*` — Kleene star (reflexive-transitive closure).
    Star(Box<Nre>),
    /// `[r]` — nesting test: `{(u,u) | ∃v. (u,v) ∈ ⟦r⟧}`.
    Test(Box<Nre>),
}

impl Nre {
    /// A forward label.
    pub fn label(name: &str) -> Nre {
        Nre::Label(Symbol::new(name))
    }

    /// A backward label `a⁻`.
    pub fn inverse(name: &str) -> Nre {
        Nre::Inverse(Symbol::new(name))
    }

    /// Concatenation with local simplification of `ε` units.
    pub fn concat(self, other: Nre) -> Nre {
        match (self, other) {
            (Nre::Epsilon, r) | (r, Nre::Epsilon) => r,
            (a, b) => Nre::Concat(Box::new(a), Box::new(b)),
        }
    }

    /// Concatenation of a sequence.
    pub fn concat_all(parts: impl IntoIterator<Item = Nre>) -> Nre {
        parts.into_iter().fold(Nre::Epsilon, |acc, r| acc.concat(r))
    }

    /// Union with local simplification of identical operands.
    pub fn union(self, other: Nre) -> Nre {
        if self == other {
            self
        } else {
            Nre::Union(Box::new(self), Box::new(other))
        }
    }

    /// Union of a non-empty sequence.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty — there is no empty-language NRE to
    /// return (the paper's fragment has no `∅`).
    #[expect(
        clippy::expect_used,
        reason = "documented panic: the paper fragment has no empty-language NRE to return"
    )]
    pub fn union_all(parts: impl IntoIterator<Item = Nre>) -> Nre {
        let mut it = parts.into_iter();
        let first = it.next().expect("union of at least one NRE");
        it.fold(first, |acc, r| acc.union(r))
    }

    /// Kleene star with `(r*)* = r*` and `ε* = ε`.
    pub fn star(self) -> Nre {
        match self {
            Nre::Epsilon => Nre::Epsilon,
            s @ Nre::Star(_) => s,
            r => Nre::Star(Box::new(r)),
        }
    }

    /// One-or-more: `r·r*` (the paper's `f·f*` idiom).
    pub fn plus(self) -> Nre {
        self.clone().concat(self.star())
    }

    /// Nesting test `[r]`.
    pub fn test(self) -> Nre {
        Nre::Test(Box::new(self))
    }

    /// The set of alphabet symbols mentioned (forward or backward).
    pub fn symbols(&self) -> FxHashSet<Symbol> {
        let mut out = FxHashSet::default();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut FxHashSet<Symbol>) {
        match self {
            Nre::Epsilon => {}
            Nre::Label(a) | Nre::Inverse(a) => {
                out.insert(*a);
            }
            Nre::Union(a, b) | Nre::Concat(a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
            Nre::Star(r) | Nre::Test(r) => r.collect_symbols(out),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Nre::Epsilon | Nre::Label(_) | Nre::Inverse(_) => 1,
            Nre::Union(a, b) | Nre::Concat(a, b) => 1 + a.size() + b.size(),
            Nre::Star(r) | Nre::Test(r) => 1 + r.size(),
        }
    }

    /// Maximum nesting-test depth (`0` for test-free expressions).
    pub fn test_depth(&self) -> usize {
        match self {
            Nre::Epsilon | Nre::Label(_) | Nre::Inverse(_) => 0,
            Nre::Union(a, b) | Nre::Concat(a, b) => a.test_depth().max(b.test_depth()),
            Nre::Star(r) => r.test_depth(),
            Nre::Test(r) => 1 + r.test_depth(),
        }
    }

    /// True when the expression contains no nesting test.
    pub fn is_test_free(&self) -> bool {
        self.test_depth() == 0
    }

    /// True when the expression contains no inverse.
    pub fn is_forward(&self) -> bool {
        match self {
            Nre::Epsilon | Nre::Label(_) => true,
            Nre::Inverse(_) => false,
            Nre::Union(a, b) | Nre::Concat(a, b) => a.is_forward() && b.is_forward(),
            Nre::Star(r) | Nre::Test(r) => r.is_forward(),
        }
    }

    /// The reversal of the expression: `⟦rev(r)⟧ = ⟦r⟧⁻¹` for test-free
    /// expressions. Words reverse and letters flip direction. Tests stay
    /// in place (a test at a path position stays a test of the same
    /// sub-expression), which preserves the inverse-relation property.
    pub fn reversed(&self) -> Nre {
        match self {
            Nre::Epsilon => Nre::Epsilon,
            Nre::Label(a) => Nre::Inverse(*a),
            Nre::Inverse(a) => Nre::Label(*a),
            Nre::Union(x, y) => Nre::Union(Box::new(x.reversed()), Box::new(y.reversed())),
            Nre::Concat(x, y) => Nre::Concat(Box::new(y.reversed()), Box::new(x.reversed())),
            Nre::Star(x) => Nre::Star(Box::new(x.reversed())),
            Nre::Test(x) => Nre::Test(x.clone()),
        }
    }

    /// True when `ε ∈ L(r)` — i.e. the denoted relation always contains the
    /// identity pairs reachable without moving (nullable expression).
    pub fn nullable(&self) -> bool {
        match self {
            Nre::Epsilon | Nre::Star(_) | Nre::Test(_) => true,
            Nre::Label(_) | Nre::Inverse(_) => false,
            Nre::Union(a, b) => a.nullable() || b.nullable(),
            Nre::Concat(a, b) => a.nullable() && b.nullable(),
        }
    }
}

/// True when `name` can be written bare and re-lex as the same single
/// label: every char is an identifier char, and the spelling does not
/// collide with the `eps`/`ε` epsilon literals. Anything else prints in
/// the quoted `"..."` spelling (labels containing `"` or a newline have
/// no text form at all — the lexer's strings carry no escapes).
fn bare_label(name: &str) -> bool {
    !name.is_empty()
        && name != "eps"
        && !name.contains('ε')
        && name.chars().all(gdx_common::lexer::is_ident_char)
}

/// Writes one label in whichever spelling round-trips.
fn write_label(f: &mut fmt::Formatter<'_>, name: &str) -> fmt::Result {
    if bare_label(name) {
        write!(f, "{name}")
    } else {
        write!(f, "\"{name}\"")
    }
}

/// Precedence-aware printing: union (lowest), concat, postfix star/inverse.
///
/// The output reparses to a structurally identical tree: binary chains
/// print flat only where the parser's left fold rebuilds them (left
/// children), while a right-nested union/concat keeps its parentheses,
/// and labels that would not re-lex as themselves print quoted.
impl fmt::Display for Nre {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(r: &Nre, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match r {
                Nre::Epsilon => write!(f, "eps"),
                Nre::Label(a) => write_label(f, a.as_str()),
                Nre::Inverse(a) => {
                    write_label(f, a.as_str())?;
                    write!(f, "-")
                }
                Nre::Test(inner) => {
                    write!(f, "[")?;
                    go(inner, f, 0)?;
                    write!(f, "]")
                }
                Nre::Star(inner) => {
                    // Star binds tightest; parenthesize anything non-atomic.
                    let atomic = matches!(**inner, Nre::Label(_) | Nre::Epsilon | Nre::Test(_));
                    if atomic {
                        go(inner, f, 3)?;
                    } else {
                        write!(f, "(")?;
                        go(inner, f, 0)?;
                        write!(f, ")")?;
                    }
                    write!(f, "*")
                }
                Nre::Concat(a, b) => {
                    // Left chains print flat (the parser folds left); a
                    // concat in right position must keep its parentheses
                    // or reparsing would re-associate it leftward.
                    let need = prec > 1;
                    if need {
                        write!(f, "(")?;
                    }
                    go(a, f, 1)?;
                    write!(f, ".")?;
                    go(b, f, 2)?;
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Nre::Union(a, b) => {
                    // Same asymmetry as concat: flat on the left, a
                    // parenthesized union on the right.
                    let need = prec > 0;
                    if need {
                        write!(f, "(")?;
                    }
                    go(a, f, 0)?;
                    write!(f, "+")?;
                    go(b, f, 1)?;
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_constructors_simplify() {
        let f = Nre::label("f");
        assert_eq!(Nre::Epsilon.concat(f.clone()), f);
        assert_eq!(f.clone().concat(Nre::Epsilon), f);
        assert_eq!(f.clone().union(f.clone()), f);
        assert_eq!(f.clone().star().star(), f.clone().star());
        assert_eq!(Nre::Epsilon.star(), Nre::Epsilon);
    }

    #[test]
    fn plus_is_concat_star() {
        let f = Nre::label("f");
        assert_eq!(f.clone().plus(), f.clone().concat(f.star()));
    }

    #[test]
    fn symbols_collected() {
        let r = Nre::label("f")
            .concat(Nre::label("f").star())
            .concat(Nre::label("h").test())
            .concat(Nre::inverse("g"));
        #[expect(
            clippy::disallowed_methods,
            reason = "collected into a set: hash order cannot escape"
        )]
        let syms: FxHashSet<String> = r.symbols().iter().map(|s| s.to_string()).collect();
        assert_eq!(syms.len(), 3);
        assert!(syms.contains("f") && syms.contains("h") && syms.contains("g"));
    }

    #[test]
    fn size_and_depth() {
        let r = Nre::label("f").concat(Nre::label("h").test().test());
        assert_eq!(r.test_depth(), 2);
        assert!(!r.is_test_free());
        assert!(Nre::label("a").union(Nre::label("b")).is_test_free());
    }

    #[test]
    fn nullable() {
        assert!(Nre::Epsilon.nullable());
        assert!(Nre::label("a").star().nullable());
        assert!(!Nre::label("a").nullable());
        assert!(Nre::label("a").union(Nre::Epsilon).nullable());
        assert!(!Nre::label("a").concat(Nre::label("b").star()).nullable());
        assert!(Nre::label("a").test().nullable());
    }

    #[test]
    fn forward_detection() {
        assert!(Nre::label("a").concat(Nre::label("b")).is_forward());
        assert!(!Nre::inverse("a").is_forward());
        assert!(!Nre::label("a")
            .concat(Nre::inverse("b").test())
            .is_forward());
    }

    #[test]
    fn reversed_inverts_relations() {
        use crate::eval::eval;
        let g = gdx_graph::Graph::parse("(a, f, b); (b, g, c); (c, f, d); (b, h, x);").unwrap();
        for expr in ["f", "f-", "f.g", "(f+g)*", "f.[h].g", "eps"] {
            let r = crate::parse::parse_nre(expr).unwrap();
            let fwd = eval(&g, &r);
            let bwd = eval(&g, &r.reversed());
            let flipped: std::collections::BTreeSet<(u32, u32)> =
                fwd.iter().map(|(u, v)| (v, u)).collect();
            let got: std::collections::BTreeSet<(u32, u32)> = bwd.iter().collect();
            assert_eq!(flipped, got, "reversal mismatch for {expr}");
        }
    }

    #[test]
    fn display_precedence() {
        let q = Nre::label("f")
            .concat(Nre::label("f").star())
            .concat(Nre::label("h").test())
            .concat(Nre::inverse("f"))
            .concat(Nre::inverse("f").star());
        assert_eq!(q.to_string(), "f.f*.[h].f-.(f-)*");
        let u = Nre::label("a")
            .union(Nre::label("b"))
            .concat(Nre::label("c"));
        assert_eq!(u.to_string(), "(a+b).c");
        let s = Nre::label("a").union(Nre::label("b")).star();
        assert_eq!(s.to_string(), "(a+b)*");
    }
}
