//! Semantics-preserving NRE simplification.
//!
//! Chase-produced and machine-generated expressions accumulate units and
//! duplicates (`ε·r`, `r+r`, `(r*)*`); constraint matching and automata
//! construction all get cheaper on the simplified form. Every rewrite
//! preserves `⟦r⟧_G` on all graphs (property-tested in `tests/prop.rs`):
//!
//! * `ε·r = r·ε = r`
//! * `r+r = r` (after recursive simplification)
//! * `(r*)* = r*`, `ε* = ε`
//! * `[ε] = ε`, `[[r]] = [r]`, `[r*] = ε` (a star always has the empty
//!   witness), `[r]* = ε` (zero iterations already relate every node to
//!   itself, and further iterations stay inside the identity)
//! * `(r+s)` reassociated/deduplicated over flattened alternatives

use crate::ast::Nre;
use gdx_common::FxHashSet;

/// Simplifies to a fixpoint of the local rewrite rules.
pub fn simplify(r: &Nre) -> Nre {
    let mut cur = r.clone();
    loop {
        let next = step(&cur);
        if next == cur {
            return cur;
        }
        cur = next;
    }
}

fn step(r: &Nre) -> Nre {
    match r {
        Nre::Epsilon | Nre::Label(_) | Nre::Inverse(_) => r.clone(),
        Nre::Concat(a, b) => {
            let (a, b) = (step(a), step(b));
            match (a, b) {
                (Nre::Epsilon, x) | (x, Nre::Epsilon) => x,
                (a, b) => Nre::Concat(Box::new(a), Box::new(b)),
            }
        }
        Nre::Union(_, _) => {
            // Flatten the union tree, simplify leaves, dedupe, rebuild.
            let mut alts: Vec<Nre> = Vec::new();
            flatten_union(r, &mut alts);
            let mut seen: FxHashSet<Nre> = FxHashSet::default();
            let mut uniq: Vec<Nre> = Vec::new();
            for alt in alts {
                let s = step(&alt);
                if seen.insert(s.clone()) {
                    uniq.push(s);
                }
            }
            // ε is absorbed only by alternatives whose *semantics* contain
            // the full identity relation. Syntactic nullability is not
            // enough: ⟦[a]⟧ ⊆ identity but misses nodes without an a-edge.
            if uniq.len() > 1
                && uniq
                    .iter()
                    .any(|a| *a != Nre::Epsilon && contains_identity(a))
            {
                uniq.retain(|a| *a != Nre::Epsilon);
            }
            let mut it = uniq.into_iter();
            #[expect(
                clippy::expect_used,
                reason = "a union flattens to ≥1 alternative, and the ε-retain above only fires when a non-ε alternative survives it"
            )]
            let first = it.next().expect("non-empty union");
            it.fold(first, |acc, x| Nre::Union(Box::new(acc), Box::new(x)))
        }
        Nre::Star(inner) => match step(inner) {
            Nre::Epsilon => Nre::Epsilon,
            s @ Nre::Star(_) => s,
            // ⟦[r]⟧ ⊆ identity, so its closure is exactly the identity.
            Nre::Test(_) => Nre::Epsilon,
            x => Nre::Star(Box::new(x)),
        },
        Nre::Test(inner) => match step(inner) {
            Nre::Epsilon => Nre::Epsilon,
            t @ Nre::Test(_) => t,
            Nre::Star(_) => Nre::Epsilon,
            x => Nre::Test(Box::new(x)),
        },
    }
}

/// `⟦ε⟧ ⊆ ⟦r⟧` on every graph? (Stronger than [`Nre::nullable`]: a test
/// `[a]` is nullable in the path-language sense yet its relation is a
/// *strict* sub-identity.)
fn contains_identity(r: &Nre) -> bool {
    match r {
        Nre::Epsilon | Nre::Star(_) => true,
        Nre::Label(_) | Nre::Inverse(_) | Nre::Test(_) => false,
        Nre::Union(a, b) => contains_identity(a) || contains_identity(b),
        Nre::Concat(a, b) => contains_identity(a) && contains_identity(b),
    }
}

fn flatten_union(r: &Nre, out: &mut Vec<Nre>) {
    match r {
        Nre::Union(a, b) => {
            flatten_union(a, out);
            flatten_union(b, out);
        }
        other => out.push(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parse::parse_nre;
    use gdx_graph::Graph;

    fn simp(s: &str) -> String {
        simplify(&parse_nre(s).unwrap()).to_string()
    }

    #[test]
    fn unit_laws() {
        assert_eq!(simp("eps.a"), "a");
        assert_eq!(simp("a.eps"), "a");
        assert_eq!(simp("a.eps.b"), "a.b");
    }

    #[test]
    fn union_dedup_and_epsilon_absorption() {
        assert_eq!(simp("a+a"), "a");
        assert_eq!(simp("a+b+a"), "a+b");
        assert_eq!(simp("eps+a*"), "a*", "a* already contains ε");
        assert_eq!(simp("eps+a"), "eps+a", "a is not nullable: ε must stay");
    }

    #[test]
    fn star_laws() {
        assert_eq!(simp("(a*)*"), "a*");
        assert_eq!(simp("eps*"), "eps");
        assert_eq!(simp("((a.eps)*)*"), "a*");
    }

    #[test]
    fn test_laws() {
        assert_eq!(simp("[eps]"), "eps");
        assert_eq!(simp("[[a]]"), "[a]");
        assert_eq!(simp("[a*]"), "eps", "a star always has a witness");
        assert_eq!(simp("[a]*"), "eps", "closure of a sub-identity is identity");
        assert_eq!(simp("[a]"), "[a]");
    }

    #[test]
    fn star_of_test_is_identity() {
        // ⟦[a]*⟧ includes (u,u) for every node (0 iterations), i.e. ⟦ε⟧ —
        // strictly more than ⟦[a]⟧ on nodes without an a-edge.
        let g = Graph::parse("(x, a, y); node(z);").unwrap();
        let star = eval(&g, &parse_nre("[a]*").unwrap());
        let just = eval(&g, &parse_nre("[a]").unwrap());
        let eps = eval(&g, &Nre::Epsilon);
        assert!(star.len() > just.len());
        assert_eq!(star.len(), eps.len());
    }

    #[test]
    fn semantics_preserved_on_examples() {
        let g = Graph::parse("(a, f, b); (b, h, c); (c, f, a); (b, f, b);").unwrap();
        for expr in [
            "eps.f",
            "f+f",
            "(f*)*",
            "[eps].f",
            "[f*]",
            "f.(eps+h)",
            "eps+f+eps",
            "f.eps.h+f.h",
        ] {
            let r = parse_nre(expr).unwrap();
            let s = simplify(&r);
            let before: std::collections::BTreeSet<_> = eval(&g, &r).iter().collect();
            let after: std::collections::BTreeSet<_> = eval(&g, &s).iter().collect();
            assert_eq!(before, after, "{expr} vs {s}");
            assert!(s.size() <= r.size(), "{expr}: must not grow");
        }
    }
}
