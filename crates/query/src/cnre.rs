//! The CNRE query type and its text format.

use gdx_common::lexer::{TokenCursor, TokenKind};
use gdx_common::{FxHashSet, GdxError, Result, Symbol, Term};
use gdx_nre::parse::parse_union;
use gdx_nre::Nre;
use std::fmt;

/// One CNRE atom `(t, r, t')`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnreAtom {
    /// Source term.
    pub left: Term,
    /// The path expression.
    pub nre: Nre,
    /// Destination term.
    pub right: Term,
}

impl CnreAtom {
    /// Builds an atom.
    pub fn new(left: Term, nre: Nre, right: Term) -> CnreAtom {
        CnreAtom { left, nre, right }
    }

    /// The variables of the atom (0, 1, or 2 of them).
    pub fn variables(&self) -> impl Iterator<Item = Symbol> {
        [self.left.as_var(), self.right.as_var()]
            .into_iter()
            .flatten()
    }
}

impl fmt::Display for CnreAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = |t: &Term| match t {
            Term::Var(v) => v.to_string(),
            Term::Const(c) => format!("\"{c}\""),
        };
        write!(f, "({}, {}, {})", t(&self.left), self.nre, t(&self.right))
    }
}

/// A conjunction of CNRE atoms. All variables are free; existential
/// quantification is handled by the enclosing tgd, not the query itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnre {
    /// The conjuncts.
    pub atoms: Vec<CnreAtom>,
}

impl Cnre {
    /// Builds a query.
    pub fn new(atoms: Vec<CnreAtom>) -> Cnre {
        Cnre { atoms }
    }

    /// A single-atom query `(left, r, right)` — the shape the paper's
    /// query-answering problem uses.
    pub fn single(left: Term, nre: Nre, right: Term) -> Cnre {
        Cnre::new(vec![CnreAtom::new(left, nre, right)])
    }

    /// Distinct variables in first-occurrence order.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for atom in &self.atoms {
            for v in atom.variables() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// All alphabet symbols used by the NREs.
    pub fn symbols(&self) -> FxHashSet<Symbol> {
        let mut out = FxHashSet::default();
        for a in &self.atoms {
            out.extend(a.nre.symbols());
        }
        out
    }

    /// Validates: non-empty, and every NRE symbol within `alphabet` when
    /// one is supplied.
    pub fn validate(&self, alphabet: Option<&FxHashSet<Symbol>>) -> Result<()> {
        if self.atoms.is_empty() {
            return Err(GdxError::schema("empty CNRE"));
        }
        if let Some(ab) = alphabet {
            // The least offending symbol by name, so the message does not
            // depend on interning order.
            let outside = self
                .atoms
                .iter()
                .flat_map(|a| a.nre.symbols())
                .filter(|s| !ab.contains(s))
                .min_by_key(|s| s.as_str());
            if let Some(s) = outside {
                return Err(GdxError::schema(format!(
                    "NRE symbol {s} not in target alphabet"
                )));
            }
        }
        Ok(())
    }

    /// Parses `(x1, f.f*, y), (y, h, "hx")` — quoted names are constants.
    pub fn parse(input: &str) -> Result<Cnre> {
        let mut cur = TokenCursor::new(input)?;
        let q = parse_cnre(&mut cur)?;
        if !cur.at_eof() {
            return Err(cur.error("trailing input after CNRE"));
        }
        Ok(q)
    }
}

/// Parses a comma-separated list of `(term, nre, term)` atoms from an
/// existing cursor (embedded by the mapping DSL).
pub fn parse_cnre(cur: &mut TokenCursor) -> Result<Cnre> {
    let mut atoms = Vec::new();
    loop {
        cur.expect(&TokenKind::LParen, "CNRE atom")?;
        let left = parse_term(cur)?;
        cur.expect(&TokenKind::Comma, "CNRE atom")?;
        let nre = parse_union(cur)?;
        cur.expect(&TokenKind::Comma, "CNRE atom")?;
        let right = parse_term(cur)?;
        cur.expect(&TokenKind::RParen, "CNRE atom")?;
        atoms.push(CnreAtom::new(left, nre, right));
        if !cur.eat(&TokenKind::Comma) {
            break;
        }
    }
    Ok(Cnre::new(atoms))
}

fn parse_term(cur: &mut TokenCursor) -> Result<Term> {
    let (name, quoted) = cur.expect_name("CNRE term")?;
    Ok(if quoted {
        Term::Const(Symbol::new(&name))
    } else {
        Term::Var(Symbol::new(&name))
    })
}

impl fmt::Display for Cnre {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_nre::parse::parse_nre;

    #[test]
    fn parse_example_head() {
        // The head of M_st from Example 2.2.
        let q = Cnre::parse("(x2, f.f*, y), (y, h, x4), (y, f.f*, x3)").unwrap();
        assert_eq!(q.atoms.len(), 3);
        let vars: Vec<String> = q.variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(vars, ["x2", "y", "x4", "x3"]);
        assert_eq!(q.atoms[0].nre, parse_nre("f.f*").unwrap());
    }

    #[test]
    fn constants_are_quoted() {
        let q = Cnre::parse("(\"c1\", a.a, \"c2\")").unwrap();
        assert_eq!(q.variables().len(), 0);
        assert_eq!(q.atoms[0].left, Term::cst("c1"));
        assert_eq!(q.atoms[0].right, Term::cst("c2"));
    }

    #[test]
    fn display_roundtrip() {
        for text in [
            "(x2, f.f*, y), (y, h, x4)",
            "(\"c1\", a+b, x)",
            "(x, f.f*.[h].f-.(f-)*, y)",
        ] {
            let q = Cnre::parse(text).unwrap();
            let q2 = Cnre::parse(&q.to_string()).unwrap();
            assert_eq!(q, q2);
        }
    }

    #[test]
    fn validate_alphabet() {
        let q = Cnre::parse("(x, f.h, y)").unwrap();
        let mut ab = FxHashSet::default();
        ab.insert(Symbol::new("f"));
        assert!(q.validate(Some(&ab)).is_err());
        // Two symbols outside the alphabet: the error names the least by
        // name, not whichever the symbol set yields first.
        for text in ["(x, q9.b9, y)", "(x, b9.q9, y)"] {
            let err = Cnre::parse(text).unwrap().validate(Some(&ab)).unwrap_err();
            assert!(err.to_string().contains("NRE symbol b9 "), "{err}");
        }
        ab.insert(Symbol::new("h"));
        q.validate(Some(&ab)).unwrap();
        q.validate(None).unwrap();
        assert!(Cnre::new(vec![]).validate(None).is_err());
    }

    #[test]
    fn symbols_union() {
        let q = Cnre::parse("(x, f.g, y), (y, h, z)").unwrap();
        assert_eq!(q.symbols().len(), 3);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Cnre::parse("(x, f y)").is_err());
        assert!(Cnre::parse("x, f, y").is_err());
        assert!(Cnre::parse("(x, , y)").is_err());
    }
}
