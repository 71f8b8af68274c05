//! Dependency types: s-t tgds and the three kinds of target constraints.

use gdx_common::{FxHashSet, GdxError, Result, Symbol};
use gdx_query::Cnre;
use gdx_relational::{ConjunctiveQuery, Schema};
use std::fmt;

/// A source-to-target tgd `∀x̄. φ_R(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ)`.
///
/// `body` is a CQ over the source schema, `head` a CNRE over the target
/// alphabet. Variables of the head that are not listed in `existential`
/// are *frontier* variables and must occur in the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceToTargetTgd {
    /// `φ_R(x̄)`.
    pub body: ConjunctiveQuery,
    /// The existentially quantified head variables `ȳ`.
    pub existential: Vec<Symbol>,
    /// `ψ_Σ(x̄, ȳ)`.
    pub head: Cnre,
}

impl SourceToTargetTgd {
    /// The frontier: head variables shared with the body.
    pub fn frontier(&self) -> Vec<Symbol> {
        let ex: FxHashSet<Symbol> = self.existential.iter().copied().collect();
        self.head
            .variables()
            .into_iter()
            .filter(|v| !ex.contains(v))
            .collect()
    }

    /// Validates against a source schema and target alphabet.
    pub fn validate(&self, source: &Schema, target: &FxHashSet<Symbol>) -> Result<()> {
        self.body.validate(source)?;
        self.head.validate(Some(target))?;
        let body_vars: FxHashSet<Symbol> = self.body.variables().into_iter().collect();
        let ex: FxHashSet<Symbol> = self.existential.iter().copied().collect();
        if let Some(v) = self
            .existential
            .iter()
            .filter(|v| body_vars.contains(v))
            .min_by_key(|v| v.as_str())
        {
            return Err(GdxError::schema(format!(
                "existential variable {v} also occurs in the tgd body"
            )));
        }
        for v in self.head.variables() {
            if !ex.contains(&v) && !body_vars.contains(&v) {
                return Err(GdxError::schema(format!(
                    "head variable {v} is neither existential nor bound by the body"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for SourceToTargetTgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sttgd {} -> ", self.body)?;
        if !self.existential.is_empty() {
            write!(f, "exists ")?;
            for (i, v) in self.existential.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, " : ")?;
        }
        write!(f, "{};", self.head)
    }
}

/// A target egd `∀x̄. ψ_Σ(x̄) → x₁ = x₂`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Egd {
    /// `ψ_Σ(x̄)`.
    pub body: Cnre,
    /// Left side of the forced equality.
    pub lhs: Symbol,
    /// Right side of the forced equality.
    pub rhs: Symbol,
}

impl Egd {
    /// Validates: body over the alphabet, both equality variables bound.
    pub fn validate(&self, target: &FxHashSet<Symbol>) -> Result<()> {
        self.body.validate(Some(target))?;
        let vars: FxHashSet<Symbol> = self.body.variables().into_iter().collect();
        for v in [self.lhs, self.rhs] {
            if !vars.contains(&v) {
                return Err(GdxError::schema(format!(
                    "egd equality variable {v} does not occur in the body"
                )));
            }
        }
        if self.lhs == self.rhs {
            return Err(GdxError::schema("trivial egd x = x"));
        }
        Ok(())
    }
}

impl fmt::Display for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "egd {} -> {} = {};", self.body, self.lhs, self.rhs)
    }
}

/// A target tgd `∀x̄. φ_Σ(x̄) → ∃ȳ. ψ_Σ(x̄, ȳ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetTgd {
    /// `φ_Σ(x̄)`.
    pub body: Cnre,
    /// The existentially quantified head variables.
    pub existential: Vec<Symbol>,
    /// `ψ_Σ(x̄, ȳ)`.
    pub head: Cnre,
}

impl TargetTgd {
    /// Validates variable safety and alphabet conformance.
    pub fn validate(&self, target: &FxHashSet<Symbol>) -> Result<()> {
        self.body.validate(Some(target))?;
        self.head.validate(Some(target))?;
        let body_vars: FxHashSet<Symbol> = self.body.variables().into_iter().collect();
        let ex: FxHashSet<Symbol> = self.existential.iter().copied().collect();
        if let Some(v) = self
            .existential
            .iter()
            .filter(|v| body_vars.contains(v))
            .min_by_key(|v| v.as_str())
        {
            return Err(GdxError::schema(format!(
                "existential variable {v} also occurs in the target tgd body"
            )));
        }
        for v in self.head.variables() {
            if !ex.contains(&v) && !body_vars.contains(&v) {
                return Err(GdxError::schema(format!(
                    "target tgd head variable {v} is neither existential nor bound"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for TargetTgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tgd {} -> ", self.body)?;
        if !self.existential.is_empty() {
            write!(f, "exists ")?;
            for (i, v) in self.existential.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, " : ")?;
        }
        write!(f, "{};", self.head)
    }
}

/// A sameAs constraint `∀x̄. ψ_Σ(x̄) → (x₁, sameAs, x₂)` — a special target
/// tgd that adds an edge instead of merging nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SameAs {
    /// `ψ_Σ(x̄)`.
    pub body: Cnre,
    /// Source endpoint of the sameAs edge.
    pub lhs: Symbol,
    /// Target endpoint of the sameAs edge.
    pub rhs: Symbol,
}

impl SameAs {
    /// Validates: body over alphabet, endpoints bound.
    pub fn validate(&self, target: &FxHashSet<Symbol>) -> Result<()> {
        self.body.validate(Some(target))?;
        let vars: FxHashSet<Symbol> = self.body.variables().into_iter().collect();
        for v in [self.lhs, self.rhs] {
            if !vars.contains(&v) {
                return Err(GdxError::schema(format!(
                    "sameAs endpoint variable {v} does not occur in the body"
                )));
            }
        }
        Ok(())
    }

    /// The equivalent [`TargetTgd`] (Proposition 4.3 observes sameAs
    /// constraints are a special case of target tgds).
    pub fn as_target_tgd(&self) -> TargetTgd {
        use gdx_common::Term;
        use gdx_nre::Nre;
        use gdx_query::CnreAtom;
        TargetTgd {
            body: self.body.clone(),
            existential: vec![],
            head: Cnre::new(vec![CnreAtom::new(
                Term::Var(self.lhs),
                Nre::Label(crate::same_as_symbol()),
                Term::Var(self.rhs),
            )]),
        }
    }
}

impl fmt::Display for SameAs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sameas {} -> ({}, {});", self.body, self.lhs, self.rhs)
    }
}

/// A target constraint of any kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetConstraint {
    /// Equality-generating.
    Egd(Egd),
    /// Tuple-generating.
    Tgd(TargetTgd),
    /// sameAs edge-generating.
    SameAs(SameAs),
}

impl TargetConstraint {
    /// Validation dispatch.
    pub fn validate(&self, target: &FxHashSet<Symbol>) -> Result<()> {
        match self {
            TargetConstraint::Egd(e) => e.validate(target),
            TargetConstraint::Tgd(t) => t.validate(target),
            TargetConstraint::SameAs(s) => s.validate(target),
        }
    }
}

impl fmt::Display for TargetConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetConstraint::Egd(e) => write!(f, "{e}"),
            TargetConstraint::Tgd(t) => write!(f, "{t}"),
            TargetConstraint::SameAs(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> FxHashSet<Symbol> {
        ["f", "h"].iter().map(|s| Symbol::new(s)).collect()
    }

    #[test]
    fn st_tgd_validation() {
        let tgd = SourceToTargetTgd {
            body: ConjunctiveQuery::parse("Flight(x1, x2, x3), Hotel(x1, x4)").unwrap(),
            existential: vec![Symbol::new("y")],
            head: Cnre::parse("(x2, f.f*, y), (y, h, x4), (y, f.f*, x3)").unwrap(),
        };
        let schema = Schema::from_relations([("Flight", 3), ("Hotel", 2)]).unwrap();
        tgd.validate(&schema, &target()).unwrap();
        assert_eq!(tgd.frontier().len(), 3);

        // Unsafe: head variable z is neither existential nor in body.
        let bad = SourceToTargetTgd {
            head: Cnre::parse("(x2, f, z)").unwrap(),
            ..tgd.clone()
        };
        assert!(bad.validate(&schema, &target()).is_err());

        // Existential clashing with body variable.
        let clash = SourceToTargetTgd {
            existential: vec![Symbol::new("x1")],
            head: Cnre::parse("(x2, f, x1)").unwrap(),
            ..tgd.clone()
        };
        assert!(clash.validate(&schema, &target()).is_err());
        // Two clashes: the error names the least variable by name, in
        // whichever order the existentials are declared.
        for existential in [["x4", "x1"], ["x1", "x4"]] {
            let two = SourceToTargetTgd {
                existential: existential.iter().map(|v| Symbol::new(v)).collect(),
                head: Cnre::parse("(x2, f, x1), (x2, f, x4)").unwrap(),
                ..tgd.clone()
            };
            let err = two.validate(&schema, &target()).unwrap_err().to_string();
            assert!(err.contains("existential variable x1 "), "{err}");
        }

        // Head symbol outside the alphabet.
        let bad_sym = SourceToTargetTgd {
            head: Cnre::parse("(x2, zz, y)").unwrap(),
            ..tgd
        };
        assert!(bad_sym.validate(&schema, &target()).is_err());
        // Two symbols outside the alphabet: the least by name is named,
        // whichever was interned first.
        for head in ["(x2, zz.yy, y)", "(x2, yy.zz, y)"] {
            let two = SourceToTargetTgd {
                head: Cnre::parse(head).unwrap(),
                ..bad_sym.clone()
            };
            let err = two.validate(&schema, &target()).unwrap_err().to_string();
            assert!(err.contains("NRE symbol yy "), "{err}");
        }
    }

    #[test]
    fn egd_validation() {
        let egd = Egd {
            body: Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
            lhs: Symbol::new("x1"),
            rhs: Symbol::new("x2"),
        };
        egd.validate(&target()).unwrap();

        let unbound = Egd {
            lhs: Symbol::new("zz"),
            ..egd.clone()
        };
        assert!(unbound.validate(&target()).is_err());

        let trivial = Egd {
            rhs: Symbol::new("x1"),
            ..egd
        };
        assert!(trivial.validate(&target()).is_err());
    }

    #[test]
    fn sameas_as_target_tgd() {
        let s = SameAs {
            body: Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
            lhs: Symbol::new("x1"),
            rhs: Symbol::new("x2"),
        };
        s.validate(&target()).unwrap();
        let t = s.as_target_tgd();
        assert_eq!(t.head.atoms.len(), 1);
        assert_eq!(
            t.head.atoms[0].nre,
            gdx_nre::Nre::Label(crate::same_as_symbol())
        );
        assert!(t.existential.is_empty());
    }

    #[test]
    fn display_forms() {
        let egd = Egd {
            body: Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
            lhs: Symbol::new("x1"),
            rhs: Symbol::new("x2"),
        };
        assert_eq!(egd.to_string(), "egd (x1, h, x3), (x2, h, x3) -> x1 = x2;");
    }
}
