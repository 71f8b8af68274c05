//! The data exchange setting `Ω = (R, Σ, M_st, M_t)`.

use crate::constraint::{Egd, SameAs, SourceToTargetTgd, TargetConstraint, TargetTgd};
use gdx_common::{FxHashSet, GdxError, Result, Symbol};
use gdx_graph::Graph;
use gdx_relational::Schema;
use std::fmt;

/// A relational-to-graph data exchange setting (Definition 2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Setting {
    /// The source schema `R`.
    pub source: Schema,
    /// The target alphabet `Σ` in declaration order.
    pub target: Vec<Symbol>,
    /// The s-t tgds `M_st`.
    pub st_tgds: Vec<SourceToTargetTgd>,
    /// The target constraints `M_t`.
    pub target_constraints: Vec<TargetConstraint>,
}

impl Setting {
    /// Builds and validates a setting.
    pub fn new(
        source: Schema,
        target: Vec<Symbol>,
        st_tgds: Vec<SourceToTargetTgd>,
        target_constraints: Vec<TargetConstraint>,
    ) -> Result<Setting> {
        let s = Setting {
            source,
            target,
            st_tgds,
            target_constraints,
        };
        s.validate()?;
        Ok(s)
    }

    /// The target alphabet as a set; sameAs constraints implicitly extend
    /// the alphabet with the `sameAs` symbol.
    pub fn alphabet(&self) -> FxHashSet<Symbol> {
        let mut ab: FxHashSet<Symbol> = self.target.iter().copied().collect();
        if self.has_same_as() {
            ab.insert(crate::same_as_symbol());
        }
        ab
    }

    /// True when `M_t` contains at least one egd.
    pub fn has_egds(&self) -> bool {
        self.target_constraints
            .iter()
            .any(|c| matches!(c, TargetConstraint::Egd(_)))
    }

    /// True when `M_t` contains at least one proper target tgd.
    pub fn has_target_tgds(&self) -> bool {
        self.target_constraints
            .iter()
            .any(|c| matches!(c, TargetConstraint::Tgd(_)))
    }

    /// True when `M_t` contains at least one sameAs constraint.
    pub fn has_same_as(&self) -> bool {
        self.target_constraints
            .iter()
            .any(|c| matches!(c, TargetConstraint::SameAs(_)))
    }

    /// The egds of `M_t`.
    pub fn egds(&self) -> impl Iterator<Item = &Egd> {
        self.target_constraints.iter().filter_map(|c| match c {
            TargetConstraint::Egd(e) => Some(e),
            _ => None,
        })
    }

    /// The sameAs constraints of `M_t`.
    pub fn same_as_constraints(&self) -> impl Iterator<Item = &SameAs> {
        self.target_constraints.iter().filter_map(|c| match c {
            TargetConstraint::SameAs(s) => Some(s),
            _ => None,
        })
    }

    /// The proper target tgds of `M_t`.
    pub fn target_tgds(&self) -> impl Iterator<Item = &TargetTgd> {
        self.target_constraints.iter().filter_map(|c| match c {
            TargetConstraint::Tgd(t) => Some(t),
            _ => None,
        })
    }

    /// Validates every component.
    pub fn validate(&self) -> Result<()> {
        if self.target.is_empty() {
            return Err(GdxError::schema("empty target alphabet"));
        }
        let declared: FxHashSet<Symbol> = self.target.iter().copied().collect();
        if declared.len() != self.target.len() {
            return Err(GdxError::schema("duplicate target alphabet symbol"));
        }
        if declared.contains(&crate::same_as_symbol()) {
            return Err(GdxError::schema(
                "`sameAs` is reserved; it is added implicitly by sameas constraints",
            ));
        }
        let ab = self.alphabet();
        for tgd in &self.st_tgds {
            tgd.validate(&self.source, &ab)?;
        }
        for c in &self.target_constraints {
            c.validate(&ab)?;
        }
        Ok(())
    }

    /// Checks that a graph uses only the setting's (extended) alphabet.
    pub fn graph_conforms(&self, g: &Graph) -> bool {
        g.conforms_to(&self.alphabet())
    }

    /// The paper's Example 2.2 setting `Ω` (with the egd).
    #[expect(
        clippy::expect_used,
        reason = "static paper fixture: the literal parses by construction"
    )]
    pub fn example_2_2_egd() -> Setting {
        crate::dsl::parse_setting(
            "source { Flight/3; Hotel/2 }
             target { f; h }
             sttgd Flight(x1, x2, x3), Hotel(x1, x4)
                   -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
             egd (x1, h, x3), (x2, h, x3) -> x1 = x2;",
        )
        .expect("static setting")
    }

    /// The paper's Example 2.2 setting `Ω′` (with the sameAs constraint).
    #[expect(
        clippy::expect_used,
        reason = "static paper fixture: the literal parses by construction"
    )]
    pub fn example_2_2_sameas() -> Setting {
        crate::dsl::parse_setting(
            "source { Flight/3; Hotel/2 }
             target { f; h }
             sttgd Flight(x1, x2, x3), Hotel(x1, x4)
                   -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
             sameas (x1, h, x3), (x2, h, x3) -> (x1, x2);",
        )
        .expect("static setting")
    }

    /// The Example 3.1 setting (relational fragment: single-symbol heads,
    /// same egd).
    #[expect(
        clippy::expect_used,
        reason = "static paper fixture: the literal parses by construction"
    )]
    pub fn example_3_1() -> Setting {
        crate::dsl::parse_setting(
            "source { Flight/3; Hotel/2 }
             target { f; h }
             sttgd Flight(x1, x2, x3), Hotel(x1, x4)
                   -> exists y : (x2, f, y), (y, h, x4), (y, f, x3);
             egd (x1, h, x3), (x2, h, x3) -> x1 = x2;",
        )
        .expect("static setting")
    }

    /// The Example 5.2 setting: chase succeeds yet no solution exists.
    #[expect(
        clippy::expect_used,
        reason = "static paper fixture: the literal parses by construction"
    )]
    pub fn example_5_2() -> Setting {
        crate::dsl::parse_setting(
            "source { R/1; P/1 }
             target { a; b; c }
             sttgd R(x), P(y) -> (x, a.(b*+c*).a, y);
             egd (x, a+b+c, y) -> x = y;",
        )
        .expect("static setting")
    }
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "source {{ {} }}", self.source)?;
        write!(f, "target {{ ")?;
        for (i, s) in self.target.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{s}")?;
        }
        writeln!(f, " }}")?;
        for tgd in &self.st_tgds {
            writeln!(f, "{tgd}")?;
        }
        for c in &self.target_constraints {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_settings_validate() {
        for s in [
            Setting::example_2_2_egd(),
            Setting::example_2_2_sameas(),
            Setting::example_3_1(),
            Setting::example_5_2(),
        ] {
            s.validate().unwrap();
        }
    }

    #[test]
    fn classification_helpers() {
        let egd = Setting::example_2_2_egd();
        assert!(egd.has_egds());
        assert!(!egd.has_same_as());
        assert_eq!(egd.egds().count(), 1);

        let sa = Setting::example_2_2_sameas();
        assert!(!sa.has_egds());
        assert!(sa.has_same_as());
        assert!(sa.alphabet().contains(&crate::same_as_symbol()));
        assert!(!egd.alphabet().contains(&crate::same_as_symbol()));
    }

    #[test]
    fn display_reparses() {
        let s = Setting::example_2_2_egd();
        let s2 = crate::dsl::parse_setting(&s.to_string()).unwrap();
        assert_eq!(s, s2);
        let s = Setting::example_5_2();
        let s2 = crate::dsl::parse_setting(&s.to_string()).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn graph_conformance() {
        let s = Setting::example_2_2_egd();
        let ok = Graph::parse("(c1, f, c2); (c1, h, hx);").unwrap();
        assert!(s.graph_conforms(&ok));
        let bad = Graph::parse("(c1, z, c2);").unwrap();
        assert!(!s.graph_conforms(&bad));
        // sameAs edges conform only in the sameAs setting.
        let sa_graph = Graph::parse("(c1, sameAs, c2); (c1, f, c2);").unwrap();
        assert!(!s.graph_conforms(&sa_graph));
        assert!(Setting::example_2_2_sameas().graph_conforms(&sa_graph));
    }

    #[test]
    fn reserved_sameas_symbol() {
        let r = Setting::new(
            Schema::from_relations([("R", 1)]).unwrap(),
            vec![Symbol::new("sameAs")],
            vec![],
            vec![],
        );
        assert!(r.is_err());
    }

    #[test]
    fn empty_alphabet_rejected() {
        let r = Setting::new(
            Schema::from_relations([("R", 1)]).unwrap(),
            vec![],
            vec![],
            vec![],
        );
        assert!(r.is_err());
    }
}
