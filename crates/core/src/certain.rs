//! Certain answers: `cert_Ω(Q, I) = ⋂ {⟦Q⟧_G | G ∈ Sol_Ω(I)}`.
//!
//! The decision procedure exploits positivity: CNREs (and NREs) are
//! preserved under homomorphisms, so if *any* solution fails to select a
//! tuple, some homomorphism-minimal solution fails too. The verified
//! minimal-solution family of [`crate::ExchangeSession::solutions`]
//! therefore doubles as the counterexample pool:
//!
//! * a candidate solution **not** selecting the tuple is a counterexample
//!   (`NotCertain`) — always sound;
//! * when the family is exhaustive (exact fragment, bounds not hit) and
//!   every member selects the tuple, the tuple is `Certain`;
//! * when no solution exists at all, everything is (vacuously) `Certain` —
//!   the convention Corollary 4.2 relies on;
//! * otherwise `Unknown`.
//!
//! The decisions live on [`crate::ExchangeSession`] ([`certain`],
//! [`certain_pair`][crate::ExchangeSession::certain_pair],
//! [`certain_answers`][crate::ExchangeSession::certain_answers]) so the
//! enumerated family, the chased representative, and per-solution
//! evaluation caches are shared across queries.
//!
//! [`certain`]: crate::ExchangeSession::certain

use gdx_graph::Graph;

/// Outcome of a certain-answer test.
#[expect(
    clippy::large_enum_variant,
    reason = "the counterexample graph *is* the evidence callers want; boxing it would only shuffle one allocation around"
)]
#[derive(Debug, Clone)]
pub enum CertainAnswer {
    /// The tuple holds in every solution (exactly decided).
    Certain,
    /// A solution not selecting the tuple exists; attached as evidence.
    NotCertain(Graph),
    /// The bounded search was inconclusive.
    Unknown(String),
}

impl CertainAnswer {
    /// True for [`CertainAnswer::Certain`].
    pub fn is_certain(&self) -> bool {
        matches!(self, CertainAnswer::Certain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use crate::reduction::{Reduction, ReductionFlavor};
    use crate::session::ExchangeSession;
    use gdx_common::Term;
    use gdx_mapping::Setting;
    use gdx_nre::parse::parse_nre;
    use gdx_query::PreparedQuery;
    use gdx_relational::Instance;
    use gdx_sat::{Cnf, Lit};

    fn session(instance: &Instance, setting: &Setting) -> ExchangeSession {
        ExchangeSession::new(setting.clone(), instance.clone())
    }

    fn reduction_session(red: &Reduction, n: u32) -> ExchangeSession {
        // Raise the candidate-family cap so the search is exact for a
        // reduction over `n` variables (family size `2^n`).
        let cap = 1usize << n.min(20);
        ExchangeSession::new(red.setting.clone(), red.instance.clone())
            .with_options(Options::default().with_max_graphs(cap.saturating_add(8)))
    }

    #[test]
    fn corollary_4_2_on_satisfiable_formula() {
        // ρ₀ satisfiable ⇒ (c1,c2) ∉ cert(a·a).
        let mut f = Cnf::new(4);
        f.add_clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]);
        f.add_clause(vec![Lit::neg(0), Lit::pos(2), Lit::neg(3)]);
        let r = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
        let mut s = reduction_session(&r, 4);
        let ans = s
            .certain_pair(&Reduction::certain_query_egd(), "c1", "c2")
            .unwrap();
        match ans {
            CertainAnswer::NotCertain(g) => {
                // The counterexample must be a genuine solution.
                assert!(crate::solution::is_solution(&r.instance, &r.setting, &g).unwrap());
            }
            other => panic!("expected NotCertain, got {other:?}"),
        }
    }

    #[test]
    fn corollary_4_2_on_unsatisfiable_formula() {
        // Unsat ⇒ no solutions ⇒ (c1,c2) vacuously certain.
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(0)]);
        f.add_clause(vec![Lit::neg(0)]);
        let r = Reduction::from_cnf(&f, ReductionFlavor::Egd).unwrap();
        let ans = reduction_session(&r, 1)
            .certain_pair(&Reduction::certain_query_egd(), "c1", "c2")
            .unwrap();
        assert!(ans.is_certain());
    }

    #[test]
    fn proposition_4_3_sameas_certainty() {
        // Satisfiable ⇒ some solution omits the sameAs(c1,c2) edge.
        let mut sat = Cnf::new(2);
        sat.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        let r = Reduction::from_cnf(&sat, ReductionFlavor::SameAs).unwrap();
        let ans = reduction_session(&r, 2)
            .certain_pair(&Reduction::certain_query_sameas(), "c1", "c2")
            .unwrap();
        assert!(matches!(ans, CertainAnswer::NotCertain(_)));

        // Unsatisfiable ⇒ every valuation falsifies some clause ⇒ the
        // sameAs(c1, c2) edge is forced in every minimal solution.
        let mut unsat = Cnf::new(1);
        unsat.add_clause(vec![Lit::pos(0)]);
        unsat.add_clause(vec![Lit::neg(0)]);
        let r = Reduction::from_cnf(&unsat, ReductionFlavor::SameAs).unwrap();
        let ans = reduction_session(&r, 1)
            .certain_pair(&Reduction::certain_query_sameas(), "c1", "c2")
            .unwrap();
        assert!(ans.is_certain(), "got {ans:?}");
    }

    #[test]
    fn example_2_2_certain_answers() {
        // cert_Ω(Q, I) = {(c1,c1),(c1,c3),(c3,c1),(c3,c3)} per the paper.
        let q = PreparedQuery::single(
            Term::var("x1"),
            parse_nre("f.f*.[h].f-.(f-)*").unwrap(),
            Term::var("x2"),
        );
        let (rows, _exact) = session(&Instance::example_2_2(), &Setting::example_2_2_egd())
            .certain_answers(&q)
            .unwrap();
        let set: std::collections::BTreeSet<(String, String)> = rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        let expected: std::collections::BTreeSet<(String, String)> =
            [("c1", "c1"), ("c1", "c3"), ("c3", "c1"), ("c3", "c3")]
                .iter()
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect();
        assert_eq!(set, expected);
    }

    #[test]
    fn example_2_2_sameas_certain_answers_differ() {
        // Under Ω′ the certain answers shrink to {(c1,c1),(c3,c3)}.
        let q = PreparedQuery::single(
            Term::var("x1"),
            parse_nre("f.f*.[h].f-.(f-)*").unwrap(),
            Term::var("x2"),
        );
        let (rows, _exact) = session(&Instance::example_2_2(), &Setting::example_2_2_sameas())
            .certain_answers(&q)
            .unwrap();
        let set: std::collections::BTreeSet<(String, String)> = rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        let expected: std::collections::BTreeSet<(String, String)> = [("c1", "c1"), ("c3", "c3")]
            .iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .collect();
        assert_eq!(set, expected);
    }

    #[test]
    fn pattern_proof_upgrades_unknown_to_certain() {
        // Example 2.2 is outside the exact fragment (star heads), so the
        // enumeration alone cannot *prove* certainty — but the
        // pattern-level entailment can: (c1, f.f*, c2) follows from the
        // chased pattern's f.f* path through N1.
        let mut s = session(&Instance::example_2_2(), &Setting::example_2_2_egd());
        let ans = s
            .certain_pair(&parse_nre("f.f*").unwrap(), "c1", "c2")
            .unwrap();
        assert!(ans.is_certain(), "got {ans:?}");
        // A pair that no solution selects stays NotCertain.
        let ans = s
            .certain_pair(&parse_nre("f.f*").unwrap(), "c2", "c1")
            .unwrap();
        assert!(matches!(ans, CertainAnswer::NotCertain(_)));
    }

    #[test]
    fn non_boolean_query_rejected_by_certain() {
        let q = PreparedQuery::parse("(x, f, y)").unwrap();
        let r = session(&Instance::example_2_2(), &Setting::example_2_2_egd()).certain(&q);
        assert!(r.is_err());
    }
}
