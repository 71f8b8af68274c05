//! Universal representatives in the presence of target constraints
//! (Section 5).
//!
//! Without target constraints, the chased graph pattern `π` is a universal
//! representative: `Sol_Ω(I) = Rep_Σ(π)` \[5\]. With egds this breaks down
//! twice over:
//!
//! * a **successful** adapted chase does not guarantee a solution
//!   (Example 5.2 — tested in `exists`);
//! * **no graph pattern alone** can capture `Sol_Ω(I)` (Proposition 5.3):
//!   any graph in `Rep_Σ(π)` can be extended with edges that break an egd
//!   while remaining in `Rep_Σ(π)` (Example 5.4 / Figure 7).
//!
//! The paper's proposed fix is the pair *(graph pattern, target
//! constraints)*: `Sol = {G | π → G and G ⊨ M_t}` — implemented here as
//! [`UniversalRepresentative`].

use crate::options::Options;
use gdx_common::Result;
use gdx_graph::Graph;
use gdx_mapping::TargetConstraint;
use gdx_pattern::{represents, GraphPattern};

/// The pair `(pattern, target constraints)` of Section 5.
#[derive(Debug, Clone)]
pub struct UniversalRepresentative {
    /// The chased graph pattern.
    pub pattern: GraphPattern,
    /// The target constraints retained alongside the pattern.
    pub constraints: Vec<TargetConstraint>,
}

/// Outcome of chasing a representative.
#[derive(Debug, Clone)]
pub enum RepresentativeOutcome {
    /// The adapted chase failed: `Sol_Ω(I) = ∅`.
    ChaseFailed,
    /// The chased pair.
    Representative(UniversalRepresentative),
}

impl UniversalRepresentative {
    /// Membership in `Rep_Σ(pattern)` — the *pattern-only* approximation
    /// (Proposition 5.3 shows this over-approximates `Sol_Ω(I)`).
    pub fn pattern_admits(&self, graph: &Graph) -> bool {
        represents(&self.pattern, graph)
    }

    /// A **sound lower bound** on the certain answers of `query`, computed
    /// *directly on the pattern* — the paper's open question of "how to
    /// query universal representatives consisting of a pair (graph
    /// pattern, set of target constraints)".
    ///
    /// A query atom `(x, s, y)` is matched only when a bounded path of
    /// pattern edges *entails* `s` (language inclusion — the same
    /// machinery as the egd chase), so every returned constant row holds
    /// in **every** represented graph, hence in every solution.
    /// Completeness is not attempted: entailment through nesting tests
    /// falls back to syntactic equality, and longer paths than the bound
    /// are not explored. Use [`crate::ExchangeSession::certain_answers`] for the
    /// (bounded-complete) enumeration-based computation.
    pub fn certain_answer_lower_bound(
        &self,
        query: &gdx_query::Cnre,
        cfg: &Options,
    ) -> Result<Vec<Vec<gdx_graph::Node>>> {
        use gdx_chase::egd_pattern::certain_matches;
        let mut cache = gdx_common::FxHashMap::default();
        let matches = certain_matches(&self.pattern, query, cfg.egd_chase, &mut cache)?;
        let vars = query.variables();
        let mut rows: Vec<Vec<gdx_graph::Node>> = matches
            .into_iter()
            .filter_map(|m| {
                let row: Vec<gdx_graph::Node> =
                    vars.iter().map(|v| self.pattern.node(m[v])).collect();
                row.iter().all(gdx_graph::Node::is_const).then_some(row)
            })
            .collect();
        rows.sort();
        rows.dedup();
        Ok(rows)
    }

    /// Membership in the pair semantics: `π → G` **and** `G ⊨ M_t`.
    ///
    /// Note this captures the *target-constraint side* of solutionhood; a
    /// caller with the source instance at hand should prefer
    /// [`crate::solution::is_solution`], which also re-checks `M_st`
    /// directly. For chase-produced patterns the two agree (the pattern
    /// encodes all triggers).
    pub fn admits(&self, graph: &Graph) -> Result<bool> {
        if !represents(&self.pattern, graph) {
            return Ok(false);
        }
        let setting_like = SettingView {
            constraints: &self.constraints,
        };
        setting_like.satisfied(graph)
    }
}

/// Internal view used to evaluate a constraint list without a full
/// [`gdx_mapping::Setting`].
struct SettingView<'a> {
    constraints: &'a [TargetConstraint],
}

impl SettingView<'_> {
    // Validation guarantees egd lhs/rhs occur in their body.
    #[allow(clippy::expect_used)]
    fn satisfied(&self, graph: &Graph) -> Result<bool> {
        use gdx_chase::sameas::same_as_satisfied;
        use gdx_common::{FxHashMap, Symbol};
        use gdx_graph::NodeId;
        use gdx_nre::eval::EvalCache;
        use gdx_query::PreparedQuery;
        let mut cache = EvalCache::new();
        for c in self.constraints {
            match c {
                TargetConstraint::Egd(egd) => {
                    let body = PreparedQuery::new(egd.body.clone());
                    let m = body.matches(graph, &mut cache)?;
                    let vars = m.vars();
                    let li = vars.iter().position(|&v| v == egd.lhs).expect("validated");
                    let ri = vars.iter().position(|&v| v == egd.rhs).expect("validated");
                    if m.rows().any(|r| r[li] != r[ri]) {
                        return Ok(false);
                    }
                }
                TargetConstraint::Tgd(tgd) => {
                    let body = PreparedQuery::new(tgd.body.clone());
                    let head = PreparedQuery::new(tgd.head.clone());
                    let m = body.matches(graph, &mut cache)?;
                    let vars: Vec<Symbol> = m.vars().to_vec();
                    let rows: Vec<Vec<NodeId>> = m.rows().map(|r| r.to_vec()).collect();
                    for row in rows {
                        let seed: FxHashMap<Symbol, NodeId> = tgd
                            .head
                            .variables()
                            .into_iter()
                            .filter_map(|v| {
                                vars.iter().position(|&bv| bv == v).map(|i| (v, row[i]))
                            })
                            .collect();
                        if !head.evaluate_seeded_exists(graph, &mut cache, &seed)? {
                            return Ok(false);
                        }
                    }
                }
                TargetConstraint::SameAs(sa) => {
                    if !same_as_satisfied(graph, std::slice::from_ref(sa))? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExchangeSession;
    use gdx_mapping::Setting;
    use gdx_relational::Instance;

    fn rep_of(instance: &Instance, setting: &Setting) -> RepresentativeOutcome {
        ExchangeSession::new(setting.clone(), instance.clone())
            .representative()
            .unwrap()
            .clone()
    }

    fn rep_2_2() -> UniversalRepresentative {
        match rep_of(&Instance::example_2_2(), &Setting::example_2_2_egd()) {
            RepresentativeOutcome::Representative(r) => r,
            RepresentativeOutcome::ChaseFailed => panic!("chase must succeed"),
        }
    }

    #[test]
    fn chased_pattern_is_figure_5() {
        let rep = rep_2_2();
        assert_eq!(rep.pattern.node_count(), 7);
        assert_eq!(rep.pattern.null_count(), 2);
        assert_eq!(rep.pattern.edge_count(), 7);
    }

    #[test]
    fn proposition_5_3_pattern_alone_is_not_universal() {
        // Figure 7: homomorphism from the Figure 5 pattern exists, but the
        // egd is violated — so Rep(π) ⊋ Sol.
        let rep = rep_2_2();
        let fig7 = Graph::parse(
            "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);
             (c1, h, hx); (c3, h, hy);",
        )
        .unwrap();
        assert!(
            rep.pattern_admits(&fig7),
            "Figure 7 is in Rep(π): the pattern alone admits it"
        );
        assert!(
            !rep.admits(&fig7).unwrap(),
            "the (pattern, egds) pair rejects it"
        );
        assert!(!crate::solution::is_solution(
            &Instance::example_2_2(),
            &Setting::example_2_2_egd(),
            &fig7
        )
        .unwrap());
    }

    #[test]
    fn pair_accepts_genuine_solutions() {
        let rep = rep_2_2();
        let g1 = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);")
            .unwrap();
        assert!(rep.pattern_admits(&g1));
        assert!(rep.admits(&g1).unwrap());
    }

    #[test]
    fn pair_rejects_non_represented_graphs() {
        let rep = rep_2_2();
        let tiny = Graph::parse("(c1, f, c2);").unwrap();
        assert!(!rep.pattern_admits(&tiny));
        assert!(!rep.admits(&tiny).unwrap());
    }

    #[test]
    fn failed_chase_is_reported() {
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R/2 }
             target { h }
             sttgd R(x, y) -> (x, h, y);
             egd (x1, h, x3), (x2, h, x3) -> x1 = x2;",
        )
        .unwrap();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R(u1, s); R(u2, s);").unwrap();
        let out = rep_of(&inst, &setting);
        assert!(matches!(out, RepresentativeOutcome::ChaseFailed));
    }

    #[test]
    fn pattern_level_certain_answers_are_sound() {
        // Query (x, f.f*, y): paths of f.f* edges entail f.f* (the
        // inclusion L(f.f*·f.f*) ⊆ L(f.f*) holds), so the pattern-level
        // bound finds the constant pairs (c1,c2) and (c3,c2).
        let rep = rep_2_2();
        let q = gdx_query::Cnre::parse("(x, f.f*, y)").unwrap();
        let rows = rep
            .certain_answer_lower_bound(&q, &Options::default())
            .unwrap();
        let names: Vec<(String, String)> = rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        assert!(names.contains(&("c1".to_string(), "c2".to_string())));
        assert!(names.contains(&("c3".to_string(), "c2".to_string())));
        // Soundness against the enumeration-based computation.
        let (full, _) = ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2())
            .certain_answers(&gdx_query::PreparedQuery::new(q.clone()))
            .unwrap();
        for row in &rows {
            assert!(full.contains(row), "{row:?} must be certain");
        }
    }

    #[test]
    fn no_constraint_setting_matches_rep_semantics() {
        // Without target constraints, admits == pattern_admits.
        let setting = gdx_mapping::dsl::parse_setting(
            "source { Flight/3; Hotel/2 }
             target { f; h }
             sttgd Flight(x1, x2, x3), Hotel(x1, x4)
                   -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);",
        )
        .unwrap();
        let out = rep_of(&Instance::example_2_2(), &setting);
        let RepresentativeOutcome::Representative(rep) = out else {
            panic!("no egds: chase cannot fail")
        };
        assert_eq!(rep.pattern.null_count(), 3, "Figure 3 pattern");
        let g1 = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);")
            .unwrap();
        assert_eq!(rep.pattern_admits(&g1), rep.admits(&g1).unwrap());
    }
}
