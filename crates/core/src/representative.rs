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
//!
//! The paper leaves open how to *query* such a pair. This module answers
//! from below: every solution receives a homomorphism from `π`, so a
//! query match that every represented graph must contain is a certain
//! answer ([`UniversalRepresentative::certain_answer_lower_bound`]). The
//! verified solution family answers from above: the intersection over
//! any verified subfamily contains the certain answers. The session
//! returns as soon as the two bounds meet.

use crate::options::Options;
use gdx_chase::egd_pattern::{certain_matches, EntailmentIndex};
use gdx_common::{Result, Symbol, Term};
use gdx_graph::{Graph, Node};
use gdx_mapping::TargetConstraint;
use gdx_nre::Nre;
use gdx_pattern::{represents, GraphPattern};
use gdx_query::{Cnre, CnreAtom};

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
    /// Every nesting test at the top level of an atom's concatenation is
    /// first lifted into an atom of its own over fresh helper variables,
    /// recursively: `(x, r₁.[t].r₂, y)` becomes
    /// `(x, r₁, z), (z, t, w), (z, r₂, y)`, and a test at either end binds
    /// its helper to the adjacent term. A lifted atom `(u, s, v)` is then
    /// matched only when a path of pattern edges, of any length,
    /// *entails* `s` (language inclusion — the same machinery as the egd
    /// chase, which cuts paths at `egd_chase.path_bound`). Every
    /// solution receives a homomorphism from the pattern, so each match
    /// holds in every solution. Rows are projected onto the *query's*
    /// variables and kept when those are constants; helper variables may
    /// bind to labeled nulls.
    ///
    /// Completeness is not attempted: tests under a star or a union keep
    /// the syntactic fallback of the egd chase, and each atom needs one
    /// path all of whose realizations match it (no case analysis). Use
    /// [`crate::ExchangeSession::certain_answers`] for the
    /// (bounded-complete) enumeration-based computation.
    pub fn certain_answer_lower_bound(
        &self,
        query: &Cnre,
        cfg: &Options,
    ) -> Result<Vec<Vec<Node>>> {
        LowerBoundIndex::new(&self.pattern, cfg).rows(&self.pattern, query)
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

/// The reusable half of [`UniversalRepresentative::certain_answer_lower_bound`]:
/// the unbounded entailment index of one pattern. A session keeps one per
/// representative, so repeated queries share the per-NRE entailment
/// relations.
#[derive(Debug)]
pub(crate) struct LowerBoundIndex(EntailmentIndex);

impl LowerBoundIndex {
    /// Indexes `pattern`, reading edges reversed when the egd chase does.
    pub(crate) fn new(pattern: &GraphPattern, cfg: &Options) -> LowerBoundIndex {
        LowerBoundIndex(EntailmentIndex::new(
            pattern,
            None,
            cfg.egd_chase.allow_reversed,
        ))
    }

    /// The sorted, deduplicated constant rows of `query` (over its own
    /// variables, in first-occurrence order) that the pattern proves.
    /// `pattern` must be the one the index was built from.
    pub(crate) fn rows(&mut self, pattern: &GraphPattern, query: &Cnre) -> Result<Vec<Vec<Node>>> {
        let lifted = lift_tests(query);
        let matches = certain_matches(pattern, &lifted, &query.variables(), true, &mut self.0)?;
        let mut rows: Vec<Vec<Node>> = matches
            .into_iter()
            .map(|m| m.into_iter().map(|id| pattern.node(id)).collect())
            .collect();
        rows.sort();
        Ok(rows)
    }
}

/// Rewrites every nesting test at the top level of an atom's
/// concatenation into atoms of its own, recursively (see
/// [`UniversalRepresentative::certain_answer_lower_bound`]). Helper
/// variables are named `#lift<n>`, which no parsed query can contain.
fn lift_tests(query: &Cnre) -> Cnre {
    let mut lifter = Lifter {
        atoms: Vec::new(),
        fresh: 0,
    };
    for atom in &query.atoms {
        lifter.lift(atom.left, &atom.nre, atom.right);
    }
    Cnre::new(lifter.atoms)
}

struct Lifter {
    atoms: Vec<CnreAtom>,
    fresh: usize,
}

impl Lifter {
    fn fresh_var(&mut self) -> Term {
        self.fresh += 1;
        Term::Var(Symbol::new(&format!("#lift{}", self.fresh)))
    }

    /// Emits the lifted atoms of `(left, r, right)`.
    fn lift(&mut self, left: Term, r: &Nre, right: Term) {
        let mut factors = Vec::new();
        top_level_factors(r, &mut factors);
        if !factors.iter().any(|f| matches!(f, Nre::Test(_))) {
            self.atoms.push(CnreAtom::new(left, r.clone(), right));
            return;
        }
        // Tests after the last path step sit at the atom's right end.
        let last_step = factors.iter().rposition(|f| !matches!(f, Nre::Test(_)));
        // The path position reached so far, and the factors read since.
        let mut at = left;
        let mut segment: Vec<Nre> = Vec::new();
        for (i, factor) in factors.iter().enumerate() {
            let Nre::Test(t) = factor else {
                segment.push((*factor).clone());
                continue;
            };
            if !segment.is_empty() {
                let next = if last_step < Some(i) {
                    right
                } else {
                    self.fresh_var()
                };
                let run = Nre::concat_all(std::mem::take(&mut segment));
                self.atoms.push(CnreAtom::new(at, run, next));
                at = next;
            }
            if cfg!(not(feature = "fault-lift-test")) {
                let witness = self.fresh_var();
                self.lift(at, t, witness);
            }
        }
        if !segment.is_empty() {
            self.atoms
                .push(CnreAtom::new(at, Nre::concat_all(segment), right));
        } else if at != right {
            // Nothing but tests since the left end: both ends coincide.
            self.atoms.push(CnreAtom::new(at, Nre::Epsilon, right));
        }
    }
}

/// The factors of `r`'s top-level concatenation, in path order (`ε`
/// factors dropped). Stars and unions are single opaque factors.
fn top_level_factors<'a>(r: &'a Nre, out: &mut Vec<&'a Nre>) {
    match r {
        Nre::Concat(a, b) => {
            top_level_factors(a, out);
            top_level_factors(b, out);
        }
        Nre::Epsilon => {}
        other => out.push(other),
    }
}

/// Internal view used to evaluate a constraint list without a full
/// [`gdx_mapping::Setting`].
struct SettingView<'a> {
    constraints: &'a [TargetConstraint],
}

impl SettingView<'_> {
    #[expect(
        clippy::expect_used,
        reason = "validation guarantees egd lhs/rhs occur in their body"
    )]
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

    fn lifted(query: &str) -> Vec<String> {
        lift_tests(&Cnre::parse(query).unwrap())
            .atoms
            .iter()
            .map(ToString::to_string)
            .collect()
    }

    #[test]
    fn lifting_splits_the_path_at_each_test() {
        assert_eq!(
            lifted("(x, f.[h].g, y)"),
            ["(x, f, #lift1)", "(#lift1, h, #lift2)", "(#lift1, g, y)"]
        );
        // A test at either end binds its position to the adjacent term.
        assert_eq!(lifted("(x, [h].f, y)"), ["(x, h, #lift1)", "(x, f, y)"]);
        assert_eq!(lifted("(x, f.[h], y)"), ["(x, f, y)", "(y, h, #lift1)"]);
        assert_eq!(
            lifted("(\"c1\", f.[h], \"c2\")"),
            ["(\"c1\", f, \"c2\")", "(\"c2\", h, #lift1)"]
        );
        // A lone test makes both ends one node.
        assert_eq!(lifted("(x, [h], y)"), ["(x, h, #lift1)", "(x, eps, y)"]);
        assert_eq!(lifted("(x, [h], x)"), ["(x, h, #lift1)"]);
    }

    #[test]
    fn lifting_recurses_into_tests() {
        assert_eq!(
            lifted("(x, f.[g.[h]].f, y)"),
            [
                "(x, f, #lift1)",
                "(#lift1, g, #lift2)",
                "(#lift2, h, #lift3)",
                "(#lift1, f, y)"
            ]
        );
    }

    #[test]
    fn tests_under_a_star_or_a_union_stay_in_place() {
        for q in ["(x, (f.[h])*, y)", "(x, f + [h], y)", "(x, f.f*, y)"] {
            assert_eq!(lifted(q), [Cnre::parse(q).unwrap().atoms[0].to_string()]);
        }
        // Only the top-level test of a mixed path is lifted.
        assert_eq!(
            lifted("(x, f.[h].(g.[h])*, y)"),
            [
                "(x, f, #lift1)",
                "(#lift1, h, #lift2)",
                "(#lift1, (g.[h])*, y)"
            ]
        );
    }

    #[test]
    fn a_helper_bound_to_a_null_still_yields_the_row() {
        let rep = UniversalRepresentative {
            pattern: GraphPattern::parse("(c1, f, _N); (_N, h, hx); (_N, f, c2);").unwrap(),
            constraints: Vec::new(),
        };
        let q = Cnre::parse("(x, f.[h].f, y)").unwrap();
        let rows = rep
            .certain_answer_lower_bound(&q, &Options::default())
            .unwrap();
        assert_eq!(rows, vec![vec![Node::cst("c1"), Node::cst("c2")]]);
        // Without the h-edge the test fails on the pattern: no row.
        let bare = UniversalRepresentative {
            pattern: GraphPattern::parse("(c1, f, _N); (_N, f, c2);").unwrap(),
            constraints: Vec::new(),
        };
        let none = bare
            .certain_answer_lower_bound(&q, &Options::default())
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn example_2_2_paper_query_is_proven_on_the_pattern() {
        // The paper's query `(x1, f.f*.[h].f-.(f-)*, x2)`: its test sits
        // at the top level, so the pattern proves all four certain pairs,
        // the full answer of the enumeration-based computation.
        let rep = rep_2_2();
        let q = gdx_query::PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
        let mut lower = rep
            .certain_answer_lower_bound(q.cnre(), &Options::default())
            .unwrap();
        let mut session = ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2());
        session.solutions().unwrap().for_each(drop);
        let (mut full, _) = session.certain_answers(&q).unwrap();
        assert_eq!(full.len(), 4, "the paper's four certain pairs");
        lower.sort();
        full.sort();
        assert_eq!(lower, full);
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
