//! Existence of solutions.
//!
//! The decision procedure follows the paper's case analysis:
//!
//! * **no target constraints** — solutions always exist (Section 3.2): the
//!   canonical instantiation of the chased pattern is returned;
//! * **sameAs (and/or target tgds), no egds** — a solution is constructed
//!   in polynomial time (Section 4.2): instantiate the pattern, saturate
//!   sameAs edges, chase target tgds (bounded);
//! * **egds present** — NP-hard (Theorem 4.1). The solver:
//!   1. runs the adapted chase (Section 5); a **failure** proves no
//!      solution exists;
//!   2. a successful chase does *not* guarantee a solution (Example 5.2!),
//!      so a bounded search over canonical instantiations follows, with an
//!      egd-repair loop (merge forced violations on the concrete graph)
//!      and a full `is_solution` verification of every candidate;
//!   3. when the search exhausts without a solution, the answer is
//!      `NoSolution` only if the setting lies in the *exact fragment*
//!      (star-free, non-nullable s-t heads; no target tgds) where the
//!      candidate family provably covers all homomorphism-minimal
//!      solutions — otherwise `Unknown` (see DESIGN.md §5).
//!
//! The search itself lives in [`crate::session`]: candidates stream out of
//! [`crate::ExchangeSession::solutions`] lazily, so existence stops at the
//! first verified witness. This module keeps the shared machinery: the [`Existence`] outcome, the exact-fragment test, and the
//! concrete-graph egd repair used both by the solver and by callers
//! patching graphs by hand.

use crate::options::Options;
use gdx_chase::{chase_st, chase_target_tgds, saturate_same_as, StChaseVariant};
use gdx_common::{GdxError, Result};
use gdx_graph::{Graph, NodeId};
use gdx_mapping::{Egd, Setting};
use gdx_nre::eval::EvalCache;
use gdx_nre::Nre;
use gdx_query::PreparedQuery;
use gdx_relational::Instance;

/// Outcome of the existence decision.
// The witness graph *is* the payload of the variant; boxing it would
// only shuffle one allocation around.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Existence {
    /// A solution exists; one is attached as the witness.
    Exists(Graph),
    /// Provably no solution exists.
    NoSolution,
    /// The bounded search was inconclusive.
    Unknown(String),
}

impl Existence {
    /// True for [`Existence::Exists`].
    pub fn exists(&self) -> bool {
        matches!(self, Existence::Exists(_))
    }

    /// The witness graph, when present.
    pub fn witness(&self) -> Option<&Graph> {
        match self {
            Existence::Exists(g) => Some(g),
            _ => None,
        }
    }
}

/// The fragment where the candidate family is provably complete: egds with
/// arbitrary bodies, sameAs constraints allowed, but every s-t head NRE
/// star-free and non-nullable, and no proper target tgds. See DESIGN.md §5
/// for the homomorphism argument.
pub fn exact_fragment(setting: &Setting) -> bool {
    if setting.has_target_tgds() {
        return false;
    }
    setting.st_tgds.iter().all(|tgd| {
        tgd.head
            .atoms
            .iter()
            .all(|a| star_free(&a.nre) && !a.nre.nullable())
    })
}

fn star_free(r: &Nre) -> bool {
    match r {
        Nre::Epsilon | Nre::Label(_) | Nre::Inverse(_) => true,
        Nre::Union(a, b) | Nre::Concat(a, b) => star_free(a) && star_free(b),
        Nre::Star(_) => false,
        Nre::Test(a) => star_free(a),
    }
}

/// The concrete-graph egd chase: repeatedly merge nodes forced equal by
/// egd matches. Returns `None` when two distinct constants clash.
/// Terminates because every merge shrinks the node count.
pub fn repair_egds(graph: &Graph, egds: &[Egd]) -> Result<Option<Graph>> {
    if egds.is_empty() {
        return Ok(Some(graph.clone()));
    }
    let prepared: Vec<PreparedEgd> = egds.iter().map(PreparedEgd::new).collect();
    let mut g = graph.clone();
    loop {
        let mut merge: Option<(NodeId, NodeId)> = None;
        {
            let mut cache = EvalCache::new();
            'outer: for egd in &prepared {
                let matches = egd.body.matches(&g, &mut cache)?;
                for row in matches.rows() {
                    if row[egd.li] != row[egd.ri] {
                        merge = Some((row[egd.li], row[egd.ri]));
                        break 'outer;
                    }
                }
            }
        }
        let Some((a, b)) = merge else {
            return Ok(Some(g));
        };
        let (na, nb) = (g.node(a), g.node(b));
        match (na.is_const(), nb.is_const()) {
            (true, true) => return Ok(None),
            (true, false) => g.record_merge(a, b),
            _ => g.record_merge(b, a),
        }
        g.collapse_merges();
    }
}

/// Variant of [`repair_egds`] driven by a union-find, merging *all*
/// violations found in one evaluation round before re-evaluating —
/// noticeably faster on patterns with many parallel violations. Used by
/// the benchmark harness as an ablation (B5).
pub fn repair_egds_batched(graph: &Graph, egds: &[Egd]) -> Result<Option<Graph>> {
    let mut g = graph.clone();
    if repair_egds_in_place(&mut g, egds)? {
        Ok(Some(g))
    } else {
        Ok(None)
    }
}

/// In-place core of [`repair_egds_batched`]: merges all forced violations
/// to fixpoint, returning `false` on a constant clash. When no violation
/// exists, the graph value is left untouched — its [`gdx_graph::GraphId`]
/// survives, so incremental engines watching the graph keep their caches.
pub fn repair_egds_in_place(g: &mut Graph, egds: &[Egd]) -> Result<bool> {
    EgdRepairer::new(egds).repair(g)
}

/// One egd with its body query compiled and the columns of the equated
/// variables resolved.
struct PreparedEgd {
    body: PreparedQuery,
    li: usize,
    ri: usize,
}

impl PreparedEgd {
    // Validation guarantees lhs/rhs occur in the egd body.
    #[allow(clippy::expect_used)]
    fn new(egd: &Egd) -> PreparedEgd {
        let body = PreparedQuery::new(egd.body.clone());
        let vars = body.variables();
        let li = vars.iter().position(|&v| v == egd.lhs).expect("validated");
        let ri = vars.iter().position(|&v| v == egd.rhs).expect("validated");
        PreparedEgd { body, li, ri }
    }
}

/// The concrete-graph egd repair with its queries compiled once — the
/// session holds one of these and runs it on every candidate (per repair
/// round), so the per-candidate cost is evaluation only.
pub(crate) struct EgdRepairer {
    egds: Vec<PreparedEgd>,
}

impl EgdRepairer {
    pub(crate) fn new(egds: &[Egd]) -> EgdRepairer {
        EgdRepairer {
            egds: egds.iter().map(PreparedEgd::new).collect(),
        }
    }

    /// Merges all forced violations to fixpoint, batched through the
    /// graph's union-find merge overlay ([`Graph::record_merge`]): every
    /// violation found in one evaluation round is recorded, then
    /// [`Graph::collapse_merges`] applies them in a single quotient
    /// rebuild — one rebuild per round, not per merge. Returns `false` on
    /// a constant clash (any pending merges are discarded, leaving the
    /// graph unchanged). Violation-free graphs keep their value (and
    /// [`gdx_graph::GraphId`]) untouched.
    pub(crate) fn repair(&self, g: &mut Graph) -> Result<bool> {
        if self.egds.is_empty() {
            return Ok(true);
        }
        loop {
            // Evaluation borrows `g`; collect the round's violating pairs
            // first, then record them through the overlay.
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            {
                let mut cache = EvalCache::new();
                for egd in &self.egds {
                    let matches = egd.body.matches(g, &mut cache)?;
                    for row in matches.rows() {
                        let (a, b) = (row[egd.li], row[egd.ri]);
                        if a != b {
                            pairs.push((a, b));
                        }
                    }
                }
            }
            if pairs.is_empty() {
                return Ok(true);
            }
            for (a, b) in pairs {
                let (ra, rb) = (g.merge_find(a), g.merge_find(b));
                if ra == rb {
                    continue;
                }
                let ca = g.node(ra).is_const();
                let cb = g.node(rb).is_const();
                match (ca, cb) {
                    (true, true) => {
                        g.discard_merges();
                        return Ok(false);
                    }
                    (true, false) => g.record_merge(ra, rb),
                    _ => g.record_merge(rb, ra),
                }
            }
            g.collapse_merges();
        }
    }
}

/// Constructs *a* solution without deciding hard cases: the fast path used
/// when the caller knows the setting has no egds. Errors on egd settings.
pub fn construct_solution_no_egds(
    instance: &Instance,
    setting: &Setting,
    cfg: &Options,
) -> Result<Graph> {
    if setting.has_egds() {
        return Err(GdxError::unsupported(
            "construct_solution_no_egds called on a setting with egds",
        ));
    }
    let st = chase_st(instance, setting, StChaseVariant::Oblivious)?;
    let mut g = gdx_pattern::instantiate_shortest(&st.pattern)?;
    let same_as: Vec<_> = setting.same_as_constraints().cloned().collect();
    if !same_as.is_empty() {
        saturate_same_as(&mut g, &same_as)?;
    }
    let target_tgds: Vec<_> = setting.target_tgds().cloned().collect();
    if !target_tgds.is_empty() {
        g = chase_target_tgds(&g, &target_tgds, cfg.tgd_chase)?.graph;
        if !same_as.is_empty() {
            saturate_same_as(&mut g, &same_as)?;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExchangeSession;
    use gdx_common::Symbol;

    fn session(instance: &Instance, setting: &Setting) -> ExchangeSession {
        ExchangeSession::new(setting.clone(), instance.clone())
    }

    #[test]
    fn example_2_2_has_solution() {
        let mut s = session(&Instance::example_2_2(), &Setting::example_2_2_egd());
        let ex = s.solution_exists().unwrap();
        let g = ex.witness().expect("solution exists");
        assert!(s.is_solution(g).unwrap());
    }

    #[test]
    fn sameas_setting_has_solution_fast_path() {
        let setting = Setting::example_2_2_sameas();
        let g = construct_solution_no_egds(&Instance::example_2_2(), &setting, &Options::default())
            .unwrap();
        assert!(crate::solution::is_solution(&Instance::example_2_2(), &setting, &g).unwrap());
    }

    #[test]
    fn example_5_2_no_solution_despite_chase_success() {
        // The headline subtlety of Section 5.
        let setting = Setting::example_5_2();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R(c1); P(c2);").unwrap();
        let mut s = session(&inst, &setting);
        // 1. The adapted chase succeeds…
        assert!(
            matches!(
                s.representative().unwrap(),
                crate::representative::RepresentativeOutcome::Representative(_)
            ),
            "Example 5.2: chase must succeed"
        );
        // 2. …yet the solver proves nothing satisfies both constraints?
        // The setting's heads contain stars (b*+c*), so it is OUTSIDE the
        // exact fragment; the solver must answer Unknown, not Exists.
        let ex = s.solution_exists().unwrap();
        match ex {
            Existence::Unknown(_) => {}
            Existence::NoSolution => {}
            Existence::Exists(g) => {
                panic!("Example 5.2 has no solution but solver produced one:\n{g}")
            }
        }
    }

    #[test]
    fn egd_failure_is_no_solution() {
        // Two constants forced equal: chase fails ⇒ NoSolution.
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R/2 }
             target { h }
             sttgd R(x, y) -> (x, h, y);
             egd (x1, h, x3), (x2, h, x3) -> x1 = x2;",
        )
        .unwrap();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R(u1, shared); R(u2, shared);").unwrap();
        let ex = session(&inst, &setting).solution_exists().unwrap();
        assert!(matches!(ex, Existence::NoSolution));
    }

    #[test]
    fn egd_failure_is_no_solution_outside_exact_fragment() {
        // A failed adapted chase proves emptiness in *every* fragment: the
        // star head puts this setting outside the exact fragment, yet the
        // constant clash must still yield NoSolution (not Unknown), with
        // certainty vacuous — the Corollary 4.2 convention.
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R/2 }
             target { h; g }
             sttgd R(x, y) -> (x, h, y), (x, g.g*, y);
             egd (x1, h, x3), (x2, h, x3) -> x1 = x2;",
        )
        .unwrap();
        assert!(!exact_fragment(&setting), "g.g* head has a star");
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R(u1, shared); R(u2, shared);").unwrap();
        let mut s = session(&inst, &setting);
        assert!(matches!(
            s.solution_exists().unwrap(),
            Existence::NoSolution
        ));
        let ((c1, c2), _) = s.representative_failure().expect("clash recorded");
        assert_ne!(c1, c2);
        let probe = gdx_query::PreparedQuery::parse("(\"u1\", h, \"shared\")").unwrap();
        assert!(s.certain(&probe).unwrap().is_certain(), "vacuously certain");
    }

    #[test]
    fn union_heads_pick_working_disjunct() {
        // (x, t+f, x) self-loop with an egd forbidding t·a paths: the
        // solver must pick the f loop.
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R1/1; R2/1 }
             target { a; t; f }
             sttgd R1(x), R2(y) -> (x, a, y), (x, t+f, x);
             egd (x, t.a, y) -> x = y;",
        )
        .unwrap();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R1(c1); R2(c2);").unwrap();
        let ex = session(&inst, &setting).solution_exists().unwrap();
        let g = ex.witness().expect("f-loop solution exists");
        let c1 = g.node_id(gdx_graph::Node::cst("c1")).unwrap();
        assert!(g.has_edge_labelled(c1, "f", c1));
        assert!(!g.has_edge_labelled(c1, "t", c1));
    }

    #[test]
    fn both_disjuncts_blocked_is_no_solution() {
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R1/1; R2/1 }
             target { a; t; f }
             sttgd R1(x), R2(y) -> (x, a, y), (x, t+f, x);
             egd (x, t.a, y) -> x = y;
             egd (x, f.a, y) -> x = y;",
        )
        .unwrap();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R1(c1); R2(c2);").unwrap();
        let ex = session(&inst, &setting).solution_exists().unwrap();
        assert!(
            matches!(ex, Existence::NoSolution),
            "exact fragment: search exhaustion proves emptiness, got {ex:?}"
        );
    }

    #[test]
    fn repair_merges_nulls() {
        let g = Graph::parse("(_N1, h, hx); (_N2, h, hx); (_N1, f, z);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
            lhs: Symbol::new("x1"),
            rhs: Symbol::new("x2"),
        };
        for repaired in [
            repair_egds(&g, std::slice::from_ref(&egd))
                .unwrap()
                .unwrap(),
            repair_egds_batched(&g, std::slice::from_ref(&egd))
                .unwrap()
                .unwrap(),
        ] {
            assert_eq!(repaired.node_count(), 3);
            assert_eq!(repaired.edge_count(), 2);
        }
    }

    #[test]
    fn repair_constant_clash_is_none() {
        let g = Graph::parse("(u1, h, hx); (u2, h, hx);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
            lhs: Symbol::new("x1"),
            rhs: Symbol::new("x2"),
        };
        assert!(repair_egds(&g, std::slice::from_ref(&egd))
            .unwrap()
            .is_none());
        assert!(repair_egds_batched(&g, &[egd]).unwrap().is_none());
    }

    #[test]
    fn exact_fragment_detection() {
        assert!(
            !exact_fragment(&Setting::example_2_2_egd()),
            "f.f* has a star"
        );
        assert!(!exact_fragment(&Setting::example_5_2()));
        let reduction_shaped = gdx_mapping::dsl::parse_setting(
            "source { R1/1; R2/1 }
             target { a; t1; f1 }
             sttgd R1(x), R2(y) -> (x, a, y), (x, t1+f1, x);
             egd (x, t1.f1.a, y) -> x = y;",
        )
        .unwrap();
        assert!(exact_fragment(&reduction_shaped));
    }

    #[test]
    fn no_constraints_always_exists() {
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R/2 }
             target { e }
             sttgd R(x, y) -> exists z : (x, e, z), (z, e, y);",
        )
        .unwrap();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R(a, b); R(b, c);").unwrap();
        let ex = session(&inst, &setting).solution_exists().unwrap();
        assert!(ex.exists());
    }
}
