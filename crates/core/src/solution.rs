//! Solution checking: `G ∈ Sol_Ω(I)`.
//!
//! `G` is a solution for `I` under `Ω = (R, Σ, M_st, M_t)` when
//! `(I, G) ⊨ M_st` (every s-t tgd trigger has a head witness in `G`) and
//! `G ⊨ M_t` (every egd / target tgd / sameAs constraint holds).
//! Everything here is exact — no bounds, no approximation.
//!
//! [`SolutionChecker`] is the compiled form: every s-t tgd head and every
//! constraint body/head is a [`PreparedQuery`] built once per setting, so
//! the candidate loops of the solver (which call the check per candidate,
//! per repair round) pay for automaton compilation once per session
//! instead of once per call. The free functions remain as one-shot
//! wrappers with identical semantics.

use gdx_chase::sameas::same_as_satisfied;
use gdx_common::{FxHashMap, Result, Symbol};
use gdx_graph::{Graph, Node, NodeId};
use gdx_mapping::{SameAs, Setting, TargetConstraint, TargetTgd};
use gdx_nre::eval::EvalCache;
use gdx_query::PreparedQuery;
use gdx_relational::{evaluate as eval_cq, Instance};
use gdx_runtime::Runtime;

/// Exact membership test for `Sol_Ω(I)`.
///
/// One-shot wrapper around [`SolutionChecker`]; callers testing many
/// graphs against one setting (the solver, a session) should build the
/// checker once.
///
/// ```
/// use gdx_exchange::is_solution;
/// use gdx_graph::Graph;
/// use gdx_mapping::Setting;
/// use gdx_relational::Instance;
/// // Figure 1(a): G1 is a solution under Ω (the egd setting).
/// let g1 = Graph::parse(
///     "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);",
/// ).unwrap();
/// assert!(is_solution(&Instance::example_2_2(), &Setting::example_2_2_egd(), &g1).unwrap());
/// ```
pub fn is_solution(instance: &Instance, setting: &Setting, graph: &Graph) -> Result<bool> {
    SolutionChecker::new(setting).is_solution(instance, graph)
}

/// `(I, G) ⊨ M_st`?
pub fn st_tgds_satisfied(instance: &Instance, setting: &Setting, graph: &Graph) -> Result<bool> {
    SolutionChecker::new(setting).st_tgds_satisfied(instance, graph)
}

/// `G ⊨ M_t`?
pub fn target_constraints_satisfied(setting: &Setting, graph: &Graph) -> Result<bool> {
    SolutionChecker::new(setting).target_constraints_satisfied(graph)
}

/// One target constraint with its queries compiled.
enum PreparedConstraint {
    /// Egd body plus the column positions of its two equated variables.
    Egd {
        body: PreparedQuery,
        li: usize,
        ri: usize,
    },
    /// Target tgd body and head.
    Tgd {
        tgd: TargetTgd,
        body: PreparedQuery,
        head: PreparedQuery,
    },
    /// sameAs constraints go through the dedicated saturation checker.
    SameAs(SameAs),
}

/// The compiled `Sol_Ω(I)` membership test for one setting: per s-t tgd a
/// prepared head query, per target constraint prepared body/head queries.
/// Graph-independent — one checker serves any number of candidate graphs
/// (the compiled automata live in the queries; every check keeps its memos
/// in caches of its own).
pub struct SolutionChecker {
    setting: Setting,
    /// Prepared heads, aligned with `setting.st_tgds`.
    st_heads: Vec<PreparedQuery>,
    constraints: Vec<PreparedConstraint>,
}

impl SolutionChecker {
    /// Compiles the checker for `setting`.
    #[expect(
        clippy::expect_used,
        reason = "validation guarantees egd lhs/rhs occur in their body"
    )]
    pub fn new(setting: &Setting) -> SolutionChecker {
        let st_heads = setting
            .st_tgds
            .iter()
            .map(|tgd| PreparedQuery::new(tgd.head.clone()))
            .collect();
        let constraints = setting
            .target_constraints
            .iter()
            .map(|c| match c {
                TargetConstraint::Egd(egd) => {
                    let body = PreparedQuery::new(egd.body.clone());
                    let vars = body.variables();
                    let li = vars.iter().position(|&v| v == egd.lhs).expect("validated");
                    let ri = vars.iter().position(|&v| v == egd.rhs).expect("validated");
                    PreparedConstraint::Egd { body, li, ri }
                }
                TargetConstraint::Tgd(tgd) => PreparedConstraint::Tgd {
                    tgd: tgd.clone(),
                    body: PreparedQuery::new(tgd.body.clone()),
                    head: PreparedQuery::new(tgd.head.clone()),
                },
                TargetConstraint::SameAs(sa) => PreparedConstraint::SameAs(sa.clone()),
            })
            .collect();
        SolutionChecker {
            setting: setting.clone(),
            st_heads,
            constraints,
        }
    }

    /// The same checker: it runs on the calling thread and ignores
    /// `runtime`. It stays for source compatibility with callers that
    /// pass their session's pool.
    #[expect(
        unused_mut,
        reason = "the signature is kept as published, `mut self` included"
    )]
    pub fn with_runtime(mut self, runtime: Runtime) -> SolutionChecker {
        let _ = runtime;
        self
    }

    /// Checks one batch of seeded head-witness obligations through the
    /// prepared `head`, with one [`EvalCache`] for the batch, stopping at
    /// the first unwitnessed obligation.
    fn witnesses_all(
        &self,
        graph: &Graph,
        head: &PreparedQuery,
        seeds: &[FxHashMap<Symbol, NodeId>],
    ) -> Result<bool> {
        let mut cache = EvalCache::new();
        for seed in seeds {
            if !head.evaluate_seeded_exists(graph, &mut cache, seed)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Exact membership test for `Sol_Ω(I)`.
    pub fn is_solution(&self, instance: &Instance, graph: &Graph) -> Result<bool> {
        if !self.setting.graph_conforms(graph) {
            return Ok(false);
        }
        if !self.st_tgds_satisfied(instance, graph)? {
            return Ok(false);
        }
        self.target_constraints_satisfied(graph)
    }

    /// `(I, G) ⊨ M_st`?
    pub fn st_tgds_satisfied(&self, instance: &Instance, graph: &Graph) -> Result<bool> {
        for (tgd, head) in self.setting.st_tgds.iter().zip(&self.st_heads) {
            let triggers = eval_cq(instance, &tgd.body)?;
            // Frontier variables must map to *existing* constant nodes;
            // a missing constant already refutes membership.
            let mut seeds: Vec<FxHashMap<Symbol, NodeId>> = Vec::new();
            for row in triggers.iter_maps() {
                let mut seed: FxHashMap<Symbol, NodeId> = FxHashMap::default();
                for v in tgd.frontier() {
                    let Some(&c) = row.get(&v) else { continue };
                    match graph.node_id(Node::Const(c)) {
                        Some(id) => {
                            seed.insert(v, id);
                        }
                        None => return Ok(false),
                    }
                }
                seeds.push(seed);
            }
            // Frontier variables are seeded: the planner probes each head
            // by product-BFS from the bound endpoints, early-exiting at
            // the first witness.
            if !self.witnesses_all(graph, head, &seeds)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `G ⊨ M_t`?
    pub fn target_constraints_satisfied(&self, graph: &Graph) -> Result<bool> {
        let mut cache = EvalCache::new();
        for c in &self.constraints {
            match c {
                PreparedConstraint::Egd { body, li, ri } => {
                    let matches = body.matches(graph, &mut cache)?;
                    for rowv in matches.rows() {
                        if rowv[*li] != rowv[*ri] {
                            return Ok(false);
                        }
                    }
                }
                PreparedConstraint::Tgd { tgd, body, head } => {
                    let matches = body.matches(graph, &mut cache)?;
                    let vars: Vec<Symbol> = matches.vars().to_vec();
                    let seeds: Vec<FxHashMap<Symbol, NodeId>> = matches
                        .rows()
                        .map(|rowv| {
                            tgd.head
                                .variables()
                                .into_iter()
                                .filter_map(|v| {
                                    vars.iter().position(|&bv| bv == v).map(|i| (v, rowv[i]))
                                })
                                .collect()
                        })
                        .collect();
                    if !self.witnesses_all(graph, head, &seeds)? {
                        return Ok(false);
                    }
                }
                PreparedConstraint::SameAs(sa) => {
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

    fn g1() -> Graph {
        Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);").unwrap()
    }

    /// Figure 1(b): G2.
    fn g2() -> Graph {
        Graph::parse(
            "(c1, f, _N1); (c3, f, _N1); (_N1, f, _N2); (_N1, f, c2);
             (_N2, f, c2); (_N1, h, hy); (_N1, h, hx);",
        )
        .unwrap()
    }

    /// Figure 1(c): G3 (sameAs setting), dotted sameAs edges included.
    fn g3() -> Graph {
        Graph::parse(
            "(c1, f, _N1); (_N1, f, _N2); (_N2, f, c2); (_N2, h, hy);
             (c3, f, _N3); (_N3, f, c2); (_N3, h, hx);
             (c1, f, _N3);
             (_N1, h, hy);
             (_N1, sameAs, _N2); (_N2, sameAs, _N1);
             (_N1, sameAs, _N1); (_N2, sameAs, _N2); (_N3, sameAs, _N3);",
        )
        .unwrap()
    }

    #[test]
    fn fig1_g1_is_solution_under_egd_setting() {
        assert!(is_solution(&Instance::example_2_2(), &Setting::example_2_2_egd(), &g1()).unwrap());
    }

    #[test]
    fn fig1_g2_is_solution_under_egd_setting() {
        assert!(is_solution(&Instance::example_2_2(), &Setting::example_2_2_egd(), &g2()).unwrap());
    }

    #[test]
    fn fig7_graph_is_not_a_solution() {
        // Figure 7 / Example 5.4: the egd is violated (two h-edges from
        // distinct cities to the same hotel — here the same N works, but
        // the figure adds h-edges from c1 and c3 directly).
        let fig7 = Graph::parse(
            "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);
             (c1, h, hx); (c3, h, hy);",
        )
        .unwrap();
        assert!(
            !is_solution(&Instance::example_2_2(), &Setting::example_2_2_egd(), &fig7).unwrap()
        );
    }

    #[test]
    fn sameas_setting_needs_sameas_edges() {
        let setting = Setting::example_2_2_sameas();
        // G1 without sameAs self-loops: bodies match with x1=x2=N, and
        // (N, sameAs, N) is missing → not a solution.
        assert!(!is_solution(&Instance::example_2_2(), &setting, &g1()).unwrap());
        // After saturation it becomes one.
        let mut g = g1();
        let cs: Vec<_> = setting.same_as_constraints().cloned().collect();
        gdx_chase::saturate_same_as(&mut g, &cs).unwrap();
        assert!(is_solution(&Instance::example_2_2(), &setting, &g).unwrap());
    }

    #[test]
    fn fig1_g3_is_solution_under_sameas_setting() {
        assert!(is_solution(
            &Instance::example_2_2(),
            &Setting::example_2_2_sameas(),
            &g3()
        )
        .unwrap());
        // …but not under the egd setting (N1 and N2 share hy without being
        // merged — wait, in G3 hy is shared by N1 and N2, so the egd would
        // force N1=N2; G3 keeps them distinct).
        assert!(
            !is_solution(&Instance::example_2_2(), &Setting::example_2_2_egd(), &g3()).unwrap()
        );
    }

    #[test]
    fn missing_st_witness_rejected() {
        // Drop hy entirely: the (01, hy) trigger has no witness.
        let g = Graph::parse("(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx);").unwrap();
        assert!(!is_solution(&Instance::example_2_2(), &Setting::example_2_2_egd(), &g).unwrap());
    }

    #[test]
    fn alphabet_violation_rejected() {
        let g = Graph::parse(
            "(c1, f, _N); (c3, f, _N); (_N, f, c2); (_N, h, hx); (_N, h, hy);
             (c1, bogus, c2);",
        )
        .unwrap();
        assert!(!is_solution(&Instance::example_2_2(), &Setting::example_2_2_egd(), &g).unwrap());
    }

    #[test]
    fn empty_instance_trivial_solution() {
        let schema = gdx_relational::Schema::from_relations([("Flight", 3), ("Hotel", 2)]).unwrap();
        let empty = Instance::new(schema);
        let g = Graph::new();
        assert!(is_solution(&empty, &Setting::example_2_2_egd(), &g).unwrap());
    }

    #[test]
    fn target_tgd_checked() {
        let setting = gdx_mapping::dsl::parse_setting(
            "source { R/2 }
             target { e; g }
             sttgd R(x, y) -> (x, e, y);
             tgd (x, e, y) -> exists z : (y, g, z);",
        )
        .unwrap();
        let schema = setting.source.clone();
        let inst = Instance::parse(schema, "R(a, b);").unwrap();
        let without = Graph::parse("(a, e, b);").unwrap();
        assert!(!is_solution(&inst, &setting, &without).unwrap());
        let with = Graph::parse("(a, e, b); (b, g, _Z);").unwrap();
        assert!(is_solution(&inst, &setting, &with).unwrap());
    }

    #[test]
    fn checker_is_reusable_across_graphs() {
        let checker = SolutionChecker::new(&Setting::example_2_2_egd());
        let inst = Instance::example_2_2();
        assert!(checker.is_solution(&inst, &g1()).unwrap());
        assert!(checker.is_solution(&inst, &g2()).unwrap());
        assert!(!checker
            .is_solution(&inst, &Graph::parse("(c1, f, c2);").unwrap())
            .unwrap());
    }
}
