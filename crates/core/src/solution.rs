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
//!
//! A tgd holds when every trigger has a head witness. The checker tests
//! all triggers at once, as a semi-join against the head (Bernstein &
//! Chiu, "Using semi-joins to solve relational queries", JACM 1981):
//!
//! * **Triggers.** An s-t tgd's triggers are its body's matches in the
//!   instance, kept as deduplicated rows of frontier constants. A session
//!   builds this table once, since its instance never changes; the public
//!   calls build it per call. A target tgd's triggers are its body's
//!   matches in the graph, as rows of node ids.
//! * **Dense check.** On a graph of at most
//!   [`DENSE_MAX_NODES`](gdx_nre::dense::DENSE_MAX_NODES) nodes,
//!   a head with at most one existential variable `y` is evaluated once
//!   per graph on the dense kernel ([`DenseRel`]): each head NRE once,
//!   `(c, r, y)` reads row `c` of `⟦r⟧`, `(y, r, c)` row `c` of
//!   `⟦r⟧ᵀ = ⟦r⁻⟧`, `(y, r, y)` the diagonal of `⟦r⟧`, and an atom
//!   without `y` is a bit test. A trigger is witnessed when its bit tests
//!   hold and the AND of its rows is not empty. Every relation is dropped
//!   when the check returns.
//! * **Probe.** A head with two or more existential variables, a larger
//!   graph, and every head under [`PlannerMode::Materialize`] keep the
//!   per-trigger probe: one seeded planned evaluation per trigger,
//!   stopping at the first witness.

use gdx_chase::sameas::same_as_satisfied;
use gdx_common::{FxHashMap, Result, Symbol, Term};
use gdx_graph::{Graph, Node, NodeId};
use gdx_mapping::{SameAs, Setting, TargetConstraint};
use gdx_nre::dense::DenseRel;
use gdx_nre::eval::EvalCache;
use gdx_nre::Nre;
use gdx_query::{Cnre, PlannerMode, PreparedQuery};
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
    /// Target tgd body and head, with the positions of the head's bound
    /// variables among the body's columns.
    Tgd {
        body: PreparedQuery,
        head: PreparedHead,
        bound: Vec<usize>,
    },
    /// sameAs constraints go through the dedicated saturation checker.
    SameAs(SameAs),
}

/// A compiled tgd head: the prepared query the probe evaluates, the head
/// variables a trigger binds (the columns of a trigger row), and the
/// dense plan when the head has one.
struct PreparedHead {
    query: PreparedQuery,
    columns: Vec<Symbol>,
    dense: Option<DenseHead>,
}

impl PreparedHead {
    fn new(head: &Cnre, columns: Vec<Symbol>) -> PreparedHead {
        PreparedHead {
            query: PreparedQuery::new(head.clone()),
            dense: DenseHead::new(head, &columns),
            columns,
        }
    }
}

/// One end of a head atom under the dense check.
#[derive(Clone, Copy)]
enum End {
    /// Column `i` of the trigger row.
    Column(usize),
    /// A head constant, resolved per graph.
    Const(Symbol),
    /// The existential variable `y`.
    Free,
}

/// A head with at most one existential variable, compiled for the dense
/// check: its distinct NREs and, per atom, the NRE's index and both ends.
struct DenseHead {
    nres: Vec<Nre>,
    atoms: Vec<(usize, End, End)>,
}

/// A bound end, resolved against one graph.
#[derive(Clone, Copy)]
enum Fixed {
    Column(usize),
    Node(NodeId),
}

impl Fixed {
    fn node(self, row: &[NodeId]) -> NodeId {
        match self {
            Fixed::Column(i) => row[i],
            Fixed::Node(id) => id,
        }
    }
}

impl DenseHead {
    /// The dense plan of `head` when `columns` are bound: `None` for an
    /// empty head or one with two or more other variables.
    fn new(head: &Cnre, columns: &[Symbol]) -> Option<DenseHead> {
        let mut free: Option<Symbol> = None;
        let mut nres: Vec<Nre> = Vec::new();
        let mut atoms = Vec::with_capacity(head.atoms.len());
        for atom in &head.atoms {
            let mut end = |t: &Term| match t {
                Term::Const(c) => Some(End::Const(*c)),
                Term::Var(v) => match columns.iter().position(|c| c == v) {
                    Some(i) => Some(End::Column(i)),
                    None if free.is_none_or(|y| y == *v) => {
                        free = Some(*v);
                        Some(End::Free)
                    }
                    None => None,
                },
            };
            let (left, right) = (end(&atom.left)?, end(&atom.right)?);
            let nre = match nres.iter().position(|r| *r == atom.nre) {
                Some(i) => i,
                None => {
                    nres.push(atom.nre.clone());
                    nres.len() - 1
                }
            };
            atoms.push((nre, left, right));
        }
        (!atoms.is_empty()).then_some(DenseHead { nres, atoms })
    }

    /// Does every one of the `rows` trigger rows (`cells`, row-major)
    /// have a witness in `graph`?
    fn witnesses_all(&self, graph: &Graph, cells: &[NodeId], rows: usize) -> bool {
        let width = cells.len() / rows;
        let resolve = |e: End| match e {
            End::Column(i) => Some(Some(Fixed::Column(i))),
            End::Const(c) => graph
                .node_id(Node::Const(c))
                .map(|id| Some(Fixed::Node(id))),
            End::Free => Some(None),
        };
        // Bit tests, rows of `⟦r⟧` (`(c, r, y)`), rows of `⟦r⟧ᵀ`
        // (`(y, r, c)`) and diagonals (`(y, r, y)`), by NRE index.
        let mut tests: Vec<(usize, Fixed, Fixed)> = Vec::new();
        let mut rows_of: Vec<(usize, Fixed, bool)> = Vec::new();
        let mut diagonals: Vec<usize> = Vec::new();
        for &(nre, left, right) in &self.atoms {
            // A head constant absent from the graph has no witness.
            let (Some(l), Some(r)) = (resolve(left), resolve(right)) else {
                return false;
            };
            match (l, r) {
                (Some(l), Some(r)) => tests.push((nre, l, r)),
                (Some(l), None) => rows_of.push((nre, l, false)),
                (None, Some(r)) => rows_of.push((nre, r, true)),
                (None, None) => diagonals.push(nre),
            }
        }
        // Under the `fault-dense-verify` sharpness fault, one row drops
        // out of every trigger's AND.
        if cfg!(feature = "fault-dense-verify") {
            rows_of.pop();
        }
        let rels: Vec<DenseRel> = self.nres.iter().map(|r| DenseRel::eval(graph, r)).collect();
        let mut transposed: Vec<Option<DenseRel>> = vec![None; rels.len()];
        for &(nre, _, reversed) in &rows_of {
            if reversed && transposed[nre].is_none() {
                transposed[nre] = Some(rels[nre].transpose());
            }
        }
        let n = graph.node_count();
        // The nodes `y` may take whatever the trigger: every node on the
        // diagonal of each `(y, r, y)` atom.
        let mut base = vec![0u64; n.div_ceil(64)];
        for u in 0..n as NodeId {
            if diagonals.iter().all(|&r| rels[r].contains(u, u)) {
                base[u as usize / 64] |= 1u64 << (u % 64);
            }
        }
        let free = !(rows_of.is_empty() && diagonals.is_empty());
        let mut acc = base.clone();
        (0..rows).all(|i| {
            let row = &cells[i * width..(i + 1) * width];
            if !tests
                .iter()
                .all(|&(r, l, rt)| rels[r].contains(l.node(row), rt.node(row)))
            {
                return false;
            }
            if !free {
                return true;
            }
            acc.copy_from_slice(&base);
            for &(r, at, reversed) in &rows_of {
                let rel = match &transposed[r] {
                    Some(t) if reversed => t,
                    _ => &rels[r],
                };
                for (a, x) in acc.iter_mut().zip(rel.row(at.node(row))) {
                    *a &= x;
                }
            }
            acc.iter().any(|&w| w != 0)
        })
    }
}

/// The triggers of every s-t tgd over one instance, aligned with the
/// setting's s-t tgds: per tgd, its body's evaluation error or its
/// trigger table. Built once per (checker, instance).
pub(crate) struct StTriggers(Vec<Result<TriggerTable>>);

/// One s-t tgd's triggers as deduplicated rows of frontier constants:
/// each row holds, per head column, an index into `constants`.
struct TriggerTable {
    constants: Vec<Symbol>,
    cells: Vec<u32>,
    rows: usize,
}

impl TriggerTable {
    fn new(
        instance: &Instance,
        body: &gdx_relational::ConjunctiveQuery,
        columns: &[Symbol],
    ) -> Result<TriggerTable> {
        let triggers = eval_cq(instance, body)?;
        let at: Vec<usize> = columns
            .iter()
            .filter_map(|v| triggers.vars().iter().position(|w| w == v))
            .collect();
        debug_assert_eq!(at.len(), columns.len(), "columns are body variables");
        let width = at.len();
        let mut index: FxHashMap<Symbol, u32> = FxHashMap::default();
        let mut constants: Vec<Symbol> = Vec::new();
        let mut cells: Vec<u32> = Vec::with_capacity(triggers.len() * width);
        for row in triggers.rows() {
            for &i in &at {
                let c = row[i];
                let id = *index.entry(c).or_insert_with(|| {
                    constants.push(c);
                    constants.len() as u32 - 1
                });
                cells.push(id);
            }
        }
        let rows = if width == 0 {
            triggers.len().min(1)
        } else {
            let row = |i: usize| &cells[i * width..(i + 1) * width];
            let mut order: Vec<usize> = (0..triggers.len()).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            order.dedup_by(|a, b| row(*a) == row(*b));
            cells = order.iter().flat_map(|&i| row(i).to_vec()).collect();
            order.len()
        };
        Ok(TriggerTable {
            constants,
            cells,
            rows,
        })
    }
}

/// The compiled `Sol_Ω(I)` membership test for one setting: per s-t tgd a
/// prepared head query, per target constraint prepared body/head queries.
/// Graph-independent — one checker serves any number of candidate graphs
/// (the compiled automata live in the queries; every check keeps its memos
/// in caches of its own).
pub struct SolutionChecker {
    setting: Setting,
    /// Prepared heads, aligned with `setting.st_tgds`; a head's columns
    /// are the tgd's frontier variables that occur in its body.
    st_heads: Vec<PreparedHead>,
    constraints: Vec<PreparedConstraint>,
    /// Do heads with a dense plan take the dense check? Not under
    /// [`PlannerMode::Materialize`].
    dense: bool,
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
            .map(|tgd| {
                let body: Vec<Symbol> = tgd.body.variables();
                let columns = tgd
                    .frontier()
                    .into_iter()
                    .filter(|v| body.contains(v))
                    .collect();
                PreparedHead::new(&tgd.head, columns)
            })
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
                TargetConstraint::Tgd(tgd) => {
                    let body = PreparedQuery::new(tgd.body.clone());
                    let (columns, bound): (Vec<Symbol>, Vec<usize>) = tgd
                        .head
                        .variables()
                        .into_iter()
                        .filter_map(|v| {
                            body.variables()
                                .iter()
                                .position(|&b| b == v)
                                .map(|i| (v, i))
                        })
                        .unzip();
                    PreparedConstraint::Tgd {
                        body,
                        head: PreparedHead::new(&tgd.head, columns),
                        bound,
                    }
                }
                TargetConstraint::SameAs(sa) => PreparedConstraint::SameAs(sa.clone()),
            })
            .collect();
        SolutionChecker {
            setting: setting.clone(),
            st_heads,
            constraints,
            dense: true,
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

    /// Under [`PlannerMode::Materialize`], every head takes the
    /// per-trigger probe; otherwise heads with a dense plan take the
    /// dense check on graphs that fit it.
    pub(crate) fn with_planner(mut self, mode: PlannerMode) -> SolutionChecker {
        self.dense = mode != PlannerMode::Materialize;
        self
    }

    /// Does every one of the `rows` trigger rows (`cells`, row-major, one
    /// node per head column) have a witness for `head` in `graph`?
    fn witnesses_all(
        &self,
        graph: &Graph,
        head: &PreparedHead,
        cells: &[NodeId],
        rows: usize,
    ) -> Result<bool> {
        if rows == 0 {
            return Ok(true);
        }
        if let Some(dense) = head
            .dense
            .as_ref()
            .filter(|_| self.dense && DenseRel::fits(graph))
        {
            return Ok(dense.witnesses_all(graph, cells, rows));
        }
        // The probe: frontier variables are seeded, and the planner
        // probes the head by product-BFS from the bound endpoints,
        // early-exiting at the first witness.
        let width = head.columns.len();
        let mut cache = EvalCache::new();
        let mut seed: FxHashMap<Symbol, NodeId> = FxHashMap::default();
        for i in 0..rows {
            seed.clear();
            seed.extend(
                head.columns
                    .iter()
                    .copied()
                    .zip(cells[i * width..(i + 1) * width].iter().copied()),
            );
            if !head
                .query
                .evaluate_seeded_exists(graph, &mut cache, &seed)?
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Exact membership test for `Sol_Ω(I)`.
    pub fn is_solution(&self, instance: &Instance, graph: &Graph) -> Result<bool> {
        self.is_solution_with(&self.st_triggers(instance), graph)
    }

    /// [`SolutionChecker::is_solution`] with the instance's trigger table
    /// built by [`SolutionChecker::st_triggers`].
    pub(crate) fn is_solution_with(&self, triggers: &StTriggers, graph: &Graph) -> Result<bool> {
        if !self.setting.graph_conforms(graph) {
            return Ok(false);
        }
        if !self.st_tgds_satisfied_with(triggers, graph)? {
            return Ok(false);
        }
        self.target_constraints_satisfied(graph)
    }

    /// `(I, G) ⊨ M_st`?
    pub fn st_tgds_satisfied(&self, instance: &Instance, graph: &Graph) -> Result<bool> {
        self.st_tgds_satisfied_with(&self.st_triggers(instance), graph)
    }

    /// The trigger table of every s-t tgd over `instance`.
    pub(crate) fn st_triggers(&self, instance: &Instance) -> StTriggers {
        StTriggers(
            self.setting
                .st_tgds
                .iter()
                .zip(&self.st_heads)
                .map(|(tgd, head)| TriggerTable::new(instance, &tgd.body, &head.columns))
                .collect(),
        )
    }

    /// [`SolutionChecker::st_tgds_satisfied`] over a trigger table built
    /// by [`SolutionChecker::st_triggers`].
    pub(crate) fn st_tgds_satisfied_with(
        &self,
        triggers: &StTriggers,
        graph: &Graph,
    ) -> Result<bool> {
        for (head, table) in self.st_heads.iter().zip(&triggers.0) {
            let table = table.as_ref().map_err(Clone::clone)?;
            // Frontier variables must map to *existing* constant nodes;
            // a missing constant already refutes membership.
            let mut nodes: Vec<NodeId> = Vec::with_capacity(table.constants.len());
            for &c in &table.constants {
                match graph.node_id(Node::Const(c)) {
                    Some(id) => nodes.push(id),
                    None => return Ok(false),
                }
            }
            let cells: Vec<NodeId> = table.cells.iter().map(|&i| nodes[i as usize]).collect();
            if !self.witnesses_all(graph, head, &cells, table.rows)? {
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
                PreparedConstraint::Tgd { body, head, bound } => {
                    let matches = body.matches(graph, &mut cache)?;
                    let cells: Vec<NodeId> = matches
                        .rows()
                        .flat_map(|rowv| bound.iter().map(move |&i| rowv[i]))
                        .collect();
                    if !self.witnesses_all(graph, head, &cells, matches.len())? {
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

    /// Head terms of the dense-vs-probe proptest: frontier variables
    /// `x` and `z`, existential `y` and `w`, and a constant.
    const HEAD_TERMS: [&str; 5] = ["x", "z", "y", "w", "\"k0\""];

    /// Head NREs of that proptest: labels, inverses, stars and tests.
    const HEAD_NRES: [&str; 8] = [
        "f", "g-", "f.f*", "[g]", "f.[g].f-", "(f+g)*", "g-.f", "f*.g",
    ];

    /// A head of 1–3 atoms over [`HEAD_TERMS`] and [`HEAD_NRES`], with
    /// every existential variable it mentions declared.
    fn head_text(atoms: &[(usize, usize, usize)]) -> String {
        let body: Vec<String> = atoms
            .iter()
            .map(|&(l, r, t)| format!("({}, {}, {})", HEAD_TERMS[l], HEAD_NRES[r], HEAD_TERMS[t]))
            .collect();
        let exists: Vec<&str> = ["y", "w"]
            .into_iter()
            .filter(|v| {
                atoms
                    .iter()
                    .any(|&(l, _, t)| HEAD_TERMS[l] == *v || HEAD_TERMS[t] == *v)
            })
            .collect();
        if exists.is_empty() {
            body.join(", ")
        } else {
            format!("exists {} : {}", exists.join(", "), body.join(", "))
        }
    }

    type Atoms = Vec<(usize, usize, usize)>;

    fn arb_atoms() -> impl proptest::strategy::Strategy<Value = Atoms> {
        proptest::collection::vec((0usize..5, 0usize..HEAD_NRES.len(), 0usize..5), 1..4)
    }

    /// The setting: one s-t tgd and one target tgd with random heads.
    fn verify_setting(st: &[(usize, usize, usize)], target: &[(usize, usize, usize)]) -> Setting {
        gdx_mapping::dsl::parse_setting(&format!(
            "source {{ R/2; S/1 }}
             target {{ f; g }}
             sttgd R(x, z), S(x) -> {};
             tgd (x, f, z) -> {};",
            head_text(st),
            head_text(target)
        ))
        .unwrap()
    }

    /// Nodes of the random graphs: the instance's constants, the head
    /// constant and three nulls.
    const GRAPH_NODES: [&str; 8] = ["a0", "a1", "a2", "a3", "k0", "_N1", "_N2", "_N3"];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// The dense check and the per-trigger probe give the same
        /// `Result` on every graph: the s-t tgds' verdict, the target
        /// constraints' verdict, and the whole membership test. Graphs
        /// start from the s-t chase's canonical solution (when it
        /// instantiates), drop some of its edges, which can remove a
        /// frontier constant altogether, and gain random ones.
        #[test]
        fn dense_verdicts_equal_the_per_trigger_probe(
            st in arb_atoms(),
            target in arb_atoms(),
            facts in proptest::collection::vec((0u8..4, 0u8..4), 0..6),
            dropped in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 0..24),
            extra in proptest::collection::vec((0usize..8, 0u8..2, 0usize..8), 0..6),
        ) {
            let setting = verify_setting(&st, &target);
            let mut inst = Instance::new(setting.source.clone());
            for (a, b) in facts {
                inst.insert_strs("R", &[&format!("a{a}"), &format!("a{b}")]).unwrap();
                inst.insert_strs("S", &[&format!("a{a}")]).unwrap();
            }
            let canonical = gdx_chase::chase_st(&inst, &setting, gdx_chase::StChaseVariant::Oblivious)
                .ok()
                .and_then(|st| gdx_pattern::instantiate_shortest(&st.pattern).ok())
                .unwrap_or_default();
            let mut g = Graph::new();
            for (i, &(u, l, v)) in canonical.edges().enumerate() {
                if !dropped.get(i).copied().unwrap_or(false) {
                    let (u, v) = (g.add_node(canonical.node(u)), g.add_node(canonical.node(v)));
                    g.add_edge(u, l, v);
                }
            }
            for (u, l, v) in extra {
                let node = |i: usize| {
                    let name = GRAPH_NODES[i];
                    name.strip_prefix('_').map_or_else(|| Node::cst(name), Node::null)
                };
                let (u, v) = (g.add_node(node(u)), g.add_node(node(v)));
                g.add_edge_labelled(u, ["f", "g"][l as usize], v);
            }
            let dense = SolutionChecker::new(&setting);
            let probe = SolutionChecker::new(&setting).with_planner(PlannerMode::Materialize);
            proptest::prop_assert_eq!(
                dense.st_tgds_satisfied(&inst, &g),
                probe.st_tgds_satisfied(&inst, &g),
                "s-t tgd {} on {}", head_text(&st), g
            );
            proptest::prop_assert_eq!(
                dense.target_constraints_satisfied(&g),
                probe.target_constraints_satisfied(&g),
                "target tgd {} on {}", head_text(&target), g
            );
            proptest::prop_assert_eq!(dense.is_solution(&inst, &g), probe.is_solution(&inst, &g));
        }
    }

    /// A body the instance cannot evaluate is an error on both routes,
    /// and an earlier tgd's refutation still wins over a later error.
    #[test]
    fn body_errors_surface_on_both_routes() {
        let mut setting = Setting::example_2_2_egd();
        let mut broken = setting.st_tgds[0].clone();
        broken.body = gdx_relational::ConjunctiveQuery::parse("Flight(x1, x2)").unwrap();
        setting.st_tgds.push(broken);
        let inst = Instance::example_2_2();
        let dense = SolutionChecker::new(&setting);
        let probe = SolutionChecker::new(&setting).with_planner(PlannerMode::Materialize);
        for (g, first_holds) in [(g1(), true), (Graph::parse("(c1, f, c2);").unwrap(), false)] {
            let (d, p) = (
                dense.st_tgds_satisfied(&inst, &g),
                probe.st_tgds_satisfied(&inst, &g),
            );
            assert_eq!(d, p);
            assert_eq!(d.is_err(), first_holds, "{d:?}");
        }
    }
}
