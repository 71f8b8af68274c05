//! The adapted chase of Section 5: egd steps on graph patterns.
//!
//! For each egd `ψ_Σ(x̄) → x₁ = x₂` and each *certain* match of the body in
//! the pattern:
//!
//! 1. both images constants → the chase **fails**;
//! 2. one constant, one labeled null → the null is **substituted** by the
//!    constant;
//! 3. two labeled nulls → one **replaces** the other.
//!
//! ## Certain matching
//!
//! A pattern edge carries a whole NRE, so deciding whether a body atom
//! `(x, s, y)` is matched by a pair of pattern nodes requires *entailment*:
//! the match must hold in **every** graph of `Rep_Σ(π)`. We use the sound
//! criterion from DESIGN.md §5: a sequence of pattern edges
//! `(u, r₁, ·) … (·, r_m, v)` (each traversable forward or, optionally,
//! backward with the reversed NRE) entails `(u, s, v)` when
//! `L(r₁·…·r_m) ⊆ L(s)` — decided by automata inclusion on test-free NREs.
//! Sequences are bounded by `path_bound`. A target accepts the empty path
//! (and so relates every node to itself) only when no nesting test is on
//! that path.
//!
//! Nesting tests are handled before matching, by the caller: the
//! certain-answer lower bound (`gdx_exchange::representative`) lifts
//! every test at the top level of a concatenation into an atom of its
//! own, so the atoms reaching this module carry tests only under a star
//! or a union. For those, and for pattern edges with tests, entailment
//! falls back to single-edge syntactic equality (sound, incomplete; exact
//! on the paper's SORE(·) egds, which are test-free anyway).

use gdx_automata::included;
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol, Term, UnionFind};
use gdx_graph::Node;
use gdx_mapping::Egd;
use gdx_nre::{BinRel, Nre};
use gdx_obs::Obs;
use gdx_pattern::{GraphPattern, PNodeId};

/// Configuration of the egd-on-pattern chase.
#[derive(Debug, Clone, Copy)]
pub struct EgdChaseConfig {
    /// Maximum number of pattern edges a matching path may traverse.
    pub path_bound: usize,
    /// Allow traversing pattern edges backwards (with the reversed NRE).
    pub allow_reversed: bool,
    /// Merge every violation found in a round at once (via union-find)
    /// instead of one merge per re-evaluation. Same fixpoint, far fewer
    /// evaluation rounds on merge-heavy patterns; the one-at-a-time mode
    /// is kept as the B5 ablation baseline.
    pub batch_merges: bool,
    /// Hard cap on merge rounds (safety net; merges strictly shrink the
    /// pattern, so the chase terminates regardless).
    pub max_rounds: usize,
}

impl Default for EgdChaseConfig {
    fn default() -> EgdChaseConfig {
        EgdChaseConfig {
            path_bound: 2,
            allow_reversed: true,
            batch_merges: true,
            max_rounds: 10_000,
        }
    }
}

/// Result of the adapted chase.
#[derive(Debug, Clone)]
pub enum EgdChaseOutcome {
    /// The chase reached a fixpoint.
    Success {
        /// The chased pattern.
        pattern: GraphPattern,
        /// Number of node merges performed.
        merges: usize,
    },
    /// An egd forced two distinct constants equal — no solution exists.
    Failed {
        /// The two constants that were forced equal.
        constants: (Symbol, Symbol),
        /// Merges performed before the failure.
        merges: usize,
    },
}

impl EgdChaseOutcome {
    /// True for [`EgdChaseOutcome::Success`].
    pub fn succeeded(&self) -> bool {
        matches!(self, EgdChaseOutcome::Success { .. })
    }

    /// The pattern, when the chase succeeded.
    pub fn pattern(&self) -> Option<&GraphPattern> {
        match self {
            EgdChaseOutcome::Success { pattern, .. } => Some(pattern),
            EgdChaseOutcome::Failed { .. } => None,
        }
    }
}

/// Runs the adapted egd chase on `pattern` to fixpoint.
pub fn chase_egds_on_pattern(
    pattern: &GraphPattern,
    egds: &[Egd],
    cfg: EgdChaseConfig,
) -> Result<EgdChaseOutcome> {
    chase_egds_on_pattern_obs(pattern, egds, cfg, &Obs::disabled())
}

/// [`chase_egds_on_pattern`] with an observability sink: spans
/// `egd.run`, counts rounds and merges (`egd.rounds`, `egd.merges`) and
/// records per-round merge batches into the `egd.merges_per_round`
/// histogram. Recording never changes the chase outcome.
pub fn chase_egds_on_pattern_obs(
    pattern: &GraphPattern,
    egds: &[Egd],
    cfg: EgdChaseConfig,
    obs: &Obs,
) -> Result<EgdChaseOutcome> {
    let _span = obs.span_fields("egd.run", &[("egds", egds.len() as u64)]);
    let result = chase_egds_inner(pattern, egds, cfg, obs);
    if let Ok(outcome) = &result {
        let merges = match outcome {
            EgdChaseOutcome::Success { merges, .. } | EgdChaseOutcome::Failed { merges, .. } => {
                *merges
            }
        };
        obs.add("egd.merges", merges as u64);
    }
    result
}

fn chase_egds_inner(
    pattern: &GraphPattern,
    egds: &[Egd],
    cfg: EgdChaseConfig,
    obs: &Obs,
) -> Result<EgdChaseOutcome> {
    let mut pattern = pattern.clone();
    let mut merges = 0usize;
    let mut incl_cache: FxHashMap<(Vec<Nre>, Nre), bool> = FxHashMap::default();

    for _round in 0..cfg.max_rounds {
        obs.incr("egd.rounds");
        let merges_at_round_start = merges;
        // The step relations and entailment relations depend only on the
        // pattern (which is stable within a round), not on the egd under
        // consideration: build them once per round and share them across
        // every egd — and across duplicate NREs within one egd body.
        let mut index = EntailmentIndex::build(&pattern, cfg);
        if cfg.batch_merges {
            // Collect every violation in one pass, merge them all at once.
            let mut uf = UnionFind::new(pattern.node_count());
            let mut any = false;
            for egd in egds {
                let matches =
                    certain_matches_indexed(&pattern, &egd.body, &mut index, &mut incl_cache)?;
                for m in matches {
                    let (n1, n2) = (m[&egd.lhs], m[&egd.rhs]);
                    let (r1, r2) = (uf.find(n1), uf.find(n2));
                    if r1 == r2 {
                        continue;
                    }
                    let c1 = pattern.node(r1).is_const();
                    let c2 = pattern.node(r2).is_const();
                    match (c1, c2) {
                        (true, true) => {
                            return Ok(EgdChaseOutcome::Failed {
                                constants: (pattern.node(r1).name(), pattern.node(r2).name()),
                                merges,
                            })
                        }
                        (true, false) => {
                            uf.union_into(r1, r2);
                        }
                        _ => {
                            uf.union_into(r2, r1);
                        }
                    }
                    merges += 1;
                    any = true;
                }
            }
            obs.observe(
                "egd.merges_per_round",
                (merges - merges_at_round_start) as u64,
            );
            if !any {
                return Ok(EgdChaseOutcome::Success { pattern, merges });
            }
            pattern = pattern.quotient(|id| uf.find_const(id));
        } else {
            let mut changed = false;
            'egd_loop: for egd in egds {
                let matches =
                    certain_matches_indexed(&pattern, &egd.body, &mut index, &mut incl_cache)?;
                for m in matches {
                    let n1 = m[&egd.lhs];
                    let n2 = m[&egd.rhs];
                    if n1 == n2 {
                        continue;
                    }
                    let node1 = pattern.node(n1);
                    let node2 = pattern.node(n2);
                    match (node1.is_const(), node2.is_const()) {
                        (true, true) => {
                            return Ok(EgdChaseOutcome::Failed {
                                constants: (node1.name(), node2.name()),
                                merges,
                            })
                        }
                        (true, false) => {
                            pattern = pattern.quotient(|id| if id == n2 { n1 } else { id });
                        }
                        _ => {
                            pattern = pattern.quotient(|id| if id == n1 { n2 } else { id });
                        }
                    }
                    merges += 1;
                    changed = true;
                    // The pattern changed: node ids are stale. Recompute.
                    break 'egd_loop;
                }
            }
            obs.observe(
                "egd.merges_per_round",
                (merges - merges_at_round_start) as u64,
            );
            if !changed {
                return Ok(EgdChaseOutcome::Success { pattern, merges });
            }
        }
    }
    Err(GdxError::limit("egd chase exceeded max_rounds"))
}

/// Per-pattern-version evaluation index for certain matching: the
/// sequence relations (which depend on the pattern only) plus memoized
/// per-target entailment relations. Built once per chase round and shared
/// across every egd of the round; [`certain_matches`] builds a throwaway
/// one for one-shot callers.
#[derive(Debug)]
pub struct EntailmentIndex {
    /// Every NRE sequence up to the path bound with a non-empty composed
    /// syntactic relation over the pattern.
    sequences: Vec<(Vec<Nre>, BinRel)>,
    /// Entailment relations per target NRE, memoized across egd bodies.
    by_target: FxHashMap<Nre, BinRel>,
}

impl EntailmentIndex {
    /// Scans the pattern once: distinct edge NREs (with optional reversed
    /// variants) become step relations, then sequences up to
    /// `cfg.path_bound` are composed. Targets are *not* consulted here —
    /// the same index serves every egd of a round.
    pub fn build(pattern: &GraphPattern, cfg: EgdChaseConfig) -> EntailmentIndex {
        // Each "step kind" is (nre-as-matched, its syntactic relation).
        let mut step_rels: Vec<(Nre, BinRel)> = Vec::new();
        {
            let mut seen: FxHashSet<Nre> = FxHashSet::default();
            for (_, r, _) in pattern.edges() {
                if seen.insert(r.clone()) {
                    let mut fwd = BinRel::new();
                    for (s, r2, d) in pattern.edges() {
                        if r2 == r {
                            fwd.insert(*s, *d);
                        }
                    }
                    step_rels.push((r.clone(), fwd));
                }
            }
            if cfg.allow_reversed {
                let fwd_kinds: Vec<(Nre, BinRel)> = step_rels.clone();
                for (r, fwd) in fwd_kinds {
                    let rev_nre = r.reversed();
                    if seen.insert(rev_nre.clone()) {
                        let mut rev = BinRel::new();
                        for (u, v) in fwd.iter() {
                            rev.insert(v, u);
                        }
                        step_rels.push((rev_nre, rev));
                    }
                }
            }
        }

        // Enumerate sequences up to the path bound, composing as we go;
        // empty compositions cannot entail anything and are pruned.
        let mut sequences: Vec<(Vec<Nre>, BinRel)> = Vec::new();
        let mut frontier: Vec<(Vec<Nre>, Option<BinRel>)> = vec![(Vec::new(), None)];
        for _len in 1..=cfg.path_bound {
            let mut next: Vec<(Vec<Nre>, Option<BinRel>)> = Vec::new();
            for (seq, seq_rel) in &frontier {
                for (step_nre, step_rel) in &step_rels {
                    let mut seq2 = seq.clone();
                    seq2.push(step_nre.clone());
                    let rel2 = match seq_rel {
                        None => step_rel.clone(),
                        Some(r) => r.compose(step_rel),
                    };
                    if rel2.is_empty() {
                        continue;
                    }
                    sequences.push((seq2.clone(), rel2.clone()));
                    next.push((seq2, Some(rel2)));
                }
            }
            frontier = next;
        }
        EntailmentIndex {
            sequences,
            by_target: FxHashMap::default(),
        }
    }

    /// The pairs of pattern nodes certainly related by `target` in every
    /// represented graph (sound, path-bounded). Memoized per target.
    fn entailment_relation(
        &mut self,
        pattern: &GraphPattern,
        target: &Nre,
        incl_cache: &mut FxHashMap<(Vec<Nre>, Nre), bool>,
    ) -> Result<&BinRel> {
        if !self.by_target.contains_key(target) {
            let mut rel = BinRel::new();
            // Length 0: a target that accepts the empty path with no
            // test to pass relates every node to itself.
            if accepts_empty_path(target) {
                for id in pattern.node_ids() {
                    rel.insert(id, id);
                }
            }
            for (seq, seq_rel) in &self.sequences {
                let key = (seq.clone(), target.clone());
                let ok = match incl_cache.get(&key) {
                    Some(&b) => b,
                    None => {
                        let b = sequence_included(seq, target)?;
                        incl_cache.insert(key, b);
                        b
                    }
                };
                if ok {
                    for (u, v) in seq_rel.iter() {
                        rel.insert(u, v);
                    }
                }
            }
            self.by_target.insert(target.clone(), rel);
        }
        Ok(&self.by_target[target])
    }
}

/// All certain matches of a CNRE body against the pattern: assignments of
/// body variables to pattern nodes such that every atom is entailed.
/// One-shot wrapper around [`certain_matches_indexed`].
pub fn certain_matches(
    pattern: &GraphPattern,
    body: &gdx_query::Cnre,
    cfg: EgdChaseConfig,
    incl_cache: &mut FxHashMap<(Vec<Nre>, Nre), bool>,
) -> Result<Vec<FxHashMap<Symbol, PNodeId>>> {
    let mut index = EntailmentIndex::build(pattern, cfg);
    certain_matches_indexed(pattern, body, &mut index, incl_cache)
}

/// [`certain_matches`] against a prebuilt per-round [`EntailmentIndex`].
pub fn certain_matches_indexed(
    pattern: &GraphPattern,
    body: &gdx_query::Cnre,
    index: &mut EntailmentIndex,
    incl_cache: &mut FxHashMap<(Vec<Nre>, Nre), bool>,
) -> Result<Vec<FxHashMap<Symbol, PNodeId>>> {
    // Entailment relation per atom (shared per target via the index).
    for atom in &body.atoms {
        index.entailment_relation(pattern, &atom.nre, incl_cache)?;
    }
    let rels: Vec<&BinRel> = body
        .atoms
        .iter()
        .map(|a| &index.by_target[&a.nre])
        .collect();
    // Join.
    let mut out = Vec::new();
    let mut binding: FxHashMap<Symbol, PNodeId> = FxHashMap::default();
    join(pattern, body, &rels, 0, &mut binding, &mut out)?;
    Ok(out)
}

/// `L(r₁·…·r_m) ⊆ L(target)`? Test-free sequences go through the automata
/// library. A nesting test left in a target or an edge (one under a star
/// or a union: top-level tests of a query are lifted into atoms of their
/// own before matching) falls back to single-step syntactic equality
/// (sound, incomplete).
fn sequence_included(seq: &[Nre], target: &Nre) -> Result<bool> {
    let all_test_free = target.is_test_free() && seq.iter().all(Nre::is_test_free);
    if all_test_free {
        let concat = Nre::concat_all(seq.iter().cloned());
        return included(&concat, target);
    }
    Ok(seq.len() == 1 && &seq[0] == target)
}

/// Does `r` relate every node to itself in every graph? Like
/// [`Nre::nullable`], except that a nesting test is a condition on the
/// node, not an unconditional `ε`.
fn accepts_empty_path(r: &Nre) -> bool {
    match r {
        Nre::Epsilon | Nre::Star(_) => true,
        Nre::Label(_) | Nre::Inverse(_) | Nre::Test(_) => false,
        Nre::Union(a, b) => accepts_empty_path(a) || accepts_empty_path(b),
        Nre::Concat(a, b) => accepts_empty_path(a) && accepts_empty_path(b),
    }
}

fn join(
    pattern: &GraphPattern,
    body: &gdx_query::Cnre,
    rels: &[&BinRel],
    depth: usize,
    binding: &mut FxHashMap<Symbol, PNodeId>,
    out: &mut Vec<FxHashMap<Symbol, PNodeId>>,
) -> Result<()> {
    if depth == body.atoms.len() {
        out.push(binding.clone());
        return Ok(());
    }
    let atom = &body.atoms[depth];
    let rel = rels[depth];
    let resolve = |t: &Term, binding: &FxHashMap<Symbol, PNodeId>| -> Result<Slot> {
        match t {
            Term::Const(c) => match pattern.node_id(Node::Const(*c)) {
                Some(id) => Ok(Slot::Fixed(id)),
                None => Ok(Slot::Missing),
            },
            Term::Var(v) => Ok(match binding.get(v) {
                Some(&id) => Slot::Fixed(id),
                None => Slot::Free(*v),
            }),
        }
    };
    match (
        resolve(&atom.left, binding)?,
        resolve(&atom.right, binding)?,
    ) {
        (Slot::Missing, _) | (_, Slot::Missing) => Ok(()),
        (Slot::Fixed(u), Slot::Fixed(v)) => {
            if rel.contains(u, v) {
                join(pattern, body, rels, depth + 1, binding, out)?;
            }
            Ok(())
        }
        (Slot::Fixed(u), Slot::Free(rv)) => {
            for &v in rel.image(u) {
                binding.insert(rv, v);
                join(pattern, body, rels, depth + 1, binding, out)?;
            }
            binding.remove(&rv);
            Ok(())
        }
        (Slot::Free(lv), Slot::Fixed(v)) => {
            for &u in rel.preimage(v) {
                binding.insert(lv, u);
                join(pattern, body, rels, depth + 1, binding, out)?;
            }
            binding.remove(&lv);
            Ok(())
        }
        (Slot::Free(lv), Slot::Free(rv)) => {
            if lv == rv {
                for (u, v) in rel.iter() {
                    if u == v {
                        binding.insert(lv, u);
                        join(pattern, body, rels, depth + 1, binding, out)?;
                        binding.remove(&lv);
                    }
                }
            } else {
                for (u, v) in rel.iter() {
                    binding.insert(lv, u);
                    binding.insert(rv, v);
                    join(pattern, body, rels, depth + 1, binding, out)?;
                    binding.remove(&rv);
                    binding.remove(&lv);
                }
            }
            Ok(())
        }
    }
}

enum Slot {
    Fixed(PNodeId),
    Free(Symbol),
    /// A constant absent from the pattern: the atom cannot match.
    Missing,
}

/// Convenience: run the full adapted chase (s-t phase then egd phase) of a
/// setting on an instance.
pub fn adapted_chase(
    instance: &gdx_relational::Instance,
    setting: &gdx_mapping::Setting,
    cfg: EgdChaseConfig,
) -> Result<EgdChaseOutcome> {
    let st = crate::st::chase_st(instance, setting, crate::st::StChaseVariant::Oblivious)?;
    let egds: Vec<Egd> = setting.egds().cloned().collect();
    chase_egds_on_pattern(&st.pattern, &egds, cfg)
}

/// Merge-closure helper shared with solvers: computes the quotient of a
/// pattern under an explicit set of node equalities, respecting the
/// constants-never-merge rule. Returns `None` when two distinct constants
/// would be identified.
pub fn quotient_with_equalities(
    pattern: &GraphPattern,
    equalities: &[(PNodeId, PNodeId)],
) -> Option<GraphPattern> {
    let mut uf = UnionFind::new(pattern.node_count());
    for &(a, b) in equalities {
        let (ra, rb) = (uf.find(a), uf.find(b));
        if ra == rb {
            continue;
        }
        let ca = pattern.node(ra).is_const();
        let cb = pattern.node(rb).is_const();
        match (ca, cb) {
            (true, true) => return None,
            (true, false) => {
                uf.union_into(ra, rb);
            }
            _ => {
                uf.union_into(rb, ra);
            }
        }
    }
    Some(pattern.quotient(|id| uf.find_const(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdx_mapping::Setting;
    use gdx_relational::Instance;

    fn fig3() -> GraphPattern {
        GraphPattern::parse(
            "(c1, f.f*, _N1); (_N1, f.f*, c2); (_N1, h, hy);
             (c1, f.f*, _N2); (_N2, f.f*, c2); (_N2, h, hx);
             (c3, f.f*, _N3); (_N3, f.f*, c2); (_N3, h, hx);",
        )
        .unwrap()
    }

    fn hotel_egd() -> Egd {
        Egd {
            body: gdx_query::Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
            lhs: Symbol::new("x1"),
            rhs: Symbol::new("x2"),
        }
    }

    #[test]
    fn example_5_1_merges_hotel_nulls() {
        // Figure 5: N2 and N3 (both h-linked to hx) merge.
        let out =
            chase_egds_on_pattern(&fig3(), &[hotel_egd()], EgdChaseConfig::default()).unwrap();
        match out {
            EgdChaseOutcome::Success { pattern, merges } => {
                assert_eq!(merges, 1);
                assert_eq!(pattern.node_count(), 7);
                assert_eq!(pattern.edge_count(), 7);
                assert_eq!(pattern.null_count(), 2);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn full_adapted_chase_example_2_2() {
        let out = adapted_chase(
            &Instance::example_2_2(),
            &Setting::example_2_2_egd(),
            EgdChaseConfig::default(),
        )
        .unwrap();
        let p = out.pattern().expect("chase succeeds");
        assert_eq!(p.node_count(), 7, "Figure 5 shape");
        assert_eq!(p.null_count(), 2);
    }

    #[test]
    fn figure_2_from_example_3_1() {
        // Single-symbol fragment: after the egd step, the Figure 2 graph.
        let out = adapted_chase(
            &Instance::example_2_2(),
            &Setting::example_3_1(),
            EgdChaseConfig::default(),
        )
        .unwrap();
        let p = out.pattern().expect("chase succeeds");
        let g = p.to_graph().unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 7);
        let fig2 = gdx_graph::Graph::parse(
            "(c1, f, _N1); (_N1, h, hy); (_N1, f, c2);
             (c1, f, _N2); (_N2, h, hx); (_N2, f, c2);
             (c3, f, _N2);",
        )
        .unwrap();
        assert!(gdx_graph::is_isomorphic(&g, &fig2));
    }

    #[test]
    fn constant_constant_merge_fails() {
        // Two distinct constants sharing a hotel.
        let p = GraphPattern::parse("(u1, h, hx); (u2, h, hx);").unwrap();
        let out = chase_egds_on_pattern(&p, &[hotel_egd()], EgdChaseConfig::default()).unwrap();
        match out {
            EgdChaseOutcome::Failed { constants, .. } => {
                let names: FxHashSet<String> = [constants.0.to_string(), constants.1.to_string()]
                    .into_iter()
                    .collect();
                assert!(names.contains("u1") && names.contains("u2"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn constant_null_substitutes_constant() {
        let p = GraphPattern::parse("(u1, h, hx); (_N, h, hx); (_N, f, z);").unwrap();
        let out = chase_egds_on_pattern(&p, &[hotel_egd()], EgdChaseConfig::default()).unwrap();
        let pattern = out.pattern().expect("success");
        assert!(pattern.node_id(Node::null("N")).is_none(), "null replaced");
        // The f-edge now hangs off u1.
        let u1 = pattern.node_id(Node::cst("u1")).unwrap();
        let z = pattern.node_id(Node::cst("z")).unwrap();
        assert!(pattern.has_edge(u1, &Nre::label("f"), z));
    }

    #[test]
    fn example_5_2_chase_succeeds() {
        // a·(b*+c*)·a vs egd (x, a+b+c, y) → x=y: the path language is not
        // included in a+b+c, so no certain match exists; chase succeeds
        // without merges.
        let p = GraphPattern::parse("(c1, a.(b*+c*).a, c2);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x, a+b+c, y)").unwrap(),
            lhs: Symbol::new("x"),
            rhs: Symbol::new("y"),
        };
        let out = chase_egds_on_pattern(&p, &[egd], EgdChaseConfig::default()).unwrap();
        match out {
            EgdChaseOutcome::Success { merges, .. } => assert_eq!(merges, 0),
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn entailment_through_two_edge_paths() {
        // (a, x1, _M); (_M, x2, b) with egd body (u, x1.x2, v): the length-2
        // path entails the SORE(·) concatenation.
        let p = GraphPattern::parse("(a, x1, _M); (_M, x2, b); (a2, x1.x2, b);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(u, x1.x2, v)").unwrap(),
            lhs: Symbol::new("u"),
            rhs: Symbol::new("v"),
        };
        // u=a, v=b via the path; u=a2, v=b via the direct edge. Both a,a2
        // are constants matched with v=b… the egd equates u=v, i.e. a=b —
        // constants — failure.
        let out = chase_egds_on_pattern(&p, &[egd], EgdChaseConfig::default()).unwrap();
        assert!(!out.succeeded());
    }

    #[test]
    fn reversed_edges_can_match() {
        // Pattern edge (a, g, b); egd body (x, g-, y) should certainly
        // match (b, a) when reversal is on.
        let p = GraphPattern::parse("(a, g, _N);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x, g-, y)").unwrap(),
            lhs: Symbol::new("x"),
            rhs: Symbol::new("y"),
        };
        let on = chase_egds_on_pattern(&p, std::slice::from_ref(&egd), EgdChaseConfig::default())
            .unwrap();
        match on {
            EgdChaseOutcome::Success { pattern, merges } => {
                assert_eq!(merges, 1, "N merged into a");
                assert_eq!(pattern.node_count(), 1);
            }
            other => panic!("{other:?}"),
        }
        let off = chase_egds_on_pattern(
            &p,
            &[egd],
            EgdChaseConfig {
                allow_reversed: false,
                ..EgdChaseConfig::default()
            },
        )
        .unwrap();
        match off {
            EgdChaseOutcome::Success { merges, .. } => assert_eq!(merges, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quotient_with_equalities_respects_constants() {
        let p = GraphPattern::parse("(a, f, _N1); (b, f, _N2);").unwrap();
        let a = p.node_id(Node::cst("a")).unwrap();
        let b = p.node_id(Node::cst("b")).unwrap();
        let n1 = p.node_id(Node::null("N1")).unwrap();
        let n2 = p.node_id(Node::null("N2")).unwrap();
        assert!(quotient_with_equalities(&p, &[(a, b)]).is_none());
        let q = quotient_with_equalities(&p, &[(n1, n2)]).unwrap();
        assert_eq!(q.node_count(), 3);
        let q2 = quotient_with_equalities(&p, &[(n1, a), (n1, n2)]).unwrap();
        assert_eq!(q2.node_count(), 2, "both nulls fold into a");
        assert!(quotient_with_equalities(&p, &[(n1, a), (n1, b)]).is_none());
    }

    #[test]
    fn batched_and_sequential_modes_agree() {
        let seq_cfg = EgdChaseConfig {
            batch_merges: false,
            ..EgdChaseConfig::default()
        };
        for (pattern, egds) in [
            (fig3(), vec![hotel_egd()]),
            (
                GraphPattern::parse("(u1, h, hx); (_N, h, hx); (_N, f, z);").unwrap(),
                vec![hotel_egd()],
            ),
            (
                GraphPattern::parse("(u1, h, hx); (u2, h, hx);").unwrap(),
                vec![hotel_egd()],
            ),
        ] {
            let a = chase_egds_on_pattern(&pattern, &egds, EgdChaseConfig::default()).unwrap();
            let b = chase_egds_on_pattern(&pattern, &egds, seq_cfg).unwrap();
            assert_eq!(a.succeeded(), b.succeeded());
            if let (Some(pa), Some(pb)) = (a.pattern(), b.pattern()) {
                assert_eq!(pa.node_count(), pb.node_count());
                assert_eq!(pa.edge_count(), pb.edge_count());
            }
        }
    }

    #[test]
    fn nullable_target_matches_identity() {
        let p = GraphPattern::parse("(a, f, b);").unwrap();
        let egd = Egd {
            body: gdx_query::Cnre::parse("(x, f*, x)").unwrap(),
            lhs: Symbol::new("x"),
            rhs: Symbol::new("x"),
        };
        // Trivial egd x = x would be rejected by validation, but
        // certain_matches itself must handle identity entailment.
        let mut cache = FxHashMap::default();
        let ms = certain_matches(&p, &egd.body, EgdChaseConfig::default(), &mut cache).unwrap();
        assert_eq!(ms.len(), 2, "every node matches (x, f*, x)");
    }

    #[test]
    fn a_test_is_not_an_unconditional_empty_path() {
        // `f + [h]` accepts the empty word only through the test, and no
        // node of the pattern certainly has an h-edge: no node may be
        // paired with itself. (The f-edge is not matched either: a
        // target with a test falls back to syntactic equality.)
        let p = GraphPattern::parse("(a, f, b);").unwrap();
        let body = gdx_query::Cnre::parse("(x, f + [h], y)").unwrap();
        let mut cache = FxHashMap::default();
        let ms = certain_matches(&p, &body, EgdChaseConfig::default(), &mut cache).unwrap();
        assert!(ms.is_empty(), "nothing is entailed: {ms:?}");
        assert!(accepts_empty_path(&Nre::label("f").star()));
        assert!(!accepts_empty_path(&Nre::label("h").test()));
    }
}
