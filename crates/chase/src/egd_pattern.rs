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
//! criterion from DESIGN.md §5: a path of pattern edges
//! `(u, r₁, ·) … (·, r_k, v)` (each traversable forward or, optionally,
//! backward with the reversed NRE) entails `(u, s, v)` when
//! `L(r₁·…·r_k) ⊆ L(s)`, at any length `k`. [`EntailmentIndex`] decides
//! it for test-free NREs by one reachability walk over pairs (pattern
//! node, set of states of the minimized DFA of `s`), not by enumerating
//! edge sequences. The egd chase cuts paths at `path_bound` edges; the
//! certain-answer lower bound does not cut them. A target accepts the
//! empty path (and so relates every node to itself) only when no nesting
//! test is on that path.
//!
//! Nesting tests are handled before matching, by the caller: the
//! certain-answer lower bound (`gdx_exchange::representative`) lifts
//! every test at the top level of a concatenation into an atom of its
//! own, so the atoms reaching this module carry tests only under a star
//! or a union. For those, and for pattern edges with tests, entailment
//! falls back to single-edge syntactic equality (sound, incomplete; exact
//! on the paper's SORE(·) egds, which are test-free anyway).

use gdx_automata::letter::joint_alphabet;
use gdx_automata::Dfa;
use gdx_common::{FxHashMap, FxHashSet, GdxError, Result, Symbol, Term, UnionFind};
use gdx_graph::Node;
use gdx_mapping::Egd;
use gdx_nre::nfa::{Nfa, State};
use gdx_nre::{BinRel, Nre};
use gdx_obs::Obs;
use gdx_pattern::{GraphPattern, PNodeId};

/// Configuration of the egd-on-pattern chase.
#[derive(Debug, Clone, Copy)]
pub struct EgdChaseConfig {
    /// Maximum number of pattern edges a matching path of the egd chase
    /// may traverse. (The certain-answer lower bound follows paths of
    /// any length.)
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

    for _round in 0..cfg.max_rounds {
        obs.incr("egd.rounds");
        let merges_at_round_start = merges;
        // The step kinds and entailment relations depend only on the
        // pattern (which is stable within a round), not on the egd under
        // consideration: build them once per round and share them across
        // every egd — and across duplicate NREs within one egd body.
        let mut index = EntailmentIndex::new(&pattern, Some(cfg.path_bound), cfg.allow_reversed);
        if cfg.batch_merges {
            // Collect every violation in one pass, merge them all at once.
            let mut uf = UnionFind::new(pattern.node_count());
            let mut any = false;
            for egd in egds {
                for m in egd_matches(&pattern, egd, &mut index)? {
                    let (n1, n2) = (m[0], m[1]);
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
                for m in egd_matches(&pattern, egd, &mut index)? {
                    let (n1, n2) = (m[0], m[1]);
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

/// The distinct `[lhs, rhs]` images of an egd's certain body matches.
fn egd_matches(
    pattern: &GraphPattern,
    egd: &Egd,
    index: &mut EntailmentIndex,
) -> Result<Vec<Vec<PNodeId>>> {
    certain_matches(pattern, &egd.body, &[egd.lhs, egd.rhs], false, index)
}

/// Per-pattern-version index for certain matching: the pattern's step
/// kinds (one per distinct edge NRE, forward and optionally reversed)
/// plus memoized per-target entailment relations. The egd chase builds
/// one per round and shares it across every egd of the round; the
/// certain-answer lower bound keeps one per representative.
#[derive(Debug)]
pub struct EntailmentIndex {
    /// Longest path of pattern edges considered; `None` for any length.
    path_bound: Option<usize>,
    /// Step kinds: an NRE and the node pairs one of its edges relates,
    /// in pattern edge order. Forward kinds come first, in order of first
    /// occurrence; reversed edges join the kind of their reversed NRE.
    steps: Vec<(Nre, Vec<(PNodeId, PNodeId)>)>,
    /// Per node (by id), the test-free steps leaving it:
    /// `(step, successor)`.
    adjacency: Vec<Vec<(u32, PNodeId)>>,
    /// Entailment relations per target NRE.
    by_target: FxHashMap<Nre, BinRel>,
}

impl EntailmentIndex {
    /// Scans the pattern once: distinct edge NREs (with their reversed
    /// variants when `allow_reversed`) become step kinds. Paths are cut
    /// at `path_bound` pattern edges (`None`: any length). Targets are
    /// *not* consulted here — the same index serves every query.
    pub fn new(
        pattern: &GraphPattern,
        path_bound: Option<usize>,
        allow_reversed: bool,
    ) -> EntailmentIndex {
        let mut steps: Vec<(Nre, Vec<(PNodeId, PNodeId)>)> = Vec::new();
        let mut kind_of: FxHashMap<Nre, usize> = FxHashMap::default();
        let mut add = |steps: &mut Vec<(Nre, Vec<(PNodeId, PNodeId)>)>, r: Nre, pair| {
            let k = *kind_of.entry(r.clone()).or_insert_with(|| {
                steps.push((r, Vec::new()));
                steps.len() - 1
            });
            steps[k].1.push(pair);
        };
        for (s, r, d) in pattern.edges() {
            add(&mut steps, r.clone(), (*s, *d));
        }
        if allow_reversed {
            let forward = steps.len();
            for k in 0..forward {
                let rev = steps[k].0.reversed();
                let pairs: Vec<_> = steps[k].1.iter().map(|&(s, d)| (d, s)).collect();
                for pair in pairs {
                    add(&mut steps, rev.clone(), pair);
                }
            }
        }
        let mut adjacency = vec![Vec::new(); pattern.node_count()];
        for (k, (r, pairs)) in steps.iter().enumerate() {
            if r.is_test_free() {
                for &(s, d) in pairs {
                    adjacency[s as usize].push((k as u32, d));
                }
            }
        }
        EntailmentIndex {
            path_bound,
            steps,
            adjacency,
            by_target: FxHashMap::default(),
        }
    }

    /// The pairs of pattern nodes certainly related by `target` in every
    /// represented graph: `(u, v)` when some path of pattern edges
    /// `u → v`, each read forward or (optionally) reversed, has
    /// `L(r₁·…·r_k) ⊆ L(target)`. Memoized per target.
    ///
    /// A test-free target is decided by reachability over pairs (pattern
    /// node, set of states of the target's minimized DFA): a path's set
    /// is `δ(q₀, L(r₁·…·r_k))`, so the path entails the target exactly
    /// when the set holds accepting states only. Pairs come out in a
    /// fixed order: identity pairs, single edges in step-kind order, then
    /// longer paths by start node. The egd chase merges in match order, so
    /// which null names survive a merge depends on it.
    pub fn relation(&mut self, target: &Nre) -> Result<&BinRel> {
        if !self.by_target.contains_key(target) {
            let rel = self.build_relation(target)?;
            self.by_target.insert(target.clone(), rel);
        }
        Ok(&self.by_target[target])
    }

    fn build_relation(&self, target: &Nre) -> Result<BinRel> {
        let nodes = self.adjacency.len() as PNodeId;
        let mut rel = BinRel::new();
        // Length 0: a target that accepts the empty path with no test to
        // pass relates every node to itself.
        if accepts_empty_path(target) {
            for id in 0..nodes {
                rel.insert(id, id);
            }
        }
        if self.path_bound == Some(0) {
            return Ok(rel);
        }
        // A nesting test left in a target (one under a star or a union:
        // top-level tests of a query are lifted into atoms of their own
        // before matching) or on an edge falls back to single-edge
        // syntactic equality (sound, incomplete).
        let mut product = target
            .is_test_free()
            .then(|| StepProduct::new(target, &self.steps))
            .transpose()?;
        // Length 1, in step-kind order.
        for (k, (r, pairs)) in self.steps.iter().enumerate() {
            let entailed = match &mut product {
                Some(product) if r.is_test_free() => {
                    let set = product.successor(START, k);
                    product.accepting(set)
                }
                _ => r == target,
            };
            if entailed {
                for &(u, v) in pairs {
                    rel.insert(u, v);
                }
            }
        }
        let Some(mut product) = product else {
            return Ok(rel);
        };
        if self.path_bound == Some(1) || product.is_dead(START) {
            return Ok(rel);
        }
        // Longer paths: one breadth-first walk per start node over
        // (node, state set), pruning sets that hold a dead state.
        let mut visited: FxHashSet<(PNodeId, u32)> = FxHashSet::default();
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        for u in 0..nodes {
            visited.clear();
            visited.insert((u, START));
            frontier.clear();
            frontier.push((u, START));
            let mut depth = 0;
            while !frontier.is_empty() && self.path_bound.is_none_or(|b| depth < b) {
                depth += 1;
                next.clear();
                for &(x, set) in &frontier {
                    for &(k, y) in &self.adjacency[x as usize] {
                        let succ = product.successor(set, k as usize);
                        if !visited.insert((y, succ)) {
                            continue;
                        }
                        if product.accepting(succ) {
                            rel.insert(u, y);
                        }
                        if !product.is_dead(succ) {
                            next.push((y, succ));
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
        Ok(rel)
    }
}

/// The product of one test-free target's minimized DFA with the step
/// kinds of a pattern: per step kind a transfer table (DFA state → the
/// states some word of the step's language leads to), and the state sets
/// met so far, interned, with their step successors memoized.
struct StepProduct {
    accept: Vec<bool>,
    /// `dead[q]`: no accepting state is reachable from `q`. A minimal DFA
    /// has at most one such state, a non-accepting sink.
    dead: Vec<bool>,
    /// `transfer[k][q]`, sorted; empty for steps with tests.
    transfer: Vec<Vec<Vec<u32>>>,
    sets: Vec<Vec<u32>>,
    ids: FxHashMap<Vec<u32>, u32>,
    /// `succ[set * steps + k]`, `u32::MAX` until computed.
    succ: Vec<u32>,
}

impl StepProduct {
    fn new(target: &Nre, steps: &[(Nre, Vec<(PNodeId, PNodeId)>)]) -> Result<StepProduct> {
        let test_free: Vec<&Nre> = std::iter::once(target)
            .chain(steps.iter().map(|(r, _)| r).filter(|r| r.is_test_free()))
            .collect();
        let alphabet = joint_alphabet(&test_free);
        let dfa = Dfa::from_nre(target, &alphabet)?.minimize();
        let dead = (0..dfa.state_count())
            .map(|q| !dfa.accept[q] && dfa.trans[q].iter().all(|&t| t as usize == q))
            .collect();
        let transfer = steps
            .iter()
            .map(|(r, _)| {
                if r.is_test_free() {
                    transfer_table(&dfa, r)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut product = StepProduct {
            accept: dfa.accept,
            dead,
            transfer,
            sets: Vec::new(),
            ids: FxHashMap::default(),
            succ: Vec::new(),
        };
        product.intern(vec![dfa.start]);
        Ok(product)
    }

    fn intern(&mut self, set: Vec<u32>) -> u32 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(set.clone());
        self.ids.insert(set, id);
        self.succ
            .extend(std::iter::repeat_n(u32::MAX, self.transfer.len()));
        id
    }

    /// The states reached from `set` by some word of step `k`'s language.
    fn successor(&mut self, set: u32, k: usize) -> u32 {
        let slot = set as usize * self.transfer.len() + k;
        if self.succ[slot] == u32::MAX {
            let mut next: Vec<u32> = self.sets[set as usize]
                .iter()
                .flat_map(|&q| self.transfer[k][q as usize].iter().copied())
                .collect();
            next.sort_unstable();
            next.dedup();
            self.succ[slot] = self.intern(next);
        }
        self.succ[slot]
    }

    /// Does every word leading into `set` belong to the target? (Under
    /// the `fault-entail-any` sharpness fault: does *some* word?)
    fn accepting(&self, set: u32) -> bool {
        let set = &self.sets[set as usize];
        if cfg!(feature = "fault-entail-any") {
            set.iter().any(|&q| self.accept[q as usize])
        } else {
            set.iter().all(|&q| self.accept[q as usize])
        }
    }

    /// Does `set` hold a state from which nothing is accepted? Such a set
    /// never becomes accepting, however the path continues.
    fn is_dead(&self, set: u32) -> bool {
        self.sets[set as usize]
            .iter()
            .any(|&q| self.dead[q as usize])
    }
}

/// The interned id of the start set `{q₀}` of every [`StepProduct`].
const START: u32 = 0;

/// Per DFA state `q`, the states `δ(q, w)` for the words `w` of `step`:
/// a product walk of `step`'s automaton with the DFA.
fn transfer_table(dfa: &Dfa, step: &Nre) -> Vec<Vec<u32>> {
    let (nfa, _) = Nfa::compile(step);
    let mut seen: FxHashSet<(State, u32)> = FxHashSet::default();
    let mut stack: Vec<(State, u32)> = Vec::new();
    (0..dfa.state_count() as u32)
        .map(|q| {
            seen.clear();
            stack.extend(nfa.start().iter().map(|&p| (p, q)));
            seen.extend(stack.iter().copied());
            let mut reached = Vec::new();
            while let Some((p, q)) = stack.pop() {
                if nfa.is_accept(p) {
                    reached.push(q);
                }
                for (li, letter) in dfa.alphabet.iter().enumerate() {
                    let q2 = dfa.trans[q as usize][li];
                    for &p2 in nfa.step(p, letter.action()) {
                        if seen.insert((p2, q2)) {
                            stack.push((p2, q2));
                        }
                    }
                }
            }
            reached.sort_unstable();
            reached.dedup();
            reached
        })
        .collect()
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

/// Marks a row column bound to nothing (yet, or any more).
const UNBOUND: PNodeId = PNodeId::MAX;

/// The certain matches of a CNRE body against the pattern, projected on
/// `outputs`: one row per distinct assignment of the output variables
/// (which must all occur in the body) that extends to a match entailing
/// every atom, in first-occurrence order of a left-to-right nested-loop
/// join. With `constants_only`, output variables bind to constants only.
///
/// The join runs atom by atom and keeps, after each atom, only the
/// variables a later atom or the output reads, deduplicating the rows; a
/// variable read by no one (such as a lifted test's witness) is only
/// checked for existence.
pub fn certain_matches(
    pattern: &GraphPattern,
    body: &gdx_query::Cnre,
    outputs: &[Symbol],
    constants_only: bool,
    index: &mut EntailmentIndex,
) -> Result<Vec<Vec<PNodeId>>> {
    for atom in &body.atoms {
        index.relation(&atom.nre)?;
    }
    // Row slots: the output variables first, then the other variables.
    let mut vars: Vec<Symbol> = Vec::new();
    let mut slot = |v: Symbol| match vars.iter().position(|&w| w == v) {
        Some(s) => s,
        None => {
            vars.push(v);
            vars.len() - 1
        }
    };
    let out_slots: Vec<usize> = outputs.iter().map(|&v| slot(v)).collect();
    let mut atoms: Vec<(End, &BinRel, End)> = Vec::with_capacity(body.atoms.len());
    for atom in &body.atoms {
        let mut end = |t: &Term| match t {
            Term::Var(v) => Some(End::Var(slot(*v))),
            Term::Const(c) => pattern.node_id(Node::Const(*c)).map(End::Node),
        };
        // A constant absent from the pattern: nothing matches.
        let (Some(l), Some(r)) = (end(&atom.left), end(&atom.right)) else {
            return Ok(Vec::new());
        };
        atoms.push((l, &index.by_target[&atom.nre], r));
    }
    let width = vars.len();
    let mut is_output = vec![false; width];
    for &s in &out_slots {
        is_output[s] = true;
    }
    // `needed[d][s]`: slot `s` is an output or read by an atom after `d`.
    let mut needed = vec![Vec::new(); atoms.len()];
    let mut later = is_output.clone();
    for d in (0..atoms.len()).rev() {
        needed[d] = later.clone();
        for end in [&atoms[d].0, &atoms[d].2] {
            if let End::Var(s) = end {
                later[*s] = true;
            }
        }
    }
    let admits =
        |s: usize, n: PNodeId| !(constants_only && is_output[s]) || pattern.node(n).is_const();

    let mut rows: Vec<Vec<PNodeId>> = vec![vec![UNBOUND; width]];
    for (d, (l, rel, r)) in atoms.iter().enumerate() {
        let keep = &needed[d];
        let mut next: Vec<Vec<PNodeId>> = Vec::new();
        let mut seen: FxHashSet<Vec<PNodeId>> = FxHashSet::default();
        let mut emit = |mut row: Vec<PNodeId>| {
            for (s, value) in row.iter_mut().enumerate() {
                if !keep[s] {
                    *value = UNBOUND;
                }
            }
            if seen.insert(row.clone()) {
                next.push(row);
            }
        };
        for row in &rows {
            let value = |end: &End| match *end {
                End::Node(n) => Some(n),
                End::Var(s) => Some(row[s]).filter(|&n| n != UNBOUND),
            };
            let (lv, rv) = (value(l), value(r));
            // When the atom binds no variable read later, one pair of the
            // relation is as good as all of them: a semi-join.
            let fresh_kept = [(l, lv), (r, rv)]
                .iter()
                .any(|(end, v)| v.is_none() && matches!(end, End::Var(s) if keep[*s]));
            // Extends the row by `(u, v)`; true once the atom is settled.
            let mut visit = |u: PNodeId, v: PNodeId| {
                let mut next_row = row.clone();
                for (end, n) in [(l, u), (r, v)] {
                    if let End::Var(s) = *end {
                        if next_row[s] == UNBOUND && admits(s, n) {
                            next_row[s] = n;
                        } else if next_row[s] != n {
                            return false;
                        }
                    }
                }
                emit(next_row);
                !fresh_kept
            };
            match (lv, rv) {
                (Some(u), Some(v)) => {
                    if rel.contains(u, v) {
                        visit(u, v);
                    }
                }
                (Some(u), None) => {
                    rel.image(u).iter().any(|&v| visit(u, v));
                }
                (None, Some(v)) => {
                    rel.preimage(v).iter().any(|&u| visit(u, v));
                }
                (None, None) => {
                    rel.iter().any(|(u, v)| visit(u, v));
                }
            }
        }
        rows = next;
        if rows.is_empty() {
            break;
        }
    }
    Ok(rows
        .into_iter()
        .map(|row| out_slots.iter().map(|&s| row[s]).collect())
        .collect())
}

/// One end of a join atom: a variable's row slot, or a pattern node.
enum End {
    Var(usize),
    Node(PNodeId),
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

    fn sym(name: &str) -> Symbol {
        Symbol::new(name)
    }

    fn index(p: &GraphPattern, path_bound: Option<usize>) -> EntailmentIndex {
        EntailmentIndex::new(p, path_bound, true)
    }

    /// The entailment relation of `target` as sorted `(u, v)` node names.
    fn related(p: &GraphPattern, target: &str, path_bound: Option<usize>) -> Vec<(String, String)> {
        let target = gdx_nre::parse::parse_nre(target).unwrap();
        let mut idx = index(p, path_bound);
        let mut pairs: Vec<(String, String)> = idx
            .relation(&target)
            .unwrap()
            .iter()
            .map(|(u, v)| (p.node(u).to_string(), p.node(v).to_string()))
            .collect();
        pairs.sort();
        pairs
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(u, v)| (u.to_string(), v.to_string()))
            .collect()
    }

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
        let ms =
            certain_matches(&p, &egd.body, &[egd.lhs], false, &mut index(&p, Some(2))).unwrap();
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
        let ms = certain_matches(
            &p,
            &body,
            &[sym("x"), sym("y")],
            false,
            &mut index(&p, None),
        )
        .unwrap();
        assert!(ms.is_empty(), "nothing is entailed: {ms:?}");
        assert!(accepts_empty_path(&Nre::label("f").star()));
        assert!(!accepts_empty_path(&Nre::label("h").test()));
    }

    #[test]
    fn reversed_steps_survive_a_forward_edge_with_the_reversed_label() {
        // `f-` labels a forward edge, and `f`'s reversal is `f-`: the
        // reversed `f` edge still entails `(b, f-, a)`.
        let p = GraphPattern::parse("(a, f, b); (c, f-, d);").unwrap();
        assert_eq!(related(&p, "f-", Some(1)), pairs(&[("b", "a"), ("c", "d")]));
        assert_eq!(related(&p, "f", Some(1)), pairs(&[("a", "b"), ("d", "c")]));
    }

    #[test]
    fn paths_of_any_length_entail_a_starred_target() {
        let p = GraphPattern::parse("(a, f.f*, b); (b, f, c); (c, f.f*, d); (d, h, e);").unwrap();
        let at = |bound| related(&p, "f.f*", bound).len();
        assert_eq!(at(Some(1)), 3);
        assert_eq!(at(Some(2)), 5);
        assert_eq!(at(None), 6, "a→b→c→d needs three edges");
        assert!(related(&p, "f.f*.h", None).contains(&("a".to_owned(), "e".to_owned())));
        // A set holding a non-accepting state is not an entailment: the
        // `f*` edge may be empty.
        let q = GraphPattern::parse("(a, f*, b);").unwrap();
        assert!(related(&q, "f.f*", None).is_empty());
        assert_eq!(related(&q, "f*", None).len(), 3, "a→b plus two identities");
    }

    #[test]
    fn projected_matches_keep_constants_and_drop_helpers() {
        // x reaches both nulls; only constant outputs survive, and the
        // helper w is checked, not enumerated.
        let p =
            GraphPattern::parse("(a, f, _N1); (a, f, _N2); (_N1, h, b); (_N2, h, b); (_N1, g, c);")
                .unwrap();
        let body = gdx_query::Cnre::parse("(x, f, z), (z, g, w), (z, h, y)").unwrap();
        let mut idx = index(&p, None);
        let all = certain_matches(&p, &body, &[sym("x"), sym("z")], false, &mut idx).unwrap();
        assert_eq!(all.len(), 1, "only _N1 has a g-edge: {all:?}");
        let consts = certain_matches(&p, &body, &[sym("x"), sym("y")], true, &mut idx).unwrap();
        let names: Vec<Vec<String>> = consts
            .iter()
            .map(|r| r.iter().map(|&n| p.node(n).to_string()).collect())
            .collect();
        assert_eq!(names, vec![vec!["a".to_owned(), "b".to_owned()]]);
        let nulls = certain_matches(&p, &body, &[sym("z")], true, &mut idx).unwrap();
        assert!(nulls.is_empty(), "z binds to nulls only");
    }
}
