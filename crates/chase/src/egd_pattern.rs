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
//! `L(r₁·…·r_k) ⊆ L(s)`, at any length `k`. A target accepts the empty
//! path (and so relates every node to itself) only when no nesting test
//! is on that path. The egd chase cuts paths at `path_bound` edges; the
//! certain-answer lower bound does not cut them. Both run the code below.
//!
//! * **Product.** [`EntailmentIndex`] decides entailment of a test-free
//!   NRE by reachability over pairs (pattern node, interned set of
//!   states of the minimized DFA of `s`), not by enumerating edge
//!   sequences. Steps come from per-node adjacency lists sorted by step
//!   kind, through one transfer table per step kind.
//! * **Closure.** Without a path bound (the certain-answer lower bound),
//!   one breadth-first search from every `(u, {q₀})` discovers the live
//!   product nodes, and one closure on the dense kernel
//!   ([`gdx_nre::dense::closure`]) relates them all: `u` entails `s` to
//!   `v` when `(u, {q₀})` reaches some `(v, S)` with `S` accepting. A
//!   product above [`DENSE_MAX_NODES`] nodes is walked instead.
//! * **Walk.** With a path bound (the egd chase), and above that size,
//!   a level-by-level walk per start node: each state set has a visited
//!   bitset of `n` bits (`n` pattern nodes) and the start node a bitset
//!   of the nodes it is related to, both reused across start nodes;
//!   `path_bound` caps the number of levels. The frontier is a list, not
//!   a bitset: nodes are related in breadth-first discovery order, which
//!   the egd chase's merge order (and so the surviving null names)
//!   depends on.
//! * **Relation.** Accepted pairs are collected in their fixed order and
//!   become a [`BinRel`] (forward and reverse rows in that order) without
//!   a hash insert per visit: the bitsets prove them distinct, and the
//!   relation's pair index is filled once per pair. Relations are
//!   memoized per target in the index. Without a path bound and with
//!   reversed steps, a target whose language is the reversal of a built
//!   target's is not built again: the reversal of a path is a path, so
//!   its relation is the built one's transpose.
//! * **Join.** [`certain_matches`] joins atom by atom over flat node-id
//!   rows built in reused buffers. An atom that binds a kept variable from
//!   a bound one that no later atom reads groups the rows sharing their
//!   kept columns and ORs their relation rows into one reused `n`-bit
//!   accumulator, which emits each new binding once, in relation order;
//!   atoms whose fresh variable nobody reads are existence checks.
//! * **Memory.** O(pattern edges + relation pairs + `n` × state sets),
//!   plus the join's rows: no `n` × `n` matrix per step kind. A closure's
//!   `N²` bits for `N` product nodes live only while its relation is
//!   built.
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
use gdx_nre::dense::{closure, DenseRel, DENSE_MAX_NODES};
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
    /// Per node (by id), the test-free steps leaving it, in step-kind
    /// order: `(step, successor)`.
    adjacency: Vec<Vec<(u32, PNodeId)>>,
    /// Are reversed edges steps too?
    allow_reversed: bool,
    /// Entailment relations per target NRE.
    by_target: FxHashMap<Nre, BinRel>,
    /// Without a path bound: each built test-free target with the
    /// minimized DFA its relation was built on, for spotting reversed
    /// targets.
    built: Vec<(Nre, Dfa)>,
    /// Bitsets and frontiers of the walk, reused across start nodes and
    /// targets.
    walk: WalkScratch,
    /// Without a path bound, products of up to this many nodes are
    /// closed on the dense kernel instead of walked:
    /// [`DENSE_MAX_NODES`].
    closure_max_nodes: usize,
}

/// Reusable scratch of [`EntailmentIndex`]'s walk: bitsets of one bit
/// per pattern node.
#[derive(Debug, Default)]
struct WalkScratch {
    /// Per interned DFA state set (one run of words each), the nodes the
    /// current start node has reached with that set.
    visited: Vec<u64>,
    /// The nodes the current start node is already related to.
    related: Vec<u64>,
    frontier: Vec<(PNodeId, u32)>,
    next: Vec<(PNodeId, u32)>,
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
        let mut kind = |steps: &mut Vec<(Nre, Vec<(PNodeId, PNodeId)>)>, r: &Nre| {
            if let Some(&k) = kind_of.get(r) {
                return k;
            }
            kind_of.insert(r.clone(), steps.len());
            steps.push((r.clone(), Vec::new()));
            steps.len() - 1
        };
        for (s, r, d) in pattern.edges() {
            let k = kind(&mut steps, r);
            steps[k].1.push((*s, *d));
        }
        if allow_reversed {
            let forward = steps.len();
            for k in 0..forward {
                let reversed = steps[k].0.reversed();
                let rev = kind(&mut steps, &reversed);
                for i in 0..steps[k].1.len() {
                    let (s, d) = steps[k].1[i];
                    steps[rev].1.push((d, s));
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
            allow_reversed,
            by_target: FxHashMap::default(),
            built: Vec::new(),
            walk: WalkScratch::default(),
            closure_max_nodes: DENSE_MAX_NODES,
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
    /// longer paths by start node, each in breadth-first discovery order.
    /// The egd chase merges in match order, so which null names survive a
    /// merge depends on it.
    ///
    /// Without a path bound (the certain-answer lower bound, which sorts
    /// its rows), the pair order is unspecified: longer paths come from
    /// one closure of the product (see the [module docs](self)) when it fits
    /// the dense kernel, and a target whose language is the reversal of
    /// an already built target's (`f-.(f-)*` after `f.f*`) gets the
    /// transpose of that relation, in its order.
    pub fn relation(&mut self, target: &Nre) -> Result<&BinRel> {
        if !self.by_target.contains_key(target) {
            let rel = match self.reversal_of(target)? {
                Some(built) => self.by_target[&built].transpose(),
                None => self.build_relation(target)?,
            };
            self.by_target.insert(target.clone(), rel);
        }
        Ok(&self.by_target[target])
    }

    /// The built target whose language is the reversal of `target`'s,
    /// if any: compared by language on minimized DFAs, so any spelling
    /// of the reversal matches. Only without a path bound and with
    /// reversed steps, where the relations are each other's transposes.
    fn reversal_of(&self, target: &Nre) -> Result<Option<Nre>> {
        if self.path_bound.is_some()
            || !self.allow_reversed
            || self.built.is_empty()
            || !target.is_test_free()
        {
            return Ok(None);
        }
        let reversed = target_dfa(&target.reversed(), &self.steps)?;
        Ok(self
            .built
            .iter()
            .find(|(_, dfa)| same_language(dfa, &reversed))
            .map(|(built, _)| built.clone()))
    }

    fn build_relation(&mut self, target: &Nre) -> Result<BinRel> {
        let nodes = self.adjacency.len();
        let mut pairs: Vec<(PNodeId, PNodeId)> = Vec::new();
        // Length 0: a target that accepts the empty path with no test to
        // pass relates every node to itself.
        let reflexive = accepts_empty_path(target);
        if reflexive {
            pairs.extend((0..nodes as PNodeId).map(|id| (id, id)));
        }
        if self.path_bound == Some(0) {
            return Ok(BinRel::from_distinct_pairs(pairs));
        }
        // A nesting test left in a target (one under a star or a union:
        // top-level tests of a query are lifted into atoms of their own
        // before matching) or on an edge falls back to single-edge
        // syntactic equality (sound, incomplete).
        let dfa = target
            .is_test_free()
            .then(|| target_dfa(target, &self.steps))
            .transpose()?;
        let mut product = dfa.as_ref().map(|dfa| StepProduct::new(dfa, &self.steps));
        if let (None, Some(dfa)) = (self.path_bound, dfa) {
            self.built.push((target.clone(), dfa));
        }
        // Length 1, in step-kind order.
        let mut entailed = vec![false; self.steps.len()];
        let mut single: FxHashSet<(PNodeId, PNodeId)> = FxHashSet::default();
        for (k, (r, kind_pairs)) in self.steps.iter().enumerate() {
            entailed[k] = match &mut product {
                Some(product) if r.is_test_free() => {
                    let set = product.successor(START, k);
                    product.accepting(set)
                }
                _ => r == target,
            };
            if entailed[k] {
                for &(u, v) in kind_pairs {
                    if !(reflexive && u == v) && single.insert((u, v)) {
                        pairs.push((u, v));
                    }
                }
            }
        }
        let Some(mut product) = product else {
            return Ok(BinRel::from_distinct_pairs(pairs));
        };
        if self.path_bound == Some(1) || product.is_dead(START) {
            return Ok(BinRel::from_distinct_pairs(pairs));
        }
        // Longer paths. Without a path bound, one closure of the product
        // graph when it fits the dense kernel; otherwise one
        // level-by-level walk per start node over (node, state set), with
        // a visited bitset per state set. The walk's frontier is a list,
        // so nodes are related in breadth-first discovery order. Sets
        // holding a dead state are pruned; the path bound caps the number
        // of levels.
        let closed = match self.path_bound {
            None => ProductClosure::new(&mut product, &self.adjacency, self.closure_max_nodes),
            Some(_) => None,
        };
        let words = nodes.div_ceil(64);
        let WalkScratch {
            visited,
            related,
            frontier,
            next,
        } = &mut self.walk;
        related.resize(words, 0);
        for u in 0..nodes as PNodeId {
            related.fill(0);
            if reflexive {
                insert_bit(related, u);
            }
            for &(k, v) in &self.adjacency[u as usize] {
                if entailed[k as usize] {
                    insert_bit(related, v);
                }
            }
            if let Some(closed) = &closed {
                closed.relate(u, related, &mut pairs);
                continue;
            }
            visited.fill(0);
            visited.resize(product.set_count() * words, 0);
            insert_bit(&mut visited[..words], u);
            frontier.clear();
            frontier.push((u, START));
            let mut depth = 0;
            while !frontier.is_empty() && self.path_bound.is_none_or(|b| depth < b) {
                depth += 1;
                next.clear();
                for &(x, set) in frontier.iter() {
                    // The adjacency is sorted by step kind: one successor
                    // set per kind, and a kind into a dead, non-accepting
                    // set is skipped whole.
                    for run in self.adjacency[x as usize].chunk_by(|a, b| a.0 == b.0) {
                        let succ = product.successor(set, run[0].0 as usize);
                        let (accepting, dead) = (product.accepting(succ), product.is_dead(succ));
                        if dead && !accepting {
                            continue;
                        }
                        let at = succ as usize * words;
                        if visited.len() < at + words {
                            visited.resize(at + words, 0);
                        }
                        let seen = &mut visited[at..at + words];
                        for &(_, y) in run {
                            if !insert_bit(seen, y) {
                                continue;
                            }
                            if accepting && insert_bit(related, y) {
                                pairs.push((u, y));
                            }
                            if !dead {
                                next.push((y, succ));
                            }
                        }
                    }
                }
                std::mem::swap(frontier, next);
            }
        }
        Ok(BinRel::from_distinct_pairs(pairs))
    }
}

/// The live part of the product of a pattern with one target's
/// [`StepProduct`], closed once (Mendelzon & Wood, "Finding regular
/// simple paths in graph databases", SIAM J. Comput. 1995: a path query
/// is reachability in the product of the graph and the query's
/// automaton). Product nodes are (pattern node, live state set): one
/// breadth-first search from every `(u, {q₀})` discovers them through
/// the transfer tables, pruning sets that hold a dead state and do not
/// accept, exactly as the walk does. Product node `u` is `(u, {q₀})`.
struct ProductClosure {
    /// The pattern node of each product node.
    node: Vec<PNodeId>,
    /// The product nodes whose state set accepts, as a bitset.
    accepting: Vec<u64>,
    /// The reflexive-transitive closure of the product's edges.
    reach: DenseRel,
}

impl ProductClosure {
    /// Discovers and closes the product; `None` when it has more than
    /// `max_nodes` nodes, where the caller walks instead.
    fn new(
        product: &mut StepProduct,
        adjacency: &[Vec<(u32, PNodeId)>],
        max_nodes: usize,
    ) -> Option<ProductClosure> {
        let n = adjacency.len();
        if n > max_nodes {
            return None;
        }
        // `ids[set * n + x]`: the product node (x, set), if discovered.
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut node: Vec<PNodeId> = (0..n as PNodeId).collect();
        let mut set_of: Vec<u32> = vec![START; n];
        // The product's edges, grouped by source in discovery order.
        let mut offsets: Vec<u32> = vec![0];
        let mut targets: Vec<u32> = Vec::new();
        // Does the set accept? Under the `fault-entail-any` sharpness
        // fault: does *some* of its states accept, so that a path is
        // taken to entail the target when some of its words do.
        let accepts = |product: &StepProduct, set: u32| {
            product.accepting(set)
                || (cfg!(feature = "fault-entail-any") && product.accepts_some(set))
        };
        let mut p = 0;
        while p < node.len() {
            let (x, set) = (node[p], set_of[p]);
            // A dead set that accepts ends its paths (only under the
            // `fault-entail-any` fault can a set be both).
            if !product.is_dead(set) {
                for run in adjacency[x as usize].chunk_by(|a, b| a.0 == b.0) {
                    let succ = product.successor(set, run[0].0 as usize);
                    if product.is_dead(succ) && !accepts(product, succ) {
                        continue;
                    }
                    let at = succ as usize * n;
                    if ids.len() < at + n {
                        ids.resize(at + n, u32::MAX);
                    }
                    for &(_, y) in run {
                        let id = &mut ids[at + y as usize];
                        if *id == u32::MAX {
                            if node.len() >= max_nodes {
                                return None;
                            }
                            *id = node.len() as u32;
                            node.push(y);
                            set_of.push(succ);
                        }
                        targets.push(*id);
                    }
                }
            }
            offsets.push(targets.len() as u32);
            p += 1;
        }
        let reach = closure(node.len(), |p| {
            targets[offsets[p] as usize..offsets[p + 1] as usize]
                .iter()
                .map(|&t| t as usize)
        });
        let mut accepting = vec![0u64; node.len().div_ceil(64)];
        for (p, &set) in set_of.iter().enumerate() {
            if accepts(product, set) {
                insert_bit(&mut accepting, p as u32);
            }
        }
        Some(ProductClosure {
            node,
            accepting,
            reach,
        })
    }

    /// Relates `u` to the pattern node of every accepting product node
    /// that `(u, {q₀})` reaches, pushing `(u, v)` for each `v` not yet in
    /// `related`.
    fn relate(&self, u: PNodeId, related: &mut [u64], pairs: &mut Vec<(PNodeId, PNodeId)>) {
        for (i, (&row, &accepting)) in self.reach.row(u).iter().zip(&self.accepting).enumerate() {
            let mut bits = row & accepting;
            while bits != 0 {
                let v = self.node[i * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                if insert_bit(related, v) {
                    pairs.push((u, v));
                }
            }
        }
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
    /// Per interned set: (accepting, dead) — see [`StepProduct::accepting`]
    /// and [`StepProduct::is_dead`].
    verdicts: Vec<(bool, bool)>,
    /// `succ[set * steps + k]`, `u32::MAX` until computed.
    succ: Vec<u32>,
}

/// The minimized DFA of a test-free target over the joint alphabet of
/// the target and the pattern's test-free step kinds.
fn target_dfa(target: &Nre, steps: &[(Nre, Vec<(PNodeId, PNodeId)>)]) -> Result<Dfa> {
    let test_free: Vec<&Nre> = std::iter::once(target)
        .chain(steps.iter().map(|(r, _)| r).filter(|r| r.is_test_free()))
        .collect();
    let alphabet = joint_alphabet(&test_free);
    Ok(Dfa::from_nre(target, &alphabet)?.minimize())
}

/// Do two complete DFAs accept the same words? Every pair of states the
/// same word reaches must agree on acceptance. Automata over different
/// alphabets differ: every letter of a test-free NRE occurs in some word
/// of its language.
fn same_language(a: &Dfa, b: &Dfa) -> bool {
    if a.alphabet != b.alphabet {
        return false;
    }
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut stack = vec![(a.start, b.start)];
    seen.insert((a.start, b.start));
    while let Some((p, q)) = stack.pop() {
        if a.accept[p as usize] != b.accept[q as usize] {
            return false;
        }
        for (&p2, &q2) in a.trans[p as usize].iter().zip(&b.trans[q as usize]) {
            if seen.insert((p2, q2)) {
                stack.push((p2, q2));
            }
        }
    }
    true
}

impl StepProduct {
    fn new(dfa: &Dfa, steps: &[(Nre, Vec<(PNodeId, PNodeId)>)]) -> StepProduct {
        let dead = (0..dfa.state_count())
            .map(|q| !dfa.accept[q] && dfa.trans[q].iter().all(|&t| t as usize == q))
            .collect();
        let transfer = steps
            .iter()
            .map(|(r, _)| {
                if r.is_test_free() {
                    transfer_table(dfa, r)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut product = StepProduct {
            accept: dfa.accept.clone(),
            dead,
            transfer,
            sets: Vec::new(),
            ids: FxHashMap::default(),
            verdicts: Vec::new(),
            succ: Vec::new(),
        };
        product.intern(vec![dfa.start]);
        product
    }

    fn intern(&mut self, set: Vec<u32>) -> u32 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        // Does every word leading into the set belong to the target?
        // Does it hold a state from which nothing is accepted? Such a set
        // never becomes accepting, however the path continues.
        let accepting = set.iter().all(|&q| self.accept[q as usize]);
        let dead = set.iter().any(|&q| self.dead[q as usize]);
        self.verdicts.push((accepting, dead));
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

    /// Number of state sets interned so far.
    fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Does every word leading into `set` belong to the target?
    fn accepting(&self, set: u32) -> bool {
        self.verdicts[set as usize].0
    }

    /// Does some state of `set` accept?
    fn accepts_some(&self, set: u32) -> bool {
        self.sets[set as usize]
            .iter()
            .any(|&q| self.accept[q as usize])
    }

    /// Does `set` hold a state from which nothing is accepted?
    fn is_dead(&self, set: u32) -> bool {
        self.verdicts[set as usize].1
    }
}

/// Sets bit `i` of `bits`; true when it was clear.
fn insert_bit(bits: &mut [u64], i: PNodeId) -> bool {
    let (word, mask) = (i as usize / 64, 1u64 << (i % 64));
    let fresh = bits[word] & mask == 0;
    bits[word] |= mask;
    fresh
}

/// Is bit `i` of `bits` set?
fn has_bit(bits: &[u64], i: PNodeId) -> bool {
    bits[i as usize / 64] & (1u64 << (i % 64)) != 0
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
/// The join runs atom by atom over flat rows and keeps, after each atom,
/// only the variables a later atom or the output reads; a variable read
/// by no one (such as a lifted test's witness) is only checked for
/// existence. An atom that reads a bound variable for the last time
/// groups the rows sharing their kept columns and merges the group's
/// relation rows into one reused bitset.
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
    let nodes = pattern.node_count();
    // `admitted[s]`: the nodes slot `s` may bind to, as a bitset, when
    // restricted.
    let mut constants = vec![0u64; nodes.div_ceil(64)];
    for id in pattern.node_ids() {
        if pattern.node(id).is_const() {
            insert_bit(&mut constants, id);
        }
    }
    let mut admitted: Vec<Option<&[u64]>> = vec![None; width];
    if constants_only {
        for &s in &out_slots {
            admitted[s] = Some(&constants);
        }
    }
    // `needed[d][s]`: slot `s` is an output or read by an atom after `d`.
    let mut needed = vec![Vec::new(); atoms.len()];
    let mut later = vec![false; width];
    for &s in &out_slots {
        later[s] = true;
    }
    for d in (0..atoms.len()).rev() {
        needed[d] = later.clone();
        for end in [&atoms[d].0, &atoms[d].2] {
            if let End::Var(s) = end {
                later[*s] = true;
            }
        }
    }

    let mut join = Join::new(width, nodes, &admitted);
    for (d, &(l, rel, r)) in atoms.iter().enumerate() {
        join.step(l, rel, r, &needed[d]);
        if join.len == 0 {
            break;
        }
    }
    Ok((0..join.len)
        .map(|i| {
            let row = join.row(i);
            out_slots.iter().map(|&s| row[s]).collect()
        })
        .collect())
}

/// One end of a join atom: a variable's row slot, or a pattern node.
#[derive(Clone, Copy)]
enum End {
    Var(usize),
    Node(PNodeId),
}

/// The atom-by-atom join of [`certain_matches`]: `len` rows of `width`
/// slots each, flat, with the same slots bound in every row.
///
/// An atom either checks a pair (both ends bound), extends each row by
/// the relation row of its bound end (one end fresh), or crosses the
/// rows with the relation's pairs (both ends fresh). When the atom reads
/// a slot for the last time, distinct rows may agree on every kept slot:
/// a counting sort groups them, and each group merges its rows' relation
/// rows into one reused bitset of `nodes` bits (without a dropped slot,
/// every row is a group of its own), emitting each new binding once, in
/// relation order. Rows come out exactly as the left-to-right nested-loop join
/// with first-occurrence deduplication would emit them: the egd chase
/// merges nodes in that order.
struct Join<'a> {
    width: usize,
    nodes: usize,
    len: usize,
    rows: Vec<PNodeId>,
    /// `bound[s]`: every row binds slot `s`.
    bound: Vec<bool>,
    admitted: &'a [Option<&'a [u64]>],
    next: Vec<PNodeId>,
    /// Grouping scratch: row indices in group order, a counting-sort
    /// buffer and its buckets, and the `(row, binding)` pairs emitted.
    order: Vec<u32>,
    sorted: Vec<u32>,
    buckets: Vec<u32>,
    emitted: Vec<(u32, PNodeId)>,
    /// The bindings a group (or a cross step) has emitted, one bit per
    /// node.
    seen: Vec<u64>,
    /// The kept bindings of a cross step, flat.
    crossed: Vec<PNodeId>,
}

impl<'a> Join<'a> {
    fn new(width: usize, nodes: usize, admitted: &'a [Option<&'a [u64]>]) -> Join<'a> {
        Join {
            width,
            nodes,
            len: 1,
            rows: vec![UNBOUND; width],
            bound: vec![false; width],
            admitted,
            next: Vec::new(),
            order: Vec::new(),
            sorted: Vec::new(),
            buckets: Vec::new(),
            emitted: Vec::new(),
            seen: vec![0; nodes.div_ceil(64)],
            crossed: Vec::new(),
        }
    }

    fn row(&self, i: usize) -> &[PNodeId] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// Appends a copy of row `i` to the next rows.
    fn push_row(&mut self, i: usize) {
        let w = self.width;
        self.next.extend_from_slice(&self.rows[i * w..(i + 1) * w]);
    }

    fn admits(&self, s: usize, n: PNodeId) -> bool {
        self.admitted[s].is_none_or(|allowed| has_bit(allowed, n))
    }

    /// Joins the rows with one atom `(l, rel, r)`; `keep[s]`: slot `s` is
    /// read after this atom.
    fn step(&mut self, l: End, rel: &BinRel, r: End, keep: &[bool]) {
        let fresh = |e: End| match e {
            End::Var(s) if !self.bound[s] => Some(s),
            _ => None,
        };
        self.next.clear();
        let next_len = match (fresh(l), fresh(r)) {
            (Some(s), Some(t)) => self.cross(rel, s, t, keep),
            (fresh_l, fresh_r) => {
                let value = |row: &[PNodeId], e: End| match e {
                    End::Node(n) => n,
                    End::Var(s) => row[s],
                };
                // What the atom offers row `i`.
                let candidates = |join: &Join, i: usize| -> Candidates<'_> {
                    let row = join.row(i);
                    match (fresh_l, fresh_r) {
                        (None, Some(_)) => Candidates::List(rel.image(value(row, l))),
                        (Some(_), None) => Candidates::List(rel.preimage(value(row, r))),
                        _ => Candidates::Check(rel.contains(value(row, l), value(row, r))),
                    }
                };
                let new = fresh_l.or(fresh_r).filter(|&s| keep[s]);
                self.extend(new, keep, candidates)
            }
        };
        for (s, bound) in self.bound.iter_mut().enumerate() {
            let bound_here = [l, r].iter().any(|e| matches!(e, End::Var(v) if *v == s));
            *bound = keep[s] && (*bound || bound_here);
        }
        std::mem::swap(&mut self.rows, &mut self.next);
        self.len = next_len;
    }

    /// Both ends fresh: the atom does not read the rows, so its kept
    /// bindings are computed once and crossed with every row.
    fn cross(&mut self, rel: &BinRel, s: usize, t: usize, keep: &[bool]) -> usize {
        self.crossed.clear();
        let kept: Vec<usize> = if s == t { vec![s] } else { vec![s, t] }
            .into_iter()
            .filter(|&v| keep[v])
            .collect();
        let mut any = false;
        self.seen.fill(0);
        for (u, v) in rel.iter() {
            if s == t && u != v {
                continue;
            }
            match kept.as_slice() {
                [] => {
                    any = true;
                    break;
                }
                [only] => {
                    let n = if *only == s { u } else { v };
                    if self.admits(*only, n) && insert_bit(&mut self.seen, n) {
                        self.crossed.push(n);
                    }
                }
                _ => {
                    if self.admits(s, u) && self.admits(t, v) {
                        self.crossed.extend([u, v]);
                    }
                }
            }
        }
        let bindings = if kept.is_empty() {
            usize::from(any)
        } else {
            self.crossed.len() / kept.len()
        };
        for i in 0..self.len {
            for b in 0..bindings {
                self.push_row(i);
                let at = self.next.len() - self.width;
                for (j, &slot) in kept.iter().enumerate() {
                    self.next[at + slot] = self.crossed[b * kept.len() + j];
                }
            }
        }
        self.len * bindings
    }

    /// One end bound: rows agreeing on every kept slot form a group. Each
    /// group emits its kept slots once per new admitted binding of the
    /// kept fresh slot `new`, or once when the atom holds for some row of
    /// it (no kept binding), at the position of the row that produced it
    /// first.
    fn extend<'r>(
        &mut self,
        new: Option<usize>,
        keep: &[bool],
        candidates: impl Fn(&Join, usize) -> Candidates<'r>,
    ) -> usize {
        let width = self.width;
        let key: Vec<usize> = (0..width).filter(|&s| self.bound[s] && keep[s]).collect();
        self.order.clear();
        self.order.extend(0..self.len as u32);
        // Rows that keep every bound slot are distinct: each is a group of
        // its own, already in order. Otherwise stable counting sorts by
        // each key slot, last slot first, make equal keys adjacent, each
        // group in row order.
        let drops = (0..width).any(|s| self.bound[s] && !keep[s]);
        for &s in key.iter().rev().filter(|_| drops) {
            let value = |i: u32| self.rows[i as usize * width + s] as usize;
            self.buckets.clear();
            self.buckets.resize(self.nodes + 1, 0);
            for &i in &self.order {
                self.buckets[value(i) + 1] += 1;
            }
            for n in 0..self.nodes {
                self.buckets[n + 1] += self.buckets[n];
            }
            self.sorted.resize(self.len, 0);
            for &i in &self.order {
                let at = &mut self.buckets[value(i)];
                self.sorted[*at as usize] = i;
                *at += 1;
            }
            std::mem::swap(&mut self.order, &mut self.sorted);
        }
        let rows = &self.rows;
        let same_key = |a: u32, b: u32| {
            key.iter()
                .all(|&s| rows[a as usize * width + s] == rows[b as usize * width + s])
        };
        self.emitted.clear();
        let mut start = 0;
        while start < self.order.len() {
            let mut end = start + 1;
            while end < self.order.len() && same_key(self.order[start], self.order[end]) {
                end += 1;
            }
            self.seen.fill(0);
            for &i in &self.order[start..end] {
                match (candidates(self, i as usize), new) {
                    (Candidates::List(list), Some(s)) => {
                        let admitted = self.admitted[s];
                        for &v in list {
                            if admitted.is_none_or(|allowed| has_bit(allowed, v))
                                && insert_bit(&mut self.seen, v)
                            {
                                self.emitted.push((i, v));
                            }
                        }
                    }
                    (Candidates::List(list), None) if !list.is_empty() => {
                        self.emitted.push((i, UNBOUND));
                        break;
                    }
                    (Candidates::Check(true), _) => {
                        self.emitted.push((i, UNBOUND));
                        break;
                    }
                    _ => {}
                }
            }
            start = end;
        }
        // Back to row order; a row's bindings keep their relation order.
        self.emitted.sort_by_key(|&(i, _)| i);
        for &(i, v) in &self.emitted {
            let at = self.next.len();
            self.next
                .extend_from_slice(&rows[i as usize * width..(i as usize + 1) * width]);
            for (s, &k) in keep.iter().enumerate() {
                if !k {
                    self.next[at + s] = UNBOUND;
                }
            }
            if let Some(s) = new {
                self.next[at + s] = v;
            }
        }
        self.emitted.len()
    }
}

/// What one atom offers one row: the relation row of its bound end (the
/// fresh end's candidates), or the verdict on a pair of bound ends.
enum Candidates<'r> {
    List(&'r [PNodeId]),
    Check(bool),
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

    /// Edge NREs of the closure-vs-walk proptest's random patterns: steps
    /// that reach several DFA states at once, inverses and a test (which
    /// only the single-edge rule reads).
    const STEP_NRES: [&str; 7] = ["f", "h", "f.f*", "f*", "h+f", "f-.h", "[h]"];

    /// Targets of that proptest.
    const CLOSURE_TARGETS: [&str; 8] = [
        "f", "f.f*", "f.f*.h", "f-.(f-)*", "h+f", "(f+h)*.h", "f*", "f.h-",
    ];

    fn arb_step_pattern() -> impl proptest::strategy::Strategy<Value = GraphPattern> {
        use proptest::prelude::*;
        proptest::collection::vec((0u32..7, 0usize..STEP_NRES.len(), 0u32..7), 0..12).prop_map(
            |edges| {
                let mut p = GraphPattern::new();
                let nodes: Vec<PNodeId> = (0..7)
                    .map(|i| {
                        if i < 3 {
                            p.add_node(Node::cst(&format!("k{i}")))
                        } else {
                            p.add_node(Node::null(&format!("n{i}")))
                        }
                    })
                    .collect();
                for (s, r, d) in edges {
                    let nre = gdx_nre::parse::parse_nre(STEP_NRES[r]).unwrap();
                    p.add_edge(nodes[s as usize], nre, nodes[d as usize]);
                }
                p
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        /// The unbounded relation closed on the dense kernel equals the
        /// per-start walk's, as sets, with and without reversed steps.
        /// A bound of no product nodes forces the walk.
        #[test]
        fn product_closure_agrees_with_the_walk(p in arb_step_pattern()) {
            for allow_reversed in [true, false] {
                let mut closed = EntailmentIndex::new(&p, None, allow_reversed);
                let mut walked = EntailmentIndex::new(&p, None, allow_reversed);
                walked.closure_max_nodes = 0;
                for target in CLOSURE_TARGETS {
                    let target = gdx_nre::parse::parse_nre(target).unwrap();
                    let c: FxHashSet<(PNodeId, PNodeId)> =
                        closed.relation(&target).unwrap().iter().collect();
                    let w: FxHashSet<(PNodeId, PNodeId)> =
                        walked.relation(&target).unwrap().iter().collect();
                    proptest::prop_assert_eq!(
                        c.len(),
                        closed.relation(&target).unwrap().len(),
                        "duplicate pairs for {}", target
                    );
                    proptest::prop_assert_eq!(c, w, "target {} reversed {}", target, allow_reversed);
                }
            }
        }
    }
}
