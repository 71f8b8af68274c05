//! Canonical instantiation of graph patterns.
//!
//! An *instantiation* realizes every NRE edge of a pattern by a concrete
//! witness path (fresh nulls for intermediate nodes), producing a graph `G`
//! with `π → G` via the identity-on-pattern-nodes homomorphism. The
//! shortest instantiation is the canonical solution of a setting without
//! target constraints; the *family* of bounded instantiations is the
//! candidate pool for certain-answer counterexample search (these are
//! homomorphism-minimal members of `Rep_Σ(π)` up to the enumeration
//! bounds — see DESIGN.md §5).
//!
//! Edges whose language is `{ε}` force their endpoints to be equal; the
//! instantiator resolves those by merging (failing when both endpoints are
//! distinct constants).

use crate::pattern::{GraphPattern, PNodeId};
use gdx_common::{FxHashMap, GdxError, Result, UnionFind};
use gdx_graph::{Graph, NodeId};
use gdx_nre::witness::{self, EnumConfig, Witness};
use gdx_nre::Nre;

/// Bounds for instantiation families.
#[derive(Debug, Clone, Copy)]
pub struct InstantiationConfig {
    /// Witness enumeration bounds per edge.
    pub witnesses: EnumConfig,
    /// Cap on the number of graphs generated.
    pub max_graphs: usize,
}

impl Default for InstantiationConfig {
    fn default() -> InstantiationConfig {
        InstantiationConfig {
            witnesses: EnumConfig::default(),
            max_graphs: 256,
        }
    }
}

/// Merges endpoints of `{ε}`-language edges; returns the quotiented
/// pattern and the list of residual (non-ε-only) edges. Fails when two
/// distinct constants are forced equal.
fn resolve_epsilon_edges(pattern: &GraphPattern) -> Result<GraphPattern> {
    let mut uf = UnionFind::new(pattern.node_count());
    // One witness search per distinct edge NRE, not per edge.
    let mut eps_only: FxHashMap<&Nre, bool> = FxHashMap::default();
    for (s, r, d) in pattern.edges() {
        let eps_only = *eps_only
            .entry(r)
            .or_insert_with(|| witness::shortest_nonempty(r).is_none());
        if eps_only && s != d {
            // Representative preference: constants win.
            let (rs, rd) = (uf.find(*s), uf.find(*d));
            if rs == rd {
                continue;
            }
            let s_const = pattern.node(rs).is_const();
            let d_const = pattern.node(rd).is_const();
            match (s_const, d_const) {
                (true, true) => {
                    return Err(GdxError::unsupported(format!(
                        "ε-only pattern edge forces distinct constants {} = {}",
                        pattern.node(rs),
                        pattern.node(rd)
                    )))
                }
                (true, false) => {
                    uf.union_into(rs, rd);
                }
                _ => {
                    uf.union_into(rd, rs);
                }
            }
        }
    }
    let mut quotiented = pattern.quotient(|id| uf.find_const(id));
    // Drop self-loop edges whose shortest witness materializes nothing at
    // all (pure ε, no nesting-test branches): they are trivially
    // satisfied. Test edges like `[f]` keep their branch obligations.
    let mut clean = GraphPattern::new();
    let mut remap: FxHashMap<PNodeId, PNodeId> = FxHashMap::default();
    for id in quotiented.node_ids() {
        remap.insert(id, clean.add_node(quotiented.node(id)));
    }
    let edges: Vec<_> = quotiented.edges().to_vec();
    for (s, r, d) in edges {
        if s == d {
            let w = witness::shortest(&r);
            if w.main_len() == 0 && w.edge_count() == 0 {
                continue;
            }
        }
        clean.add_edge(remap[&s], r, remap[&d]);
    }
    quotiented = clean;
    Ok(quotiented)
}

/// The canonical (shortest-witness) instantiation of `pattern`.
///
/// Every pattern node appears under its own name; every edge is realized
/// by its shortest witness (preferring non-empty main paths between
/// distinct endpoints).
pub fn instantiate_shortest(pattern: &GraphPattern) -> Result<Graph> {
    let pattern = resolve_epsilon_edges(pattern)?;
    // Witness paths may add a few nulls beyond the pattern's nodes; the
    // pattern sizes are the right ballpark for presizing either way.
    let mut g = Graph::with_capacity(pattern.node_count(), pattern.edge_count());
    let mut node_map: FxHashMap<PNodeId, NodeId> = FxHashMap::default();
    for id in pattern.node_ids() {
        node_map.insert(id, g.add_node(pattern.node(id)));
    }
    for (s, r, d) in pattern.edges() {
        let w = pick_witness(r, s == d)?;
        witness::materialize(&mut g, &w, node_map[s], node_map[d])?;
    }
    Ok(g)
}

fn pick_witness(r: &Nre, self_loop: bool) -> Result<Witness> {
    let shortest = witness::shortest(r);
    if shortest.main_len() == 0 && !self_loop {
        witness::shortest_nonempty(r).ok_or_else(|| {
            GdxError::Internal("ε-only edge survived resolve_epsilon_edges".to_owned())
        })
    } else {
        Ok(shortest)
    }
}

/// A bounded family of instantiations of `pattern`: the cartesian product
/// of per-edge witness families, capped at `cfg.max_graphs`, shortest
/// combination first. Every returned graph is in `Rep_Σ(pattern)`.
///
/// Materializing wrapper around [`InstantiationFamily`]; callers that can
/// stop early (the solver's first-witness search, the streaming solution
/// enumerator) should iterate the family lazily instead.
pub fn instantiation_family(
    pattern: &GraphPattern,
    cfg: InstantiationConfig,
) -> Result<Vec<Graph>> {
    InstantiationFamily::new(pattern, cfg)?.collect()
}

/// Lazy iterator over the bounded instantiation family of a pattern.
///
/// Construction resolves ε-edges, enumerates the per-edge witness families
/// (cheap: per-NRE, not per-graph), and materializes the *shared skeleton*
/// once: all pattern nodes plus the witness realizations of every edge
/// position the bounded odometer can never vary (given `max_graphs`, only
/// a prefix of edge positions ever cycles). Each [`Iterator::next`] then
/// emits a copy-on-write fork of that skeleton ([`Graph::fork`]) and
/// materializes only the varying prefix — per-candidate cost is
/// O(|witness deltas|), independent of pattern size, and every candidate
/// shares the skeleton's storage (and frozen CSR) through one `Arc`.
#[derive(Debug)]
pub struct InstantiationFamily {
    pattern: GraphPattern,
    /// The distinct witness lists: one per (edge NRE, self-loop or not).
    families: Vec<Vec<Witness>>,
    /// Per edge position, the index of its witness list in `families`.
    family_of: Vec<usize>,
    counters: Vec<usize>,
    produced: usize,
    cfg: InstantiationConfig,
    done: bool,
    /// Edge positions `[0, vary)` cycle through their witness lists; the
    /// suffix `[vary, E)` is pinned to witness 0 and lives in `base`.
    vary: usize,
    /// The shared skeleton: pattern nodes + witness-0 realization of every
    /// pinned edge position. Candidates are forks of this graph.
    base: Graph,
    node_map: FxHashMap<PNodeId, NodeId>,
}

impl InstantiationFamily {
    /// Prepares the family. Fails with [`GdxError::LimitExceeded`] when
    /// the witness bounds leave some edge without any realization.
    pub fn new(pattern: &GraphPattern, cfg: InstantiationConfig) -> Result<InstantiationFamily> {
        let pattern = resolve_epsilon_edges(pattern)?;
        // Witnesses are enumerated once per distinct (edge NRE, self-loop)
        // pair; an edge between distinct nodes keeps only those with a
        // non-empty path.
        let mut families: Vec<Vec<Witness>> = Vec::new();
        let mut family_of = Vec::with_capacity(pattern.edge_count());
        {
            let mut index: FxHashMap<(&Nre, bool), usize> = FxHashMap::default();
            for (s, r, d) in pattern.edges() {
                let self_loop = s == d;
                let family = *index.entry((r, self_loop)).or_insert_with(|| {
                    families.push(
                        witness::enumerate(r, cfg.witnesses)
                            .into_iter()
                            .filter(|w| w.main_len() > 0 || self_loop)
                            .collect(),
                    );
                    families.len() - 1
                });
                family_of.push(family);
            }
        }
        let per_edge = |ei: usize| &families[family_of[ei]];
        if (0..family_of.len()).any(|ei| per_edge(ei).is_empty()) {
            // An edge admits no usable witness within bounds (ε-only
            // between distinct nodes was already resolved, so this is a
            // bounds issue).
            return Err(GdxError::limit(
                "witness enumeration bounds left an edge without realizations",
            ));
        }
        let counters = vec![0usize; family_of.len()];
        // The odometer increments at most `max_graphs - 1` times, and
        // position `i` first moves only after Π_{j<i} |family_j| ticks —
        // so the smallest prefix whose product reaches the cap bounds
        // everything the enumeration can ever touch. Positions beyond it
        // stay at witness 0 forever and belong in the shared skeleton.
        let mut vary = family_of.len();
        let mut prefix_product = 1usize;
        for i in 0..family_of.len() {
            if prefix_product >= cfg.max_graphs {
                vary = i;
                break;
            }
            prefix_product = prefix_product.saturating_mul(per_edge(i).len());
        }
        let mut base = Graph::with_capacity(pattern.node_count(), pattern.edge_count());
        let mut node_map: FxHashMap<PNodeId, NodeId> = FxHashMap::default();
        for id in pattern.node_ids() {
            node_map.insert(id, base.add_node(pattern.node(id)));
        }
        for ei in vary..family_of.len() {
            let (s, _, d) = &pattern.edges()[ei];
            witness::materialize(&mut base, &per_edge(ei)[0], node_map[s], node_map[d])?;
        }
        Ok(InstantiationFamily {
            pattern,
            families,
            family_of,
            counters,
            produced: 0,
            cfg,
            done: false,
            vary,
            base,
            node_map,
        })
    }

    /// True once iteration stopped because the `max_graphs` cap tripped —
    /// the family is then a strict prefix of the full cartesian product,
    /// and exactness arguments based on "all candidates examined" no
    /// longer hold.
    pub fn truncated(&self) -> bool {
        self.done && self.produced >= self.cfg.max_graphs
    }

    /// The witness list of edge position `ei`.
    fn witnesses(&self, ei: usize) -> &[Witness] {
        &self.families[self.family_of[ei]]
    }
}

impl Iterator for InstantiationFamily {
    type Item = Result<Graph>;

    fn next(&mut self) -> Option<Result<Graph>> {
        if self.done {
            return None;
        }
        // O(1) fork of the shared skeleton; only the varying witness
        // prefix is materialized into the candidate's private delta.
        let mut g = self.base.fork();
        for ei in 0..self.vary {
            let (s, _, d) = &self.pattern.edges()[ei];
            let w = &self.witnesses(ei)[self.counters[ei]];
            if let Err(e) = witness::materialize(&mut g, w, self.node_map[s], self.node_map[d]) {
                self.done = true;
                return Some(Err(e));
            }
        }
        self.produced += 1;
        if self.produced >= self.cfg.max_graphs {
            self.done = true;
            return Some(Ok(g));
        }
        // Odometer increment (never reaches position `vary`, by
        // construction of the prefix bound).
        let mut i = 0;
        loop {
            if i == self.counters.len() {
                self.done = true;
                break;
            }
            self.counters[i] += 1;
            if self.counters[i] < self.witnesses(i).len() {
                break;
            }
            self.counters[i] = 0;
            i += 1;
        }
        Some(Ok(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::represents;

    fn fig3() -> GraphPattern {
        GraphPattern::parse(
            "(c1, f.f*, _N1); (_N1, f.f*, c2); (_N1, h, hy);
             (c1, f.f*, _N2); (_N2, f.f*, c2); (_N2, h, hx);
             (c3, f.f*, _N3); (_N3, f.f*, c2); (_N3, h, hx);",
        )
        .unwrap()
    }

    #[test]
    fn shortest_instantiation_is_represented() {
        let p = fig3();
        let g = instantiate_shortest(&p).unwrap();
        assert!(represents(&p, &g), "π → canonical(π) must hold");
        // Shortest witnesses: every f.f* edge becomes one f edge.
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.node_count(), 8);
    }

    #[test]
    fn family_members_are_represented() {
        let p = GraphPattern::parse("(a, f.f*, b); (b, h+g, c);").unwrap();
        let family = instantiation_family(&p, InstantiationConfig::default()).unwrap();
        assert!(family.len() >= 4, "star unrollings × union branches");
        for g in &family {
            assert!(represents(&p, g));
        }
    }

    #[test]
    fn family_varies_witness_words() {
        let p = GraphPattern::parse("(a, f.f*, b);").unwrap();
        let family = instantiation_family(&p, InstantiationConfig::default()).unwrap();
        let sizes: std::collections::BTreeSet<usize> =
            family.iter().map(Graph::edge_count).collect();
        assert!(sizes.contains(&1) && sizes.contains(&2), "{sizes:?}");
    }

    #[test]
    fn epsilon_edge_merges_null() {
        let p = GraphPattern::parse("(a, eps, _N); (_N, f, b);").unwrap();
        let g = instantiate_shortest(&p).unwrap();
        // N merged into a: single edge a -f-> b.
        assert_eq!(g.edge_count(), 1);
        assert!(g.node_id(gdx_graph::Node::null("N")).is_none());
        assert!(represents(&p, &g));
    }

    #[test]
    fn epsilon_between_constants_fails() {
        let p = GraphPattern::parse("(a, eps, b);").unwrap();
        assert!(instantiate_shortest(&p).is_err());
        let p2 = GraphPattern::parse("(a, eps+f, b);").unwrap();
        // Non-ε realization exists: f.
        let g = instantiate_shortest(&p2).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn test_edges_materialize_branches() {
        let p = GraphPattern::parse("(a, f.[h], b);").unwrap();
        let g = instantiate_shortest(&p).unwrap();
        // a -f-> b plus b -h-> fresh.
        assert_eq!(g.edge_count(), 2);
        assert!(represents(&p, &g));
    }

    #[test]
    fn repeated_nres_share_one_witness_enumeration() {
        // Repeated edge NREs, one of them on a self-loop: every edge gets
        // exactly the witness list a per-edge enumeration would give it.
        let p = GraphPattern::parse(
            "(a, f.f*, _N1); (_N1, f.f*, b); (_N1, h+g, c); (b, f.f*, b);
             (c, h+g, _N2); (_N2, f.f*, a); (a, f*, a); (a, f*, b);",
        )
        .unwrap();
        let cfg = InstantiationConfig::default();
        let family = InstantiationFamily::new(&p, cfg).unwrap();
        // `(a, f*, a)` is a pure-ε self-loop and is dropped; the keys left
        // are f.f* (twice: on and off the loop), h+g and f*.
        assert_eq!(family.families.len(), 4, "(NRE, self-loop) keys");
        for (ei, (s, r, d)) in family.pattern.edges().iter().enumerate() {
            let per_edge: Vec<Witness> = witness::enumerate(r, cfg.witnesses)
                .into_iter()
                .filter(|w| w.main_len() > 0 || s == d)
                .collect();
            assert_eq!(family.witnesses(ei), per_edge.as_slice(), "edge {ei}: {r}");
        }
    }

    #[test]
    fn family_respects_cap() {
        let p = GraphPattern::parse("(a, (f+g)*.(x+y), b);").unwrap();
        let family = instantiation_family(
            &p,
            InstantiationConfig {
                max_graphs: 5,
                ..InstantiationConfig::default()
            },
        )
        .unwrap();
        assert_eq!(family.len(), 5);
    }

    #[test]
    fn pure_test_edge_keeps_branch_obligation() {
        // Regression: (k0, [f], _N) has an ε-only main path, so N merges
        // into k0 — but the nesting test still demands an outgoing
        // f-witness at k0. Dropping the self-loop entirely produced
        // instantiations outside Rep(π).
        let p = GraphPattern::parse("(k0, [f], _N);").unwrap();
        let g = instantiate_shortest(&p).unwrap();
        assert_eq!(g.edge_count(), 1, "the f-branch must materialize");
        assert!(represents(&p, &g));
        // A pure-ε self-loop, by contrast, is dropped.
        let p2 = GraphPattern::parse("(k0, eps, _N);").unwrap();
        let g2 = instantiate_shortest(&p2).unwrap();
        assert_eq!(g2.edge_count(), 0);
        assert!(represents(&p2, &g2));
    }

    #[test]
    fn example_5_2_pattern_instantiation() {
        // π = (c1, a.(b*+c*).a, c2): shortest realization is a·a through one
        // fresh null.
        let p = GraphPattern::parse("(c1, a.(b0*+c0*).a, c2);").unwrap();
        let g = instantiate_shortest(&p).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 3);
        assert!(represents(&p, &g));
    }
}
