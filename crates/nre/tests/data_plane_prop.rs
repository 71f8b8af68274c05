//! Property tests for the PR-5 cache-conscious data plane: the flat
//! (arena/CSR/bitset) read paths must be observationally identical to the
//! hash-map structures they replaced.
//!
//! * [`FrozenGraph`] successors/predecessors ≡ the mutable graph's hash
//!   adjacency, up to the documented sort; membership probes agree.
//! * Flat `BinRel` (arena adjacency + packed pair set) ≡ a reference
//!   hash-map-of-`Vec`s implementation — including per-key *order*, which
//!   join row order (and so chase firing order) observes.
//! * Bitset-visited BFS ≡ hash-set-visited BFS, for the star closure
//!   (identical insertion logs) and for the demand evaluator's seeded
//!   probes (nesting tests — guard transitions — included via the NRE
//!   generator).

use gdx_common::{FxHashMap, FxHashSet};
use gdx_graph::{Graph, NodeId};
use gdx_nre::ast::Nre;
use gdx_nre::demand::DemandEvaluator;
use gdx_nre::eval::eval;
use gdx_nre::BinRel;
use proptest::prelude::*;

/// Strategy: random NREs over {a, b, c}, nesting tests included.
fn arb_nre() -> impl Strategy<Value = Nre> {
    let leaf = prop_oneof![
        Just(Nre::Epsilon),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Nre::label),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Nre::inverse),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Nre::Union(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Nre::Concat(Box::new(x), Box::new(y))),
            inner.clone().prop_map(|x| Nre::Star(Box::new(x))),
            inner.prop_map(|x| Nre::Test(Box::new(x))),
        ]
    })
}

/// Strategy: random small graphs over the same alphabet (8 nodes).
fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0u32..8, 0u8..3, 0u32..8), 0..20).prop_map(|edges| {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..8).map(|i| g.add_const(&format!("v{i}"))).collect();
        for (s, l, d) in edges {
            let label = ["a", "b", "c"][l as usize];
            g.add_edge_labelled(nodes[s as usize], label, nodes[d as usize]);
        }
        g
    })
}

/// The pre-PR-5 `BinRel` shape, reimplemented as the reference: a packed
/// pair set plus hash-map-of-`Vec` adjacency in insertion order.
#[derive(Default)]
struct HashRel {
    pairs: FxHashSet<(NodeId, NodeId)>,
    log: Vec<(NodeId, NodeId)>,
    fwd: FxHashMap<NodeId, Vec<NodeId>>,
    rev: FxHashMap<NodeId, Vec<NodeId>>,
}

impl HashRel {
    fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.pairs.insert((u, v)) {
            self.log.push((u, v));
            self.fwd.entry(u).or_default().push(v);
            self.rev.entry(v).or_default().push(u);
            true
        } else {
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CSR successors/predecessors are the hash adjacency sorted; edge
    /// membership (galloping) agrees with the hash edge set.
    #[test]
    fn frozen_graph_matches_hash_adjacency(g in arb_graph()) {
        let fz = g.freeze();
        prop_assert_eq!(fz.node_count(), g.node_count());
        for u in g.node_ids() {
            for label in g.labels() {
                let mut expect = g.successors(u, label).to_vec();
                expect.sort_unstable();
                prop_assert_eq!(fz.successors(u, label), &expect[..], "out {} {}", u, label);
                let mut expect = g.predecessors(u, label).to_vec();
                expect.sort_unstable();
                prop_assert_eq!(fz.predecessors(u, label), &expect[..], "in {} {}", u, label);
                for v in g.node_ids() {
                    prop_assert_eq!(fz.has_edge(u, label, v), g.has_edge(u, label, v));
                }
            }
        }
    }

    /// Flat `BinRel` ≡ the hash-map reference under an arbitrary insert
    /// sequence (duplicates included): same insert verdicts, same log,
    /// same per-key image/preimage *in the same order*, same membership.
    #[test]
    fn flat_binrel_matches_hash_reference(
        pairs in proptest::collection::vec((0u32..48, 0u32..48), 0..120)
    ) {
        let mut flat = BinRel::new();
        let mut reference = HashRel::default();
        for &(u, v) in &pairs {
            prop_assert_eq!(flat.insert(u, v), reference.insert(u, v), "insert ({}, {})", u, v);
        }
        prop_assert_eq!(flat.len(), reference.pairs.len());
        prop_assert_eq!(flat.iter().collect::<Vec<_>>(), reference.log.clone());
        for key in 0u32..48 {
            let empty: Vec<NodeId> = Vec::new();
            prop_assert_eq!(
                flat.image(key),
                &reference.fwd.get(&key).unwrap_or(&empty)[..],
                "image {}", key
            );
            prop_assert_eq!(
                flat.preimage(key),
                &reference.rev.get(&key).unwrap_or(&empty)[..],
                "preimage {}", key
            );
        }
        for &(u, v) in &pairs {
            prop_assert!(flat.contains(u, v));
            prop_assert_eq!(flat.contains(v, u), reference.pairs.contains(&(v, u)));
        }
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut domain: Vec<NodeId> = reference.fwd.keys().copied().collect();
        domain.sort_unstable();
        prop_assert_eq!(flat.domain().collect::<Vec<_>>(), domain, "domain is sorted keys");
    }

    /// The bitset-visited star closure produces the **identical insertion
    /// log** to a hash-set-visited BFS of the same traversal — not just
    /// the same pair set (delta consumers read the log positionally).
    #[test]
    fn bitset_star_log_identical_to_hash_bfs(g in arb_graph()) {
        let label = gdx_common::Symbol::new("a");
        let mut inner = BinRel::new();
        for (u, v) in g.label_pairs(label) {
            inner.insert(u, v);
        }
        // Reference: per-source BFS with a hash visited set.
        let mut expect = BinRel::new();
        for src in g.node_ids() {
            let mut frontier = vec![src];
            let mut seen: FxHashSet<NodeId> = FxHashSet::default();
            seen.insert(src);
            expect.insert(src, src);
            while let Some(u) = frontier.pop() {
                for &v in inner.image(u) {
                    if seen.insert(v) {
                        expect.insert(src, v);
                        frontier.push(v);
                    }
                }
            }
        }
        let got = inner.star(&g);
        prop_assert_eq!(got.iter().collect::<Vec<_>>(), expect.iter().collect::<Vec<_>>());
    }

    /// Seeded demand probes (bitset product-BFS over the frozen CSR)
    /// agree with the materializing evaluator on random NREs — including
    /// expressions with nesting tests, whose guards recurse through
    /// nested bitset evaluators.
    #[test]
    fn bitset_demand_probes_match_naive(r in arb_nre(), g in arb_graph()) {
        let full = eval(&g, &r);
        let Ok(mut ev) = DemandEvaluator::try_new(&r) else {
            // Outside the compiled fragment (cannot happen at this size,
            // but the fallback is not what this test pins).
            return Ok(());
        };
        for u in g.node_ids() {
            let image: FxHashSet<NodeId> = ev.image(&g, u).iter().copied().collect();
            let expect: FxHashSet<NodeId> =
                full.iter().filter(|&(s, _)| s == u).map(|(_, v)| v).collect();
            prop_assert_eq!(&image, &expect, "image {}", u);
            let pre: FxHashSet<NodeId> = ev.preimage(&g, u).iter().copied().collect();
            let expect: FxHashSet<NodeId> =
                full.iter().filter(|&(_, d)| d == u).map(|(s, _)| s).collect();
            prop_assert_eq!(&pre, &expect, "preimage {}", u);
        }
        // Membership probes through a fresh evaluator (no warm memos).
        let mut cold = DemandEvaluator::try_new(&r).expect("compiled above");
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(cold.contains(&g, u, v), full.contains(u, v), "({}, {})", u, v);
            }
        }
    }
}
