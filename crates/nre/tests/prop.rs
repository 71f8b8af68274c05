//! Property-based tests for the NRE substrate: parser/printer agreement,
//! full-relation vs single-source evaluation, reversal, and witness
//! soundness — all over *randomly generated* expressions and graphs.

use gdx_graph::{Graph, NodeId};
use gdx_nre::ast::Nre;
use gdx_nre::dense::DenseRel;
use gdx_nre::eval::{eval, eval_from};
use gdx_nre::parse::parse_nre;
use gdx_nre::witness::{self, EnumConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: random NREs over the alphabet {a, b, c}, depth-bounded.
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

/// Strategy: random NREs whose labels stress the printer's quoting —
/// epsilon collisions, non-identifier characters, the empty string.
fn arb_nre_odd_labels() -> impl Strategy<Value = Nre> {
    let label = prop_oneof![
        Just("a"),
        Just("eps"),
        Just("ε"),
        Just("a b"),
        Just("x-y"),
        Just("x'1"),
        Just(""),
        Just("+."),
    ];
    let leaf = prop_oneof![
        Just(Nre::Epsilon),
        label.clone().prop_map(Nre::label),
        label.prop_map(Nre::inverse),
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

/// Strategy: random small graphs over the same alphabet.
fn arb_graph() -> impl Strategy<Value = Graph> {
    // Up to 6 nodes, up to 12 edges, labels a/b/c.
    proptest::collection::vec((0u32..6, 0u8..3, 0u32..6), 0..12).prop_map(|edges| {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..6).map(|i| g.add_const(&format!("v{i}"))).collect();
        for (s, l, d) in edges {
            let label = ["a", "b", "c"][l as usize];
            g.add_edge_labelled(nodes[s as usize], label, nodes[d as usize]);
        }
        g
    })
}

/// Strategy: random graphs of up to 140 nodes, so relation rows span
/// several 64-bit words, with some nodes on no edge.
fn arb_wide_graph() -> impl Strategy<Value = Graph> {
    (
        1u32..140,
        proptest::collection::vec((0u32..140, 0u8..3, 0u32..140), 0..200),
    )
        .prop_map(|(n, edges)| {
            let mut g = Graph::new();
            let nodes: Vec<NodeId> = (0..n).map(|i| g.add_const(&format!("w{i}"))).collect();
            for (s, l, d) in edges {
                let label = ["a", "b", "c"][l as usize];
                g.add_edge_labelled(nodes[(s % n) as usize], label, nodes[(d % n) as usize]);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dense kernel and the materializing evaluator give the same
    /// pair set, on small graphs and on graphs whose rows span several
    /// words, over NREs with tests, inverses, ε, unions and nested stars.
    #[test]
    fn dense_eval_agrees_with_eval_as_sets(
        r in arb_nre(),
        g in arb_graph(),
        wide in arb_wide_graph(),
    ) {
        for graph in [&g, &wide] {
            let dense: BTreeSet<(NodeId, NodeId)> = DenseRel::eval(graph, &r).pairs().collect();
            let sparse: BTreeSet<(NodeId, NodeId)> = eval(graph, &r).iter().collect();
            prop_assert_eq!(dense, sparse, "{} on {} nodes", r, graph.node_count());
        }
    }

    /// Printing then reparsing yields the *structurally identical* tree —
    /// not merely a display fixpoint. This pins the right-associated
    /// union/concat parenthesization: `a+(b+c)` must not silently
    /// re-associate to `(a+b)+c` on the way through the printer.
    #[test]
    fn display_parse_roundtrip_is_identity(r in arb_nre()) {
        let printed = r.to_string();
        let reparsed = parse_nre(&printed).expect("printer output parses");
        prop_assert_eq!(&reparsed, &r, "printed as {}", printed);
    }

    /// The same identity holds when labels need the quoted spelling:
    /// reserved epsilon spellings (`eps`, `ε`), spaces, dashes, empty —
    /// anything the lexer cannot re-read bare. (Labels containing `"` or
    /// a newline have no text form at all and are excluded by design.)
    #[test]
    fn display_parse_roundtrip_with_adversarial_labels(r in arb_nre_odd_labels()) {
        let printed = r.to_string();
        let reparsed = parse_nre(&printed)
            .unwrap_or_else(|e| panic!("printer output `{printed}` fails to parse: {e}"));
        prop_assert_eq!(&reparsed, &r, "printed as {}", printed);
    }

    /// The single-source evaluator agrees with the full-relation evaluator
    /// on every source node.
    #[test]
    fn eval_from_agrees_with_eval(r in arb_nre(), g in arb_graph()) {
        let full = eval(&g, &r);
        for u in g.node_ids() {
            let from: std::collections::BTreeSet<NodeId> =
                eval_from(&g, &r, u).into_iter().collect();
            let expected: std::collections::BTreeSet<NodeId> = full
                .iter()
                .filter(|&(s, _)| s == u)
                .map(|(_, v)| v)
                .collect();
            prop_assert_eq!(&from, &expected, "src {}", u);
        }
    }

    /// ⟦rev(r)⟧ is the inverse relation of ⟦r⟧.
    #[test]
    fn reversal_inverts_semantics(r in arb_nre(), g in arb_graph()) {
        let fwd: std::collections::BTreeSet<(NodeId, NodeId)> =
            eval(&g, &r).iter().collect();
        let bwd: std::collections::BTreeSet<(NodeId, NodeId)> =
            eval(&g, &r.reversed()).iter().map(|(u, v)| (v, u)).collect();
        prop_assert_eq!(fwd, bwd);
    }

    /// Every enumerated witness, once materialized into a fresh graph,
    /// satisfies the expression between its endpoints.
    #[test]
    fn witnesses_are_sound(r in arb_nre()) {
        let cfg = EnumConfig { star_unroll: 2, max_len: 4, max_witnesses: 6 };
        for w in witness::enumerate(&r, cfg) {
            let mut g = Graph::new();
            let s = g.add_const("src");
            let d = if w.main_len() == 0 { s } else { g.add_const("dst") };
            witness::materialize(&mut g, &w, s, d).expect("materialize");
            prop_assert!(
                gdx_nre::eval::holds(&g, &r, s, d),
                "witness {:?} of {} does not satisfy it", w, r
            );
        }
    }

    /// The shortest witness is minimal within the enumerated family.
    #[test]
    fn shortest_witness_is_minimal(r in arb_nre()) {
        let s = witness::shortest(&r);
        let cfg = EnumConfig { star_unroll: 2, max_len: 6, max_witnesses: 32 };
        for w in witness::enumerate(&r, cfg) {
            prop_assert!(s.main_len() <= w.main_len());
        }
    }

    /// Semantic monotonicity: adding edges never removes pairs (NREs are
    /// positive).
    #[test]
    fn eval_is_monotone(r in arb_nre(), g in arb_graph()) {
        let before = eval(&g, &r);
        let mut bigger = g.clone();
        // Add one arbitrary extra edge between existing nodes.
        if bigger.node_count() >= 2 {
            bigger.add_edge_labelled(0, "a", 1);
        }
        let after = eval(&bigger, &r);
        for (u, v) in before.iter() {
            prop_assert!(after.contains(u, v));
        }
    }

    /// Simplification preserves semantics on every graph and never grows
    /// the expression.
    #[test]
    fn simplify_preserves_semantics(r in arb_nre(), g in arb_graph()) {
        let s = gdx_nre::simplify::simplify(&r);
        prop_assert!(s.size() <= r.size());
        let before: std::collections::BTreeSet<(NodeId, NodeId)> =
            eval(&g, &r).iter().collect();
        let after: std::collections::BTreeSet<(NodeId, NodeId)> =
            eval(&g, &s).iter().collect();
        prop_assert_eq!(before, after, "{} vs {}", r, s);
    }

    /// Simplification is idempotent.
    #[test]
    fn simplify_idempotent(r in arb_nre()) {
        let once = gdx_nre::simplify::simplify(&r);
        let twice = gdx_nre::simplify::simplify(&once);
        prop_assert_eq!(once, twice);
    }

    /// Union and concat sizes behave: |⟦x+y⟧| ≥ max and ⟦x⟧;⟦y⟧ ⊆ ⟦x·y⟧.
    #[test]
    fn union_contains_operands(x in arb_nre(), y in arb_nre(), g in arb_graph()) {
        let u = eval(&g, &Nre::Union(Box::new(x.clone()), Box::new(y.clone())));
        for (a, b) in eval(&g, &x).iter() {
            prop_assert!(u.contains(a, b));
        }
        for (a, b) in eval(&g, &y).iter() {
            prop_assert!(u.contains(a, b));
        }
    }

    /// Product-BFS demand evaluation from a seed set agrees with the
    /// naive evaluator restricted to the seeds — sources and targets.
    /// `arb_nre` generates nesting tests, so this also exercises the
    /// recursive guard boundary of the guarded automaton.
    #[test]
    fn demand_eval_agrees_with_naive_on_seeds(
        r in arb_nre(),
        g in arb_graph(),
        seed_mask in 0u64..64,
    ) {
        use gdx_nre::demand::{eval_from, eval_into};
        let seeds: Vec<NodeId> = g
            .node_ids()
            .filter(|&v| seed_mask & (1 << (v % 64)) != 0)
            .collect();
        let full = eval(&g, &r);
        let from = eval_from(&g, &r, &seeds);
        let expected_from: std::collections::BTreeSet<(NodeId, NodeId)> = full
            .iter()
            .filter(|(u, _)| seeds.contains(u))
            .collect();
        let got_from: std::collections::BTreeSet<(NodeId, NodeId)> = from.iter().collect();
        prop_assert_eq!(&got_from, &expected_from, "eval_from diverged for {}", r);

        let into = eval_into(&g, &r, &seeds);
        let expected_into: std::collections::BTreeSet<(NodeId, NodeId)> = full
            .iter()
            .filter(|(_, v)| seeds.contains(v))
            .collect();
        let got_into: std::collections::BTreeSet<(NodeId, NodeId)> = into.iter().collect();
        prop_assert_eq!(&got_into, &expected_into, "eval_into diverged for {}", r);
    }

    /// A memoizing [`DemandEvaluator`] answers image/preimage/contains
    /// queries consistently with the naive relation, across repeated and
    /// interleaved probes.
    #[test]
    fn demand_evaluator_probes_agree(r in arb_nre(), g in arb_graph()) {
        use gdx_nre::demand::DemandEvaluator;
        let Ok(mut ev) = DemandEvaluator::try_new(&r) else {
            return Ok(()); // outside the supported fragment: covered above
        };
        let full = eval(&g, &r);
        for u in g.node_ids() {
            let img: std::collections::BTreeSet<NodeId> =
                ev.image(&g, u).iter().copied().collect();
            let expect: std::collections::BTreeSet<NodeId> = full
                .iter()
                .filter(|&(s, _)| s == u)
                .map(|(_, v)| v)
                .collect();
            prop_assert_eq!(&img, &expect, "image({}) for {}", u, r);
            let pre: std::collections::BTreeSet<NodeId> =
                ev.preimage(&g, u).iter().copied().collect();
            let expect_pre: std::collections::BTreeSet<NodeId> = full
                .iter()
                .filter(|&(_, d)| d == u)
                .map(|(s, _)| s)
                .collect();
            prop_assert_eq!(&pre, &expect_pre, "preimage({}) for {}", u, r);
        }
        for (u, v) in full.iter() {
            prop_assert!(ev.contains(&g, u, v));
        }
    }

    /// The incremental evaluator agrees with the naive one under every
    /// random edge-insertion schedule, and its deltas are disjoint.
    #[test]
    fn incremental_eval_agrees_with_naive(
        r in arb_nre(),
        edges in proptest::collection::vec((0u32..6, 0u8..3, 0u32..6), 1..15),
    ) {
        use gdx_nre::incremental::{eval_delta, EvalMark, IncrementalCache};
        let mut g = Graph::new();
        let nodes: Vec<NodeId> =
            (0..6).map(|i| g.add_const(&format!("v{i}"))).collect();
        let mut cache = IncrementalCache::new();
        let mut mark = EvalMark::ZERO;
        let mut acc: std::collections::BTreeSet<(NodeId, NodeId)> =
            Default::default();
        for (s, l, d) in edges {
            let label = ["a", "b", "c"][l as usize];
            g.add_edge_labelled(nodes[s as usize], label, nodes[d as usize]);
            let (delta, next) = eval_delta(&g, &r, mark, &mut cache);
            for &p in delta {
                prop_assert!(acc.insert(p), "duplicate delta pair {:?} for {}", p, r);
            }
            mark = next;
            let naive: std::collections::BTreeSet<(NodeId, NodeId)> =
                eval(&g, &r).iter().collect();
            prop_assert_eq!(&acc, &naive, "incremental diverged for {}", r);
        }
    }
}
