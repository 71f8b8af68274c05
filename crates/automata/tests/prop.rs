//! Property-based tests for the automata substrate over random test-free
//! NREs: inclusion laws, witness-word membership, minimization
//! invariance, and agreement of word acceptance with graph evaluation.

use gdx_automata::{included, intersects, letter, Dfa, Letter};
use gdx_graph::{Graph, NodeId};
use gdx_nre::ast::Nre;
use gdx_nre::witness::{self, EnumConfig, PathStep};
use proptest::prelude::*;

/// Random *test-free* NREs over {a, b}.
fn arb_nre() -> impl Strategy<Value = Nre> {
    let leaf = prop_oneof![
        Just(Nre::Epsilon),
        prop_oneof![Just("a"), Just("b")].prop_map(Nre::label),
        prop_oneof![Just("a"), Just("b")].prop_map(Nre::inverse),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Nre::Union(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Nre::Concat(Box::new(x), Box::new(y))),
            inner.prop_map(|x| Nre::Star(Box::new(x))),
        ]
    })
}

fn word_of(w: &witness::Witness) -> Vec<gdx_automata::Letter> {
    w.0.iter()
        .map(|s| match s {
            PathStep::Fwd(a) => gdx_automata::Letter::fwd(*a),
            PathStep::Bwd(a) => gdx_automata::Letter::bwd(*a),
            PathStep::Branch(_) => unreachable!("test-free"),
        })
        .collect()
}

/// A path graph `n₀ … n_k` spelling `word` from `n₀` to `n_k`: letter
/// `a` is the edge `(nᵢ, a, nᵢ₊₁)`, letter `a⁻` the edge `(nᵢ₊₁, a, nᵢ)`.
fn path_spelling(word: &[Letter]) -> (Graph, NodeId, NodeId) {
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..=word.len())
        .map(|i| g.add_const(&format!("n{i}")))
        .collect();
    for (i, l) in word.iter().enumerate() {
        let (src, dst) = if l.inverse {
            (nodes[i + 1], nodes[i])
        } else {
            (nodes[i], nodes[i + 1])
        };
        g.add_edge(src, l.symbol, dst);
    }
    (g, nodes[0], nodes[word.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A word the DFA accepts labels a walk of the path graph spelling it,
    /// so its endpoints are related by `⟦r⟧`. Without inverse letters the
    /// chain is the only walk from `n₀` to `n_k`, so the converse holds
    /// too (a two-way walk can spell other words).
    #[test]
    fn word_acceptance_agrees_with_path_evaluation(
        r in arb_nre(),
        picks in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let ab = letter::joint_alphabet(&[&r]);
        let word: Vec<Letter> = if ab.is_empty() {
            Vec::new()
        } else {
            picks.iter().map(|&i| ab[i % ab.len()]).collect()
        };
        let dfa = Dfa::from_nre(&r, &ab).unwrap();
        let (g, first, last) = path_spelling(&word);
        let related = gdx_nre::eval::eval(&g, &r).contains(first, last);
        let accepted = dfa.accepts(&word);
        if accepted {
            prop_assert!(related, "{} accepts {:?}", r, word);
        }
        if ab.iter().all(|l| !l.inverse) {
            prop_assert_eq!(accepted, related, "{} on {:?}", r, word);
        }
    }

    /// Inclusion is reflexive.
    #[test]
    fn inclusion_reflexive(r in arb_nre()) {
        prop_assert!(included(&r, &r).unwrap());
    }

    /// r ⊆ r + s and s ⊆ r + s.
    #[test]
    fn union_upper_bounds(r in arb_nre(), s in arb_nre()) {
        let u = Nre::Union(Box::new(r.clone()), Box::new(s.clone()));
        prop_assert!(included(&r, &u).unwrap());
        prop_assert!(included(&s, &u).unwrap());
    }

    /// r ⊆ r* and r·r ⊆ r*.
    #[test]
    fn star_absorbs_powers(r in arb_nre()) {
        let star = Nre::Star(Box::new(r.clone()));
        prop_assert!(included(&r, &star).unwrap());
        let rr = Nre::Concat(Box::new(r.clone()), Box::new(r));
        prop_assert!(included(&rr, &star).unwrap());
    }

    /// Inclusion is transitive on sampled triples.
    #[test]
    fn inclusion_transitive(r in arb_nre(), s in arb_nre(), t in arb_nre()) {
        if included(&r, &s).unwrap() && included(&s, &t).unwrap() {
            prop_assert!(included(&r, &t).unwrap());
        }
    }

    /// Every enumerated witness word of a test-free NRE is accepted by its
    /// DFA; conversely the DFA's shortest word has a matching witness
    /// length.
    #[test]
    fn witness_words_accepted(r in arb_nre()) {
        let ab = letter::joint_alphabet(&[&r]);
        let dfa = Dfa::from_nre(&r, &ab).unwrap();
        let cfg = EnumConfig { star_unroll: 2, max_len: 5, max_witnesses: 8 };
        for w in witness::enumerate(&r, cfg) {
            prop_assert!(dfa.accepts(&word_of(&w)), "{:?} of {}", w, r);
        }
        // NREs denote non-empty witness languages.
        let shortest = dfa.shortest_accepted().expect("non-empty language");
        prop_assert_eq!(shortest.len(), witness::shortest(&r).main_len());
    }

    /// Minimization preserves the language (checked on witness words and
    /// the complement's shortest word).
    #[test]
    fn minimize_preserves_language(r in arb_nre()) {
        let ab = letter::joint_alphabet(&[&r]);
        let dfa = Dfa::from_nre(&r, &ab).unwrap();
        let min = dfa.minimize();
        prop_assert!(min.state_count() <= dfa.state_count());
        let cfg = EnumConfig { star_unroll: 2, max_len: 4, max_witnesses: 8 };
        for w in witness::enumerate(&r, cfg) {
            let word = word_of(&w);
            prop_assert_eq!(dfa.accepts(&word), min.accepts(&word));
        }
        if let Some(rejected) = dfa.complement().shortest_accepted() {
            prop_assert!(!min.accepts(&rejected));
        }
    }

    /// Languages always intersect themselves; ε-freeness symmetry.
    #[test]
    fn self_intersection(r in arb_nre()) {
        prop_assert!(intersects(&r, &r).unwrap());
    }

    /// Inclusion antisymmetry induces equivalence: if r ⊆ s and s ⊆ r then
    /// their minimized DFAs have the same size.
    #[test]
    fn equivalent_minimal_sizes(r in arb_nre(), s in arb_nre()) {
        if included(&r, &s).unwrap() && included(&s, &r).unwrap() {
            let ab = letter::joint_alphabet(&[&r, &s]);
            let a = Dfa::from_nre(&r, &ab).unwrap().minimize();
            let b = Dfa::from_nre(&s, &ab).unwrap().minimize();
            prop_assert_eq!(a.state_count(), b.state_count());
        }
    }
}
