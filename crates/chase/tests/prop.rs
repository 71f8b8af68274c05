//! Property-based tests for the chase engines on randomly generated
//! instances and patterns.

use gdx_chase::egd_pattern::{certain_matches, EntailmentIndex};
use gdx_chase::{chase_egds_on_pattern, chase_st, EgdChaseConfig, EgdChaseOutcome, StChaseVariant};
use gdx_common::Symbol;
use gdx_graph::Node;
use gdx_mapping::{Egd, Setting};
use gdx_nre::parse::parse_nre;
use gdx_nre::Nre;
use gdx_pattern::{instantiate_shortest, GraphPattern, PNodeId};
use gdx_query::Cnre;
use gdx_relational::Instance;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Random Flight/Hotel instances for the paper's Example 2.2 setting.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0u8..6, 0u8..4, 0u8..4), 0..8),
        proptest::collection::vec((0u8..6, 0u8..3), 0..8),
    )
        .prop_map(|(flights, hotels)| {
            let setting = Setting::example_2_2_egd();
            let mut inst = Instance::new(setting.source.clone());
            for (id, src, dst) in flights {
                inst.insert_strs(
                    "Flight",
                    &[&format!("fl{id}"), &format!("c{src}"), &format!("c{dst}")],
                )
                .unwrap();
            }
            for (id, h) in hotels {
                inst.insert_strs("Hotel", &[&format!("fl{id}"), &format!("h{h}")])
                    .unwrap();
            }
            inst
        })
}

/// Random patterns over single-symbol edges f/h with constants and nulls.
fn arb_pattern() -> impl Strategy<Value = GraphPattern> {
    proptest::collection::vec((0u32..5, 0u8..2, 0u32..5), 1..8).prop_map(|edges| {
        let mut p = GraphPattern::new();
        let nodes: Vec<_> = (0..5)
            .map(|i| {
                if i < 2 {
                    p.add_node(Node::cst(&format!("k{i}")))
                } else {
                    p.add_node(Node::null(&format!("n{i}")))
                }
            })
            .collect();
        for (s, l, d) in edges {
            let label = ["f", "h"][l as usize];
            p.add_edge(
                nodes[s as usize],
                gdx_nre::Nre::label(label),
                nodes[d as usize],
            );
        }
        p
    })
}

fn hotel_egd() -> Egd {
    Egd {
        body: Cnre::parse("(x1, h, x3), (x2, h, x3)").unwrap(),
        lhs: Symbol::new("x1"),
        rhs: Symbol::new("x2"),
    }
}

/// The fixed test-free targets of the entailment oracle.
const ENTAILMENT_TARGETS: [&str; 5] = ["f", "f.f*", "f.f*.h", "f-.(f-)*", "h+f"];

/// Brute-force entailment: every pattern path of at most `k` edges (each
/// read forward, or reversed with the reversed NRE) whose concatenated
/// language is included in `target`, by one automata inclusion check per
/// distinct step sequence.
fn brute_force_entailment(
    p: &GraphPattern,
    target: &Nre,
    k: usize,
) -> BTreeSet<(PNodeId, PNodeId)> {
    let mut steps: Vec<(PNodeId, Nre, PNodeId)> = Vec::new();
    for (s, r, d) in p.edges() {
        steps.push((*s, r.clone(), *d));
        steps.push((*d, r.reversed(), *s));
    }
    let mut verdicts: HashMap<Vec<Nre>, bool> = HashMap::new();
    let mut included = |seq: &[Nre]| {
        *verdicts.entry(seq.to_vec()).or_insert_with(|| {
            let word = Nre::concat_all(seq.iter().cloned());
            gdx_automata::included(&word, target).unwrap()
        })
    };
    let mut out = BTreeSet::new();
    let mut paths: Vec<(PNodeId, Vec<Nre>, PNodeId)> =
        p.node_ids().map(|u| (u, Vec::new(), u)).collect();
    for _ in 0..=k {
        let mut longer = Vec::new();
        for (u, seq, v) in &paths {
            if included(seq) {
                out.insert((*u, *v));
            }
            for (s, r, d) in &steps {
                if s == v {
                    let mut seq2 = seq.clone();
                    seq2.push(r.clone());
                    longer.push((*u, seq2, *d));
                }
            }
        }
        paths = longer;
    }
    out
}

fn entailment(
    p: &GraphPattern,
    target: &Nre,
    bound: Option<usize>,
) -> BTreeSet<(PNodeId, PNodeId)> {
    EntailmentIndex::new(p, bound, true)
        .relation(target)
        .unwrap()
        .iter()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The product-reachability entailment index agrees with a brute-force
    /// enumeration of pattern paths at every path bound up to 3, and its
    /// unbounded relation contains every bounded one.
    #[test]
    fn entailment_matches_brute_force_path_enumeration(p in arb_pattern()) {
        for target in ENTAILMENT_TARGETS {
            let target = parse_nre(target).unwrap();
            let unbounded = entailment(&p, &target, None);
            for k in 1..=3 {
                let capped = entailment(&p, &target, Some(k));
                prop_assert_eq!(
                    &capped,
                    &brute_force_entailment(&p, &target, k),
                    "target {} at bound {}", target, k
                );
                prop_assert!(capped.is_subset(&unbounded), "target {} at bound {}", target, k);
            }
        }
    }

    /// The canonical instantiation of the s-t chase output satisfies the
    /// s-t tgds on every generated instance (universality, one half).
    #[test]
    fn st_chase_instantiation_satisfies_tgds(inst in arb_instance()) {
        let setting = Setting::example_2_2_egd();
        let st = chase_st(&inst, &setting, StChaseVariant::Oblivious).unwrap();
        let g = instantiate_shortest(&st.pattern).unwrap();
        prop_assert!(
            gdx_exchange::solution::st_tgds_satisfied(&inst, &setting, &g).unwrap()
        );
        // The restricted variant never fires more triggers.
        let res = chase_st(&inst, &setting, StChaseVariant::Restricted).unwrap();
        prop_assert!(res.fired <= st.fired);
        let g2 = instantiate_shortest(&res.pattern).unwrap();
        prop_assert!(
            gdx_exchange::solution::st_tgds_satisfied(&inst, &setting, &g2).unwrap()
        );
    }

    /// Batched and sequential egd chase agree on success/failure and final
    /// pattern size, and never grow the pattern.
    #[test]
    fn egd_chase_modes_agree(p in arb_pattern()) {
        let egds = [hotel_egd()];
        let batched =
            chase_egds_on_pattern(&p, &egds, EgdChaseConfig::default()).unwrap();
        let sequential = chase_egds_on_pattern(
            &p,
            &egds,
            EgdChaseConfig { batch_merges: false, ..EgdChaseConfig::default() },
        )
        .unwrap();
        prop_assert_eq!(batched.succeeded(), sequential.succeeded());
        if let (Some(a), Some(b)) = (batched.pattern(), sequential.pattern()) {
            prop_assert_eq!(a.node_count(), b.node_count());
            prop_assert_eq!(a.edge_count(), b.edge_count());
            prop_assert!(a.node_count() <= p.node_count());
        }
    }

    /// After a successful egd chase, no *certain* violation remains: the
    /// chase reached a genuine fixpoint.
    #[test]
    fn egd_chase_reaches_fixpoint(p in arb_pattern()) {
        let egds = [hotel_egd()];
        let cfg = EgdChaseConfig::default();
        if let EgdChaseOutcome::Success { pattern, .. } =
            chase_egds_on_pattern(&p, &egds, cfg).unwrap()
        {
            let mut index =
                EntailmentIndex::new(&pattern, Some(cfg.path_bound), cfg.allow_reversed);
            let ms = certain_matches(
                &pattern, &egds[0].body, &[egds[0].lhs, egds[0].rhs], false, &mut index,
            )
            .unwrap();
            for m in ms {
                prop_assert_eq!(m[0], m[1], "unresolved certain violation");
            }
        }
    }

    /// The full pipeline on generated instances: whenever the solver
    /// produces a witness, the witness verifies; whenever the chase fails,
    /// the solver agrees there is no solution.
    #[test]
    fn solver_witnesses_verify(inst in arb_instance()) {
        use gdx_exchange::ExchangeSession;
        let setting = Setting::example_2_2_egd();
        let mut session = ExchangeSession::new(setting.clone(), inst.clone());
        let ex = session.solution_exists().unwrap();
        if let Some(g) = ex.witness() {
            prop_assert!(gdx_exchange::is_solution(&inst, &setting, g).unwrap());
        }
    }
}
