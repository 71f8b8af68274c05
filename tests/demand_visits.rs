//! Regression: on a datagen Flight/Hotel instance, the demand-driven
//! access path behind a seeded certain-answer check explores a small
//! fraction (≤ 10%) of the `(node, state)` product space that full
//! materialization enumerates — the asymptotic claim of the demand
//! evaluator, pinned as a test via the `DemandStats` visit counter.

use gdx::chase::{chase_st, StChaseVariant};
use gdx::common::FxHashSet;
use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
use gdx::graph::{Node, NodeId};
use gdx::mapping::Setting;
use gdx::nre::demand::DemandEvaluator;
use gdx::nre::eval::EvalCache;
use gdx::nre::parse::parse_nre;
use gdx::query::{PlannerMode, PreparedQuery};

#[test]
fn seeded_certain_check_visits_under_ten_percent() {
    // A sparse instantiated chase graph: 120 flights over 40 cities.
    let setting = Setting::example_2_2_egd();
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights: 120,
            cities: 40,
            hotels: 40,
            stays_per_flight: 2,
        },
        &mut rng(7),
    );
    let st = chase_st(&inst, &setting, StChaseVariant::Oblivious).expect("st chase");
    let g = gdx::pattern::instantiate_shortest(&st.pattern).expect("instantiation");
    let r = parse_nre("f.f*.[h].f-.(f-)*").expect("paper query");

    // What full materialization enumerates, measured in the same unit:
    // the product-BFS visit count when *every* node is a seed.
    let mut full = DemandEvaluator::try_new(&r).expect("in fragment");
    for u in g.node_ids() {
        full.image(&g, u);
    }
    let full_visits = full.stats().visited;

    // The seeded certain-answer probe, exactly as the planner issues it:
    // both endpoints constant. Read the visit counter out of the cache's
    // demand pool afterwards.
    let city0 = g.node_id(Node::cst("city0")).expect("city0 present");
    let probe = PreparedQuery::parse("(\"city0\", f.f*.[h].f-.(f-)*, \"city1\")").expect("probe");
    let mut cache = EvalCache::new();
    let seeded = probe
        .evaluate_seeded_mode(&g, &mut cache, &Default::default(), PlannerMode::Auto)
        .expect("seeded eval");
    let seeded_visits = probe
        .demand_stats(&r)
        .expect("planner chose the demand path for the bound-endpoint atom")
        .visited;

    assert!(seeded_visits > 0, "the probe must have run");
    assert!(
        seeded_visits * 10 <= full_visits,
        "seeded probe visited {seeded_visits} (node, state) pairs, \
         full materialization enumerates {full_visits}: > 10%"
    );

    // And the probe's verdict agrees with the materializing baseline.
    let mut mat_cache = EvalCache::new();
    let mat = probe
        .evaluate_seeded_mode(
            &g,
            &mut mat_cache,
            &Default::default(),
            PlannerMode::Materialize,
        )
        .expect("materialized eval");
    assert_eq!(seeded.is_empty(), mat.is_empty());

    // Cross-check the counter against ground truth: the seeded visit
    // count is bounded by |reachable slice| × |states|, far below the
    // whole product space for one seed.
    let reachable: FxHashSet<NodeId> = full.image(&g, city0).iter().copied().collect();
    assert!(reachable.len() < g.node_count());
}
