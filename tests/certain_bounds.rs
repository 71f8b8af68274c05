//! The two certain-answer bounds on generated flight workloads.
//!
//! `certain_answers` squeezes the answer between the pattern-level lower
//! bound and the first verified solution's constant rows, and returns
//! early when they meet. These tests pin that the early answer is the
//! drained-family intersection byte for byte (rows and `exact`), that
//! the early exit examines one candidate under egds and under sameAs
//! plus a target tgd, and that the exact fragment still enumerates its
//! whole family.

use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
use gdx::exchange::representative::RepresentativeOutcome;
use gdx::prelude::*;

const PAPER_QUERY: &str = "(x1, f.f*.[h].f-.(f-)*, x2)";

fn instance(seed: u64) -> Instance {
    flights_hotels(
        FlightsHotelsParams {
            flights: 40,
            ..FlightsHotelsParams::default()
        },
        &mut rng(seed),
    )
}

fn options() -> Options {
    Options::default().with_max_graphs(32)
}

/// The intersection of the constant rows over a drained family, computed
/// outside the session, in the session's order, plus the stream's `exact`.
fn drained_intersection(
    setting: &Setting,
    instance: &Instance,
    query: &PreparedQuery,
) -> (Vec<Vec<Node>>, bool, usize) {
    let mut session =
        ExchangeSession::new(setting.clone(), instance.clone()).with_options(options());
    let (graphs, exact) = {
        let mut stream = session.solutions().unwrap();
        let graphs: Vec<Graph> = (&mut stream).map(|g| g.unwrap()).collect();
        (graphs, stream.exact())
    };
    let mut sets = graphs
        .iter()
        .map(|g| query.evaluate(g).unwrap().constant_rows(g));
    let mut inter = sets.next().expect("the workload has solutions");
    for rows in sets {
        inter.retain(|r| rows.contains(r));
    }
    let mut rows: Vec<Vec<Node>> = inter.into_iter().collect();
    rows.sort_by_key(|r| r.iter().map(|n| n.name().as_str()).collect::<Vec<_>>());
    (rows, exact, session.candidates_examined())
}

#[test]
fn early_exit_matches_the_drained_family_on_generated_flights() {
    let setting = Setting::example_2_2_egd();
    let query = PreparedQuery::parse(PAPER_QUERY).unwrap();
    for seed in 1..=5 {
        let instance = instance(seed);
        let (expected, expected_exact, _) = drained_intersection(&setting, &instance, &query);

        let obs = gdx::obs::Obs::enabled();
        let mut fresh = ExchangeSession::new(setting.clone(), instance.clone())
            .with_options(options())
            .with_obs(obs.clone());
        let (rows, exact) = fresh.certain_answers(&query).unwrap();
        assert_eq!(rows, expected, "seed {seed}: rows");
        assert_eq!(exact, expected_exact, "seed {seed}: exact");

        let opts = *fresh.options();
        let mut lower = match fresh.representative().unwrap() {
            RepresentativeOutcome::Representative(rep) => {
                rep.certain_answer_lower_bound(query.cnre(), &opts).unwrap()
            }
            RepresentativeOutcome::ChaseFailed => panic!("seed {seed}: the chase succeeds"),
        };
        let mut sorted = rows.clone();
        sorted.sort();
        lower.sort();
        let reg = obs.registry().unwrap();
        assert_eq!(lower, sorted, "seed {seed}: the lower bound is the answer");
        assert_eq!(fresh.candidates_examined(), 1, "seed {seed}: bounds met");
        assert_eq!(reg.counter("session.lower_bound.proven"), 1);
        assert_eq!(reg.counter("session.lower_bound.fallback"), 0);
    }
}

#[test]
fn same_as_and_tgd_sessions_stop_after_one_candidate() {
    // Flight chains are longer than any fixed path bound: the lower
    // bound proves `f.f*.h` along pattern paths of any length, so it
    // meets the first verified graph's rows.
    let setting = gdx::mapping::dsl::parse_setting(
        "source { Flight/3; Hotel/2 }
         target { f; h; svc }
         sttgd Flight(x1, x2, x3), Hotel(x1, x4)
               -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
         sameas (x1, h, x3), (x2, h, x3) -> (x1, x2);
         tgd (x, h, y) -> exists z : (y, svc, z);",
    )
    .unwrap();
    let query = PreparedQuery::parse("(x, f.f*.h, y)").unwrap();
    for seed in 1..=5 {
        let instance = instance(seed);
        let (expected, expected_exact, _) = drained_intersection(&setting, &instance, &query);
        let obs = gdx::obs::Obs::enabled();
        let mut fresh = ExchangeSession::new(setting.clone(), instance)
            .with_options(options())
            .with_obs(obs.clone());
        assert_eq!(
            fresh.certain_answers(&query).unwrap(),
            (expected, expected_exact),
            "seed {seed}"
        );
        assert_eq!(fresh.candidates_examined(), 1, "seed {seed}: bounds met");
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("session.lower_bound.proven"), 1, "seed {seed}");
        assert_eq!(
            reg.counter("session.lower_bound.fallback"),
            0,
            "seed {seed}"
        );
    }
}

#[test]
fn exact_fragment_still_examines_every_candidate() {
    // Star-free, non-nullable s-t heads: the family decides `exact`, so
    // the bounds are never consulted first. The union makes the family
    // larger than one graph.
    let setting = gdx::mapping::dsl::parse_setting(
        "source { Flight/3; Hotel/2 }
         target { f; g; h }
         sttgd Flight(x1, x2, x3), Hotel(x1, x4)
               -> exists y : (x2, f + g, y), (y, h, x4), (y, f, x3);
         egd (x1, h, x3), (x2, h, x3) -> x1 = x2;",
    )
    .unwrap();
    assert!(gdx::exchange::exists::exact_fragment(&setting));
    let query = PreparedQuery::parse("(x1, f.[h].f-, x2)").unwrap();
    for seed in 1..=2 {
        let instance = instance(seed);
        let (expected, expected_exact, family) = drained_intersection(&setting, &instance, &query);
        assert!(
            family > 1,
            "seed {seed}: the fixture has several candidates"
        );
        let mut fresh =
            ExchangeSession::new(setting.clone(), instance.clone()).with_options(options());
        assert_eq!(
            fresh.certain_answers(&query).unwrap(),
            (expected, expected_exact)
        );
        assert_eq!(fresh.candidates_examined(), family, "seed {seed}");
    }
}
