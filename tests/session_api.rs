//! Integration tests for the session-oriented API: streaming solution
//! enumeration does strictly less chase work than exhaustive enumeration,
//! and every session method observes the session's `Options`.

use gdx::exchange::representative::RepresentativeOutcome;
use gdx::prelude::*;
use gdx_pattern::InstantiationConfig;

/// A setting with a two-way union head (two candidate instantiations) and
/// a target tgd that must fire once per candidate.
fn union_tgd_setting() -> Setting {
    gdx::mapping::dsl::parse_setting(
        "source { R1/1; R2/1 }
         target { a; t; f; svc }
         sttgd R1(x), R2(y) -> (x, a, y), (x, t+f, x);
         tgd (x, a, y) -> exists z : (y, svc, z);",
    )
    .unwrap()
}

fn union_tgd_instance(setting: &Setting) -> Instance {
    Instance::parse(setting.source.clone(), "R1(c1); R2(c2);").unwrap()
}

/// The acceptance pin of the streaming redesign: taking the first witness
/// from `solutions()` performs strictly fewer tgd chase firings than
/// draining the family (the old `enumerate_minimal_solutions` behaviour),
/// measured by the engine's `ChaseStats`.
#[test]
fn first_witness_fires_strictly_fewer_tgds_than_full_enumeration() {
    let setting = union_tgd_setting();
    let instance = union_tgd_instance(&setting);

    // Streaming: stop at the first verified witness.
    let mut streaming = ExchangeSession::new(setting.clone(), instance.clone());
    let first = streaming
        .solutions()
        .unwrap()
        .next()
        .expect("solutions exist")
        .unwrap();
    assert!(streaming.is_solution(&first).unwrap());
    let streamed_steps = streaming.chase_stats().steps;
    assert_eq!(
        streaming.candidates_examined(),
        1,
        "lazy family: one candidate pulled"
    );

    // Exhaustive: drain the family (both union branches).
    let mut exhaustive = ExchangeSession::new(setting, instance);
    let all: Vec<Graph> = exhaustive
        .solutions()
        .unwrap()
        .map(|g| g.unwrap())
        .collect();
    assert_eq!(all.len(), 2, "t-loop and f-loop candidates both verify");
    let full_steps = exhaustive.chase_stats().steps;

    assert!(streamed_steps > 0, "the tgd must fire for the witness");
    assert!(
        streamed_steps < full_steps,
        "streaming must chase strictly less: first-witness {streamed_steps} \
         vs full {full_steps} firings"
    );
}

#[test]
fn max_graphs_bound_is_observed() {
    let setting = union_tgd_setting();
    let instance = union_tgd_instance(&setting);
    let mut capped = ExchangeSession::new(setting, instance).with_options(Options {
        instantiation: InstantiationConfig {
            max_graphs: 1,
            ..InstantiationConfig::default()
        },
        ..Options::default()
    });
    let yielded = {
        let mut stream = capped.solutions().unwrap();
        let yielded = stream.by_ref().count();
        assert!(!stream.exact(), "truncated family withdraws exactness");
        yielded
    };
    assert_eq!(yielded, 1, "family truncated to one candidate");
    assert_eq!(capped.candidates_examined(), 1);
}

#[test]
fn tgd_step_bound_is_observed() {
    let setting = union_tgd_setting();
    let instance = union_tgd_instance(&setting);
    // One firing per candidate is required; a zero-step budget trips the
    // engine on every candidate (the budget is inclusive: `max_steps: 1`
    // would admit the single firing), so the inexact search finds nothing.
    let mut strangled = ExchangeSession::new(setting, instance).with_options(Options {
        tgd_chase: gdx::chase::TgdChaseConfig {
            max_steps: 0,
            ..gdx::chase::TgdChaseConfig::default()
        },
        ..Options::default()
    });
    match strangled.solution_exists().unwrap() {
        Existence::Unknown(_) => {}
        other => panic!("step bound must make the search inconclusive, got {other:?}"),
    }
}

#[test]
fn planner_mode_is_observed_by_certain_queries() {
    let setting = Setting::example_2_2_egd();
    let instance = Instance::example_2_2();
    let probe = PreparedQuery::parse("(\"c1\", f.f*, \"c2\")").unwrap();
    let r = gdx::nre::parse::parse_nre("f.f*").unwrap();

    // Auto planner: the constants-only probe runs by seeded product-BFS,
    // so the prepared query's demand evaluator records visits.
    let mut auto = ExchangeSession::new(setting.clone(), instance.clone());
    auto.certain(&probe).unwrap();
    assert!(
        probe.demand_stats(&r).unwrap().visited > 0,
        "Auto mode must route the probe through the demand evaluator"
    );

    // Materialize mode: the same probe must never touch the demand path.
    let probe2 = PreparedQuery::parse("(\"c1\", f.f*, \"c2\")").unwrap();
    let mut mat = ExchangeSession::new(setting, instance)
        .with_options(Options::default().with_planner(gdx::query::PlannerMode::Materialize));
    let verdict = mat.certain(&probe2).unwrap();
    assert_eq!(
        probe2.demand_stats(&r).unwrap().visited,
        0,
        "Materialize mode must not probe the demand evaluator"
    );
    // And both modes agree on the verdict.
    assert!(verdict.is_certain());
    assert!(auto.certain(&probe).unwrap().is_certain());
}

#[test]
fn representative_memo_survives_across_the_whole_workload() {
    // One session: representative, existence, streaming, certain answers —
    // the chase runs once (the memoized outcome is handed back each time).
    let mut s = ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2());
    let nodes = match s.representative().unwrap() {
        RepresentativeOutcome::Representative(rep) => rep.pattern.node_count(),
        RepresentativeOutcome::ChaseFailed => panic!("chase succeeds"),
    };
    assert!(s.solution_exists().unwrap().exists());
    let q = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").unwrap();
    let (rows, _) = s.certain_answers(&q).unwrap();
    assert_eq!(rows.len(), 4);
    // The memoized representative is still the same object.
    match s.representative().unwrap() {
        RepresentativeOutcome::Representative(rep) => {
            assert_eq!(rep.pattern.node_count(), nodes);
        }
        RepresentativeOutcome::ChaseFailed => panic!("chase succeeds"),
    }
}
