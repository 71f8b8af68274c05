//! The observability registry of one fully-instrumented Example 2.2
//! session, pinned byte for byte against a committed dump.
//!
//! The run covers the whole paper pipeline: chase, candidate
//! verification and the paper query's certain answers, with metrics
//! recording on. One worker and the no-op clock keep the dump free of
//! scheduling-shaped counters and wall-clock histograms, so the rendered
//! registry is byte-stable across hosts. A drift in any counter is a
//! semantic change in what the engine does, not noise: update
//! `tests/snapshots/metrics_example_2_2.json` only together with the
//! change that explains it.

use gdx::prelude::*;

const SNAPSHOT: &str = include_str!("snapshots/metrics_example_2_2.json");

fn observed_example_2_2_run() -> String {
    let obs = Obs::enabled();
    let mut session = ExchangeSession::new(Setting::example_2_2_egd(), Instance::example_2_2())
        .with_options(Options::default().with_threads(Threads::Fixed(1)))
        .with_obs(obs.clone());
    let query = PreparedQuery::parse("(x1, f.f*.[h].f-.(f-)*, x2)").expect("static query");
    session.certain_answers(&query).expect("certain answers");
    obs.render_metrics_json()
}

#[test]
fn example_2_2_registry_matches_the_committed_dump() {
    let rendered = observed_example_2_2_run();
    assert!(
        rendered == SNAPSHOT,
        "the Example 2.2 metrics dump drifted from \
         tests/snapshots/metrics_example_2_2.json; rendered dump:\n{rendered}"
    );
}
