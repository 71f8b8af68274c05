//! A scaled Flight/Hotel scenario: generate a few thousand facts, chase
//! them through a session into a universal representative, inspect what
//! the "a hotel is in exactly one city" constraint does to the target
//! graph, and query the canonical solution with a prepared query.
//!
//! ```text
//! cargo run --release --example flights_hotels
//! ```

use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
use gdx::exchange::representative::RepresentativeOutcome;
use gdx::pattern::instantiate_shortest;
use gdx::prelude::*;
use std::time::Instant;

fn main() -> Result<()> {
    let setting = Setting::example_2_2_egd();
    let params = FlightsHotelsParams {
        flights: 2_000,
        cities: 300,
        hotels: 250,
        stays_per_flight: 2,
    };
    println!("Generating {:?}", params);
    let instance = flights_hotels(params, &mut rng(2024));
    println!(
        "  {} flights, {} hotel stays",
        instance.relation_str("Flight").unwrap().len(),
        instance.relation_str("Hotel").unwrap().len()
    );

    // One session runs the whole pipeline: s-t chase + adapted egd chase,
    // memoized behind `representative()`.
    let mut session = ExchangeSession::new(setting, instance);
    #[expect(
        clippy::disallowed_methods,
        reason = "the example reports wall-clock timings"
    )]
    let t = Instant::now();
    match session.representative()?.clone() {
        RepresentativeOutcome::Representative(rep) => {
            println!(
                "adapted chase: {} merges -> {} nodes / {} edges ({:?})",
                session.representative_merges(),
                rep.pattern.node_count(),
                rep.pattern.edge_count(),
                t.elapsed()
            );
            // A second call is free — the chase is memoized.
            #[expect(
                clippy::disallowed_methods,
                reason = "the example reports wall-clock timings"
            )]
            let t2 = Instant::now();
            session.representative()?;
            println!("memoized representative fetch: {:?}", t2.elapsed());

            // Materialize a concrete target graph.
            let g = instantiate_shortest(&rep.pattern)?;
            println!(
                "canonical solution: {} nodes / {} edges",
                g.node_count(),
                g.edge_count()
            );
            // A couple of sanity queries on the target graph, prepared
            // once and evaluated against the instantiation.
            let q = PreparedQuery::parse("(x, f, y), (y, h, z)")?;
            let hits = q.evaluate(&g)?;
            println!(
                "(city) -f-> (hotel city) -h-> (hotel) matches: {}",
                hits.len()
            );
        }
        RepresentativeOutcome::ChaseFailed => {
            println!("egd chase failed: constants forced equal — no solution");
        }
    }
    Ok(())
}
