//! Pins the adapted egd chase (Section 5) on generated flight workloads.
//!
//! The egd chase merges pattern nodes in certain-match order, so which
//! labeled null names survive a merge depends on the order in which the
//! matcher emits rows. Any rewrite of certain matching must keep every
//! outcome here byte-identical: for each run the snapshot holds the
//! verdict, the merge count and an FNV-1a digest of the chased pattern's
//! rendering (edge list with node names), or the failing constant pair.
//!
//! Runs: `flights_hotels` seeds 0–19 × path bound {1, 2, 3}, with
//! reversed edges allowed and not allowed, under two settings: the
//! paper's Example 2.2 egd setting `Ω` at {20, 40, 100} flights, and `Ω`
//! plus an egd matched through multi-edge paths at {20, 40} flights.
//!
//! On a mismatch the failure names the first differing run and prints
//! every rendered outcome line; an intentional change is an edit of
//! `tests/snapshots/egd_chase_pin.txt`.

use gdx::chase::egd_pattern::adapted_chase;
use gdx::chase::{EgdChaseConfig, EgdChaseOutcome};
use gdx::datagen::{flights_hotels, rng, FlightsHotelsParams};
use gdx::prelude::*;
use std::fmt::Write as _;

const SNAPSHOT: &str = include_str!("snapshots/egd_chase_pin.txt");

/// FNV-1a over the bytes of `text`: stable across platforms and builds.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `Ω` with a second egd whose body is matched through paths of several
/// pattern edges: flight nulls between the same two cities coincide.
fn route_setting() -> Setting {
    gdx::mapping::dsl::parse_setting(
        "source { Flight/3; Hotel/2 }
         target { f; h }
         sttgd Flight(x1, x2, x3), Hotel(x1, x4)
               -> exists y : (x2, f.f*, y), (y, h, x4), (y, f.f*, x3);
         egd (x1, h, x3), (x2, h, x3) -> x1 = x2;
         egd (c, f.f*, y1), (c, f.f*, y2), (y1, f.f*, d), (y2, f.f*, d),
             (y1, h, z1), (y2, h, z2) -> y1 = y2;",
    )
    .unwrap()
}

/// One line per run, in a fixed order.
fn outcomes() -> String {
    let mut out = String::new();
    let runs: [(&str, Setting, &[usize]); 2] = [
        ("omega", Setting::example_2_2_egd(), &[20, 40, 100]),
        ("route", route_setting(), &[20, 40]),
    ];
    for (name, setting, sizes) in runs {
        for seed in 0..20u64 {
            for &flights in sizes {
                let instance = flights_hotels(
                    FlightsHotelsParams {
                        flights,
                        ..FlightsHotelsParams::default()
                    },
                    &mut rng(seed),
                );
                for allow_reversed in [true, false] {
                    for path_bound in 1..=3 {
                        let cfg = EgdChaseConfig {
                            path_bound,
                            allow_reversed,
                            ..EgdChaseConfig::default()
                        };
                        let outcome = adapted_chase(&instance, &setting, cfg).unwrap();
                        let result = match outcome {
                            EgdChaseOutcome::Success { pattern, merges } => format!(
                                "ok merges={merges} edges={} digest={:016x}",
                                pattern.edge_count(),
                                digest(&pattern.to_string())
                            ),
                            EgdChaseOutcome::Failed { constants, merges } => {
                                format!(
                                    "failed merges={merges} pair={}/{}",
                                    constants.0, constants.1
                                )
                            }
                        };
                        writeln!(
                            out,
                            "{name} seed={seed} flights={flights} reversed={allow_reversed} \
                         bound={path_bound} {result}"
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn egd_chase_outcomes_match_the_pinned_snapshot() {
    let rendered = outcomes();
    if rendered != SNAPSHOT {
        let first = rendered
            .lines()
            .zip(SNAPSHOT.lines())
            .position(|(a, e)| a != e)
            .map_or_else(|| "the run count".to_owned(), |i| format!("run {i}"));
        panic!(
            "the egd chase outcomes drifted from tests/snapshots/egd_chase_pin.txt \
             (first difference: {first}); rendered outcomes:\n{rendered}"
        );
    }
}
