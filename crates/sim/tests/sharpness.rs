//! Detector-sharpness acceptance: with a deliberate fault compiled in,
//! the oracle that guards it must find a failing seed within 200 seeds,
//! shrink it, and the shrunk repro must replay byte-identically from its
//! seed+trace text.
//!
//! * `--features fault-delta-window`: an off-by-one in the semi-naive
//!   delta window, caught by the chase-mode oracle;
//! * `--features fault-lift-test`: the pattern-level lower bound drops
//!   its lifted nesting-test atoms, caught by the sandwich oracle;
//! * `--features fault-entail-any`: pattern entailment accepts a path
//!   when *some* state its words reach accepts, instead of all, caught
//!   by the sandwich oracle.
//!
//! Run with: `cargo test -p gdx-sim --features <fault> --test sharpness`
#![cfg(any(
    feature = "fault-delta-window",
    feature = "fault-lift-test",
    feature = "fault-entail-any"
))]

use gdx_sim::campaign::{replay_text, run_campaign, Replayed};
use gdx_sim::{Oracle, Repro};

#[cfg(feature = "fault-delta-window")]
#[test]
fn chase_mode_oracle_catches_the_window_fault_within_200_seeds() {
    catches_and_shrinks(Oracle::ChaseMode, "fault-delta-window");
}

#[cfg(feature = "fault-lift-test")]
#[test]
fn sandwich_oracle_catches_the_dropped_test_atom_within_200_seeds() {
    catches_and_shrinks(Oracle::Sandwich, "fault-lift-test");
}

#[cfg(feature = "fault-entail-any")]
#[test]
fn sandwich_oracle_catches_any_state_entailment_within_200_seeds() {
    catches_and_shrinks(Oracle::Sandwich, "fault-entail-any");
}

fn catches_and_shrinks(oracle: Oracle, fault: &str) {
    let report = run_campaign(oracle, 0, 200, 1);
    assert!(
        !report.failures.is_empty(),
        "{fault} is compiled in but {} seeds passed clean",
        report.seeds_run
    );
    let found = &report.failures[0];
    println!(
        "fault detected at seed {} after {} seeds:\n{}",
        found.seed,
        report.seeds_run,
        found.repro.to_text()
    );

    // The shrunk repro records a real (non-setup) failure…
    assert_ne!(found.repro.failure, "none");
    assert!(
        !found.repro.failure.starts_with("setup"),
        "shrunk to an invalid scenario: {}",
        found.repro.failure
    );

    // …replays byte-identically from its text form…
    let text = found.repro.to_text();
    let reparsed = Repro::parse(&text).unwrap();
    assert_eq!(reparsed, found.repro, "repro text round-trips");
    assert_eq!(reparsed.to_text(), text, "repro text is canonical");
    match replay_text(&text).unwrap() {
        Replayed::Reproduced(f) => {
            assert_eq!(f.summary(), found.repro.failure);
        }
        other => panic!("expected byte-identical reproduction, got {other:?}"),
    }

    // …and twice in a row (the determinism re-check holds end to end).
    match replay_text(&text).unwrap() {
        Replayed::Reproduced(f) => assert_eq!(f.summary(), found.repro.failure),
        other => panic!("second replay diverged: {other:?}"),
    }
}
