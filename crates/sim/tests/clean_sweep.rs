//! Clean-sweep acceptance: with no fault injected, every oracle passes a
//! multi-seed campaign (≥500 seeds across all oracles), and shrunk
//! repros replay byte-identically from their text form.
//!
//! Compiled out under the five `fault-*` sharpness
//! features — with a fault in, failures are the *expected* outcome (see
//! `sharpness.rs`).
#![cfg(not(any(
    feature = "fault-delta-window",
    feature = "fault-lift-test",
    feature = "fault-entail-any",
    feature = "fault-dense-star",
    feature = "fault-dense-verify"
)))]

use gdx_sim::campaign::{replay_text, run_campaign, Replayed};
use gdx_sim::{generate, run_scenario, Oracle, Repro};

/// Seeds per oracle: 8 oracles × 75 = 600 total across all oracles.
const SEEDS_PER_ORACLE: u64 = 75;

fn sweep(oracle: Oracle) {
    let report = run_campaign(oracle, 0, SEEDS_PER_ORACLE, 0);
    assert_eq!(report.seeds_run, SEEDS_PER_ORACLE);
    let mut msgs = Vec::new();
    for f in &report.failures {
        msgs.push(format!(
            "seed {} failed under `{}`:\n{}\n--- shrunk repro ---\n{}",
            f.seed,
            oracle.name(),
            f.original,
            f.repro.to_text()
        ));
    }
    assert!(msgs.is_empty(), "{}", msgs.join("\n\n"));
}

#[test]
fn clean_replay() {
    sweep(Oracle::Replay);
}

#[test]
fn clean_chase_mode() {
    sweep(Oracle::ChaseMode);
}

#[test]
fn clean_planner() {
    sweep(Oracle::Planner);
}

#[test]
fn clean_threads() {
    sweep(Oracle::Threads);
}

#[test]
fn clean_sat() {
    sweep(Oracle::Sat);
}

#[test]
fn clean_fork() {
    sweep(Oracle::Fork);
}

#[test]
fn clean_faults() {
    sweep(Oracle::Faults);
}

#[test]
fn clean_sandwich() {
    sweep(Oracle::Sandwich);
}

/// Scenario execution itself is deterministic: the same seed's scenario,
/// run twice, gives the same verdict — and its repro text round-trips
/// through parse byte-identically.
#[test]
fn scenarios_replay_byte_identically() {
    for seed in 0..10u64 {
        for oracle in Oracle::ALL {
            let sc = generate(seed, oracle);
            assert_eq!(
                run_scenario(&sc, oracle).map_err(|f| f.summary()),
                run_scenario(&sc, oracle).map_err(|f| f.summary()),
                "seed {seed} oracle {oracle}"
            );
            let repro = Repro {
                oracle,
                failure: "none".to_owned(),
                scenario: sc,
            };
            let text = repro.to_text();
            let reparsed = Repro::parse(&text).unwrap();
            assert_eq!(reparsed.to_text(), text, "canonical repro text");
            assert_eq!(
                replay_text(&text).unwrap(),
                Replayed::Clean {
                    recorded: "none".to_owned()
                },
                "seed {seed} oracle {oracle}"
            );
        }
    }
}
