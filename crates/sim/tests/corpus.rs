//! Committed-corpus regression: every repro file under `corpus/` at the
//! workspace root replays clean and is stored in canonical text form.
//!
//! The corpus pins seed+trace scenarios (recorded as `failure none`)
//! across all oracles; a failure here means an engine change broke a
//! previously-passing differential check, or the trace text format
//! drifted from what `Repro::to_text` emits. Regenerate with
//! `cargo run -p gdx-sim --example gen_corpus` and review the diff.
//!
//! Compiled out under the three `fault-*` features: with a
//! deliberate fault in, the corpus entries of its oracle are *supposed*
//! to fail.
#![cfg(not(any(
    feature = "fault-delta-window",
    feature = "fault-lift-test",
    feature = "fault-entail-any"
)))]

use gdx_sim::{replay_text, Replayed, Repro};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {} missing: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "repro"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_nonempty_and_covers_every_oracle() {
    let files = corpus_files();
    assert!(
        files.len() >= 2 * gdx_sim::Oracle::ALL.len(),
        "expected ≥2 repros per oracle"
    );
    for oracle in gdx_sim::Oracle::ALL {
        assert!(
            files.iter().any(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(oracle.name()))
            }),
            "no corpus entry for oracle {oracle}"
        );
    }
}

#[test]
fn corpus_replays_clean_in_canonical_form() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let repro = Repro::parse(&text)
            .unwrap_or_else(|e| panic!("{}: unparsable repro: {e}", path.display()));
        assert_eq!(
            repro.to_text(),
            text,
            "{}: stored text is not canonical — regenerate with \
             `cargo run -p gdx-sim --example gen_corpus`",
            path.display()
        );
        assert_eq!(
            repro.failure,
            "none",
            "{}: corpus pins passing scenarios",
            path.display()
        );
        match replay_text(&text).unwrap() {
            Replayed::Clean { .. } => {}
            other => panic!("{}: corpus scenario regressed: {other:?}", path.display()),
        }
    }
}
