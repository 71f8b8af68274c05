//! Workspace contracts that live in manifests rather than in code, so
//! clippy cannot see them:
//!
//! * the build is offline, so every package in both lock files (the
//!   workspace's and perfbench's) is a path package — a lock entry with
//!   a `source =` line came from a registry or a git remote, and this
//!   also catches transitive dependencies;
//! * every member (and this root package) opts into the lint table with
//!   `[lints] workspace = true`;
//! * every crate root carries the panic-hygiene preamble, which keeps
//!   `unwrap_used`/`expect_used`/`panic` out of non-test code.

use std::path::Path;

const PREAMBLE: &str =
    "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,clippy::panic))]";

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `members = [..]` entries of the root manifest, plus `.` for the
/// root package itself.
fn members() -> Vec<String> {
    let root = read("Cargo.toml");
    let list = root
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("root Cargo.toml lists its members")
        .0;
    let mut members: Vec<String> = list
        .split(',')
        .map(|m| m.trim().trim_matches('"').to_owned())
        .filter(|m| !m.is_empty())
        .collect();
    members.push(".".to_owned());
    members
}

#[test]
fn lock_files_hold_only_path_packages() {
    for lock in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let text = read(lock);
        assert!(text.contains("[[package]]"), "{lock} lists no package");
        let remote: Vec<&str> = text.lines().filter(|l| l.starts_with("source =")).collect();
        assert!(
            remote.is_empty(),
            "{lock} has non-path packages: {remote:?}"
        );
    }
}

#[test]
fn every_member_uses_the_workspace_lint_table() {
    let members = members();
    assert!(members.len() > 10, "members parsed: {members:?}");
    for m in &members {
        let manifest = read(&format!("{m}/Cargo.toml"));
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{m}/Cargo.toml lacks `[lints] workspace = true`"
        );
    }
}

#[test]
fn every_crate_root_carries_the_panic_hygiene_preamble() {
    for m in members() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(&m);
        let root = ["src/lib.rs", "src/main.rs"]
            .into_iter()
            .find(|r| dir.join(r).exists())
            .unwrap_or_else(|| panic!("{m} has no src/lib.rs or src/main.rs"));
        let text: String = read(&format!("{m}/{root}"))
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        assert!(text.contains(PREAMBLE), "{m}/{root} lacks {PREAMBLE}");
    }
}
