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
//!   `unwrap_used`/`expect_used`/`panic` out of non-test code;
//! * the session's family scan is the only library code that fans work
//!   out through `Runtime::par_map_mut`: a request otherwise runs on its
//!   calling thread, and a new fan-out has to edit this test and argue
//!   for itself.

use std::path::{Path, PathBuf};

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

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `src` outside `#[cfg(test)]` items and comments. A
/// skipped item ends where its braces balance, or at a `;` outside any.
fn non_test_code(src: &str) -> Vec<&str> {
    let mut lines = Vec::new();
    let mut skipping = false;
    let mut depth = 0usize;
    for line in src.lines() {
        let trimmed = line.trim();
        if skipping {
            let opened = trimmed.contains('{');
            depth += trimmed.matches('{').count();
            depth = depth.saturating_sub(trimmed.matches('}').count());
            if depth == 0 && (opened || trimmed.contains('}') || trimmed.ends_with(';')) {
                skipping = false;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            skipping = true;
            depth = 0;
            continue;
        }
        if !trimmed.starts_with("//") {
            lines.push(line);
        }
    }
    lines
}

#[test]
fn the_family_scan_is_the_only_library_fan_out() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for m in members() {
        let src = root.join(&m).join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let callers: Vec<String> = files
        .iter()
        .filter(|path| {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            non_test_code(&text)
                .iter()
                .any(|line| line.contains(".par_map_mut("))
        })
        .map(|path| {
            path.strip_prefix(root)
                .expect("under the workspace root")
                .display()
                .to_string()
        })
        .collect();
    assert_eq!(
        callers,
        ["crates/core/src/session.rs"],
        "a request runs on its calling thread except for the family scan; \
         a new caller of `par_map_mut` must argue for itself here"
    );
}
