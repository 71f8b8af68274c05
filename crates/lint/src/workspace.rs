//! Workspace walker: enumerates member crates from the root manifest,
//! classifies them, and runs the source and manifest rules over every
//! file, producing one aggregated [`Report`].

use crate::manifest::lint_manifest;
use crate::source::lint_source;
use crate::{CrateKind, FileCtx, Report, RootPolicy};
use std::io;
use std::path::{Path, PathBuf};

/// Crates allowed to panic, print and read the clock: user-facing
/// front ends and measurement/tooling harnesses. Everything else is
/// held to the full library contract.
const TOOL_CRATES: &[&str] = &["gdx-cli", "gdx-lint"];

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// `members = [...]` entries of the root manifest.
fn parse_members(root_manifest: &str) -> Vec<String> {
    // Comments run to end of line, so strip them line-wise first.
    let cleaned: String = root_manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let Some(start) = cleaned.find("members") else {
        return Vec::new();
    };
    let Some(open) = cleaned[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = cleaned[start + open..].find(']') else {
        return Vec::new();
    };
    cleaned[start + open + 1..start + open + close]
        .split(',')
        .filter_map(|item| {
            let item = item.trim().trim_matches('"');
            (!item.is_empty()).then(|| item.to_owned())
        })
        .collect()
}

/// First `name = "..."` of the `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(h) = line.strip_prefix('[') {
            in_package = h.trim_end_matches(']') == "package";
            continue;
        }
        if in_package {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim() == "name" {
                    return Some(v.trim().trim_matches('"').to_owned());
                }
            }
        }
    }
    None
}

/// All `.rs` files under `dir`, sorted for deterministic output.
/// `fixtures` subtrees are the linter's own test corpus, not code.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints every workspace crate under `root` and returns the sorted
/// aggregate report.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let root_manifest_path = root.join("Cargo.toml");
    let root_manifest = std::fs::read_to_string(&root_manifest_path)?;
    let has_shim = |name: &str| root.join("shims").join(name).is_dir();

    let mut report = Report::default();

    // Root package (the `gdx` meta-crate) plus every member.
    let mut units: Vec<(PathBuf, String)> = vec![(root.to_path_buf(), root_manifest.clone())];
    for member in parse_members(&root_manifest) {
        let dir = root.join(&member);
        let text = std::fs::read_to_string(dir.join("Cargo.toml"))?;
        units.push((dir, text));
    }

    for (dir, manifest_text) in units {
        let manifest_label = rel_label(root, &dir.join("Cargo.toml"));
        report
            .diagnostics
            .extend(lint_manifest(&manifest_label, &manifest_text, &has_shim));
        report.crates_checked += 1;

        // Vendored shims are API stand-ins for external crates; the
        // source contract does not apply to them (only their manifests
        // are checked, above).
        if dir.strip_prefix(root).is_ok_and(|p| p.starts_with("shims")) {
            continue;
        }
        let Some(name) = package_name(&manifest_text) else {
            continue;
        };
        let kind = if TOOL_CRATES.contains(&name.as_str()) {
            CrateKind::Tool
        } else {
            CrateKind::Library
        };
        let src = dir.join("src");
        let crate_root = ["lib.rs", "main.rs"]
            .iter()
            .map(|f| src.join(f))
            .find(|p| p.is_file());

        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for path in files {
            let text = std::fs::read_to_string(&path)?;
            let mut ctx = FileCtx {
                crate_name: name.clone(),
                kind,
                root: None,
                // The injected-clock implementation itself: the one
                // library file sanctioned to read the wall clock.
                clock_module: name == "gdx-obs"
                    && path.file_name().is_some_and(|f| f == "clock.rs"),
                // The server's process edge: the one library file
                // sanctioned to spawn threads and build the wall clock
                // it injects into the handler stack.
                net_module: name == "gdx-server" && path.file_name().is_some_and(|f| f == "net.rs"),
            };
            if crate_root.as_deref() == Some(path.as_path()) {
                ctx.root = Some(RootPolicy {
                    require_preamble: kind == CrateKind::Library,
                });
            }
            let label = rel_label(root, &path);
            let outcome = lint_source(&label, &text, &ctx);
            report.diagnostics.extend(outcome.diagnostics);
            report.unsafe_inventory.extend(outcome.unsafe_sites);
            report.allows.extend(outcome.allows);
            report.files_checked += 1;
        }
    }
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_members_list() {
        let text = "\
[workspace]
members = [
    \"crates/automata\",
    \"crates/chase\", # comment
    \"shims/rand\",
]
";
        assert_eq!(
            parse_members(text),
            vec!["crates/automata", "crates/chase", "shims/rand"]
        );
    }

    #[test]
    fn extracts_package_name() {
        let text = "[package]\nname = \"gdx-lint\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(text).as_deref(), Some("gdx-lint"));
        assert_eq!(package_name("[workspace]\n"), None);
    }

    #[test]
    fn finds_own_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/lint").is_dir());
    }
}
