//! The `dep-shim` rule: no non-workspace dependency may appear in a
//! `Cargo.toml` without a vendored `shims/` entry.
//!
//! The build environment is offline; every external crate the workspace
//! "uses" is really a minimal API-compatible stand-in under `shims/`
//! (rand, proptest). A dependency line pointing at crates.io
//! or a git URL would build on a developer laptop and then break CI —
//! this rule turns that into an immediate lint error instead.
//!
//! The parser is a deliberately small line-oriented TOML subset (the
//! same no-deps idiom as the `gdx_common::json` reader): section headers,
//! `name = "version"` strings and `name = { key = value, ... }` inline
//! tables are all the shape a Cargo manifest dependency section has.

use crate::{Diagnostic, Rule};

/// Dependency-carrying sections of a Cargo manifest.
fn is_dep_section(header: &str) -> bool {
    let h = header.trim();
    h == "dependencies"
        || h == "dev-dependencies"
        || h == "build-dependencies"
        || h == "workspace.dependencies"
        || h.ends_with(".dependencies")
        || h.ends_with(".dev-dependencies")
        || h.ends_with(".build-dependencies")
}

/// Lints one manifest. `file` labels diagnostics; `has_shim` answers
/// whether `shims/<name>` exists (injected so the rule is testable
/// without a filesystem).
pub fn lint_manifest(file: &str, text: &str, has_shim: &dyn Fn(&str) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim_start_matches('[');
            in_deps = is_dep_section(header);
            continue;
        }
        if !in_deps {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        let value = value.trim();
        // Workspace-internal forms: `{ workspace = true }` inherits the
        // root's path entry; `path = "..."` points inside the repo.
        let internal =
            value.contains("workspace") && value.contains("true") || value.contains("path");
        let external_source = value.contains("git") || value.contains("registry");
        if internal && !external_source {
            continue;
        }
        if !has_shim(name) {
            out.push(Diagnostic {
                rule: Rule::DepShim,
                severity: Rule::DepShim.severity(),
                file: file.to_owned(),
                line: (idx + 1) as u32,
                message: format!(
                    "dependency `{name}` is not workspace-internal and has no vendored \
                     shims/{name} entry — the build environment is offline"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(text: &str, shims: &[&str]) -> Vec<(u32, String)> {
        let shims: Vec<String> = shims.iter().map(|s| s.to_string()).collect();
        lint_manifest("Cargo.toml", text, &|n| shims.iter().any(|s| s == n))
            .into_iter()
            .map(|d| (d.line, d.message))
            .collect()
    }

    #[test]
    fn workspace_and_path_deps_pass() {
        let text = "\
[package]
name = \"x\"

[dependencies]
gdx_common = { workspace = true }
gdx_graph = { path = \"../graph\", package = \"gdx-graph\" }

[dev-dependencies]
proptest = { workspace = true }
";
        assert!(run(text, &[]).is_empty());
    }

    #[test]
    fn crates_io_dep_without_shim_fails() {
        let text = "[dependencies]\nserde = \"1.0\"\n";
        let fired = run(text, &[]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 2);
        assert!(fired[0].1.contains("serde"));
    }

    #[test]
    fn crates_io_dep_with_shim_passes() {
        let text = "[dependencies]\nrand = { workspace = true }\ncriterion = \"0.5\"\n";
        assert!(run(text, &["criterion"]).is_empty());
    }

    #[test]
    fn git_dep_fails_even_with_path_noise() {
        let text = "[dependencies]\nfoo = { git = \"https://x\", path = \"sub\" }\n";
        assert_eq!(run(text, &[]).len(), 1);
    }

    #[test]
    fn non_dep_sections_are_ignored() {
        let text = "[package]\nname = \"x\"\nversion = \"1.0\"\n[features]\nfast = []\n";
        assert!(run(text, &[]).is_empty());
    }

    #[test]
    fn target_specific_dep_sections_are_checked() {
        let text = "[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n";
        assert_eq!(run(text, &[]).len(), 1);
    }
}
