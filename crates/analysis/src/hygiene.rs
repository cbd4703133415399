//! Lint hygiene: every workspace member inherits the workspace lint table.
//!
//! The lints themselves — `unsafe_code = "forbid"`, `missing_docs =
//! "warn"`, `clippy::unwrap_used = "deny"` — are stated once, in the root
//! `Cargo.toml`'s `[workspace.lints]`, and rustc/clippy enforce them. What
//! the compiler cannot see is a member that never opts in, so this check
//! requires `[lints] workspace = true` in the root package's manifest and
//! in every `crates/*` and `vendor/*` manifest.

use crate::display_path;
use crate::report::Finding;
use std::path::{Path, PathBuf};

/// The hygiene rule name.
pub const HYGIENE_RULE: &str = "missing-workspace-lints";

/// Checks that every member manifest under `root` inherits the workspace
/// lint table. The root manifest counts when it declares a `[package]`.
pub fn check_hygiene(root: &Path) -> Vec<Finding> {
    let mut manifests: Vec<PathBuf> = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if std::fs::read_to_string(&root_manifest)
        .is_ok_and(|text| text.lines().any(|l| l.trim() == "[package]"))
    {
        manifests.push(root_manifest);
    }
    for dir in ["crates", "vendor"] {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        let mut members: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.exists())
            .collect();
        members.sort();
        manifests.extend(members);
    }
    manifests
        .into_iter()
        .filter(|m| !std::fs::read_to_string(m).is_ok_and(|text| inherits_workspace_lints(&text)))
        .map(|m| Finding {
            rule: HYGIENE_RULE,
            file: display_path(root, &m),
            line: 0,
            message: "member must inherit the workspace lints: add `[lints]` with \
                      `workspace = true`"
                .to_string(),
        })
        .collect()
}

/// Whether a manifest has a `[lints]` table setting `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workspace_is_hygienic() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check_hygiene(&root);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn missing_attributes_are_reported() {
        // A planted member without `[lints]`, next to one that opts in.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/unlinted_member");
        let findings = check_hygiene(&root);
        let files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(files, ["crates/bad/Cargo.toml"]);
        assert_eq!(findings[0].rule, HYGIENE_RULE);
    }

    #[test]
    fn only_the_lints_table_counts() {
        assert!(inherits_workspace_lints("[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n"));
        // `workspace = true` under another table is a dependency setting.
        assert!(!inherits_workspace_lints("[lints]\n[dependencies]\nrand = { workspace = true }"));
        assert!(!inherits_workspace_lints("[dependencies.rand]\nworkspace = true\n"));
    }
}
