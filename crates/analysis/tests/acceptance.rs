//! End-to-end acceptance tests for the `sih-analysis` binary: exit 0 on
//! the real workspace, non-zero exit with the right findings on a
//! synthetic workspace that plants banned constructs in a simulation
//! crate.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sih-analysis"))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn real_workspace_passes_with_json_report() {
    let out = bin()
        .args(["--root"])
        .arg(workspace_root())
        .args(["--format", "json"])
        .output()
        .expect("invariant: the sih-analysis binary is built for integration tests");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "expected exit 0 on the real tree, got {:?}:\n{stdout}",
        out.status.code()
    );
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
    assert!(stdout.contains("\"findings\": []"), "{stdout}");
}

#[test]
fn real_workspace_text_report_summarizes_pass() {
    let out = bin()
        .args(["--root"])
        .arg(workspace_root())
        .output()
        .expect("invariant: the sih-analysis binary is built for integration tests");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("PASS: 0 finding(s), "), "{stdout}");
}

/// Runs the binary against a committed planted-violation fixture tree
/// under `fixtures/<name>` and returns the JSON report (asserting the
/// analysis failed).
fn run_fixture(name: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    let out = bin()
        .args(["--root"])
        .arg(&root)
        .args(["--format", "json"])
        .output()
        .expect("invariant: the sih-analysis binary is built for integration tests");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!out.status.success(), "expected failure on fixture {name}:\n{stdout}");
    assert!(stdout.contains("\"ok\": false"), "{stdout}");
    stdout
}

#[test]
fn hot_path_panics_and_indexing_are_caught() {
    let report = run_fixture("hotpath_unwrap");
    assert!(report.contains("\"rule\": \"panic-reachable\""), "{report}");
    assert!(report.contains("\"rule\": \"index-reachable\""), "{report}");
    assert!(report.contains(".unwrap()"), "{report}");
    assert!(report.contains("panic!"), "{report}");
    // The sanctioned invariant expect is not a finding.
    assert!(!report.contains("fingerprint input is nonempty"), "{report}");
}

#[test]
fn unhandled_and_stale_msg_variants_are_caught() {
    let report = run_fixture("unhandled_variant");
    assert!(report.contains("\"rule\": \"unhandled-variant\""), "{report}");
    assert!(report.contains("WorkMsg::Lost"), "{report}");
    assert!(report.contains("\"rule\": \"stale-variant\""), "{report}");
    assert!(report.contains("WorkMsg::Stale"), "{report}");
    // Pong is handled through the helper fn — call-graph closure credits it.
    assert!(!report.contains("WorkMsg::Pong"), "{report}");
}

#[test]
fn dead_allow_pragmas_are_caught() {
    let report = run_fixture("unused_allow");
    assert!(report.contains("\"rule\": \"unused-allow\""), "{report}");
    assert!(report.contains("allow(float)"), "{report}");
}

#[test]
fn token_rules_are_caught_outside_test_code() {
    let report = run_fixture("token_rules");
    assert!(
        report.contains(
            "\"rule\": \"btree-procset\", \"file\": \"crates/detectors/src/lib.rs\", \"line\": 8"
        ),
        "{report}"
    );
    // `1e-3` and `1000.0`, both on the hot path's side of the file…
    assert_eq!(report.matches("\"rule\": \"float\"").count(), 2, "{report}");
    // …and nothing from the `#[cfg(test)]` module.
    assert_eq!(report.matches("\"rule\": ").count(), 3, "{report}");
}

#[test]
fn members_without_workspace_lints_are_caught() {
    let report = run_fixture("unlinted_member");
    assert!(report.contains("\"rule\": \"missing-workspace-lints\""), "{report}");
    assert!(report.contains("crates/bad/Cargo.toml"), "{report}");
    assert!(!report.contains("crates/good/Cargo.toml"), "{report}");
}

#[test]
fn graph_out_writes_dot_and_json_dumps() {
    let dot_path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("sih-analysis-graph-{}.dot", std::process::id()));
    let out = bin()
        .args(["--root"])
        .arg(workspace_root())
        .args(["--graph-out"])
        .arg(&dot_path)
        .output()
        .expect("invariant: the sih-analysis binary is built for integration tests");
    assert!(out.status.success());
    let dot = std::fs::read_to_string(&dot_path).expect("invariant: --graph-out file written");
    std::fs::remove_file(&dot_path).ok();
    assert!(dot.starts_with("digraph callgraph"), "{}", &dot[..dot.len().min(200)]);
    assert!(dot.contains("->"));
    assert!(dot.contains("Simulation::step"));

    let json_path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("sih-analysis-graph-{}.json", std::process::id()));
    let out = bin()
        .args(["--root"])
        .arg(workspace_root())
        .args(["--graph-out"])
        .arg(&json_path)
        .output()
        .expect("invariant: the sih-analysis binary is built for integration tests");
    assert!(out.status.success());
    let json = std::fs::read_to_string(&json_path).expect("invariant: --graph-out file written");
    std::fs::remove_file(&json_path).ok();
    assert!(json.contains("\"nodes\""));
    assert!(json.contains("\"edges\""));
    assert!(json.contains("\"reachable\": true"));
}

#[test]
fn out_flag_writes_the_report_file() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("sih-analysis-report-{}.json", std::process::id()));
    let out = bin()
        .args(["--root"])
        .arg(workspace_root())
        .args(["--format", "json", "--out"])
        .arg(&path)
        .output()
        .expect("invariant: the sih-analysis binary is built for integration tests");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&path).expect("invariant: --out file was written");
    std::fs::remove_file(&path).ok();
    assert_eq!(written, String::from_utf8_lossy(&out.stdout));
    assert!(written.contains("\"ok\": true"));
}

#[test]
fn usage_errors_exit_2() {
    let out = bin().arg("--bogus").output().expect("invariant: binary runs");
    assert_eq!(out.status.code(), Some(2));
}
