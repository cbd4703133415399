//! End-to-end tests of the `lab` binary: argument handling, exit codes,
//! JSON output.

use std::process::Command;

fn lab() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lab"))
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = lab().output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
    assert!(err.contains("e1"), "{err}");
}

/// Every experiment id the usage text offers runs as `lab <id>`; the
/// ones whose names a bench verb claims are listed apart.
#[test]
fn every_listed_experiment_id_parses_to_an_experiment() {
    let out = lab().output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    let listed = err
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .unwrap_or_else(|| panic!("no experiment list: {err}"));
    let ids: Vec<&str> = listed.split(", ").collect();
    assert_eq!(ids.len(), 16, "{listed}");
    for id in ids {
        let inv = sih_lab::cli::parse_args(&[id.to_string()]).expect("a listed id parses");
        assert!(
            matches!(inv.verb, sih_lab::cli::Verb::Experiment(..)),
            "`lab {id}` is no experiment"
        );
    }
    assert!(
        err.contains("experiments run only inside `lab all`: faults, byzantine, fuzz"),
        "{err}"
    );
}

#[test]
fn unknown_command_fails() {
    let out = lab().arg("e99").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn single_experiment_succeeds_and_prints_report() {
    let out =
        lab().args(["e7", "--n", "4", "--k", "1", "--seeds", "1"]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[E7]"), "{text}");
    assert!(text.contains("OK"), "{text}");
}

#[test]
fn json_flag_writes_reports() {
    let dir = std::env::temp_dir().join(format!("lab-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reports.json");
    let out =
        lab().args(["e14", "--seeds", "2", "--json"]).arg(&path).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    let reports = sih_lab::json::parse(&json).unwrap();
    assert_eq!(reports[0]["id"], "e14");
    assert_eq!(reports[0]["ok"], true);
    assert!(reports[0]["wall_ms"].as_f64().unwrap() >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_flag_does_not_change_results() {
    let dir = std::env::temp_dir().join(format!("lab-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut bodies = Vec::new();
    for threads in ["1", "2"] {
        let path = dir.join(format!("reports-{threads}.json"));
        let out = lab()
            .args(["e1", "--n", "4", "--seeds", "2", "--threads", threads, "--json"])
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let reports =
            sih_lab::ExperimentReport::batch_from_json(&std::fs::read_to_string(&path).unwrap())
                .unwrap();
        assert_eq!(reports.len(), 1);
        // Compare everything except the (wall-clock) timing fields,
        // which batch_from_json already ignores.
        bodies.push(format!("{:?}", reports[0]));
    }
    assert_eq!(bodies[0], bodies[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explore_command_writes_the_bench_artifact() {
    let dir = std::env::temp_dir().join(format!("lab-cli-explore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_explore.json");
    let out = lab()
        .args(["explore", "--depth", "6", "--threads", "1", "--json"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[explore]"), "{text}");
    assert!(text.contains("OK"), "{text}");
    let json = sih_lab::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(json.get("ok").as_bool(), Some(true));
    assert_eq!(json.get("verdicts_agree").as_bool(), Some(true));
    assert!(json.get("state_reduction").as_f64().unwrap() > 1.0);
    assert!(json.get("reduced").get("states_per_sec").as_f64().unwrap() > 0.0);
    assert!(json.get("unreduced").get("states").as_u64().unwrap() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure1_renders_the_matrix() {
    let out = lab()
        .args(["figure1", "--n", "4", "--k", "1", "--seeds", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 1"), "{text}");
    assert!(text.contains("HOLDS"), "{text}");
    assert!(!text.contains("REFUTED"), "{text}");
}

/// Bad command lines are rejected before anything runs: no report, no
/// panic, exit 1, and `message` on stderr.
fn assert_rejected(args: &[&str], message: &str) {
    let out = lab().args(args).output().expect("binary runs");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(!out.status.success(), "{args:?} succeeded: {stdout}");
    assert!(stdout.is_empty(), "{args:?} printed a report: {stdout}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains(message), "{stderr}");
}

#[test]
fn experiment_with_k_beyond_half_of_n_is_rejected() {
    assert_rejected(&["e5", "--n", "6", "--k", "4", "--seeds", "1"], "need n ≥ 3, 1 ≤ k ≤ n/2");
}

#[test]
fn figure1_with_too_few_processes_is_rejected() {
    assert_rejected(&["figure1", "--n", "2", "--seeds", "1"], "need n ≥ 3, 1 ≤ k ≤ n/2");
}

#[test]
fn malformed_missing_and_unread_flags_are_rejected() {
    assert_rejected(&["faults", "--n", "x"], "error: --n takes an integer, got `x`");
    assert_rejected(&["faults", "--n"], "error: missing value for --n");
    assert_rejected(&["scale", "--n", "5", "--depth", "3"], "error: `lab scale` does not take --n");
}

#[test]
fn gate_names_the_first_differing_path_and_exits_one() {
    let dir = std::env::temp_dir().join(format!("lab-cli-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let base = write("base.json", r#"{"cells": [{"live": 3, "wall_ms": 1.5}], "workers": 1}"#);
    let same = write("same.json", r#"{"cells": [{"live": 3, "wall_ms": 9.0}], "workers": 8}"#);
    let moved = write("moved.json", r#"{"cells": [{"live": 2, "wall_ms": 1.5}], "workers": 1}"#);

    let out = lab().arg("gate").arg(&base).arg(&same).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = lab().arg("gate").arg(&base).arg(&moved).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("$.cells[0].live"));

    let out = lab().args(["gate", "--threads", "1"]).arg(&base).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "the gate takes no flags");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replaying_a_schedule_with_an_out_of_range_process_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("lab-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("crash-p9.schedule");
    let text = "sih-schedule v2\nchecker: fig2\nn: 3\nmax-steps: 50\nverdict: ok\ncrash: p9 @ 5\n";
    std::fs::write(&path, text).unwrap();
    let out = lab().args(["repro", "replay"]).arg(&path).output().expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains("line 6: process p9 out of range for n = 3"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that has gone away (`lab … | head`) ends `lab` quietly: no
/// panic, no backtrace, the status of a writer `SIGPIPE` ended.
#[test]
fn a_closed_stdout_pipe_ends_lab_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = lab()
        .args(["e14", "--seeds", "1"])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.is_empty(), "{err}");
    assert_eq!(out.status.code(), Some(141), "{err}");
}
