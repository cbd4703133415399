//! Tier-1 guard on the committed baselines.
//!
//! `BENCH_faults.json` and `BENCH_byzantine.json` are regenerated
//! single-threaded, at the `n`, seed count and step budget the committed
//! files record, and must agree with them in every field `lab gate`
//! compares (everything but wall clock and runner-dependent fields).
//! `tests/golden/experiments.json` pins every experiment report the same
//! way.

use sih_lab::json::{first_difference, parse, Value};
use sih_lab::{
    run_byzantine_bench, run_experiment, run_faults_bench, ByzantineLabConfig, ClaimConfig,
    FaultsLabConfig, EXPERIMENT_IDS,
};
use std::path::Path;

fn committed(file: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {file}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn field(v: &Value, key: &str) -> u64 {
    v.get(key).as_u64().unwrap_or_else(|| panic!("baseline has no integer `{key}`"))
}

/// Compares exactly as `lab gate` does: on the written JSON text.
fn assert_matches(file: &str, base: &Value, fresh: Value) {
    let fresh = parse(&fresh.to_string_pretty()).expect("fresh record parses");
    if let Some(path) = first_difference(base, &fresh) {
        panic!("fresh run differs from the committed {file} at {path}");
    }
}

#[test]
fn faults_matrix_reproduces_its_committed_baseline() {
    let base = committed("BENCH_faults.json");
    let cfg = FaultsLabConfig {
        n: field(&base, "n") as usize,
        seeds: field(&base, "seeds"),
        max_steps: field(&base, "max_steps"),
        threads: 1,
    };
    assert_matches("BENCH_faults.json", &base, run_faults_bench(&cfg).to_json());
}

#[test]
fn byzantine_matrix_reproduces_its_committed_baseline() {
    let base = committed("BENCH_byzantine.json");
    let cfg = ByzantineLabConfig {
        n: field(&base, "n") as usize,
        seeds: field(&base, "seeds"),
        max_steps: field(&base, "max_steps"),
        threads: 1,
    };
    assert_matches("BENCH_byzantine.json", &base, run_byzantine_bench(&cfg).to_json());
}

/// The golden file is the output of
/// `lab all --n 4 --k 1 --seeds 1 --threads 1 --json tests/golden/experiments.json`.
#[test]
fn experiment_reports_reproduce_their_golden_file() {
    let golden = committed("tests/golden/experiments.json");
    let cfg = ClaimConfig { n: 4, k: 1, seeds: 1, threads: 1, ..ClaimConfig::default() };
    let fresh = EXPERIMENT_IDS.iter().map(|id| run_experiment(id, &cfg).to_json()).collect();
    assert_matches("tests/golden/experiments.json", &golden, Value::Array(fresh));
}
