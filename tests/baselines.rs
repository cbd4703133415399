//! Tier-1 guard on the committed baselines.
//!
//! `BENCH_faults.json` and `BENCH_byzantine.json` are regenerated
//! single-threaded, at the `n`, seed count and step budget the committed
//! files record, `BENCH_fuzz.json` at its committed seed, schedule
//! budget and batch size, and `BENCH_scale.json` at its committed
//! ladder top and decision sample. Each must agree with its committed file in
//! every field `lab gate` compares (everything but wall clock and
//! runner-dependent fields) — for the fuzzer that includes the distinct
//! fingerprint count and the corpus digest, so any change to what equal
//! state fingerprints mean fails here; for the scale tier it includes
//! the harness heap bytes, which count the fingerprint caches, so a
//! scale run that starts allocating one fails here too.
//! `tests/golden/experiments.json` pins every experiment report the same
//! way.

use sih_lab::json::{first_difference, parse, Value};
use sih_lab::{
    run_byzantine_bench, run_experiment, run_faults_bench, run_fuzz_bench, run_scale_bench,
    ByzantineLabConfig, ClaimConfig, FaultsLabConfig, FuzzLabConfig, ScaleLabConfig,
    EXPERIMENT_IDS,
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

/// The committed file is the output of `lab fuzz --seed 0
/// --budget-schedules 1024 --batch 64 --threads 1 --json BENCH_fuzz.json`
/// (no `--corpus`, so no extra seed schedules).
#[test]
fn fuzz_campaign_reproduces_its_committed_baseline() {
    let base = committed("BENCH_fuzz.json");
    let cfg = FuzzLabConfig {
        seed: field(&base, "seed"),
        budget_schedules: field(&base, "budget_schedules"),
        budget_ms: field(&base, "budget_ms"),
        batch: field(&base, "batch") as usize,
        threads: 1,
    };
    assert_matches("BENCH_fuzz.json", &base, run_fuzz_bench(&cfg, &[]).to_json());
}

/// The committed file is the output of `lab scale --max-n 1000 --threads 1
/// --json BENCH_scale.json`.
#[test]
fn scale_ladder_reproduces_its_committed_baseline() {
    let base = committed("BENCH_scale.json");
    let cfg = ScaleLabConfig {
        max_n: field(&base, "max_n") as usize,
        huge: base.get("huge").as_bool().expect("baseline has a boolean `huge`"),
        sample: field(&base, "sample") as usize,
        threads: 1,
    };
    assert_matches("BENCH_scale.json", &base, run_scale_bench(&cfg).to_json());
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
