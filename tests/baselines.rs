//! Tier-1 guard on the committed baselines.
//!
//! Every `BENCH_*.json` file and `tests/golden/experiments.json` names
//! the `lab` command that wrote it (`"command"`). Each test below hands
//! one file to [`gate_file`] — the code behind `lab gate FILE` — which
//! reruns that command in-process at `--threads 1` and 4 and compares
//! each run with the file in every field `lab gate` compares (everything
//! but wall clock and runner-dependent fields). For the fuzzer that
//! includes the distinct fingerprint count and the corpus digest, so any
//! change to what equal state fingerprints mean fails here; for the
//! scale tier it includes the harness heap bytes, which count the
//! fingerprint caches. A new baseline needs one line in the table.

use sih_lab::gate_file;
use std::path::Path;

macro_rules! baselines {
    ($($test:ident: $file:literal,)*) => {$(
        #[test]
        fn $test() {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join($file);
            if let Err(e) = gate_file(&path) {
                panic!("{}: {e}", $file);
            }
        }
    )*};
}

baselines! {
    explore_bench_reproduces_its_committed_baseline: "BENCH_explore.json",
    faults_matrix_reproduces_its_committed_baseline: "BENCH_faults.json",
    byzantine_matrix_reproduces_its_committed_baseline: "BENCH_byzantine.json",
    fuzz_campaign_reproduces_its_committed_baseline: "BENCH_fuzz.json",
    scale_ladder_reproduces_its_committed_baseline: "BENCH_scale.json",
    experiment_reports_reproduce_their_golden_file: "tests/golden/experiments.json",
}
