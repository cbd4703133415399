//! Experiment harness for the *Sharing is Harder than Agreeing*
//! reproduction: every figure and claim of the paper regenerated by a
//! runnable experiment (`E1…E12`), with JSON records for bookkeeping.
//!
//! Run from the CLI:
//!
//! ```text
//! cargo run -p sih-lab --bin lab -- e1            # one experiment
//! cargo run -p sih-lab --bin lab -- figure1      # the results matrix
//! cargo run -p sih-lab --bin lab -- all --json out.json
//! ```
//!
//! # Example (library use)
//!
//! ```
//! use sih_lab::{run_experiment, LabConfig};
//!
//! let cfg = LabConfig { n: 4, k: 1, seeds: 1, ..LabConfig::default() };
//! let report = run_experiment("e3", &cfg);
//! assert!(report.ok);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod byzantine;
mod experiments;
mod explore;
mod faults;
mod fuzz;
pub mod json;
mod report;
pub mod repro;
mod scale;

pub use byzantine::{
    cell_witness, run_byzantine_bench, ByzantineBenchReport, ByzantineCell, ByzantineLabConfig,
    RungStats,
};
pub use experiments::{run_experiment, LabConfig, EXPERIMENT_IDS};
pub use explore::{run_explore_bench, ExploreBenchReport, ExploreLabConfig};
pub use faults::{
    run_fault_cell, run_faults_bench, FaultCell, FaultsBenchReport, FaultsLabConfig, StarvedLeg,
};
pub use fuzz::{
    load_seed_schedules, run_fuzz_bench, FuzzBenchReport, FuzzLabConfig, FuzzWitness,
    FUZZ_WORKLOADS,
};
pub use report::{ExperimentReport, RunStats};
pub use scale::{run_scale_bench, ScaleBenchReport, ScaleCell, ScaleLabConfig};

/// Renders the paper's Figure 1 (the results summary) with this
/// reproduction's verdicts, as preformatted text.
pub fn render_figure1(cfg: &LabConfig) -> String {
    let report = run_experiment("e12", cfg);
    let mut out = String::new();
    out.push_str("┌──────────────────────────────────────────────────────────────────────────────────────────────────┐\n");
    out.push_str("│ Figure 1 — Sharing is Harder than Agreeing (PODC'08): results, machine-checked                  │\n");
    out.push_str("├──────────────────────────────────────────────────────────────────────────────────────────────────┤\n");
    for line in &report.details {
        out.push_str(&format!("│ {line:<96} │\n"));
    }
    out.push_str("└──────────────────────────────────────────────────────────────────────────────────────────────────┘\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_renders_every_claim_row() {
        let cfg = LabConfig { n: 4, k: 1, seeds: 1, ..LabConfig::default() };
        let text = render_figure1(&cfg);
        assert!(text.contains("σ → (n−1)-set agreement"));
        assert!(text.contains("anti-Ω ≺ σ"));
        assert!(text.contains("HOLDS") || text.contains("COUNTEREXAMPLE"));
        assert!(!text.contains("REFUTED"));
    }
}
