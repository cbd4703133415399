//! Experiment harness for the *Sharing is Harder than Agreeing*
//! reproduction: every figure and claim of the paper regenerated by a
//! runnable experiment (`E1…E15`), with JSON records for bookkeeping.
//! Every experiment takes a [`ClaimConfig`]; E1–E9 run and judge their
//! Figure 1 relations through `sih::claims`, keeping only their own
//! sweep shape and report formatting here.
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
//! use sih_lab::{run_experiment, ClaimConfig};
//!
//! let cfg = ClaimConfig { n: 4, k: 1, seeds: 1, ..ClaimConfig::default() };
//! let report = run_experiment("e3", &cfg);
//! assert!(report.ok);
//! ```

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "tooling: the bench verbs time runs with Instant, and `lab gate` ignores every wall-clock field"
)]

mod bench;
mod byzantine;
pub mod cli;
mod experiments;
mod explore;
mod faults;
mod fuzz;
pub mod json;
mod report;
pub mod repro;
mod scale;

pub use bench::{gate_file, Bench, BenchReport, GateError, GATE_THREADS};
pub use byzantine::{
    cell_witness, run_byzantine_bench, ByzantineBenchReport, ByzantineCell, ByzantineLabConfig,
    RungStats,
};
pub use experiments::{run_experiment, EXPERIMENT_IDS};
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
pub use sih::claims::ClaimConfig;

/// Renders the paper's Figure 1 (the results summary) with this
/// reproduction's verdicts, as preformatted text in a frame as wide as
/// its widest row.
pub fn render_figure1(cfg: &ClaimConfig) -> String {
    let report = run_experiment("e12", cfg);
    let title = "Figure 1 — Sharing is Harder than Agreeing (PODC'08): results, machine-checked";
    let width =
        report.details.iter().map(|l| l.chars().count()).fold(title.chars().count(), usize::max);
    let rule = "─".repeat(width + 2);
    let mut out = format!("┌{rule}┐\n│ {title:<width$} │\n├{rule}┤\n");
    for line in &report.details {
        out.push_str(&format!("│ {line:<width$} │\n"));
    }
    out.push_str(&format!("└{rule}┘\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_renders_every_claim_row() {
        let cfg = ClaimConfig { n: 4, k: 1, seeds: 1, ..ClaimConfig::default() };
        let text = render_figure1(&cfg);
        assert!(text.contains("σ → (n−1)-set agreement"));
        assert!(text.contains("anti-Ω ≺ σ"));
        assert!(text.contains("HOLDS") || text.contains("COUNTEREXAMPLE"));
        assert!(!text.contains("REFUTED"));
    }

    #[test]
    fn figure1_frame_fits_its_widest_row() {
        let cfg = ClaimConfig { n: 6, k: 2, seeds: 1, ..ClaimConfig::default() };
        let text = render_figure1(&cfg);
        let widths: Vec<usize> = text.lines().map(|l| l.chars().count()).collect();
        assert!(widths.iter().all(|w| *w == widths[0]), "ragged frame: {widths:?}\n{text}");
    }
}
