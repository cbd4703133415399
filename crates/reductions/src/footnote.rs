//! Footnote 1 of the paper, executable: *"In a system of two processes,
//! the two abstractions are equivalent [9]."*
//!
//! For `n = 2` the separation collapses because `σ`'s non-triviality is
//! always armed: `Correct(F) ⊆ A = Π` in every pattern, so `σ` must
//! eventually output nonempty subsets of correct processes — which is
//! all `Σ_{p,q}` asks. Concretely:
//!
//! * `σ ⪯ Σ_{p,q}` holds at every `n` (Figure 3);
//! * `Σ_{p,q} ⪯ σ` holds **at `n = 2`** via the very mirror strategy
//!   that Lemma 7 defeats for `n ≥ 3` (the defeat needs a third process
//!   `a` to keep `p` alive while `σ` stays silent — with `n = 2` there
//!   is no such process, and silence would violate σ's own
//!   non-triviality).
//!
//! [`two_process_equivalence`] checks both directions by running the
//! emulations across all 2-process failure patterns and validating the
//! emulated histories against the target specifications.

use crate::candidates::MirrorPairCandidate;
use crate::fig3::fig3_processes;
use sih_detectors::{check_sigma, check_sigma_s, Sigma, SigmaMode, SigmaS};
use sih_model::{FailurePattern, ProcessId, ProcessSet, Time};
use sih_runtime::{FairScheduler, Simulation};
use std::fmt;

/// Result of the two-process equivalence check.
#[derive(Clone, Debug)]
pub struct EquivalenceReport {
    /// `σ ⪯ Σ_{p,q}` runs validated (Figure 3 direction).
    pub sigma_from_register_runs: usize,
    /// `Σ_{p,q} ⪯ σ` runs validated (mirror direction, `n = 2` only).
    pub register_from_sigma_runs: usize,
    /// First failure, if any (never expected).
    pub failure: Option<String>,
}

impl EquivalenceReport {
    /// Whether both directions validated on every run.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            None => write!(
                f,
                "n=2 equivalence: σ⪯Σ over {} runs, Σ⪯σ over {} runs — both hold",
                self.sigma_from_register_runs, self.register_from_sigma_runs
            ),
            Some(e) => write!(f, "n=2 equivalence FAILED: {e}"),
        }
    }
}

/// The three 2-process failure patterns (both correct, only `p0`, only
/// `p1` — crash times vary by seed below).
fn two_process_patterns() -> Vec<FailurePattern> {
    vec![
        FailurePattern::all_correct(2),
        FailurePattern::builder(2).crash_at(ProcessId(1), Time(12)).build(),
        FailurePattern::builder(2).crash_at(ProcessId(0), Time(12)).build(),
        FailurePattern::crashed_from_start(2, ProcessSet::singleton(ProcessId(1))),
        FailurePattern::crashed_from_start(2, ProcessSet::singleton(ProcessId(0))),
    ]
}

/// Checks both reduction directions at `n = 2` over `seeds` seeds per
/// pattern.
pub fn two_process_equivalence(seeds: u64) -> EquivalenceReport {
    let pair = ProcessSet::full(2);
    let (p, q) = (ProcessId(0), ProcessId(1));
    let mut report = EquivalenceReport {
        sigma_from_register_runs: 0,
        register_from_sigma_runs: 0,
        failure: None,
    };

    for pattern in two_process_patterns() {
        for seed in 0..seeds {
            // Direction 1: σ from Σ_{p,q} (Figure 3).
            let det = SigmaS::new(pair, &pattern, seed);
            let mut sim = Simulation::new(fig3_processes(2, p, q), pattern.clone());
            sim.run(&mut FairScheduler::new(seed), &det, 4_000);
            if let Err(e) = check_sigma(sim.trace().emulated_history(), &pattern, pair) {
                report.failure = Some(format!("σ⪯Σ, {pattern:?}, seed {seed}: {e}"));
                return report;
            }
            report.sigma_from_register_runs += 1;

            // Direction 2: Σ_{p,q} from σ — the mirror emulation, correct
            // precisely because n = 2 keeps non-triviality armed.
            for mode in [SigmaMode::Reticent, SigmaMode::Generous] {
                let sigma = Sigma::new(p, q, &pattern, seed).with_mode(mode);
                let procs = (0..2).map(|_| MirrorPairCandidate::new(p, q)).collect();
                let mut sim = Simulation::new(procs, pattern.clone());
                sim.run(&mut FairScheduler::new(seed), &sigma, 4_000);
                if let Err(e) = check_sigma_s(sim.trace().emulated_history(), &pattern, pair) {
                    report.failure = Some(format!("Σ⪯σ, {pattern:?}, seed {seed}: {e}"));
                    return report;
                }
                report.register_from_sigma_runs += 1;
            }
        }
    }
    report
}

/// §6 of the paper, executable: *"σ is strictly weaker than the result
/// of a partition applied to Σ."*
///
/// The partitioning approach of \[7\] runs `Σ` inside a chosen subset; for
/// a pair `{p, q}` that is exactly `Σ_{p,q}`. Strictness of
/// `σ ≺ Σ_{p,q}` then has two halves, both already mechanized:
///
/// * `σ ⪯ Σ_{p,q}` — Figure 3's emulation (Lemma 6);
/// * `Σ_{p,q} ⋠ σ` — Lemma 7's construction defeats every candidate.
///
/// This function runs both halves at the given size and returns the
/// human-readable evidence (panicking if either half failed, which would
/// contradict the paper).
pub fn partition_remark_demo(n: usize, seed: u64) -> String {
    use sih_model::FailurePattern;
    let (p, q) = (ProcessId(0), ProcessId(1));
    let pair = ProcessSet::from_iter([p, q]);

    // Half 1: σ ⪯ Σ_{p,q} via Figure 3.
    let pattern = FailurePattern::all_correct(n);
    let det = SigmaS::new(pair, &pattern, seed);
    let mut sim = Simulation::new(fig3_processes(n, p, q), pattern.clone());
    sim.run(&mut FairScheduler::new(seed), &det, 4_000);
    check_sigma(sim.trace().emulated_history(), &pattern, pair)
        .expect("Lemma 6: Figure 3 emulates σ from the partitioned Σ");

    // Half 2: Σ_{p,q} ⋠ σ via Lemma 7 (needs the third process).
    let a = ProcessId(2);
    let defeat = crate::adversary::lemma7_defeat(
        &|| (0..n).map(|_| MirrorPairCandidate::new(p, q)).collect::<Vec<_>>(),
        n,
        p,
        q,
        a,
        seed,
        30_000,
    );
    format!(
        "σ ≺ Σ_{{p,q}} (the pair-partitioned Σ): emulation legal per Definition 3; \
         converse defeated — {defeat}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section6_partition_remark_holds() {
        // §6: σ is strictly weaker than Σ partitioned to the active pair.
        let evidence = partition_remark_demo(4, 5);
        assert!(evidence.contains("≺"), "{evidence}");
        assert!(evidence.contains("defeated"), "{evidence}");
    }

    #[test]
    fn equivalence_holds_at_n_2() {
        let report = two_process_equivalence(6);
        assert!(report.ok(), "{report}");
        assert!(report.sigma_from_register_runs >= 30);
        assert!(report.register_from_sigma_runs >= 60);
    }

    #[test]
    fn the_mirror_strategy_fails_already_at_n_3() {
        // The same strategy that proves Σ⪯σ at n=2 is defeated at n=3 —
        // the collapse is exactly the footnote's boundary.
        let (p, q, a) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let defeat = crate::adversary::lemma7_defeat(
            &|| (0..3).map(|_| MirrorPairCandidate::new(p, q)).collect::<Vec<_>>(),
            3,
            p,
            q,
            a,
            5,
            20_000,
        );
        // Any defeat kind witnesses the failure.
        let text = defeat.to_string();
        assert!(text.contains("violated"), "{text}");
    }

    #[test]
    fn report_display() {
        let r = EquivalenceReport {
            sigma_from_register_runs: 1,
            register_from_sigma_runs: 2,
            failure: None,
        };
        assert!(r.to_string().contains("both hold"));
    }
}
