//! Figure 5 of the paper: emulating `σ_|X|` from `Σ_X` (Lemma 10).
//!
//! ```text
//! Code for p:
//! 1 if p ∈ X then
//! 2   while true do
//! 3     Y ← queryFD()
//! 4     if Y ⊆ X then output ← (Y, X)
//! 6     else output ← ∅
//! 8 else
//! 9   output ← ⊥
//! ```
//!
//! The generalization of Figure 3: any `X`-register's weakest detector
//! `Σ_X` yields `σ_|X|`, hence (for `|X| = 2k`, via Figure 4) a
//! `2k`-register is harder than `(n−k)`-set agreement (Theorem 8).

use sih_model::{FdOutput, ProcessSet};
use sih_runtime::{Automaton, Effects, StateHasher, StepInput};

/// One process of the Figure 5 emulation.
#[derive(Clone, Debug)]
pub struct Fig5SigmaKFromSigmaX {
    x: ProcessSet,
}

impl Fig5SigmaKFromSigmaX {
    /// The emulation for subset `X` (the emulated detector is `σ_|X|`
    /// with active set `X`).
    ///
    /// # Panics
    ///
    /// Panics if `X` is empty.
    pub fn new(x: ProcessSet) -> Self {
        assert!(!x.is_empty(), "X must be nonempty");
        Fig5SigmaKFromSigmaX { x }
    }

    /// The active set of the emulated `σ_|X|`.
    pub fn x(&self) -> ProcessSet {
        self.x
    }
}

impl Automaton for Fig5SigmaKFromSigmaX {
    type Msg = ();

    fn step(&mut self, input: StepInput<()>, eff: &mut Effects<()>) {
        if self.x.contains(input.me) {
            match input.fd().trust() {
                Some(y) if y.is_subset(self.x) => {
                    eff.set_output(FdOutput::TrustActive { trust: y, active: self.x });
                }
                _ => eff.set_output(FdOutput::EMPTY_TRUST),
            }
        } else {
            eff.set_output(FdOutput::Bot);
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.x);
    }
}

/// Builds the `n` Figure 5 automata.
pub fn fig5_processes(n: usize, x: ProcessSet) -> Vec<Fig5SigmaKFromSigmaX> {
    (0..n).map(|_| Fig5SigmaKFromSigmaX::new(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_detectors::{check_sigma_k, SigmaS};
    use sih_model::{FailurePattern, ProcessId, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn x4() -> ProcessSet {
        ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId))
    }

    fn run_fig5(pattern: &FailurePattern, x: ProcessSet, seed: u64) -> sih_runtime::Trace {
        let det = SigmaS::new(x, pattern, seed);
        let mut sim = Simulation::new(fig5_processes(pattern.n(), x), pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, &det, 5_000);
        sim.into_trace()
    }

    #[test]
    fn emulated_output_satisfies_sigma_k_failure_free() {
        for seed in 0..10 {
            let f = FailurePattern::all_correct(6);
            let tr = run_fig5(&f, x4(), seed);
            check_sigma_k(tr.emulated_history(), &f, x4()).unwrap();
        }
    }

    #[test]
    fn emulated_output_satisfies_sigma_k_in_trigger_case() {
        // Correct ⊆ X-low: Definition 9's non-triviality must hold of the
        // emulated history, which it does because Σ_X's completeness
        // eventually confines lists to Correct ⊆ X.
        for seed in 0..10 {
            let f = FailurePattern::crashed_from_start(
                6,
                ProcessSet::from_iter([2, 3, 4, 5].map(ProcessId)),
            );
            let tr = run_fig5(&f, x4(), seed);
            check_sigma_k(tr.emulated_history(), &f, x4()).unwrap();
        }
    }

    #[test]
    fn emulated_output_with_late_crashes() {
        for seed in 0..10 {
            let f = FailurePattern::builder(6)
                .crash_at(ProcessId(0), Time(30))
                .crash_at(ProcessId(5), Time(10))
                .build();
            let tr = run_fig5(&f, x4(), seed);
            check_sigma_k(tr.emulated_history(), &f, x4()).unwrap();
        }
    }

    #[test]
    fn outside_x_outputs_bot() {
        let f = FailurePattern::all_correct(6);
        let tr = run_fig5(&f, x4(), 0);
        assert!(tr.emulated_history().timeline(ProcessId(4)).final_output().is_bot());
    }

    #[test]
    fn x_equals_pi_special_case() {
        // |X| = n: everyone active, the n = 2k shape of Lemma 11.
        for seed in 0..5 {
            let f = FailurePattern::all_correct(4);
            let x = ProcessSet::full(4);
            let tr = run_fig5(&f, x, seed);
            check_sigma_k(tr.emulated_history(), &f, x).unwrap();
        }
    }
}
