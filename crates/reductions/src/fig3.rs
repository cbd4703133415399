//! Figure 3 of the paper: emulating `σ` from `Σ_{p,q}` (Lemma 6).
//!
//! ```text
//! Code for p_i:
//! 1 if p_i ∈ {p, q} then
//! 2   while true do
//! 3     Y ← queryFD()
//! 4     if Y ⊆ {p, q} then output ← Y
//! 6     else output ← ∅
//! 8 else
//! 9   output ← ⊥
//! ```
//!
//! The emulation is purely local — no messages. Together with
//! Proposition 1 this shows a `{p,q}`-register is *harder* than set
//! agreement: `Σ_{p,q}` (weakest for the register) yields `σ` (sufficient
//! for set agreement, Figure 2).

use sih_model::{FdOutput, ProcessId, ProcessSet};
use sih_runtime::{Automaton, Effects, StateHasher, StepInput};

/// One process of the Figure 3 emulation.
#[derive(Clone, Debug)]
pub struct Fig3SigmaFromSigmaPair {
    pair: ProcessSet,
}

impl Fig3SigmaFromSigmaPair {
    /// The emulation for the pair `{p, q}`.
    ///
    /// # Panics
    ///
    /// Panics if `p == q`.
    pub fn new(p: ProcessId, q: ProcessId) -> Self {
        assert_ne!(p, q, "the pair consists of two distinct processes");
        Fig3SigmaFromSigmaPair { pair: ProcessSet::from_iter([p, q]) }
    }

    /// The active pair the emulated `σ` will exhibit.
    pub fn pair(&self) -> ProcessSet {
        self.pair
    }
}

impl Automaton for Fig3SigmaFromSigmaPair {
    type Msg = ();

    fn step(&mut self, input: StepInput<()>, eff: &mut Effects<()>) {
        if self.pair.contains(input.me) {
            match input.fd().trust() {
                Some(y) if y.is_subset(self.pair) => eff.set_output(FdOutput::Trust(y)),
                _ => eff.set_output(FdOutput::EMPTY_TRUST),
            }
        } else {
            eff.set_output(FdOutput::Bot);
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.pair);
    }
}

/// Builds the `n` Figure 3 automata.
pub fn fig3_processes(n: usize, p: ProcessId, q: ProcessId) -> Vec<Fig3SigmaFromSigmaPair> {
    (0..n).map(|_| Fig3SigmaFromSigmaPair::new(p, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_detectors::{check_sigma, SigmaS};
    use sih_model::{FailurePattern, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn pair() -> (ProcessId, ProcessId) {
        (ProcessId(0), ProcessId(1))
    }

    fn run_fig3(pattern: &FailurePattern, seed: u64, steps: u64) -> sih_runtime::Trace {
        let (p, q) = pair();
        let s = ProcessSet::from_iter([p, q]);
        let det = SigmaS::new(s, pattern, seed);
        let mut sim = Simulation::new(fig3_processes(pattern.n(), p, q), pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, &det, steps);
        sim.into_trace()
    }

    #[test]
    fn emulated_output_satisfies_sigma_failure_free() {
        for seed in 0..10 {
            let f = FailurePattern::all_correct(4);
            let tr = run_fig3(&f, seed, 4_000);
            check_sigma(tr.emulated_history(), &f, ProcessSet::from_iter([0, 1].map(ProcessId)))
                .unwrap();
        }
    }

    #[test]
    fn emulated_output_satisfies_sigma_when_only_pair_correct() {
        // The non-triviality case: Correct ⊆ {p, q}.
        for seed in 0..10 {
            let f =
                FailurePattern::crashed_from_start(4, ProcessSet::from_iter([2, 3].map(ProcessId)));
            let tr = run_fig3(&f, seed, 4_000);
            check_sigma(tr.emulated_history(), &f, ProcessSet::from_iter([0, 1].map(ProcessId)))
                .unwrap();
        }
    }

    #[test]
    fn emulated_output_satisfies_sigma_with_crashes() {
        for seed in 0..10 {
            let f = FailurePattern::builder(5)
                .crash_at(ProcessId(1), Time(25))
                .crash_from_start(ProcessId(4))
                .build();
            let tr = run_fig3(&f, seed, 6_000);
            check_sigma(tr.emulated_history(), &f, ProcessSet::from_iter([0, 1].map(ProcessId)))
                .unwrap();
        }
    }

    #[test]
    fn non_pair_processes_output_bot() {
        let f = FailurePattern::all_correct(4);
        let tr = run_fig3(&f, 3, 2_000);
        let h = tr.emulated_history();
        assert!(h.timeline(ProcessId(2)).final_output().is_bot());
        assert!(h.timeline(ProcessId(3)).final_output().is_bot());
    }

    #[test]
    fn oversized_trust_sets_become_empty() {
        // Σ_{p,q} lists may contain processes outside the pair (e.g. Π
        // before stabilization); Figure 3 maps those to ∅.
        let f = FailurePattern::crashed_from_start(4, ProcessSet::from_iter([2, 3].map(ProcessId)));
        // Delay stabilization so early lists include outsiders.
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let det = SigmaS::new(s, &f, 5).with_stabilization(Time(500));
        let mut sim = Simulation::new(fig3_processes(4, ProcessId(0), ProcessId(1)), f.clone());
        let mut sched = FairScheduler::new(5);
        sim.run(&mut sched, &det, 3_000);
        let h = sim.trace().emulated_history();
        // Well-formedness held throughout (all outputs ⊆ pair), which
        // check_sigma verifies including the mapped-to-∅ steps.
        check_sigma(h, &f, s).unwrap();
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_pair_rejected() {
        let _ = Fig3SigmaFromSigmaPair::new(ProcessId(1), ProcessId(1));
    }
}
