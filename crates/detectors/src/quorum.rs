//! The message-passing implementation of `Σ_S` in majority-correct
//! environments (§2.2 of the paper).
//!
//! > "Every process periodically sends a message to all, asking for
//! > replies, waits for a majority of these, and outputs the list of
//! > processes which indeed replied."
//!
//! [`QuorumSigma`] is that algorithm as an [`Automaton`]: members of `S`
//! ping all processes in numbered rounds, collect acks for the current
//! round, and publish each completed majority as their trusted list.
//! Every output is either `Π` (the initialization) or a majority of `Π`,
//! so any two outputs intersect; once crashes stop and stale acks drain,
//! completed rounds contain only correct responders, giving completeness.
//! This is the constructive half of "`Σ_S` is implementable wherever a
//! majority is correct" — the substrate Theorem 12's argument runs on.

use sih_model::{FdOutput, ProcSet, ProcessSet};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};

/// Protocol messages of the quorum `Σ` emulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum QuorumMsg {
    /// "Are you there?" for the sender's given round.
    Ping(u64),
    /// "I am" for the given round.
    Ack(u64),
}

impl StateHash for QuorumMsg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            QuorumMsg::Ping(r) => {
                h.write_u64(0);
                h.write(r);
            }
            QuorumMsg::Ack(r) => {
                h.write_u64(1);
                h.write(r);
            }
        }
    }
}

/// One process of the §2.2 quorum algorithm emulating `Σ_S`.
///
/// Run it at **every** process (non-members of `S` still answer pings;
/// they output `⊥`). The emulated output is published via
/// [`Effects::set_output`] and lands in the trace's emulated history,
/// where [`check_sigma_s`](crate::check_sigma_s) can validate it.
#[derive(Clone, Debug)]
pub struct QuorumSigma {
    s: ProcessSet,
    n: usize,
    round: u64,
    // Bitset ack accumulator with an O(1) cached count — the majority
    // test on every ack is a compare, not a popcount. Fingerprints hash
    // its trimmed words, never its capacity or cached count.
    acks: ProcSet,
    started: bool,
}

impl QuorumSigma {
    /// A quorum emulator for `Σ_S` in a system of `n` processes.
    pub fn new(s: ProcessSet, n: usize) -> Self {
        assert!(!s.is_empty() && s.is_subset(ProcessSet::full(n)));
        QuorumSigma { s, n, round: 0, acks: ProcSet::with_capacity(n), started: false }
    }

    /// An emulator for the full multi-writer register detector `Σ_Π`.
    pub fn full(n: usize) -> Self {
        Self::new(ProcessSet::full(n), n)
    }

    /// Majority threshold `⌊n/2⌋ + 1`.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// The round this member is currently collecting (diagnostics).
    pub fn round(&self) -> u64 {
        self.round
    }
}

impl Automaton for QuorumSigma {
    type Msg = QuorumMsg;

    fn step(&mut self, input: StepInput<QuorumMsg>, eff: &mut Effects<QuorumMsg>) {
        if !self.started {
            self.started = true;
            if self.s.contains(input.me) {
                // Before the first majority completes, trusting Π is the
                // only list that is guaranteed to intersect everything.
                eff.set_output(FdOutput::Trust(ProcessSet::full(self.n)));
                eff.send_all(self.n, QuorumMsg::Ping(self.round));
            } else {
                eff.set_output(FdOutput::Bot);
            }
        }
        let Some(env) = input.delivered else { return };
        match env.payload {
            QuorumMsg::Ping(r) => {
                eff.send(env.from, QuorumMsg::Ack(r));
            }
            QuorumMsg::Ack(r) => {
                if self.s.contains(input.me) && r == self.round {
                    self.acks.insert(env.from);
                    if self.acks.len() >= self.majority() {
                        eff.set_output(FdOutput::Trust(self.acks.to_process_set()));
                        self.round += 1;
                        self.acks.clear();
                        eff.send_all(self.n, QuorumMsg::Ping(self.round));
                    }
                }
            }
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.s);
        h.write(&self.n);
        h.write(&self.round);
        h.write(&self.acks);
        h.write(&self.started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::check_sigma_s;
    use sih_model::{FailurePattern, NoDetector, ProcessId, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn run_quorum(
        pattern: FailurePattern,
        s: ProcessSet,
        seed: u64,
        steps: u64,
    ) -> sih_runtime::Trace {
        let n = pattern.n();
        let procs = (0..n).map(|_| QuorumSigma::new(s, n)).collect();
        let mut sim = Simulation::new(procs, pattern);
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, &NoDetector, steps);
        sim.into_trace()
    }

    #[test]
    fn emulated_history_satisfies_sigma_s_failure_free() {
        for seed in 0..6 {
            let f = FailurePattern::all_correct(5);
            let tr = run_quorum(f.clone(), ProcessSet::full(5), seed, 6_000);
            check_sigma_s(tr.emulated_history(), &f, ProcessSet::full(5)).unwrap();
        }
    }

    #[test]
    fn emulated_history_satisfies_sigma_s_with_minority_crashes() {
        for seed in 0..6 {
            let f = FailurePattern::builder(5)
                .crash_at(ProcessId(4), Time(60))
                .crash_from_start(ProcessId(3))
                .build();
            assert!(f.has_correct_majority());
            let tr = run_quorum(f.clone(), ProcessSet::full(5), seed, 8_000);
            check_sigma_s(tr.emulated_history(), &f, ProcessSet::full(5)).unwrap();
        }
    }

    #[test]
    fn subset_members_output_lists_others_output_bot() {
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let f = FailurePattern::all_correct(4);
        let tr = run_quorum(f.clone(), s, 3, 4_000);
        check_sigma_s(tr.emulated_history(), &f, s).unwrap();
        let h = tr.emulated_history();
        assert!(h.timeline(ProcessId(2)).final_output().is_bot());
        assert!(h.timeline(ProcessId(0)).final_output().trust().is_some());
    }

    #[test]
    fn outputs_shrink_to_correct_majority() {
        let f = FailurePattern::builder(5)
            .crash_at(ProcessId(4), Time(40))
            .crash_from_start(ProcessId(3))
            .build();
        let tr = run_quorum(f.clone(), ProcessSet::full(5), 9, 8_000);
        let fin = tr.emulated_history().timeline(ProcessId(0)).final_output();
        let list = fin.trust().expect("a trusted list");
        assert!(list.is_subset(f.correct()), "{list}");
        assert!(list.len() >= 3, "majority-sized: {list}");
    }

    #[test]
    fn majority_threshold() {
        assert_eq!(QuorumSigma::full(5).majority(), 3);
        assert_eq!(QuorumSigma::full(4).majority(), 3);
        assert_eq!(QuorumSigma::full(3).majority(), 2);
    }

    #[test]
    fn rounds_advance_under_fair_scheduling() {
        let f = FailurePattern::all_correct(3);
        let procs = (0..3).map(|_| QuorumSigma::full(3)).collect();
        let mut sim = Simulation::new(procs, f);
        let mut sched = FairScheduler::new(0);
        sim.run(&mut sched, &NoDetector, 2_000);
        assert!(sim.process(ProcessId(0)).round() > 5);
    }
}
