//! Figure 2 of the paper: implementing `(n−1)`-set agreement using `σ`.
//!
//! The pseudocode, transcribed:
//!
//! ```text
//!  1 to propose(v):
//!  2   if ⊥ = queryFD() then
//!  3     send(D, v) to all
//!  4     decide(v)
//!  5     return
//!  6   else
//!  7     start Task 1 and Task 2
//!  8 Task 1:
//!  9   upon receive(D, ∗):
//! 10     if (D,w) has been received then
//! 11       send(D,w) to all;  decide(w);  return
//! 14 Task 2:
//! 15   Me ← v;  You ← ⊥
//! 16   Phase 1:
//! 17     send (1, Me) to every process except p
//! 18     wait until received (1, ∗) or {p} = queryFD()
//! 19     if (1, w) has been received then You ← w
//! 20   Phase 2:
//! 21     send (2, You) to every process except p
//! 22     wait until received (2, ∗) or {p} = queryFD()
//! 23     if (2, ⊥) has been received then Me ← ⊥
//! 24   Phase 3:   (* ⊥ < v for all v *)
//! 26     w ← max{Me, You}
//! 27     decide(w);  return
//! ```
//!
//! Non-active processes (those `σ` answers `⊥`) decide their own value
//! immediately and broadcast it as a `(D, ·)` message; active processes
//! either adopt such a value (Task 1) or run the three-phase exchange of
//! Task 2, which — thanks to `σ`'s intersection and non-triviality — never
//! lets *both* active processes keep and decide `⊥`-free distinct private
//! values: at least one of the `n` initial values is eliminated
//! (Theorem 4).

use sih_model::{FdOutput, ProcessSet, Value};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};

/// Protocol messages of Figure 2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Fig2Msg {
    /// `(D, w)`: a decided (or non-active) value, flooded.
    Decision(Value),
    /// `(1, Me)`: the Phase 1 value announcement.
    Phase1(Value),
    /// `(2, You)`: the Phase 2 echo; `None` is the paper's `⊥`.
    Phase2(Option<Value>),
}

impl StateHash for Fig2Msg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            Fig2Msg::Decision(w) => {
                h.write_u64(0);
                h.write(w);
            }
            Fig2Msg::Phase1(w) => {
                h.write_u64(1);
                h.write(w);
            }
            Fig2Msg::Phase2(w) => {
                h.write_u64(2);
                h.write(w);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// Before the first step (`propose` not yet executed).
    Start,
    /// Task 2, Phase 1 wait (line 18).
    Phase1,
    /// Task 2, Phase 2 wait (line 22).
    Phase2,
    /// Returned.
    Done,
}

/// One process of the Figure 2 algorithm.
#[derive(Clone, Debug)]
pub struct Fig2SetAgreement {
    v: Value,
    me: Option<Value>,
    you: Option<Value>,
    stage: Stage,
    got_phase1: Option<Value>,
    got_phase2: Option<Option<Value>>,
    decided: Option<Value>,
}

impl Fig2SetAgreement {
    /// A process proposing `v`.
    pub fn new(v: Value) -> Self {
        Fig2SetAgreement {
            v,
            me: None,
            you: None,
            stage: Stage::Start,
            got_phase1: None,
            got_phase2: None,
            decided: None,
        }
    }

    /// The decision, once taken.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn decide_and_return(&mut self, w: Value, n: usize, eff: &mut Effects<Fig2Msg>) {
        eff.send_all(n, Fig2Msg::Decision(w));
        eff.decide(w);
        eff.halt();
        self.decided = Some(w);
        self.stage = Stage::Done;
    }

    /// The wait-condition escape `{p} = queryFD()` of lines 18/22.
    fn fd_is_self_only(input: &StepInput<Fig2Msg>) -> bool {
        input.fd == FdOutput::Trust(ProcessSet::singleton(input.me))
    }
}

impl Automaton for Fig2SetAgreement {
    type Msg = Fig2Msg;

    fn step(&mut self, input: StepInput<Fig2Msg>, eff: &mut Effects<Fig2Msg>) {
        if self.stage == Stage::Done {
            return;
        }

        // propose(v), first step: line 2's ⊥-test.
        if self.stage == Stage::Start {
            if input.fd.is_bot() {
                // Lines 3–5: non-active — broadcast and decide own value.
                self.decide_and_return(self.v, input.n, eff);
                return;
            }
            // Line 7 + Task 2 init (lines 15–17).
            self.me = Some(self.v);
            self.you = None;
            eff.send_others(input.n, input.me, Fig2Msg::Phase1(self.v));
            self.stage = Stage::Phase1;
        }

        // Message intake (Tasks run in parallel; Task 1 may decide).
        if let Some(env) = &input.delivered {
            match env.payload {
                Fig2Msg::Decision(w) => {
                    // Task 1, lines 9–13: relay and adopt.
                    self.decide_and_return(w, input.n, eff);
                    return;
                }
                Fig2Msg::Phase1(w) => {
                    if self.got_phase1.is_none() {
                        self.got_phase1 = Some(w);
                    }
                }
                Fig2Msg::Phase2(w) => {
                    if self.got_phase2.is_none() {
                        self.got_phase2 = Some(w);
                    }
                }
            }
        }

        // Task 2 progress: one wait-condition evaluation per step.
        match self.stage {
            Stage::Phase1 => {
                let escaped_by_fd = Self::fd_is_self_only(&input);
                if self.got_phase1.is_some() || escaped_by_fd {
                    // Line 19.
                    if let Some(w) = self.got_phase1 {
                        self.you = Some(w);
                    }
                    // Line 21.
                    eff.send_others(input.n, input.me, Fig2Msg::Phase2(self.you));
                    self.stage = Stage::Phase2;
                }
            }
            Stage::Phase2 => {
                let escaped_by_fd = Self::fd_is_self_only(&input);
                if self.got_phase2.is_some() || escaped_by_fd {
                    // Line 23.
                    if self.got_phase2 == Some(None) {
                        self.me = None;
                    }
                    // Phase 3, lines 26–27: max with ⊥ < v.
                    let w = std::cmp::max(self.me, self.you).expect(
                        "invariant: validity (Theorem 4) keeps max{Me, You} non-⊥ under a legal σ history",
                    );
                    self.decide_and_return(w, input.n, eff);
                }
            }
            Stage::Start | Stage::Done => {}
        }
    }

    fn halted(&self) -> bool {
        self.stage == Stage::Done
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.v);
        h.write(&self.me);
        h.write(&self.you);
        h.write_u64(self.stage as u64);
        h.write(&self.got_phase1);
        h.write(&self.got_phase2);
        h.write(&self.decided);
    }
}

/// Builds the `n` Figure 2 automata for the given proposals.
pub fn fig2_processes(proposals: &[Value]) -> Vec<Fig2SetAgreement> {
    proposals.iter().map(|&v| Fig2SetAgreement::new(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_k_set_agreement, distinct_proposals};
    use sih_detectors::{Sigma, SigmaMode};
    use sih_model::{FailurePattern, ProcessId, Time};
    use sih_runtime::{FairScheduler, RoundRobinScheduler, Simulation};

    fn run_fig2(pattern: &FailurePattern, sigma: &Sigma, seed: u64) -> sih_runtime::Trace {
        let n = pattern.n();
        let procs = fig2_processes(&distinct_proposals(n));
        let mut sim = Simulation::new(procs, pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, sigma, 60_000);
        sim.into_trace()
    }

    #[test]
    fn failure_free_runs_satisfy_set_agreement() {
        for n in [3usize, 4, 6] {
            for seed in 0..10 {
                let f = FailurePattern::all_correct(n);
                let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
                let tr = run_fig2(&f, &sigma, seed);
                check_k_set_agreement(&tr, &f, &distinct_proposals(n), n - 1).unwrap();
            }
        }
    }

    #[test]
    fn only_actives_correct_still_terminates() {
        // Correct ⊆ A: Task 2 must finish via σ's non-triviality.
        for seed in 0..10 {
            let f =
                FailurePattern::crashed_from_start(4, ProcessSet::from_iter([2, 3].map(ProcessId)));
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let tr = run_fig2(&f, &sigma, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(4), 3).unwrap();
        }
    }

    #[test]
    fn single_correct_active_decides_alone() {
        // q1 faulty from the start, q0 alone: the non-triviality +
        // completeness escape ({p} = queryFD()) unblocks both phases.
        for seed in 0..10 {
            let f =
                FailurePattern::crashed_from_start(3, ProcessSet::from_iter([1, 2].map(ProcessId)));
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let tr = run_fig2(&f, &sigma, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(3), 2).unwrap();
            assert_eq!(tr.decision_of(ProcessId(0)), Some(Value(0)));
        }
    }

    #[test]
    fn late_crash_of_one_active_is_tolerated() {
        for seed in 0..10 {
            let f = FailurePattern::builder(4).crash_at(ProcessId(1), Time(12)).build();
            let sigma =
                Sigma::new(ProcessId(0), ProcessId(1), &f, seed).with_mode(SigmaMode::Generous);
            let tr = run_fig2(&f, &sigma, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(4), 3).unwrap();
        }
    }

    #[test]
    fn at_least_one_value_eliminated_when_actives_finish_task2() {
        // The heart of the theorem: with only the two actives correct, at
        // most ONE value is decided by them via Task 2's max(), and the
        // faulty non-actives decided their own — so not all n values can
        // appear. Run many seeds and require ≤ n−1 distinct decisions.
        for seed in 0..25 {
            let f = FailurePattern::crashed_from_start(3, ProcessSet::singleton(ProcessId(2)));
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let tr = run_fig2(&f, &sigma, seed);
            assert!(tr.distinct_decisions().len() <= 2, "seed {seed}");
        }
    }

    #[test]
    fn round_robin_schedule_also_works() {
        let f = FailurePattern::all_correct(5);
        let sigma = Sigma::new(ProcessId(2), ProcessId(4), &f, 3);
        let procs = fig2_processes(&distinct_proposals(5));
        let mut sim = Simulation::new(procs, f.clone());
        let mut sched = RoundRobinScheduler::new();
        sim.run(&mut sched, &sigma, 60_000);
        check_k_set_agreement(&sim.into_trace(), &f, &distinct_proposals(5), 4).unwrap();
    }

    #[test]
    fn non_active_processes_decide_their_own_value() {
        let f = FailurePattern::all_correct(4);
        let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, 0);
        let tr = run_fig2(&f, &sigma, 1);
        assert_eq!(tr.decision_of(ProcessId(2)), Some(Value(2)));
        assert_eq!(tr.decision_of(ProcessId(3)), Some(Value(3)));
    }

    #[test]
    fn decision_getter_reflects_trace() {
        let f = FailurePattern::all_correct(3);
        let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, 0);
        let procs = fig2_processes(&distinct_proposals(3));
        let mut sim = Simulation::new(procs, f);
        let mut sched = FairScheduler::new(5);
        sim.run(&mut sched, &sigma, 60_000);
        for i in 0..3u32 {
            let p = ProcessId(i);
            assert_eq!(sim.process(p).decision(), sim.trace().decision_of(p));
        }
    }
}
