//! Figure 4 of the paper: implementing `(n−k)`-set agreement using `σ_2k`.
//!
//! The pseudocode, transcribed (`T[·]` initialized to `⊥`):
//!
//! ```text
//!  1 to propose(v_i):
//!  2   if queryFD().active = ⊥ then
//!  3     send(D, v_i) to all;  decide(v_i);  return
//!  7   else start Task 1 and Task 2 in parallel
//!  8 Task 1:
//!  9   upon receive(D, ∗): if (D,w) received then
//! 11     send(D,w) to all;  decide(w);  return
//! 14   upon receive(v, i) for the first time:
//! 15     send(v, i) to all;  T[i] ← v
//! 18 Task 2:
//! 19   A ← ∅
//! 20   while A = ∅ do A ← queryFD().active
//! 22   A-low  := the k smallest elements of A
//! 23   A-high := the k greatest elements of A
//! 24   if p_i ∈ A-low then
//! 25     send(v_i, i) to all
//! 26     repeat
//! 27       X ← queryFD()
//! 28       if ∃x: p_x ∈ A-high and T[x] ≠ ⊥ then
//! 29         decide(T[x]);  send(D, T[x]) to all;  return
//! 32     until (X.active ≠ ∅ ∧ X.trust ≠ ∅ ∧ A-high ∩ X.trust = ∅)
//!        — exiting undecided: decide(v_i); send(D, v_i) to all; return
//! 33   else  /* p_i ∈ A-high */
//! 34     repeat
//! 35       X ← queryFD()
//! 36       if ∃x: p_x ∈ A-low and T[x] ≠ ⊥ then
//! 37         send(T[x], i) to all;  decide(T[x]);  send(D, T[x]) to all;  return
//! 41     until (X.active ≠ ∅ ∧ X.trust ≠ ∅ ∧ A-low ∩ X.trust = ∅)
//!        — exiting undecided: decide(v_i); send(D, v_i) to all; return
//! ```
//!
//! The `repeat … until` exit paths (a process's trusted set carries
//! information only about its *own* half, so the whole other half may be
//! faulty) end with the process deciding its own value; `σ_2k`'s
//! intersection property guarantees the two sides never *both* exit
//! undecided, which is what bounds the active processes' decisions to at
//! most `k` distinct values (the `A-low`-originated values, or own values
//! of one side only). Together with the ≤ `n−2k` non-active own-value
//! decisions this yields `(n−k)`-set agreement (Theorem 8(a)).

use sih_model::{FdOutput, ProcessId, ProcessSet, Value};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};

/// Protocol messages of Figure 4.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Fig4Msg {
    /// `(D, w)`: a decided (or non-active) value, flooded.
    Decision(Value),
    /// `(v, i)`: value `v` published under index `i` (reliable broadcast
    /// via relay-once, Task 1 lines 14–17).
    Tagged(Value, ProcessId),
}

impl StateHash for Fig4Msg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            Fig4Msg::Decision(w) => {
                h.write_u64(0);
                h.write(w);
            }
            Fig4Msg::Tagged(v, i) => {
                h.write_u64(1);
                h.write(v);
                h.write(i);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    Start,
    /// Task 2 lines 19–21: waiting to learn the active set.
    WaitActive,
    /// In the repeat loop (lines 26–32 or 34–41).
    Looping,
    Done,
}

/// One process of the Figure 4 algorithm.
#[derive(Clone, Debug)]
pub struct Fig4SetAgreement {
    v: Value,
    stage: Stage,
    /// `T[·]`, stored sparsely as a sorted assoc list `(i, T[i])`. Only
    /// active-set indices are ever published (lines 15/25/37), so this
    /// holds at most `2k` entries regardless of `n`; the dense
    /// `Vec<Option<Value>>` it replaces cost O(n) heap per process —
    /// O(n²) across a large-`n` run. Sorted order keeps the `Debug`
    /// rendering and the state hash canonical.
    t: Vec<(ProcessId, Value)>,
    /// Indices already relayed once (Task 1's "for the first time").
    seen_tags: ProcessSet,
    active: ProcessSet,
    low: ProcessSet,
    high: ProcessSet,
    decided: Option<Value>,
}

// sih-analysis: allow(index-reachable) — t_get/t_set index with positions returned by
// binary_search on the same vector, in range by definition.
impl Fig4SetAgreement {
    /// A process proposing `v` in a system of `n` processes.
    pub fn new(v: Value, _n: usize) -> Self {
        Fig4SetAgreement {
            v,
            stage: Stage::Start,
            t: Vec::new(),
            seen_tags: ProcessSet::EMPTY,
            active: ProcessSet::EMPTY,
            low: ProcessSet::EMPTY,
            high: ProcessSet::EMPTY,
            decided: None,
        }
    }

    /// The decision, once taken.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn decide_and_return(&mut self, w: Value, n: usize, eff: &mut Effects<Fig4Msg>) {
        eff.send_all(n, Fig4Msg::Decision(w));
        eff.decide(w);
        eff.halt();
        self.decided = Some(w);
        self.stage = Stage::Done;
    }

    /// First `x` in `half` with `T[x] ≠ ⊥` (the pseudocode's `∃x`).
    fn known_value_in(&self, half: ProcessSet) -> Option<(ProcessId, Value)> {
        half.iter().find_map(|x| self.t_get(x).map(|v| (x, v)))
    }

    fn t_get(&self, i: ProcessId) -> Option<Value> {
        self.t.binary_search_by_key(&i, |&(p, _)| p).ok().map(|ix| self.t[ix].1)
    }

    fn t_set(&mut self, i: ProcessId, v: Value) {
        match self.t.binary_search_by_key(&i, |&(p, _)| p) {
            Ok(ix) => self.t[ix].1 = v,
            Err(ix) => self.t.insert(ix, (i, v)),
        }
    }

    /// The `until` exit condition of lines 32/41, against half `other`.
    fn until_exit(fd: FdOutput, other: ProcessSet) -> bool {
        let active_nonempty = fd.active().is_some_and(|a| !a.is_empty());
        let trust = fd.trust().unwrap_or(ProcessSet::EMPTY);
        active_nonempty && !trust.is_empty() && !other.intersects(trust)
    }
}

impl Automaton for Fig4SetAgreement {
    type Msg = Fig4Msg;

    fn step(&mut self, input: StepInput<Fig4Msg>, eff: &mut Effects<Fig4Msg>) {
        if self.stage == Stage::Done {
            return;
        }

        // propose(v_i), first step: line 2's `active = ⊥` test.
        if self.stage == Stage::Start {
            if input.fd.active().is_none() {
                self.decide_and_return(self.v, input.n, eff);
                return;
            }
            self.stage = Stage::WaitActive;
        }

        // Task 1: message intake.
        if let Some(env) = &input.delivered {
            match env.payload {
                Fig4Msg::Decision(w) => {
                    self.decide_and_return(w, input.n, eff);
                    return;
                }
                Fig4Msg::Tagged(v, i) => {
                    if self.seen_tags.insert(i) {
                        eff.send_all(input.n, Fig4Msg::Tagged(v, i));
                        self.t_set(i, v);
                    }
                }
            }
        }

        // Task 2 progress.
        match self.stage {
            Stage::WaitActive => {
                // Lines 20–23.
                if let Some(a) = input.fd.active() {
                    if !a.is_empty() {
                        assert!(a.len() % 2 == 0, "σ_2k active sets have even size");
                        self.active = a;
                        let k = a.len() / 2;
                        self.low = a.smallest(k);
                        self.high = a.difference(self.low);
                        self.stage = Stage::Looping;
                        if self.low.contains(input.me) {
                            // Line 25: A-low publishes its value.
                            eff.send_all(input.n, Fig4Msg::Tagged(self.v, input.me));
                            self.t_set(input.me, self.v);
                            self.seen_tags.insert(input.me);
                        }
                    }
                }
            }
            Stage::Looping => {
                let in_low = self.low.contains(input.me);
                let (own_half, other_half) =
                    if in_low { (self.low, self.high) } else { (self.high, self.low) };
                let _ = own_half;
                if let Some((_, w)) = self.known_value_in(other_half) {
                    if in_low {
                        // Lines 28–31.
                        self.decide_and_return(w, input.n, eff);
                    } else {
                        // Lines 36–40: echo under own index, then decide.
                        eff.send_all(input.n, Fig4Msg::Tagged(w, input.me));
                        if self.seen_tags.insert(input.me) {
                            self.t_set(input.me, w);
                        }
                        self.decide_and_return(w, input.n, eff);
                    }
                } else if Self::until_exit(input.fd, other_half) {
                    // Exiting the repeat loop undecided: the whole other
                    // half is suspected gone — decide own value.
                    self.decide_and_return(self.v, input.n, eff);
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
        h.write_u64(self.stage as u64);
        h.write(&self.t);
        h.write(&self.seen_tags);
        h.write(&self.active);
        h.write(&self.low);
        h.write(&self.high);
        h.write(&self.decided);
    }
}

/// Builds the `n` Figure 4 automata for the given proposals.
pub fn fig4_processes(proposals: &[Value]) -> Vec<Fig4SetAgreement> {
    let n = proposals.len();
    proposals.iter().map(|&v| Fig4SetAgreement::new(v, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_k_agreement_safety, check_k_set_agreement, distinct_proposals};
    use sih_detectors::{SigmaK, SigmaKMode};
    use sih_model::{FailurePattern, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn active_2k(k: usize) -> ProcessSet {
        (0..2 * k as u32).map(ProcessId).collect()
    }

    fn run_fig4(pattern: &FailurePattern, det: &SigmaK, seed: u64) -> sih_runtime::Trace {
        let n = pattern.n();
        let procs = fig4_processes(&distinct_proposals(n));
        let mut sim = Simulation::new(procs, pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, det, 120_000);
        sim.into_trace()
    }

    #[test]
    fn failure_free_sweep_satisfies_n_minus_k_agreement() {
        for (n, k) in [(4usize, 1usize), (4, 2), (6, 2), (6, 3), (8, 3)] {
            for seed in 0..6 {
                let f = FailurePattern::all_correct(n);
                let d = SigmaK::new(active_2k(k), &f, seed);
                let tr = run_fig4(&f, &d, seed);
                check_k_set_agreement(&tr, &f, &distinct_proposals(n), n - k).unwrap();
            }
        }
    }

    #[test]
    fn whole_high_half_faulty() {
        // Correct ∩ A = A-low: low processes must exit their loop via the
        // until condition and decide own values.
        let n = 6;
        let k = 2;
        for seed in 0..8 {
            let f =
                FailurePattern::crashed_from_start(n, ProcessSet::from_iter([2, 3].map(ProcessId)));
            let d = SigmaK::new(active_2k(k), &f, seed);
            let tr = run_fig4(&f, &d, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(n), n - k).unwrap();
        }
    }

    #[test]
    fn whole_low_half_faulty() {
        let n = 6;
        let k = 2;
        for seed in 0..8 {
            let f =
                FailurePattern::crashed_from_start(n, ProcessSet::from_iter([0, 1].map(ProcessId)));
            let d = SigmaK::new(active_2k(k), &f, seed);
            let tr = run_fig4(&f, &d, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(n), n - k).unwrap();
        }
    }

    #[test]
    fn only_active_processes_correct_straddling_both_halves() {
        // Correct = {p0, p2} straddles A-low/A-high: no trigger, the
        // detector stays at (∅, A); the low side's published value must
        // flow to the high side, be echoed, and both decide ≤ k values.
        let n = 6;
        let k = 2;
        for seed in 0..8 {
            let f = FailurePattern::crashed_from_start(
                n,
                ProcessSet::from_iter([1, 3, 4, 5].map(ProcessId)),
            );
            let d = SigmaK::new(active_2k(k), &f, seed);
            let tr = run_fig4(&f, &d, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(n), n - k).unwrap();
        }
    }

    #[test]
    fn n_equals_2k_all_processes_active() {
        let n = 4;
        let k = 2;
        for seed in 0..8 {
            let f = FailurePattern::all_correct(n);
            let d = SigmaK::new(active_2k(k), &f, seed);
            let tr = run_fig4(&f, &d, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(n), n - k).unwrap();
        }
    }

    #[test]
    fn late_crashes_with_generous_detector() {
        let n = 6;
        let k = 2;
        for seed in 0..8 {
            let f = FailurePattern::builder(n)
                .crash_at(ProcessId(0), Time(25))
                .crash_at(ProcessId(5), Time(40))
                .build();
            let d = SigmaK::new(active_2k(k), &f, seed).with_mode(SigmaKMode::Generous);
            let tr = run_fig4(&f, &d, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(n), n - k).unwrap();
        }
    }

    #[test]
    fn active_decisions_originate_from_at_most_k_values() {
        // Stronger than the spec: the 2k active processes alone decide at
        // most k distinct values.
        let n = 8;
        let k = 3;
        for seed in 0..10 {
            let f = FailurePattern::all_correct(n);
            let d = SigmaK::new(active_2k(k), &f, seed);
            let tr = run_fig4(&f, &d, seed);
            let mut active_vals: Vec<Value> =
                active_2k(k).iter().filter_map(|p| tr.decision_of(p)).collect();
            active_vals.sort_unstable();
            active_vals.dedup();
            assert!(active_vals.len() <= k, "seed {seed}: {active_vals:?}");
        }
    }

    #[test]
    fn non_active_processes_decide_own_values() {
        let n = 6;
        let k = 2;
        let f = FailurePattern::all_correct(n);
        let d = SigmaK::new(active_2k(k), &f, 0);
        let tr = run_fig4(&f, &d, 3);
        assert_eq!(tr.decision_of(ProcessId(4)), Some(Value(4)));
        assert_eq!(tr.decision_of(ProcessId(5)), Some(Value(5)));
        check_k_agreement_safety(&tr, &distinct_proposals(n), n - k).unwrap();
    }
}
