//! Ablation: Figure 2 **without Phase 2** — why the `(2, You)` echo
//! exchange exists.
//!
//! In the real algorithm, an active process that escapes Phase 1 via
//! `{p} = queryFD()` announces its empty `You` in Phase 2; the other
//! active then *discards its own value* (`Me ← ⊥`), which is what makes
//! both Task-2 deciders agree (Theorem 4's Agreement case analysis).
//!
//! [`Fig2WithoutPhase2`] removes the echo: after Phase 1 each active
//! immediately decides `max{Me, You}`. The two actives can then decide
//! **different** values (`v_p` at the escapee, `max(v_p, v_q)` at the
//! other), and with every non-active process deciding its own value
//! before crashing, a run decides all `n` initial values — violating
//! `(n−1)`-set agreement. [`fig2_ablation_violation`] constructs that
//! run; the unit tests also run the *original* algorithm through the
//! same adversity as a control (it stays within `n−1`).

use crate::fig2::Fig2Msg;
use crate::spec::distinct_proposals;
use sih_detectors::Sigma;
use sih_model::{FailurePattern, FdOutput, ProcessId, ProcessSet, Time, Value};
use sih_runtime::{Automaton, Choice, Effects, Simulation, StateHasher, StepInput};

/// Figure 2 with Phase 2 deleted (an intentionally broken variant).
#[derive(Clone, Debug)]
pub struct Fig2WithoutPhase2 {
    v: Value,
    you: Option<Value>,
    started: bool,
    got_phase1: Option<Value>,
    decided: bool,
}

impl Fig2WithoutPhase2 {
    /// A process proposing `v`.
    pub fn new(v: Value) -> Self {
        Fig2WithoutPhase2 { v, you: None, started: false, got_phase1: None, decided: false }
    }
}

impl Automaton for Fig2WithoutPhase2 {
    type Msg = Fig2Msg;

    fn step(&mut self, input: StepInput<Fig2Msg>, eff: &mut Effects<Fig2Msg>) {
        if self.decided {
            return;
        }
        if !self.started {
            self.started = true;
            if input.fd.is_bot() {
                eff.send_all(input.n, Fig2Msg::Decision(self.v));
                eff.decide(self.v);
                eff.halt();
                self.decided = true;
                return;
            }
            eff.send_others(input.n, input.me, Fig2Msg::Phase1(self.v));
        }
        if let Some(env) = &input.delivered {
            match env.payload {
                Fig2Msg::Decision(w) => {
                    eff.send_all(input.n, Fig2Msg::Decision(w));
                    eff.decide(w);
                    eff.halt();
                    self.decided = true;
                    return;
                }
                Fig2Msg::Phase1(w) => {
                    if self.got_phase1.is_none() {
                        self.got_phase1 = Some(w);
                    }
                }
                Fig2Msg::Phase2(_) => {}
            }
        }
        // Phase 1 wait — and then decide immediately (no echo round).
        let escaped = input.fd == FdOutput::Trust(ProcessSet::singleton(input.me));
        if self.got_phase1.is_some() || escaped {
            if let Some(w) = self.got_phase1 {
                self.you = Some(w);
            }
            let w = std::cmp::max(Some(self.v), self.you)
                .expect("invariant: own value v is always present");
            eff.send_all(input.n, Fig2Msg::Decision(w));
            eff.decide(w);
            eff.halt();
            self.decided = true;
        }
    }

    fn halted(&self) -> bool {
        self.decided
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.v);
        h.write(&self.you);
        h.write(&self.started);
        h.write(&self.got_phase1);
        h.write(&self.decided);
    }
}

/// Constructs the violating run for the ablated algorithm: non-actives
/// decide their own values and crash; `q0` escapes Phase 1 via
/// `{q0} = queryFD()` and decides `v_0`; `q1` receives `(1, v_0)` and
/// decides `max(v_0, v_1) = v_1`. Returns the distinct decided values
/// (all `n` of them — the agreement violation).
///
/// # Panics
///
/// Panics if the construction does not complete within its step guard
/// (which would indicate an engine bug, not an algorithm property).
pub fn fig2_ablation_violation(n: usize, seed: u64) -> Vec<Value> {
    assert!(n >= 3);
    let (q0, q1) = (ProcessId(0), ProcessId(1));
    let mut b = FailurePattern::builder(n);
    for j in 2..n as u32 {
        b = b.crash_at(ProcessId(j), Time(u64::from(j) - 1));
    }
    let pattern = b.build();
    let sigma = Sigma::new(q0, q1, &pattern, seed);
    let procs: Vec<Fig2WithoutPhase2> =
        distinct_proposals(n).into_iter().map(Fig2WithoutPhase2::new).collect();
    let mut sim = Simulation::new(procs, pattern);

    // Non-actives decide own values, then crash.
    for j in 2..n as u32 {
        sim.step(Choice::compute(ProcessId(j)), &sigma);
    }
    // q0: compute-only steps until the oracle shows it {q0} and it
    // escapes (never receiving q1's Phase 1 value).
    let mut guard = 0;
    while sim.trace().decision_of(q0).is_none() {
        sim.step(Choice::compute(q0), &sigma);
        guard += 1;
        assert!(guard < 10_000, "σ must eventually output {{q0}}");
    }
    // q1: deliver q0's Phase-1 message (never the Decision floods).
    let mut guard = 0;
    while sim.trace().decision_of(q1).is_none() {
        let deliver =
            sim.network().pending(q1).position(|env| matches!(env.payload, Fig2Msg::Phase1(_)));
        sim.step(Choice { p: q1, deliver }, &sigma);
        guard += 1;
        assert!(guard < 10_000, "q1 must decide after receiving (1, v0)");
    }
    sim.trace().distinct_decisions()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2::fig2_processes;
    use crate::spec::check_k_agreement_safety;

    #[test]
    fn without_phase2_all_n_values_are_decided() {
        for n in [3usize, 4, 6] {
            for seed in 0..4 {
                let distinct = fig2_ablation_violation(n, seed);
                assert_eq!(
                    distinct.len(),
                    n,
                    "the ablated algorithm decides every initial value (n={n}, seed={seed})"
                );
            }
        }
    }

    #[test]
    fn control_the_real_algorithm_survives_the_same_adversity() {
        // Identical pattern and scheduling strategy against the full
        // Figure 2: Phase 2's (2,⊥) echo makes q1 discard v1, so at most
        // n−1 values are decided.
        let n = 4;
        for seed in 0..4 {
            let (q0, q1) = (ProcessId(0), ProcessId(1));
            let mut b = FailurePattern::builder(n);
            for j in 2..n as u32 {
                b = b.crash_at(ProcessId(j), Time(u64::from(j) - 1));
            }
            let pattern = b.build();
            let sigma = Sigma::new(q0, q1, &pattern, seed);
            let mut sim = Simulation::new(fig2_processes(&distinct_proposals(n)), pattern);
            for j in 2..n as u32 {
                sim.step(Choice::compute(ProcessId(j)), &sigma);
            }
            // Drive the actives, delivering only Task-2 traffic.
            let mut guard = 0;
            while sim.trace().decision_of(q0).is_none() || sim.trace().decision_of(q1).is_none() {
                for p in [q0, q1] {
                    if sim.trace().decision_of(p).is_some() {
                        continue;
                    }
                    let deliver = sim
                        .network()
                        .pending(p)
                        .position(|env| !matches!(env.payload, Fig2Msg::Decision(_)));
                    sim.step(Choice { p, deliver }, &sigma);
                }
                guard += 1;
                assert!(guard < 10_000);
            }
            let distinct = sim.trace().distinct_decisions();
            assert!(distinct.len() < n, "seed {seed}: {distinct:?}");
            check_k_agreement_safety(sim.trace(), &distinct_proposals(n), n - 1).unwrap();
        }
    }
}
