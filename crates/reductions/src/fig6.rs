//! Figure 6 of the paper: emulating `anti-Ω` from `σ` (Lemma 16).
//!
//! ```text
//!  1 nonactive ← ∅;  active ← ∅
//!  3 task 1:
//!  4   upon (NONACTIVE, p): if p ∉ nonactive: forward to all; nonactive ∪= {p}
//!  8   upon (ACTIVE, p):    if p ∉ active:    forward to all; active ∪= {p}
//! 12 task 2:
//! 13   if queryFD() = ⊥ then send(NONACTIVE, p_i) to all; nonactive ∪= {p_i}
//! 16   else                  send(ACTIVE, p_i) to all;    active ∪= {p_i}
//! 19   while active ∪ nonactive ≠ Π:
//! 20     output ← min{p | p ∉ active ∪ nonactive}
//! 21   min ← min(active);  max ← max(active)
//! 23   output ← min
//! 24   if p_i = min then
//! 25     while queryFD() ≠ {p_i} do ;
//! 26     output ← max
//! 27     send(CHANGE) to max
//! 28   else
//! 29     wait until received (CHANGE)
//! 30     output ← max
//! ```
//!
//! The forward-once of task 1 is a reliable broadcast, so all correct
//! processes converge on the same `active`/`nonactive` sets. The output
//! is then: a crashed-from-the-start process if one exists (case 1 of the
//! proof of Lemma 16); otherwise the smaller active process `min`,
//! switching to `max` when `σ` reveals `min` is alone (the `CHANGE`
//! handshake prevents `p` outputting `q` while `q` outputs `p` when both
//! are correct). In every case some correct process's id is output only
//! finitely often — the `anti-Ω` specification.
//!
//! Note: processes other than `min` and `max` also wait for a `CHANGE`
//! that never reaches them (it is sent to `max` only) — their output
//! simply stays `min`, which the case analysis absorbs.

use sih_model::{FdOutput, ProcessId, ProcessSet};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};

/// Protocol messages of the Figure 6 emulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Fig6Msg {
    /// `(NONACTIVE, p)`: `p` announces `σ` answered it `⊥`.
    NonActive(ProcessId),
    /// `(ACTIVE, p)`: `p` announces `σ` marked it active.
    Active(ProcessId),
    /// The min-active process's hand-over to the max-active one.
    Change,
}

impl StateHash for Fig6Msg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            Fig6Msg::NonActive(p) => {
                h.write_u64(0);
                h.write(p);
            }
            Fig6Msg::Active(p) => {
                h.write_u64(1);
                h.write(p);
            }
            Fig6Msg::Change => h.write_u64(2),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    Start,
    /// Line 19–20: collecting announcements.
    Collecting,
    /// Line 25 (at `min`): polling for `{p_i}`.
    MinPolling,
    /// Line 29 (elsewhere): waiting for `CHANGE`.
    AwaitChange,
    /// Output settled at `max` (lines 26/30) — nothing left to do.
    Settled,
}

/// One process of the Figure 6 emulation.
#[derive(Clone, Debug)]
pub struct Fig6AntiOmegaFromSigma {
    n: usize,
    nonactive: ProcessSet,
    active: ProcessSet,
    stage: Stage,
    change_received: bool,
    last_output: Option<FdOutput>,
}

impl Fig6AntiOmegaFromSigma {
    /// A process of the emulation in a system of `n` processes.
    pub fn new(n: usize) -> Self {
        Fig6AntiOmegaFromSigma {
            n,
            nonactive: ProcessSet::EMPTY,
            active: ProcessSet::EMPTY,
            stage: Stage::Start,
            change_received: false,
            last_output: None,
        }
    }

    fn emit(&mut self, out: FdOutput, eff: &mut Effects<Fig6Msg>) {
        if self.last_output != Some(out) {
            self.last_output = Some(out);
            eff.set_output(out);
        }
    }
}

impl Automaton for Fig6AntiOmegaFromSigma {
    type Msg = Fig6Msg;

    fn step(&mut self, input: StepInput<Fig6Msg>, eff: &mut Effects<Fig6Msg>) {
        // Task 1: reliable-broadcast bookkeeping.
        if let Some(env) = &input.delivered {
            match env.payload {
                Fig6Msg::NonActive(p) => {
                    if self.nonactive.insert(p) {
                        eff.send_all(self.n, Fig6Msg::NonActive(p));
                    }
                }
                Fig6Msg::Active(p) => {
                    if self.active.insert(p) {
                        eff.send_all(self.n, Fig6Msg::Active(p));
                    }
                }
                Fig6Msg::Change => {
                    self.change_received = true;
                }
            }
        }

        // Task 2.
        match self.stage {
            Stage::Start => {
                // Lines 13–18.
                if input.fd().is_bot() {
                    eff.send_all(self.n, Fig6Msg::NonActive(input.me));
                    self.nonactive.insert(input.me);
                } else {
                    eff.send_all(self.n, Fig6Msg::Active(input.me));
                    self.active.insert(input.me);
                }
                self.stage = Stage::Collecting;
            }
            Stage::Collecting => {
                let known = self.active.union(self.nonactive);
                let all = ProcessSet::full(self.n);
                if known != all {
                    // Line 20.
                    let missing = all
                        .difference(known)
                        .min()
                        .expect("invariant: known != all has a missing process");
                    self.emit(FdOutput::Leader(missing), eff);
                } else {
                    // Lines 21–23.
                    let min = self.active.min().expect("invariant: σ marks two processes active");
                    self.emit(FdOutput::Leader(min), eff);
                    self.stage =
                        if input.me == min { Stage::MinPolling } else { Stage::AwaitChange };
                }
            }
            Stage::MinPolling => {
                // Line 25: `while queryFD() ≠ {p_i}`.
                if input.fd() == FdOutput::Trust(ProcessSet::singleton(input.me)) {
                    let max = self.active.max().expect("invariant: σ marks two processes active");
                    self.emit(FdOutput::Leader(max), eff);
                    eff.send(max, Fig6Msg::Change);
                    self.stage = Stage::Settled;
                }
            }
            Stage::AwaitChange => {
                // Lines 29–30.
                if self.change_received {
                    let max = self.active.max().expect("invariant: σ marks two processes active");
                    self.emit(FdOutput::Leader(max), eff);
                    self.stage = Stage::Settled;
                }
            }
            Stage::Settled => {}
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.n);
        h.write(&self.nonactive);
        h.write(&self.active);
        h.write_u64(self.stage as u64);
        h.write(&self.change_received);
        h.write(&self.last_output);
    }
}

/// Builds the `n` Figure 6 automata.
pub fn fig6_processes(n: usize) -> Vec<Fig6AntiOmegaFromSigma> {
    (0..n).map(|_| Fig6AntiOmegaFromSigma::new(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_detectors::{check_anti_omega, Sigma, SigmaMode};
    use sih_model::{FailurePattern, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn run_fig6(pattern: &FailurePattern, sigma: &Sigma, seed: u64) -> sih_runtime::Trace {
        let mut sim = Simulation::new(fig6_processes(pattern.n()), pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, sigma, 12_000);
        sim.into_trace()
    }

    #[test]
    fn all_correct_case_c_no_change() {
        // All correct, σ reticent: outputs converge to min-active and the
        // other active escapes — a legal anti-Ω history.
        for seed in 0..10 {
            let f = FailurePattern::all_correct(4);
            let sigma = Sigma::new(ProcessId(1), ProcessId(2), &f, seed);
            let tr = run_fig6(&f, &sigma, seed);
            check_anti_omega(tr.emulated_history(), &f).unwrap();
            // Everyone settles on min(active) = p1.
            for i in 0..4u32 {
                assert_eq!(
                    tr.emulated_history().timeline(ProcessId(i)).final_output(),
                    FdOutput::Leader(ProcessId(1))
                );
            }
        }
    }

    #[test]
    fn crashed_from_start_process_is_chosen() {
        // Case 1 of the proof: a process that never announces is a safe
        // (faulty) choice.
        for seed in 0..10 {
            let f = FailurePattern::crashed_from_start(4, ProcessSet::singleton(ProcessId(3)));
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let tr = run_fig6(&f, &sigma, seed);
            check_anti_omega(tr.emulated_history(), &f).unwrap();
            for p in f.correct() {
                assert_eq!(
                    tr.emulated_history().timeline(p).final_output(),
                    FdOutput::Leader(ProcessId(3))
                );
            }
        }
    }

    #[test]
    fn only_min_active_correct_case_a() {
        // Everyone announces, then all but p0 = min(active) crash: σ
        // eventually shows p0 {p0}; it must switch its output to
        // max(active).
        for seed in 0..10 {
            let f = FailurePattern::builder(3)
                .crash_at(ProcessId(1), Time(400))
                .crash_at(ProcessId(2), Time(400))
                .build();
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let procs = fig6_processes(3);
            let mut sim = Simulation::new(procs, f.clone());
            let mut sched = FairScheduler::new(seed);
            sim.run(&mut sched, &sigma, 20_000);
            let tr = sim.into_trace();
            check_anti_omega(tr.emulated_history(), &f).unwrap();
            assert_eq!(
                tr.emulated_history().timeline(ProcessId(0)).final_output(),
                FdOutput::Leader(ProcessId(1)),
                "seed {seed}: p0 must hand over to max(active)"
            );
        }
    }

    #[test]
    fn only_max_active_correct_case_b() {
        // Everyone announces, then all but q = max(active) crash: min
        // never saw {min} (intersection forbids it while q's view is {q}),
        // so no CHANGE arrives and q keeps outputting min — still a legal
        // anti-Ω history (q itself escapes).
        for seed in 0..10 {
            let f = FailurePattern::builder(3)
                .crash_at(ProcessId(0), Time(400))
                .crash_at(ProcessId(2), Time(400))
                .build();
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let tr = run_fig6(&f, &sigma, seed);
            check_anti_omega(tr.emulated_history(), &f).unwrap();
            assert_eq!(
                tr.emulated_history().timeline(ProcessId(1)).final_output(),
                FdOutput::Leader(ProcessId(0))
            );
        }
    }

    #[test]
    fn both_actives_correct_change_handshake() {
        // Everyone announces, then the non-actives crash, leaving both
        // actives correct: when min sees {min} it hands over and informs
        // max, so the crossed outputs (p says q, q says p) the CHANGE
        // message exists to avoid never materialize.
        for seed in 0..10 {
            let f = FailurePattern::builder(4)
                .crash_at(ProcessId(2), Time(400))
                .crash_at(ProcessId(3), Time(400))
                .build();
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let procs = fig6_processes(4);
            let mut sim = Simulation::new(procs, f.clone());
            let mut sched = FairScheduler::new(seed);
            sim.run(&mut sched, &sigma, 25_000);
            let tr = sim.into_trace();
            check_anti_omega(tr.emulated_history(), &f).unwrap();
            let out0 = tr.emulated_history().timeline(ProcessId(0)).final_output();
            let out1 = tr.emulated_history().timeline(ProcessId(1)).final_output();
            let crossed =
                out0 == FdOutput::Leader(ProcessId(1)) && out1 == FdOutput::Leader(ProcessId(0));
            assert!(!crossed, "seed {seed}: crossed outputs {out0}/{out1}");
        }
    }

    #[test]
    fn generous_sigma_histories_also_legal() {
        for seed in 0..10 {
            let f = FailurePattern::builder(5).crash_at(ProcessId(4), Time(15)).build();
            let sigma =
                Sigma::new(ProcessId(2), ProcessId(3), &f, seed).with_mode(SigmaMode::Generous);
            let tr = run_fig6(&f, &sigma, seed);
            check_anti_omega(tr.emulated_history(), &f).unwrap();
        }
    }
}
