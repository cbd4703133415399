//! Ablation: Figure 6 **without the CHANGE handshake** — why the
//! hand-over message exists.
//!
//! The proof of Lemma 16 explains: when the min-active process `p` sees
//! `{p}` and switches its output to `max`, it informs `max` with a
//! `CHANGE` message, *"to prevent the case where `p` outputs `q` and `q`
//! outputs `p` when `p` and `q` are the only correct processes"*.
//!
//! [`Fig6WithoutChange`] deletes the handshake: `p` still switches, but
//! nobody else ever does. With both actives correct and a `σ` history
//! that shows `p` the singleton `{p}` (legal — `q`'s outputs merely have
//! to intersect it), the final outputs are exactly the crossed pair
//! (`p ↦ q`, `q ↦ p`): **every** correct process is some correct
//! process's eventual output, so no process escapes — the `anti-Ω`
//! specification is violated. The tests exhibit the violation and run
//! the original Figure 6 through the identical setup as a control.

use sih_model::{FdOutput, ProcessId, ProcessSet};
use sih_runtime::{Automaton, Corruptible, Effects, StateHash, StateHasher, StepInput};

/// Figure 6 with the CHANGE handshake deleted (an intentionally broken
/// variant). Message type matches [`Fig6Msg`](crate::Fig6Msg) minus the
/// handshake, so announcements still flow.
#[derive(Clone, Debug)]
pub struct Fig6WithoutChange {
    n: usize,
    nonactive: ProcessSet,
    active: ProcessSet,
    announced: bool,
    settled: bool,
    last_output: Option<FdOutput>,
}

/// Announcement messages of the ablated emulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AblatedFig6Msg {
    /// `(NONACTIVE, p)`.
    NonActive(ProcessId),
    /// `(ACTIVE, p)`.
    Active(ProcessId),
}

impl StateHash for AblatedFig6Msg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            AblatedFig6Msg::NonActive(p) => {
                h.write_u64(0);
                h.write(p);
            }
            AblatedFig6Msg::Active(p) => {
                h.write_u64(1);
                h.write(p);
            }
        }
    }
}

/// Opts in to the mutation algebra with no mutations: every adversary
/// send crosses untouched. This lets the ablation run through the same
/// adversary-aware replay path as the Byzantine workloads.
impl Corruptible for AblatedFig6Msg {}

impl Fig6WithoutChange {
    /// A process of the ablated emulation in a system of `n` processes.
    pub fn new(n: usize) -> Self {
        Fig6WithoutChange {
            n,
            nonactive: ProcessSet::EMPTY,
            active: ProcessSet::EMPTY,
            announced: false,
            settled: false,
            last_output: None,
        }
    }

    fn emit(&mut self, out: FdOutput, eff: &mut Effects<AblatedFig6Msg>) {
        if self.last_output != Some(out) {
            self.last_output = Some(out);
            eff.set_output(out);
        }
    }
}

impl Automaton for Fig6WithoutChange {
    type Msg = AblatedFig6Msg;

    fn step(&mut self, input: StepInput<AblatedFig6Msg>, eff: &mut Effects<AblatedFig6Msg>) {
        if let Some(env) = &input.delivered {
            match env.payload {
                AblatedFig6Msg::NonActive(p) => {
                    if self.nonactive.insert(p) {
                        eff.send_all(self.n, AblatedFig6Msg::NonActive(p));
                    }
                }
                AblatedFig6Msg::Active(p) => {
                    if self.active.insert(p) {
                        eff.send_all(self.n, AblatedFig6Msg::Active(p));
                    }
                }
            }
        }
        if !self.announced {
            self.announced = true;
            if input.fd().is_bot() {
                eff.send_all(self.n, AblatedFig6Msg::NonActive(input.me));
                self.nonactive.insert(input.me);
            } else {
                eff.send_all(self.n, AblatedFig6Msg::Active(input.me));
                self.active.insert(input.me);
            }
            return;
        }
        let known = self.active.union(self.nonactive);
        let all = ProcessSet::full(self.n);
        if known != all {
            let missing =
                all.difference(known).min().expect("invariant: known != all has a missing process");
            self.emit(FdOutput::Leader(missing), eff);
            return;
        }
        let min = self.active.min().expect("invariant: σ marks two processes active");
        let max = self.active.max().expect("invariant: σ marks two processes active");
        if self.settled {
            return;
        }
        if input.me == min && input.fd() == FdOutput::Trust(ProcessSet::singleton(input.me)) {
            // The ablation: switch locally, tell nobody.
            self.emit(FdOutput::Leader(max), eff);
            self.settled = true;
        } else {
            self.emit(FdOutput::Leader(min), eff);
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.n);
        h.write(&self.nonactive);
        h.write(&self.active);
        h.write(&self.announced);
        h.write(&self.settled);
        h.write(&self.last_output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::fig6_processes;
    use sih_detectors::{check_anti_omega, Sigma};
    use sih_model::{FailurePattern, Time};
    use sih_runtime::{FairScheduler, Simulation};

    /// Both actives correct (everyone else announces then crashes), σ
    /// shows p0 the singleton {p0} eventually.
    fn crossed_setup() -> (FailurePattern, Sigma) {
        let f = FailurePattern::builder(4)
            .crash_at(ProcessId(2), Time(400))
            .crash_at(ProcessId(3), Time(400))
            .build();
        let sigma = Sigma::new(ProcessId(0), ProcessId(1), &f, 3);
        (f, sigma)
    }

    #[test]
    fn without_change_the_outputs_cross_and_anti_omega_breaks() {
        let (f, sigma) = crossed_setup();
        let procs = (0..4).map(|_| Fig6WithoutChange::new(4)).collect();
        let mut sim = Simulation::new(procs, f.clone());
        // Run long enough for the collect to finish and p0 to see {p0}.
        let mut sched = FairScheduler::new(3);
        sim.run_until(&mut sched, &sigma, 60_000, |s| {
            s.trace().emulated_history().timeline(ProcessId(0)).final_output()
                == FdOutput::Leader(ProcessId(1))
                && s.trace().emulated_history().timeline(ProcessId(1)).final_output()
                    == FdOutput::Leader(ProcessId(0))
        });
        let h = sim.trace().emulated_history();
        assert_eq!(h.timeline(ProcessId(0)).final_output(), FdOutput::Leader(ProcessId(1)));
        assert_eq!(h.timeline(ProcessId(1)).final_output(), FdOutput::Leader(ProcessId(0)));
        // The crossed pair covers both correct processes: violation.
        let err = check_anti_omega(h, &f).unwrap_err();
        assert_eq!(err.property, "finiteness");
    }

    #[test]
    fn control_the_real_figure6_survives_the_same_setup() {
        let (f, sigma) = crossed_setup();
        let mut sim = Simulation::new(fig6_processes(4), f.clone());
        let mut sched = FairScheduler::new(3);
        sim.run(&mut sched, &sigma, 60_000);
        check_anti_omega(sim.trace().emulated_history(), &f).unwrap();
    }
}
