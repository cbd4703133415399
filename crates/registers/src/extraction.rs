//! Extracting `Σ` from a running register implementation — the
//! *necessity* direction of Proposition 1, demonstrated.
//!
//! Proposition 1 ([9], with the extraction construction from [8, 10])
//! says `Σ_S` is not only sufficient but *necessary* for an
//! `S`-register: from any register implementation one can emulate
//! `Σ_S`. The construction's core idea: an operation that completes must
//! have "heard from" a set of processes whose cooperation the operation
//! depended on, and any two completed operations on an atomic register
//! must have heard from intersecting sets (two operations with disjoint
//! causal pasts could not have ordered themselves against each other).
//!
//! [`SigmaExtractor`] mechanizes that idea against this crate's own ABD
//! implementation: it wraps the register automaton, tracks the set of
//! **direct senders heard during each client operation** (plus the
//! process itself), and publishes that set as its emulated trusted list
//! each time an operation returns. The unit tests validate the extracted
//! histories against the `Σ_S` specification — on quorum-`Σ`-backed runs
//! and on perfect-detector-backed runs alike, and in both cases the
//! extraction never reads the underlying detector: all its information
//! comes from the register protocol's message flow.

use sih_model::{FdOutput, ProcessSet};
use sih_runtime::{Automaton, Effects, OpEvent, StateHasher, StepInput};

/// Wraps a register-implementing automaton and emulates `Σ` from the
/// message traffic of its client operations.
#[derive(Clone, Debug)]
pub struct SigmaExtractor<A: Automaton> {
    inner: A,
    /// Senders heard since the current operation began (plus self).
    heard: ProcessSet,
    /// Whether a client operation is in progress.
    in_op: bool,
    emitted_initial: bool,
}

impl<A: Automaton> SigmaExtractor<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        SigmaExtractor { inner, heard: ProcessSet::EMPTY, in_op: false, emitted_initial: false }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Automaton + std::fmt::Debug> Automaton for SigmaExtractor<A> {
    type Msg = A::Msg;

    fn step(&mut self, input: StepInput<A::Msg>, eff: &mut Effects<A::Msg>) {
        if let Some(env) = &input.delivered {
            self.heard.insert(env.from);
        }

        let me = input.me;
        let n = input.n;
        let mut inner_eff = Effects::new();
        self.inner.step(input, &mut inner_eff);

        // Pass the inner automaton's effects through, watching operation
        // boundaries.
        for (to, m) in inner_eff.take_sends() {
            eff.send(to, m);
        }
        if let Some(v) = inner_eff.take_decision() {
            eff.decide(v);
        }
        // The inner register automaton does not emulate a detector; its
        // emulated channel is ours to use.
        let _ = inner_eff.take_emulated();
        for ev in inner_eff.take_op_events() {
            match ev {
                OpEvent::Invoke { id, kind } => {
                    eff.op_invoke(id, kind);
                    if !self.emitted_initial {
                        // A client's output before its first completed
                        // operation: Π is the only list guaranteed to
                        // intersect everything. Replica-only processes
                        // never operate and keep the ⊥ of non-members.
                        self.emitted_initial = true;
                        eff.set_output(FdOutput::Trust(ProcessSet::full(n)));
                    }
                    self.in_op = true;
                    self.heard = ProcessSet::singleton(me);
                }
                OpEvent::Return { id, kind, read_value } => {
                    eff.op_return(id, kind, read_value);
                    if self.in_op {
                        self.in_op = false;
                        // The extraction: the operation's heard-from set
                        // is a legal Σ trusted list.
                        let mut list = self.heard;
                        list.insert(me);
                        eff.set_output(FdOutput::Trust(list));
                    }
                }
            }
        }
        if inner_eff.halt_requested() || self.inner.halted() {
            eff.halt();
        }
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn hash_state(&self, h: &mut StateHasher) {
        self.inner.hash_state(h);
        h.write(&self.heard);
        h.write(&self.in_op);
        h.write(&self.emitted_initial);
    }
}

/// Wraps every automaton of a register deployment with the extractor.
pub fn extracting<A: Automaton>(procs: Vec<A>) -> Vec<SigmaExtractor<A>> {
    procs.into_iter().map(SigmaExtractor::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abd::abd_processes;
    use sih_detectors::{check_sigma_s, Perfect, SigmaS};
    use sih_model::{FailureDetector, FailurePattern, OpKind, ProcessId, Time, Value};
    use sih_runtime::{FairScheduler, Simulation};

    /// Long repeated-operation scripts so extraction has many completed
    /// operations, including well past detector stabilization.
    fn scripts(members: usize, ops: usize) -> Vec<Vec<OpKind>> {
        (0..members)
            .map(|i| {
                (0..ops)
                    .map(|j| {
                        if (i + j) % 2 == 0 {
                            OpKind::Write(Value((i * 100 + j) as u64))
                        } else {
                            OpKind::Read
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn run_extraction(
        pattern: &FailurePattern,
        s: ProcessSet,
        det: &(impl FailureDetector + Clone),
        seed: u64,
    ) -> sih_runtime::Trace {
        let n = pattern.n();
        let procs = extracting(abd_processes(s, n, scripts(s.len(), 8)));
        let mut sim = Simulation::new(procs, pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run_until(&mut sched, det, 500_000, |sim| {
            sim.pattern().correct().iter().all(|p| sim.process(p).inner().script_finished())
        });
        sim.into_trace()
    }

    #[test]
    fn extracted_history_satisfies_sigma_failure_free() {
        for seed in 0..5 {
            let f = FailurePattern::all_correct(4);
            let s = ProcessSet::from_iter([0, 1].map(ProcessId));
            let det = SigmaS::new(s, &f, seed);
            let tr = run_extraction(&f, s, &det, seed);
            // The extracted trusted lists — computed purely from message
            // flow — are a legal Σ_S history for the client subset.
            check_sigma_s(tr.emulated_history(), &f, s).unwrap();
        }
    }

    #[test]
    fn extracted_history_satisfies_sigma_with_crashes() {
        for seed in 0..5 {
            let f = FailurePattern::builder(5).crash_at(ProcessId(4), Time(30)).build();
            let s = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
            let det = SigmaS::new(s, &f, seed);
            let tr = run_extraction(&f, s, &det, seed);
            check_sigma_s(tr.emulated_history(), &f, s).unwrap();
        }
    }

    #[test]
    fn extraction_is_detector_agnostic() {
        // Same extraction over a register powered by the perfect
        // detector, in a minority-correct pattern no quorum-Σ could
        // serve: the extracted history is still a legal Σ_S history.
        for seed in 0..5 {
            let f = FailurePattern::builder(5)
                .crash_at(ProcessId(2), Time(50))
                .crash_at(ProcessId(3), Time(70))
                .crash_from_start(ProcessId(4))
                .build();
            assert!(!f.has_correct_majority());
            let s = ProcessSet::from_iter([0, 1].map(ProcessId));
            let det = Perfect::new(&f);
            let tr = run_extraction(&f, s, &det, seed);
            check_sigma_s(tr.emulated_history(), &f, s).unwrap();
        }
    }

    #[test]
    fn extracted_lists_pairwise_intersect_across_the_whole_run() {
        // The heart of the necessity argument, asserted directly: every
        // two heard-from sets of completed operations intersect.
        let f = FailurePattern::all_correct(4);
        let s = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
        let det = SigmaS::new(s, &f, 3);
        let tr = run_extraction(&f, s, &det, 3);
        let mut lists = Vec::new();
        for (_, tl) in tr.emulated_history().iter() {
            for (_, out) in tl.observations() {
                if let Some(set) = out.trust() {
                    lists.push(set);
                }
            }
        }
        // Consecutive identical outputs are deduplicated by the timeline,
        // so the distinct-list count is small even with many operations.
        assert!(lists.len() >= 4, "several distinct heard-from lists: {}", lists.len());
        for a in &lists {
            for b in &lists {
                assert!(a.intersects(*b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn operations_still_linearize_under_the_wrapper() {
        let f = FailurePattern::all_correct(4);
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let det = SigmaS::new(s, &f, 1);
        let tr = run_extraction(&f, s, &det, 1);
        let ops = tr.op_records();
        assert!(ops.iter().filter(|o| o.is_complete()).count() >= 16);
        // The big history exceeds the checker cap only if scripts grow;
        // 16 ops is fine.
        crate::linearizability::check_linearizable(&ops, None).unwrap();
    }
}
