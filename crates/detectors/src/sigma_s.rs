//! The quorum failure detector `Σ_S` of [9] (§2.2 of the paper).
//!
//! `Σ_S` outputs, at each process of `S`, a list of *trusted* processes
//! such that (Intersection) every two lists — across processes of `S` and
//! across all times — intersect, and (Completeness) eventually the lists
//! of correct processes of `S` contain only correct processes. `Σ_S` is
//! the weakest failure detector to implement an `S`-register
//! (Proposition 1, from [9]).

use crate::rng::{query_rng, random_subset};
use sih_model::{FailureDetector, FailurePattern, FdOutput, ProcessId, ProcessSet, Time};

/// An oracle history of `Σ_S`, sampled from the detector's set of legal
/// histories by a seed.
///
/// Construction: a fixed *pivot* correct process belongs to every emitted
/// list, which guarantees Intersection; before the stabilization time
/// lists are `{pivot} ∪ (random subset of Π)`, after it they are
/// `{pivot} ∪ (random subset of Correct(F))`, which guarantees
/// Completeness. Following the paper's convention, the list output at a
/// crashed process of `S` is `Π`; processes outside `S` see `⊥` (the
/// paper leaves them unspecified).
///
/// # Example
///
/// ```
/// use sih_detectors::SigmaS;
/// use sih_model::{FailureDetector, FailurePattern, ProcessId, ProcessSet, Time};
///
/// let pattern = FailurePattern::crashed_from_start(4, ProcessSet::singleton(ProcessId(3)));
/// let sigma = SigmaS::new(ProcessSet::full(4), &pattern, 42);
/// let out = sigma.output(ProcessId(0), sigma.stabilization_time() + 10);
/// assert!(out.trust().unwrap().is_subset(pattern.correct()));
/// ```
#[derive(Clone, Debug)]
pub struct SigmaS {
    s: ProcessSet,
    pattern: FailurePattern,
    pivot: ProcessId,
    stab: Time,
    seed: u64,
    // Copied once at construction (the pattern is immutable per run):
    // queries read the two sets here, without the size checks of the
    // pattern's accessors.
    correct: ProcessSet,
    all: ProcessSet,
}

impl SigmaS {
    /// Samples a `Σ_S` history for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is empty or `pattern` has no correct process. The
    /// trust lists are [`ProcessSet`]s drawn from `Π`, so `Σ_S` histories
    /// exist only for `n ≤ ProcessSet::MAX_PROCESSES`; large-`n` register
    /// emulations use the majority quorum rule instead (no detector).
    pub fn new(s: ProcessSet, pattern: &FailurePattern, seed: u64) -> Self {
        assert!(!s.is_empty(), "S must be nonempty");
        let pivot = pattern.first_correct().expect("at least one correct process");
        SigmaS {
            s,
            pattern: pattern.clone(),
            pivot,
            stab: pattern.last_crash_time().next(),
            seed,
            correct: pattern.correct(),
            all: pattern.all(),
        }
    }

    /// Delays stabilization to `stab` (must not precede the last crash;
    /// useful to stress "eventually" handling in consumers).
    pub fn with_stabilization(mut self, stab: Time) -> Self {
        assert!(stab >= self.pattern.last_crash_time());
        self.stab = stab;
        self
    }

    /// The subset `S` this register detector serves.
    pub fn subset(&self) -> ProcessSet {
        self.s
    }

    /// The pivot process contained in every emitted list.
    pub fn pivot(&self) -> ProcessId {
        self.pivot
    }
}

impl FailureDetector for SigmaS {
    fn output(&self, p: ProcessId, t: Time) -> FdOutput {
        if !self.s.contains(p) {
            return FdOutput::Bot;
        }
        if !self.pattern.is_alive(p, t) {
            // Paper convention: the list output at a crashed process of S
            // is Π.
            return FdOutput::Trust(self.all);
        }
        let base = if t >= self.stab { self.correct } else { self.all };
        let mut rng = query_rng(self.seed, p, t);
        let mut list = random_subset(&mut rng, base);
        list.insert(self.pivot);
        FdOutput::Trust(list)
    }

    fn stabilization_time(&self) -> Time {
        self.stab
    }

    fn name(&self) -> String {
        format!("Σ_{}", self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern() -> FailurePattern {
        FailurePattern::builder(4)
            .crash_at(ProcessId(2), Time(6))
            .crash_from_start(ProcessId(3))
            .build()
    }

    #[test]
    fn outputs_bot_outside_s() {
        let f = pattern();
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let d = SigmaS::new(s, &f, 1);
        assert_eq!(d.output(ProcessId(2), Time(1)), FdOutput::Bot);
        assert!(d.output(ProcessId(0), Time(1)).trust().is_some());
    }

    #[test]
    fn every_pair_of_lists_intersects() {
        let f = pattern();
        let d = SigmaS::new(ProcessSet::full(4), &f, 7);
        let mut lists = Vec::new();
        for p in 0..4u32 {
            for t in 0..30u64 {
                if let Some(s) = d.output(ProcessId(p), Time(t)).trust() {
                    lists.push(s);
                }
            }
        }
        for a in &lists {
            for b in &lists {
                assert!(a.intersects(*b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn completeness_after_stabilization() {
        let f = pattern();
        let d = SigmaS::new(ProcessSet::full(4), &f, 3);
        let correct = f.correct();
        for p in correct {
            for dt in 0..50u64 {
                let t = d.stabilization_time() + dt;
                let list = d.output(p, t).trust().unwrap();
                assert!(list.is_subset(correct), "{list} at {p},{t}");
            }
        }
    }

    #[test]
    fn crashed_member_of_s_outputs_pi() {
        let f = pattern();
        let d = SigmaS::new(ProcessSet::full(4), &f, 3);
        assert_eq!(d.output(ProcessId(3), Time(0)), FdOutput::Trust(f.all()));
        assert_eq!(d.output(ProcessId(2), Time(7)), FdOutput::Trust(f.all()));
        // Still alive at its crash time.
        assert_ne!(d.output(ProcessId(2), Time(6)), FdOutput::Bot);
    }

    #[test]
    fn purity() {
        let f = pattern();
        let d = SigmaS::new(ProcessSet::full(4), &f, 11);
        for t in 0..40u64 {
            assert_eq!(d.output(ProcessId(0), Time(t)), d.output(ProcessId(0), Time(t)));
        }
    }

    #[test]
    fn delayed_stabilization() {
        let f = pattern();
        let d = SigmaS::new(ProcessSet::full(4), &f, 5).with_stabilization(Time(100));
        assert_eq!(d.stabilization_time(), Time(100));
        // Pre-stab lists may contain faulty processes; post-stab cannot.
        let post = d.output(ProcessId(0), Time(150)).trust().unwrap();
        assert!(post.is_subset(f.correct()));
    }

    #[test]
    fn name_mentions_subset() {
        let f = pattern();
        let d = SigmaS::new(ProcessSet::from_iter([0, 1].map(ProcessId)), &f, 0);
        assert!(d.name().contains("p0"));
    }
}
