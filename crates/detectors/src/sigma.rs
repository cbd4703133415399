//! The failure detector `σ` introduced by the paper (Definition 3).
//!
//! `σ` chooses, per run, a pair `A = {p, q}` of *active* processes (not
//! necessarily correct). It permanently outputs `⊥` at all other
//! processes. At active processes it outputs subsets of `A` such that:
//!
//! * **Well-formedness** — outputs at active processes are subsets of `A`;
//!   `⊥` elsewhere.
//! * **Completeness** — at correct active processes, outputs are
//!   eventually contained in `Correct(F)`.
//! * **Intersection** — any two *nonempty* outputs (across processes and
//!   times) intersect.
//! * **Non-triviality** — if `Correct(F) ⊆ A`, outputs at active
//!   processes are eventually nonempty.
//!
//! The paper proves `σ` sufficient for `(n−1)`-set agreement (Figure 2 /
//! Theorem 4) yet insufficient for a `{p,q}`-register (Lemma 7): `σ` is
//! the witness separating *sharing* from *agreeing*.

use crate::rng::{coin, query_rng};
use rand::Rng;
use sih_model::{FailureDetector, FailurePattern, FdOutput, ProcessId, ProcessSet, Time};

/// How talkative a sampled `σ` history is when the active processes are
/// *not* the only correct ones (where the specification allows plain `∅`
/// forever).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SigmaMode {
    /// Output `∅` at active processes whenever non-triviality does not
    /// force information — the *least* helpful legal history, the one the
    /// impossibility argument of Lemma 7 exploits.
    #[default]
    Reticent,
    /// Additionally output trusted subsets (built around a correct pivot
    /// in `A`, when one exists) even when not forced to — a *more*
    /// helpful history; positive algorithms must work under both.
    Generous,
}

/// An oracle history of `σ` (Definition 3), sampled by a seed.
///
/// # Example
///
/// ```
/// use sih_detectors::Sigma;
/// use sih_model::{FailureDetector, FailurePattern, FdOutput, ProcessId, ProcessSet, Time};
///
/// // Only the active pair {p0, p1} is correct: non-triviality kicks in.
/// let pattern = FailurePattern::crashed_from_start(4, ProcessSet::from_iter([2, 3].map(ProcessId)));
/// let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 7);
/// assert_eq!(sigma.output(ProcessId(2), Time(5)), FdOutput::Bot);
/// let late = sigma.output(ProcessId(0), sigma.stabilization_time() + 5);
/// assert!(!late.trust().unwrap().is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Sigma {
    active: ProcessSet,
    pattern: FailurePattern,
    mode: SigmaMode,
    stab: Time,
    seed: u64,
    // Materialized at construction: the failure pattern is immutable, so
    // `Correct(F) ∩ A`, the pivot and the non-triviality trigger are
    // per-run constants. Queries are then O(1) at any `n` — the oracle
    // never scans the pattern (`correct()` is O(n) and 64-capped) on the
    // hot path.
    corr_a: ProcessSet,
    pivot: Option<ProcessId>,
    nontrivial: bool,
}

impl Sigma {
    /// Samples a `σ` history with active pair `{a0, a1}`.
    ///
    /// # Panics
    ///
    /// Panics if `a0 == a1` or either is out of range.
    pub fn new(a0: ProcessId, a1: ProcessId, pattern: &FailurePattern, seed: u64) -> Self {
        assert_ne!(a0, a1, "the active set is a pair of two distinct processes");
        assert!(a0.index() < pattern.n() && a1.index() < pattern.n());
        let corr_a: ProcessSet = [a0, a1].into_iter().filter(|&a| pattern.is_correct(a)).collect();
        Sigma {
            active: ProcessSet::from_iter([a0, a1]),
            pattern: pattern.clone(),
            mode: SigmaMode::Reticent,
            stab: pattern.last_crash_time().next(),
            seed,
            corr_a,
            pivot: corr_a.min(),
            // Correct(F) ⊆ A ⟺ every correct process is a correct active.
            nontrivial: pattern.correct_count() == corr_a.len(),
        }
    }

    /// Selects the [`SigmaMode`].
    pub fn with_mode(mut self, mode: SigmaMode) -> Self {
        self.mode = mode;
        self
    }

    /// Delays stabilization to `stab`.
    pub fn with_stabilization(mut self, stab: Time) -> Self {
        assert!(stab >= self.pattern.last_crash_time());
        self.stab = stab;
        self
    }

    /// The active pair `A`.
    pub fn active(&self) -> ProcessSet {
        self.active
    }

    /// The correct pivot in `A`, if any: the least correct active process,
    /// contained in every nonempty output (which yields Intersection).
    fn pivot(&self) -> Option<ProcessId> {
        self.pivot
    }

    /// Whether `Correct(F) ⊆ A` (the non-triviality trigger).
    pub fn nontrivial(&self) -> bool {
        self.nontrivial
    }
}

impl FailureDetector for Sigma {
    fn output(&self, p: ProcessId, t: Time) -> FdOutput {
        if !self.active.contains(p) {
            return FdOutput::Bot;
        }
        let Some(pivot) = self.pivot() else {
            // Both active processes are faulty: ∅ forever is legal
            // (completeness constrains only correct active processes, and
            // ∅ never violates intersection).
            return FdOutput::EMPTY_TRUST;
        };
        let corr_a = self.corr_a;
        let mut rng = query_rng(self.seed, p, t);
        if t >= self.stab {
            if self.nontrivial() {
                // Must be nonempty, ⊆ Correct ∩ A, and contain the pivot.
                if corr_a.len() > 1 && coin(&mut rng) {
                    FdOutput::Trust(corr_a)
                } else {
                    FdOutput::Trust(ProcessSet::singleton(pivot))
                }
            } else {
                match self.mode {
                    SigmaMode::Reticent => FdOutput::EMPTY_TRUST,
                    SigmaMode::Generous => {
                        if coin(&mut rng) {
                            FdOutput::EMPTY_TRUST
                        } else {
                            FdOutput::Trust(ProcessSet::singleton(pivot))
                        }
                    }
                }
            }
        } else {
            // Pre-stabilization: ∅ or pivot-bearing subsets of A.
            match rng.gen_range(0..3u8) {
                0 => FdOutput::EMPTY_TRUST,
                1 => FdOutput::Trust(ProcessSet::singleton(pivot)),
                _ => FdOutput::Trust(self.active),
            }
        }
    }

    fn stabilization_time(&self) -> Time {
        self.stab
    }

    fn name(&self) -> String {
        format!("σ (A={})", self.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nontrivial_pattern() -> FailurePattern {
        // Correct = {p0, p1} = A.
        FailurePattern::crashed_from_start(4, ProcessSet::from_iter([2, 3].map(ProcessId)))
    }

    fn trivial_pattern() -> FailurePattern {
        // p2 correct and outside A.
        FailurePattern::all_correct(4)
    }

    fn collect_nonempty(d: &Sigma, horizon: u64) -> Vec<ProcessSet> {
        let mut out = Vec::new();
        for p in d.active() {
            for t in 0..horizon {
                if let Some(s) = d.output(p, Time(t)).trust() {
                    if !s.is_empty() {
                        out.push(s);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn bot_outside_active_pair_always() {
        let f = trivial_pattern();
        let d = Sigma::new(ProcessId(0), ProcessId(1), &f, 3);
        for t in 0..60 {
            assert_eq!(d.output(ProcessId(2), Time(t)), FdOutput::Bot);
            assert_eq!(d.output(ProcessId(3), Time(t)), FdOutput::Bot);
        }
    }

    #[test]
    fn well_formed_subsets_of_a() {
        let f = trivial_pattern();
        let d = Sigma::new(ProcessId(0), ProcessId(1), &f, 3).with_mode(SigmaMode::Generous);
        for p in d.active() {
            for t in 0..60 {
                let s = d.output(p, Time(t)).trust().expect("trust set at active");
                assert!(s.is_subset(d.active()));
            }
        }
    }

    #[test]
    fn nonempty_outputs_pairwise_intersect() {
        for seed in 0..5 {
            let f = nontrivial_pattern();
            let d = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let lists = collect_nonempty(&d, 80);
            for a in &lists {
                for b in &lists {
                    assert!(a.intersects(*b));
                }
            }
        }
    }

    #[test]
    fn nontriviality_when_only_actives_correct() {
        let f = nontrivial_pattern();
        let d = Sigma::new(ProcessId(0), ProcessId(1), &f, 9);
        assert!(d.nontrivial());
        for dt in 0..50 {
            let t = d.stabilization_time() + dt;
            for p in d.active() {
                let s = d.output(p, t).trust().unwrap();
                assert!(!s.is_empty());
                assert!(s.is_subset(f.correct()));
            }
        }
    }

    #[test]
    fn single_correct_active_eventually_self_only() {
        // q0 = p0 the only correct process: eventually H(p0, ·) = {p0},
        // which is what unblocks Task 2 of Figure 2.
        let f = FailurePattern::crashed_from_start(3, ProcessSet::from_iter([1, 2].map(ProcessId)));
        let d = Sigma::new(ProcessId(0), ProcessId(1), &f, 4);
        for dt in 0..50 {
            let t = d.stabilization_time() + dt;
            assert_eq!(
                d.output(ProcessId(0), t),
                FdOutput::Trust(ProcessSet::singleton(ProcessId(0)))
            );
        }
    }

    #[test]
    fn reticent_mode_gives_empty_when_not_forced() {
        let f = trivial_pattern();
        let d = Sigma::new(ProcessId(0), ProcessId(1), &f, 5);
        for dt in 0..50 {
            let t = d.stabilization_time() + dt;
            assert_eq!(d.output(ProcessId(0), t), FdOutput::EMPTY_TRUST);
        }
    }

    #[test]
    fn both_actives_faulty_outputs_empty() {
        let f = FailurePattern::crashed_from_start(3, ProcessSet::from_iter([0, 1].map(ProcessId)));
        let d = Sigma::new(ProcessId(0), ProcessId(1), &f, 5);
        for t in 0..50 {
            assert_eq!(d.output(ProcessId(0), Time(t)), FdOutput::EMPTY_TRUST);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_degenerate_pair() {
        let f = trivial_pattern();
        let _ = Sigma::new(ProcessId(0), ProcessId(0), &f, 0);
    }

    #[test]
    fn delayed_stabilization_defers_the_guarantees() {
        // With stabilization pushed out, pre-stab outputs may include the
        // whole pair even when one active is faulty; post-stab they are
        // confined to the correct actives.
        let f = FailurePattern::crashed_from_start(3, ProcessSet::from_iter([1, 2].map(ProcessId)));
        let d = Sigma::new(ProcessId(0), ProcessId(1), &f, 2).with_stabilization(Time(200));
        let mut saw_pair_pre_stab = false;
        for t in 0..200u64 {
            if d.output(ProcessId(0), Time(t)) == FdOutput::Trust(d.active()) {
                saw_pair_pre_stab = true;
            }
        }
        assert!(saw_pair_pre_stab, "pre-stab noise includes the full pair");
        for dt in 0..40u64 {
            assert_eq!(
                d.output(ProcessId(0), Time(200) + dt),
                FdOutput::Trust(ProcessSet::singleton(ProcessId(0)))
            );
        }
    }

    #[test]
    fn fact5_shape_across_seeds() {
        // Fact 5 of the paper: never do both actives see {self}. With
        // the pivot construction this holds at every time for every seed.
        for seed in 0..20 {
            let f =
                FailurePattern::crashed_from_start(4, ProcessSet::from_iter([2, 3].map(ProcessId)));
            let d = Sigma::new(ProcessId(0), ProcessId(1), &f, seed);
            let ever_self = |p: ProcessId| {
                (0..150u64)
                    .any(|t| d.output(p, Time(t)) == FdOutput::Trust(ProcessSet::singleton(p)))
            };
            // Across ALL times, not just simultaneously (Fact 5 quantifies
            // over two independent times).
            assert!(!(ever_self(ProcessId(0)) && ever_self(ProcessId(1))), "seed {seed}");
        }
    }
}
