//! The failure-detector family `σ_k` (Definition 9; `σ = σ_2`).
//!
//! `σ_k` chooses, per run, a set `A` of `k` *active* processes and
//! permanently outputs `⊥` elsewhere. At active processes the output is
//! either the bare `∅` or a pair `(X, A)` with `X ⊆ A`, satisfying:
//!
//! * **Well-formedness** — shapes as above;
//! * **Completeness** — at correct active processes, eventually every
//!   `(X, A)` output has `X ⊆ Correct(F)`;
//! * **Intersection** — the nonempty `X` components pairwise intersect,
//!   across processes and times;
//! * **Non-triviality** — let `A_low` be the `⌊k/2⌋` smallest processes of
//!   `A` and `A_high = A \ A_low`; if `Correct(F) ⊆ A_low` or
//!   `Correct(F) ⊆ A_high`, then at correct processes the output is
//!   eventually neither `∅` nor `(∅, A)`.
//!
//! The paper uses `σ_2k` to solve `(n−k)`-set agreement (Figure 4) and
//! shows `Σ_X ⪰ σ_|X|` (Figure 5) but not conversely (Lemma 11).

use crate::rng::{coin, query_rng};
use rand::Rng;
use sih_model::{FailureDetector, FailurePattern, FdOutput, ProcessId, ProcessSet, Time};

/// Talkativeness of a sampled `σ_k` history when non-triviality does not
/// force information (mirrors [`SigmaMode`](crate::SigmaMode)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SigmaKMode {
    /// Bare `∅` whenever allowed — the least helpful legal history.
    #[default]
    Reticent,
    /// Pivot-bearing `(X, A)` outputs even when not forced.
    Generous,
}

/// An oracle history of `σ_k` (Definition 9), sampled by a seed.
///
/// # Example
///
/// ```
/// use sih_detectors::SigmaK;
/// use sih_model::{FailureDetector, FailurePattern, FdOutput, ProcessId, ProcessSet, Time};
///
/// let active = ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId));
/// // Correct = {p0, p1} = A_low of A: non-triviality triggers.
/// let pattern = FailurePattern::crashed_from_start(
///     6,
///     ProcessSet::from_iter([2, 3, 4, 5].map(ProcessId)),
/// );
/// let d = SigmaK::new(active, &pattern, 3);
/// let out = d.output(ProcessId(0), d.stabilization_time() + 1);
/// let (x, a) = match out {
///     FdOutput::TrustActive { trust, active } => (trust, active),
///     other => panic!("forced output expected, got {other}"),
/// };
/// assert!(!x.is_empty());
/// assert_eq!(a, active);
/// ```
#[derive(Clone, Debug)]
pub struct SigmaK {
    active: ProcessSet,
    pattern: FailurePattern,
    mode: SigmaKMode,
    stab: Time,
    seed: u64,
    // Materialized at construction (the pattern is immutable per run):
    // queries never scan the pattern, so they are O(1) at any `n`.
    corr_a: ProcessSet,
    pivot: Option<ProcessId>,
    nontrivial: bool,
}

impl SigmaK {
    /// Samples a `σ_k` history with active set `active` (`k = |active|`).
    ///
    /// # Panics
    ///
    /// Panics if `active` is empty or not within `Π`.
    pub fn new(active: ProcessSet, pattern: &FailurePattern, seed: u64) -> Self {
        assert!(!active.is_empty(), "active set must be nonempty");
        assert!(active.iter().all(|p| p.index() < pattern.n()), "active set must be within Π");
        let corr_a: ProcessSet = active.iter().filter(|&a| pattern.is_correct(a)).collect();
        let low = active.smallest(active.len() / 2);
        let high = active.difference(low);
        // Correct ⊆ A_low ⟺ every correct process is a correct member of
        // A_low (counted, so no O(n) correct() materialization).
        let in_low = low.iter().filter(|&a| pattern.is_correct(a)).count();
        let in_high = high.iter().filter(|&a| pattern.is_correct(a)).count();
        let nc = pattern.correct_count();
        SigmaK {
            active,
            pattern: pattern.clone(),
            mode: SigmaKMode::Reticent,
            stab: pattern.last_crash_time().next(),
            seed,
            corr_a,
            pivot: corr_a.min(),
            nontrivial: nc == in_low || nc == in_high,
        }
    }

    /// Selects the [`SigmaKMode`].
    pub fn with_mode(mut self, mode: SigmaKMode) -> Self {
        self.mode = mode;
        self
    }

    /// Delays stabilization to `stab`.
    pub fn with_stabilization(mut self, stab: Time) -> Self {
        assert!(stab >= self.pattern.last_crash_time());
        self.stab = stab;
        self
    }

    /// The active set `A` (`k = |A|`).
    pub fn active(&self) -> ProcessSet {
        self.active
    }

    /// `A_low`: the `⌊k/2⌋` smallest active processes.
    pub fn low_half(&self) -> ProcessSet {
        self.active.smallest(self.active.len() / 2)
    }

    /// `A_high = A \ A_low`.
    pub fn high_half(&self) -> ProcessSet {
        self.active.difference(self.low_half())
    }

    /// Whether Definition 9's non-triviality trigger holds
    /// (`Correct ⊆ A_low` or `Correct ⊆ A_high`).
    pub fn nontrivial(&self) -> bool {
        self.nontrivial
    }

    fn pivot(&self) -> Option<ProcessId> {
        self.pivot
    }
}

impl FailureDetector for SigmaK {
    fn output(&self, p: ProcessId, t: Time) -> FdOutput {
        if !self.active.contains(p) {
            return FdOutput::Bot;
        }
        let Some(pivot) = self.pivot() else {
            return FdOutput::EMPTY_TRUST; // all actives faulty: ∅ forever
        };
        let corr_a = self.corr_a;
        // Each path below draws from the query's stream at most once, so
        // the stream is built where it is drawn from: an output that
        // draws nothing computes no ChaCha8 block.
        let rng = || query_rng(self.seed, p, t);
        let pair = |x: ProcessSet| FdOutput::TrustActive { trust: x, active: self.active };
        if t >= self.stab {
            if self.nontrivial() {
                // Forced: neither ∅ nor (∅, A); X ⊆ Correct with pivot.
                if corr_a.len() > 1 && coin(&mut rng()) {
                    pair(corr_a)
                } else {
                    pair(ProcessSet::singleton(pivot))
                }
            } else {
                // No trigger: "σ_k may give no information to processes in
                // A (in this case the output for the processes in A is
                // (∅, A))" — §4.1. The bare ∅ is only a transient; after
                // stabilization the no-information output reveals A, which
                // Figure 4's `while A = ∅` loop needs for termination.
                match self.mode {
                    SigmaKMode::Reticent => pair(ProcessSet::EMPTY),
                    SigmaKMode::Generous => match rng().gen_range(0..2u8) {
                        0 => pair(ProcessSet::EMPTY),
                        _ => pair(ProcessSet::singleton(pivot)),
                    },
                }
            }
        } else {
            match rng().gen_range(0..4u8) {
                0 => FdOutput::EMPTY_TRUST,
                1 => pair(ProcessSet::EMPTY),
                2 => pair(ProcessSet::singleton(pivot)),
                _ => pair(self.active),
            }
        }
    }

    fn stabilization_time(&self) -> Time {
        self.stab
    }

    fn name(&self) -> String {
        format!("σ_{} (A={})", self.active.len(), self.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active4() -> ProcessSet {
        ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId))
    }

    #[test]
    fn halves_split_by_identity() {
        let f = FailurePattern::all_correct(6);
        let d = SigmaK::new(active4(), &f, 0);
        assert_eq!(d.low_half(), ProcessSet::from_iter([0, 1].map(ProcessId)));
        assert_eq!(d.high_half(), ProcessSet::from_iter([2, 3].map(ProcessId)));
    }

    #[test]
    fn bot_at_non_active() {
        let f = FailurePattern::all_correct(6);
        let d = SigmaK::new(active4(), &f, 0);
        for t in 0..40 {
            assert_eq!(d.output(ProcessId(4), Time(t)), FdOutput::Bot);
            assert_eq!(d.output(ProcessId(5), Time(t)), FdOutput::Bot);
        }
    }

    #[test]
    fn well_formed_shapes() {
        let f = FailurePattern::all_correct(6);
        let d = SigmaK::new(active4(), &f, 1).with_mode(SigmaKMode::Generous);
        for p in d.active() {
            for t in 0..60 {
                match d.output(p, Time(t)) {
                    FdOutput::Trust(s) => assert!(s.is_empty(), "bare output must be ∅"),
                    FdOutput::TrustActive { trust, active } => {
                        assert_eq!(active, d.active());
                        assert!(trust.is_subset(active));
                    }
                    other => panic!("illegal shape {other}"),
                }
            }
        }
    }

    #[test]
    fn intersection_of_nonempty_x_components() {
        for seed in 0..5 {
            let f =
                FailurePattern::crashed_from_start(6, ProcessSet::from_iter([4, 5].map(ProcessId)));
            let d = SigmaK::new(active4(), &f, seed).with_mode(SigmaKMode::Generous);
            let mut xs = Vec::new();
            for p in d.active() {
                for t in 0..80 {
                    if let FdOutput::TrustActive { trust, .. } = d.output(p, Time(t)) {
                        if !trust.is_empty() {
                            xs.push(trust);
                        }
                    }
                }
            }
            for a in &xs {
                for b in &xs {
                    assert!(a.intersects(*b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn nontrivial_when_correct_in_low_half() {
        let f = FailurePattern::crashed_from_start(
            6,
            ProcessSet::from_iter([2, 3, 4, 5].map(ProcessId)),
        );
        let d = SigmaK::new(active4(), &f, 2);
        assert!(d.nontrivial());
        for dt in 0..40 {
            let t = d.stabilization_time() + dt;
            for p in f.correct() {
                match d.output(p, t) {
                    FdOutput::TrustActive { trust, .. } => {
                        assert!(!trust.is_empty());
                        assert!(trust.is_subset(f.correct()));
                    }
                    other => panic!("forced output expected, got {other}"),
                }
            }
        }
    }

    #[test]
    fn nontrivial_when_correct_in_high_half() {
        let f = FailurePattern::crashed_from_start(
            6,
            ProcessSet::from_iter([0, 1, 4, 5].map(ProcessId)),
        );
        let d = SigmaK::new(active4(), &f, 2);
        assert!(d.nontrivial());
    }

    #[test]
    fn trivial_when_correct_straddles_halves() {
        // Correct = {p1, p2} intersects both halves: σ_k may stay silent.
        let f = FailurePattern::crashed_from_start(
            6,
            ProcessSet::from_iter([0, 3, 4, 5].map(ProcessId)),
        );
        let d = SigmaK::new(active4(), &f, 2);
        assert!(!d.nontrivial());
        for dt in 0..40 {
            let t = d.stabilization_time() + dt;
            // The stable no-information output reveals A but trusts no one.
            assert_eq!(
                d.output(ProcessId(1), t),
                FdOutput::TrustActive { trust: ProcessSet::EMPTY, active: active4() }
            );
        }
    }

    #[test]
    fn n_equals_k_case_all_processes_active() {
        // The special case the paper weakens the definition for: A = Π.
        let f = FailurePattern::all_correct(4);
        let d = SigmaK::new(ProcessSet::full(4), &f, 3);
        assert!(!d.nontrivial()); // correct set straddles both halves
                                  // The stable output is (∅, Π): the active component is revealed but
                                  // carries no failure information — exactly what Lemma 11's n = 2k
                                  // case exploits.
        let t = d.stabilization_time() + 10;
        assert_eq!(
            d.output(ProcessId(0), t),
            FdOutput::TrustActive { trust: ProcessSet::EMPTY, active: ProcessSet::full(4) }
        );
    }

    #[test]
    fn purity() {
        let f = FailurePattern::all_correct(6);
        let d = SigmaK::new(active4(), &f, 9).with_mode(SigmaKMode::Generous);
        for t in 0..50 {
            assert_eq!(d.output(ProcessId(1), Time(t)), d.output(ProcessId(1), Time(t)));
        }
    }
}
