//! Failure patterns: the function `F` of the paper's model (§2.1).

use crate::{ProcessId, ProcessSet, Time};
use std::fmt;

/// A failure pattern `F`: for each time `t`, the set of processes that have
/// crashed **by** time `t`.
///
/// Crashes are permanent (crash-stop), so `F` is fully described by one
/// optional crash time per process. A process with no crash time is
/// *correct* in the pattern; `Correct(F)` is [`FailurePattern::correct`].
///
/// Following the paper, a process crashed at time `t` no longer takes steps
/// at any time `t' > t`; the step *at* `t` itself is still allowed (the
/// proofs use "crash right after time `t`", which is `crash_at(p, t)` here:
/// alive at `t`, crashed at `t + 1`).
///
/// # Example
///
/// ```
/// use sih_model::{FailurePattern, ProcessId, Time};
/// let f = FailurePattern::builder(4)
///     .crash_at(ProcessId(1), Time(10))
///     .build();
/// assert!(f.is_alive(ProcessId(1), Time(10)));
/// assert!(!f.is_alive(ProcessId(1), Time(11)));
/// assert_eq!(f.correct().len(), 3);
/// assert!(f.has_correct_process());
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct FailurePattern {
    n: usize,
    crash_at: Vec<Option<Time>>,
    /// `Correct(F)`, computed when the pattern is built (a function of
    /// `crash_at`, so it adds nothing to equality); empty above
    /// [`ProcessSet::MAX_PROCESSES`], where [`FailurePattern::correct`]
    /// panics.
    correct: ProcessSet,
}

// Manual Clone so `clone_from` (used by `Simulation::reset` and the
// exhaustive explorer's per-edge state copies) reuses the crash-time
// vector instead of reallocating it.
impl Clone for FailurePattern {
    fn clone(&self) -> Self {
        FailurePattern { n: self.n, crash_at: self.crash_at.clone(), correct: self.correct }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.crash_at.clone_from(&source.crash_at);
        self.correct = source.correct;
    }
}

impl FailurePattern {
    /// Starts building a pattern over `n` processes (all correct unless
    /// crashes are added).
    ///
    /// Patterns themselves have no size cap (the scaling tier runs
    /// `n = 10⁶`); only the [`ProcessSet`]-returning views ([`Self::all`],
    /// [`Self::correct`], …) stay limited to
    /// [`ProcessSet::MAX_PROCESSES`] — large-`n` callers use the scalar
    /// accessors ([`Self::is_correct`], [`Self::correct_count`]) instead.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn builder(n: usize) -> FailurePatternBuilder {
        assert!(n > 0, "a system has at least one process");
        let pattern = FailurePattern { n, crash_at: vec![None; n], correct: ProcessSet::EMPTY };
        FailurePatternBuilder { pattern }
    }

    /// The failure-free pattern over `n` processes.
    pub fn all_correct(n: usize) -> FailurePattern {
        Self::builder(n).build()
    }

    /// A pattern in which exactly the processes of `crashed` are crashed
    /// from the very beginning (time `0`); all others are correct.
    pub fn crashed_from_start(n: usize, crashed: ProcessSet) -> FailurePattern {
        let mut b = Self::builder(n);
        for p in crashed {
            b = b.crash_from_start(p);
        }
        b.build()
    }

    /// Number of processes `n = |Π|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full process set `Π`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`ProcessSet::MAX_PROCESSES`]; large-`n`
    /// code iterates `0..n` directly instead of materializing `Π`.
    #[inline]
    pub fn all(&self) -> ProcessSet {
        ProcessSet::full(self.n)
    }

    /// `Correct(F)`: processes that never crash. O(1): the set is
    /// computed when the pattern is built.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`ProcessSet::MAX_PROCESSES`]; large-`n`
    /// code uses [`Self::correct_count`] / [`Self::is_correct`].
    #[inline]
    pub fn correct(&self) -> ProcessSet {
        assert!(
            self.n <= ProcessSet::MAX_PROCESSES,
            "Correct(F) is a ProcessSet only up to {} processes (n = {})",
            ProcessSet::MAX_PROCESSES,
            self.n
        );
        self.correct
    }

    /// `|Correct(F)|`, at any `n`. One O(n) scan; callers that need it
    /// per step cache the result (the engine does).
    pub fn correct_count(&self) -> usize {
        self.crash_at.iter().filter(|c| c.is_none()).count()
    }

    /// The smallest correct process, at any `n` (every environment of the
    /// paper guarantees one exists; returns `None` only for
    /// [`FailurePatternBuilder::build_unchecked`] patterns without one).
    pub fn first_correct(&self) -> Option<ProcessId> {
        self.crash_at.iter().position(Option::is_none).map(|i| ProcessId(i as u32))
    }

    /// The faulty processes `Π \ Correct(F)`.
    pub fn faulty(&self) -> ProcessSet {
        self.all().difference(self.correct())
    }

    /// Whether `p ∈ Correct(F)`.
    #[inline]
    pub fn is_correct(&self, p: ProcessId) -> bool {
        self.crash_at.get(p.index()).is_some_and(|c| c.is_none())
    }

    /// The crash time of `p`: the last time at which `p` may take a step.
    /// `None` means `p` is correct.
    #[inline]
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        self.crash_at.get(p.index()).copied().flatten()
    }

    /// Whether `p` may still take a step at time `t` (i.e. `p ∉ F(t)` with
    /// the "crash right after" reading documented on the type).
    #[inline]
    pub fn is_alive(&self, p: ProcessId, t: Time) -> bool {
        match self.crash_time(p) {
            None => p.index() < self.n,
            Some(c) if c == FROM_START => false,
            Some(c) => t <= c,
        }
    }

    /// `F(t)`: the set of processes crashed by time `t`.
    pub fn crashed_by(&self, t: Time) -> ProcessSet {
        (0..self.n as u32).map(ProcessId).filter(|p| !self.is_alive(*p, t)).collect()
    }

    /// The set of processes alive at time `t` (complement of `F(t)`).
    pub fn alive_at(&self, t: Time) -> ProcessSet {
        self.all().difference(self.crashed_by(t))
    }

    /// Whether at least one process is correct — the paper only considers
    /// failure patterns with this property (environment `E`).
    #[inline]
    pub fn has_correct_process(&self) -> bool {
        self.crash_at.iter().any(Option::is_none)
    }

    /// Whether a majority of processes is correct (`|Correct| > n/2`), the
    /// environment in which `Σ` is implementable without synchrony (§2.2).
    #[inline]
    pub fn has_correct_majority(&self) -> bool {
        self.correct_count() * 2 > self.n
    }

    /// The last finite crash time in the pattern, or `Time::ZERO` if none.
    ///
    /// After this time the alive set equals `Correct(F)`; oracle detectors
    /// use it to place their stabilization point.
    pub fn last_crash_time(&self) -> Time {
        self.crash_at
            .iter()
            .filter_map(|c| *c)
            .filter(|&c| c != FROM_START)
            .max()
            .unwrap_or(Time::ZERO)
    }
}

impl fmt::Debug for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FailurePattern(n={}, crashes=[", self.n)?;
        let mut first = true;
        for (i, c) in self.crash_at.iter().enumerate() {
            if let Some(t) = c {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "p{i}@{t}")?;
            }
        }
        write!(f, "])")
    }
}

/// Builder for [`FailurePattern`] (see [`FailurePattern::builder`]).
#[derive(Clone, Debug)]
pub struct FailurePatternBuilder {
    pattern: FailurePattern,
}

impl FailurePatternBuilder {
    /// Crashes `p` *right after* time `t`: `p` is alive at `t` and crashed
    /// at every `t' > t`. This matches the proofs' phrase "crash right
    /// after time `t`".
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn crash_at(mut self, p: ProcessId, t: Time) -> Self {
        assert!(p.index() < self.pattern.n, "process out of range");
        self.pattern.crash_at[p.index()] = Some(t);
        self
    }

    /// Crashes `p` from the very beginning: `p` never takes a step.
    pub fn crash_from_start(mut self, p: ProcessId) -> Self {
        assert!(p.index() < self.pattern.n, "process out of range");
        // Alive only "before time zero", i.e. never: we encode this with a
        // sentinel that fails `t <= c` for every t >= 0 — impossible with
        // Option<Time> alone, so we special-case Time::ZERO minus one step
        // by storing None-like marker: crash time handled in is_alive via
        // the FROM_START sentinel below.
        self.pattern.crash_at[p.index()] = Some(FROM_START);
        self
    }

    /// Finishes the pattern.
    ///
    /// # Panics
    ///
    /// Panics if every process is faulty — the paper's environment `E`
    /// requires at least one correct process in every pattern.
    pub fn build(self) -> FailurePattern {
        assert!(
            self.pattern.has_correct_process(),
            "the paper's environments require at least one correct process"
        );
        self.build_unchecked()
    }

    /// Finishes the pattern without the at-least-one-correct check.
    ///
    /// Only adversary constructions that explicitly reason about transient
    /// prefixes need this; normal code should use [`Self::build`].
    pub fn build_unchecked(self) -> FailurePattern {
        let mut pattern = self.pattern;
        if pattern.n <= ProcessSet::MAX_PROCESSES {
            pattern.correct =
                (0..pattern.n as u32).map(ProcessId).filter(|&p| pattern.is_correct(p)).collect();
        }
        pattern
    }
}

/// Sentinel crash time for "crashed from the start".
///
/// `is_alive(p, t)` tests `t <= crash_time`; with `u64::MAX` reserved this
/// would wrap, so we use a dedicated impossible time: alive at no `t` is
/// encoded by comparing against a value smaller than every time, which
/// `Option<Time>` cannot express directly — instead we store this sentinel
/// and special-case it.
const FROM_START: Time = Time(u64::MAX);

impl FailurePattern {
    /// Whether `p` is crashed from the very beginning (never takes a step).
    pub fn crashed_from_start_at(&self, p: ProcessId) -> bool {
        self.crash_time(p) == Some(FROM_START)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_correct_pattern() {
        let f = FailurePattern::all_correct(3);
        assert_eq!(f.n(), 3);
        assert_eq!(f.correct(), ProcessSet::full(3));
        assert!(f.faulty().is_empty());
        assert!(f.has_correct_majority());
        assert_eq!(f.last_crash_time(), Time::ZERO);
    }

    #[test]
    fn crash_right_after_semantics() {
        let f = FailurePattern::builder(3).crash_at(ProcessId(0), Time(5)).build();
        assert!(f.is_alive(ProcessId(0), Time(5)));
        assert!(!f.is_alive(ProcessId(0), Time(6)));
        assert!(!f.is_correct(ProcessId(0)));
        assert_eq!(f.crashed_by(Time(5)), ProcessSet::EMPTY);
        assert_eq!(f.crashed_by(Time(6)), ProcessSet::singleton(ProcessId(0)));
        assert_eq!(f.alive_at(Time(6)), ProcessSet::from_iter([1, 2].map(ProcessId)));
    }

    #[test]
    fn crash_from_start_means_no_steps_ever() {
        let f = FailurePattern::builder(3).crash_from_start(ProcessId(2)).build();
        assert!(!f.is_alive(ProcessId(2), Time::ZERO));
        assert!(f.crashed_from_start_at(ProcessId(2)));
        assert!(!f.crashed_from_start_at(ProcessId(1)));
        assert_eq!(f.correct().len(), 2);
    }

    #[test]
    fn crashed_from_start_helper() {
        let crashed = ProcessSet::from_iter([0, 2].map(ProcessId));
        let f = FailurePattern::crashed_from_start(4, crashed);
        assert_eq!(f.faulty(), crashed);
        assert!(!f.is_alive(ProcessId(0), Time::ZERO));
        assert!(f.is_alive(ProcessId(1), Time(1_000)));
    }

    #[test]
    fn majority_detection() {
        let f = FailurePattern::crashed_from_start(5, ProcessSet::from_iter([0, 1].map(ProcessId)));
        assert!(f.has_correct_majority());
        let g = FailurePattern::crashed_from_start(4, ProcessSet::from_iter([0, 1].map(ProcessId)));
        assert!(!g.has_correct_majority());
    }

    #[test]
    fn last_crash_time_ignores_from_start_sentinel_for_stabilization() {
        // From-start crashes have no finite crash step; stabilization only
        // cares that after last_crash_time the alive set equals Correct.
        let f = FailurePattern::builder(3).crash_at(ProcessId(0), Time(9)).build();
        assert_eq!(f.last_crash_time(), Time(9));
        assert_eq!(f.alive_at(f.last_crash_time().next()), f.correct());
    }

    #[test]
    #[should_panic(expected = "at least one correct")]
    fn all_faulty_rejected() {
        let _ = FailurePattern::builder(1).crash_from_start(ProcessId(0)).build();
    }

    #[test]
    fn build_unchecked_allows_all_faulty() {
        let f = FailurePattern::builder(1).crash_from_start(ProcessId(0)).build_unchecked();
        assert!(!f.has_correct_process());
    }

    #[test]
    fn large_patterns_work_without_process_set_views() {
        let f = FailurePattern::builder(100_000)
            .crash_at(ProcessId(77_777), Time(9))
            .crash_from_start(ProcessId(5))
            .build();
        assert_eq!(f.n(), 100_000);
        assert_eq!(f.correct_count(), 99_998);
        assert_eq!(f.first_correct(), Some(ProcessId(0)));
        assert!(f.is_alive(ProcessId(99_999), Time(1_000)));
        assert!(f.is_alive(ProcessId(77_777), Time(9)));
        assert!(!f.is_alive(ProcessId(77_777), Time(10)));
        assert!(!f.is_alive(ProcessId(5), Time::ZERO));
        assert_eq!(f.last_crash_time(), Time(9));
    }

    #[test]
    fn correct_count_matches_correct_set_at_small_n() {
        let f = FailurePattern::builder(6).crash_at(ProcessId(2), Time(3)).build();
        assert_eq!(f.correct_count(), f.correct().len());
        assert_eq!(f.first_correct(), Some(ProcessId(0)));
        let g = FailurePattern::builder(3).crash_from_start(ProcessId(0)).build();
        assert_eq!(g.first_correct(), Some(ProcessId(1)));
    }

    #[test]
    fn debug_format_lists_crashes() {
        let f = FailurePattern::builder(3).crash_at(ProcessId(1), Time(4)).build();
        let s = format!("{f:?}");
        assert!(s.contains("p1@t4"), "{s}");
    }
}
