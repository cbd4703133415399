//! Recorded failure-detector histories.
//!
//! Two uses:
//!
//! 1. **Recording**: the simulator records every emulated output an
//!    emulation algorithm (Figures 3, 5, 6) produces, yielding a
//!    [`RecordedHistory`] that the spec checkers validate.
//! 2. **Authoring**: adversary constructions (Lemmas 7, 11, 15) build the
//!    exact histories of the proofs with [`RecordedHistory::record`] and
//!    then hand them to the simulator as the oracle — `RecordedHistory`
//!    implements [`FailureDetector`].

// sih-analysis: allow(index-reachable) — `record` grows the timelines to cover a process index
// checked against n before writing it, and `at` indexes below a partition point of its changes.
use crate::{FailureDetector, FdOutput, ProcessId, Time};
use std::fmt;

/// The output of one process over time, as a step function.
///
/// The timeline starts at an `initial` output and changes at recorded
/// times; [`OutputTimeline::at`] reads the value in effect at a time.
///
/// # Example
///
/// ```
/// use sih_model::{FdOutput, OutputTimeline, ProcessId, ProcessSet, Time};
/// let mut tl = OutputTimeline::new(FdOutput::Bot);
/// tl.set(Time(5), FdOutput::Trust(ProcessSet::singleton(ProcessId(0))));
/// assert_eq!(tl.at(Time(4)), FdOutput::Bot);
/// assert_eq!(tl.at(Time(5)).trust().unwrap().len(), 1);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct OutputTimeline {
    initial: FdOutput,
    changes: Vec<(Time, FdOutput)>,
}

// Manual Clone so `clone_from` reuses the change-list allocation — the
// exhaustive explorer clones traces (which hold one timeline per process)
// on every tree edge, where the derive's allocate-and-drop default shows
// up hot.
impl Clone for OutputTimeline {
    fn clone(&self) -> Self {
        OutputTimeline { initial: self.initial, changes: self.changes.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.initial = source.initial;
        self.changes.clone_from(&source.changes);
    }
}

impl OutputTimeline {
    /// A timeline that is `initial` forever (until changes are recorded).
    pub fn new(initial: FdOutput) -> Self {
        OutputTimeline { initial, changes: Vec::new() }
    }

    /// Empties the timeline back to `initial` forever, keeping the
    /// change-list allocation (for run-over-run reuse).
    pub fn reset(&mut self, initial: FdOutput) {
        self.initial = initial;
        self.changes.clear();
    }

    /// Records that the output becomes `out` at time `t` (and stays so
    /// until the next recorded change).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an already-recorded change (timelines are
    /// written forward in time).
    pub fn set(&mut self, t: Time, out: FdOutput) {
        if let Some(&(last, prev)) = self.changes.last() {
            assert!(t >= last, "timeline written backwards: {t} after {last}");
            if prev == out {
                return; // no actual change
            }
            if last == t {
                // Same-instant overwrite: keep the latest value.
                self.changes
                    .last_mut()
                    .expect("invariant: this branch is only reached when changes is nonempty")
                    .1 = out;
                return;
            }
        } else if out == self.initial {
            return;
        }
        self.changes.push((t, out));
    }

    /// The output in effect at time `t`.
    pub fn at(&self, t: Time) -> FdOutput {
        match self.changes.partition_point(|&(ct, _)| ct <= t) {
            0 => self.initial,
            i => self.changes[i - 1].1,
        }
    }

    /// The output before the first recorded change.
    pub fn initial(&self) -> FdOutput {
        self.initial
    }

    /// The recorded changes `(time, output)`, in time order.
    pub fn changes(&self) -> &[(Time, FdOutput)] {
        &self.changes
    }

    /// The output after all recorded changes.
    pub fn final_output(&self) -> FdOutput {
        self.changes.last().map_or(self.initial, |&(_, o)| o)
    }

    /// Time of the last recorded change (`Time::ZERO` if none).
    pub fn last_change(&self) -> Time {
        self.changes.last().map_or(Time::ZERO, |&(t, _)| t)
    }

    /// Every distinct output value that ever appears, with the time it
    /// first takes effect. Includes the initial value at `Time::ZERO`.
    pub fn observations(&self) -> Vec<(Time, FdOutput)> {
        let mut out = vec![(Time::ZERO, self.initial)];
        out.extend(self.changes.iter().copied());
        out
    }

    /// How many times the given output value is *entered* over the
    /// timeline (used by the `anti-Ω` finiteness checker).
    pub fn times_entered(&self, value: FdOutput) -> usize {
        self.observations().iter().filter(|&&(_, o)| o == value).count()
    }
}

/// A full failure-detector history `H`: one [`OutputTimeline`] per process.
///
/// Implements [`FailureDetector`], so an authored history can be plugged
/// straight into the simulator as the oracle for a run — this is how the
/// adversary constructions of Lemmas 7, 11 and 15 feed the proofs' explicit
/// histories to candidate algorithms.
///
/// Timelines are materialised lazily: a history from [`new`](Self::new)
/// stores only `n` and one blank timeline, and holds per-process timelines
/// up to the highest process that has recorded. A process beyond them
/// reads the blank one. Every accessor, `==` and [`Clone::clone_from`]
/// see the same `n` timelines either way.
///
/// # Example
///
/// ```
/// use sih_model::{FailureDetector, FdOutput, ProcessId, RecordedHistory, Time};
/// let mut h = RecordedHistory::new(3, FdOutput::Bot);
/// h.record(ProcessId(1), Time(2), FdOutput::Leader(ProcessId(0)));
/// assert_eq!(h.output(ProcessId(1), Time(1)), FdOutput::Bot);
/// assert_eq!(h.output(ProcessId(1), Time(3)), FdOutput::Leader(ProcessId(0)));
/// assert_eq!(h.output(ProcessId(0), Time(9)), FdOutput::Bot);
/// ```
pub struct RecordedHistory {
    n: usize,
    /// What a process at or beyond `timelines.len()` reads: its initial
    /// output forever.
    blank: OutputTimeline,
    /// The materialised prefix of the per-process timelines (at most `n`).
    timelines: Vec<OutputTimeline>,
    label: String,
}

// Manual Clone for the same reason as [`OutputTimeline`]: `clone_from`
// recycles the per-process timeline vectors and the label buffer.
impl Clone for RecordedHistory {
    fn clone(&self) -> Self {
        RecordedHistory {
            n: self.n,
            blank: self.blank.clone(),
            timelines: self.timelines.clone(),
            label: self.label.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.blank.clone_from(&source.blank);
        self.timelines.clone_from(&source.timelines);
        self.label.clone_from(&source.label);
    }
}

/// Equal labels and equal timelines at every process, however many of
/// them either side has materialised.
impl PartialEq for RecordedHistory {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.label == other.label
            && self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
    }
}

impl Eq for RecordedHistory {}

/// All `n` timelines and the label, however many are materialised, so
/// equal histories render equally.
impl fmt::Debug for RecordedHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Timelines<'a>(&'a RecordedHistory);
        impl fmt::Debug for Timelines<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter().map(|(_, tl)| tl)).finish()
            }
        }
        f.debug_struct("RecordedHistory")
            .field("timelines", &Timelines(self))
            .field("label", &self.label)
            .finish()
    }
}

impl RecordedHistory {
    /// A history over `n` processes, all initially outputting `initial`.
    pub fn new(n: usize, initial: FdOutput) -> Self {
        RecordedHistory {
            n,
            blank: OutputTimeline::new(initial),
            timelines: Vec::new(),
            label: "recorded".to_owned(),
        }
    }

    /// A history with a distinct initial output per process.
    pub fn with_initials(initials: Vec<FdOutput>) -> Self {
        RecordedHistory {
            n: initials.len(),
            blank: OutputTimeline::new(FdOutput::Bot),
            timelines: initials.into_iter().map(OutputTimeline::new).collect(),
            label: "recorded".to_owned(),
        }
    }

    /// Sets a display label (used in experiment reports).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Empties the history back to `n` all-`initial` timelines, keeping
    /// per-timeline allocations where sizes allow (run-over-run reuse).
    pub fn reset(&mut self, n: usize, initial: FdOutput) {
        self.n = n;
        self.blank.reset(initial);
        self.timelines.truncate(n);
        for tl in &mut self.timelines {
            tl.reset(initial);
        }
    }

    /// Number of processes the history covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records `H(p, t) = out` from `t` on.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the timeline is written backwards.
    pub fn record(&mut self, p: ProcessId, t: Time, out: FdOutput) {
        let i = self.index(p);
        if i >= self.timelines.len() {
            self.timelines.resize(i + 1, self.blank.clone());
        }
        self.timelines[i].set(t, out);
    }

    /// The per-process timeline.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn timeline(&self, p: ProcessId) -> &OutputTimeline {
        self.timelines.get(self.index(p)).unwrap_or(&self.blank)
    }

    /// Iterates over `(process, timeline)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &OutputTimeline)> {
        (0..self.n).map(|i| (ProcessId(i as u32), self.timeline(ProcessId(i as u32))))
    }

    /// Approximate heap usage in bytes (capacity-based): the materialised
    /// timelines and their change lists. A history nobody recorded into
    /// holds none.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.timelines.capacity() * size_of::<OutputTimeline>()
            + self
                .timelines
                .iter()
                .map(|tl| tl.changes.capacity() * size_of::<(Time, FdOutput)>())
                .sum::<usize>()
    }

    /// `p`'s index, checked against `n`.
    #[inline]
    fn index(&self, p: ProcessId) -> usize {
        let i = p.index();
        assert!(i < self.n, "process {p} out of range for a history over {} processes", self.n);
        i
    }
}

impl FailureDetector for RecordedHistory {
    fn output(&self, p: ProcessId, t: Time) -> FdOutput {
        self.timeline(p).at(t)
    }

    fn stabilization_time(&self) -> Time {
        self.timelines.iter().map(OutputTimeline::last_change).max().unwrap_or(Time::ZERO)
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessSet;

    fn trust(ids: &[u32]) -> FdOutput {
        FdOutput::Trust(ids.iter().map(|&i| ProcessId(i)).collect())
    }

    #[test]
    fn timeline_step_function_semantics() {
        let mut tl = OutputTimeline::new(FdOutput::Bot);
        tl.set(Time(3), trust(&[0]));
        tl.set(Time(7), trust(&[0, 1]));
        assert_eq!(tl.at(Time(0)), FdOutput::Bot);
        assert_eq!(tl.at(Time(2)), FdOutput::Bot);
        assert_eq!(tl.at(Time(3)), trust(&[0]));
        assert_eq!(tl.at(Time(6)), trust(&[0]));
        assert_eq!(tl.at(Time(7)), trust(&[0, 1]));
        assert_eq!(tl.at(Time(1_000)), trust(&[0, 1]));
        assert_eq!(tl.final_output(), trust(&[0, 1]));
        assert_eq!(tl.last_change(), Time(7));
    }

    #[test]
    fn timeline_dedups_no_op_changes() {
        let mut tl = OutputTimeline::new(FdOutput::Bot);
        tl.set(Time(1), FdOutput::Bot); // same as initial: dropped
        assert_eq!(tl.last_change(), Time::ZERO);
        tl.set(Time(2), trust(&[1]));
        tl.set(Time(5), trust(&[1])); // same as previous: dropped
        assert_eq!(tl.last_change(), Time(2));
    }

    #[test]
    fn timeline_same_instant_overwrite_keeps_latest() {
        let mut tl = OutputTimeline::new(FdOutput::Bot);
        tl.set(Time(4), trust(&[0]));
        tl.set(Time(4), trust(&[1]));
        assert_eq!(tl.at(Time(4)), trust(&[1]));
        assert_eq!(tl.observations().len(), 2);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn timeline_rejects_backwards_writes() {
        let mut tl = OutputTimeline::new(FdOutput::Bot);
        tl.set(Time(5), trust(&[0]));
        tl.set(Time(4), trust(&[1]));
    }

    #[test]
    fn times_entered_counts_reentries() {
        let mut tl = OutputTimeline::new(FdOutput::Leader(ProcessId(0)));
        tl.set(Time(1), FdOutput::Leader(ProcessId(1)));
        tl.set(Time(2), FdOutput::Leader(ProcessId(0)));
        tl.set(Time(3), FdOutput::Leader(ProcessId(1)));
        assert_eq!(tl.times_entered(FdOutput::Leader(ProcessId(0))), 2);
        assert_eq!(tl.times_entered(FdOutput::Leader(ProcessId(1))), 2);
        assert_eq!(tl.times_entered(FdOutput::Bot), 0);
    }

    #[test]
    fn recorded_history_as_failure_detector() {
        let mut h = RecordedHistory::new(2, FdOutput::Bot).with_label("test H");
        h.record(ProcessId(0), Time(10), trust(&[0]));
        assert_eq!(h.output(ProcessId(0), Time(9)), FdOutput::Bot);
        assert_eq!(h.output(ProcessId(0), Time(10)), trust(&[0]));
        assert_eq!(h.output(ProcessId(1), Time(99)), FdOutput::Bot);
        assert_eq!(h.stabilization_time(), Time(10));
        assert_eq!(h.name(), "test H");
        assert_eq!(h.n(), 2);
    }

    #[test]
    fn with_initials_gives_per_process_start() {
        let h = RecordedHistory::with_initials(vec![FdOutput::Bot, trust(&[1])]);
        assert_eq!(h.output(ProcessId(0), Time(0)), FdOutput::Bot);
        assert_eq!(h.output(ProcessId(1), Time(0)), trust(&[1]));
    }

    #[test]
    fn timelines_materialise_up_to_the_highest_recorder() {
        let mut h = RecordedHistory::new(1_000, FdOutput::Bot);
        assert_eq!((h.timelines.len(), h.heap_bytes()), (0, 0));
        h.record(ProcessId(3), Time(1), trust(&[3]));
        assert_eq!(h.timelines.len(), 4);
        assert!(h.heap_bytes() > 0);
        assert_eq!(h.timeline(ProcessId(999)), &OutputTimeline::new(FdOutput::Bot));
        assert_eq!(h.iter().count(), 1_000);
        assert_eq!(RecordedHistory::with_initials(vec![FdOutput::Bot; 5]).timelines.len(), 5);
    }

    #[test]
    fn clone_from_crosses_sparse_and_materialised() {
        let mut sparse = RecordedHistory::new(6, FdOutput::Bot);
        sparse.record(ProcessId(1), Time(2), trust(&[1]));
        let mut dense = RecordedHistory::with_initials(vec![FdOutput::Bot; 6]);
        dense.record(ProcessId(5), Time(3), trust(&[0]));

        let mut copy = dense.clone();
        copy.clone_from(&sparse);
        assert_eq!(copy, sparse);
        assert_eq!(copy.timeline(ProcessId(5)), &OutputTimeline::new(FdOutput::Bot));
        assert_eq!(copy.output(ProcessId(1), Time(2)), trust(&[1]));

        copy.clone_from(&dense);
        assert_eq!(copy, dense);
        assert_eq!(copy.output(ProcessId(5), Time(3)), trust(&[0]));
        assert_eq!(copy.output(ProcessId(1), Time(2)), FdOutput::Bot);
        assert_ne!(copy, sparse);
    }

    #[test]
    fn reset_to_smaller_and_larger_n() {
        let mut h = RecordedHistory::with_initials(vec![FdOutput::Bot; 5]);
        h.record(ProcessId(4), Time(1), trust(&[4]));
        h.reset(3, FdOutput::Leader(ProcessId(0)));
        assert_eq!(h.n(), 3);
        assert_eq!(h, RecordedHistory::new(3, FdOutput::Leader(ProcessId(0))));
        assert_eq!(h.stabilization_time(), Time::ZERO);

        h.record(ProcessId(2), Time(4), trust(&[2]));
        h.reset(8, FdOutput::Bot);
        assert_eq!(h.n(), 8);
        assert_eq!(h, RecordedHistory::new(8, FdOutput::Bot));
        assert!(h.iter().all(|(_, tl)| tl == &OutputTimeline::new(FdOutput::Bot)));
        h.record(ProcessId(7), Time(1), trust(&[7]));
        assert_eq!(h.output(ProcessId(7), Time(1)), trust(&[7]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        RecordedHistory::new(3, FdOutput::Bot).record(ProcessId(3), Time(1), trust(&[0]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn timeline_out_of_range_panics() {
        let _ = RecordedHistory::new(3, FdOutput::Bot).timeline(ProcessId(3));
    }

    #[test]
    fn iter_covers_all_processes() {
        let h = RecordedHistory::new(3, FdOutput::Bot);
        let ids: Vec<ProcessId> = h.iter().map(|(p, _)| p).collect();
        assert_eq!(ids, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
        assert_eq!(
            h.iter().map(|(_, tl)| tl.at(Time::ZERO)).collect::<Vec<_>>(),
            vec![FdOutput::Bot; 3]
        );
        let _ = ProcessSet::full(3); // silence unused import in cfg(test)
    }
}
