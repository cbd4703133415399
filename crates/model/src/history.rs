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

// sih-analysis: allow(index-reachable) — timeline and record slots are sized to the model's n
// at construction and indexed only by ProcessId/Time values drawn from that model.
use crate::{FailureDetector, FdOutput, ProcessId, Time};

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
#[derive(Debug, PartialEq, Eq)]
pub struct RecordedHistory {
    timelines: Vec<OutputTimeline>,
    label: String,
}

// Manual Clone for the same reason as [`OutputTimeline`]: `clone_from`
// recycles the per-process timeline vectors and the label buffer.
impl Clone for RecordedHistory {
    fn clone(&self) -> Self {
        RecordedHistory { timelines: self.timelines.clone(), label: self.label.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.timelines.clone_from(&source.timelines);
        self.label.clone_from(&source.label);
    }
}

impl RecordedHistory {
    /// A history over `n` processes, all initially outputting `initial`.
    pub fn new(n: usize, initial: FdOutput) -> Self {
        RecordedHistory {
            timelines: vec![OutputTimeline::new(initial); n],
            label: "recorded".to_owned(),
        }
    }

    /// A history with a distinct initial output per process.
    pub fn with_initials(initials: Vec<FdOutput>) -> Self {
        RecordedHistory {
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
        self.timelines.truncate(n);
        for tl in &mut self.timelines {
            tl.reset(initial);
        }
        while self.timelines.len() < n {
            self.timelines.push(OutputTimeline::new(initial));
        }
    }

    /// Number of processes the history covers.
    pub fn n(&self) -> usize {
        self.timelines.len()
    }

    /// Records `H(p, t) = out` from `t` on.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the timeline is written backwards.
    pub fn record(&mut self, p: ProcessId, t: Time, out: FdOutput) {
        self.timelines[p.index()].set(t, out);
    }

    /// The per-process timeline.
    pub fn timeline(&self, p: ProcessId) -> &OutputTimeline {
        &self.timelines[p.index()]
    }

    /// Iterates over `(process, timeline)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &OutputTimeline)> {
        self.timelines.iter().enumerate().map(|(i, tl)| (ProcessId(i as u32), tl))
    }
}

impl FailureDetector for RecordedHistory {
    fn output(&self, p: ProcessId, t: Time) -> FdOutput {
        self.timelines[p.index()].at(t)
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
