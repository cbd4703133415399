//! Run traces: everything the meta-level checkers need to judge a run.
//!
//! A [`Trace`] records the observable events of a run — steps, sends,
//! decisions, emulated failure-detector outputs, register-operation
//! boundaries. The property checkers of the downstream crates (agreement,
//! σ/Σ specifications, linearizability) are all functions of a trace plus
//! the run's failure pattern.

// sih-analysis: allow(index-reachable) — per-process trace lanes are n-sized at construction
// and indexed by the stepping process's own id.
use crate::automaton::{MsgId, OpEvent};
use crate::fingerprint::StateHasher;
use sih_model::{
    FdOutput, OpId, OpKind, OpRecord, ProcessId, ProcessSet, RecordedHistory, Time, Value,
};
use std::collections::BTreeMap;

/// One observable event of a run.
///
/// `Copy`: every field is plain data, so the explorer's per-edge
/// `Vec<Event>::clone_from` is a `memcpy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A process took a step.
    Step {
        /// Step time.
        t: Time,
        /// Stepping process.
        p: ProcessId,
        /// The message delivered in this step, if any.
        delivered: Option<(ProcessId, MsgId)>,
        /// The failure-detector value obtained in this step.
        fd: FdOutput,
    },
    /// A message entered the network.
    Send {
        /// Sending step time.
        t: Time,
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Message id.
        id: MsgId,
    },
    /// A process decided.
    Decide {
        /// Decision time.
        t: Time,
        /// Deciding process.
        p: ProcessId,
        /// Decided value.
        value: Value,
    },
    /// A process updated its emulated failure-detector output.
    Emulate {
        /// Update time.
        t: Time,
        /// Emulating process.
        p: ProcessId,
        /// New output value.
        out: FdOutput,
    },
    /// A register operation was invoked.
    OpInvoke {
        /// Invocation time.
        t: Time,
        /// Invoking process.
        p: ProcessId,
        /// Operation id.
        id: OpId,
        /// Read or write.
        kind: OpKind,
    },
    /// A register operation returned.
    OpReturn {
        /// Response time.
        t: Time,
        /// Process whose operation returned.
        p: ProcessId,
        /// Operation id.
        id: OpId,
        /// Read or write.
        kind: OpKind,
        /// For reads, the value read.
        read_value: Option<Value>,
    },
}

/// How much of a run a [`Trace`] records.
///
/// Large sweeps execute millions of steps whose per-event records no
/// checker ever reads; [`TraceLevel::Light`] skips them while keeping
/// everything the property checkers consume.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceLevel {
    /// Record every event (steps, sends, decisions, emulations, ops).
    #[default]
    Full,
    /// Record only decisions, emulated-detector outputs and register-op
    /// boundaries — the inputs of the agreement/σ/linearizability
    /// checkers. Per-step `Step`/`Send` events are skipped (aggregate
    /// counters and `end_time` remain exact). Space-timing diagrams
    /// ([`render_diagram`](crate::render_diagram)) need a `Full` trace.
    Light,
}

/// The recorded trace of one run.
#[derive(Debug)]
pub struct Trace {
    n: usize,
    level: TraceLevel,
    events: Vec<Event>,
    decisions: Vec<Option<(Time, Value)>>,
    emulated: RecordedHistory,
    steps_taken: Vec<u64>,
    sent: u64,
    decided_count: usize,
    last_step_time: Time,
    /// Running hash of the `OpInvoke`/`OpReturn` events, folded in as
    /// they are recorded, so fingerprints never re-scan the event log.
    op_fp: StateHasher,
}

// Manual Clone so `clone_from` reuses the event log, decision table and
// per-process vectors — the exhaustive explorer copies the trace on
// every tree edge.
impl Clone for Trace {
    fn clone(&self) -> Self {
        Trace {
            n: self.n,
            level: self.level,
            events: self.events.clone(),
            decisions: self.decisions.clone(),
            emulated: self.emulated.clone(),
            steps_taken: self.steps_taken.clone(),
            sent: self.sent,
            decided_count: self.decided_count,
            last_step_time: self.last_step_time,
            op_fp: self.op_fp,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.level = source.level;
        self.events.clone_from(&source.events);
        self.decisions.clone_from(&source.decisions);
        self.emulated.clone_from(&source.emulated);
        self.steps_taken.clone_from(&source.steps_taken);
        self.sent = source.sent;
        self.decided_count = source.decided_count;
        self.last_step_time = source.last_step_time;
        self.op_fp = source.op_fp;
    }
}

impl Trace {
    /// An empty trace for `n` processes; `emulated_initial` is the output
    /// every process's emulated detector starts at (e.g. Figure 6
    /// processes emit their first `output` only after a step, so the
    /// checkers need a defined initial value — conventionally `⊥`).
    pub fn new(n: usize, emulated_initial: FdOutput) -> Self {
        Trace {
            n,
            level: TraceLevel::Full,
            events: Vec::new(),
            decisions: vec![None; n],
            emulated: RecordedHistory::new(n, emulated_initial),
            steps_taken: vec![0; n],
            sent: 0,
            decided_count: 0,
            last_step_time: Time::ZERO,
            op_fp: StateHasher::new(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    pub(crate) fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Empties the trace for a fresh run of `n` processes, keeping the
    /// recording level and (where sizes allow) the event and per-process
    /// allocations.
    pub(crate) fn reset(&mut self, n: usize, emulated_initial: FdOutput) {
        self.n = n;
        self.events.clear();
        self.decisions.clear();
        self.decisions.resize(n, None);
        self.emulated.reset(n, emulated_initial);
        self.steps_taken.clear();
        self.steps_taken.resize(n, 0);
        self.sent = 0;
        self.decided_count = 0;
        self.last_step_time = Time::ZERO;
        self.op_fp = StateHasher::new();
    }

    pub(crate) fn push_step(
        &mut self,
        t: Time,
        p: ProcessId,
        delivered: Option<(ProcessId, MsgId)>,
        fd: FdOutput,
    ) {
        self.steps_taken[p.index()] += 1;
        self.last_step_time = t;
        if self.level == TraceLevel::Full {
            self.events.push(Event::Step { t, p, delivered, fd });
        }
    }

    pub(crate) fn push_send(&mut self, t: Time, from: ProcessId, to: ProcessId, id: MsgId) {
        self.sent += 1;
        if self.level == TraceLevel::Full {
            self.events.push(Event::Send { t, from, to, id });
        }
    }

    /// Records a fan-out of one payload to every process except `except`.
    /// Message ids are sequential per recipient in increasing-id order
    /// starting at `first_id` — exactly the ids [`crate::Network::broadcast`]
    /// assigned — so a `Full` trace is byte-identical to the per-recipient
    /// `push_send` loop it replaces. At [`TraceLevel::Light`] only the
    /// aggregate counter moves: O(1) per broadcast instead of O(n).
    pub(crate) fn push_send_batch(
        &mut self,
        t: Time,
        from: ProcessId,
        n: usize,
        except: Option<ProcessId>,
        first_id: MsgId,
    ) {
        let count = n - except.is_some() as usize;
        self.sent += count as u64;
        if self.level == TraceLevel::Full {
            let mut id = first_id.0;
            for i in 0..n as u32 {
                let to = ProcessId(i);
                if Some(to) == except {
                    continue;
                }
                self.events.push(Event::Send { t, from, to, id: MsgId(id) });
                id += 1;
            }
        }
    }

    pub(crate) fn push_decide(&mut self, t: Time, p: ProcessId, value: Value) -> bool {
        if self.decisions[p.index()].is_some() {
            return false;
        }
        self.decisions[p.index()] = Some((t, value));
        self.decided_count += 1;
        self.events.push(Event::Decide { t, p, value });
        true
    }

    pub(crate) fn push_emulate(&mut self, t: Time, p: ProcessId, out: FdOutput) {
        self.emulated.record(p, t, out);
        self.events.push(Event::Emulate { t, p, out });
    }

    pub(crate) fn push_op_event(&mut self, t: Time, p: ProcessId, ev: OpEvent) {
        let h = &mut self.op_fp;
        h.write(&t);
        h.write(&p);
        match ev {
            OpEvent::Invoke { id, kind } => {
                h.write_u64(0);
                h.write(&id);
                h.write(&kind);
                self.events.push(Event::OpInvoke { t, p, id, kind });
            }
            OpEvent::Return { id, kind, read_value } => {
                h.write_u64(1);
                h.write(&id);
                h.write(&kind);
                h.write(&read_value);
                self.events.push(Event::OpReturn { t, p, id, kind, read_value });
            }
        }
    }

    /// All events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The decision of `p`, if it decided.
    pub fn decision_of(&self, p: ProcessId) -> Option<Value> {
        self.decisions[p.index()].map(|(_, v)| v)
    }

    /// The decision time of `p`, if it decided.
    pub fn decision_time_of(&self, p: ProcessId) -> Option<Time> {
        self.decisions[p.index()].map(|(t, _)| t)
    }

    /// The set of processes that decided.
    ///
    /// # Panics
    ///
    /// Panics if `n > ProcessSet::MAX_PROCESSES`; large-`n` callers use
    /// [`Trace::decided_count`] or [`Trace::decision_of`] instead.
    pub fn decided(&self) -> ProcessSet {
        (0..self.n as u32).map(ProcessId).filter(|p| self.decision_of(*p).is_some()).collect()
    }

    /// Number of processes that decided — O(1), any `n`.
    pub fn decided_count(&self) -> usize {
        self.decided_count
    }

    /// The distinct decided values, sorted.
    pub fn distinct_decisions(&self) -> Vec<Value> {
        let mut vals: Vec<Value> =
            self.decisions.iter().filter_map(|d| d.map(|(_, v)| v)).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// The recorded emulated-failure-detector history (one timeline per
    /// process) — what the σ/Σ/anti-Ω spec checkers consume.
    pub fn emulated_history(&self) -> &RecordedHistory {
        &self.emulated
    }

    /// Steps taken by `p`.
    pub fn steps_of(&self, p: ProcessId) -> u64 {
        self.steps_taken[p.index()]
    }

    /// Total steps in the run.
    pub fn total_steps(&self) -> u64 {
        self.steps_taken.iter().sum()
    }

    /// Total messages sent in the run.
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Approximate heap usage of the trace in bytes (capacity-based; the
    /// emulated-history timelines are not counted — they are empty in
    /// scale runs, which never emulate a detector).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.events.capacity() * size_of::<Event>()
            + self.decisions.capacity() * size_of::<Option<(Time, Value)>>()
            + self.steps_taken.capacity() * size_of::<u64>()
    }

    /// Assembles the register-operation records of the run by pairing
    /// invocation and response events. Operations whose response never
    /// arrived are returned as pending (`returned == None`).
    ///
    /// # Panics
    ///
    /// Panics if the trace contains a response without a matching
    /// invocation (an automaton bug, not a legal run).
    pub fn op_records(&self) -> Vec<OpRecord> {
        // BTreeMap, not HashMap: record assembly must not depend on the
        // process's random hash seed (determinism contract, DESIGN.md §6).
        let mut by_id: BTreeMap<OpId, OpRecord> = BTreeMap::new();
        let mut order: Vec<OpId> = Vec::new();
        for ev in &self.events {
            match *ev {
                Event::OpInvoke { t, p, id, kind } => {
                    let prev = by_id.insert(
                        id,
                        OpRecord {
                            id,
                            process: p,
                            kind,
                            invoked: t,
                            returned: None,
                            read_value: None,
                        },
                    );
                    assert!(prev.is_none(), "duplicate op invocation {id}");
                    order.push(id);
                }
                Event::OpReturn { t, id, kind, read_value, .. } => {
                    let rec = by_id
                        .get_mut(&id)
                        .unwrap_or_else(|| panic!("response without invocation {id}"));
                    assert_eq!(rec.kind, kind, "response kind mismatch for {id}");
                    rec.returned = Some(t);
                    rec.read_value = read_value;
                }
                _ => {}
            }
        }
        order.into_iter().map(|id| by_id[&id]).collect()
    }

    /// The last step time in the trace (`Time::ZERO` for an empty trace).
    /// O(1): tracked directly rather than scanned from the event log, so
    /// it is exact at every [`TraceLevel`].
    pub fn end_time(&self) -> Time {
        self.last_step_time
    }

    /// Feeds process `p`'s share of the trace's **checker inputs** into
    /// a state fingerprint: its step count, its decision with its time,
    /// and its emulated failure-detector timeline. Only `p`'s own steps
    /// change these, which is what lets [`crate::Simulation::fingerprint`]
    /// cache them in `p`'s word.
    pub(crate) fn process_into(&self, p: ProcessId, h: &mut StateHasher) {
        h.write(&self.steps_taken[p.index()]);
        h.write(&self.decisions[p.index()]);
        h.write(self.emulated.timeline(p));
    }

    /// Feeds the run-wide rest of the checker inputs: the
    /// register-operation events in order (as their running hash) and
    /// the sent counter.
    ///
    /// Together with [`Trace::process_into`] for every process this is
    /// the trace's whole contribution to a fingerprint. Per-step
    /// `Step`/`Send` events are *excluded* — they carry harness metadata
    /// (message ids, step-by-step schedules) that no property checker may
    /// read, and hashing them would make every interleaving unique,
    /// defeating dedup. Op events are recorded at every level, so the
    /// same fingerprint results at [`TraceLevel::Full`] and
    /// [`TraceLevel::Light`].
    pub(crate) fn counters_into(&self, h: &mut StateHasher) {
        h.write_u64(self.op_fp.finish());
        h.write_u64(self.sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_first_write_wins() {
        let mut tr = Trace::new(2, FdOutput::Bot);
        assert!(tr.push_decide(Time(1), ProcessId(0), Value(5)));
        assert!(!tr.push_decide(Time(2), ProcessId(0), Value(6)));
        assert_eq!(tr.decision_of(ProcessId(0)), Some(Value(5)));
        assert_eq!(tr.decision_time_of(ProcessId(0)), Some(Time(1)));
        assert_eq!(tr.decided(), ProcessSet::singleton(ProcessId(0)));
    }

    #[test]
    fn distinct_decisions_sorted_dedup() {
        let mut tr = Trace::new(3, FdOutput::Bot);
        tr.push_decide(Time(1), ProcessId(0), Value(9));
        tr.push_decide(Time(2), ProcessId(1), Value(3));
        tr.push_decide(Time(3), ProcessId(2), Value(9));
        assert_eq!(tr.distinct_decisions(), vec![Value(3), Value(9)]);
    }

    #[test]
    fn emulated_history_tracks_outputs() {
        let mut tr = Trace::new(2, FdOutput::Bot);
        tr.push_emulate(Time(4), ProcessId(1), FdOutput::Leader(ProcessId(0)));
        let h = tr.emulated_history();
        use sih_model::FailureDetector;
        assert_eq!(h.output(ProcessId(1), Time(3)), FdOutput::Bot);
        assert_eq!(h.output(ProcessId(1), Time(4)), FdOutput::Leader(ProcessId(0)));
    }

    #[test]
    fn op_records_pairs_invocations_and_responses() {
        let mut tr = Trace::new(1, FdOutput::Bot);
        tr.push_op_event(
            Time(1),
            ProcessId(0),
            OpEvent::Invoke { id: OpId(0), kind: OpKind::Read },
        );
        tr.push_op_event(
            Time(5),
            ProcessId(0),
            OpEvent::Return { id: OpId(0), kind: OpKind::Read, read_value: Some(Value(2)) },
        );
        tr.push_op_event(
            Time(6),
            ProcessId(0),
            OpEvent::Invoke { id: OpId(1), kind: OpKind::Write(Value(7)) },
        );
        let recs = tr.op_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].returned, Some(Time(5)));
        assert_eq!(recs[0].read_value, Some(Value(2)));
        assert!(!recs[1].is_complete());
    }

    #[test]
    #[should_panic(expected = "response without invocation")]
    fn orphan_response_panics() {
        let mut tr = Trace::new(1, FdOutput::Bot);
        tr.push_op_event(
            Time(5),
            ProcessId(0),
            OpEvent::Return { id: OpId(9), kind: OpKind::Read, read_value: None },
        );
        let _ = tr.op_records();
    }

    #[test]
    fn light_level_skips_step_and_send_events_but_keeps_checker_inputs() {
        let mut tr = Trace::new(2, FdOutput::Bot);
        tr.set_level(TraceLevel::Light);
        tr.push_step(Time(1), ProcessId(0), None, FdOutput::Bot);
        tr.push_send(Time(1), ProcessId(0), ProcessId(1), MsgId(0));
        tr.push_decide(Time(2), ProcessId(0), Value(7));
        tr.push_emulate(Time(2), ProcessId(1), FdOutput::Leader(ProcessId(0)));
        tr.push_op_event(
            Time(3),
            ProcessId(1),
            OpEvent::Invoke { id: OpId(0), kind: OpKind::Read },
        );
        // Aggregates and checker inputs are exact…
        assert_eq!(tr.total_steps(), 1);
        assert_eq!(tr.messages_sent(), 1);
        assert_eq!(tr.end_time(), Time(1));
        assert_eq!(tr.decision_of(ProcessId(0)), Some(Value(7)));
        assert_eq!(tr.op_records().len(), 1);
        // …but the per-step event torrent is gone.
        assert!(tr.events().iter().all(|e| !matches!(e, Event::Step { .. } | Event::Send { .. })));
        assert_eq!(tr.events().len(), 3);
    }

    #[test]
    fn reset_clears_while_keeping_level() {
        let mut tr = Trace::new(2, FdOutput::Bot);
        tr.set_level(TraceLevel::Light);
        tr.push_step(Time(1), ProcessId(1), None, FdOutput::Bot);
        tr.push_decide(Time(1), ProcessId(1), Value(3));
        tr.reset(3, FdOutput::Bot);
        assert_eq!(tr.n(), 3);
        assert_eq!(tr.level(), TraceLevel::Light);
        assert_eq!(tr.total_steps(), 0);
        assert_eq!(tr.messages_sent(), 0);
        assert_eq!(tr.end_time(), Time::ZERO);
        assert!(tr.events().is_empty());
        assert_eq!(tr.decision_of(ProcessId(1)), None);
        assert_eq!(tr.decided(), ProcessSet::EMPTY);
    }

    #[test]
    fn step_and_send_counters() {
        let mut tr = Trace::new(2, FdOutput::Bot);
        tr.push_step(Time(1), ProcessId(0), None, FdOutput::Bot);
        tr.push_step(Time(2), ProcessId(0), None, FdOutput::Bot);
        tr.push_step(Time(3), ProcessId(1), None, FdOutput::Bot);
        tr.push_send(Time(3), ProcessId(1), ProcessId(0), MsgId(0));
        assert_eq!(tr.steps_of(ProcessId(0)), 2);
        assert_eq!(tr.total_steps(), 3);
        assert_eq!(tr.messages_sent(), 1);
        assert_eq!(tr.end_time(), Time(3));
    }
}
