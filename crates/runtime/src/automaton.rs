//! The deterministic process automaton interface.
//!
//! A distributed algorithm in the paper's model (§2.1) is a collection of
//! `n` deterministic automata, one per process. In each step a process
//! atomically: (1) receives a message (or a null message), (2) queries its
//! failure detector, and (3) changes state and sends messages. The
//! [`Automaton`] trait is that step function; [`StepInput`] carries (1) and
//! (2); [`Effects`] collects (3) plus the observable actions the harness
//! cares about (decisions, emulated failure-detector outputs, register
//! operation events, halting).

use crate::fingerprint::{StateHash, StateHasher};
use sih_model::{FdOutput, OpId, OpKind, ProcessId, Time, Value};

/// Unique identifier of a message within a run (assigned at send time, in
/// send order — deterministic, so replays produce identical ids).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MsgId(pub u64);

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A message in flight or being delivered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Unique id of the message within the run.
    pub id: MsgId,
    /// The sender.
    pub from: ProcessId,
    /// The destination.
    pub to: ProcessId,
    /// The time of the sending step.
    pub sent_at: Time,
    /// The protocol payload.
    pub payload: M,
}

/// Everything a process observes in one atomic step.
#[derive(Clone, Debug)]
pub struct StepInput<M> {
    /// The stepping process's own identity.
    pub me: ProcessId,
    /// System size `n` (processes know `Π`).
    pub n: usize,
    /// The global time of this step. **Algorithms must not branch on
    /// this** — the global clock is not accessible to processes in the
    /// model; it is included for trace annotations only (register
    /// emulations use it to tag operation records, which is metadata, not
    /// protocol state).
    pub now: Time,
    /// The delivered message, if the scheduler chose to deliver one
    /// (the paper's "receives a message from some process or a null
    /// message").
    pub delivered: Option<Envelope<M>>,
    /// The failure-detector output `H(p, t)` for this step (the paper's
    /// "queries and receives a value from its failure detector module").
    pub fd: FdOutput,
}

/// One send action queued in an [`Effects`] set.
///
/// `send to all` / `send to all except me` are first-class: the payload is
/// stored **once** per fan-out, and the engine hands the whole batch to
/// [`Network::broadcast`](crate::Network::broadcast), which hashes the
/// envelope once and copies the payload into each recipient's queue slot.
/// The per-recipient expansion order (ids increasing, `except` skipped) is
/// exactly the order of a per-recipient `send` loop, so message ids — and
/// therefore traces and replays — are the same either way.
#[derive(Clone, Debug)]
pub(crate) enum SendOp<M> {
    /// A single message to one process.
    To(ProcessId, M),
    /// One payload to every process in `0..n`, minus `except`.
    Fanout { n: usize, except: Option<ProcessId>, payload: M },
}

impl<M> SendOp<M> {
    /// Number of messages this op expands to.
    pub(crate) fn count(&self) -> usize {
        match self {
            SendOp::To(..) => 1,
            SendOp::Fanout { n, except, .. } => n - usize::from(except.is_some()),
        }
    }

    /// Rewraps the payload, preserving the op shape (wrapper automata tag
    /// an inner layer's sends without expanding its fan-outs).
    pub(crate) fn map_payload<N>(self, f: impl FnOnce(M) -> N) -> SendOp<N> {
        match self {
            SendOp::To(to, m) => SendOp::To(to, f(m)),
            SendOp::Fanout { n, except, payload } => {
                SendOp::Fanout { n, except, payload: f(payload) }
            }
        }
    }
}

/// The actions a process takes in one atomic step.
///
/// Obtained empty by the engine, filled by [`Automaton::step`], and then
/// applied atomically: sends enter the network, a decision/emulated output
/// is recorded in the trace, and `halt` stops the process for good (the
/// pseudocode's `return`).
#[derive(Clone, Debug, Default)]
pub struct Effects<M> {
    pub(crate) sends: Vec<SendOp<M>>,
    pub(crate) decision: Option<Value>,
    pub(crate) emulated: Option<FdOutput>,
    pub(crate) op_events: Vec<OpEvent>,
    pub(crate) halt: bool,
}

/// A register-operation boundary event emitted by a register client or
/// emulation (consumed by the linearizability checker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpEvent {
    /// An operation was invoked.
    Invoke {
        /// Operation id (unique per run, chosen by the emitter).
        id: OpId,
        /// Read or write.
        kind: OpKind,
    },
    /// An operation returned.
    Return {
        /// Operation id matching the invocation.
        id: OpId,
        /// Read or write.
        kind: OpKind,
        /// For reads, the value returned (`None` = register's initial ⊥).
        read_value: Option<Value>,
    },
}

impl<M> Effects<M> {
    /// A fresh, empty effect set.
    pub fn new() -> Self {
        Effects {
            sends: Vec::new(),
            decision: None,
            emulated: None,
            op_events: Vec::new(),
            halt: false,
        }
    }

    /// Sends `payload` to process `to` (may be the sender itself).
    pub fn send(&mut self, to: ProcessId, payload: M) {
        self.sends.push(SendOp::To(to, payload));
    }

    /// Sends `payload` to every process in `Π`, including the sender (the
    /// pseudocode's "send to all"). The payload is stored once — the
    /// engine fans it out as one batch.
    pub fn send_all(&mut self, n: usize, payload: M)
    where
        M: Clone,
    {
        self.sends.push(SendOp::Fanout { n, except: None, payload });
    }

    /// Sends `payload` to every process except `me` (the pseudocode's
    /// "send to every process except p", Figure 2 line 17). Stored as one
    /// batch, like [`Effects::send_all`].
    pub fn send_others(&mut self, n: usize, me: ProcessId, payload: M)
    where
        M: Clone,
    {
        self.sends.push(SendOp::Fanout { n, except: Some(me), payload });
    }

    /// Records the decision of this process (at most one per run).
    ///
    /// # Panics
    ///
    /// Panics if called twice within one step; the engine additionally
    /// rejects a second decision across steps.
    pub fn decide(&mut self, v: Value) {
        assert!(self.decision.is_none(), "decide called twice in one step");
        self.decision = Some(v);
    }

    /// Publishes the current emulated failure-detector output (the
    /// `output ← …` assignments of Figures 3, 5 and 6).
    pub fn set_output(&mut self, out: FdOutput) {
        self.emulated = Some(out);
    }

    /// Records a register-operation invocation event.
    pub fn op_invoke(&mut self, id: OpId, kind: OpKind) {
        self.op_events.push(OpEvent::Invoke { id, kind });
    }

    /// Records a register-operation response event.
    pub fn op_return(&mut self, id: OpId, kind: OpKind, read_value: Option<Value>) {
        self.op_events.push(OpEvent::Return { id, kind, read_value });
    }

    /// Stops this process for good (the pseudocode's `return`): the
    /// scheduler will never step it again.
    pub fn halt(&mut self) {
        self.halt = true;
    }

    /// The sends queued so far, expanded per recipient in send order
    /// (read access, e.g. for wrapper automata and tests). Fan-outs yield
    /// one `(recipient, &payload)` pair per recipient without cloning.
    pub fn sends(&self) -> impl Iterator<Item = (ProcessId, &M)> + '_ {
        self.sends.iter().flat_map(|op| match op {
            SendOp::To(to, m) => SendIter::One(std::iter::once((*to, m))),
            SendOp::Fanout { n, except, payload } => {
                SendIter::Fan { next: 0, n: *n as u32, except: *except, payload }
            }
        })
    }

    /// Total messages the queued sends expand to.
    pub fn send_count(&self) -> usize {
        self.sends.iter().map(SendOp::count).sum()
    }

    /// The decision recorded this step, if any.
    pub fn decision(&self) -> Option<Value> {
        self.decision
    }

    /// The emulated failure-detector output published this step, if any.
    pub fn emulated(&self) -> Option<FdOutput> {
        self.emulated
    }

    /// The register-operation events recorded this step.
    pub fn op_events(&self) -> &[OpEvent] {
        &self.op_events
    }

    /// Whether the process requested to halt this step.
    pub fn halt_requested(&self) -> bool {
        self.halt
    }

    /// Drains all queued sends, leaving the list empty — for wrapper
    /// automata (e.g. the Theorem 13 simulation) that translate and
    /// re-emit an inner automaton's effects **per recipient** (a stubborn
    /// link numbers each link's stream separately, so wrappers genuinely
    /// need the expansion; they run at explorer-scale `n`, where the
    /// per-recipient clones are what the old representation always paid).
    pub fn take_sends(&mut self) -> Vec<(ProcessId, M)>
    where
        M: Clone,
    {
        let mut out = Vec::with_capacity(self.send_count());
        for op in self.sends.drain(..) {
            match op {
                SendOp::To(to, m) => out.push((to, m)),
                SendOp::Fanout { n, except, payload } => {
                    for i in 0..n as u32 {
                        let to = ProcessId(i);
                        if Some(to) != except {
                            out.push((to, payload.clone()));
                        }
                    }
                }
            }
        }
        out
    }

    /// Resets every effect, keeping allocations — the engine reuses one
    /// `Effects` scratch across steps (no per-step allocation).
    pub fn clear(&mut self) {
        self.sends.clear();
        self.decision = None;
        self.emulated = None;
        self.op_events.clear();
        self.halt = false;
    }

    /// Takes the recorded decision, leaving none.
    pub fn take_decision(&mut self) -> Option<Value> {
        self.decision.take()
    }

    /// Takes the published emulated output, leaving none.
    pub fn take_emulated(&mut self) -> Option<FdOutput> {
        self.emulated.take()
    }

    /// Drains the recorded operation events.
    pub fn take_op_events(&mut self) -> Vec<OpEvent> {
        std::mem::take(&mut self.op_events)
    }

    /// Whether no effect was produced (useful in tests).
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.decision.is_none()
            && self.emulated.is_none()
            && self.op_events.is_empty()
            && !self.halt
    }
}

/// Iterator behind [`Effects::sends`]: either a single unicast or a lazy
/// fan-out expansion.
enum SendIter<'a, M> {
    One(std::iter::Once<(ProcessId, &'a M)>),
    Fan { next: u32, n: u32, except: Option<ProcessId>, payload: &'a M },
}

impl<'a, M> Iterator for SendIter<'a, M> {
    type Item = (ProcessId, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            SendIter::One(it) => it.next(),
            SendIter::Fan { next, n, except, payload } => loop {
                if next >= n {
                    return None;
                }
                let to = ProcessId(*next);
                *next += 1;
                if Some(to) != *except {
                    return Some((to, *payload));
                }
            },
        }
    }
}

/// A deterministic process automaton — one of the `n` automata making up a
/// distributed algorithm.
///
/// Determinism is load-bearing: the indistinguishability arguments of
/// Lemmas 7, 11 and 15 replay run prefixes and rely on identical behaviour
/// given identical inputs. Implementations must not use interior
/// randomness or wall-clock state; all nondeterminism lives in the
/// scheduler and the failure-detector history.
pub trait Automaton {
    /// The protocol message type. `Send` is required because
    /// simulations, with the messages queued in them, move across worker
    /// threads in parallel sweeps and explorations. The engine no longer
    /// shares one payload between queues, so it does not rely on `Sync`;
    /// the bound stays so the trait's contract, and every bound written
    /// against it, is unchanged. Protocol messages are plain data, so
    /// both hold structurally.
    ///
    /// [`StateHash`] is how a queued message enters a state fingerprint
    /// (one envelope hash per send, no formatting), and `Ord` is the
    /// canonical content order the explorer enumerates deliveries in.
    /// Both must agree with `Debug` equality, which stays for display:
    /// derive `Ord` next to `PartialEq`, and write the `StateHash`
    /// encoding under the contract [`StateHash`] states.
    type Msg: Clone + std::fmt::Debug + Send + Sync + StateHash + Ord;

    /// Executes one atomic step.
    fn step(&mut self, input: StepInput<Self::Msg>, eff: &mut Effects<Self::Msg>);

    /// Whether the process has returned (pseudocode `return`); the engine
    /// also tracks halting via [`Effects::halt`], and a halted process is
    /// never stepped again.
    fn halted(&self) -> bool {
        false
    }

    /// Whether the process is *quiescent*: it will produce **no effect on
    /// any future null step** (no sends, decisions, emulated outputs, op
    /// events or halts, under any failure-detector output), and it stays
    /// quiescent on such steps. Delivering a message may wake it.
    ///
    /// The engine uses this for starvation detection
    /// ([`StopReason::Starved`](crate::StopReason::Starved)): when every
    /// schedulable process is quiescent with an empty pending queue, no
    /// reachable step has an effect, so the run is stuck forever.
    /// Returning `false` is always sound (the default); returning `true`
    /// for a process that can still act on a null step is **unsound** and
    /// may stop a live run early.
    fn quiescent(&self) -> bool {
        false
    }

    /// Feeds this process's state into a state fingerprint
    /// ([`Simulation::fingerprint`](crate::Simulation::fingerprint)).
    ///
    /// **Contract.** Two automata must feed equal word sequences exactly
    /// when their `Debug` renderings are equal: the explorer's dedup and
    /// the fuzzer's coverage consume nothing but fingerprint equality,
    /// so a finer hash would split states they merge and a coarser one
    /// would merge states that behave differently.
    ///
    /// * **Hash** every field the `Debug` rendering shows, in any fixed
    ///   order, through [`StateHasher::write`] (see [`StateHash`] for the
    ///   plain-data encodings). Write a tag word before an enum's payload
    ///   and a length before variable-size data, so the encoding stays
    ///   injective. Protocol messages held in state go through their own
    ///   [`StateHash`] encoding, like any other field.
    /// * **Skip** what `Debug` does not show: caches, capacities, and the
    ///   configuration of wrappers whose `Debug` forwards to the wrapped
    ///   automaton. A wrapper forwards to its inner automaton's
    ///   `hash_state` wherever its `Debug` forwards to the inner `Debug`.
    ///
    /// The default hashes the `Debug` rendering itself, which meets the
    /// contract trivially but costs a formatter pass per call. It exists
    /// for wrappers outside this workspace (timing or logging shims whose
    /// `Debug` forwards); every automaton in this workspace overrides it,
    /// and it is the only place a state fingerprint formats text.
    fn hash_state(&self, h: &mut StateHasher)
    where
        Self: std::fmt::Debug,
    {
        h.write_debug(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_send_all_includes_self() {
        let mut eff: Effects<u8> = Effects::new();
        eff.send_all(3, 7);
        assert_eq!(eff.send_count(), 3);
        // One stored payload, three expanded recipients.
        assert_eq!(eff.sends.len(), 1);
        assert!(eff.sends().any(|(to, _)| to == ProcessId(0)));
    }

    #[test]
    fn effects_send_others_excludes_self() {
        let mut eff: Effects<u8> = Effects::new();
        eff.send_others(3, ProcessId(1), 9);
        let dests: Vec<ProcessId> = eff.sends().map(|(to, _)| to).collect();
        assert_eq!(dests, vec![ProcessId(0), ProcessId(2)]);
    }

    #[test]
    fn expansion_order_interleaves_unicasts_and_fanouts() {
        let mut eff: Effects<u8> = Effects::new();
        eff.send(ProcessId(2), 1);
        eff.send_all(2, 2);
        eff.send(ProcessId(0), 3);
        let pairs: Vec<(ProcessId, u8)> = eff.sends().map(|(to, m)| (to, *m)).collect();
        assert_eq!(
            pairs,
            vec![(ProcessId(2), 1), (ProcessId(0), 2), (ProcessId(1), 2), (ProcessId(0), 3)]
        );
        assert_eq!(eff.send_count(), 4);
        assert_eq!(eff.take_sends(), pairs);
        assert_eq!(eff.send_count(), 0);
    }

    #[test]
    fn clear_resets_everything_for_reuse() {
        let mut eff: Effects<u8> = Effects::new();
        eff.send_all(4, 1);
        eff.decide(Value(9));
        eff.op_invoke(OpId(1), OpKind::Read);
        eff.halt();
        eff.clear();
        assert!(eff.is_empty());
        assert_eq!(eff.send_count(), 0);
    }

    #[test]
    #[should_panic(expected = "decide called twice")]
    fn double_decide_in_one_step_panics() {
        let mut eff: Effects<u8> = Effects::new();
        eff.decide(Value(1));
        eff.decide(Value(2));
    }

    #[test]
    fn empty_effects() {
        let eff: Effects<u8> = Effects::new();
        assert!(eff.is_empty());
        let mut eff2: Effects<u8> = Effects::new();
        eff2.halt();
        assert!(!eff2.is_empty());
    }

    #[test]
    fn op_events_accumulate_in_order() {
        let mut eff: Effects<u8> = Effects::new();
        eff.op_invoke(OpId(0), OpKind::Read);
        eff.op_return(OpId(0), OpKind::Read, Some(Value(3)));
        assert_eq!(eff.op_events.len(), 2);
        assert!(matches!(eff.op_events[0], OpEvent::Invoke { .. }));
        assert!(matches!(eff.op_events[1], OpEvent::Return { read_value: Some(Value(3)), .. }));
    }

    #[test]
    fn msg_id_display() {
        assert_eq!(MsgId(4).to_string(), "m4");
    }
}
