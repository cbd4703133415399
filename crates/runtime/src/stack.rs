//! Layered automata: running an algorithm *on top of* an emulated failure
//! detector.
//!
//! The paper's reductions work by emulation: an algorithm (Figures 3, 5, 6)
//! maintains a local variable `output` using the real failure detector
//! `D`, and a consumer algorithm then uses that variable as if it were a
//! failure-detector module for the emulated detector `D'`. [`Stacked`]
//! wires the two together at each process:
//!
//! * the **lower** automaton steps with the run's real detector output and
//!   publishes its emulated output via [`Effects::set_output`];
//! * the **upper** automaton steps with the lower's current emulated
//!   output as *its* `queryFD()` result;
//! * protocol messages are tagged [`Layered::Lower`] / [`Layered::Upper`]
//!   and routed to their layer.
//!
//! Each engine step advances both layers once (message delivery goes to
//! the layer that owns the message; the other layer receives the null
//! message), which preserves the model's guarantee that a correct process
//! gives infinitely many steps to *both* tasks.
//!
//! [`Effects::set_output`]: crate::Effects::set_output

// sih-analysis: allow(index-reachable) — Stubborn's per-link seq/ack tables are n²-sized at
// construction and indexed by link ids derived from validated ProcessIds.
use crate::automaton::{Automaton, Effects, Envelope, StepInput};
use crate::fingerprint::{StateHash, StateHasher};
use crate::network::Corruptible;
use sih_model::{FdOutput, MutationKind, ProcessId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A message of a two-layer protocol stack.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layered<L, U> {
    /// A message of the emulation (lower) layer.
    Lower(L),
    /// A message of the consumer (upper) layer.
    Upper(U),
}

impl<L: StateHash, U: StateHash> StateHash for Layered<L, U> {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            Layered::Lower(m) => {
                h.write_u64(0);
                h.write(m);
            }
            Layered::Upper(m) => {
                h.write_u64(1);
                h.write(m);
            }
        }
    }
}

/// Two automata stacked at one process; see the module docs.
///
/// The trace records the lower layer's emulated output, so its emulated
/// history is the emulation under test even while a consumer runs on top.
#[derive(Clone, Debug)]
pub struct Stacked<L: Automaton, U: Automaton> {
    lower: L,
    upper: U,
    emulated: FdOutput,
}

impl<L: Automaton, U: Automaton> Stacked<L, U> {
    /// Stacks `upper` on top of `lower`; before the lower layer's first
    /// `set_output`, the upper layer's `queryFD()` returns `⊥`.
    pub fn new(lower: L, upper: U) -> Self {
        Stacked { lower, upper, emulated: FdOutput::Bot }
    }

    /// The lower (emulation) automaton.
    pub fn lower(&self) -> &L {
        &self.lower
    }

    /// The upper (consumer) automaton.
    pub fn upper(&self) -> &U {
        &self.upper
    }

    /// The emulated output the upper layer currently sees.
    pub fn current_output(&self) -> FdOutput {
        self.emulated
    }
}

impl<L: Automaton + fmt::Debug, U: Automaton + fmt::Debug> Automaton for Stacked<L, U> {
    type Msg = Layered<L::Msg, U::Msg>;

    fn step(&mut self, input: StepInput<Self::Msg>, eff: &mut Effects<Self::Msg>) {
        // Route the delivered message (if any) to its layer.
        let (lower_msg, upper_msg) = match input.delivered {
            None => (None, None),
            Some(env) => match env.payload {
                Layered::Lower(payload) => (
                    Some(crate::automaton::Envelope {
                        id: env.id,
                        from: env.from,
                        to: env.to,
                        sent_at: env.sent_at,
                        payload,
                    }),
                    None,
                ),
                Layered::Upper(payload) => (
                    None,
                    Some(crate::automaton::Envelope {
                        id: env.id,
                        from: env.from,
                        to: env.to,
                        sent_at: env.sent_at,
                        payload,
                    }),
                ),
            },
        };

        // Lower layer steps with the real detector output.
        let mut lower_eff = Effects::new();
        self.lower.step(
            StepInput {
                me: input.me,
                n: input.n,
                now: input.now,
                delivered: lower_msg,
                fd: input.fd,
            },
            &mut lower_eff,
        );
        if let Some(out) = lower_eff.emulated {
            self.emulated = out;
        }

        // Upper layer steps with the emulated output. A message for a
        // returned upper layer is dropped, as a halted process drops it.
        let mut upper_eff = Effects::new();
        if !self.upper.halted() {
            self.upper.step(
                StepInput {
                    me: input.me,
                    n: input.n,
                    now: input.now,
                    delivered: upper_msg,
                    fd: self.emulated,
                },
                &mut upper_eff,
            );
        }

        // Merge effects. Fan-outs stay fan-outs: wrapping the payload in a
        // `Layered` tag keeps the batch (and its single stored payload)
        // intact through the stack.
        for op in lower_eff.sends {
            eff.sends.push(op.map_payload(Layered::Lower));
        }
        for op in upper_eff.sends {
            eff.sends.push(op.map_payload(Layered::Upper));
        }
        if let Some(v) = upper_eff.decision {
            eff.decide(v);
        }
        for ev in upper_eff.op_events {
            eff.op_events.push(ev);
        }
        if let Some(out) = lower_eff.emulated {
            eff.set_output(out);
        }
        // The stack halts only when the upper layer does AND the lower
        // layer is not an ongoing emulation the rest of the system might
        // still read messages from. Emulators never halt, so in practice a
        // stacked process halts never; consumers' decisions are observed
        // via the trace. We still propagate an explicit upper halt if the
        // lower layer has also halted (both layers done).
        if (upper_eff.halt || self.upper.halted()) && self.lower.halted() {
            eff.halt();
        }
    }

    fn halted(&self) -> bool {
        self.lower.halted() && self.upper.halted()
    }

    fn hash_state(&self, h: &mut StateHasher) {
        self.lower.hash_state(h);
        self.upper.hash_state(h);
        h.write(&self.emulated);
    }
}

/// A message of the stubborn-link layer wrapping inner payloads of type
/// `M`.
///
/// `seq` numbers are per directed link (assigned by the sender, starting
/// at 0); `cum` is the sender's *receive* watermark towards the
/// destination — the piggybacked cumulative ack "I have every message you
/// sent me with sequence number `< cum`".
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StubbornMsg<M> {
    /// An inner-protocol message, stubbornly retransmitted until acked.
    Data {
        /// Per-link sequence number of the wrapped send.
        seq: u64,
        /// Piggybacked cumulative ack for the reverse direction.
        cum: u64,
        /// The inner protocol's payload.
        payload: M,
    },
    /// A bare cumulative ack (sent in response to every received `Data`).
    Ack {
        /// Cumulative ack: every reverse-direction `seq < cum` is received.
        cum: u64,
    },
}

impl<M: StateHash> StateHash for StubbornMsg<M> {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            StubbornMsg::Data { seq, cum, payload } => {
                h.write_u64(0);
                h.write_u64(*seq);
                h.write_u64(*cum);
                h.write(payload);
            }
            StubbornMsg::Ack { cum } => {
                h.write_u64(1);
                h.write_u64(*cum);
            }
        }
    }
}

/// The mutation adversary reaches through the stubborn layer to the
/// wrapped payload: `Data` frames corrupt their *inner* payload while
/// keeping `seq`/`cum` intact, so receive-side dedup still recognizes the
/// frame and the stubborn machinery keeps its bookkeeping — exactly one
/// (corrupted) delivery reaches the inner automaton. Bare `Ack` frames
/// carry nothing worth corrupting and cross untouched. Note the
/// retransmission buffer holds the *sent* payloads: when the adversary
/// consumes an envelope for a stale replay, the stubborn sender
/// retransmits its own clean copy — the consumed mutation is never
/// resurrected, because the network stashes only untampered sends.
impl<M: Corruptible + Clone> Corruptible for StubbornMsg<M> {
    fn corrupt(&self, kind: MutationKind, x: u64) -> Option<Self> {
        match self {
            StubbornMsg::Data { seq, cum, payload } => payload
                .corrupt(kind, x)
                .map(|payload| StubbornMsg::Data { seq: *seq, cum: *cum, payload }),
            StubbornMsg::Ack { .. } => None,
        }
    }
}

/// Default retransmission period of [`Stubborn`]: every `period`-th own
/// step resends all unacked messages.
pub const STUBBORN_PERIOD: u64 = 8;

/// A stubborn-link wrapper making any automaton loss-tolerant — the
/// standard reliable-channels-from-fair-lossy-links construction
/// (retransmit until acknowledged), with cumulative ack piggybacking and
/// receive-side dedup.
///
/// Each inner send gets a per-link sequence number and is kept in an
/// unacked buffer; every `period`-th step of the wrapper retransmits the
/// whole buffer. The receive side delivers each sequence number to the
/// inner automaton **exactly once** (so network-level duplicates and
/// retransmissions are invisible to it — duplicate copies share their
/// sequence number, which subsumes dedup by `MsgId`), and answers every
/// `Data` with a cumulative [`StubbornMsg::Ack`].
///
/// Over any fair-lossy link (one that delivers infinitely many of
/// infinitely many retransmissions — in particular any
/// [`LinkFaultPlan`](sih_model::LinkFaultPlan) with a finite
/// `quiescence_time()` under a fair scheduler), every inner send is
/// eventually delivered, so Figures 2/4/5 and the ABD register client run
/// **unchanged** on top.
///
/// The wrapper halts only once the inner automaton has halted **and**
/// nothing is left unacked — a decided process must keep retransmitting
/// so its peers can finish too.
#[derive(Clone, Debug)]
pub struct Stubborn<A: Automaton> {
    inner: A,
    period: u64,
    /// Own steps taken (drives the retransmission clock).
    ticks: u64,
    /// `next_seq[dst]`: sequence number of the next send to `dst`.
    next_seq: Vec<u64>,
    /// Sent but not yet cumulatively acked: `(dst, seq) -> payload`.
    unacked: BTreeMap<(u32, u64), A::Msg>,
    /// `recv_next[src]`: receive watermark (all `seq < recv_next` done).
    recv_next: Vec<u64>,
    /// `recv_ooo[src]`: received sequence numbers above the watermark.
    recv_ooo: Vec<BTreeSet<u64>>,
}

impl<A: Automaton> Stubborn<A> {
    /// Wraps `inner` for a system of `n` processes, with the default
    /// [`STUBBORN_PERIOD`].
    pub fn new(inner: A, n: usize) -> Self {
        Self::with_period(inner, n, STUBBORN_PERIOD)
    }

    /// Wraps `inner` with an explicit retransmission period (in own
    /// steps; `1` retransmits every step).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn with_period(inner: A, n: usize, period: u64) -> Self {
        assert!(period > 0, "retransmission period must be positive");
        Stubborn {
            inner,
            period,
            ticks: 0,
            next_seq: vec![0; n],
            unacked: BTreeMap::new(),
            recv_next: vec![0; n],
            recv_ooo: vec![BTreeSet::new(); n],
        }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Number of sends awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Drops every unacked `(dst, seq)` with `seq < cum` for `dst`.
    fn apply_cum_ack(&mut self, dst: ProcessId, cum: u64) {
        let d = dst.0;
        while let Some((&(q, seq), _)) = self.unacked.range((d, 0)..=(d, u64::MAX)).next() {
            debug_assert_eq!(q, d);
            if seq >= cum {
                break;
            }
            self.unacked.remove(&(q, seq));
        }
    }

    /// Dedup bookkeeping for an incoming `seq` from `src`; returns whether
    /// the sequence number is fresh (first time seen).
    fn record_recv(&mut self, src: ProcessId, seq: u64) -> bool {
        let s = src.index();
        if seq < self.recv_next[s] || self.recv_ooo[s].contains(&seq) {
            return false;
        }
        if seq == self.recv_next[s] {
            self.recv_next[s] += 1;
            while self.recv_ooo[s].remove(&self.recv_next[s]) {
                self.recv_next[s] += 1;
            }
        } else {
            self.recv_ooo[s].insert(seq);
        }
        true
    }
}

impl<A: Automaton + fmt::Debug> Automaton for Stubborn<A> {
    type Msg = StubbornMsg<A::Msg>;

    fn step(&mut self, input: StepInput<Self::Msg>, eff: &mut Effects<Self::Msg>) {
        self.ticks += 1;

        // Unwrap the delivered message: acks update the unacked buffer;
        // fresh data is handed to the inner automaton, duplicates become
        // null deliveries. Every Data gets an Ack back (even duplicates —
        // the original ack may have been lost).
        let mut inner_delivery = None;
        if let Some(env) = input.delivered {
            let from = env.from;
            match env.payload {
                StubbornMsg::Ack { cum } => self.apply_cum_ack(from, cum),
                StubbornMsg::Data { seq, cum, payload } => {
                    self.apply_cum_ack(from, cum);
                    if self.record_recv(from, seq) {
                        inner_delivery = Some(Envelope {
                            id: env.id,
                            from,
                            to: env.to,
                            sent_at: env.sent_at,
                            payload,
                        });
                    }
                    eff.send(from, StubbornMsg::Ack { cum: self.recv_next[from.index()] });
                }
            }
        }

        // The inner automaton takes its step (with a null delivery when
        // the wrapper absorbed a duplicate or an ack); a halted inner
        // drops deliveries like any halted process would.
        let mut inner_eff = Effects::new();
        if !self.inner.halted() {
            self.inner.step(
                StepInput {
                    me: input.me,
                    n: input.n,
                    now: input.now,
                    delivered: inner_delivery,
                    fd: input.fd,
                },
                &mut inner_eff,
            );
        }

        // Wrap the inner sends with fresh sequence numbers and remember
        // them until cumulatively acked. Fan-outs must be expanded here:
        // each directed link numbers its stream separately, so every
        // recipient's copy carries different (seq, cum) framing.
        for (to, m) in inner_eff.take_sends() {
            let seq = self.next_seq[to.index()];
            self.next_seq[to.index()] += 1;
            self.unacked.insert((to.0, seq), m.clone());
            eff.send(to, StubbornMsg::Data { seq, cum: self.recv_next[to.index()], payload: m });
        }
        if let Some(v) = inner_eff.decision {
            eff.decide(v);
        }
        if let Some(out) = inner_eff.emulated {
            eff.set_output(out);
        }
        for ev in inner_eff.op_events {
            eff.op_events.push(ev);
        }

        // The stubborn clock: every `period`-th own step resends the
        // whole unacked buffer (with up-to-date piggybacked acks).
        if self.ticks.is_multiple_of(self.period) {
            for (&(dst, seq), m) in &self.unacked {
                let to = ProcessId(dst);
                eff.send(
                    to,
                    StubbornMsg::Data { seq, cum: self.recv_next[to.index()], payload: m.clone() },
                );
            }
        }

        // Halt only once nothing is left to retransmit; a decided inner
        // automaton's last messages must still reach the other side.
        if (inner_eff.halt || self.inner.halted()) && self.unacked.is_empty() {
            eff.halt();
        }
    }

    fn halted(&self) -> bool {
        self.inner.halted() && self.unacked.is_empty()
    }

    fn quiescent(&self) -> bool {
        // With an empty unacked buffer the wrapper adds no effects of its
        // own on null steps, so quiescence reduces to the inner's (a
        // halted inner is vacuously quiescent).
        (self.inner.halted() || self.inner.quiescent()) && self.unacked.is_empty()
    }

    fn hash_state(&self, h: &mut StateHasher) {
        self.inner.hash_state(h);
        h.write_u64(self.period);
        h.write_u64(self.ticks);
        h.write(&self.next_seq);
        h.write_usize(self.unacked.len());
        for (&(dst, seq), m) in &self.unacked {
            h.write_u64(u64::from(dst));
            h.write_u64(seq);
            h.write(m);
        }
        h.write(&self.recv_next);
        h.write(&self.recv_ooo);
    }
}

/// Wraps every automaton of a system in a [`Stubborn`] layer (with the
/// default period).
pub fn stubborn_processes<A: Automaton>(procs: Vec<A>) -> Vec<Stubborn<A>> {
    let n = procs.len();
    procs.into_iter().map(|a| Stubborn::new(a, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Envelope;
    use sih_model::{ProcessId, Time, Value};

    /// Lower layer: emits its step count as a Leader output, sends one
    /// lower-tagged message to p1 on its first step.
    #[derive(Clone, Debug, Default)]
    struct CountingEmulator {
        steps: u32,
    }
    impl Automaton for CountingEmulator {
        type Msg = u8;
        fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
            if self.steps == 0 {
                eff.send(ProcessId(1), 42);
            }
            self.steps += 1;
            eff.set_output(FdOutput::Leader(ProcessId(self.steps)));
            let _ = input;
        }
    }

    /// Upper layer: decides the leader id it sees once it sees one ≥ 2.
    #[derive(Clone, Debug, Default)]
    struct LeaderConsumer {
        done: bool,
        got_upper_msg: bool,
    }
    impl Automaton for LeaderConsumer {
        type Msg = &'static str;
        fn step(&mut self, input: StepInput<&'static str>, eff: &mut Effects<&'static str>) {
            if input.delivered.is_some() {
                self.got_upper_msg = true;
            }
            if let FdOutput::Leader(p) = input.fd {
                if p.0 >= 2 && !self.done {
                    self.done = true;
                    eff.decide(Value(u64::from(p.0)));
                }
            }
        }
        fn halted(&self) -> bool {
            self.done
        }
    }

    fn step_stack(
        stack: &mut Stacked<CountingEmulator, LeaderConsumer>,
        delivered: Option<Envelope<Layered<u8, &'static str>>>,
    ) -> Effects<Layered<u8, &'static str>> {
        let mut eff = Effects::new();
        stack.step(
            StepInput { me: ProcessId(0), n: 2, now: Time(1), delivered, fd: FdOutput::Bot },
            &mut eff,
        );
        eff
    }

    #[test]
    fn upper_sees_lower_output_from_same_step() {
        let mut stack = Stacked::new(CountingEmulator::default(), LeaderConsumer::default());
        // Step 1: lower outputs Leader(p1); upper sees it but 1 < 2.
        let eff = step_stack(&mut stack, None);
        assert_eq!(stack.current_output(), FdOutput::Leader(ProcessId(1)));
        assert!(eff.decision.is_none());
        // Lower's send is tagged Lower.
        assert!(matches!(eff.sends().next(), Some((_, Layered::Lower(42)))));
        // The stack reports the lower layer's emulated output.
        assert_eq!(eff.emulated, Some(FdOutput::Leader(ProcessId(1))));

        // Step 2: lower outputs Leader(p2); upper decides 2.
        let eff = step_stack(&mut stack, None);
        assert_eq!(eff.decision, Some(Value(2)));
        assert!(stack.upper().done);
        // Stack not halted: the lower emulator never halts.
        assert!(!stack.halted());
    }

    #[test]
    fn messages_route_to_their_layer() {
        let mut stack = Stacked::new(CountingEmulator::default(), LeaderConsumer::default());
        let env = Envelope {
            id: crate::automaton::MsgId(0),
            from: ProcessId(1),
            to: ProcessId(0),
            sent_at: Time(0),
            payload: Layered::Upper("hello"),
        };
        let _ = step_stack(&mut stack, Some(env));
        assert!(stack.upper().got_upper_msg);
    }

    /// Inner automaton for the stubborn tests: sends one "hello" to p1 on
    /// its first step and counts every delivered payload.
    #[derive(Clone, Debug, Default)]
    struct OneShotSender {
        started: bool,
        received: Vec<&'static str>,
    }
    impl Automaton for OneShotSender {
        type Msg = &'static str;
        fn step(&mut self, input: StepInput<&'static str>, eff: &mut Effects<&'static str>) {
            if !self.started {
                self.started = true;
                eff.send(ProcessId(1), "hello");
            }
            if let Some(env) = input.delivered {
                self.received.push(env.payload);
            }
        }
    }

    fn stubborn_step(
        s: &mut Stubborn<OneShotSender>,
        me: ProcessId,
        delivered: Option<Envelope<StubbornMsg<&'static str>>>,
    ) -> Effects<StubbornMsg<&'static str>> {
        let mut eff = Effects::new();
        s.step(StepInput { me, n: 2, now: Time(1), delivered, fd: FdOutput::Bot }, &mut eff);
        eff
    }

    fn data_env(seq: u64, payload: &'static str) -> Envelope<StubbornMsg<&'static str>> {
        Envelope {
            id: crate::automaton::MsgId(7),
            from: ProcessId(0),
            to: ProcessId(1),
            sent_at: Time(0),
            payload: StubbornMsg::Data { seq, cum: 0, payload },
        }
    }

    #[test]
    fn stubborn_retransmits_until_acked() {
        let mut s = Stubborn::with_period(OneShotSender::default(), 2, 1);
        // First step: the inner send goes out wrapped with seq 0... and the
        // period-1 clock immediately re-sends it once more.
        let eff = stubborn_step(&mut s, ProcessId(0), None);
        let wrapped: Vec<_> = eff.sends().collect();
        assert_eq!(wrapped.len(), 2);
        assert!(matches!(wrapped[0].1, StubbornMsg::Data { seq: 0, payload: "hello", .. }));
        assert!(matches!(wrapped[1].1, StubbornMsg::Data { seq: 0, payload: "hello", .. }));
        assert_eq!(s.unacked_len(), 1);
        // Null steps keep retransmitting.
        let eff = stubborn_step(&mut s, ProcessId(0), None);
        assert_eq!(eff.send_count(), 1);
        // An ack covering seq 0 stops the retransmission.
        let ack = Envelope {
            id: crate::automaton::MsgId(9),
            from: ProcessId(1),
            to: ProcessId(0),
            sent_at: Time(0),
            payload: StubbornMsg::Ack { cum: 1 },
        };
        let eff = stubborn_step(&mut s, ProcessId(0), Some(ack));
        assert_eq!(s.unacked_len(), 0);
        assert_eq!(eff.send_count(), 0);
    }

    #[test]
    fn stubborn_receive_is_dedup_idempotent() {
        let mut s = Stubborn::with_period(OneShotSender::default(), 2, 64);
        // Burn the inner's first step (its own send) with a null step.
        let _ = stubborn_step(&mut s, ProcessId(1), None);
        // Deliver seq 0 three times: the inner sees "hello" exactly once,
        // but each copy is answered with an ack.
        for _ in 0..3 {
            let eff = stubborn_step(&mut s, ProcessId(1), Some(data_env(0, "hello")));
            assert!(
                matches!(eff.sends().next(), Some((ProcessId(0), StubbornMsg::Ack { cum: 1 }))),
                "every Data copy is acked: {:?}",
                eff.sends().collect::<Vec<_>>()
            );
        }
        assert_eq!(s.inner().received, vec!["hello"]);
        // Out-of-order arrival: seq 2 before seq 1, each exactly once.
        let _ = stubborn_step(&mut s, ProcessId(1), Some(data_env(2, "c")));
        let eff = stubborn_step(&mut s, ProcessId(1), Some(data_env(1, "b")));
        // The watermark jumps over the out-of-order hole: cum = 3.
        assert!(matches!(eff.sends().next(), Some((ProcessId(0), StubbornMsg::Ack { cum: 3 }))));
        let _ = stubborn_step(&mut s, ProcessId(1), Some(data_env(2, "c")));
        let _ = stubborn_step(&mut s, ProcessId(1), Some(data_env(1, "b")));
        assert_eq!(s.inner().received, vec!["hello", "c", "b"]);
    }

    #[test]
    fn stubborn_halts_only_after_drain_and_goes_quiescent() {
        #[derive(Clone, Debug, Default)]
        struct DecideAndReturn {
            done: bool,
        }
        impl Automaton for DecideAndReturn {
            type Msg = u8;
            fn step(&mut self, _input: StepInput<u8>, eff: &mut Effects<u8>) {
                if !self.done {
                    self.done = true;
                    eff.send(ProcessId(1), 42);
                    eff.decide(Value(1));
                    eff.halt();
                }
            }
            fn halted(&self) -> bool {
                self.done
            }
        }

        let mut s = Stubborn::with_period(DecideAndReturn::default(), 2, 4);
        let mut eff = Effects::new();
        s.step(
            StepInput { me: ProcessId(0), n: 2, now: Time(1), delivered: None, fd: FdOutput::Bot },
            &mut eff,
        );
        // Inner decided and returned, but the wrapper must keep running
        // until the send is acked.
        assert_eq!(eff.decision(), Some(Value(1)));
        assert!(!eff.halt_requested());
        assert!(!s.halted());
        assert!(!s.quiescent(), "unacked data still needs retransmitting");
        let ack = Envelope {
            id: crate::automaton::MsgId(3),
            from: ProcessId(1),
            to: ProcessId(0),
            sent_at: Time(1),
            payload: StubbornMsg::Ack { cum: 1 },
        };
        let mut eff = Effects::new();
        s.step(
            StepInput {
                me: ProcessId(0),
                n: 2,
                now: Time(2),
                delivered: Some(ack),
                fd: FdOutput::Bot,
            },
            &mut eff,
        );
        assert!(eff.halt_requested());
        assert!(s.halted());
        assert!(s.quiescent());
    }

    #[test]
    fn stubborn_processes_wraps_every_automaton() {
        let procs = stubborn_processes(vec![OneShotSender::default(), OneShotSender::default()]);
        assert_eq!(procs.len(), 2);
        assert_eq!(procs[0].unacked_len(), 0);
        assert!(!procs[0].halted());
    }
}
