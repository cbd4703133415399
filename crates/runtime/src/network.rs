//! The reliable, asynchronous network.
//!
//! Channels are reliable (no loss, no duplication, no corruption) but
//! asynchronous: a message stays pending until a scheduler chooses to
//! deliver it, arbitrarily later. There is no FIFO guarantee — the paper's
//! model does not assume one, and several adversary constructions exploit
//! reordering. Pending queues are kept in arrival order so that delivery
//! *by index* is deterministic and replayable.
//!
//! # Performance
//!
//! Each destination's pending messages sit in one ring buffer
//! (`VecDeque`) in arrival order. Sending appends at the back,
//! delivering index 0 pops the front, and delivering any other index
//! shifts the shorter side of the buffer over the gap:
//! O(min(i, len − i)) moves of inline slots. The engine sends every
//! message at the current step time, so each queue's `sent_at` sequence
//! is nondecreasing in arrival order (a `debug_assert` in
//! [`Network::send`] enforces this). The *oldest* pending message is
//! therefore always the queue front, so [`Network::oldest_sent_at`] and
//! [`Network::oldest_index`] are O(1) — schedulers consult them for
//! every process on every step.

// sih-analysis: allow(index-reachable) — queues and per-link counters are n/n²-sized arrays
// indexed by ProcessId and link ids validated at construction.
use crate::automaton::{Envelope, MsgId};
use crate::fingerprint::{mix64, StateHash, StateHasher};
use sih_model::{
    AdversaryPlan, Armor, LinkFaultPlan, Mutation, MutationKind, ProcessId, SendFate, Time,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;

/// A protocol message the mutation adversary knows how to corrupt.
///
/// Each protocol crate implements this for its message enum; the default
/// body makes every mutation inexpressible, so toy/test message types can
/// opt in with an empty `impl Corruptible for M {}`. Implementations must
/// be **pure**: the same `(self, kind, x)` always yields the same result,
/// or replay determinism breaks.
///
/// Only [`MutationKind::Flip`], [`MutationKind::Perturb`] and
/// [`MutationKind::ForgeAck`] are routed here — sender forgeries and
/// stale replays are envelope-level operations the [`Network`] performs
/// itself.
pub trait Corruptible: Sized {
    /// The corrupted message for mutation `kind` with deterministic
    /// parameter `x`, or `None` when the mutation cannot be expressed on
    /// this message (the send then crosses untouched).
    fn corrupt(&self, kind: MutationKind, x: u64) -> Option<Self> {
        let _ = (kind, x);
        None
    }
}

/// Monomorphized [`Corruptible::corrupt`] entry point, stored as a plain
/// fn pointer in [`AdversaryState`] so the generic [`Network`] send path
/// needs no `Corruptible` bound (only [`Network::set_adversary`] does).
fn corrupt_thunk<M: Corruptible>(m: &M, kind: MutationKind, x: u64) -> Option<M> {
    m.corrupt(kind, x)
}

/// A queued message plus the memoized fingerprint of its checker-visible
/// projection `(from, payload)`.
///
/// The hash is filled at send time once state fingerprinting is on (see
/// [`Network::queue_sum`]), and otherwise lazily on first use (hence the
/// `Cell`: reading it takes `&self`). `0` means "not hashed yet", so the
/// memo costs one word instead of an `Option`'s two; an envelope whose
/// true hash is `0` is simply rehashed on each use. Payloads are
/// immutable while queued and `Clone` copies them unchanged, so a cached
/// value stays valid for the clone too — the exhaustive explorer hashes
/// each message once per *send*, not once per visited state. The
/// destination is not stored: a slot lives in its destination's queue.
///
/// The payload sits inline. Protocol messages are plain data without
/// heap fields, so copying a queue (the explorer's per-edge
/// `clone_from`) is a flat copy of its slots.
#[derive(Clone, Debug)]
struct Slot<M> {
    id: MsgId,
    from: ProcessId,
    sent_at: Time,
    payload: M,
    /// Whether the mutation adversary touched this envelope (corrupted
    /// payload, forged sender, or stale replay). Tampered deliveries are
    /// counted in `mutated_count` instead of `delivered_count`.
    tampered: bool,
    fp: Cell<u64>,
}

/// A borrowed view of a pending message (what [`Network::pending`]
/// yields). Like [`Envelope`], minus payload ownership — the payload
/// stays in its queue slot until delivered.
#[derive(Clone, Copy, Debug)]
pub struct EnvelopeRef<'a, M> {
    /// Unique id of the message within the run.
    pub id: MsgId,
    /// The sender.
    pub from: ProcessId,
    /// The destination.
    pub to: ProcessId,
    /// The time of the sending step.
    pub sent_at: Time,
    /// The protocol payload.
    pub payload: &'a M,
}

/// Installed link-fault adversary: the plan plus the per-directed-link
/// send counters that make its decisions a pure function of history.
///
/// Boxed and optional on [`Network`] so the reliable (default) case pays
/// one pointer of space and a null check per send.
#[derive(Debug)]
struct LinkFaultState {
    plan: LinkFaultPlan,
    /// `sends[src * n + dst]`: messages sent so far on that directed link
    /// (counting every attempt, delivered or dropped).
    sends: Vec<u64>,
}

impl Clone for LinkFaultState {
    fn clone(&self) -> Self {
        LinkFaultState { plan: self.plan.clone(), sends: self.sends.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.plan.clone_from(&source.plan);
        self.sends.clone_from(&source.sends);
    }
}

/// Installed message-mutation adversary: the plan, the armor level of the
/// honest processes, the per-directed-link mutation counters, and the
/// per-link stale-payload stash that feeds [`MutationKind::Replay`].
///
/// Boxed and optional on [`Network`] like [`LinkFaultState`]: the honest
/// (default) case pays one pointer of space and a null check per send.
struct AdversaryState<M> {
    plan: AdversaryPlan,
    armor: Armor,
    /// `sends[src * n + dst]`: sends consulted so far on that directed
    /// link (independent of the link-fault counters; only sends that
    /// survive a drop window reach the adversary).
    sends: Vec<u64>,
    /// `stash[src * n + dst]`: the most recent *untampered* payload sent
    /// on that link — what a stale replay re-injects. Only maintained for
    /// links some `Replay` window targets (see `stash_links`); consumed
    /// originals never re-enter the stash, so a replayed envelope cannot
    /// be resurrected a second time by the stash itself (retransmission
    /// layers like `Stubborn` stay the only legitimate resenders).
    stash: Vec<Option<M>>,
    /// `stash_links[link]`: whether any replay window targets the link.
    stash_links: Vec<bool>,
    /// Monomorphized [`Corruptible::corrupt`] (see [`corrupt_thunk`]).
    corrupt: fn(&M, MutationKind, u64) -> Option<M>,
}

impl<M: Clone> Clone for AdversaryState<M> {
    fn clone(&self) -> Self {
        AdversaryState {
            plan: self.plan.clone(),
            armor: self.armor,
            sends: self.sends.clone(),
            stash: self.stash.clone(),
            stash_links: self.stash_links.clone(),
            corrupt: self.corrupt,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.plan.clone_from(&source.plan);
        self.armor = source.armor;
        self.sends.clone_from(&source.sends);
        self.stash.clone_from(&source.stash);
        self.stash_links.clone_from(&source.stash_links);
        self.corrupt = source.corrupt;
    }
}

impl<M: fmt::Debug> fmt::Debug for AdversaryState<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdversaryState")
            .field("plan", &self.plan)
            .field("armor", &self.armor)
            .field("sends", &self.sends)
            .field("stash", &self.stash)
            .finish_non_exhaustive()
    }
}

/// The in-flight message state of a run.
#[derive(Debug)]
pub struct Network<M> {
    /// `queues[to]`: messages awaiting delivery at `to`, in arrival order.
    queues: Vec<VecDeque<Slot<M>>>,
    next_id: u64,
    sent_count: u64,
    delivered_count: u64,
    dropped_count: u64,
    duplicated_count: u64,
    mutated_count: u64,
    forged_count: u64,
    armored_count: u64,
    /// The link-fault adversary, if one is installed (`None` = reliable).
    faults: Option<Box<LinkFaultState>>,
    /// The message-mutation adversary, if one is installed
    /// (`None` = authenticated channels, the paper's model).
    adversary: Option<Box<AdversaryState<M>>>,
    /// Empty→nonempty queue transitions since the last drain, when wake
    /// tracking is on (`None` = off, the default — see
    /// [`Network::set_wake_tracking`]).
    woken: Option<Vec<ProcessId>>,
    /// The running [`Network::queue_sum`], once state fingerprinting
    /// has switched it on (`None` = off, the default).
    queue_sum: Cell<Option<u64>>,
}

// Manual Clone so `clone_from` recycles every per-destination queue.
impl<M: Clone> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            queues: self.queues.clone(),
            next_id: self.next_id,
            sent_count: self.sent_count,
            delivered_count: self.delivered_count,
            dropped_count: self.dropped_count,
            duplicated_count: self.duplicated_count,
            mutated_count: self.mutated_count,
            forged_count: self.forged_count,
            armored_count: self.armored_count,
            faults: self.faults.clone(),
            adversary: self.adversary.clone(),
            woken: self.woken.clone(),
            queue_sum: self.queue_sum.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Clear and refill each queue so its ring buffer is reused: the
        // explorer copies a network on every edge.
        self.queues.resize_with(source.queues.len(), VecDeque::new);
        for (dst, src) in self.queues.iter_mut().zip(&source.queues) {
            dst.clear();
            dst.extend(src.iter().cloned());
        }
        self.next_id = source.next_id;
        self.sent_count = source.sent_count;
        self.delivered_count = source.delivered_count;
        self.dropped_count = source.dropped_count;
        self.duplicated_count = source.duplicated_count;
        self.mutated_count = source.mutated_count;
        self.forged_count = source.forged_count;
        self.armored_count = source.armored_count;
        match (&mut self.faults, &source.faults) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
        match (&mut self.adversary, &source.adversary) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
        self.woken.clone_from(&source.woken);
        self.queue_sum.set(source.queue_sum.get());
    }
}

/// The `(from, payload)` hash of an envelope: the sender id and the
/// payload's structural [`StateHash`] encoding, folded through a
/// [`StateHasher`]. Equal hashes mean equal `(from, payload)` pairs (up
/// to 64-bit collisions); only that equality is contractual, never the
/// value — the explorer orders its delivery menu by content, not by hash.
fn envelope_fp<M: StateHash>(from: ProcessId, payload: &M) -> u64 {
    let mut h = StateHasher::new();
    h.write(&from);
    h.write(payload);
    h.finish()
}

/// One envelope's term in the running queue sum: its fingerprint keyed
/// by the destination queue (an odd multiple, distinct per queue) and
/// mixed, so the sum over all queued envelopes is a Zobrist-style hash
/// of the multiset of `(to, from, payload)` triples.
#[inline]
fn queued_term(to: ProcessId, fp: u64) -> u64 {
    mix64(fp.wrapping_add((u64::from(to.0) + 1).wrapping_mul(QUEUE_KEY)))
}

/// Odd multiplier keying [`queued_term`] by destination (⌊2⁶⁴/φ⌋).
const QUEUE_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

impl<M: StateHash> Network<M> {
    /// The queue section of a state fingerprint: the wrapping sum of
    /// [`queued_term`] over every pending envelope — each queue as a
    /// **multiset** of `(sender, payload)` pairs. Message ids and
    /// `sent_at` stamps are harness metadata, excluded so interleavings
    /// that merely reorder equal sends coincide.
    ///
    /// The first call computes the sum from scratch and switches running
    /// maintenance on: from then on every enqueue adds its term (hashing
    /// the envelope at send time) and every removal subtracts it, so
    /// later calls are O(1). [`Network::reset`] switches it off again;
    /// clones carry it. Runs that never fingerprint never pay per send.
    ///
    /// The multiset view is faithful for the explorer because delivery
    /// menus are enumerated in canonical content order
    /// ([`Network::content_menu`]): even a finite delivery cap
    /// samples a content-order prefix the multiset determines. An
    /// order-sensitive sibling, [`Network::queue_sequences`], exists for
    /// callers that distinguish arrival order.
    pub(crate) fn queue_sum(&self) -> u64 {
        memoized(&self.queue_sum, || self.queue_sum_uncached())
    }

    /// [`Network::queue_sum`] recomputed from the queues, leaving the
    /// running sum untouched.
    pub(crate) fn queue_sum_uncached(&self) -> u64 {
        let mut sum = 0u64;
        for (i, q) in self.queues.iter().enumerate() {
            let to = ProcessId(i as u32);
            for s in q.iter() {
                sum = sum.wrapping_add(queued_term(to, s.envelope_fp()));
            }
        }
        sum
    }

    /// Order-sensitive variant of [`Network::queue_sum`]: each pending
    /// queue hashed as its exact arrival-order **sequence** of envelope
    /// fingerprints (after its length), so two equal results mean the
    /// queues agree envelope-for-envelope. Always computed from scratch.
    pub(crate) fn queue_sequences(&self) -> u64 {
        let mut h = StateHasher::new();
        for q in &self.queues {
            h.write_usize(q.len());
            for s in q.iter() {
                h.write_u64(s.envelope_fp());
            }
        }
        h.finish()
    }

    /// The delivery menu at `to` in canonical content order: one
    /// `(envelope fingerprint, alive index)` pair per pending message,
    /// sorted by `(from, payload)` with equal envelopes oldest first.
    ///
    /// The order is a pure function of the queue's content multiset,
    /// never of arrival order or of any hash value, which is what lets
    /// the explorer dedup on the order-insensitive multiset fingerprint
    /// even with sleep sets and delivery caps on (see [`explore_with`](crate::explore_with)).
    /// The fingerprints (memoized per queued message, the same terms the
    /// queue sum adds up) key the explorer's sleep sets
    /// ([`SleepKey`](crate::SleepKey)); the indices are what
    /// [`Network::deliver`] and a replayable [`Choice`](crate::Choice)
    /// take. `menu` is cleared first, so one buffer serves every call.
    pub fn content_menu(&self, to: ProcessId, menu: &mut Vec<(u64, usize)>)
    where
        M: Ord,
    {
        let queue = &self.queues[to.index()];
        menu.clear();
        menu.extend(queue.iter().enumerate().map(|(i, s)| (s.envelope_fp(), i)));
        menu.sort_unstable_by(|&(_, i), &(_, j)| {
            let (a, b) = (&queue[i], &queue[j]);
            (a.from, &a.payload, i).cmp(&(b.from, &b.payload, j))
        });
    }

    /// The global counters of a state fingerprint, plus the dropped,
    /// duplicated and adversary counters when a plan is installed (so
    /// reliable and honest fingerprints do not depend on the fault
    /// machinery).
    pub(crate) fn counters_into(&self, h: &mut StateHasher) {
        h.write_u64(self.sent_count);
        h.write_u64(self.delivered_count);
        if self.faults.is_some() {
            h.write_u64(LINK_FAULT_TAG);
            h.write_u64(self.dropped_count);
            h.write_u64(self.duplicated_count);
        }
        if self.adversary.is_some() {
            h.write_u64(ADVERSARY_TAG);
            h.write_u64(self.mutated_count);
            h.write_u64(self.forged_count);
            h.write_u64(self.armored_count);
        }
    }

    /// The run constants of a state fingerprint: each installed plan's
    /// structural encoding, and the adversary's armor rung. Plans are
    /// read-only once installed, so callers hash this once per install.
    pub(crate) fn plans_into(&self, h: &mut StateHasher) {
        if let Some(state) = &self.faults {
            h.write_u64(LINK_FAULT_TAG);
            h.write(&state.plan);
        }
        if let Some(adv) = &self.adversary {
            h.write_u64(ADVERSARY_TAG);
            h.write(&adv.plan);
            h.write_u64(u64::from(adv.armor.rung()));
        }
    }

    /// Process `from`'s share of the installed plans' per-link state —
    /// its outgoing link-fault and adversary send counters and its stash
    /// row — which only `from`'s own sends change.
    pub(crate) fn sender_into(&self, from: ProcessId, h: &mut StateHasher) {
        let n = self.queues.len();
        let row = from.index() * n..(from.index() + 1) * n;
        if let Some(state) = &self.faults {
            for &k in &state.sends[row.clone()] {
                h.write_u64(k);
            }
        }
        if let Some(adv) = &self.adversary {
            for &k in &adv.sends[row.clone()] {
                h.write_u64(k);
            }
            h.write(&adv.stash[row]);
        }
    }
}

/// Tag separating the link-fault words of a state fingerprint ("LF").
const LINK_FAULT_TAG: u64 = 0x4C46;
/// Tag separating the adversary words of a state fingerprint ("BZ").
const ADVERSARY_TAG: u64 = 0x425A;

/// The value in `cell`, computing and storing it with `f` on first use.
fn memoized(cell: &Cell<Option<u64>>, f: impl FnOnce() -> u64) -> u64 {
    cell.get().unwrap_or_else(|| {
        let v = f();
        cell.set(Some(v));
        v
    })
}

impl<M> Slot<M> {
    /// A slot whose memo holds `fp` when the caller hashed the envelope
    /// (the running queue sum is on), and "not hashed yet" otherwise.
    #[inline]
    fn new(
        id: MsgId,
        from: ProcessId,
        sent_at: Time,
        payload: M,
        tampered: bool,
        fp: Option<u64>,
    ) -> Self {
        Slot { id, from, sent_at, payload, tampered, fp: Cell::new(fp.unwrap_or(0)) }
    }
}

impl<M: StateHash> Slot<M> {
    /// The [`envelope_fp`] of this envelope, memoized in the slot on
    /// first use (and carried across clones — see [`Slot`]).
    fn envelope_fp(&self) -> u64 {
        match self.fp.get() {
            0 => {
                let v = envelope_fp(self.from, &self.payload);
                self.fp.set(v);
                v
            }
            v => v,
        }
    }
}

impl<M: Clone + StateHash> Network<M> {
    /// An empty network over `n` processes.
    pub fn new(n: usize) -> Self {
        Network {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            next_id: 0,
            sent_count: 0,
            delivered_count: 0,
            dropped_count: 0,
            duplicated_count: 0,
            mutated_count: 0,
            forged_count: 0,
            armored_count: 0,
            faults: None,
            adversary: None,
            woken: None,
            queue_sum: Cell::new(None),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.queues.len()
    }

    /// Empties the network for reuse, keeping queue allocations. Also
    /// uninstalls any link-fault plan and any mutation adversary — a
    /// pooled simulation starts reliable and honest until the next
    /// [`Network::set_link_faults`] / [`Network::set_adversary`] — and
    /// switches the running queue sum (the network's fingerprint word) off.
    pub fn reset(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.next_id = 0;
        self.sent_count = 0;
        self.delivered_count = 0;
        self.dropped_count = 0;
        self.duplicated_count = 0;
        self.mutated_count = 0;
        self.forged_count = 0;
        self.armored_count = 0;
        self.faults = None;
        self.adversary = None;
        self.woken = None;
        *self.queue_sum.get_mut() = None;
    }

    /// Installs a link-fault plan; subsequent sends consult it. Per-link
    /// send counters start at zero.
    ///
    /// # Panics
    ///
    /// Panics if the plan's process count differs from the network's.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) {
        assert_eq!(plan.n(), self.n(), "plan size must match the network");
        let links = self.n() * self.n();
        self.faults = Some(Box::new(LinkFaultState { plan, sends: vec![0; links] }));
    }

    /// The installed link-fault plan, if any.
    pub fn link_fault_plan(&self) -> Option<&LinkFaultPlan> {
        self.faults.as_ref().map(|s| &s.plan)
    }

    /// Installs a message-mutation adversary; subsequent sends consult
    /// its plan, with `armor` deciding which attack classes the honest
    /// processes neutralize. Per-link mutation counters start at zero.
    ///
    /// # Panics
    ///
    /// Panics if the plan's process count differs from the network's.
    pub fn set_adversary(&mut self, plan: AdversaryPlan, armor: Armor)
    where
        M: Corruptible,
    {
        assert_eq!(plan.n(), self.n(), "plan size must match the network");
        let n = self.n();
        let links = n * n;
        let mut stash_links = vec![false; links];
        for w in plan.windows() {
            if w.action.kind == MutationKind::Replay {
                stash_links[w.src.index() * n + w.dst.index()] = true;
            }
        }
        self.adversary = Some(Box::new(AdversaryState {
            plan,
            armor,
            sends: vec![0; links],
            stash: (0..links).map(|_| None).collect(),
            stash_links,
            corrupt: corrupt_thunk::<M>,
        }));
    }

    /// The installed adversary plan, if any.
    pub fn adversary_plan(&self) -> Option<&AdversaryPlan> {
        self.adversary.as_ref().map(|s| &s.plan)
    }

    /// The armor level of the installed adversary, if any.
    pub fn armor(&self) -> Option<Armor> {
        self.adversary.as_ref().map(|s| s.armor)
    }

    /// Uninstalls the mutation adversary (counters and queues are left
    /// untouched), returning its plan and armor if one was installed.
    /// The differential armor suite uses this to compare terminal
    /// fingerprints against adversary-free baselines.
    pub fn take_adversary(&mut self) -> Option<(AdversaryPlan, Armor)> {
        self.adversary.take().map(|s| (s.plan, s.armor))
    }

    /// Consults the installed adversary for one send `from -> to` at
    /// `sent_at` that survived the link-fault layer. Returns `None` when
    /// the envelope crosses untouched, or `Some((payload, sender))` with
    /// the corrupted payload and (possibly forged) sender id when it was
    /// tampered with. Counter side effects: `armored_count` for
    /// neutralized actions, `forged_count` for sender/ack forgeries, and
    /// the per-link stash for future stale replays (clean sends only —
    /// consumed originals are gone for good).
    fn consult_adversary(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        sent_at: Time,
        payload: &M,
    ) -> Option<(M, ProcessId)> {
        let n = self.queues.len();
        let adv = self.adversary.as_deref_mut()?;
        let link = from.index() * n + to.index();
        let k = adv.sends[link];
        adv.sends[link] += 1;
        let mut result: Option<(M, ProcessId)> = None;
        if let Some(Mutation { kind, x }) = adv.plan.action(from, to, sent_at, k) {
            if adv.armor.defeats(kind.class()) {
                self.armored_count += 1;
            } else {
                match kind {
                    MutationKind::ForgeSender => {
                        // Forge `x mod n`, skipping the true sender (a
                        // one-process system has nobody to impersonate).
                        if n > 1 {
                            let mut f = (x % n as u64) as u32;
                            if f == from.0 {
                                f = (f + 1) % n as u32;
                            }
                            self.forged_count += 1;
                            result = Some((payload.clone(), ProcessId(f)));
                        }
                    }
                    MutationKind::Replay => {
                        if let Some(stale) = &adv.stash[link] {
                            result = Some((stale.clone(), from));
                        }
                    }
                    MutationKind::Flip | MutationKind::Perturb | MutationKind::ForgeAck => {
                        if let Some(m) = (adv.corrupt)(payload, kind, x) {
                            if kind == MutationKind::ForgeAck {
                                self.forged_count += 1;
                            }
                            result = Some((m, from));
                        }
                    }
                }
            }
        }
        if result.is_none() && adv.stash_links[link] {
            adv.stash[link] = Some(payload.clone());
        }
        result
    }

    /// Enqueues a message; returns its id.
    ///
    /// Send times must be nondecreasing per destination queue (the
    /// engine always sends at the current step time, which only grows);
    /// the oldest-message accessors rely on this invariant.
    ///
    /// With no plan installed — reliable, authenticated channels, the
    /// paper's model — the send consults nothing: it enqueues one
    /// untampered copy. When a [`LinkFaultPlan`] is installed the plan
    /// decides the fate of the send — deterministically, from the plan
    /// plus the per-link send counter, never from ambient randomness. A
    /// dropped message still gets an id (the sender cannot tell) but
    /// never enters a queue; a duplicated one enqueues extra copies
    /// **sharing** the id, so receive-side dedup can recognize them.
    /// Every copy, enqueued or dropped, counts in `sent_count`, keeping
    /// the invariant `sent == delivered + dropped + in_flight` exact at
    /// all times. A plan that never acts (`LinkFaultPlan::reliable`, an
    /// empty [`AdversaryPlan`]) leaves every id, slot, counter, queue sum
    /// and wake-up exactly as the plan-free path does; only the state
    /// fingerprint differs, since installed plans are hashed as run
    /// constants.
    pub fn send(&mut self, from: ProcessId, to: ProcessId, sent_at: Time, payload: M) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        if self.has_plans() {
            self.route(id, from, to, sent_at, payload, None);
        } else {
            let fp = self.queue_sum.get_mut().is_some().then(|| envelope_fp(from, &payload));
            self.enqueue(to, Slot::new(id, from, sent_at, payload, false, fp), 1, fp);
        }
        id
    }

    /// Enqueues one payload to every process in `0..n`, minus `except` —
    /// the batched form of a `send to all`.
    ///
    /// Exactly equivalent to calling [`Network::send`] once per recipient
    /// in increasing id order: ids are assigned in that order, link-fault
    /// fates and the adversary are consulted per recipient when installed
    /// (with none installed the batch consults nothing, testing for plans
    /// once), and every counter moves the same way. The batch hashes its
    /// envelope once (when the running queue sum is on) instead of once
    /// per recipient. Returns the first assigned id; recipient `j` (in
    /// expansion order) got id `first + j`, dropped or not.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the network size.
    pub fn broadcast(
        &mut self,
        from: ProcessId,
        sent_at: Time,
        payload: M,
        n: usize,
        except: Option<ProcessId>,
    ) -> MsgId {
        assert!(n <= self.queues.len(), "broadcast fan-out exceeds the network size");
        let first = MsgId(self.next_id);
        // One envelope hash for every untampered recipient, computed only
        // when the running queue sum is on (`None` otherwise).
        let clean_fp = self.queue_sum.get_mut().is_some().then(|| envelope_fp(from, &payload));
        let recipients = (0..n as u32).map(ProcessId).filter(|&to| Some(to) != except);
        if self.has_plans() {
            for to in recipients {
                let id = MsgId(self.next_id);
                self.next_id += 1;
                self.route(id, from, to, sent_at, payload.clone(), clean_fp);
            }
        } else {
            for to in recipients {
                let id = MsgId(self.next_id);
                self.next_id += 1;
                let slot = Slot::new(id, from, sent_at, payload.clone(), false, clean_fp);
                self.enqueue(to, slot, 1, clean_fp);
            }
        }
        first
    }

    /// Whether a link-fault plan or an adversary is installed: only then
    /// does a send need [`Network::route`].
    #[inline]
    fn has_plans(&self) -> bool {
        self.faults.is_some() || self.adversary.is_some()
    }

    /// One planned send `from -> to` with id `id`, after the id is
    /// assigned: the link-fault fate, then the adversary, then the
    /// [`Network::enqueue`] of every surviving copy. `clean_fp` is the
    /// untampered envelope's [`envelope_fp`] when the caller already has
    /// it (a broadcast hashes once per batch).
    fn route(
        &mut self,
        id: MsgId,
        from: ProcessId,
        to: ProcessId,
        sent_at: Time,
        payload: M,
        clean_fp: Option<u64>,
    ) {
        let fate = match &mut self.faults {
            None => SendFate::Deliver { copies: 1 },
            Some(state) => {
                let link = from.index() * self.queues.len() + to.index();
                let k = state.sends[link];
                state.sends[link] += 1;
                state.plan.fate(from, to, sent_at, k)
            }
        };
        let copies = match fate {
            SendFate::Dropped => {
                self.sent_count += 1;
                self.dropped_count += 1;
                return;
            }
            SendFate::Deliver { copies } => copies,
        };
        self.duplicated_count += copies - 1;
        let sum_on = self.queue_sum.get_mut().is_some();
        let (payload, from, tampered, fp) =
            match self.consult_adversary(from, to, sent_at, &payload) {
                Some((m, f)) => {
                    let fp = sum_on.then(|| envelope_fp(f, &m));
                    (m, f, true, fp)
                }
                None => {
                    let fp = clean_fp.or_else(|| sum_on.then(|| envelope_fp(from, &payload)));
                    (payload, from, false, fp)
                }
            };
        self.enqueue(to, Slot::new(id, from, sent_at, payload, tampered, fp), copies, fp);
    }

    /// Appends `copies` copies of `slot` to `to`'s queue: counts them as
    /// sent, adds their terms to the running [`Network::queue_sum`] (`fp`
    /// is the slot's envelope hash, `None` exactly when the sum is off)
    /// and logs the wake-up if the queue was empty.
    fn enqueue(&mut self, to: ProcessId, slot: Slot<M>, copies: u64, fp: Option<u64>) {
        self.sent_count += copies;
        if let (Some(fp), Some(sum)) = (fp, self.queue_sum.get_mut()) {
            *sum = sum.wrapping_add(copies.wrapping_mul(queued_term(to, fp)));
        }
        let queue = &mut self.queues[to.index()];
        let was_empty = queue.is_empty();
        if let Some(last) = queue.back() {
            debug_assert!(
                slot.sent_at >= last.sent_at,
                "send times must be nondecreasing per queue ({:?} after {:?})",
                slot.sent_at,
                last.sent_at,
            );
        }
        for _ in 1..copies {
            queue.push_back(slot.clone());
        }
        // The last copy moves the slot: the reliable case (copies == 1)
        // clones nothing.
        queue.push_back(slot);
        if was_empty {
            if let Some(tracked) = &mut self.woken {
                tracked.push(to);
            }
        }
    }

    /// Turns empty→nonempty queue-transition tracking on or off (off by
    /// default; turning it on clears the log). The event-driven runner
    /// uses this to learn which processes a step woke without scanning
    /// all `n` queues.
    pub fn set_wake_tracking(&mut self, on: bool) {
        self.woken = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the queues that transitioned empty→nonempty since the last
    /// drain (in send order; a queue appears once per transition).
    pub fn drain_woken(&mut self, mut f: impl FnMut(ProcessId)) {
        if let Some(tracked) = &mut self.woken {
            // `f` must not touch the network (it only marks worklist
            // entries), so a temporary take keeps the borrow checker and
            // the allocation both happy.
            let mut log = std::mem::take(tracked);
            for p in log.drain(..) {
                f(p);
            }
            if let Some(tracked) = &mut self.woken {
                *tracked = log;
            }
        }
    }

    /// Number of messages pending at `to`.
    pub fn pending_count(&self, to: ProcessId) -> usize {
        self.queues[to.index()].len()
    }

    /// The pending messages at `to`, in arrival order (oldest first),
    /// as views borrowing the queued payloads.
    pub fn pending(&self, to: ProcessId) -> impl Iterator<Item = EnvelopeRef<'_, M>> {
        self.queues[to.index()].iter().map(move |s| EnvelopeRef {
            id: s.id,
            from: s.from,
            to,
            sent_at: s.sent_at,
            payload: &s.payload,
        })
    }

    /// Send time of the oldest message pending at `to`, if any — used by
    /// fair schedulers to bound delivery delay. O(1): send times are
    /// nondecreasing, so the queue front is the oldest message.
    pub fn oldest_sent_at(&self, to: ProcessId) -> Option<Time> {
        self.queues[to.index()].front().map(|s| s.sent_at)
    }

    /// Index (into the arrival-ordered pending queue) of the oldest
    /// message pending at `to`. O(1): always the front, by monotonicity
    /// (ties broken towards the front, as before the queue rewrite).
    pub fn oldest_index(&self, to: ProcessId) -> Option<usize> {
        if self.queues[to.index()].is_empty() {
            None
        } else {
            Some(0)
        }
    }

    /// Removes and returns the `index`-th pending message at `to` as an
    /// owned [`Envelope`], moving the payload out of its slot.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn deliver(&mut self, to: ProcessId, index: usize) -> Envelope<M> {
        let queue = &mut self.queues[to.index()];
        assert!(index < queue.len(), "delivery index {index} out of range");
        let slot = if index == 0 { queue.pop_front() } else { queue.remove(index) }
            .expect("invariant: the index was checked against the queue length");
        if let Some(sum) = self.queue_sum.get_mut() {
            *sum = sum.wrapping_sub(queued_term(to, slot.envelope_fp()));
        }
        // Tampered envelopes count as `mutated`, not `delivered`, keeping
        // `sent == delivered + dropped + mutated + in_flight` exact.
        if slot.tampered {
            self.mutated_count += 1;
        } else {
            self.delivered_count += 1;
        }
        Envelope { id: slot.id, from: slot.from, to, sent_at: slot.sent_at, payload: slot.payload }
    }

    /// Total messages sent so far.
    pub fn sent_count(&self) -> u64 {
        self.sent_count
    }

    /// Total messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Total messages the link-fault plan dropped so far.
    pub fn dropped_count(&self) -> u64 {
        self.dropped_count
    }

    /// Total *extra* copies the link-fault plan enqueued so far (each
    /// duplicate copy beyond a send's first).
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated_count
    }

    /// Total tampered envelopes removed from the queues so far. A
    /// tampered delivery counts here *instead of* in `delivered_count`,
    /// so `sent == delivered + dropped + mutated + in_flight` stays
    /// exact with or without an adversary.
    pub fn mutated_count(&self) -> u64 {
        self.mutated_count
    }

    /// Total sends on which the adversary forged provenance (a fake
    /// sender id or a fabricated quorum ack). Counted at send time; a
    /// forged envelope also counts in `mutated_count` once delivered.
    pub fn forged_count(&self) -> u64 {
        self.forged_count
    }

    /// Total adversary actions neutralized by the installed armor rung
    /// (the send crossed untouched).
    pub fn armored_count(&self) -> u64 {
        self.armored_count
    }

    /// Total messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Approximate heap usage of the queue structures in bytes
    /// (capacity-based). Payloads sit inline in the slots, so they are
    /// counted; heap data a payload owns would not be (protocol messages
    /// own none).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.queues.capacity() * size_of::<VecDeque<Slot<M>>>()
            + self.queues.iter().map(|q| q.capacity() * size_of::<Slot<M>>()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn send_assigns_sequential_ids() {
        let mut net: Network<u8> = Network::new(2);
        let a = net.send(ProcessId(0), ProcessId(1), Time(1), 10);
        let b = net.send(ProcessId(1), ProcessId(0), Time(2), 20);
        assert_eq!(a, MsgId(0));
        assert_eq!(b, MsgId(1));
        assert_eq!(net.sent_count(), 2);
        assert_eq!(net.in_flight(), 2);
    }

    #[test]
    fn pending_queues_keep_arrival_order() {
        let mut net: Network<u8> = Network::new(2);
        net.send(ProcessId(0), ProcessId(1), Time(1), 10);
        net.send(ProcessId(0), ProcessId(1), Time(2), 20);
        let payloads: Vec<u8> = net.pending(ProcessId(1)).map(|e| *e.payload).collect();
        assert_eq!(payloads, vec![10, 20]);
        assert_eq!(net.pending_count(ProcessId(1)), 2);
        assert_eq!(net.pending_count(ProcessId(0)), 0);
    }

    #[test]
    fn deliver_removes_by_index() {
        let mut net: Network<u8> = Network::new(2);
        net.send(ProcessId(0), ProcessId(1), Time(1), 10);
        net.send(ProcessId(0), ProcessId(1), Time(2), 20);
        let e = net.deliver(ProcessId(1), 1);
        assert_eq!(e.payload, 20);
        assert_eq!(net.pending_count(ProcessId(1)), 1);
        assert_eq!(net.delivered_count(), 1);
        assert_eq!(net.in_flight(), 1);
    }

    #[test]
    fn oldest_tracking() {
        let mut net: Network<u8> = Network::new(3);
        assert_eq!(net.oldest_sent_at(ProcessId(2)), None);
        assert_eq!(net.oldest_index(ProcessId(2)), None);
        net.send(ProcessId(0), ProcessId(2), Time(3), 1);
        net.send(ProcessId(1), ProcessId(2), Time(3), 2);
        net.send(ProcessId(1), ProcessId(2), Time(5), 3);
        assert_eq!(net.oldest_sent_at(ProcessId(2)), Some(Time(3)));
        assert_eq!(net.oldest_index(ProcessId(2)), Some(0));
        // Delivering the front exposes the next-oldest.
        net.deliver(ProcessId(2), 0);
        assert_eq!(net.oldest_sent_at(ProcessId(2)), Some(Time(3)));
        net.deliver(ProcessId(2), 0);
        assert_eq!(net.oldest_sent_at(ProcessId(2)), Some(Time(5)));
        net.deliver(ProcessId(2), 0);
        assert_eq!(net.oldest_sent_at(ProcessId(2)), None);
        assert_eq!(net.oldest_index(ProcessId(2)), None);
    }

    #[test]
    fn reset_restores_a_fresh_network() {
        let mut net: Network<u8> = Network::new(2);
        net.send(ProcessId(0), ProcessId(1), Time(4), 9);
        net.deliver(ProcessId(1), 0);
        net.send(ProcessId(0), ProcessId(1), Time(9), 8);
        net.reset();
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.sent_count(), 0);
        assert_eq!(net.delivered_count(), 0);
        // Ids restart and earlier (smaller) send times are legal again.
        let id = net.send(ProcessId(1), ProcessId(0), Time(1), 7);
        assert_eq!(id, MsgId(0));
        assert_eq!(net.oldest_sent_at(ProcessId(0)), Some(Time(1)));
    }

    /// Differential check against the naive `Vec` queue the rewrite
    /// replaced: arbitrary interleavings of monotonic sends and
    /// index-based deliveries produce identical envelopes, orders and
    /// oldest-message answers.
    #[test]
    fn queue_rewrite_preserves_delivery_semantics() {
        // A tiny deterministic LCG drives the interleaving.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };

        let mut net: Network<u32> = Network::new(1);
        let mut reference: Vec<(u64, Time, u32)> = Vec::new(); // (id, sent_at, payload)
        let to = ProcessId(0);
        let mut clock = 0u64;
        let mut payload = 0u32;

        for round in 0..5_000 {
            let send_burst = next() % 4;
            for _ in 0..send_burst {
                clock += (next() % 2) as u64; // nondecreasing, with ties
                payload += 1;
                let id = net.send(to, to, Time(clock), payload);
                reference.push((id.0, Time(clock), payload));
            }
            // Model answers, from the naive representation.
            assert_eq!(net.pending_count(to), reference.len(), "round {round}");
            assert_eq!(net.oldest_sent_at(to), reference.iter().map(|&(_, t, _)| t).min(),);
            assert_eq!(net.oldest_index(to), (0..reference.len()).min_by_key(|&i| reference[i].1),);
            let seen: Vec<u32> = net.pending(to).map(|e| *e.payload).collect();
            let expected: Vec<u32> = reference.iter().map(|&(_, _, p)| p).collect();
            assert_eq!(seen, expected, "round {round}");

            if !reference.is_empty() && next() % 3 > 0 {
                let idx = next() % reference.len();
                let env = net.deliver(to, idx);
                let (id, sent_at, pl) = reference.remove(idx);
                assert_eq!(env.id.0, id, "round {round}");
                assert_eq!(env.sent_at, sent_at);
                assert_eq!(env.payload, pl);
            }
        }
    }

    #[test]
    fn link_faults_drop_and_duplicate_deterministically() {
        use sih_model::LinkFaultPlan;
        let plan = LinkFaultPlan::builder(2)
            .drop_every(ProcessId(0), ProcessId(1), 2, 0, Time(0), None)
            .duplicate_every(ProcessId(1), ProcessId(0), 1, 0, Time(0), None)
            .build();
        let mut net: Network<u8> = Network::new(2);
        net.set_link_faults(plan);
        // 0 -> 1: every even-numbered send on the link is dropped.
        net.send(ProcessId(0), ProcessId(1), Time(1), 10); // k=0, dropped
        net.send(ProcessId(0), ProcessId(1), Time(1), 11); // k=1, delivered
        net.send(ProcessId(0), ProcessId(1), Time(2), 12); // k=2, dropped
        assert_eq!(net.pending_count(ProcessId(1)), 1);
        assert_eq!(net.dropped_count(), 2);
        // 1 -> 0: every send is duplicated; the copies share one id.
        let id = net.send(ProcessId(1), ProcessId(0), Time(3), 20);
        assert_eq!(net.pending_count(ProcessId(0)), 2);
        assert_eq!(net.duplicated_count(), 1);
        let ids: Vec<MsgId> = net.pending(ProcessId(0)).map(|e| e.id).collect();
        assert_eq!(ids, vec![id, id]);
        // The invariant holds with every copy counted as sent.
        assert_eq!(
            net.sent_count(),
            net.delivered_count() + net.dropped_count() + net.in_flight() as u64
        );
        assert_eq!(net.sent_count(), 5);
    }

    #[test]
    fn reset_uninstalls_the_fault_plan() {
        use sih_model::LinkFaultPlan;
        let mut net: Network<u8> = Network::new(2);
        net.set_link_faults(
            LinkFaultPlan::builder(2).drop_link(ProcessId(0), ProcessId(1), Time(0), None).build(),
        );
        net.send(ProcessId(0), ProcessId(1), Time(1), 1);
        assert_eq!(net.dropped_count(), 1);
        net.reset();
        assert!(net.link_fault_plan().is_none());
        assert_eq!(net.dropped_count(), 0);
        net.send(ProcessId(0), ProcessId(1), Time(1), 1);
        assert_eq!(net.pending_count(ProcessId(1)), 1);
    }

    /// The network's whole contribution to a state fingerprint, from
    /// scratch.
    fn fp<M: Clone + StateHash>(net: &Network<M>) -> u64 {
        let mut h = StateHasher::new();
        net.counters_into(&mut h);
        net.plans_into(&mut h);
        for p in 0..net.n() as u32 {
            net.sender_into(ProcessId(p), &mut h);
        }
        h.write_u64(net.queue_sum_uncached());
        h.finish()
    }

    #[test]
    fn fault_free_fingerprints_ignore_the_fault_machinery() {
        use sih_model::LinkFaultPlan;
        let mut plain: Network<u8> = Network::new(2);
        plain.send(ProcessId(0), ProcessId(1), Time(1), 5);
        let mut faulty: Network<u8> = Network::new(2);
        // An installed plan whose windows never fire still changes the
        // fingerprint domain (the plan is part of the adversary state)...
        faulty.set_link_faults(LinkFaultPlan::reliable(2));
        faulty.send(ProcessId(0), ProcessId(1), Time(1), 5);
        assert_ne!(fp(&plain), fp(&faulty));
        // ...but two identically-faulted histories coincide.
        let mut faulty2: Network<u8> = Network::new(2);
        faulty2.set_link_faults(LinkFaultPlan::reliable(2));
        faulty2.send(ProcessId(0), ProcessId(1), Time(1), 5);
        assert_eq!(fp(&faulty), fp(&faulty2));
    }

    /// Test payload: `corrupt` arithmetic chosen so every mutation kind
    /// is observable and total (never `None`) except stale replays,
    /// which the network serves from its stash.
    impl Corruptible for u8 {
        fn corrupt(&self, kind: MutationKind, x: u64) -> Option<u8> {
            match kind {
                MutationKind::Flip => Some(!*self),
                MutationKind::Perturb => Some(self.wrapping_add(x as u8)),
                MutationKind::ForgeAck => Some(x as u8),
                MutationKind::Replay | MutationKind::ForgeSender => None,
            }
        }
    }

    #[test]
    fn adversary_mutates_deterministically_and_invariant_holds() {
        use sih_model::AdversaryPlan;
        let plan = AdversaryPlan::builder(2)
            .every(ProcessId(0), ProcessId(1), MutationKind::Perturb, 100, Time(0), None)
            .build();
        let run = || {
            let mut net: Network<u8> = Network::new(2);
            net.set_adversary(plan.clone(), Armor::NONE);
            net.send(ProcessId(0), ProcessId(1), Time(1), 10); // perturbed
            net.send(ProcessId(1), ProcessId(0), Time(1), 20); // other link: clean
            let a = net.deliver(ProcessId(1), 0);
            let b = net.deliver(ProcessId(0), 0);
            (a.payload, b.payload, net.mutated_count(), net.delivered_count())
        };
        assert_eq!(run(), (110, 20, 1, 1));
        assert_eq!(run(), run());
        // The extended invariant: mutated deliveries are not `delivered`.
        let mut net: Network<u8> = Network::new(2);
        net.set_adversary(plan, Armor::NONE);
        net.send(ProcessId(0), ProcessId(1), Time(1), 1);
        net.send(ProcessId(0), ProcessId(1), Time(1), 2);
        net.deliver(ProcessId(1), 0);
        assert_eq!(
            net.sent_count(),
            net.delivered_count()
                + net.dropped_count()
                + net.mutated_count()
                + net.in_flight() as u64
        );
    }

    #[test]
    fn armor_neutralizes_defeated_classes_at_the_send() {
        use sih_model::AdversaryPlan;
        let plan = AdversaryPlan::builder(2)
            .every(ProcessId(0), ProcessId(1), MutationKind::Flip, 0, Time(0), None)
            .build();
        let mut net: Network<u8> = Network::new(2);
        net.set_adversary(plan, Armor::DIGEST); // rung 2 defeats Tamper
        net.send(ProcessId(0), ProcessId(1), Time(1), 10);
        let e = net.deliver(ProcessId(1), 0);
        assert_eq!(e.payload, 10); // crossed untouched
        assert_eq!(net.armored_count(), 1);
        assert_eq!(net.mutated_count(), 0);
        assert_eq!(net.delivered_count(), 1);
    }

    #[test]
    fn forged_sender_rewrites_the_envelope_provenance() {
        use sih_model::AdversaryPlan;
        let plan = AdversaryPlan::builder(3)
            .every(ProcessId(0), ProcessId(1), MutationKind::ForgeSender, 2, Time(0), None)
            .build();
        let mut net: Network<u8> = Network::new(3);
        net.set_adversary(plan, Armor::NONE);
        net.send(ProcessId(0), ProcessId(1), Time(1), 7);
        let e = net.deliver(ProcessId(1), 0);
        assert_eq!(e.from, ProcessId(2)); // impersonates p2 (= x mod n)
        assert_eq!(e.payload, 7);
        assert_eq!(net.forged_count(), 1);
        assert_eq!(net.mutated_count(), 1);
    }

    #[test]
    fn replay_serves_stale_payloads_without_resurrecting_consumed_ones() {
        use sih_model::{AdversaryPlan, MutationWindow};
        // Replay every second send on 0 -> 1 (k % 2 == 1).
        let plan = AdversaryPlan::builder(2)
            .window(MutationWindow {
                src: ProcessId(0),
                dst: ProcessId(1),
                action: Mutation { kind: MutationKind::Replay, x: 0 },
                stride: 2,
                offset: 1,
                from: Time(0),
                until: None,
            })
            .build();
        let mut net: Network<u8> = Network::new(2);
        net.set_adversary(plan, Armor::NONE);
        // k=0: clean, stashed. k=1: replaced by the stale 10 — the
        // intended 11 is consumed and must never reappear. k=2: clean
        // again (restashes 12). k=3: replays 12, not the consumed 11.
        net.send(ProcessId(0), ProcessId(1), Time(1), 10);
        net.send(ProcessId(0), ProcessId(1), Time(2), 11);
        net.send(ProcessId(0), ProcessId(1), Time(3), 12);
        net.send(ProcessId(0), ProcessId(1), Time(4), 13);
        let got: Vec<u8> = (0..4).map(|_| net.deliver(ProcessId(1), 0).payload).collect();
        assert_eq!(got, vec![10, 10, 12, 12]);
        assert_eq!(net.mutated_count(), 2);
        // A replay window with an empty stash passes the send through.
        let plan = AdversaryPlan::builder(2)
            .every(ProcessId(0), ProcessId(1), MutationKind::Replay, 0, Time(0), None)
            .build();
        let mut net: Network<u8> = Network::new(2);
        net.set_adversary(plan, Armor::NONE);
        net.send(ProcessId(0), ProcessId(1), Time(1), 42);
        assert_eq!(net.deliver(ProcessId(1), 0).payload, 42);
        assert_eq!(net.mutated_count(), 0);
    }

    #[test]
    fn adversary_free_fingerprints_ignore_the_adversary_machinery() {
        use sih_model::AdversaryPlan;
        let mut plain: Network<u8> = Network::new(2);
        plain.send(ProcessId(0), ProcessId(1), Time(1), 5);
        // An installed (even honest) adversary widens the fingerprint
        // domain, exactly like an installed fault plan...
        let mut adv: Network<u8> = Network::new(2);
        adv.set_adversary(AdversaryPlan::honest(2), Armor::NONE);
        adv.send(ProcessId(0), ProcessId(1), Time(1), 5);
        assert_ne!(fp(&plain), fp(&adv));
        // ...but uninstalling it restores the baseline domain: this is
        // what the differential armor suite relies on.
        adv.take_adversary();
        assert_eq!(fp(&plain), fp(&adv));
    }

    #[test]
    fn broadcast_consults_the_adversary_per_recipient() {
        use sih_model::AdversaryPlan;
        let plan = AdversaryPlan::builder(3)
            .every(ProcessId(0), ProcessId(2), MutationKind::Perturb, 5, Time(0), None)
            .build();
        let mut net: Network<u8> = Network::new(3);
        net.set_adversary(plan, Armor::NONE);
        net.broadcast(ProcessId(0), Time(1), 10, 3, None);
        assert_eq!(net.deliver(ProcessId(0), 0).payload, 10);
        assert_eq!(net.deliver(ProcessId(1), 0).payload, 10);
        assert_eq!(net.deliver(ProcessId(2), 0).payload, 15);
        assert_eq!(net.mutated_count(), 1);
        assert_eq!(net.delivered_count(), 2);
    }

    /// The per-slot envelope fingerprint memos of the queue at `to` (`0`:
    /// not hashed yet).
    fn slot_fps<M: StateHash>(net: &Network<M>, to: u32) -> Vec<u64> {
        net.queues[to as usize].iter().map(|s| s.fp.get()).collect()
    }

    #[test]
    fn broadcast_slots_share_the_per_send_envelope_fingerprint() {
        use sih_model::AdversaryPlan;
        let plan = AdversaryPlan::builder(4)
            .every(ProcessId(1), ProcessId(3), MutationKind::Perturb, 5, Time(0), None)
            .build();
        let mut fanned: Network<u8> = Network::new(4);
        fanned.set_adversary(plan.clone(), Armor::NONE);
        let mut unicast: Network<u8> = Network::new(4);
        unicast.set_adversary(plan, Armor::NONE);
        // Running sums on: sends hash their envelopes eagerly, and the
        // broadcast hashes its shared payload once for every clean slot.
        fanned.queue_sum();
        unicast.queue_sum();
        fanned.broadcast(ProcessId(1), Time(1), 10, 4, Some(ProcessId(0)));
        for to in 1..4 {
            unicast.send(ProcessId(1), ProcessId(to), Time(1), 10);
        }
        let clean = envelope_fp(ProcessId(1), &10u8);
        assert_eq!(slot_fps(&fanned, 1), vec![clean]);
        assert_eq!(slot_fps(&fanned, 2), vec![clean]);
        // The tampered recipient keeps the fingerprint of what it holds.
        assert_eq!(slot_fps(&fanned, 3), vec![envelope_fp(ProcessId(1), &15u8)]);
        for to in 0..4 {
            assert_eq!(slot_fps(&fanned, to), slot_fps(&unicast, to), "queue {to}");
        }
        assert_eq!(fanned.queue_sum(), unicast.queue_sum());
        assert_eq!(fanned.queue_sum(), fanned.queue_sum_uncached());
    }

    /// One pending slot as a copy or an equivalent send path must
    /// reproduce it: id, sender, send time, payload, memoized
    /// fingerprint and tampered flag.
    type SlotView = (MsgId, u32, Time, u8, u64, bool);

    /// Every counter of a network: the next id, then sent, delivered,
    /// dropped, duplicated, mutated, forged and armored.
    type Counters = [u64; 8];

    /// Every queue's slots, every counter and the running queue sum.
    type Contents = (Vec<Vec<SlotView>>, Counters, Option<u64>);

    /// Everything observable about a network: its [`Contents`] and the
    /// full state fingerprint (which covers the per-link send counters
    /// and the replay stash).
    fn view(net: &Network<u8>) -> (Contents, u64) {
        (contents(net), fp(net))
    }

    /// A network's [`Contents`], without the state fingerprint.
    fn contents(net: &Network<u8>) -> Contents {
        let queues = net
            .queues
            .iter()
            .map(|q| {
                q.iter()
                    .map(|s| (s.id, s.from.0, s.sent_at, s.payload, s.fp.get(), s.tampered))
                    .collect()
            })
            .collect();
        let counters = [
            net.next_id,
            net.sent_count,
            net.delivered_count,
            net.dropped_count,
            net.duplicated_count,
            net.mutated_count,
            net.forged_count,
            net.armored_count,
        ];
        (queues, counters, net.queue_sum.get())
    }

    /// A network over `n` processes with a random link-fault plan and a
    /// random adversary (seed, armor rung) installed, each if given.
    fn planned(n: usize, faults: Option<u64>, adversary: Option<(u64, u8)>) -> Network<u8> {
        use sih_model::{AdversaryPlan, LinkFaultPlan};
        let mut net = Network::new(n);
        if let Some(seed) = faults {
            net.set_link_faults(LinkFaultPlan::random_plan(n, seed, Time(24)));
        }
        if let Some((seed, armor)) = adversary {
            net.set_adversary(AdversaryPlan::random_plan(n, seed, Time(24)), Armor::level(armor));
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// `broadcast(from, t, m, k, except)` is the per-recipient `send`
        /// loop: under random link-fault plans (drops, duplicates) and
        /// random adversaries (tampering, forgeries, replays) both paths
        /// assign the same ids and leave every queue, counter, slot
        /// fingerprint and running queue sum identical. A `clone_from`
        /// of the result, into a network holding other state, then
        /// equals a fresh `clone`.
        #[test]
        fn broadcast_matches_the_per_recipient_send_loop(
            n in 2usize..6,
            faults in proptest::option::of(any::<u64>()),
            adversary in proptest::option::of((any::<u64>(), 0u8..4)),
            sum_on in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..4, any::<u8>(), any::<u8>()),
                1..40,
            ),
        ) {
            let mut fanned = planned(n, faults, adversary);
            let mut looped = planned(n, faults, adversary);
            if sum_on {
                fanned.queue_sum();
                looped.queue_sum();
            }
            for (step, &(op, a, m)) in ops.iter().enumerate() {
                let t = Time(step as u64 / 2);
                let from = ProcessId(u32::from(a) % n as u32);
                let to = ProcessId(u32::from(m) % n as u32);
                match op {
                    0 | 1 => {
                        // A fan-out to a prefix of the processes, op 1
                        // skipping one of them.
                        let k = 1 + usize::from(m) % n;
                        let except = (op == 1).then(|| ProcessId(u32::from(a) % k as u32));
                        let first = fanned.broadcast(from, t, m, k, except);
                        let ids: Vec<MsgId> = (0..k as u32)
                            .map(ProcessId)
                            .filter(|&to| Some(to) != except)
                            .map(|to| looped.send(from, to, t, m))
                            .collect();
                        let expected: Vec<MsgId> =
                            (0..ids.len() as u64).map(|j| MsgId(first.0 + j)).collect();
                        prop_assert_eq!(ids, expected);
                    }
                    2 => {
                        prop_assert_eq!(fanned.send(from, to, t, m), looped.send(from, to, t, m));
                    }
                    _ => {
                        let len = fanned.pending_count(to);
                        if len > 0 {
                            let i = usize::from(a) % len;
                            let (x, y) = (fanned.deliver(to, i), looped.deliver(to, i));
                            prop_assert_eq!(
                                (x.id, x.from, x.sent_at, x.payload),
                                (y.id, y.from, y.sent_at, y.payload)
                            );
                        }
                    }
                }
                prop_assert_eq!(view(&fanned), view(&looped), "after op {}", step);
                if let Some(sum) = fanned.queue_sum.get() {
                    prop_assert_eq!(sum, fanned.queue_sum_uncached());
                }
            }
            // Copies: into a fresh network, into one holding the other
            // path's state, and into one with a different adversary.
            for mut dst in [Network::new(n), looped.clone(), planned(n, None, Some((7, 0)))] {
                dst.clone_from(&fanned);
                prop_assert_eq!(view(&dst), view(&fanned.clone()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The plan-free send path is the planned one with plans that
        /// never act: random sends, fan-outs (with and without `except`)
        /// and deliveries on a network without plans and on one with
        /// `LinkFaultPlan::reliable` and an empty adversary installed
        /// assign the same ids and leave every slot (id, sender, send
        /// time, payload, slot hash, tampered flag), every counter, the
        /// running queue sum and the wake-up log identical. The state
        /// fingerprints differ by design: installed plans are hashed as
        /// run constants.
        #[test]
        fn plan_free_sends_match_sends_through_inert_plans(
            n in 2usize..6,
            sum_on in any::<bool>(),
            ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 1..40),
        ) {
            use sih_model::{AdversaryPlan, LinkFaultPlan};
            let mut bare: Network<u8> = Network::new(n);
            let mut inert: Network<u8> = Network::new(n);
            inert.set_link_faults(LinkFaultPlan::reliable(n));
            inert.set_adversary(AdversaryPlan::builder(n).build(), Armor::NONE);
            for net in [&mut bare, &mut inert] {
                net.set_wake_tracking(true);
                if sum_on {
                    net.queue_sum();
                }
            }
            for (step, &(op, a, m)) in ops.iter().enumerate() {
                let t = Time(step as u64 / 2);
                let from = ProcessId(u32::from(a) % n as u32);
                let to = ProcessId(u32::from(m) % n as u32);
                match op {
                    0 | 1 => {
                        let k = 1 + usize::from(m) % n;
                        let except = (op == 1).then(|| ProcessId(u32::from(a) % k as u32));
                        prop_assert_eq!(
                            bare.broadcast(from, t, m, k, except),
                            inert.broadcast(from, t, m, k, except)
                        );
                    }
                    2 => prop_assert_eq!(bare.send(from, to, t, m), inert.send(from, to, t, m)),
                    _ => {
                        let len = bare.pending_count(to);
                        if len > 0 {
                            let i = usize::from(a) % len;
                            let (x, y) = (bare.deliver(to, i), inert.deliver(to, i));
                            prop_assert_eq!(
                                (x.id, x.from, x.sent_at, x.payload),
                                (y.id, y.from, y.sent_at, y.payload)
                            );
                        }
                    }
                }
                prop_assert_eq!(contents(&bare), contents(&inert), "after op {}", step);
                prop_assert_eq!(&bare.woken, &inert.woken, "after op {}", step);
                if step % 3 == 2 {
                    let (mut x, mut y) = (Vec::new(), Vec::new());
                    bare.drain_woken(|p| x.push(p));
                    inert.drain_woken(|p| y.push(p));
                    prop_assert_eq!(x, y);
                }
            }
        }
    }

    /// The plan-free path keeps the monotone-`sent_at` check of every
    /// queue (debug builds only: release builds drop `debug_assert`s).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "send times must be nondecreasing per queue")]
    fn plan_free_sends_reject_decreasing_send_times() {
        let mut net: Network<u8> = Network::new(3);
        net.broadcast(ProcessId(0), Time(5), 1, 3, None);
        net.send(ProcessId(1), ProcessId(2), Time(4), 2);
    }

    #[test]
    fn running_queue_sum_tracks_sends_and_deliveries() {
        use sih_model::LinkFaultPlan;
        let plan = LinkFaultPlan::builder(3)
            .duplicate_every(ProcessId(0), ProcessId(2), 1, 0, Time(0), None)
            .build();
        let mut net: Network<u32> = Network::new(3);
        net.set_link_faults(plan);
        net.send(ProcessId(1), ProcessId(2), Time(1), 7);
        assert_eq!(net.queue_sum.get(), None, "off until the first fingerprint");
        net.queue_sum();
        let mut t = 1;
        for round in 0..40u32 {
            t += 1;
            match round % 4 {
                0 => {
                    net.broadcast(ProcessId(round % 3), Time(t), round, 3, None);
                }
                1 => {
                    net.send(ProcessId(0), ProcessId(2), Time(t), round);
                }
                _ => {
                    let to = ProcessId(round % 3);
                    if net.pending_count(to) > 0 {
                        net.deliver(to, net.pending_count(to) / 2);
                    }
                }
            }
            assert_eq!(net.queue_sum(), net.queue_sum_uncached(), "round {round}");
            let mut copy = Network::new(3);
            copy.clone_from(&net);
            assert_eq!(copy.queue_sum.get(), net.queue_sum.get());
        }
        net.reset();
        assert_eq!(net.queue_sum.get(), None, "reset switches the running sum off");
    }

    /// Every destination's content menu and the running queue sum.
    fn menus_and_sum(net: &Network<u32>) -> (Vec<Vec<(u64, usize)>>, u64) {
        let menus = (0..net.queues.len() as u32)
            .map(|p| {
                let mut menu = Vec::new();
                net.content_menu(ProcessId(p), &mut menu);
                menu
            })
            .collect();
        (menus, net.queue_sum())
    }

    #[test]
    fn eager_and_lazy_slot_hashes_agree_before_and_after_copies() {
        // `eager` hashes each envelope at send (its running sum is on);
        // `lazy` leaves the slot memos at 0 until a menu or the sum asks.
        let (mut eager, mut lazy) = (Network::<u32>::new(3), Network::<u32>::new(3));
        eager.queue_sum();
        for (i, m) in [5u32, 0, 9, 5, 2].into_iter().enumerate() {
            let (from, t) = (ProcessId(i as u32 % 3), Time(i as u64));
            for net in [&mut eager, &mut lazy] {
                net.send(from, ProcessId(2), t, m);
                net.broadcast(from, t, m + 1, 3, Some(from));
            }
        }
        assert!(slot_fps(&eager, 2).iter().all(|&fp| fp != 0));
        assert!(slot_fps(&lazy, 2).iter().all(|&fp| fp == 0));
        // Copies taken before any lazy hashing carry the unhashed memos,
        // into a fresh network and into one holding other messages.
        let mut dirty = Network::new(3);
        dirty.send(ProcessId(0), ProcessId(1), Time(0), 77);
        dirty.queue_sum();
        let (mut eager_copy, mut lazy_copy) = (Network::new(3), dirty);
        eager_copy.clone_from(&eager);
        lazy_copy.clone_from(&lazy);
        assert!(slot_fps(&lazy_copy, 2).iter().all(|&fp| fp == 0));

        let expected = menus_and_sum(&eager);
        assert_eq!(menus_and_sum(&lazy), expected);
        assert_eq!(slot_fps(&lazy, 2), slot_fps(&eager, 2), "the menu filled the memos");
        assert_eq!(menus_and_sum(&eager_copy), expected);
        assert_eq!(menus_and_sum(&lazy_copy), expected);
        // A copy taken after the lazy hashing carries the filled memos.
        let mut late_copy = Network::new(3);
        late_copy.clone_from(&lazy);
        assert_eq!(slot_fps(&late_copy, 2), slot_fps(&eager, 2));
        assert_eq!(menus_and_sum(&late_copy), expected);
        assert_eq!(expected.1, eager.queue_sum_uncached());
    }

    #[test]
    fn heavy_tombstoning_compacts_and_stays_correct() {
        let mut net: Network<u32> = Network::new(1);
        let to = ProcessId(0);
        for i in 0..1_000u32 {
            net.send(to, to, Time(u64::from(i)), i);
        }
        // Deliver from the back until only the front remains.
        for _ in 0..999 {
            let last = net.pending_count(to) - 1;
            net.deliver(to, last);
        }
        assert_eq!(net.pending_count(to), 1);
        let front = net.deliver(to, 0);
        assert_eq!(front.payload, 0);
        assert_eq!(net.in_flight(), 0);
    }
}
