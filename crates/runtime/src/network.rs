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
//! The engine sends every message at the current step time, so each
//! queue's `sent_at` sequence is nondecreasing in arrival order (a
//! `debug_assert` in [`Network::send`] enforces this). The queue exploits
//! that invariant: the *oldest* pending message is always the queue
//! front, so [`Network::oldest_sent_at`] and [`Network::oldest_index`]
//! are O(1) — schedulers consult them for every process on every step,
//! which used to cost a full O(queue) rescan each. Delivery by arbitrary
//! index is an order-statistics selection over a tombstoned arrival
//! buffer (a Fenwick tree of alive counts): O(log queue) instead of the
//! old `Vec::remove` O(queue) memmove, with an O(1) front fast path and
//! amortized O(1) compaction.

// sih-analysis: allow(index-reachable) — queues and per-link counters are n/n²-sized arrays
// indexed by ProcessId and link ids validated at construction; Fenwick offsets stay in range
// by the tree's size invariant (see ArrivalQueue docs).
use crate::automaton::{Envelope, MsgId};
use crate::fingerprint::{debug_fp, Fnv64, StateHasher};
use sih_model::{AdversaryPlan, Armor, LinkFaultPlan, MutationKind, ProcessId, SendFate, Time};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

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

/// A queued payload: owned for unicasts, ref-counted for fan-outs.
///
/// [`Network::broadcast`] enqueues **one** `Arc`'d payload across all
/// recipient queues — a fanned envelope costs one slot per recipient but
/// one payload total, instead of the per-recipient clone the old
/// representation paid. (`Arc`, not `Rc`: simulations move across sweep
/// worker threads, and every protocol message type is plain data, hence
/// `Sync`.)
#[derive(Debug)]
enum Payload<M> {
    Inline(M),
    Shared(Arc<M>),
}

impl<M> Payload<M> {
    #[inline]
    fn get(&self) -> &M {
        match self {
            Payload::Inline(m) => m,
            Payload::Shared(m) => m,
        }
    }
}

impl<M: Clone> Payload<M> {
    /// The owned payload: moves the inline case; for a shared one,
    /// unwraps the last reference or clones (one clone per *delivered*
    /// fanned message, instead of one per *sent* copy).
    fn into_owned(self) -> M {
        match self {
            Payload::Inline(m) => m,
            Payload::Shared(m) => Arc::try_unwrap(m).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

impl<M: Clone> Clone for Payload<M> {
    fn clone(&self) -> Self {
        match self {
            Payload::Inline(m) => Payload::Inline(m.clone()),
            // Cloning a queue (the explorer's child materialization)
            // keeps sharing the payload.
            Payload::Shared(m) => Payload::Shared(Arc::clone(m)),
        }
    }
}

/// A queued message plus the memoized fingerprint of its checker-visible
/// projection `(from, payload)`.
///
/// The hash is filled lazily on the first [`Network::fingerprint_into`]
/// that sees the envelope (hence the `Cell`: fingerprinting takes
/// `&self`). Payloads are immutable while queued and `Clone` copies them
/// unchanged, so a cached value stays valid for the clone too — the
/// exhaustive explorer hashes each message once per *send*, not once per
/// visited state. The destination is not stored: a slot lives in its
/// destination's queue.
#[derive(Clone, Debug)]
struct Slot<M> {
    id: MsgId,
    from: ProcessId,
    sent_at: Time,
    payload: Payload<M>,
    /// Whether the mutation adversary touched this envelope (corrupted
    /// payload, forged sender, or stale replay). Tampered deliveries are
    /// counted in `mutated_count` instead of `delivered_count`.
    tampered: bool,
    fp: Cell<Option<u64>>,
}

/// A borrowed view of a pending message (what [`Network::pending`]
/// yields). Like [`Envelope`], minus payload ownership — the queue may be
/// sharing one fan-out payload across many recipients.
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

/// One process's pending queue: arrival-ordered slots with tombstones.
///
/// Alive envelopes keep their arrival order; delivered ones leave `None`
/// tombstones that a Fenwick tree of alive counts skips in O(log n).
/// Tombstones are compacted away once they outnumber the alive messages,
/// so space and per-op cost stay amortized O(alive).
#[derive(Debug)]
struct ArrivalQueue<M> {
    /// Arrival-ordered slots; `None` marks a delivered message.
    slots: Vec<Option<Slot<M>>>,
    /// Fenwick tree over alive flags; `tree[i]` is node `i + 1`.
    tree: Vec<usize>,
    /// Position of the first alive slot (== `slots.len()` when empty).
    head: usize,
    /// Number of alive slots.
    alive: usize,
    /// Largest `sent_at` enqueued so far (monotonicity watermark).
    last_sent_at: Time,
}

// Manual Clone so `clone_from` (explorer child materialization) reuses
// the slot and Fenwick-tree allocations of the destination queue.
impl<M: Clone> Clone for ArrivalQueue<M> {
    fn clone(&self) -> Self {
        ArrivalQueue {
            slots: self.slots.clone(),
            tree: self.tree.clone(),
            head: self.head,
            alive: self.alive,
            last_sent_at: self.last_sent_at,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.tree.clone_from(&source.tree);
        self.head = source.head;
        self.alive = source.alive;
        self.last_sent_at = source.last_sent_at;
    }
}

impl<M> Default for ArrivalQueue<M> {
    fn default() -> Self {
        ArrivalQueue {
            slots: Vec::new(),
            tree: Vec::new(),
            head: 0,
            alive: 0,
            last_sent_at: Time::ZERO,
        }
    }
}

impl<M> ArrivalQueue<M> {
    fn len(&self) -> usize {
        self.alive
    }

    fn front(&self) -> Option<&Slot<M>> {
        if self.alive == 0 {
            None
        } else {
            self.slots[self.head].as_ref()
        }
    }

    /// Alive slots in arrival order.
    fn iter(&self) -> impl Iterator<Item = &Slot<M>> {
        self.slots[self.head..].iter().flatten()
    }

    fn push(&mut self, slot: Slot<M>) {
        debug_assert!(
            slot.sent_at >= self.last_sent_at,
            "send times must be nondecreasing per queue ({:?} after {:?})",
            slot.sent_at,
            self.last_sent_at,
        );
        self.last_sent_at = slot.sent_at;
        if self.alive == 0 {
            // The queue may be all tombstones; restart it so `head` and
            // the tree stay small.
            self.slots.clear();
            self.tree.clear();
            self.head = 0;
        }
        self.slots.push(Some(slot));
        self.fenwick_append_one();
        self.alive += 1;
    }

    /// Removes the `index`-th alive slot (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    fn remove(&mut self, index: usize) -> Slot<M> {
        assert!(index < self.alive, "delivery index {index} out of range");
        let pos = if index == 0 { self.head } else { self.select(index) };
        let slot = self.slots[pos]
            .take()
            .expect("invariant: Fenwick selection only ever lands on alive (non-tombstone) slots");
        self.fenwick_sub_one(pos + 1);
        self.alive -= 1;
        if pos == self.head {
            while self.head < self.slots.len() && self.slots[self.head].is_none() {
                self.head += 1;
            }
        }
        if self.slots.len() >= 64 && self.alive * 2 < self.slots.len() {
            self.compact();
        }
        slot
    }

    /// Drops tombstones, rebuilding the tree over the alive prefix.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.head = 0;
        // All slots alive ⇒ node `i` covers exactly `lowbit(i)` ones.
        self.tree.clear();
        self.tree.extend((1..=self.slots.len()).map(|i| i & i.wrapping_neg()));
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.tree.clear();
        self.head = 0;
        self.alive = 0;
        self.last_sent_at = Time::ZERO;
    }

    /// Sum of alive flags over slot positions `1..=i` (1-indexed).
    fn fenwick_prefix(&self, mut i: usize) -> usize {
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i - 1];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Appends one slot with alive flag 1 as Fenwick node `len + 1`.
    fn fenwick_append_one(&mut self) {
        let pos = self.tree.len() + 1;
        let lowbit = pos & pos.wrapping_neg();
        let below = self.fenwick_prefix(pos - 1) - self.fenwick_prefix(pos - lowbit);
        self.tree.push(below + 1);
    }

    /// Subtracts 1 from the alive flag at slot position `i` (1-indexed).
    fn fenwick_sub_one(&mut self, mut i: usize) {
        while i <= self.tree.len() {
            self.tree[i - 1] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Slot position of the `k`-th alive envelope (0-indexed) by Fenwick
    /// binary descent: the largest prefix with fewer than `k + 1` ones.
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.alive);
        let mut pos = 0;
        let mut remaining = k + 1;
        let mut mask = 1usize << (usize::BITS - 1 - self.tree.len().leading_zeros());
        while mask > 0 {
            let next = pos + mask;
            if next <= self.tree.len() && self.tree[next - 1] < remaining {
                remaining -= self.tree[next - 1];
                pos = next;
            }
            mask >>= 1;
        }
        pos
    }
}

/// Installed link-fault adversary: the plan plus the per-directed-link
/// send counters that make its decisions a pure function of history.
///
/// Boxed and optional on [`Network`] so the reliable (default) case pays
/// one pointer of space and a null check per send.
#[derive(Debug)]
struct LinkFaultState {
    plan: LinkFaultPlan,
    /// Fingerprint of `plan`, memoized on the first state fingerprint
    /// (plans are read-only once installed, and runs that never
    /// fingerprint never pay for it).
    plan_fp: Cell<Option<u64>>,
    /// `sends[src * n + dst]`: messages sent so far on that directed link
    /// (counting every attempt, delivered or dropped).
    sends: Vec<u64>,
}

impl Clone for LinkFaultState {
    fn clone(&self) -> Self {
        LinkFaultState {
            plan: self.plan.clone(),
            plan_fp: self.plan_fp.clone(),
            sends: self.sends.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.plan.clone_from(&source.plan);
        self.plan_fp.set(source.plan_fp.get());
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
    /// Fingerprint of `plan`, memoized like [`LinkFaultState`]'s.
    plan_fp: Cell<Option<u64>>,
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
            plan_fp: self.plan_fp.clone(),
            armor: self.armor,
            sends: self.sends.clone(),
            stash: self.stash.clone(),
            stash_links: self.stash_links.clone(),
            corrupt: self.corrupt,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.plan.clone_from(&source.plan);
        self.plan_fp.set(source.plan_fp.get());
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
    queues: Vec<ArrivalQueue<M>>,
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
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.queues.clone_from(&source.queues);
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
    }
}

impl<M: fmt::Debug> Network<M> {
    /// Feeds the checker-visible network state into a state fingerprint:
    /// per destination, the pending queue as a **multiset** of
    /// `(sender, payload)` pairs (an order-insensitive wrapping sum of
    /// per-envelope hashes) plus its length, then the global counters.
    /// Message ids and `sent_at` stamps are harness metadata — excluded,
    /// so interleavings that merely reorder equal sends coincide.
    ///
    /// The multiset view is faithful for the explorer because delivery
    /// menus are enumerated in canonical content order (the sorted
    /// [`Network::pending_envelope_fps`]): even a finite delivery cap
    /// samples a content-order prefix the multiset determines. An
    /// order-sensitive sibling, [`Network::fingerprint_ordered_into`],
    /// exists for callers that distinguish arrival order.
    pub(crate) fn fingerprint_into(&self, h: &mut StateHasher) {
        for q in &self.queues {
            h.write_usize(q.len());
            h.write_u64(q.multiset_fingerprint());
        }
        self.counters_into(h);
    }

    /// Order-sensitive variant of [`Network::fingerprint_into`]: each
    /// pending queue is hashed as the exact arrival-order **sequence** of
    /// per-envelope hashes instead of a multiset, so two equal sequence
    /// fingerprints mean the queues agree envelope-for-envelope. Uses
    /// the same memoized per-[`Slot`] hashes as the multiset view, so
    /// the per-send hashing cost is shared.
    pub(crate) fn fingerprint_ordered_into(&self, h: &mut StateHasher) {
        for q in &self.queues {
            h.write_usize(q.len());
            for s in q.iter() {
                h.write_u64(s.envelope_fp());
            }
        }
        self.counters_into(h);
    }

    /// The envelope fingerprints of the messages pending at `to`, in
    /// arrival (alive-index) order. The explorer sorts these to build
    /// its canonical content-ordered delivery menu, which is what lets
    /// it dedup on the order-insensitive multiset fingerprint even with
    /// sleep sets and delivery caps on (see `crate::explore`). Uses the
    /// same memoized per-[`Slot`] hashes as the fingerprint flavors.
    pub(crate) fn pending_envelope_fps(&self, to: ProcessId) -> impl Iterator<Item = u64> + '_ {
        self.queues[to.index()].iter().map(Slot::envelope_fp)
    }

    /// The global-counter and fault-state tail both fingerprint flavors
    /// share.
    fn counters_into(&self, h: &mut StateHasher) {
        h.write_u64(self.sent_count);
        h.write_u64(self.delivered_count);
        // Fault state is hashed only when a plan is installed, so
        // reliable-network fingerprints do not depend on the fault
        // machinery.
        if let Some(state) = &self.faults {
            h.write_u64(0x4C46); // "LF" tag separating the fault section
            h.write_u64(self.dropped_count);
            h.write_u64(self.duplicated_count);
            for &k in &state.sends {
                h.write_u64(k);
            }
            h.write_u64(memoized(&state.plan_fp, || debug_fp(&state.plan)));
        }
        // Mirror: adversary state is hashed only when installed, so both
        // reliable and faulty-but-honest fingerprints ignore it.
        if let Some(adv) = &self.adversary {
            h.write_u64(0x425A); // "BZ" tag separating the adversary section
            h.write_u64(self.mutated_count);
            h.write_u64(self.forged_count);
            h.write_u64(self.armored_count);
            for &k in &adv.sends {
                h.write_u64(k);
            }
            for s in &adv.stash {
                match s {
                    None => h.write_u64(0),
                    Some(m) => {
                        h.write_u64(1);
                        h.write_debug(m);
                    }
                }
            }
            h.write_u64(memoized(&adv.plan_fp, || debug_fp(&adv.plan)));
            h.write_u64(u64::from(adv.armor.rung()));
        }
    }
}

/// The value in `cell`, computing and storing it with `f` on first use.
fn memoized(cell: &Cell<Option<u64>>, f: impl FnOnce() -> u64) -> u64 {
    cell.get().unwrap_or_else(|| {
        let v = f();
        cell.set(Some(v));
        v
    })
}

impl<M: fmt::Debug> Slot<M> {
    /// The `(sender, payload)` hash of this envelope, memoized in the
    /// slot on first use (and carried across clones — see [`Slot`]).
    /// Shared (fanned) payloads hash their `Debug` rendering just like
    /// inline ones, so the batched representation leaves every
    /// fingerprint bit-identical.
    fn envelope_fp(&self) -> u64 {
        memoized(&self.fp, || {
            let mut eh = Fnv64::new();
            eh.write_u64(u64::from(self.from.0));
            eh.write_debug(self.payload.get());
            eh.finish()
        })
    }
}

impl<M: fmt::Debug> ArrivalQueue<M> {
    /// Wrapping sum of the alive slots' memoized envelope hashes.
    fn multiset_fingerprint(&self) -> u64 {
        self.slots[self.head..]
            .iter()
            .flatten()
            .fold(0u64, |acc, s| acc.wrapping_add(s.envelope_fp()))
    }
}

impl<M: Clone> Network<M> {
    /// An empty network over `n` processes.
    pub fn new(n: usize) -> Self {
        Network {
            queues: (0..n).map(|_| ArrivalQueue::default()).collect(),
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
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.queues.len()
    }

    /// Empties the network for reuse, keeping queue allocations. Also
    /// uninstalls any link-fault plan and any mutation adversary — a
    /// pooled simulation starts reliable and honest until the next
    /// [`Network::set_link_faults`] / [`Network::set_adversary`].
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
        self.faults = Some(Box::new(LinkFaultState {
            plan,
            plan_fp: Cell::new(None),
            sends: vec![0; links],
        }));
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
            if w.kind == MutationKind::Replay {
                stash_links[w.src.index() * n + w.dst.index()] = true;
            }
        }
        self.adversary = Some(Box::new(AdversaryState {
            plan,
            plan_fp: Cell::new(None),
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
        if let Some((kind, x)) = adv.plan.action(from, to, sent_at, k) {
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
    /// When a [`LinkFaultPlan`] is installed the plan decides the fate of
    /// the send — deterministically, from the plan plus the per-link send
    /// counter, never from ambient randomness. A dropped message still
    /// gets an id (the sender cannot tell) but never enters a queue; a
    /// duplicated one enqueues extra copies **sharing** the id, so
    /// receive-side dedup can recognize them. Every copy, enqueued or
    /// dropped, counts in `sent_count`, keeping the invariant
    /// `sent == delivered + dropped + in_flight` exact at all times.
    pub fn send(&mut self, from: ProcessId, to: ProcessId, sent_at: Time, payload: M) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        let fate = match &mut self.faults {
            None => SendFate::Deliver { copies: 1 },
            Some(state) => {
                let link = from.index() * self.queues.len() + to.index();
                let k = state.sends[link];
                state.sends[link] += 1;
                state.plan.fate(from, to, sent_at, k)
            }
        };
        match fate {
            SendFate::Dropped => {
                self.sent_count += 1;
                self.dropped_count += 1;
            }
            SendFate::Deliver { copies } => {
                self.sent_count += copies;
                self.duplicated_count += copies - 1;
                let (payload, from, tampered) =
                    match self.consult_adversary(from, to, sent_at, &payload) {
                        Some((m, f)) => (m, f, true),
                        None => (payload, from, false),
                    };
                let queue = &mut self.queues[to.index()];
                let was_empty = queue.len() == 0;
                for _ in 1..copies {
                    let payload = Payload::Inline(payload.clone());
                    queue.push(Slot { id, from, sent_at, payload, fp: Cell::new(None), tampered });
                }
                // The last copy moves the payload: the reliable fast path
                // (copies == 1) clones nothing.
                let payload = Payload::Inline(payload);
                queue.push(Slot { id, from, sent_at, payload, fp: Cell::new(None), tampered });
                if was_empty {
                    if let Some(tracked) = &mut self.woken {
                        tracked.push(to);
                    }
                }
            }
        }
        id
    }

    /// Enqueues one payload to every process in `0..n`, minus `except` —
    /// the batched form of a `send to all`.
    ///
    /// Exactly equivalent to calling [`Network::send`] once per recipient
    /// in increasing id order (ids are assigned in that order, link-fault
    /// fates are consulted per recipient, every counter moves the same
    /// way), except that all enqueued copies **share one ref-counted
    /// payload** instead of cloning it per recipient. Returns the first
    /// assigned id; recipient `j` (in expansion order) got id
    /// `first + j`, dropped or not.
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
        let shared = Arc::new(payload);
        for i in 0..n as u32 {
            let to = ProcessId(i);
            if Some(to) == except {
                continue;
            }
            let id = MsgId(self.next_id);
            self.next_id += 1;
            let fate = match &mut self.faults {
                None => SendFate::Deliver { copies: 1 },
                Some(state) => {
                    let link = from.index() * self.queues.len() + to.index();
                    let k = state.sends[link];
                    state.sends[link] += 1;
                    state.plan.fate(from, to, sent_at, k)
                }
            };
            match fate {
                SendFate::Dropped => {
                    self.sent_count += 1;
                    self.dropped_count += 1;
                }
                SendFate::Deliver { copies } => {
                    self.sent_count += copies;
                    self.duplicated_count += copies - 1;
                    let mutated = self.consult_adversary(from, to, sent_at, &shared);
                    let queue = &mut self.queues[to.index()];
                    let was_empty = queue.len() == 0;
                    match mutated {
                        Some((m, f)) => {
                            // A tampered recipient leaves the shared batch:
                            // its copies carry the corrupted payload inline.
                            for _ in 1..copies {
                                queue.push(Slot {
                                    id,
                                    from: f,
                                    sent_at,
                                    payload: Payload::Inline(m.clone()),
                                    fp: Cell::new(None),
                                    tampered: true,
                                });
                            }
                            queue.push(Slot {
                                id,
                                from: f,
                                sent_at,
                                payload: Payload::Inline(m),
                                fp: Cell::new(None),
                                tampered: true,
                            });
                        }
                        None => {
                            for _ in 0..copies {
                                queue.push(Slot {
                                    id,
                                    from,
                                    sent_at,
                                    payload: Payload::Shared(Arc::clone(&shared)),
                                    fp: Cell::new(None),
                                    tampered: false,
                                });
                            }
                        }
                    }
                    if was_empty {
                        if let Some(tracked) = &mut self.woken {
                            tracked.push(to);
                        }
                    }
                }
            }
        }
        first
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

    /// The pending messages at `to`, in arrival order (oldest first).
    /// Yields borrowed views — fanned messages share one stored payload.
    pub fn pending(&self, to: ProcessId) -> impl Iterator<Item = EnvelopeRef<'_, M>> {
        self.queues[to.index()].iter().map(move |s| EnvelopeRef {
            id: s.id,
            from: s.from,
            to,
            sent_at: s.sent_at,
            payload: s.payload.get(),
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
        if self.queues[to.index()].len() == 0 {
            None
        } else {
            Some(0)
        }
    }

    /// Removes and returns the `index`-th pending message at `to`,
    /// materializing an owned [`Envelope`] (shared fan-out payloads are
    /// cloned out at most once per delivery; the last delivery of a batch
    /// moves the payload).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn deliver(&mut self, to: ProcessId, index: usize) -> Envelope<M> {
        let slot = self.queues[to.index()].remove(index);
        // Tampered envelopes count as `mutated`, not `delivered`, keeping
        // `sent == delivered + dropped + mutated + in_flight` exact.
        if slot.tampered {
            self.mutated_count += 1;
        } else {
            self.delivered_count += 1;
        }
        Envelope {
            id: slot.id,
            from: slot.from,
            to,
            sent_at: slot.sent_at,
            payload: slot.payload.into_owned(),
        }
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
        self.queues.iter().map(ArrivalQueue::len).sum()
    }

    /// Approximate heap usage of the queue structures in bytes
    /// (capacity-based; payload-owned heap data is not counted — shared
    /// fan-out payloads would otherwise be multiply counted).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.queues.capacity() * size_of::<ArrivalQueue<M>>()
            + self
                .queues
                .iter()
                .map(|q| {
                    q.slots.capacity() * size_of::<Option<Slot<M>>>()
                        + q.tree.capacity() * size_of::<usize>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fault_free_fingerprints_ignore_the_fault_machinery() {
        use crate::fingerprint::StateHasher;
        use sih_model::LinkFaultPlan;
        let fp = |net: &Network<u8>| {
            let mut h = StateHasher::new();
            net.fingerprint_into(&mut h);
            h.finish()
        };
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
            .perturb(ProcessId(0), ProcessId(1), 100, Time(0), None)
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
        let plan =
            AdversaryPlan::builder(2).flip(ProcessId(0), ProcessId(1), Time(0), None).build();
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
            .forge_sender(ProcessId(0), ProcessId(1), 2, Time(0), None)
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
            .mutate(MutationWindow {
                src: ProcessId(0),
                dst: ProcessId(1),
                kind: MutationKind::Replay,
                x: 0,
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
        let plan =
            AdversaryPlan::builder(2).replay(ProcessId(0), ProcessId(1), Time(0), None).build();
        let mut net: Network<u8> = Network::new(2);
        net.set_adversary(plan, Armor::NONE);
        net.send(ProcessId(0), ProcessId(1), Time(1), 42);
        assert_eq!(net.deliver(ProcessId(1), 0).payload, 42);
        assert_eq!(net.mutated_count(), 0);
    }

    #[test]
    fn adversary_free_fingerprints_ignore_the_adversary_machinery() {
        use crate::fingerprint::StateHasher;
        use sih_model::AdversaryPlan;
        let fp = |net: &Network<u8>| {
            let mut h = StateHasher::new();
            net.fingerprint_into(&mut h);
            h.finish()
        };
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
        let plan =
            AdversaryPlan::builder(3).perturb(ProcessId(0), ProcessId(2), 5, Time(0), None).build();
        let mut net: Network<u8> = Network::new(3);
        net.set_adversary(plan, Armor::NONE);
        net.broadcast(ProcessId(0), Time(1), 10, 3, None);
        assert_eq!(net.deliver(ProcessId(0), 0).payload, 10);
        assert_eq!(net.deliver(ProcessId(1), 0).payload, 10);
        assert_eq!(net.deliver(ProcessId(2), 0).payload, 15);
        assert_eq!(net.mutated_count(), 1);
        assert_eq!(net.delivered_count(), 2);
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
