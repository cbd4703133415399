//! Happens-before tracking for the DPOR explorer: vector clocks on
//! message send and delivery.
//!
//! The source-set explorer ([`crate::explore`] with
//! [`ExploreConfig::dpor`]) needs to know, for any two events of a
//! schedule, whether one *happens-before* the other (Lamport's causal
//! order restricted to this model: program order per process plus
//! send→deliver edges) or whether they are concurrent. The classical
//! mechanization is a vector clock per process:
//!
//! * a step of `p` ticks `clock[p][p]`;
//! * a send stamps the outgoing message with a copy of the sender's
//!   post-tick clock;
//! * a delivery at `q` merges the message's stamp into `clock[q]`
//!   (pointwise max) before the tick.
//!
//! Two events are HB-ordered iff the earlier one's clock is pointwise ≤
//! the later one's; otherwise they are **concurrent** — and a pair of
//! concurrent, dependent events is a *race* the DPOR layer must explore
//! in both orders (see [`crate::dpor`]).
//!
//! [`HbState`] shadows a [`Simulation`](crate::Simulation): the explorer
//! applies the same step to both, keeping one stamped clock per pending
//! message in per-destination queues aligned (index for index) with the
//! network's arrival queues. Everything here is deterministic plain
//! data — `Vec`s indexed by dense process ids, no `std` hashers, no
//! ambient time — per the determinism contract (DESIGN.md §6).
//!
//! Stamps are stored **flat**: each destination's pending stamps are one
//! `Vec<u64>` with stride `n`, the `i`-th message's stamp at words
//! `i·n .. (i+1)·n`. The explorer copies a shadow on every tree edge,
//! and a flat queue makes that copy one `memcpy` per destination instead
//! of one heap vector per pending message; a send is an
//! `extend_from_slice`, a delivery a merge from a slice plus a drain of
//! `n` words.
//!
//! [`ExploreConfig::dpor`]: crate::ExploreConfig::dpor

// sih-analysis: allow(index-reachable) — clocks and message-queue vectors are n-sized arrays
// indexed by ProcessId from the explorer's own choice enumeration, bounded by n at construction.
use sih_model::ProcessId;

/// A vector clock over `n` processes.
#[derive(Debug, PartialEq, Eq)]
pub struct VClock {
    counts: Vec<u64>,
}

// Manual Clone so `clone_from` (the explorer's per-edge child
// materialization) reuses the counts allocation.
impl Clone for VClock {
    fn clone(&self) -> Self {
        VClock { counts: self.counts.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.counts.clone_from(&source.counts);
    }
}

impl VClock {
    /// The zero clock over `n` processes.
    pub fn new(n: usize) -> Self {
        VClock { counts: vec![0; n] }
    }

    /// Number of processes the clock covers.
    pub fn n(&self) -> usize {
        self.counts.len()
    }

    /// `p`'s component.
    pub fn get(&self, p: ProcessId) -> u64 {
        self.counts[p.index()]
    }

    /// Advances `p`'s own component by one step.
    pub fn tick(&mut self, p: ProcessId) {
        self.counts[p.index()] += 1;
    }

    /// Pointwise maximum — the receive-side join of a message stamp.
    pub fn merge(&mut self, other: &VClock) {
        self.merge_stamp(&other.counts);
    }

    /// [`VClock::merge`] from a flat stamp.
    fn merge_stamp(&mut self, stamp: &[u64]) {
        debug_assert_eq!(self.counts.len(), stamp.len());
        for (mine, theirs) in self.counts.iter_mut().zip(stamp) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Whether `self` happens-before-or-equals `other` (pointwise ≤).
    pub fn leq(&self, other: &VClock) -> bool {
        stamp_leq(&self.counts, other)
    }

    /// Whether the two clocks are causally unordered — neither event
    /// happens-before the other.
    pub fn concurrent(&self, other: &VClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

/// Whether the flat `stamp` is pointwise ≤ `clock`.
fn stamp_leq(stamp: &[u64], clock: &VClock) -> bool {
    debug_assert_eq!(stamp.len(), clock.counts.len());
    stamp.iter().zip(&clock.counts).all(|(a, b)| a <= b)
}

/// The happens-before shadow of one explorer state: per-process clocks
/// plus one stamp per pending message, queue-aligned with the network.
#[derive(Debug, PartialEq, Eq)]
pub struct HbState {
    /// `clocks[p]`: p's current vector clock.
    clocks: Vec<VClock>,
    /// `msgs[to]`: stamps of the messages pending at `to`, flat with
    /// stride `n`, in arrival order (the same alive-index space
    /// [`Network::deliver`] uses).
    ///
    /// [`Network::deliver`]: crate::Network::deliver
    msgs: Vec<Vec<u64>>,
}

// Manual Clone so `clone_from` reuses every clock and queue allocation:
// `Vec::clone_from` clones element-wise into the existing buffers, and
// a flat stamp queue copies as one `memcpy`.
impl Clone for HbState {
    fn clone(&self) -> Self {
        HbState { clocks: self.clocks.clone(), msgs: self.msgs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.clocks.clone_from(&source.clocks);
        self.msgs.clone_from(&source.msgs);
    }
}

impl HbState {
    /// The initial shadow: zero clocks, no pending stamps.
    pub fn new(n: usize) -> Self {
        HbState { clocks: (0..n).map(|_| VClock::new(n)).collect(), msgs: vec![Vec::new(); n] }
    }

    /// The shadow of an explored root that may already have messages
    /// pending: zero clocks, and one zero stamp per pending message
    /// (`pending(to)` of them at `to`, in queue order). Events before
    /// the root are not part of the explored history, so their stamps
    /// order nothing.
    pub fn with_pending(n: usize, pending: impl Fn(ProcessId) -> usize) -> Self {
        let mut hb = HbState::new(n);
        for (to, queue) in (0..).map(ProcessId).zip(&mut hb.msgs) {
            queue.resize(pending(to) * n, 0);
        }
        hb
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.clocks.len()
    }

    /// `p`'s current clock.
    pub fn clock(&self, p: ProcessId) -> &VClock {
        &self.clocks[p.index()]
    }

    /// The stamp of the `index`-th pending message at `to` (the same
    /// index [`Network::deliver`] would take): one component per
    /// process, indexed by process id.
    ///
    /// [`Network::deliver`]: crate::Network::deliver
    pub fn msg_clock(&self, to: ProcessId, index: usize) -> &[u64] {
        let n = self.n();
        &self.msgs[to.index()][index * n..(index + 1) * n]
    }

    /// Number of stamped messages pending at `to` — always equal to the
    /// shadowed network's `pending_count(to)`.
    pub fn pending(&self, to: ProcessId) -> usize {
        self.msgs[to.index()].len() / self.n()
    }

    /// Applies one executed step to the shadow: `p` delivered the
    /// `deliver`-th pending message (or none), then sent the messages
    /// that made each destination's queue grow by `new_msgs[to]`.
    ///
    /// The explorer computes `new_msgs` by diffing the network's
    /// per-destination pending counts across [`Simulation::step`]
    /// (accounting for the delivery itself), which also covers
    /// broadcasts, link-fault drops (no growth) and duplications (extra
    /// growth) without the shadow knowing about any of them.
    ///
    /// [`Simulation::step`]: crate::Simulation::step
    pub fn apply(&mut self, p: ProcessId, deliver: Option<usize>, new_msgs: &[usize]) {
        debug_assert_eq!(new_msgs.len(), self.msgs.len());
        let n = self.n();
        let clock = &mut self.clocks[p.index()];
        if let Some(idx) = deliver {
            let queue = &mut self.msgs[p.index()];
            let span = idx * n..(idx + 1) * n;
            let stamp = queue
                .get(span.clone())
                .expect("invariant: the shadow queues mirror the network's pending queues");
            clock.merge_stamp(stamp);
            queue.drain(span);
        }
        clock.tick(p);
        for (queue, &grew) in self.msgs.iter_mut().zip(new_msgs) {
            for _ in 0..grew {
                queue.extend_from_slice(&clock.counts);
            }
        }
    }

    /// Whether the *last* message appended at `to` is concurrent with
    /// `to`'s current clock — the send-vs-pending-delivery race test the
    /// source-set layer runs after a step that grew `to`'s queue.
    ///
    /// A fresh send is almost always a race (the stamp carries the
    /// sender's tick, which the destination has not observed), but the
    /// judgment is made from the clocks, not assumed: a send whose stamp
    /// the destination has already fully observed is HB-ordered and
    /// races with nothing.
    pub fn send_races(&self, to: ProcessId) -> bool {
        let queue = &self.msgs[to.index()];
        if queue.is_empty() {
            return false;
        }
        let last = &queue[queue.len() - self.n()..];
        !stamp_leq(last, &self.clocks[to.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The per-stamp representation the flat queues replaced — one heap
    /// `VClock` per pending message — kept as the differential oracle.
    struct StampModel {
        clocks: Vec<VClock>,
        msgs: Vec<VecDeque<VClock>>,
    }

    impl StampModel {
        fn new(n: usize) -> Self {
            StampModel {
                clocks: (0..n).map(|_| VClock::new(n)).collect(),
                msgs: (0..n).map(|_| VecDeque::new()).collect(),
            }
        }

        fn apply(&mut self, p: ProcessId, deliver: Option<usize>, new_msgs: &[usize]) {
            if let Some(idx) = deliver {
                let stamp = self.msgs[p.index()].remove(idx).expect("model delivery in range");
                self.clocks[p.index()].merge(&stamp);
            }
            self.clocks[p.index()].tick(p);
            for (to, &grew) in new_msgs.iter().enumerate() {
                for _ in 0..grew {
                    let stamp = self.clocks[p.index()].clone();
                    self.msgs[to].push_back(stamp);
                }
            }
        }

        fn send_races(&self, to: ProcessId) -> bool {
            match self.msgs[to.index()].back() {
                Some(stamp) => !stamp.leq(&self.clocks[to.index()]),
                None => false,
            }
        }
    }

    /// Every observable of `hb` against the model: clocks, pending
    /// counts, each pending stamp and the send-race judgment.
    fn matches_model(hb: &HbState, model: &StampModel) -> Result<(), TestCaseError> {
        prop_assert_eq!(hb.n(), model.clocks.len());
        for i in 0..hb.n() {
            let p = ProcessId(i as u32);
            prop_assert_eq!(hb.clock(p), &model.clocks[i]);
            prop_assert_eq!(hb.pending(p), model.msgs[i].len());
            for (k, stamp) in model.msgs[i].iter().enumerate() {
                prop_assert_eq!(hb.msg_clock(p, k), stamp.counts.as_slice());
            }
            prop_assert_eq!(hb.send_races(p), model.send_races(p));
        }
        Ok(())
    }

    /// One step: the stepping process (mod n), an optional delivery pick
    /// (mod the pending count) and per-destination queue growth.
    fn step() -> impl Strategy<Value = (usize, Option<u64>, Vec<usize>)> {
        (0usize..4, proptest::option::of(any::<u64>()), proptest::collection::vec(0usize..3, 4))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The flat stamp queues agree with the per-stamp model after
        /// every step, and `clone_from` into a dirtied buffer of any size
        /// equals `clone`.
        #[test]
        fn flat_stamps_match_the_per_stamp_model(
            n in 1usize..5,
            steps in proptest::collection::vec(step(), 0..60),
            dirty_n in 1usize..5,
            dirt in proptest::collection::vec(step(), 0..12),
        ) {
            let mut dirty = HbState::new(dirty_n);
            for (p, _, grew) in &dirt {
                dirty.apply(ProcessId((p % dirty_n) as u32), None, &grew[..dirty_n]);
            }
            let mut hb = HbState::new(n);
            let mut model = StampModel::new(n);
            for (p, pick, grew) in &steps {
                let p = p % n;
                let pending = model.msgs[p].len();
                let deliver = pick.filter(|_| pending > 0).map(|r| (r % pending as u64) as usize);
                let pid = ProcessId(p as u32);
                hb.apply(pid, deliver, &grew[..n]);
                model.apply(pid, deliver, &grew[..n]);
                matches_model(&hb, &model)?;
                let mut reused = dirty.clone();
                reused.clone_from(&hb);
                prop_assert_eq!(&reused, &hb.clone());
            }
        }
    }

    #[test]
    fn ticks_and_merges_order_events() {
        let mut a = VClock::new(2);
        let mut b = VClock::new(2);
        a.tick(ProcessId(0));
        assert!(!a.leq(&b));
        assert!(b.leq(&a));
        b.tick(ProcessId(1));
        assert!(a.concurrent(&b));
        b.merge(&a);
        assert!(a.leq(&b));
        assert!(!a.concurrent(&b));
        assert_eq!(b.get(ProcessId(0)), 1);
        assert_eq!(b.get(ProcessId(1)), 1);
    }

    #[test]
    fn shadow_tracks_send_deliver_causality() {
        let mut hb = HbState::new(2);
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        // p0 steps, sending one message to p1.
        hb.apply(p0, None, &[0, 1]);
        assert_eq!(hb.pending(p1), 1);
        // The fresh send is concurrent with p1's clock: a race.
        assert!(hb.send_races(p1));
        // p1 steps without delivering: still concurrent with the send.
        hb.apply(p1, None, &[0, 0]);
        assert!(hb.clock(p0).concurrent(hb.clock(p1)));
        // p1 delivers: now p0's send happens-before p1's state.
        hb.apply(p1, Some(0), &[0, 0]);
        assert_eq!(hb.pending(p1), 0);
        assert!(hb.clock(p0).leq(hb.clock(p1)));
    }

    #[test]
    fn delivery_by_index_removes_the_matching_stamp() {
        let mut hb = HbState::new(2);
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        hb.apply(p0, None, &[0, 2]); // two sends to p1 in one step
        hb.apply(p0, None, &[0, 1]); // a later third send
        assert_eq!(hb.pending(p1), 3);
        let late = hb.msg_clock(p1, 2).to_vec();
        // Delivering index 0 leaves the later stamps at shifted indices.
        hb.apply(p1, Some(0), &[0, 0]);
        assert_eq!(hb.pending(p1), 2);
        assert_eq!(hb.msg_clock(p1, 1), late);
    }

    #[test]
    fn observed_sends_do_not_race() {
        let mut hb = HbState::new(2);
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        hb.apply(p0, None, &[0, 1]);
        hb.apply(p1, Some(0), &[0, 0]); // p1 observes everything p0 did
                                        // A p1 self-send stamped after the merge is ≤ its own clock once
                                        // delivered… but still races with p0? No: the stamp is p1's own
                                        // clock, which p1 trivially dominates.
        hb.apply(p1, None, &[0, 1]);
        assert!(!hb.send_races(p1));
    }

    #[test]
    fn clone_from_matches_clone() {
        let mut hb = HbState::new(3);
        hb.apply(ProcessId(0), None, &[0, 1, 1]);
        hb.apply(ProcessId(1), Some(0), &[1, 0, 0]);
        let fresh = hb.clone();
        let mut reused = HbState::new(3);
        reused.apply(ProcessId(2), None, &[1, 1, 0]);
        reused.clone_from(&hb);
        assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
    }
}
