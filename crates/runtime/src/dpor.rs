//! Source-set support for the DPOR explorer: sleep/source sets and
//! happens-before race wake-ups.
//!
//! The legacy sleep-set reduction ([`ExploreConfig::por`]) only skips a
//! child when its reordering with the **immediately preceding** step is
//! already covered: each node's sleep set is rebuilt from its earlier
//! siblings and forgotten one level down. Source-DPOR (Abdulla,
//! Aronis, Jonsson, Sagonas — the optimal-DPOR line) keeps the set
//! alive along the path: a choice goes to sleep when the branch that
//! runs it *first* has been explored, and it **stays** asleep through
//! every later step it is independent with. The set of choices actually
//! expanded at a node — enabled minus sleeping — is the node's *source
//! set*; it stays provably sufficient because a sleeping choice is woken
//! (put back into the source set) the moment a step it races with
//! executes.
//!
//! Races are judged with the [`crate::hb`] vector clocks: a step of `p`
//! that sends into `q`'s queue is a race with `q`'s sleeping deliveries
//! iff the message's stamp is concurrent with `q`'s clock — then
//! delivering before vs after observing the send are genuinely
//! different futures and both orders must be explored. Steps that
//! produce time-stamped checker events (non-[*quiet*] steps) or
//! unstable detector outputs wake **everything**: the explorer's
//! equivalence is check-equivalence, and such steps are visible to
//! checkers in a way that does not commute (see DESIGN.md).
//!
//! Sleeping choices are identified by **content**, not position: a
//! [`SleepKey`] pairs the process with the *envelope fingerprint* of the
//! delivered message (or `None` for the no-delivery step), never its
//! queue index. Content keys are stable under the explorer's canonical
//! content-ordered enumeration — two states with equal queue multisets
//! build identical sleep sets — which is what lets the dedup key stay on
//! the order-insensitive multiset fingerprint (see `crate::explore`).
//!
//! Everything here is deterministic: a [`SleepSet`] is a sorted `Vec`
//! in [`SleepKey`]'s canonical order, and its fingerprint feeds the
//! explorer's dedup key so two visits of one state under *different*
//! sleep contexts are never merged (merging them would let the context
//! with the larger sleep set skip schedules only the other context
//! covered).
//!
//! [`ExploreConfig::por`]: crate::ExploreConfig::por
//! [*quiet*]: crate::StepReport::quiet

// sih-analysis: allow(index-reachable) — `grew` is the explorer's per-destination growth
// vector of length n, and every sleeping key's process id comes from the explorer's own
// choice enumeration, bounded by n at construction.
use crate::fingerprint::StateHasher;
use crate::hb::HbState;
use sih_model::ProcessId;

/// A sleeping choice, identified by content: the process and the
/// envelope fingerprint of the message it would deliver (`None` = the
/// no-delivery step).
///
/// The canonical `Ord` (process, then `None` before any delivery, then
/// by fingerprint) is the sort order of [`SleepSet`]'s backing vector;
/// it never has to match the explorer's enumeration order, only be a
/// pure function of content.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SleepKey {
    /// The process whose step is asleep.
    pub p: ProcessId,
    /// Envelope fingerprint of the delivered message, or `None` for a
    /// step without a delivery.
    pub deliver: Option<u64>,
}

/// A sleep set: choices whose subtrees are already covered by an earlier
/// branch, kept sorted in [`SleepKey`]'s canonical order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SleepSet {
    sleeping: Vec<SleepKey>,
}

impl SleepSet {
    /// The empty set.
    pub fn new() -> Self {
        SleepSet { sleeping: Vec::new() }
    }

    /// Whether `key` is asleep.
    pub fn contains(&self, key: SleepKey) -> bool {
        self.sleeping.binary_search(&key).is_ok()
    }

    /// Puts `key` to sleep (idempotent).
    pub fn insert(&mut self, key: SleepKey) {
        if let Err(at) = self.sleeping.binary_search(&key) {
            self.sleeping.insert(at, key);
        }
    }

    /// Number of sleeping choices.
    pub fn len(&self) -> usize {
        self.sleeping.len()
    }

    /// Whether nothing is asleep.
    pub fn is_empty(&self) -> bool {
        self.sleeping.is_empty()
    }

    /// The sleeping choices in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = SleepKey> + '_ {
        self.sleeping.iter().copied()
    }

    /// Removes everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.sleeping.clear();
    }

    /// Replaces the contents with a copy of `src`, reusing the
    /// allocation (the explorer's pooled child materialization).
    pub fn copy_from(&mut self, src: &SleepSet) {
        self.sleeping.clone_from(&src.sleeping);
    }

    /// Keeps only the choices `keep` accepts; returns how many were
    /// dropped (woken).
    pub fn retain(&mut self, mut keep: impl FnMut(SleepKey) -> bool) -> u64 {
        let before = self.sleeping.len();
        self.sleeping.retain(|&c| keep(c));
        (before - self.sleeping.len()) as u64
    }

    /// Canonical 64-bit fingerprint of the set — the sleep-context half
    /// of the explorer's dedup key. The empty set hashes to 0 so
    /// context-free exploration keys exactly as it did before contexts
    /// existed.
    pub fn fingerprint(&self) -> u64 {
        if self.sleeping.is_empty() {
            return 0;
        }
        let mut h = StateHasher::new();
        for c in &self.sleeping {
            h.write(&c.p);
            h.write(&c.deliver);
        }
        h.finish()
    }
}

/// Wakes the sleeping choices a just-executed step of `executed` races
/// with, returning the number of races found (= choices woken).
///
/// `grew` holds, per destination, how many messages the step appended to
/// that queue. A sleeping choice is woken when:
///
/// * it belongs to the process that just stepped (program order is a
///   dependency: the sleeping choice's one-branch-covers-it argument was
///   about the *old* state of that process), or
/// * the step grew its process's queue and the new message's stamp is
///   concurrent with that process's clock ([`HbState::send_races`]) — a
///   genuine send-vs-delivery race, both orders reachable and distinct.
///
/// For a cross-process send the stamp carries the sender's just-ticked
/// own component, which the destination cannot have observed, so
/// `send_races` is always true there — the clock test matters for
/// self-sends (already woken by program order) and keeps the judgment
/// principled rather than assumed. Content keys make everything else
/// independent: a step of `p` never removes messages from `q`'s queue,
/// so a sleeping `(q, fp)` still names a pending message afterwards.
pub fn wake_races(sleep: &mut SleepSet, hb: &HbState, executed: ProcessId, grew: &[usize]) -> u64 {
    if sleep.is_empty() {
        return 0;
    }
    sleep.retain(|c| {
        if c.p == executed {
            return false;
        }
        let to = c.p;
        if grew[to.index()] > 0 && hb.send_races(to) {
            return false;
        }
        true
    })
}

/// Wakes every sleeping choice of `p` (used when `p`'s detector output
/// is about to change, or `p` crashes: its sleeping steps no longer
/// commute forward). Returns the number woken.
pub fn wake_process(sleep: &mut SleepSet, p: ProcessId) -> u64 {
    sleep.retain(|c| c.p != p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u32, deliver: Option<u64>) -> SleepKey {
        SleepKey { p: ProcessId(p), deliver }
    }

    #[test]
    fn sleep_set_is_sorted_and_deduplicated() {
        let mut s = SleepSet::new();
        s.insert(key(1, Some(0)));
        s.insert(key(0, None));
        s.insert(key(1, Some(0)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(key(0, None)));
        let order: Vec<SleepKey> = s.iter().collect();
        assert_eq!(order, vec![key(0, None), key(1, Some(0))]);
    }

    #[test]
    fn fingerprint_is_canonical_and_insertion_order_free() {
        let mut a = SleepSet::new();
        a.insert(key(0, None));
        a.insert(key(2, Some(1)));
        let mut b = SleepSet::new();
        b.insert(key(2, Some(1)));
        b.insert(key(0, None));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), 0);
        assert_eq!(SleepSet::new().fingerprint(), 0);
        // None vs Some must not collide through the encoding — in
        // particular None vs Some(u64::MAX), which a tagless
        // sentinel encoding would merge.
        let mut c = SleepSet::new();
        c.insert(key(0, None));
        let mut d = SleepSet::new();
        d.insert(key(0, Some(u64::MAX)));
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn racing_sends_wake_sleeping_deliveries() {
        let mut hb = HbState::new(2);
        let mut sleep = SleepSet::new();
        sleep.insert(key(1, None));
        sleep.insert(key(1, Some(0xabcd)));
        // p0 steps and sends to p1: both of p1's sleeping choices wake.
        hb.apply(ProcessId(0), None, &[0, 1]);
        let woken = wake_races(&mut sleep, &hb, ProcessId(0), &[0, 1]);
        assert_eq!(woken, 2);
        assert!(sleep.is_empty());
    }

    #[test]
    fn non_growing_steps_leave_sleepers_asleep() {
        let mut hb = HbState::new(3);
        let mut sleep = SleepSet::new();
        sleep.insert(key(1, None));
        sleep.insert(key(0, None));
        // p2 steps without sending: only p2's own sleepers would wake,
        // and it has none — p0's and p1's stay asleep.
        hb.apply(ProcessId(2), None, &[0, 0, 0]);
        let woken = wake_races(&mut sleep, &hb, ProcessId(2), &[0, 0, 0]);
        assert_eq!(woken, 0);
        assert_eq!(sleep.len(), 2);
        // The stepping process's own sleepers always wake.
        let woken = wake_races(&mut sleep, &hb, ProcessId(0), &[0, 0, 0]);
        assert_eq!(woken, 1);
        assert!(!sleep.contains(key(0, None)));
    }

    #[test]
    fn wake_process_clears_one_process_only() {
        let mut sleep = SleepSet::new();
        sleep.insert(key(0, None));
        sleep.insert(key(1, None));
        sleep.insert(key(1, Some(2)));
        assert_eq!(wake_process(&mut sleep, ProcessId(1)), 2);
        assert_eq!(sleep.len(), 1);
        assert!(sleep.contains(key(0, None)));
    }
}
