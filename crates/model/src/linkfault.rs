//! Link-fault plans: deterministic per-link fault schedules.
//!
//! The paper's model (§2.1) assumes reliable asynchronous channels. A
//! [`LinkFaultPlan`] is the adversary that breaks that assumption in a
//! *replayable* way: for each directed link and each send it decides —
//! purely from the plan, the sender's clock, and a per-link send counter —
//! whether the message is delivered, dropped, or duplicated. No ambient
//! randomness is ever consulted, so simulations driven by a plan keep the
//! determinism contract (DESIGN.md §6) and stay fingerprint-stable.

use crate::window::splitmix64;
use crate::{LinkWindow, ProcessId, ProcessSet, Time, WindowAction, WindowPlan, WindowPlanBuilder};

/// What a fault window does to the sends it selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkFault {
    /// Drop the selected sends: the message never enters the channel.
    Drop,
    /// Enqueue one extra copy of the selected sends (same payload, same
    /// message identity — the copy is a network-level duplicate, not a
    /// fresh send).
    Duplicate,
}

impl WindowAction for LinkFault {
    const PLAN: &'static str = "LinkFaultPlan";

    fn name(self) -> &'static str {
        match self {
            LinkFault::Drop => "drop",
            LinkFault::Duplicate => "dup",
        }
    }

    fn x(self) -> Option<u64> {
        None
    }

    fn from_parts(name: &str, x: Option<u64>) -> Option<LinkFault> {
        match (name, x) {
            ("drop", None) => Some(LinkFault::Drop),
            ("dup", None) => Some(LinkFault::Duplicate),
            _ => None,
        }
    }
}

/// One fault window: a [`LinkFault`] on one directed link. A stride of
/// `1` with offset `0` is a full partition of the link; larger strides
/// model fair-lossy links that drop (or duplicate) only some messages.
pub type LinkFaultWindow = LinkWindow<LinkFault>;

/// The fate of one send under a plan: either dropped, or delivered with
/// `copies >= 1` enqueued copies (`copies > 1` when duplicate windows hit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFate {
    /// The message never enters the channel.
    Dropped,
    /// The message is enqueued `copies` times (`1` = the reliable case).
    Deliver {
        /// Number of copies enqueued (at least one).
        copies: u64,
    },
}

/// A deterministic per-link fault schedule — the network-adversary sibling
/// of [`crate::FailurePattern`].
///
/// A plan is a finite list of [`LinkFaultWindow`]s. The fate of the `k`-th
/// send on a directed link at time `t` is a pure function of the plan,
/// `t`, and `k` (see [`LinkFaultPlan::fate`]): drop windows win over
/// duplicate windows, and each matching duplicate window adds one copy.
///
/// # Example
///
/// ```
/// use sih_model::{LinkFaultPlan, ProcessId, ProcessSet, SendFate, Time};
/// let plan = LinkFaultPlan::builder(3)
///     .drop_every(ProcessId(0), ProcessId(1), 2, 0, Time(0), Some(Time(100)))
///     .partition(ProcessSet::singleton(ProcessId(2)), Time(10), Some(Time(50)))
///     .build();
/// // Send #0 on 0->1 at t=5 falls in the drop window (stride 2, offset 0).
/// assert_eq!(plan.fate(ProcessId(0), ProcessId(1), Time(5), 0), SendFate::Dropped);
/// // Send #1 survives (1 % 2 != 0).
/// assert_eq!(plan.fate(ProcessId(0), ProcessId(1), Time(5), 1), SendFate::Deliver { copies: 1 });
/// // Every window is bounded, so the network is reliable from t=100 on.
/// assert_eq!(plan.quiescence_time(), Some(Time(100)));
/// ```
pub type LinkFaultPlan = WindowPlan<LinkFault>;

/// Builder for [`LinkFaultPlan`] (see [`WindowPlan::builder`]).
pub type LinkFaultPlanBuilder = WindowPlanBuilder<LinkFault>;

impl LinkFaultPlan {
    /// The fault-free plan over `n` processes: every send is delivered once.
    pub fn reliable(n: usize) -> LinkFaultPlan {
        Self::builder(n).build()
    }

    /// Whether the plan has no fault windows at all.
    #[inline]
    pub fn is_reliable(&self) -> bool {
        self.windows().is_empty()
    }

    /// The fate of the `k`-th send on the directed link `src -> dst` at
    /// time `t` (where `k` counts earlier sends on the same link).
    ///
    /// Any active drop window that selects `k` drops the message; otherwise
    /// each active duplicate window that selects `k` adds one extra copy.
    pub fn fate(&self, src: ProcessId, dst: ProcessId, t: Time, k: u64) -> SendFate {
        let mut copies = 1u64;
        for fault in self.matching(src, dst, t, k) {
            match fault {
                LinkFault::Drop => return SendFate::Dropped,
                LinkFault::Duplicate => copies += 1,
            }
        }
        SendFate::Deliver { copies }
    }

    /// A seeded pseudo-random plan over `n` processes with every window
    /// bounded by `horizon` — so `quiescence_time()` is always finite.
    ///
    /// The generator is a splitmix64 stream over `seed`: the same inputs
    /// always produce the same plan, on every platform. It mixes drop and
    /// duplicate windows over random links with random strides, suitable
    /// for property tests that need diverse but replayable adversaries.
    pub fn random_plan(n: usize, seed: u64, horizon: Time) -> LinkFaultPlan {
        let mut state = seed;
        let mut next = || splitmix64(&mut state);
        let mut b = Self::builder(n);
        let windows = 1 + (next() % 6) as usize;
        for _ in 0..windows {
            let src = ProcessId((next() % n as u64) as u32);
            let dst = ProcessId((next() % n as u64) as u32);
            let stride = 1 + next() % 4;
            let offset = next() % stride;
            let from = Time(next() % horizon.0.max(1));
            let until = Some(Time((from.0 + 1 + next() % horizon.0.max(1)).min(horizon.0)));
            b = if next() % 3 == 0 {
                b.duplicate_every(src, dst, stride, offset, from, until)
            } else {
                b.drop_every(src, dst, stride, offset, from, until)
            };
        }
        b.build()
    }
}

impl LinkFaultPlanBuilder {
    /// Drops **every** send on `src -> dst` during `[from, until)`.
    pub fn drop_link(
        self,
        src: ProcessId,
        dst: ProcessId,
        from: Time,
        until: Option<Time>,
    ) -> Self {
        self.drop_every(src, dst, 1, 0, from, until)
    }

    /// Drops the sends on `src -> dst` whose per-link counter `k` satisfies
    /// `k % stride == offset`, during `[from, until)`.
    pub fn drop_every(
        self,
        src: ProcessId,
        dst: ProcessId,
        stride: u64,
        offset: u64,
        from: Time,
        until: Option<Time>,
    ) -> Self {
        let action = LinkFault::Drop;
        self.window(LinkWindow { src, dst, action, stride, offset, from, until })
    }

    /// Duplicates the sends on `src -> dst` whose per-link counter `k`
    /// satisfies `k % stride == offset`, during `[from, until)`.
    pub fn duplicate_every(
        self,
        src: ProcessId,
        dst: ProcessId,
        stride: u64,
        offset: u64,
        from: Time,
        until: Option<Time>,
    ) -> Self {
        let action = LinkFault::Duplicate;
        self.window(LinkWindow { src, dst, action, stride, offset, from, until })
    }

    /// A symmetric partition separating `side` from its complement during
    /// `[from, until)`: every send crossing the cut — in either direction —
    /// is dropped. Sends within either side are unaffected.
    pub fn partition(mut self, side: ProcessSet, from: Time, until: Option<Time>) -> Self {
        let all = ProcessSet::full(self.n());
        let other = all.difference(side);
        for p in side.intersection(all) {
            for q in other {
                self = self.drop_link(p, q, from, until);
                self = self.drop_link(q, p, from, until);
            }
        }
        self
    }

    /// A total blackout during `[from, until)`: every send on every link
    /// (including self-sends) is dropped.
    pub fn blackout(mut self, from: Time, until: Option<Time>) -> Self {
        let n = self.n();
        for p in (0..n as u32).map(ProcessId) {
            for q in (0..n as u32).map(ProcessId) {
                self = self.drop_link(p, q, from, until);
            }
        }
        self
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_plan_delivers_everything_once() {
        let plan = LinkFaultPlan::reliable(3);
        assert!(plan.is_reliable());
        assert_eq!(plan.quiescence_time(), Some(Time::ZERO));
        for k in 0..10 {
            assert_eq!(
                plan.fate(ProcessId(0), ProcessId(2), Time(k), k),
                SendFate::Deliver { copies: 1 }
            );
        }
    }

    #[test]
    fn drop_window_is_time_and_counter_selective() {
        let plan = LinkFaultPlan::builder(2)
            .drop_every(ProcessId(0), ProcessId(1), 3, 1, Time(10), Some(Time(20)))
            .build();
        let f = |t, k| plan.fate(ProcessId(0), ProcessId(1), Time(t), k);
        // Inside the window, only k ≡ 1 (mod 3) is dropped.
        assert_eq!(f(10, 1), SendFate::Dropped);
        assert_eq!(f(19, 4), SendFate::Dropped);
        assert_eq!(f(15, 0), SendFate::Deliver { copies: 1 });
        // Outside the window (before, at the exclusive bound, after).
        assert_eq!(f(9, 1), SendFate::Deliver { copies: 1 });
        assert_eq!(f(20, 1), SendFate::Deliver { copies: 1 });
        // Other direction is untouched.
        assert_eq!(
            plan.fate(ProcessId(1), ProcessId(0), Time(15), 1),
            SendFate::Deliver { copies: 1 }
        );
    }

    #[test]
    fn duplicates_stack_and_drops_win() {
        let plan = LinkFaultPlan::builder(2)
            .duplicate_every(ProcessId(0), ProcessId(1), 1, 0, Time(0), None)
            .duplicate_every(ProcessId(0), ProcessId(1), 2, 0, Time(0), None)
            .drop_every(ProcessId(0), ProcessId(1), 5, 4, Time(0), None)
            .build();
        // k=0: both duplicate windows match -> 3 copies.
        assert_eq!(
            plan.fate(ProcessId(0), ProcessId(1), Time(0), 0),
            SendFate::Deliver { copies: 3 }
        );
        // k=1: only the every-send window matches -> 2 copies.
        assert_eq!(
            plan.fate(ProcessId(0), ProcessId(1), Time(0), 1),
            SendFate::Deliver { copies: 2 }
        );
        // k=4: the drop window wins over both duplicates.
        assert_eq!(plan.fate(ProcessId(0), ProcessId(1), Time(0), 4), SendFate::Dropped);
    }

    #[test]
    fn partition_cuts_both_directions_and_heals() {
        let side = ProcessSet::from_iter([0, 1].map(ProcessId));
        let plan = LinkFaultPlan::builder(4).partition(side, Time(5), Some(Time(8))).build();
        // Crossing the cut, both ways, inside the window.
        assert_eq!(plan.fate(ProcessId(0), ProcessId(2), Time(6), 0), SendFate::Dropped);
        assert_eq!(plan.fate(ProcessId(3), ProcessId(1), Time(7), 9), SendFate::Dropped);
        // Within a side.
        assert_eq!(
            plan.fate(ProcessId(0), ProcessId(1), Time(6), 0),
            SendFate::Deliver { copies: 1 }
        );
        // Healed.
        assert_eq!(
            plan.fate(ProcessId(0), ProcessId(2), Time(8), 0),
            SendFate::Deliver { copies: 1 }
        );
        assert_eq!(plan.quiescence_time(), Some(Time(8)));
    }

    #[test]
    fn blackout_drops_self_sends_too() {
        let plan = LinkFaultPlan::builder(2).blackout(Time(0), None).build();
        assert_eq!(plan.fate(ProcessId(0), ProcessId(0), Time(0), 0), SendFate::Dropped);
        assert_eq!(plan.fate(ProcessId(1), ProcessId(0), Time(99), 3), SendFate::Dropped);
        assert_eq!(plan.quiescence_time(), None);
    }

    #[test]
    fn quiescence_is_the_max_heal_time() {
        let plan = LinkFaultPlan::builder(3)
            .drop_link(ProcessId(0), ProcessId(1), Time(0), Some(Time(30)))
            .duplicate_every(ProcessId(1), ProcessId(2), 1, 0, Time(10), Some(Time(50)))
            .build();
        assert_eq!(plan.quiescence_time(), Some(Time(50)));
    }

    #[test]
    fn random_plan_is_deterministic_and_bounded() {
        let a = LinkFaultPlan::random_plan(4, 42, Time(500));
        let b = LinkFaultPlan::random_plan(4, 42, Time(500));
        assert_eq!(a, b);
        let c = LinkFaultPlan::random_plan(4, 43, Time(500));
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(!a.windows().is_empty());
        let q = a.quiescence_time().expect("random plans always heal");
        assert!(q <= Time(500), "windows bounded by the horizon, got {q:?}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ =
            LinkFaultPlan::builder(2).drop_link(ProcessId(0), ProcessId(1), Time(5), Some(Time(5)));
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn offset_out_of_stride_rejected() {
        let _ =
            LinkFaultPlan::builder(2).drop_every(ProcessId(0), ProcessId(1), 2, 2, Time(0), None);
    }

    #[test]
    fn debug_format_lists_windows() {
        let plan = LinkFaultPlan::builder(2)
            .drop_link(ProcessId(0), ProcessId(1), Time(3), Some(Time(9)))
            .build();
        let s = format!("{plan:?}");
        assert!(s.contains("drop p0→p1"), "{s}");
        assert!(s.contains("t3"), "{s}");
    }
}
