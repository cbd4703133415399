//! Adversary plans: deterministic per-link message-mutation schedules,
//! scripted protocol attacks, and the "armor" validation ladder.
//!
//! [`LinkFaultPlan`](crate::LinkFaultPlan) breaks the reliable-channel
//! assumption; an [`AdversaryPlan`] breaks the *authenticated-channel*
//! assumption (§2.1 of the paper assumes both). For each directed link and
//! each send it decides — purely from the plan, the sender's clock, and a
//! per-link send counter — whether the message crosses untouched or is
//! mutated: its fields flipped, its values perturbed, its sender forged, a
//! quorum ack fabricated in its place, or the whole envelope replaced by a
//! stale replay of an earlier send. No ambient randomness is ever
//! consulted, so simulations driven by a plan keep the determinism
//! contract (DESIGN.md §6) and stay fingerprint-stable.
//!
//! The second half of the module is the *defense* vocabulary: every
//! mutation (and every scripted attack) belongs to an [`AttackClass`], and
//! an [`Armor`] level says which classes the honest processes can detect
//! and discard. Armor is modeled as an oracle: the simulator knows which
//! envelopes are adversarial and neutralizes exactly the classes a real
//! cryptographic implementation of that rung could reject. The "minimum
//! armor" study (`lab byzantine`) climbs this ladder per attack.

use crate::window::splitmix64;
use crate::{LinkWindow, ProcessId, Time, WindowAction, WindowPlan, WindowPlanBuilder};
use std::fmt;

/// The ways a mutation window corrupts the sends it selects. The
/// [`Mutation`]'s `x` parameter feeds the mutation deterministically (a
/// perturbation delta, a forged sender id, a fabricated value) — the same
/// plan always produces the same corrupted bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Rewrite the message to a *different protocol field/variant*
    /// carrying the same data (e.g. a `Phase1` announcement re-tagged as a
    /// `Phase2` echo). Inexpressible flips pass through untouched.
    Flip,
    /// Perturb the values/rounds inside the message by the window's `x`
    /// (e.g. `Decision(v)` becomes `Decision(v + x)` — a value outside
    /// the proposal set, the classic validity-breaking corruption).
    Perturb,
    /// Consume the selected envelope and deliver, in its place, a stale
    /// replay of the most recent *untampered* payload sent earlier on the
    /// same link. If nothing was sent before, the send passes untouched.
    Replay,
    /// Deliver the payload unchanged but with a forged sender id
    /// (`x mod n`, skipping the true sender).
    ForgeSender,
    /// Replace the message with a fabricated quorum acknowledgement
    /// claiming state the sender never had (protocols without acks pass
    /// the send through untouched).
    ForgeAck,
}

impl MutationKind {
    /// The attack class this mutation belongs to (what armor must defeat).
    pub fn class(self) -> AttackClass {
        match self {
            MutationKind::Flip | MutationKind::Perturb => AttackClass::Tamper,
            MutationKind::Replay => AttackClass::Replay,
            MutationKind::ForgeSender => AttackClass::SenderForgery,
            MutationKind::ForgeAck => AttackClass::AckForgery,
        }
    }

    /// Stable lowercase name (used by the schedule format and lab tables).
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::Flip => "flip",
            MutationKind::Perturb => "perturb",
            MutationKind::Replay => "replay",
            MutationKind::ForgeSender => "forge-sender",
            MutationKind::ForgeAck => "forge-ack",
        }
    }

    /// Parses [`name`](Self::name) back; `None` for unknown strings.
    pub fn from_name(s: &str) -> Option<MutationKind> {
        Some(match s {
            "flip" => MutationKind::Flip,
            "perturb" => MutationKind::Perturb,
            "replay" => MutationKind::Replay,
            "forge-sender" => MutationKind::ForgeSender,
            "forge-ack" => MutationKind::ForgeAck,
            _ => return None,
        })
    }

    /// All mutation kinds, in ladder/table order.
    pub const ALL: [MutationKind; 5] = [
        MutationKind::Flip,
        MutationKind::Perturb,
        MutationKind::Replay,
        MutationKind::ForgeSender,
        MutationKind::ForgeAck,
    ];
}

/// The classes of adversarial behavior, each defeated by one armor rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackClass {
    /// Content tampering (field flips, value perturbation) — caught by a
    /// payload digest.
    Tamper,
    /// Stale re-injection of genuine earlier messages — caught by the
    /// provenance/freshness rung (digests verify, the nonce does not).
    Replay,
    /// Envelopes claiming a sender that never sent them — caught by the
    /// sender-id (authentication) rung.
    SenderForgery,
    /// Fabricated quorum acknowledgements unbacked by replica state —
    /// caught by the ack-provenance rung.
    AckForgery,
    /// One sender telling different peers different things, every copy
    /// validly "signed" — only cross-validation (provenance) catches it.
    Equivocation,
}

/// The cumulative validation ladder bolted onto the honest processes.
///
/// Rungs are cumulative: level 1 enables the sender-id check, level 2
/// adds the payload digest, level 3 adds ack-provenance/freshness
/// cross-validation. [`Armor::defeats`] maps each [`AttackClass`] to the
/// first rung able to reject it — the mapping the `lab byzantine` ladder
/// measures empirically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Armor(u8);

impl Armor {
    /// No validation: the paper's model taken outside its assumptions.
    pub const NONE: Armor = Armor(0);
    /// Rung 1: sender-id check (authenticated envelopes).
    pub const SENDER_ID: Armor = Armor(1);
    /// Rung 2: rung 1 plus a payload digest (content integrity).
    pub const DIGEST: Armor = Armor(2);
    /// Rung 3: rung 2 plus ack-provenance/freshness cross-validation.
    pub const PROVENANCE: Armor = Armor(3);
    /// The highest rung.
    pub const MAX: Armor = Armor::PROVENANCE;

    /// An armor level from a raw rung number (clamped to the ladder).
    pub fn level(level: u8) -> Armor {
        Armor(level.min(Self::MAX.0))
    }

    /// The rung number (0 = none … 3 = full).
    #[inline]
    pub fn rung(self) -> u8 {
        self.0
    }

    /// Whether this armor level rejects attacks of `class`.
    pub fn defeats(self, class: AttackClass) -> bool {
        let needed = match class {
            AttackClass::SenderForgery => 1,
            AttackClass::Tamper => 2,
            AttackClass::Replay | AttackClass::AckForgery | AttackClass::Equivocation => 3,
        };
        self.0 >= needed
    }

    /// The whole ladder, bottom to top.
    pub const LADDER: [Armor; 4] =
        [Armor::NONE, Armor::SENDER_ID, Armor::DIGEST, Armor::PROVENANCE];
}

impl fmt::Display for Armor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What a mutation window does to the sends it selects: a
/// [`MutationKind`] fed by the parameter `x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mutation {
    /// The corruption applied.
    pub kind: MutationKind,
    /// Deterministic mutation parameter (delta / forged id / fabricated
    /// value seed, interpreted per kind).
    pub x: u64,
}

impl WindowAction for Mutation {
    const PLAN: &'static str = "AdversaryPlan";

    fn name(self) -> &'static str {
        self.kind.name()
    }

    fn x(self) -> Option<u64> {
        Some(self.x)
    }

    fn from_parts(name: &str, x: Option<u64>) -> Option<Mutation> {
        Some(Mutation { kind: MutationKind::from_name(name)?, x: x? })
    }
}

/// One mutation window: a [`Mutation`] on one directed link, selecting
/// sends by the per-link mutation counter.
pub type MutationWindow = LinkWindow<Mutation>;

/// A scripted per-workload protocol attack: a Byzantine *process* (not a
/// channel) running one of the library's attack scripts.
///
/// Scripts are expressed as `Automaton` wrappers in the protocol crates
/// (the equivocating proposer wraps the Figure 2 automaton, the split-ack
/// forger wraps the ABD replica); this type is the replayable description
/// a [`Schedule`](../../sih_runtime/struct.Schedule.html) carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AttackSpec {
    /// Which script runs.
    pub kind: AttackKind,
    /// The script's deterministic parameter (value offsets etc.).
    pub x: u64,
}

/// The scripted attack library.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Figure 2: the proposer announces *different* values to different
    /// peers (Phase 1 and decision floods), every copy validly signed.
    Equivocate,
    /// ABD: a replica splits the read view — it answers queries from half
    /// the clients with a fabricated newer `(ts, value)` pair while
    /// acknowledging honestly to the rest.
    SplitAck,
}

impl AttackKind {
    /// The attack class (what armor must defeat).
    pub fn class(self) -> AttackClass {
        match self {
            AttackKind::Equivocate => AttackClass::Equivocation,
            AttackKind::SplitAck => AttackClass::AckForgery,
        }
    }

    /// Stable lowercase name (schedule format and lab tables).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Equivocate => "equivocate",
            AttackKind::SplitAck => "split-ack",
        }
    }

    /// Parses [`name`](Self::name) back; `None` for unknown strings.
    pub fn from_name(s: &str) -> Option<AttackKind> {
        Some(match s {
            "equivocate" => AttackKind::Equivocate,
            "split-ack" => AttackKind::SplitAck,
            _ => return None,
        })
    }

    /// All scripted attacks in the library.
    pub const ALL: [AttackKind; 2] = [AttackKind::Equivocate, AttackKind::SplitAck];
}

/// A deterministic message-mutation schedule — the Byzantine sibling of
/// [`LinkFaultPlan`](crate::LinkFaultPlan).
///
/// A plan is a finite list of [`MutationWindow`]s. The action applied to
/// the `k`-th send on a directed link at time `t` is a pure function of
/// the plan, `t`, and `k`: the **first** matching window wins (mutations
/// do not stack — one envelope carries one corruption).
///
/// # Example
///
/// ```
/// use sih_model::{AdversaryPlan, Mutation, MutationKind, ProcessId, Time};
/// let (p0, p1) = (ProcessId(0), ProcessId(1));
/// let plan = AdversaryPlan::builder(3)
///     .every(p0, p1, MutationKind::Perturb, 7, Time(0), Some(Time(100)))
///     .build();
/// let action = plan.action(p0, p1, Time(5), 0);
/// assert_eq!(action, Some(Mutation { kind: MutationKind::Perturb, x: 7 }));
/// assert_eq!(plan.action(p1, p0, Time(5), 0), None);
/// assert_eq!(plan.quiescence_time(), Some(Time(100)));
/// ```
pub type AdversaryPlan = WindowPlan<Mutation>;

/// Builder for [`AdversaryPlan`] (see [`WindowPlan::builder`]).
pub type AdversaryPlanBuilder = WindowPlanBuilder<Mutation>;

impl AdversaryPlan {
    /// The attack-free plan: every send crosses untouched.
    pub fn honest(n: usize) -> AdversaryPlan {
        Self::builder(n).build()
    }

    /// Whether the plan has no mutation windows at all.
    #[inline]
    pub fn is_honest(&self) -> bool {
        self.windows().is_empty()
    }

    /// The mutation (if any) applied to the `k`-th send on the directed
    /// link `src -> dst` at time `t`. The first matching window wins.
    pub fn action(&self, src: ProcessId, dst: ProcessId, t: Time, k: u64) -> Option<Mutation> {
        self.matching(src, dst, t, k).next()
    }

    /// A seeded pseudo-random plan over `n` processes with every window
    /// bounded by `horizon` — `quiescence_time()` is always finite.
    ///
    /// The generator is the same splitmix64 stream as
    /// [`LinkFaultPlan::random_plan`](crate::LinkFaultPlan::random_plan):
    /// identical inputs produce identical plans on every platform.
    pub fn random_plan(n: usize, seed: u64, horizon: Time) -> AdversaryPlan {
        let mut state = seed;
        let mut next = || splitmix64(&mut state);
        let mut b = Self::builder(n);
        let windows = 1 + (next() % 4) as usize;
        for _ in 0..windows {
            let src = ProcessId((next() % n as u64) as u32);
            let dst = ProcessId((next() % n as u64) as u32);
            let kind = MutationKind::ALL[(next() % MutationKind::ALL.len() as u64) as usize];
            let action = Mutation { kind, x: 1 + next() % 64 };
            let stride = 1 + next() % 4;
            let offset = next() % stride;
            let from = Time(next() % horizon.0.max(1));
            let until = Some(Time((from.0 + 1 + next() % horizon.0.max(1)).min(horizon.0)));
            b = b.window(LinkWindow { src, dst, action, stride, offset, from, until });
        }
        b.build()
    }
}

impl AdversaryPlanBuilder {
    /// Applies `kind` (parameter `x`) to **every** send on `src -> dst`
    /// during `[from, until)`.
    pub fn every(
        self,
        src: ProcessId,
        dst: ProcessId,
        kind: MutationKind,
        x: u64,
        from: Time,
        until: Option<Time>,
    ) -> Self {
        let action = Mutation { kind, x };
        self.window(LinkWindow { src, dst, action, stride: 1, offset: 0, from, until })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERTURB_9: Mutation = Mutation { kind: MutationKind::Perturb, x: 9 };
    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn honest_plan_never_acts() {
        let plan = AdversaryPlan::honest(3);
        assert!(plan.is_honest());
        assert_eq!(plan.quiescence_time(), Some(Time::ZERO));
        for k in 0..10 {
            assert_eq!(plan.action(ProcessId(0), ProcessId(2), Time(k), k), None);
        }
    }

    #[test]
    fn window_is_time_and_counter_selective() {
        let plan = AdversaryPlan::builder(2)
            .window(MutationWindow {
                src: ProcessId(0),
                dst: ProcessId(1),
                action: PERTURB_9,
                stride: 3,
                offset: 1,
                from: Time(10),
                until: Some(Time(20)),
            })
            .build();
        let f = |t, k| plan.action(ProcessId(0), ProcessId(1), Time(t), k);
        assert_eq!(f(10, 1), Some(PERTURB_9));
        assert_eq!(f(19, 4), Some(PERTURB_9));
        assert_eq!(f(15, 0), None);
        assert_eq!(f(9, 1), None);
        assert_eq!(f(20, 1), None);
        assert_eq!(plan.action(ProcessId(1), ProcessId(0), Time(15), 1), None);
    }

    #[test]
    fn first_matching_window_wins() {
        let plan = AdversaryPlan::builder(2)
            .every(P0, P1, MutationKind::Flip, 0, Time(0), None)
            .every(P0, P1, MutationKind::Perturb, 3, Time(0), None)
            .build();
        let flip = Mutation { kind: MutationKind::Flip, x: 0 };
        assert_eq!(plan.action(P0, P1, Time(0), 0), Some(flip));
    }

    #[test]
    fn quiescence_is_the_max_close_time() {
        let plan = AdversaryPlan::builder(3)
            .every(P0, P1, MutationKind::Perturb, 1, Time(0), Some(Time(30)))
            .every(P1, ProcessId(2), MutationKind::Replay, 0, Time(10), Some(Time(50)))
            .build();
        assert_eq!(plan.quiescence_time(), Some(Time(50)));
        let open =
            AdversaryPlan::builder(2).every(P0, P1, MutationKind::Flip, 0, Time(0), None).build();
        assert_eq!(open.quiescence_time(), None);
    }

    #[test]
    fn random_plan_is_deterministic_and_bounded() {
        let a = AdversaryPlan::random_plan(4, 42, Time(500));
        let b = AdversaryPlan::random_plan(4, 42, Time(500));
        assert_eq!(a, b);
        let c = AdversaryPlan::random_plan(4, 43, Time(500));
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(!a.windows().is_empty());
        let q = a.quiescence_time().expect("random plans always quiesce");
        assert!(q <= Time(500), "windows bounded by the horizon, got {q:?}");
    }

    #[test]
    fn armor_ladder_defeats_each_class_at_its_rung() {
        use AttackClass::*;
        assert!(!Armor::NONE.defeats(SenderForgery));
        assert!(Armor::SENDER_ID.defeats(SenderForgery));
        assert!(!Armor::SENDER_ID.defeats(Tamper));
        assert!(Armor::DIGEST.defeats(Tamper));
        assert!(!Armor::DIGEST.defeats(Replay));
        assert!(!Armor::DIGEST.defeats(AckForgery));
        assert!(!Armor::DIGEST.defeats(Equivocation));
        for class in [Tamper, Replay, SenderForgery, AckForgery, Equivocation] {
            assert!(Armor::PROVENANCE.defeats(class), "{class:?}");
        }
        assert_eq!(Armor::level(9), Armor::MAX, "levels clamp to the ladder");
    }

    #[test]
    fn names_round_trip() {
        for kind in MutationKind::ALL {
            assert_eq!(MutationKind::from_name(kind.name()), Some(kind));
        }
        for kind in AttackKind::ALL {
            assert_eq!(AttackKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(MutationKind::from_name("bogus"), None);
        assert_eq!(AttackKind::from_name("bogus"), None);
    }

    #[test]
    fn debug_format_lists_windows() {
        let plan = AdversaryPlan::builder(2)
            .every(P0, P1, MutationKind::Perturb, 7, Time(3), Some(Time(9)))
            .build();
        let s = format!("{plan:?}");
        assert!(s.contains("perturb p0→p1"), "{s}");
        assert!(s.contains("x=7"), "{s}");
        assert!(s.contains("t3"), "{s}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ =
            AdversaryPlan::builder(2).every(P0, P1, MutationKind::Flip, 0, Time(5), Some(Time(5)));
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn offset_out_of_stride_rejected() {
        let _ = AdversaryPlan::builder(2).window(MutationWindow {
            src: P0,
            dst: P1,
            action: Mutation { kind: MutationKind::Flip, x: 0 },
            stride: 2,
            offset: 2,
            from: Time(0),
            until: None,
        });
    }
}
