//! Byzantine behaviors for the agreement workloads: the [`Corruptible`]
//! mutation algebra over [`Fig2Msg`]/[`Fig4Msg`], and the scripted
//! *equivocating proposer* attack ([`Equivocator`]).
//!
//! The paper's model assumes authenticated crash-prone processes —
//! everything here is deliberately **outside** that model. The mutation
//! impls define what the network-level adversary
//! ([`sih_model::AdversaryPlan`] installed via `Network::set_adversary`)
//! can do to an in-flight agreement message; the [`Equivocator`] wrapper
//! is a *process-level* attack the network adversary cannot express (it
//! needs to send coherent but conflicting values to different peers in
//! one fan-out).
//!
//! Armor semantics are oracle-style: an armor rung that
//! [defeats](sih_model::Armor::defeats) an attack class models the honest
//! receivers validating and discarding the forged/tampered message — so
//! the defeated attack is simply never emitted and the message flows
//! exactly as in the honest run. See DESIGN.md §"Adversary model".

use crate::fig2::Fig2Msg;
use crate::fig4::Fig4Msg;
use sih_model::{Armor, AttackClass, AttackKind, AttackSpec, MutationKind, Value};
use sih_runtime::{Automaton, Corruptible, Effects, StepInput};

impl Corruptible for Fig2Msg {
    /// * `Flip` — flips the message *tag*: a Phase 1 announcement becomes
    ///   a flooded decision (and vice versa), a non-⊥ Phase 2 echo
    ///   becomes a decision. A ⊥ echo has no value to promote and
    ///   crosses untouched.
    /// * `Perturb` — shifts the carried value by `x` (a value never
    ///   proposed, so validity is attackable).
    /// * `ForgeAck` — agreement has no quorum acks; inert.
    fn corrupt(&self, kind: MutationKind, x: u64) -> Option<Self> {
        match kind {
            MutationKind::Flip => match *self {
                Fig2Msg::Decision(v) => Some(Fig2Msg::Phase1(v)),
                Fig2Msg::Phase1(v) => Some(Fig2Msg::Decision(v)),
                Fig2Msg::Phase2(Some(v)) => Some(Fig2Msg::Decision(v)),
                Fig2Msg::Phase2(None) => None,
            },
            MutationKind::Perturb => match *self {
                Fig2Msg::Decision(v) => Some(Fig2Msg::Decision(Value(v.0.wrapping_add(x)))),
                Fig2Msg::Phase1(v) => Some(Fig2Msg::Phase1(Value(v.0.wrapping_add(x)))),
                Fig2Msg::Phase2(w) => w.map(|v| Fig2Msg::Phase2(Some(Value(v.0.wrapping_add(x))))),
            },
            MutationKind::ForgeAck | MutationKind::Replay | MutationKind::ForgeSender => None,
        }
    }
}

impl Corruptible for Fig4Msg {
    /// * `Flip` — strips the relay tag: a `(v, q)` relay becomes a bare
    ///   decision flood (the relay-once dedup never sees it).
    /// * `Perturb` — shifts the carried value by `x`.
    /// * `ForgeAck` — no quorum acks; inert.
    fn corrupt(&self, kind: MutationKind, x: u64) -> Option<Self> {
        match kind {
            MutationKind::Flip => match *self {
                Fig4Msg::Tagged(v, _) => Some(Fig4Msg::Decision(v)),
                Fig4Msg::Decision(_) => None,
            },
            MutationKind::Perturb => match *self {
                Fig4Msg::Decision(v) => Some(Fig4Msg::Decision(Value(v.0.wrapping_add(x)))),
                Fig4Msg::Tagged(v, q) => Some(Fig4Msg::Tagged(Value(v.0.wrapping_add(x)), q)),
            },
            MutationKind::ForgeAck | MutationKind::Replay | MutationKind::ForgeSender => None,
        }
    }
}

/// The scripted *equivocating proposer* attack on Figure 2: one process
/// runs the honest algorithm but, on every fan-out, tells odd-numbered
/// peers a different story — each carried value is replaced by the
/// attacker's value `x`. Two decision floods with different values, or a
/// split Phase 1 announcement, directly attack agreement and validity.
///
/// All processes are wrapped (so the type is uniform across the system);
/// only the one constructed with `active = true` misbehaves. An armor
/// rung defeating [`AttackClass::Equivocation`] neutralizes the attack:
/// the wrapper emits the honest sends untouched, making the run
/// bit-identical to an unwrapped one.
#[derive(Clone)]
pub struct Equivocator<A> {
    inner: A,
    active: bool,
    x: u64,
    defeated: bool,
}

/// Debug forwards to the wrapped automaton: the wrapper's own fields are
/// plan-derived configuration, not run state, and explorer/differential
/// fingerprints hash automata through Debug — an inactive or defeated
/// wrapper must fingerprint identically to the honest process it shims.
impl<A: std::fmt::Debug> std::fmt::Debug for Equivocator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<A> Equivocator<A> {
    /// Wraps `inner`; the attacker equivocates with value `x` unless
    /// `armor` defeats equivocation.
    pub fn new(inner: A, active: bool, x: u64, armor: Armor) -> Self {
        Equivocator { inner, active, x, defeated: armor.defeats(AttackClass::Equivocation) }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

/// How the equivocator rewrites a payload for an odd-numbered peer.
fn equivocate(m: Fig2Msg, x: u64) -> Fig2Msg {
    match m {
        Fig2Msg::Decision(_) => Fig2Msg::Decision(Value(x)),
        Fig2Msg::Phase1(_) => Fig2Msg::Phase1(Value(x)),
        Fig2Msg::Phase2(w) => Fig2Msg::Phase2(w.map(|_| Value(x))),
    }
}

impl<A: Automaton<Msg = Fig2Msg>> Automaton for Equivocator<A> {
    type Msg = Fig2Msg;

    fn step(&mut self, input: StepInput<Fig2Msg>, eff: &mut Effects<Fig2Msg>) {
        self.inner.step(input, eff);
        if self.active && !self.defeated && eff.send_count() > 0 {
            // Re-emit per recipient: odd peers get the attacker's story.
            let sends = eff.take_sends();
            for (to, m) in sends {
                let m = if to.0 % 2 == 1 { equivocate(m, self.x) } else { m };
                eff.send(to, m);
            }
        }
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }
}

/// Wraps a whole system. Process `attacker` equivocates with the
/// attack's value iff `attack` is an [`AttackKind::Equivocate`] spec
/// (subject to `armor`); with any other attack, or none, every wrapper is
/// an inert shim.
pub fn equivocator_processes<A: Automaton<Msg = Fig2Msg>>(
    procs: Vec<A>,
    attacker: sih_model::ProcessId,
    attack: Option<AttackSpec>,
    armor: Armor,
) -> Vec<Equivocator<A>> {
    let equivocating = matches!(attack, Some(AttackSpec { kind: AttackKind::Equivocate, .. }));
    let x = attack.map_or(0, |a| a.x);
    procs
        .into_iter()
        .enumerate()
        .map(|(i, a)| Equivocator::new(a, equivocating && i == attacker.index(), x, armor))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig2::fig2_processes;
    use sih_model::ProcessId;

    #[test]
    fn fig2_flip_promotes_announcements_to_decisions() {
        let m = Fig2Msg::Phase1(Value(3));
        assert_eq!(m.corrupt(MutationKind::Flip, 0), Some(Fig2Msg::Decision(Value(3))));
        assert_eq!(Fig2Msg::Phase2(None).corrupt(MutationKind::Flip, 0), None);
    }

    #[test]
    fn fig2_perturb_shifts_values() {
        let m = Fig2Msg::Decision(Value(3));
        assert_eq!(m.corrupt(MutationKind::Perturb, 10), Some(Fig2Msg::Decision(Value(13))));
        assert_eq!(Fig2Msg::Decision(Value(3)).corrupt(MutationKind::ForgeAck, 10), None);
    }

    #[test]
    fn fig4_flip_strips_the_relay_tag() {
        let m = Fig4Msg::Tagged(Value(5), ProcessId(2));
        assert_eq!(m.corrupt(MutationKind::Flip, 0), Some(Fig4Msg::Decision(Value(5))));
        assert_eq!(Fig4Msg::Decision(Value(5)).corrupt(MutationKind::Flip, 0), None);
    }

    const EQUIVOCATE: Option<AttackSpec> = Some(AttackSpec { kind: AttackKind::Equivocate, x: 99 });

    #[test]
    fn armor_defeats_the_equivocator() {
        let honest = fig2_processes(&[Value(1), Value(2), Value(3)]);
        let wrapped = equivocator_processes(honest, ProcessId(0), EQUIVOCATE, Armor::PROVENANCE);
        assert!(wrapped.iter().all(|w| w.defeated));
        let honest = fig2_processes(&[Value(1), Value(2), Value(3)]);
        let wrapped = equivocator_processes(honest, ProcessId(0), EQUIVOCATE, Armor::NONE);
        assert!(wrapped[0].active && !wrapped[0].defeated);
        assert!(!wrapped[1].active);
    }

    #[test]
    fn equivocate_rewrites_every_tag() {
        assert_eq!(equivocate(Fig2Msg::Decision(Value(1)), 9), Fig2Msg::Decision(Value(9)));
        assert_eq!(equivocate(Fig2Msg::Phase2(None), 9), Fig2Msg::Phase2(None));
        assert_eq!(equivocate(Fig2Msg::Phase2(Some(Value(1))), 9), Fig2Msg::Phase2(Some(Value(9))));
    }
}
