//! Byzantine behaviors for the register workloads: the [`Corruptible`]
//! mutation algebra over [`AbdMsg`], and the scripted *split-ack forger*
//! attack ([`SplitAckForger`]).
//!
//! ABD's correctness rests on quorum intersection over *truthful*
//! replica answers; both constructions here attack exactly that
//! assumption. The mutation impl defines what the network-level
//! adversary can fabricate in flight; the forger is a replica that
//! answers queries with a coherent but invented view — per *client*, so
//! two readers observe incompatible register histories.
//!
//! Armor is oracle-style, as in `sih-agreement::byzantine`: a rung that
//! defeats an attack class means the honest side validates and discards
//! the forgery, so the attack is never emitted at all.

use crate::abd::{AbdMsg, AbdRegister, Timestamp};
use sih_model::{Armor, AttackClass, AttackKind, AttackSpec, MutationKind, ProcessId, Value};
use sih_runtime::{Automaton, Corruptible, Effects, StateHasher, StepInput};

impl Corruptible for AbdMsg {
    /// * `Flip` — flips a message to the wrong *phase*: queries and
    ///   updates become bare phase-2 acks (starving the phase they
    ///   belonged to while feeding the other's quorum counter), a query
    ///   ack is demoted to an update ack. Update acks carry nothing
    ///   else and cross untouched.
    /// * `Perturb` — inflates the timestamp counter by `x` on any
    ///   timestamp-carrying message (a future that never happened).
    /// * `ForgeAck` — rewrites a query ack into a fabricated view: the
    ///   echoed tag is kept (so the client accepts it into its quorum)
    ///   but the timestamp and value are invented from `x`.
    fn corrupt(&self, kind: MutationKind, x: u64) -> Option<Self> {
        match kind {
            MutationKind::Flip => match *self {
                AbdMsg::Query { tag } => Some(AbdMsg::UpdateAck { tag }),
                AbdMsg::Update { tag, .. } => Some(AbdMsg::UpdateAck { tag }),
                AbdMsg::QueryAck { tag, .. } => Some(AbdMsg::UpdateAck { tag }),
                AbdMsg::UpdateAck { .. } => None,
            },
            MutationKind::Perturb => match *self {
                AbdMsg::QueryAck { tag, ts, v } => Some(AbdMsg::QueryAck {
                    tag,
                    ts: Timestamp { num: ts.num.wrapping_add(x), pid: ts.pid },
                    v,
                }),
                AbdMsg::Update { tag, ts, v } => Some(AbdMsg::Update {
                    tag,
                    ts: Timestamp { num: ts.num.wrapping_add(x), pid: ts.pid },
                    v,
                }),
                AbdMsg::Query { .. } | AbdMsg::UpdateAck { .. } => None,
            },
            MutationKind::ForgeAck => match *self {
                AbdMsg::QueryAck { tag, .. } => Some(AbdMsg::QueryAck {
                    tag,
                    ts: Timestamp { num: x, pid: 0 },
                    v: Some(Value(x)),
                }),
                _ => None,
            },
            MutationKind::Replay | MutationKind::ForgeSender => None,
        }
    }
}

/// The scripted *split-ack forger* attack on ABD: one replica runs the
/// honest protocol but answers queries from odd-numbered clients with a
/// fabricated view — timestamp `{num: x, pid: 0}` and value `x` instead
/// of its true replica state. Readers on opposite sides of the split can
/// then return values no linearization order explains.
///
/// All processes are wrapped (uniform system type); only the one
/// constructed with `active = true` forges. An armor rung defeating
/// [`AttackClass::AckForgery`] (ack-provenance checking) neutralizes the
/// attack entirely.
#[derive(Clone)]
pub struct SplitAckForger {
    inner: AbdRegister,
    active: bool,
    x: u64,
    defeated: bool,
}

/// Debug forwards to the wrapped register process: the wrapper's fields
/// are plan-derived configuration, not run state. `hash_state` forwards
/// the same way, so an inactive or defeated forger renders and
/// fingerprints identically to the honest process it shims.
impl std::fmt::Debug for SplitAckForger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl SplitAckForger {
    /// Wraps `inner`; the attacker forges acks parameterized by `x`
    /// unless `armor` defeats ack forgery.
    pub fn new(inner: AbdRegister, active: bool, x: u64, armor: Armor) -> Self {
        SplitAckForger { inner, active, x, defeated: armor.defeats(AttackClass::AckForgery) }
    }

    /// The wrapped register process.
    pub fn inner(&self) -> &AbdRegister {
        &self.inner
    }
}

impl Automaton for SplitAckForger {
    type Msg = AbdMsg;

    fn step(&mut self, input: StepInput<AbdMsg>, eff: &mut Effects<AbdMsg>) {
        self.inner.step(input, eff);
        if self.active && !self.defeated && eff.send_count() > 0 {
            let sends = eff.take_sends();
            for (to, m) in sends {
                let m = match m {
                    AbdMsg::QueryAck { tag, .. } if to.0 % 2 == 1 => AbdMsg::QueryAck {
                        tag,
                        ts: Timestamp { num: self.x, pid: 0 },
                        v: Some(Value(self.x)),
                    },
                    other => other,
                };
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

    /// Forwards, like `Debug`: an inactive or defeated forger hashes
    /// exactly as the honest replica it wraps.
    fn hash_state(&self, h: &mut StateHasher) {
        self.inner.hash_state(h);
    }
}

/// Wraps a whole ABD system. Process `attacker` forges split acks
/// parameterized by the attack's value iff `attack` is an
/// [`AttackKind::SplitAck`] spec (subject to `armor`); with any other
/// attack, or none, every wrapper is an inert shim.
pub fn split_ack_processes(
    procs: Vec<AbdRegister>,
    attacker: ProcessId,
    attack: Option<AttackSpec>,
    armor: Armor,
) -> Vec<SplitAckForger> {
    let forging = matches!(attack, Some(AttackSpec { kind: AttackKind::SplitAck, .. }));
    let x = attack.map_or(0, |a| a.x);
    procs
        .into_iter()
        .enumerate()
        .map(|(i, a)| SplitAckForger::new(a, forging && i == attacker.index(), x, armor))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forge_ack_fabricates_a_view_under_the_same_tag() {
        let m = AbdMsg::QueryAck { tag: 7, ts: Timestamp { num: 1, pid: 2 }, v: None };
        assert_eq!(
            m.corrupt(MutationKind::ForgeAck, 99),
            Some(AbdMsg::QueryAck {
                tag: 7,
                ts: Timestamp { num: 99, pid: 0 },
                v: Some(Value(99))
            })
        );
        assert_eq!(AbdMsg::Query { tag: 7 }.corrupt(MutationKind::ForgeAck, 99), None);
    }

    #[test]
    fn perturb_inflates_timestamps() {
        let m = AbdMsg::Update { tag: 3, ts: Timestamp { num: 5, pid: 1 }, v: Some(Value(4)) };
        assert_eq!(
            m.corrupt(MutationKind::Perturb, 10),
            Some(AbdMsg::Update { tag: 3, ts: Timestamp { num: 15, pid: 1 }, v: Some(Value(4)) })
        );
        assert_eq!(AbdMsg::UpdateAck { tag: 3 }.corrupt(MutationKind::Perturb, 10), None);
    }

    #[test]
    fn flip_crosses_phases() {
        assert_eq!(
            AbdMsg::Query { tag: 2 }.corrupt(MutationKind::Flip, 0),
            Some(AbdMsg::UpdateAck { tag: 2 })
        );
        assert_eq!(AbdMsg::UpdateAck { tag: 2 }.corrupt(MutationKind::Flip, 0), None);
    }

    const SPLIT_ACK: Option<AttackSpec> = Some(AttackSpec { kind: AttackKind::SplitAck, x: 42 });

    #[test]
    fn armor_defeats_the_forger() {
        use sih_model::{OpKind, ProcessSet};
        let s = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
        let procs = crate::abd::abd_processes(s, 3, vec![vec![OpKind::Read], vec![], vec![]]);
        let wrapped = split_ack_processes(procs, ProcessId(2), SPLIT_ACK, Armor::PROVENANCE);
        assert!(wrapped.iter().all(|w| w.defeated));
        let procs = crate::abd::abd_processes(s, 3, vec![vec![OpKind::Read], vec![], vec![]]);
        let wrapped = split_ack_processes(procs, ProcessId(2), SPLIT_ACK, Armor::DIGEST);
        assert!(wrapped[2].active && !wrapped[2].defeated);
    }
}
