//! Theorem 13, executable: the `B`-from-`A` simulation.
//!
//! The proof: if an algorithm `A` implemented `(n−(k+1))`-set agreement
//! using `Σ_X` (|X| = 2k+1) in the `n`-process system, then the
//! `(2k+1)`-process algorithm `B` — in which small-system process `i`
//! runs `A`'s code for the `i`-th member of `X`, messages to/from
//! outsiders are dropped/absent, and the small system's `Σ` plays the
//! role of `Σ_X` — would solve `k`-set agreement using `Σ`, contradicting
//! Theorem 12 (which reduces to the Saks–Zaharoglou / Herlihy–Shavit /
//! Borowsky–Gafni impossibility). Outsiders decide their own values in
//! some run (they have no failure information), so the `X`-side of `A`
//! may emit at most `n−k−1 − (n−2k−1) = k` distinct values — which is
//! what `B` would inherit.
//!
//! [`Theorem13Transform`] is the mechanical `B`-from-`A` wrapper;
//! [`theorem13_demo`] feeds it a natural candidate `A` and an adversarial
//! (but legal) star-shaped `Σ` history, exhibiting **more than `k`**
//! distinct decisions in the simulated system — the candidate fails
//! exactly where the theorem says every candidate must.

use sih_model::{FailurePattern, FdOutput, ProcessId, ProcessSet, RecordedHistory, Value};
use sih_runtime::{Automaton, Effects, FairScheduler, Simulation, StateHasher, StepInput};
use std::fmt;

/// The `B`-from-`A` wrapper: runs one big-system automaton (`A`'s code
/// for the big process `x_i`) inside the small `(2k+1)`-process system.
///
/// * the inner automaton is told its identity is `x_i` and the system
///   size is the big `n`;
/// * envelope addresses are translated small ↔ big; sends to processes
///   outside `X` are dropped (those processes are crashed in the
///   simulated big run);
/// * failure-detector outputs are translated memberwise small → big, so
///   the small system's `Σ` appears to the inner automaton as a `Σ_X`
///   history of the big system.
#[derive(Clone, Debug)]
pub struct Theorem13Transform<A: Automaton> {
    inner: A,
    members: Vec<ProcessId>,
    big_n: usize,
}

impl<A: Automaton> Theorem13Transform<A> {
    /// Wraps `inner` (the big-system automaton of the `small_index`-th
    /// member of `X`). `members` lists `X` in id order; `big_n` is the
    /// big system's size.
    pub fn new(inner: A, members: Vec<ProcessId>, big_n: usize) -> Self {
        assert!(!members.is_empty() && members.len() <= big_n);
        Theorem13Transform { inner, members, big_n }
    }

    // sih-analysis: allow(index-reachable) — members.len() == small n, checked in new().
    fn to_big(&self, small: ProcessId) -> ProcessId {
        self.members[small.index()]
    }

    fn to_small(&self, big: ProcessId) -> Option<ProcessId> {
        self.members.iter().position(|&m| m == big).map(|i| ProcessId(i as u32))
    }

    fn set_to_big(&self, s: ProcessSet) -> ProcessSet {
        s.iter().map(|p| self.to_big(p)).collect()
    }

    fn fd_to_big(&self, fd: FdOutput) -> FdOutput {
        match fd {
            FdOutput::Bot => FdOutput::Bot,
            FdOutput::Trust(s) => FdOutput::Trust(self.set_to_big(s)),
            FdOutput::TrustActive { trust, active } => FdOutput::TrustActive {
                trust: self.set_to_big(trust),
                active: self.set_to_big(active),
            },
            FdOutput::Leader(p) => FdOutput::Leader(self.to_big(p)),
        }
    }
}

impl<A: Automaton + fmt::Debug> Automaton for Theorem13Transform<A> {
    type Msg = A::Msg;

    fn step(&mut self, input: StepInput<A::Msg>, eff: &mut Effects<A::Msg>) {
        let delivered = input.delivered.map(|env| sih_runtime::Envelope {
            id: env.id,
            from: self.to_big(env.from),
            to: self.to_big(env.to),
            sent_at: env.sent_at,
            payload: env.payload,
        });
        let big_input = StepInput {
            me: self.to_big(input.me),
            n: self.big_n,
            now: input.now,
            delivered,
            fd: self.fd_to_big(input.fd),
        };
        let mut inner_eff = Effects::new();
        self.inner.step(big_input, &mut inner_eff);

        for (to_big, m) in inner_eff.take_sends() {
            if let Some(small) = self.to_small(to_big) {
                eff.send(small, m);
            }
            // Sends to outsiders are dropped: in the simulated big run
            // those processes are crashed from the start.
        }
        if let Some(v) = inner_eff.take_decision() {
            eff.decide(v);
        }
        if let Some(out) = inner_eff.take_emulated() {
            eff.set_output(out);
        }
        for ev in inner_eff.take_op_events() {
            match ev {
                sih_runtime::OpEvent::Invoke { id, kind } => eff.op_invoke(id, kind),
                sih_runtime::OpEvent::Return { id, kind, read_value } => {
                    eff.op_return(id, kind, read_value)
                }
            }
        }
        if inner_eff.halt_requested() || self.inner.halted() {
            eff.halt();
        }
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn hash_state(&self, h: &mut StateHasher) {
        self.inner.hash_state(h);
        h.write(&self.members);
        h.write(&self.big_n);
    }
}

/// Report of [`theorem13_demo`].
#[derive(Clone, Debug)]
pub struct Theorem13Report {
    /// The `k` of the claim (small system has `2k+1` processes).
    pub k: usize,
    /// Small-system size `2k+1`.
    pub m: usize,
    /// Distinct values decided by the simulated system `B`.
    pub distinct: Vec<Value>,
    /// Whether `B` violated `k`-set agreement (it must, for any real
    /// candidate — that is the theorem).
    pub violates_k_agreement: bool,
}

impl fmt::Display for Theorem13Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "B on {} processes decided {} distinct values (k = {}): {}",
            self.m,
            self.distinct.len(),
            self.k,
            if self.violates_k_agreement {
                "k-set agreement violated, as Theorem 13 predicts"
            } else {
                "no violation exhibited (increase adversity)"
            }
        )
    }
}

/// Runs the Theorem 13 demonstration: the quorum-min candidate `A` (see
/// [`QuorumMinXCandidate`]) for the big system of `n = 2k+3` processes
/// with `X = {p_0, …, p_2k}`, transformed into `B` on `2k+1` processes,
/// under the adversarial star `Σ` history (`T_i = {p_0, p_i}`, legal:
/// pairwise intersecting, all-correct pattern). The star forces each
/// small process to decide `min(v_0, v_i)`; with `v_0` largest that is
/// `v_i` — `2k+1 > k` distinct decisions.
///
/// [`QuorumMinXCandidate`]: crate::candidates::QuorumMinXCandidate
pub fn theorem13_demo(k: usize, seed: u64) -> Theorem13Report {
    assert!(k >= 1);
    let m = 2 * k + 1;
    let big_n = 2 * k + 3;
    let x: ProcessSet = (0..m as u32).map(ProcessId).collect();
    let members: Vec<ProcessId> = x.iter().collect();

    // Big-system proposals: v_0 (the star's center) is the largest so
    // min(v_0, v_i) = v_i.
    let mut proposals: Vec<Value> = (0..big_n as u64).map(Value).collect();
    proposals[0] = Value(1_000_000);

    let inner = crate::candidates::QuorumMinXCandidate::processes(x, &proposals);
    let small_procs: Vec<Theorem13Transform<_>> = inner
        .into_iter()
        .take(m)
        .map(|a| Theorem13Transform::new(a, members.clone(), big_n))
        .collect();

    // The star Σ history for the small system: T_i = {p_0, p_i}.
    let initials = (0..m as u32)
        .map(|i| FdOutput::Trust(ProcessSet::from_iter([ProcessId(0), ProcessId(i)])))
        .collect();
    let star = RecordedHistory::with_initials(initials).with_label("Σ star history");

    let pattern = FailurePattern::all_correct(m);
    let mut sim = Simulation::new(small_procs, pattern);
    let mut sched = FairScheduler::new(seed);
    sim.run(&mut sched, &star, 100_000);

    let distinct = sim.trace().distinct_decisions();
    Theorem13Report { k, m, violates_k_agreement: distinct.len() > k, distinct }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_detectors::check_sigma_s;

    #[test]
    fn demo_violates_k_set_agreement() {
        for k in [1usize, 2, 3] {
            for seed in 0..3 {
                let report = theorem13_demo(k, seed);
                assert!(report.violates_k_agreement, "k={k} seed={seed}: {report}");
                // The star forces every non-center process to decide its
                // own value: 2k+1 distinct in total... the center decides
                // min(v_0, v_0) = v_0? No: T_0 = {p_0}, it decides its own
                // (huge) value; others decide their own small values.
                assert_eq!(report.distinct.len(), report.m, "seed {seed}");
            }
        }
    }

    #[test]
    fn star_history_is_a_legal_sigma_history() {
        let m = 5;
        let initials = (0..m as u32)
            .map(|i| FdOutput::Trust(ProcessSet::from_iter([ProcessId(0), ProcessId(i)])))
            .collect();
        let star = RecordedHistory::with_initials(initials);
        let f = FailurePattern::all_correct(m);
        check_sigma_s(&star, &f, ProcessSet::full(m)).unwrap();
    }

    #[test]
    fn transform_translates_identities() {
        // A probe automaton that records what identity and fd it saw.
        #[derive(Clone, Debug, Default)]
        struct Probe {
            saw_me: Option<ProcessId>,
            saw_fd: Option<FdOutput>,
        }
        impl Automaton for Probe {
            type Msg = ();
            fn step(&mut self, input: StepInput<()>, _eff: &mut Effects<()>) {
                self.saw_me = Some(input.me);
                self.saw_fd = Some(input.fd);
            }
        }
        // X = {p2, p5, p7} in a big system of 9.
        let members = vec![ProcessId(2), ProcessId(5), ProcessId(7)];
        let mut t = Theorem13Transform::new(Probe::default(), members, 9);
        let mut eff = Effects::new();
        t.step(
            StepInput {
                me: ProcessId(1), // small id 1 ↦ big p5
                n: 3,
                now: sih_model::Time(1),
                delivered: None,
                fd: FdOutput::Trust(ProcessSet::from_iter([0, 1].map(ProcessId))),
            },
            &mut eff,
        );
        assert_eq!(t.inner.saw_me, Some(ProcessId(5)));
        assert_eq!(
            t.inner.saw_fd,
            Some(FdOutput::Trust(ProcessSet::from_iter([2, 5].map(ProcessId))))
        );
    }

    #[test]
    fn transform_drops_sends_to_outsiders() {
        #[derive(Clone, Debug)]
        struct Spammer;
        impl Automaton for Spammer {
            type Msg = u8;
            fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
                // Sends to every big process.
                eff.send_all(input.n, 1);
            }
        }
        let members = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
        let mut t = Theorem13Transform::new(Spammer, members, 6);
        let mut eff = Effects::new();
        t.step(
            StepInput {
                me: ProcessId(0),
                n: 3,
                now: sih_model::Time(1),
                delivered: None,
                fd: FdOutput::Bot,
            },
            &mut eff,
        );
        // Only the three members receive; the three outsiders are dropped.
        assert_eq!(eff.send_count(), 3);
        assert!(eff.sends().all(|(to, _)| to.index() < 3));
    }
}
