//! Candidate algorithms for the impossibility harnesses.
//!
//! An impossibility proof quantifies over *all* algorithms; its executable
//! counterpart is a *construction* that defeats any algorithm it is
//! handed. This module supplies the natural strategies someone would
//! actually try, so the adversaries of Lemmas 7, 11 and 15 have concrete
//! prey. Each candidate is honest: it satisfies the obvious sanity
//! properties (well-formed outputs, solo termination) — the adversary
//! breaks it on the *subtle* property, exactly where the proof says every
//! algorithm must break.

use sih_model::{FdOutput, ProcessId, ProcessSet, Value};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};

/// Candidate `Σ_{p,q}`-from-`σ` emulation #1: **mirror** — output `σ`'s
/// trusted set when it is nonempty, otherwise trust the whole pair.
///
/// Plausible because every output intersects every other within one run
/// (nonempty σ outputs pairwise intersect; `{p,q}` contains everything).
/// Lemma 7's two-run construction still defeats it.
#[derive(Clone, Debug)]
pub struct MirrorPairCandidate {
    pair: ProcessSet,
}

impl MirrorPairCandidate {
    /// The candidate for pair `{p, q}`.
    pub fn new(p: ProcessId, q: ProcessId) -> Self {
        assert_ne!(p, q);
        MirrorPairCandidate { pair: ProcessSet::from_iter([p, q]) }
    }
}

impl Automaton for MirrorPairCandidate {
    type Msg = ();

    fn step(&mut self, input: StepInput<()>, eff: &mut Effects<()>) {
        if !self.pair.contains(input.me) {
            eff.set_output(FdOutput::Bot);
            return;
        }
        match input.fd.trust() {
            Some(s) if !s.is_empty() => eff.set_output(FdOutput::Trust(s)),
            _ => eff.set_output(FdOutput::Trust(self.pair)),
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.pair);
    }
}

/// Candidate `Σ_{p,q}`-from-`σ` emulation #2: **gossip** — the pair
/// members ping every process and trust `{self} ∪ {any process heard from
/// recently}`, shrinking to `{self}` when `σ` says `{self}`.
///
/// Plausible because it reacts to real communication. The completeness
/// deadline of Lemma 7's run `r` forces it to drop `q` after enough
/// silence, after which run `r′` breaks intersection.
#[derive(Clone, Debug)]
pub struct GossipPairCandidate {
    pair: ProcessSet,
    heard: ProcessSet,
    pings: u64,
    silence: u64,
    /// Rounds of silence after which a pair member stops trusting the
    /// processes it has not heard from.
    patience: u64,
}

/// Messages of [`GossipPairCandidate`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum GossipMsg {
    /// "Anyone there?"
    Ping,
    /// "I am."
    Pong,
}

impl StateHash for GossipMsg {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(match self {
            GossipMsg::Ping => 0,
            GossipMsg::Pong => 1,
        });
    }
}

impl GossipPairCandidate {
    /// The candidate for pair `{p, q}` with the given patience.
    pub fn new(p: ProcessId, q: ProcessId, patience: u64) -> Self {
        assert_ne!(p, q);
        GossipPairCandidate {
            pair: ProcessSet::from_iter([p, q]),
            heard: ProcessSet::EMPTY,
            pings: 0,
            silence: 0,
            patience,
        }
    }
}

impl Automaton for GossipPairCandidate {
    type Msg = GossipMsg;

    fn step(&mut self, input: StepInput<GossipMsg>, eff: &mut Effects<GossipMsg>) {
        if let Some(env) = &input.delivered {
            match env.payload {
                GossipMsg::Ping => eff.send(env.from, GossipMsg::Pong),
                GossipMsg::Pong => {
                    self.heard.insert(env.from);
                    self.silence = 0;
                }
            }
        }
        if !self.pair.contains(input.me) {
            eff.set_output(FdOutput::Bot);
            return;
        }
        self.pings += 1;
        self.silence += 1;
        eff.send_others(input.n, input.me, GossipMsg::Ping);
        let trusted = if self.silence <= self.patience {
            // While responses keep coming, trust ourselves plus everyone
            // heard from.
            ProcessSet::singleton(input.me).union(self.heard)
        } else {
            // Long silence: fall back on σ's word if it says anything,
            // else conclude we are alone.
            match input.fd.trust() {
                Some(s) if !s.is_empty() => s,
                _ => ProcessSet::singleton(input.me),
            }
        };
        eff.set_output(FdOutput::Trust(trusted));
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.pair);
        h.write(&self.heard);
        h.write(&self.pings);
        h.write(&self.silence);
        h.write(&self.patience);
    }
}

/// Candidate `Σ_X`-from-`σ_|X|` emulation (Lemma 11 prey): mirror the
/// `(X', A)` trust component when nonempty, else trust all of `X`.
#[derive(Clone, Debug)]
pub struct MirrorXCandidate {
    x: ProcessSet,
}

impl MirrorXCandidate {
    /// The candidate for subset `X`.
    pub fn new(x: ProcessSet) -> Self {
        assert!(x.len() >= 2);
        MirrorXCandidate { x }
    }
}

impl Automaton for MirrorXCandidate {
    type Msg = ();

    fn step(&mut self, input: StepInput<()>, eff: &mut Effects<()>) {
        if !self.x.contains(input.me) {
            eff.set_output(FdOutput::Bot);
            return;
        }
        match input.fd.trust() {
            Some(s) if !s.is_empty() => eff.set_output(FdOutput::Trust(s)),
            _ => eff.set_output(FdOutput::Trust(self.x)),
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.x);
    }
}

/// Candidate set-agreement-from-`anti-Ω` algorithm (Lemma 15 prey):
/// broadcast the initial value; wait until either (a) some other
/// process's value arrives — decide the smaller of the two — or (b) the
/// detector has named some process `patience` times — conclude we may be
/// alone and decide our own value.
///
/// Plausible because in runs with crashes `anti-Ω` keeps naming *someone*
/// and solo processes must not wait forever. The chain construction of
/// Lemma 15 exploits exactly that solo path `n` times.
#[derive(Clone, Debug)]
pub struct AntiOmegaAgreementCandidate {
    v: Value,
    named: Vec<u64>,
    best_other: Option<Value>,
    sent: bool,
    done: bool,
    /// How many times one id must be named before the solo path fires.
    patience: u64,
}

impl AntiOmegaAgreementCandidate {
    /// A process proposing `v` in a system of `n` processes.
    pub fn new(v: Value, n: usize, patience: u64) -> Self {
        assert!(patience >= 1);
        AntiOmegaAgreementCandidate {
            v,
            named: vec![0; n],
            best_other: None,
            sent: false,
            done: false,
            patience,
        }
    }

    /// Builds the `n` candidates for the given proposals.
    pub fn processes(proposals: &[Value], patience: u64) -> Vec<Self> {
        let n = proposals.len();
        proposals.iter().map(|&v| Self::new(v, n, patience)).collect()
    }
}

// sih-analysis: allow(index-reachable) — heard is an n-sized array indexed by sender ids the
// simulator already validated.
impl Automaton for AntiOmegaAgreementCandidate {
    type Msg = Value;

    fn step(&mut self, input: StepInput<Value>, eff: &mut Effects<Value>) {
        if self.done {
            return;
        }
        if !self.sent {
            self.sent = true;
            eff.send_others(input.n, input.me, self.v);
        }
        if let Some(env) = &input.delivered {
            let w = env.payload;
            if self.best_other.is_none_or(|b| w < b) {
                self.best_other = Some(w);
            }
        }
        if let Some(w) = self.best_other {
            self.done = true;
            eff.decide(w.min(self.v));
            eff.halt();
            return;
        }
        if let Some(named) = input.fd.leader() {
            let c = &mut self.named[named.index()];
            *c += 1;
            if *c >= self.patience {
                // The detector keeps naming someone and nobody has spoken:
                // assume we are alone.
                self.done = true;
                eff.decide(self.v);
                eff.halt();
            }
        }
    }

    fn halted(&self) -> bool {
        self.done
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.v);
        h.write(&self.named);
        h.write(&self.best_other);
        h.write(&self.sent);
        h.write(&self.done);
        h.write(&self.patience);
    }
}

/// Candidate set-agreement-from-`anti-Ω` algorithm #2 (Lemma 15 prey):
/// decide own value once **our own id** has gone unnamed for `patience`
/// consecutive queries ("if I were crashed, the detector could name me
/// forever; since it stopped, someone is watching over me — I may be the
/// one who must carry on alone"). Smarter-looking than counting an
/// arbitrary id, and defeated by exactly the same chain: the adversary's
/// history simply never names the solo process.
#[derive(Clone, Debug)]
pub struct SelfQuietCandidate {
    v: Value,
    quiet: u64,
    best_other: Option<Value>,
    sent: bool,
    done: bool,
    patience: u64,
}

impl SelfQuietCandidate {
    /// A process proposing `v` with the given patience.
    pub fn new(v: Value, patience: u64) -> Self {
        assert!(patience >= 1);
        SelfQuietCandidate { v, quiet: 0, best_other: None, sent: false, done: false, patience }
    }

    /// Builds the `n` candidates for the given proposals.
    pub fn processes(proposals: &[Value], patience: u64) -> Vec<Self> {
        proposals.iter().map(|&v| Self::new(v, patience)).collect()
    }
}

impl Automaton for SelfQuietCandidate {
    type Msg = Value;

    fn step(&mut self, input: StepInput<Value>, eff: &mut Effects<Value>) {
        if self.done {
            return;
        }
        if !self.sent {
            self.sent = true;
            eff.send_others(input.n, input.me, self.v);
        }
        if let Some(env) = &input.delivered {
            let w = env.payload;
            if self.best_other.is_none_or(|b| w < b) {
                self.best_other = Some(w);
            }
        }
        if let Some(w) = self.best_other {
            self.done = true;
            eff.decide(w.min(self.v));
            eff.halt();
            return;
        }
        if let Some(named) = input.fd.leader() {
            if named == input.me {
                self.quiet = 0;
            } else {
                self.quiet += 1;
                if self.quiet >= self.patience {
                    self.done = true;
                    eff.decide(self.v);
                    eff.halt();
                }
            }
        }
    }

    fn halted(&self) -> bool {
        self.done
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.v);
        h.write(&self.quiet);
        h.write(&self.best_other);
        h.write(&self.sent);
        h.write(&self.done);
        h.write(&self.patience);
    }
}

/// Candidate `(n−(k+1))`-set agreement from `Σ_X` (Theorem 13 prey):
/// processes outside `X` decide their own value immediately (they get no
/// failure information); members of `X` broadcast their value and decide
/// the minimum value received from some currently trusted set.
///
/// Plausible because trusted sets pairwise intersect; the Theorem 13
/// transform plus an adversarial (but legal) star-shaped `Σ` history
/// shows the `X`-side still produces more than `k` distinct decisions.
#[derive(Clone, Debug)]
pub struct QuorumMinXCandidate {
    x: ProcessSet,
    v: Value,
    received: Vec<Option<Value>>,
    sent: bool,
    done: bool,
}

impl QuorumMinXCandidate {
    /// A process proposing `v` in a system of `n` processes, for subset
    /// `X`.
    pub fn new(x: ProcessSet, v: Value, n: usize) -> Self {
        QuorumMinXCandidate { x, v, received: vec![None; n], sent: false, done: false }
    }

    /// Builds the `n` candidates for the given proposals.
    pub fn processes(x: ProcessSet, proposals: &[Value]) -> Vec<Self> {
        let n = proposals.len();
        proposals.iter().map(|&v| Self::new(x, v, n)).collect()
    }
}

// sih-analysis: allow(index-reachable) — vals is an n-sized array indexed by ProcessIds from
// the trusted quorum, all < n by the detector's construction.
impl Automaton for QuorumMinXCandidate {
    type Msg = (ProcessId, Value);

    fn step(
        &mut self,
        input: StepInput<(ProcessId, Value)>,
        eff: &mut Effects<(ProcessId, Value)>,
    ) {
        if self.done {
            return;
        }
        if !self.x.contains(input.me) {
            // No failure information outside X: decide own value at once.
            self.done = true;
            eff.decide(self.v);
            eff.halt();
            return;
        }
        if !self.sent {
            self.sent = true;
            eff.send_all(input.n, (input.me, self.v));
            self.received[input.me.index()] = Some(self.v);
        }
        if let Some(env) = &input.delivered {
            let (p, w) = env.payload;
            self.received[p.index()] = Some(w);
        }
        if let Some(trusted) = input.fd.trust() {
            // Values from outside X never come; wait on the X-side of the
            // trusted set.
            let wait_set = trusted.intersection(self.x);
            if !wait_set.is_empty() {
                let vals: Vec<Value> =
                    wait_set.iter().filter_map(|p| self.received[p.index()]).collect();
                if vals.len() == wait_set.len() {
                    self.done = true;
                    let w = vals.into_iter().min().expect("invariant: wait_set is nonempty here");
                    eff.decide(w);
                    eff.halt();
                }
            }
        }
    }

    fn halted(&self) -> bool {
        self.done
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.x);
        h.write(&self.v);
        h.write(&self.received);
        h.write(&self.sent);
        h.write(&self.done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_detectors::AntiOmega;
    use sih_model::{FailurePattern, NoDetector};
    use sih_runtime::{FairScheduler, Simulation};

    #[test]
    fn mirror_pair_outputs_shapes() {
        let mut c = MirrorPairCandidate::new(ProcessId(0), ProcessId(1));
        let mut eff = Effects::new();
        c.step(
            StepInput {
                me: ProcessId(0),
                n: 3,
                now: sih_model::Time(1),
                delivered: None,
                fd: FdOutput::EMPTY_TRUST,
            },
            &mut eff,
        );
        assert_eq!(
            eff.emulated(),
            Some(FdOutput::Trust(ProcessSet::from_iter([0, 1].map(ProcessId))))
        );
    }

    #[test]
    fn anti_omega_candidate_terminates_solo() {
        // Solo run: only p0 correct; a legal anti-Ω history for that
        // pattern must eventually stop naming p0, so the patience counter
        // fires on some other id.
        let f = FailurePattern::crashed_from_start(3, ProcessSet::from_iter([1, 2].map(ProcessId)));
        let d = AntiOmega::new(&f, 3);
        let procs = AntiOmegaAgreementCandidate::processes(&[Value(10), Value(20), Value(30)], 4);
        let mut sim = Simulation::new(procs, f.clone());
        let mut sched = FairScheduler::new(1);
        sim.run(&mut sched, &d, 10_000);
        assert_eq!(sim.trace().decision_of(ProcessId(0)), Some(Value(10)));
    }

    #[test]
    fn anti_omega_candidate_agrees_when_talking() {
        // All correct and messages flowing: everyone decides the minimum
        // value they exchange — well within (n−1)-set agreement.
        for seed in 0..5 {
            let f = FailurePattern::all_correct(4);
            let d = AntiOmega::new(&f, seed);
            let procs = AntiOmegaAgreementCandidate::processes(
                &[Value(4), Value(3), Value(2), Value(1)],
                // Patient enough that messages win the race.
                1_000,
            );
            let mut sim = Simulation::new(procs, f.clone());
            let mut sched = FairScheduler::new(seed);
            sim.run(&mut sched, &d, 50_000);
            let distinct = sim.trace().distinct_decisions();
            assert!(distinct.len() <= 3, "seed {seed}: {distinct:?}");
        }
    }

    #[test]
    fn gossip_candidate_answers_pings() {
        let mut c = GossipPairCandidate::new(ProcessId(0), ProcessId(1), 8);
        let mut eff = Effects::new();
        c.step(
            StepInput {
                me: ProcessId(2),
                n: 3,
                now: sih_model::Time(1),
                delivered: Some(sih_runtime::Envelope {
                    id: sih_runtime::MsgId(0),
                    from: ProcessId(0),
                    to: ProcessId(2),
                    sent_at: sih_model::Time(0),
                    payload: GossipMsg::Ping,
                }),
                fd: FdOutput::Bot,
            },
            &mut eff,
        );
        assert!(eff.sends().any(|(to, m)| to == ProcessId(0) && *m == GossipMsg::Pong));
        assert_eq!(eff.emulated(), Some(FdOutput::Bot));
        let _ = NoDetector;
    }

    #[test]
    fn mirror_x_defaults_to_x() {
        let x = ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId));
        let mut c = MirrorXCandidate::new(x);
        let mut eff = Effects::new();
        c.step(
            StepInput {
                me: ProcessId(1),
                n: 6,
                now: sih_model::Time(1),
                delivered: None,
                fd: FdOutput::TrustActive { trust: ProcessSet::EMPTY, active: x },
            },
            &mut eff,
        );
        assert_eq!(eff.emulated(), Some(FdOutput::Trust(x)));
    }
}
