//! Baseline: consensus (1-set agreement) from `Ω` in majority-correct
//! environments — a single-decree Paxos with an `Ω`-driven proposer.
//!
//! This is **not** part of the paper's contribution; it is the classical
//! upper reference point for the cost study (`lab e16`): with the *strongest*
//! relevant failure information (`Ω`, plus implicit `Σ` via majority
//! quorums), the processes can agree on a *single* value, whereas the
//! paper's `σ` — much weaker information — still suffices to eliminate
//! one value (`(n−1)`-set agreement) but not to share a register. E16
//! compares steps and messages per decision across this spectrum.

use sih_model::{ProcessId, ProcessSet, Value};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};

/// Protocol messages of the Paxos baseline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PaxosMsg {
    /// Phase 1a: leader solicits promises for a ballot.
    Prepare {
        /// The solicited ballot.
        bal: u64,
    },
    /// Phase 1b: acceptor promises, reporting its last accepted pair.
    Promise {
        /// The promised ballot.
        bal: u64,
        /// The acceptor's last accepted `(ballot, value)`, if any.
        accepted: Option<(u64, Value)>,
    },
    /// Rejection carrying the acceptor's current promise.
    Nack {
        /// The acceptor's current promised ballot.
        bal: u64,
    },
    /// Phase 2a: leader proposes a value at a ballot.
    Accept {
        /// The proposing ballot.
        bal: u64,
        /// The proposed value.
        v: Value,
    },
    /// Phase 2b: acceptor accepted the proposal.
    Accepted {
        /// The accepted ballot.
        bal: u64,
    },
    /// Learned decision, flooded.
    Decided(Value),
}

impl StateHash for PaxosMsg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            PaxosMsg::Prepare { bal } => {
                h.write_u64(0);
                h.write(bal);
            }
            PaxosMsg::Promise { bal, accepted } => {
                h.write_u64(1);
                h.write(bal);
                h.write(accepted);
            }
            PaxosMsg::Nack { bal } => {
                h.write_u64(2);
                h.write(bal);
            }
            PaxosMsg::Accept { bal, v } => {
                h.write_u64(3);
                h.write(bal);
                h.write(v);
            }
            PaxosMsg::Accepted { bal } => {
                h.write_u64(4);
                h.write(bal);
            }
            PaxosMsg::Decided(w) => {
                h.write_u64(5);
                h.write(w);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProposerPhase {
    Idle,
    AwaitPromises,
    AwaitAccepts,
}

/// One process of the Paxos baseline (proposer + acceptor + learner).
#[derive(Clone, Debug)]
pub struct PaxosConsensus {
    v: Value,
    n: usize,
    // Acceptor state.
    promised: u64,
    accepted: Option<(u64, Value)>,
    // Proposer state.
    phase: ProposerPhase,
    ballot: u64,
    attempt: u64,
    promises: Vec<Option<(u64, Value)>>,
    promisers: ProcessSet,
    acceptors: ProcessSet,
    proposal: Value,
    // Learner state.
    decided: Option<Value>,
    done: bool,
}

impl PaxosConsensus {
    /// A process proposing `v` in a system of `n` processes.
    pub fn new(v: Value, n: usize) -> Self {
        PaxosConsensus {
            v,
            n,
            promised: 0,
            accepted: None,
            phase: ProposerPhase::Idle,
            ballot: 0,
            attempt: 0,
            promises: Vec::new(),
            promisers: ProcessSet::EMPTY,
            acceptors: ProcessSet::EMPTY,
            proposal: v,
            decided: None,
            done: false,
        }
    }

    /// The decision, once taken.
    pub fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Ballots are unique per (attempt, proposer): `attempt·n + me + 1`.
    fn next_ballot(&mut self, me: ProcessId) -> u64 {
        self.attempt += 1;
        self.attempt * self.n as u64 + u64::from(me.0) + 1
    }

    fn decide_and_return(&mut self, w: Value, eff: &mut Effects<PaxosMsg>) {
        eff.send_all(self.n, PaxosMsg::Decided(w));
        eff.decide(w);
        eff.halt();
        self.decided = Some(w);
        self.done = true;
    }
}

impl Automaton for PaxosConsensus {
    type Msg = PaxosMsg;

    fn step(&mut self, input: StepInput<PaxosMsg>, eff: &mut Effects<PaxosMsg>) {
        if self.done {
            return;
        }

        if let Some(env) = &input.delivered {
            let from = env.from;
            match env.payload {
                PaxosMsg::Prepare { bal } => {
                    if bal > self.promised {
                        self.promised = bal;
                        eff.send(from, PaxosMsg::Promise { bal, accepted: self.accepted });
                    } else {
                        eff.send(from, PaxosMsg::Nack { bal: self.promised });
                    }
                }
                PaxosMsg::Promise { bal, accepted } => {
                    if self.phase == ProposerPhase::AwaitPromises
                        && bal == self.ballot
                        && self.promisers.insert(from)
                    {
                        self.promises.push(accepted);
                        if self.promisers.len() >= self.majority() {
                            // Choose the highest-ballot accepted value, or
                            // our own proposal if none.
                            self.proposal = self
                                .promises
                                .iter()
                                .flatten()
                                .max_by_key(|(b, _)| *b)
                                .map_or(self.v, |&(_, v)| v);
                            self.phase = ProposerPhase::AwaitAccepts;
                            self.acceptors = ProcessSet::EMPTY;
                            eff.send_all(
                                self.n,
                                PaxosMsg::Accept { bal: self.ballot, v: self.proposal },
                            );
                        }
                    }
                }
                PaxosMsg::Nack { bal } => {
                    if self.phase != ProposerPhase::Idle && bal > self.ballot {
                        // Preempted: catch the attempt counter up so the
                        // next ballot exceeds the nack, and retry when Ω
                        // still points here.
                        self.phase = ProposerPhase::Idle;
                        self.attempt = bal / self.n as u64 + 1;
                    }
                }
                PaxosMsg::Accept { bal, v } => {
                    if bal >= self.promised {
                        self.promised = bal;
                        self.accepted = Some((bal, v));
                        eff.send(from, PaxosMsg::Accepted { bal });
                    } else {
                        eff.send(from, PaxosMsg::Nack { bal: self.promised });
                    }
                }
                PaxosMsg::Accepted { bal } => {
                    if self.phase == ProposerPhase::AwaitAccepts
                        && bal == self.ballot
                        && self.acceptors.insert(from)
                        && self.acceptors.len() >= self.majority()
                    {
                        self.decide_and_return(self.proposal, eff);
                        return;
                    }
                }
                PaxosMsg::Decided(w) => {
                    self.decide_and_return(w, eff);
                    return;
                }
            }
        }

        // Proposer drive: start a ballot when Ω says we lead and no ballot
        // is in flight.
        if self.phase == ProposerPhase::Idle && input.fd.leader() == Some(input.me) {
            self.ballot = self.next_ballot(input.me);
            self.promises.clear();
            self.promisers = ProcessSet::EMPTY;
            self.phase = ProposerPhase::AwaitPromises;
            eff.send_all(self.n, PaxosMsg::Prepare { bal: self.ballot });
        }
    }

    fn halted(&self) -> bool {
        self.done
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.v);
        h.write(&self.n);
        h.write(&self.promised);
        h.write(&self.accepted);
        h.write_u64(self.phase as u64);
        h.write(&self.ballot);
        h.write(&self.attempt);
        h.write(&self.promises);
        h.write(&self.promisers);
        h.write(&self.acceptors);
        h.write(&self.proposal);
        h.write(&self.decided);
        h.write(&self.done);
    }
}

/// Builds the `n` Paxos automata for the given proposals.
pub fn paxos_processes(proposals: &[Value]) -> Vec<PaxosConsensus> {
    let n = proposals.len();
    proposals.iter().map(|&v| PaxosConsensus::new(v, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_k_set_agreement, distinct_proposals};
    use sih_detectors::Omega;
    use sih_model::{FailurePattern, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn run_paxos(pattern: &FailurePattern, seed: u64) -> sih_runtime::Trace {
        let n = pattern.n();
        let omega = Omega::new(pattern, seed);
        let procs = paxos_processes(&distinct_proposals(n));
        let mut sim = Simulation::new(procs, pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, &omega, 200_000);
        sim.into_trace()
    }

    #[test]
    fn failure_free_consensus() {
        for n in [3usize, 5, 7] {
            for seed in 0..6 {
                let f = FailurePattern::all_correct(n);
                let tr = run_paxos(&f, seed);
                check_k_set_agreement(&tr, &f, &distinct_proposals(n), 1).unwrap();
            }
        }
    }

    #[test]
    fn consensus_with_minority_crashes() {
        for seed in 0..6 {
            let f = FailurePattern::builder(5)
                .crash_from_start(ProcessId(0))
                .crash_at(ProcessId(4), Time(30))
                .build();
            assert!(f.has_correct_majority());
            let tr = run_paxos(&f, seed);
            check_k_set_agreement(&tr, &f, &distinct_proposals(5), 1).unwrap();
        }
    }

    #[test]
    fn delayed_leader_stabilization_still_decides() {
        for seed in 0..6 {
            let f = FailurePattern::all_correct(4);
            let omega = Omega::new(&f, seed).with_stabilization(Time(200));
            let procs = paxos_processes(&distinct_proposals(4));
            let mut sim = Simulation::new(procs, f.clone());
            let mut sched = FairScheduler::new(seed);
            sim.run(&mut sched, &omega, 300_000);
            check_k_set_agreement(&sim.into_trace(), &f, &distinct_proposals(4), 1).unwrap();
        }
    }

    #[test]
    fn decision_is_the_eventual_leaders_or_an_earlier_accepted_value() {
        let f = FailurePattern::all_correct(3);
        let tr = run_paxos(&f, 9);
        let v = tr.distinct_decisions();
        assert_eq!(v.len(), 1);
        assert!(distinct_proposals(3).contains(&v[0]));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

            /// Agreement is safety: even truncated runs with wildly
            /// unstable leaders never show two decided values.
            #[test]
            fn paxos_safety_under_unstable_leadership(
                seed in 0u64..10_000,
                stab in 0u64..400,
                budget in 100u64..30_000,
            ) {
                let f = FailurePattern::all_correct(4);
                let omega = Omega::new(&f, seed).with_stabilization(Time(stab));
                let procs = paxos_processes(&distinct_proposals(4));
                let mut sim = Simulation::new(procs, f);
                let mut sched = FairScheduler::new(seed);
                sim.run(&mut sched, &omega, budget);
                prop_assert!(sim.trace().distinct_decisions().len() <= 1);
            }

            /// With a crash pattern keeping a majority, full runs decide
            /// exactly one proposed value.
            #[test]
            fn paxos_decides_one_valid_value(seed in 0u64..2_000) {
                let f = FailurePattern::builder(5)
                    .crash_at(ProcessId(1), Time(20))
                    .build();
                let tr = run_paxos(&f, seed);
                let v = tr.distinct_decisions();
                prop_assert_eq!(v.len(), 1);
                prop_assert!(distinct_proposals(5).contains(&v[0]));
            }
        }
    }
}
