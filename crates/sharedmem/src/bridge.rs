//! The message-passing bridge: run any [`SharedAlgorithm`] in the
//! paper's model, with its registers **emulated** ABD-style from `Σ`
//! quorums.
//!
//! This mechanizes the reading direction of Theorem 12's argument: an
//! algorithm written against shared registers runs unchanged in an
//! asynchronous message-passing system equipped with `Σ` (implementable
//! wherever a majority is correct, §2.2) — so anything impossible in
//! shared memory stays impossible in that message-passing setting, and
//! anything possible there (e.g. [`CollectMin`]) ports over.
//!
//! Each process hosts a replica of the whole register array (one
//! timestamped cell per register) and drives its program: every
//! `Read`/`Write` action becomes a two-phase quorum operation (query the
//! maximum timestamp, then update/write-back), with quorums taken from
//! the current `Σ` trusted set.
//!
//! [`CollectMin`]: crate::CollectMin

use crate::shared::{RegisterId, SharedAction, SharedAlgorithm};
use sih_model::{ProcessId, ProcessSet, Value};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};

/// Lamport timestamp for one register cell.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
struct Ts {
    num: u64,
    pid: u32,
}

/// Protocol messages of the bridge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BridgeMsg {
    /// Phase 1: query a register's replica cell.
    Query {
        /// Register queried.
        reg: RegisterId,
        /// Phase tag.
        tag: u64,
    },
    /// Phase 1 reply.
    QueryAck {
        /// Echoed tag.
        tag: u64,
        /// Cell timestamp.
        ts: u64,
        /// Writer tiebreak.
        pid: u32,
        /// Cell value.
        v: Option<Value>,
    },
    /// Phase 2: install a value (write or read-back).
    Update {
        /// Register updated.
        reg: RegisterId,
        /// Phase tag.
        tag: u64,
        /// Timestamp to install.
        ts: u64,
        /// Writer tiebreak.
        pid: u32,
        /// Value to install.
        v: Option<Value>,
    },
    /// Phase 2 acknowledgement.
    UpdateAck {
        /// Echoed tag.
        tag: u64,
    },
}

impl StateHash for BridgeMsg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            BridgeMsg::Query { reg, tag } => {
                h.write_u64(0);
                h.write(reg);
                h.write(tag);
            }
            BridgeMsg::QueryAck { tag, ts, pid, v } => {
                h.write_u64(1);
                h.write(tag);
                h.write(ts);
                h.write(pid);
                h.write(v);
            }
            BridgeMsg::Update { reg, tag, ts, pid, v } => {
                h.write_u64(2);
                h.write(reg);
                h.write(tag);
                h.write(ts);
                h.write(pid);
                h.write(v);
            }
            BridgeMsg::UpdateAck { tag } => {
                h.write_u64(3);
                h.write(tag);
            }
        }
    }
}

#[derive(Clone, Debug)]
enum OpPhase {
    Query { best: (Ts, Option<Value>) },
    Update { read_result: Option<Option<Value>> },
}

#[derive(Clone, Debug)]
struct ActiveOp {
    action: SharedAction,
    tag: u64,
    phase: OpPhase,
    acks: ProcessSet,
}

impl StateHash for Ts {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write(&self.num);
        h.write(&self.pid);
    }
}

impl StateHash for OpPhase {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            OpPhase::Query { best } => {
                h.write_u64(0);
                h.write(best);
            }
            OpPhase::Update { read_result } => {
                h.write_u64(1);
                h.write(read_result);
            }
        }
    }
}

impl StateHash for ActiveOp {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write(&self.action);
        h.write(&self.tag);
        h.write(&self.phase);
        h.write(&self.acks);
    }
}

/// One process: a register-array replica plus the embedded program.
#[derive(Clone, Debug)]
pub struct SharedOverAbd<A: SharedAlgorithm> {
    program: A,
    n: usize,
    cells: Vec<(Ts, Option<Value>)>,
    current: Option<ActiveOp>,
    pending_read: Option<Option<Value>>,
    next_tag: u64,
    started: bool,
    decided: bool,
}

impl<A: SharedAlgorithm> SharedOverAbd<A> {
    /// Wraps `program` over `registers` emulated registers in a system of
    /// `n` processes.
    pub fn new(program: A, registers: usize, n: usize) -> Self {
        SharedOverAbd {
            program,
            n,
            cells: vec![(Ts::default(), None); registers],
            current: None,
            pending_read: None,
            next_tag: 0,
            started: false,
            decided: false,
        }
    }

    /// Whether the embedded program decided.
    pub fn decided(&self) -> bool {
        self.decided
    }

    fn fresh_tag(&mut self, me: ProcessId) -> u64 {
        self.next_tag += 1;
        (u64::from(me.0) << 40) | self.next_tag
    }

    fn begin_op(&mut self, action: SharedAction, me: ProcessId, eff: &mut Effects<BridgeMsg>) {
        let reg = match action {
            SharedAction::Read(r) | SharedAction::Write(r, _) => r,
            _ => unreachable!("invariant: only register ops become quorum ops"),
        };
        let tag = self.fresh_tag(me);
        self.current = Some(ActiveOp {
            action,
            tag,
            phase: OpPhase::Query { best: (Ts::default(), None) },
            acks: ProcessSet::EMPTY,
        });
        eff.send_all(self.n, BridgeMsg::Query { reg, tag });
    }
}

// sih-analysis: allow(index-reachable) — pending_read/decisions are n-sized arrays indexed by
// the stepping process's own id.
impl<A: SharedAlgorithm + std::fmt::Debug> Automaton for SharedOverAbd<A> {
    type Msg = BridgeMsg;

    fn step(&mut self, input: StepInput<BridgeMsg>, eff: &mut Effects<BridgeMsg>) {
        // Replica duties.
        if let Some(env) = &input.delivered {
            match env.payload {
                BridgeMsg::Query { reg, tag } => {
                    let (ts, v) = self.cells[reg.index()];
                    eff.send(env.from, BridgeMsg::QueryAck { tag, ts: ts.num, pid: ts.pid, v });
                }
                BridgeMsg::Update { reg, tag, ts, pid, v } => {
                    let incoming = Ts { num: ts, pid };
                    if incoming > self.cells[reg.index()].0 {
                        self.cells[reg.index()] = (incoming, v);
                    }
                    eff.send(env.from, BridgeMsg::UpdateAck { tag });
                }
                BridgeMsg::QueryAck { tag, ts, pid, v } => {
                    if let Some(op) = &mut self.current {
                        if op.tag == tag {
                            if let OpPhase::Query { best } = &mut op.phase {
                                op.acks.insert(env.from);
                                let incoming = Ts { num: ts, pid };
                                if incoming > best.0 {
                                    *best = (incoming, v);
                                }
                            }
                        }
                    }
                }
                BridgeMsg::UpdateAck { tag } => {
                    if let Some(op) = &mut self.current {
                        if op.tag == tag {
                            if let OpPhase::Update { .. } = op.phase {
                                op.acks.insert(env.from);
                            }
                        }
                    }
                }
            }
        }

        if self.decided {
            return;
        }
        let Some(trusted) = input.fd.trust() else { return };
        if trusted.is_empty() {
            return;
        }

        // Phase completion?
        if let Some(op) = &self.current {
            if trusted.is_subset(op.acks) {
                let op = self.current.take().expect("invariant: current checked Some above");
                match op.phase {
                    OpPhase::Query { best } => {
                        let reg = match op.action {
                            SharedAction::Read(r) | SharedAction::Write(r, _) => r,
                            _ => unreachable!("invariant: quorum ops carry only register actions"),
                        };
                        let (ts, v, read_result) = match op.action {
                            SharedAction::Write(_, w) => {
                                (Ts { num: best.0.num + 1, pid: input.me.0 }, Some(w), None)
                            }
                            SharedAction::Read(_) => (best.0, best.1, Some(best.1)),
                            _ => unreachable!("invariant: quorum ops carry only register actions"),
                        };
                        let tag = self.fresh_tag(input.me);
                        self.current = Some(ActiveOp {
                            action: op.action,
                            tag,
                            phase: OpPhase::Update { read_result },
                            acks: ProcessSet::EMPTY,
                        });
                        eff.send_all(
                            self.n,
                            BridgeMsg::Update { reg, tag, ts: ts.num, pid: ts.pid, v },
                        );
                    }
                    OpPhase::Update { read_result } => {
                        if let Some(result) = read_result {
                            self.pending_read = Some(result);
                        }
                    }
                }
                return;
            }
            return; // op still in flight
        }

        // Idle: ask the program for its next action.
        if !self.started {
            self.started = true;
        }
        let last_read = self.pending_read.take();
        match self.program.step(input.me.0, self.n, last_read) {
            SharedAction::Pause => {}
            SharedAction::Decide(v) => {
                self.decided = true;
                eff.decide(v);
                // Do NOT halt: the replica must keep serving quorums for
                // the other processes' register operations.
            }
            action @ (SharedAction::Read(_) | SharedAction::Write(_, _)) => {
                self.begin_op(action, input.me, eff);
            }
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        self.program.hash_state(h);
        h.write(&self.n);
        h.write(&self.cells);
        h.write(&self.current);
        h.write(&self.pending_read);
        h.write(&self.next_tag);
        h.write(&self.started);
        h.write(&self.decided);
    }
}

/// Builds the `n` bridged processes for the given programs.
pub fn bridged_processes<A: SharedAlgorithm>(
    programs: Vec<A>,
    registers: usize,
) -> Vec<SharedOverAbd<A>> {
    let n = programs.len();
    programs.into_iter().map(|p| SharedOverAbd::new(p, registers, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CollectMin;
    use sih_detectors::SigmaS;
    use sih_model::{FailurePattern, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn proposals(n: usize) -> Vec<Value> {
        (0..n as u64).map(Value).collect()
    }

    fn run_bridged_collect_min(
        pattern: &FailurePattern,
        f: usize,
        seed: u64,
        max_steps: u64,
    ) -> (Vec<Value>, bool) {
        let n = pattern.n();
        let det = SigmaS::new(ProcessSet::full(n), pattern, seed);
        let programs = CollectMin::processes(&proposals(n), f);
        let procs = bridged_processes(programs, n);
        let mut sim = Simulation::new(procs, pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run_until(&mut sched, &det, max_steps, Simulation::all_correct_decided);
        (sim.trace().distinct_decisions(), sim.all_correct_decided())
    }

    #[test]
    fn collect_min_ports_to_message_passing_failure_free() {
        // Theorem 12's setting: registers emulated from Σ in a
        // majority-correct message-passing system, shared-memory
        // algorithm unchanged.
        for seed in 0..5 {
            let f = 1;
            let pattern = FailurePattern::all_correct(4);
            let (distinct, done) = run_bridged_collect_min(&pattern, f, seed, 400_000);
            assert!(done, "seed {seed}");
            assert!(distinct.len() <= f + 1, "seed {seed}: {distinct:?}");
        }
    }

    #[test]
    fn collect_min_ports_with_a_minority_crash() {
        for seed in 0..5 {
            let f = 1;
            let pattern = FailurePattern::builder(5).crash_at(ProcessId(4), Time(40)).build();
            assert!(pattern.has_correct_majority());
            let (distinct, done) = run_bridged_collect_min(&pattern, f, seed, 600_000);
            assert!(done, "seed {seed}");
            assert!(distinct.len() <= f + 1, "seed {seed}: {distinct:?}");
        }
    }

    #[test]
    fn bridge_safety_holds_even_when_the_run_is_truncated() {
        // Agreement is safety: even without termination the decided set
        // stays within f+1 values.
        let f = 2;
        let pattern = FailurePattern::all_correct(6);
        let (distinct, _) = run_bridged_collect_min(&pattern, f, 9, 20_000);
        assert!(distinct.len() <= f + 1);
    }

    #[test]
    fn decided_replicas_keep_serving() {
        // One process decides long before the others; its replica must
        // still answer quorum queries or the rest would block.
        let f = 0; // requires reading everyone: maximal serving pressure
        let pattern = FailurePattern::all_correct(3);
        let (distinct, done) = run_bridged_collect_min(&pattern, f, 3, 400_000);
        assert!(done);
        assert_eq!(distinct.len(), 1, "f = 0 forces consensus on the minimum");
        assert_eq!(distinct[0], Value(0));
    }
}
