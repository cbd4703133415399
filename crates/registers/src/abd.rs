//! ABD-style emulation of an atomic `S`-register over message passing,
//! using `Σ_S` trusted sets as quorums.
//!
//! This is the substrate behind Proposition 1 (`Σ_S` is the weakest
//! failure detector to implement an `S`-register, [9]) and behind the
//! paper's framing: a register is not a device but an *emulation* [1].
//!
//! Every process hosts a replica `(timestamp, value)`. Processes of `S`
//! execute client operations in two quorum phases:
//!
//! * **Phase 1 (query)** — broadcast a read request; wait until the set of
//!   repliers contains some *currently trusted* set `T` output by `Σ_S`;
//!   take the maximum timestamped pair.
//! * **Phase 2 (update)** — for a write, broadcast the new value at a
//!   fresh, higher timestamp; for a read, write back the maximum pair.
//!   Wait for a trusted set of acks, then return.
//!
//! Any two completed phases intersect in at least one replica (`Σ_S`'s
//! intersection property, across times), which makes operations atomic;
//! completeness makes them live. Operation boundaries are recorded as
//! [`OpRecord`]s for the linearizability checker.
//!
//! [`OpRecord`]: sih_model::OpRecord

use sih_model::{OpId, OpKind, ProcSet, ProcessId, ProcessSet, Value};
use sih_runtime::{Automaton, Effects, StateHash, StateHasher, StepInput};
use std::collections::VecDeque;

/// A logical timestamp: Lamport pair ordered lexicographically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Timestamp {
    /// The counter component.
    pub num: u64,
    /// The writer id tiebreak.
    pub pid: u32,
}

/// Protocol messages of the ABD emulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AbdMsg {
    /// Phase 1 query.
    Query {
        /// Phase tag (unique per issuing process).
        tag: u64,
    },
    /// Phase 1 reply: the replica's current pair.
    QueryAck {
        /// Echoed phase tag.
        tag: u64,
        /// Replica timestamp.
        ts: Timestamp,
        /// Replica value (`None` = initial ⊥).
        v: Option<Value>,
    },
    /// Phase 2 update (write or read-back).
    Update {
        /// Phase tag.
        tag: u64,
        /// Timestamp to install.
        ts: Timestamp,
        /// Value to install.
        v: Option<Value>,
    },
    /// Phase 2 acknowledgement.
    UpdateAck {
        /// Echoed phase tag.
        tag: u64,
    },
}

impl StateHash for AbdMsg {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            AbdMsg::Query { tag } => {
                h.write_u64(0);
                h.write(tag);
            }
            AbdMsg::QueryAck { tag, ts, v } => {
                h.write_u64(1);
                h.write(tag);
                h.write(ts);
                h.write(v);
            }
            AbdMsg::Update { tag, ts, v } => {
                h.write_u64(2);
                h.write(tag);
                h.write(ts);
                h.write(v);
            }
            AbdMsg::UpdateAck { tag } => {
                h.write_u64(3);
                h.write(tag);
            }
        }
    }
}

#[derive(Clone, Debug)]
enum OpPhase {
    Query { best_ts: Timestamp, best_v: Option<Value> },
    Update { result: Option<Value> },
}

#[derive(Clone, Debug)]
struct ActiveOp {
    id: OpId,
    kind: OpKind,
    tag: u64,
    phase: OpPhase,
    // A `ProcSet` rather than a `ProcessSet` so the emulation scales past
    // 64 replicas. It hashes its trimmed words (never its capacity), so
    // equal ack sets fingerprint equally however they were grown.
    acks: ProcSet,
}

impl StateHash for Timestamp {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write(&self.num);
        h.write(&self.pid);
    }
}

impl StateHash for OpPhase {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            OpPhase::Query { best_ts, best_v } => {
                h.write_u64(0);
                h.write(best_ts);
                h.write(best_v);
            }
            OpPhase::Update { result } => {
                h.write_u64(1);
                h.write(result);
            }
        }
    }
}

impl StateHash for ActiveOp {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write(&self.id);
        h.write(&self.kind);
        h.write(&self.tag);
        h.write(&self.phase);
        h.write(&self.acks);
    }
}

/// How a phase decides that enough replicas have answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuorumRule {
    /// Repliers must contain some currently-trusted set output by `Σ_S`.
    /// Requires the failure detector; `Σ_S` trust lists are `ProcessSet`s,
    /// so this rule exists only for `n ≤ 64`.
    Sigma,
    /// Repliers must number at least `m` (classic ABD: `⌊n/2⌋ + 1`). Needs
    /// no detector, works at any `n`, and is sound whenever a majority of
    /// replicas is correct.
    Majority(usize),
}

impl StateHash for QuorumRule {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            QuorumRule::Sigma => h.write_u64(0),
            QuorumRule::Majority(m) => {
                h.write_u64(1);
                h.write(m);
            }
        }
    }
}

/// One process of the ABD register emulation: a replica at every process,
/// plus a scripted client at processes of `S`.
#[derive(Clone, Debug)]
pub struct AbdRegister {
    s: ProcessSet,
    n: usize,
    replica_ts: Timestamp,
    replica_v: Option<Value>,
    script: VecDeque<OpKind>,
    current: Option<ActiveOp>,
    next_tag: u64,
    ops_done: u64,
    rule: QuorumRule,
}

impl AbdRegister {
    /// A process serving the `S`-register in a system of `n` processes,
    /// executing `script` operations if it belongs to `S`. Phases complete
    /// against `Σ_S` trusted sets ([`QuorumRule::Sigma`]).
    pub fn new(s: ProcessSet, n: usize, script: Vec<OpKind>) -> Self {
        Self::with_rule(s, n, script, QuorumRule::Sigma)
    }

    /// Like [`new`](Self::new) but with majority quorums (`⌊n/2⌋ + 1`),
    /// ignoring the failure detector. This is the rule the large-`n`
    /// scaling tier uses: it needs no `Σ_S` history (trust lists cap at 64
    /// processes) and completes phases in O(1) per ack.
    pub fn majority(s: ProcessSet, n: usize, script: Vec<OpKind>) -> Self {
        Self::with_rule(s, n, script, QuorumRule::Majority(n / 2 + 1))
    }

    /// A process with an explicit [`QuorumRule`].
    pub fn with_rule(s: ProcessSet, n: usize, script: Vec<OpKind>, rule: QuorumRule) -> Self {
        if let QuorumRule::Majority(m) = rule {
            assert!(m >= 1 && m <= n, "majority threshold {m} out of range for n = {n}");
        }
        AbdRegister {
            s,
            n,
            replica_ts: Timestamp::default(),
            replica_v: None,
            script: script.into(),
            current: None,
            next_tag: 0,
            ops_done: 0,
            rule,
        }
    }

    /// Number of operations this process has completed.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Whether all scripted operations have completed.
    pub fn script_finished(&self) -> bool {
        self.script.is_empty() && self.current.is_none()
    }

    fn fresh_tag(&mut self, me: ProcessId) -> u64 {
        self.next_tag += 1;
        (u64::from(me.0) << 40) | self.next_tag
    }

    fn op_id(&self, me: ProcessId) -> OpId {
        OpId((u64::from(me.0) << 40) | self.ops_done)
    }
}

impl Automaton for AbdRegister {
    type Msg = AbdMsg;

    fn step(&mut self, input: StepInput<AbdMsg>, eff: &mut Effects<AbdMsg>) {
        // Replica duties (every process, always).
        if let Some(env) = &input.delivered {
            match env.payload {
                AbdMsg::Query { tag } => {
                    eff.send(
                        env.from,
                        AbdMsg::QueryAck { tag, ts: self.replica_ts, v: self.replica_v },
                    );
                }
                AbdMsg::Update { tag, ts, v } => {
                    if ts > self.replica_ts {
                        self.replica_ts = ts;
                        self.replica_v = v;
                    }
                    eff.send(env.from, AbdMsg::UpdateAck { tag });
                }
                AbdMsg::QueryAck { tag, ts, v } => {
                    if let Some(op) = &mut self.current {
                        if op.tag == tag {
                            if let OpPhase::Query { best_ts, best_v } = &mut op.phase {
                                op.acks.insert(env.from);
                                if ts > *best_ts {
                                    *best_ts = ts;
                                    *best_v = v;
                                }
                            }
                        }
                    }
                }
                AbdMsg::UpdateAck { tag } => {
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

        // Client duties (processes of S only).
        if !self.s.contains(input.me) {
            return;
        }

        // Phase completion: repliers ⊇ some currently-trusted set (Sigma),
        // or repliers ≥ the majority threshold (Majority, detector-free).
        let completed = match (&self.current, self.rule) {
            (Some(op), QuorumRule::Majority(m)) => op.acks.len() >= m,
            (Some(op), QuorumRule::Sigma) => {
                let Some(trusted) = input.fd.trust() else {
                    // Σ_S outputs lists at members of S; ⊥ here means the
                    // detector is not serving us this step (e.g. an
                    // emulated Σ still initializing) — just wait.
                    return;
                };
                !trusted.is_empty() && op.acks.contains_all(trusted)
            }
            (None, QuorumRule::Sigma) if input.fd.trust().is_none() => return,
            (None, _) => false,
        };
        if completed {
            let op = self.current.take().expect("invariant: current checked Some above");
            match op.phase {
                OpPhase::Query { best_ts, best_v } => {
                    // Move to phase 2.
                    let (ts, v) = match op.kind {
                        OpKind::Write(w) => {
                            (Timestamp { num: best_ts.num + 1, pid: input.me.0 }, Some(w))
                        }
                        OpKind::Read => (best_ts, best_v),
                    };
                    let tag = self.fresh_tag(input.me);
                    let result = match op.kind {
                        OpKind::Read => best_v,
                        OpKind::Write(_) => None,
                    };
                    self.current = Some(ActiveOp {
                        id: op.id,
                        kind: op.kind,
                        tag,
                        phase: OpPhase::Update { result },
                        acks: ProcSet::with_capacity(self.n),
                    });
                    eff.send_all(self.n, AbdMsg::Update { tag, ts, v });
                }
                OpPhase::Update { result } => {
                    // Operation returns.
                    eff.op_return(op.id, op.kind, result);
                    self.ops_done += 1;
                }
            }
            return;
        }

        // Start the next scripted operation when idle.
        if self.current.is_none() {
            if let Some(kind) = self.script.pop_front() {
                let id = self.op_id(input.me);
                eff.op_invoke(id, kind);
                let tag = self.fresh_tag(input.me);
                self.current = Some(ActiveOp {
                    id,
                    kind,
                    tag,
                    phase: OpPhase::Query { best_ts: Timestamp::default(), best_v: None },
                    acks: ProcSet::with_capacity(self.n),
                });
                eff.send_all(self.n, AbdMsg::Query { tag });
            }
        }
    }

    fn quiescent(&self) -> bool {
        // Null steps only ever act for a client that can complete a phase
        // or start a scripted op. A phase completes when some *nonempty*
        // trusted set is contained in `acks`; with no acks at all that is
        // impossible under every Σ output, and acks only grow through
        // deliveries. Replica duties fire on deliveries only.
        match &self.current {
            None => self.script.is_empty(),
            Some(op) => op.acks.is_empty(),
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.s);
        h.write(&self.n);
        h.write(&self.replica_ts);
        h.write(&self.replica_v);
        h.write(&self.script);
        h.write(&self.current);
        h.write(&self.next_tag);
        h.write(&self.ops_done);
        h.write(&self.rule);
    }
}

/// Builds the `n` ABD automata: scripts are assigned to members of `S` in
/// id order; non-members get empty scripts (replica-only).
pub fn abd_processes(s: ProcessSet, n: usize, scripts: Vec<Vec<OpKind>>) -> Vec<AbdRegister> {
    abd_processes_with_rule(s, n, scripts, QuorumRule::Sigma)
}

/// Like [`abd_processes`] but with an explicit [`QuorumRule`] — pass
/// `QuorumRule::Majority(n / 2 + 1)` for the detector-free large-`n`
/// emulation.
pub fn abd_processes_with_rule(
    s: ProcessSet,
    n: usize,
    scripts: Vec<Vec<OpKind>>,
    rule: QuorumRule,
) -> Vec<AbdRegister> {
    assert_eq!(scripts.len(), s.len(), "one script per member of S");
    let mut by_pid: Vec<Vec<OpKind>> = vec![Vec::new(); n];
    for (member, script) in s.iter().zip(scripts) {
        by_pid[member.index()] = script;
    }
    by_pid.into_iter().map(|script| AbdRegister::with_rule(s, n, script, rule)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearizability::check_linearizable;
    use sih_detectors::SigmaS;
    use sih_model::{FailurePattern, Time};
    use sih_runtime::{FairScheduler, Simulation};

    fn run_abd(
        pattern: &FailurePattern,
        s: ProcessSet,
        scripts: Vec<Vec<OpKind>>,
        seed: u64,
    ) -> sih_runtime::Trace {
        let n = pattern.n();
        let sigma = SigmaS::new(s, pattern, seed);
        let procs = abd_processes(s, n, scripts);
        let mut sim = Simulation::new(procs, pattern.clone());
        let mut sched = FairScheduler::new(seed);
        // Stop once every correct client has drained its script (replicas
        // never halt on their own).
        sim.run_until(&mut sched, &sigma, 150_000, |sim| {
            sim.pattern().correct().iter().all(|p| sim.process(p).script_finished())
        });
        sim.into_trace()
    }

    #[test]
    fn single_writer_single_reader_sequential() {
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let f = FailurePattern::all_correct(3);
        let tr = run_abd(
            &f,
            s,
            vec![vec![OpKind::Write(Value(7)), OpKind::Read], vec![OpKind::Read, OpKind::Read]],
            3,
        );
        let ops = tr.op_records();
        assert_eq!(ops.iter().filter(|o| o.is_complete()).count(), 4);
        check_linearizable(&ops, None).unwrap();
        // p0's own read must observe its own earlier write.
        let own_read =
            ops.iter().find(|o| o.process == ProcessId(0) && o.kind == OpKind::Read).unwrap();
        assert_eq!(own_read.read_value, Some(Value(7)));
    }

    #[test]
    fn concurrent_writers_remain_linearizable() {
        for seed in 0..8 {
            let s = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
            let f = FailurePattern::all_correct(4);
            let tr = run_abd(
                &f,
                s,
                vec![
                    vec![OpKind::Write(Value(10)), OpKind::Read, OpKind::Write(Value(11))],
                    vec![OpKind::Write(Value(20)), OpKind::Read],
                    vec![OpKind::Read, OpKind::Write(Value(30)), OpKind::Read],
                ],
                seed,
            );
            check_linearizable(&tr.op_records(), None).unwrap();
        }
    }

    #[test]
    fn minority_crash_mid_run_stays_live_and_atomic() {
        for seed in 0..8 {
            let s = ProcessSet::from_iter([0, 1].map(ProcessId));
            let f = FailurePattern::builder(5).crash_at(ProcessId(4), Time(50)).build();
            let tr = run_abd(
                &f,
                s,
                vec![
                    vec![OpKind::Write(Value(1)), OpKind::Read, OpKind::Write(Value(2))],
                    vec![OpKind::Read, OpKind::Read, OpKind::Read],
                ],
                seed,
            );
            let ops = tr.op_records();
            assert_eq!(
                ops.iter().filter(|o| o.is_complete()).count(),
                6,
                "all client ops complete despite the replica crash (seed {seed})"
            );
            check_linearizable(&ops, None).unwrap();
        }
    }

    #[test]
    fn crashed_client_leaves_pending_op() {
        let s = ProcessSet::from_iter([0, 1].map(ProcessId));
        let f = FailurePattern::builder(4).crash_at(ProcessId(1), Time(6)).build();
        let tr = run_abd(
            &f,
            s,
            vec![
                vec![OpKind::Write(Value(5)), OpKind::Read],
                vec![OpKind::Write(Value(9)), OpKind::Read],
            ],
            1,
        );
        let ops = tr.op_records();
        // p1 crashed early: some of its ops may be pending, but the
        // history must still be linearizable.
        check_linearizable(&ops, None).unwrap();
        let p0_done = ops.iter().filter(|o| o.process == ProcessId(0) && o.is_complete()).count();
        assert_eq!(p0_done, 2, "the correct client finishes");
    }

    #[test]
    fn reads_before_any_write_return_bottom() {
        let s = ProcessSet::singleton(ProcessId(0));
        let f = FailurePattern::all_correct(3);
        let tr = run_abd(&f, s, vec![vec![OpKind::Read]], 0);
        let ops = tr.op_records();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].read_value, None);
        check_linearizable(&ops, None).unwrap();
    }

    #[test]
    fn majority_rule_needs_no_detector() {
        use sih_model::NoDetector;
        for seed in 0..8 {
            let s = ProcessSet::from_iter([0, 1].map(ProcessId));
            let f = FailurePattern::all_correct(5);
            let procs = abd_processes_with_rule(
                s,
                5,
                vec![
                    vec![OpKind::Write(Value(4)), OpKind::Read],
                    vec![OpKind::Read, OpKind::Write(Value(6)), OpKind::Read],
                ],
                QuorumRule::Majority(3),
            );
            let mut sim = Simulation::new(procs, f.clone());
            let mut sched = FairScheduler::new(seed);
            sim.run_until(&mut sched, &NoDetector, 150_000, |sim| {
                sim.pattern().correct().iter().all(|p| sim.process(p).script_finished())
            });
            let ops = sim.into_trace().op_records();
            assert_eq!(ops.iter().filter(|o| o.is_complete()).count(), 5, "seed {seed}");
            check_linearizable(&ops, None).unwrap();
        }
    }

    #[test]
    fn majority_rule_survives_minority_crash() {
        use sih_model::NoDetector;
        let s = ProcessSet::singleton(ProcessId(0));
        let f = FailurePattern::builder(5)
            .crash_from_start(ProcessId(3))
            .crash_at(ProcessId(4), Time(20))
            .build();
        let procs = abd_processes_with_rule(
            s,
            5,
            vec![vec![OpKind::Write(Value(9)), OpKind::Read, OpKind::Read]],
            QuorumRule::Majority(3),
        );
        let mut sim = Simulation::new(procs, f.clone());
        let mut sched = FairScheduler::new(11);
        sim.run_until(&mut sched, &NoDetector, 150_000, |sim| {
            sim.pattern().correct().iter().all(|p| sim.process(p).script_finished())
        });
        let ops = sim.into_trace().op_records();
        assert_eq!(ops.iter().filter(|o| o.is_complete()).count(), 3);
        check_linearizable(&ops, None).unwrap();
        let read = ops.iter().find(|o| o.kind == OpKind::Read).unwrap();
        assert_eq!(read.read_value, Some(Value(9)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn majority_threshold_must_fit_n() {
        let _ = AbdRegister::with_rule(
            ProcessSet::singleton(ProcessId(0)),
            3,
            vec![],
            QuorumRule::Majority(4),
        );
    }

    #[test]
    fn timestamps_order_lexicographically() {
        let a = Timestamp { num: 1, pid: 3 };
        let b = Timestamp { num: 2, pid: 0 };
        let c = Timestamp { num: 2, pid: 1 };
        assert!(a < b && b < c);
    }

    #[test]
    #[should_panic(expected = "one script per member")]
    fn script_count_must_match_s() {
        let _ = abd_processes(ProcessSet::full(2), 3, vec![vec![]]);
    }
}
