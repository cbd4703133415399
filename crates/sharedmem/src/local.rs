//! The local shared-memory simulator: registers as given physical
//! devices (the world of [21, 13, 3], where set agreement is impossible
//! wait-free).
//!
//! Atomicity is by construction — exactly one process accesses the
//! memory per step, so every operation is instantaneous.

use crate::shared::{SharedAction, SharedAlgorithm};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sih_model::{FailurePattern, ProcessId, Time, Value};

/// A run of shared-memory programs over a register array.
pub struct LocalSharedSim<A: SharedAlgorithm> {
    procs: Vec<A>,
    memory: Vec<Option<Value>>,
    pattern: FailurePattern,
    now: Time,
    pending_read: Vec<Option<Option<Value>>>,
    decisions: Vec<Option<Value>>,
    steps: u64,
}

// sih-analysis: allow(index-reachable) — memory/decisions/pending_read are sized to the
// register count and n at construction; step() asserts the process is in range.
impl<A: SharedAlgorithm> LocalSharedSim<A> {
    /// A run of `procs` over `registers` zero-initialized (⊥) registers.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len() != pattern.n()`.
    pub fn new(procs: Vec<A>, registers: usize, pattern: FailurePattern) -> Self {
        assert_eq!(procs.len(), pattern.n());
        let n = procs.len();
        LocalSharedSim {
            procs,
            memory: vec![None; registers],
            pattern,
            now: Time::ZERO,
            pending_read: vec![None; n],
            decisions: vec![None; n],
            steps: 0,
        }
    }

    /// The decision of `p`, if any.
    pub fn decision_of(&self, p: ProcessId) -> Option<Value> {
        self.decisions[p.index()]
    }

    /// The distinct decided values, sorted.
    pub fn distinct_decisions(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self.decisions.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current contents of a register.
    pub fn register(&self, r: crate::shared::RegisterId) -> Option<Value> {
        self.memory[r.index()]
    }

    /// Executes one atomic step of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is crashed at the step's time, or accesses a
    /// register out of range.
    pub fn step(&mut self, p: ProcessId) {
        let t = self.now.next();
        assert!(self.pattern.is_alive(p, t), "scheduled crashed process {p}");
        self.now = t;
        self.steps += 1;
        if self.decisions[p.index()].is_some() {
            return; // decided processes spin
        }
        let last_read = self.pending_read[p.index()].take();
        let n = self.procs.len();
        let action = self.procs[p.index()].step(p.0, n, last_read);
        match action {
            SharedAction::Read(r) => {
                self.pending_read[p.index()] = Some(self.memory[r.index()]);
            }
            SharedAction::Write(r, v) => {
                self.memory[r.index()] = Some(v);
            }
            SharedAction::Decide(v) => {
                self.decisions[p.index()] = Some(v);
            }
            SharedAction::Pause => {}
        }
    }

    /// Runs under a seeded uniform-random fair scheduler until every
    /// correct process decided or `max_steps` elapse. Returns whether all
    /// correct processes decided.
    pub fn run_fair(&mut self, seed: u64, max_steps: u64) -> bool {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..max_steps {
            let next = self.now.next();
            let alive: Vec<ProcessId> = self
                .pattern
                .alive_at(next)
                .iter()
                .filter(|p| self.decisions[p.index()].is_none())
                .collect();
            if alive.is_empty() {
                break;
            }
            let p = alive[rng.gen_range(0..alive.len())];
            self.step(p);
            if self.pattern.correct().iter().all(|p| self.decisions[p.index()].is_some()) {
                return true;
            }
        }
        self.pattern.correct().iter().all(|p| self.decisions[p.index()].is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::RegisterId;
    use sih_runtime::StateHasher;

    /// Writes its id to register `me`, reads register 0, decides what it
    /// read (or its own value if ⊥).
    struct WriteReadDecide {
        phase: u8,
        me_val: Value,
        done: bool,
    }
    impl WriteReadDecide {
        fn new(v: Value) -> Self {
            WriteReadDecide { phase: 0, me_val: v, done: false }
        }
    }
    impl SharedAlgorithm for WriteReadDecide {
        fn step(&mut self, me: u32, _n: usize, last_read: Option<Option<Value>>) -> SharedAction {
            match self.phase {
                0 => {
                    self.phase = 1;
                    SharedAction::Write(RegisterId(me), self.me_val)
                }
                1 => {
                    self.phase = 2;
                    SharedAction::Read(RegisterId(0))
                }
                _ => {
                    self.done = true;
                    let seen = last_read.flatten().unwrap_or(self.me_val);
                    SharedAction::Decide(seen)
                }
            }
        }
        fn done(&self) -> bool {
            self.done
        }
        fn hash_state(&self, h: &mut StateHasher) {
            h.write_u64(u64::from(self.phase));
            h.write(&self.me_val);
            h.write(&self.done);
        }
    }

    #[test]
    fn atomic_read_sees_latest_write() {
        let pattern = FailurePattern::all_correct(2);
        let procs = vec![WriteReadDecide::new(Value(10)), WriteReadDecide::new(Value(20))];
        let mut sim = LocalSharedSim::new(procs, 2, pattern);
        // p0 writes R0=10; p0 reads R0; p0 decides 10.
        sim.step(ProcessId(0));
        sim.step(ProcessId(0));
        sim.step(ProcessId(0));
        assert_eq!(sim.decision_of(ProcessId(0)), Some(Value(10)));
        assert_eq!(sim.register(RegisterId(0)), Some(Value(10)));
        // p1 writes R1, reads R0 (=10), decides 10.
        sim.step(ProcessId(1));
        sim.step(ProcessId(1));
        sim.step(ProcessId(1));
        assert_eq!(sim.decision_of(ProcessId(1)), Some(Value(10)));
        assert_eq!(sim.distinct_decisions(), vec![Value(10)]);
    }

    #[test]
    fn crashed_processes_cannot_step() {
        let pattern = FailurePattern::builder(2).crash_at(ProcessId(1), Time(1)).build();
        let procs = vec![WriteReadDecide::new(Value(1)), WriteReadDecide::new(Value(2))];
        let mut sim = LocalSharedSim::new(procs, 2, pattern);
        sim.step(ProcessId(1)); // allowed: alive at t=1
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.step(ProcessId(1)); // t=2: crashed
        }));
        assert!(result.is_err());
    }

    #[test]
    fn run_fair_drives_everyone_to_decision() {
        let pattern = FailurePattern::all_correct(3);
        let procs = vec![
            WriteReadDecide::new(Value(1)),
            WriteReadDecide::new(Value(2)),
            WriteReadDecide::new(Value(3)),
        ];
        let mut sim = LocalSharedSim::new(procs, 3, pattern);
        assert!(sim.run_fair(7, 10_000));
        assert!(sim.distinct_decisions().len() <= 2, "everyone adopts R0's value or their own");
    }
}
