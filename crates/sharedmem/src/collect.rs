//! The classic `f`-resilient `(f+1)`-set agreement algorithm in shared
//! memory: write your value, collect until `n − f` slots are filled,
//! decide the minimum seen.
//!
//! Correctness (safety): every process misses at most `f` of the `n`
//! written values, so its minimum lies among the `f+1` smallest values —
//! at most `f+1` distinct decisions. Termination needs at most `f`
//! crashes (otherwise fewer than `n − f` slots ever fill and the
//! collector spins — which is exactly the resilience boundary the
//! celebrated impossibility [21, 13, 3] proves cannot be crossed:
//! `k`-set agreement is unsolvable with `k ≤ f`).
//!
//! Used two ways in this reproduction:
//!
//! * in the **local** shared-memory world, as the positive side of the
//!   boundary Theorem 12 leans on;
//! * over the **message-passing bridge** (ABD registers + `Σ`), where it
//!   becomes an `(f+1)`-set agreement algorithm in the paper's own model
//!   — the "shared-memory algorithms port to message passing with a
//!   register emulation" direction of the Theorem 12 argument.

use crate::shared::{RegisterId, SharedAction, SharedAlgorithm};
use sih_model::Value;
use sih_runtime::StateHasher;

/// One process of the collect-min algorithm. Register layout: slot `i`
/// (register `R_i`) is written only by process `i`.
#[derive(Clone, Debug)]
pub struct CollectMin {
    v: Value,
    f: usize,
    phase: Phase,
    cursor: u32,
    seen: Vec<Option<Value>>,
    done: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Announce,
    Collect,
    Done,
}

impl CollectMin {
    /// A process proposing `v`, tolerating up to `f` crashes, in a system
    /// of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `f ≥ n`.
    pub fn new(v: Value, n: usize, f: usize) -> Self {
        assert!(f < n, "resilience must leave at least one process");
        CollectMin { v, f, phase: Phase::Announce, cursor: 0, seen: vec![None; n], done: false }
    }

    /// Builds the `n` processes for the given proposals.
    pub fn processes(proposals: &[Value], f: usize) -> Vec<Self> {
        let n = proposals.len();
        proposals.iter().map(|&v| Self::new(v, n, f)).collect()
    }

    fn filled(&self) -> usize {
        self.seen.iter().flatten().count()
    }
}

// sih-analysis: allow(index-reachable) — seen is an n-sized array and the cursor is reduced
// mod n before every access.
impl SharedAlgorithm for CollectMin {
    fn step(&mut self, me: u32, n: usize, last_read: Option<Option<Value>>) -> SharedAction {
        match self.phase {
            Phase::Announce => {
                self.seen[me as usize] = Some(self.v);
                self.phase = Phase::Collect;
                SharedAction::Write(RegisterId(me), self.v)
            }
            Phase::Collect => {
                // Record the previous read's result.
                if let Some(contents) = last_read {
                    let slot = if self.cursor == 0 { n as u32 - 1 } else { self.cursor - 1 };
                    if let Some(v) = contents {
                        self.seen[slot as usize] = Some(v);
                    }
                }
                if self.filled() >= n - self.f {
                    self.phase = Phase::Done;
                    self.done = true;
                    let min = self
                        .seen
                        .iter()
                        .flatten()
                        .min()
                        .copied()
                        .expect("invariant: own slot is filled");
                    return SharedAction::Decide(min);
                }
                let r = RegisterId(self.cursor);
                self.cursor = (self.cursor + 1) % n as u32;
                SharedAction::Read(r)
            }
            Phase::Done => SharedAction::Pause,
        }
    }

    fn done(&self) -> bool {
        self.done
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.v);
        h.write(&self.f);
        h.write_u64(self.phase as u64);
        h.write(&self.cursor);
        h.write(&self.seen);
        h.write(&self.done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalSharedSim;
    use sih_model::{FailurePattern, ProcessId, ProcessSet, Time};

    fn proposals(n: usize) -> Vec<Value> {
        (0..n as u64).map(Value).collect()
    }

    #[test]
    fn failure_free_collect_min_decides_at_most_f_plus_1_values() {
        for n in [3usize, 5, 7] {
            for f in 0..n.min(4) {
                for seed in 0..5 {
                    let pattern = FailurePattern::all_correct(n);
                    let procs = CollectMin::processes(&proposals(n), f);
                    let mut sim = LocalSharedSim::new(procs, n, pattern);
                    assert!(sim.run_fair(seed, 100_000), "n={n} f={f} seed={seed}");
                    let distinct = sim.distinct_decisions();
                    assert!(distinct.len() <= f + 1, "n={n} f={f} seed={seed}: {distinct:?}");
                }
            }
        }
    }

    #[test]
    fn tolerates_exactly_f_crashes() {
        let n = 5;
        let f = 2;
        for seed in 0..5 {
            let pattern = FailurePattern::builder(n)
                .crash_from_start(ProcessId(3))
                .crash_at(ProcessId(4), Time(2))
                .build();
            let procs = CollectMin::processes(&proposals(n), f);
            let mut sim = LocalSharedSim::new(procs, n, pattern);
            assert!(sim.run_fair(seed, 100_000), "seed {seed}");
            assert!(sim.distinct_decisions().len() <= f + 1);
        }
    }

    #[test]
    fn decisions_lie_among_the_f_plus_1_smallest_values() {
        let n = 6;
        let f = 2;
        for seed in 0..8 {
            let pattern = FailurePattern::all_correct(n);
            let procs = CollectMin::processes(&proposals(n), f);
            let mut sim = LocalSharedSim::new(procs, n, pattern);
            assert!(sim.run_fair(seed, 100_000));
            for v in sim.distinct_decisions() {
                assert!(v.0 <= f as u64, "decision {v} outside the {}-smallest", f + 1);
            }
        }
    }

    #[test]
    fn too_many_crashes_block_termination() {
        // f = 1 but two processes crash from the start: fewer than n−1
        // slots ever fill, so no correct process can decide — the
        // resilience boundary in action.
        let n = 4;
        let f = 1;
        let pattern =
            FailurePattern::crashed_from_start(n, ProcessSet::from_iter([2, 3].map(ProcessId)));
        let procs = CollectMin::processes(&proposals(n), f);
        let mut sim = LocalSharedSim::new(procs, n, pattern);
        assert!(!sim.run_fair(3, 50_000), "must spin forever");
        assert!(sim.distinct_decisions().is_empty());
    }

    #[test]
    #[should_panic(expected = "resilience")]
    fn degenerate_resilience_rejected() {
        let _ = CollectMin::new(Value(0), 3, 3);
    }
}
