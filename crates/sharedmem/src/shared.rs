//! The shared-memory programming model: deterministic programs that
//! access atomic registers one operation at a time.
//!
//! This is the model of the celebrated set-agreement impossibility
//! [21, 13, 3] that the paper's Theorem 12 reduces to: `n` crash-prone
//! asynchronous processes communicating *only* through atomic read/write
//! registers. A [`SharedAlgorithm`] is one process's program; in each of
//! its steps it issues at most one register operation (the standard
//! atomic-access granularity).

use sih_model::Value;
use sih_runtime::{StateHash, StateHasher};
use std::fmt;

/// Identifies one register of the shared memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RegisterId(pub u32);

impl RegisterId {
    /// Dense index for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// What a shared-memory program does in one step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SharedAction {
    /// Atomically read a register; the value arrives as the `last_read`
    /// argument of the **next** [`SharedAlgorithm::step`] call.
    Read(RegisterId),
    /// Atomically write a register.
    Write(RegisterId, Value),
    /// Decide a value and stop.
    Decide(Value),
    /// Do nothing this step (spin).
    Pause,
}

/// One process's deterministic shared-memory program.
///
/// The engine (local simulator or the message-passing bridge) drives the
/// program by calling [`step`] repeatedly: the return value is the next
/// atomic action; if the *previous* action was a `Read`, its result is
/// passed in `last_read` (`Some(contents)`, where `contents` is `None`
/// for a never-written register).
///
/// [`step`]: SharedAlgorithm::step
pub trait SharedAlgorithm {
    /// Produces the next action. `me`/`n` identify the process and system
    /// size; `last_read` carries the previous read's result, if the
    /// previous action was a read.
    fn step(&mut self, me: u32, n: usize, last_read: Option<Option<Value>>) -> SharedAction;

    /// Whether the program has decided (and stopped).
    fn done(&self) -> bool {
        false
    }

    /// Feeds the program's state into a state fingerprint, under the
    /// contract of [`Automaton::hash_state`](sih_runtime::Automaton::hash_state):
    /// equal word sequences exactly when the `Debug` renderings are
    /// equal. Hash the fields field by field ([`StateHasher::write`]);
    /// there is no default, so no program state is fingerprinted
    /// through a formatter pass.
    fn hash_state(&self, h: &mut StateHasher);
}

impl StateHash for RegisterId {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write(&self.0);
    }
}

impl StateHash for SharedAction {
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            SharedAction::Read(r) => {
                h.write_u64(0);
                h.write(r);
            }
            SharedAction::Write(r, v) => {
                h.write_u64(1);
                h.write(r);
                h.write(v);
            }
            SharedAction::Decide(v) => {
                h.write_u64(2);
                h.write(v);
            }
            SharedAction::Pause => h.write_u64(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_id_basics() {
        assert_eq!(RegisterId(3).index(), 3);
        assert_eq!(RegisterId(3).to_string(), "R3");
        assert!(RegisterId(1) < RegisterId(2));
    }

    #[test]
    fn actions_are_comparable() {
        assert_eq!(SharedAction::Pause, SharedAction::Pause);
        assert_ne!(SharedAction::Read(RegisterId(0)), SharedAction::Write(RegisterId(0), Value(1)));
    }
}
