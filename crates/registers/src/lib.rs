//! Atomic `S`-register emulation over message passing (§2.2 of the paper,
//! after [1, 9]) and linearizability checking.
//!
//! * [`AbdRegister`] — ABD-style two-phase quorum emulation driven by
//!   `Σ_S` trusted sets; the substrate of Proposition 1.
//! * [`check_linearizable`] — decides atomicity of a recorded operation
//!   history: by write clusters in O(n log n) when written values are
//!   unique, with a violation certificate; otherwise by the memoized
//!   Wing–Gong search [`check_linearizable_search`].
//! * [`WorkloadSpec`] — reproducible random read/write workloads.
//!
//! # Example: a register shared by two processes, checked atomic
//!
//! ```
//! use sih_detectors::SigmaS;
//! use sih_model::{FailurePattern, OpKind, ProcessId, ProcessSet, Value};
//! use sih_registers::{abd_processes, check_linearizable};
//! use sih_runtime::{FairScheduler, Simulation};
//!
//! let s = ProcessSet::from_iter([0, 1].map(ProcessId));
//! let pattern = FailurePattern::all_correct(3);
//! let sigma = SigmaS::new(s, &pattern, 9);
//! let scripts = vec![vec![OpKind::Write(Value(1)), OpKind::Read], vec![OpKind::Read]];
//! let mut sim = Simulation::new(abd_processes(s, 3, scripts), pattern);
//! sim.run(&mut FairScheduler::new(9), &sigma, 100_000);
//! check_linearizable(&sim.trace().op_records(), None)?;
//! # Ok::<(), sih_registers::LinearizabilityViolation>(())
//! ```

mod abd;
mod byzantine;
mod client;
mod extraction;
mod linearizability;

pub use abd::{abd_processes, abd_processes_with_rule, AbdMsg, AbdRegister, QuorumRule, Timestamp};
pub use byzantine::{split_ack_processes, SplitAckForger};
pub use client::{two_writer_workload, WorkloadSpec};
pub use extraction::{extracting, SigmaExtractor};
pub use linearizability::{
    check_linearizable, check_linearizable_brute_force, check_linearizable_degraded,
    check_linearizable_search, LinearizabilityViolation, MAX_OPS,
};
