//! Shared-memory substrate for the *Sharing is Harder than Agreeing*
//! reproduction.
//!
//! Theorem 12 of the paper reasons about "a shared memory distributed
//! system": processes communicating solely through atomic read/write
//! registers. This crate supplies that world and its bridge back into
//! message passing:
//!
//! * [`SharedAlgorithm`] — a deterministic register program (one atomic
//!   access per step);
//! * [`LocalSharedSim`] — registers as given devices (the setting of the
//!   Saks–Zaharoglou / Herlihy–Shavit / Borowsky–Gafni impossibility the
//!   paper cites);
//! * [`CollectMin`] — the classic `f`-resilient `(f+1)`-set agreement
//!   algorithm, the positive side of that boundary;
//! * [`SharedOverAbd`] / [`bridged_processes`] — run any register
//!   program **unchanged** in the paper's message-passing model, with
//!   registers emulated ABD-style from `Σ` quorums: the executable form
//!   of "register-based algorithms port to message passing", which is
//!   what lets Theorem 12 transfer the shared-memory impossibility.
//!
//! # Example: the same program in both worlds
//!
//! ```
//! use sih_model::{FailurePattern, ProcessSet, Value};
//! use sih_sharedmem::{bridged_processes, CollectMin, LocalSharedSim};
//! use sih_detectors::SigmaS;
//! use sih_runtime::{FairScheduler, Simulation};
//!
//! let proposals = vec![Value(0), Value(1), Value(2)];
//!
//! // Shared memory, physical registers:
//! let pattern = FailurePattern::all_correct(3);
//! let mut local = LocalSharedSim::new(CollectMin::processes(&proposals, 1), 3, pattern.clone());
//! assert!(local.run_fair(7, 100_000));
//! assert!(local.distinct_decisions().len() <= 2);
//!
//! // Message passing, registers emulated from Σ:
//! let det = SigmaS::new(ProcessSet::full(3), &pattern, 7);
//! let mut sim = Simulation::new(bridged_processes(CollectMin::processes(&proposals, 1), 3), pattern);
//! sim.run_until(&mut FairScheduler::new(7), &det, 400_000, Simulation::all_correct_decided);
//! assert!(sim.trace().distinct_decisions().len() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bridge;
mod collect;
mod local;
mod shared;

pub use bridge::{bridged_processes, BridgeMsg, SharedOverAbd};
pub use collect::CollectMin;
pub use local::LocalSharedSim;
pub use shared::{RegisterId, SharedAction, SharedAlgorithm};
