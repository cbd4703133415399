//! Model vocabulary for the reproduction of *Sharing is Harder than
//! Agreeing* (Delporte-Gallet, Fauconnier, Guerraoui — PODC 2008).
//!
//! This crate defines the mathematical objects of the paper's model of
//! computation (§2 of the paper), as plain data types:
//!
//! * [`ProcessId`] / [`ProcessSet`] — the system `Π` of `n` processes;
//! * [`Time`] — the global clock `Φ` (not accessible to processes);
//! * [`FailurePattern`] — the function `F` mapping times to crashed sets;
//! * [`Environment`] — a set of failure patterns (the paper's `E`);
//! * [`FdOutput`] — the range of failure-detector outputs used anywhere in
//!   the paper (`⊥`, trusted sets, `(X, A)` pairs, single process ids);
//! * [`FailureDetector`] — a failure-detector *history* `H(p, t)` as a
//!   queryable object;
//! * [`Value`] — proposal/decision values for agreement tasks and register
//!   contents.
//!
//! Everything downstream (the simulator, the detector oracles, the
//! algorithms of Figures 2–6, the adversary constructions) is expressed in
//! terms of these types.
//!
//! # Example
//!
//! ```
//! use sih_model::{FailurePattern, ProcessId, ProcessSet, Time};
//!
//! // Five processes; p3 crashes at time 40, p4 is crashed from the start.
//! let f = FailurePattern::builder(5)
//!     .crash_at(ProcessId(3), Time(40))
//!     .crash_from_start(ProcessId(4))
//!     .build();
//! assert_eq!(f.correct().len(), 3);
//! assert!(f.is_correct(ProcessId(0)));
//! assert!(!f.is_alive(ProcessId(3), Time(41)));
//! assert!(f.is_alive(ProcessId(3), Time(40)));
//! assert_eq!(f.crashed_by(Time(1_000)), ProcessSet::from_iter([3, 4].map(ProcessId)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod environment;
mod failure;
mod fd;
mod history;
mod linkfault;
mod op;
mod process;
mod procset;
#[cfg(test)]
mod proptests;
mod time;
mod value;
mod window;

pub use adversary::{
    AdversaryPlan, AdversaryPlanBuilder, Armor, AttackClass, AttackKind, AttackSpec, Mutation,
    MutationKind, MutationWindow,
};
pub use environment::Environment;
pub use failure::{FailurePattern, FailurePatternBuilder};
pub use fd::{FailureDetector, FdOutput, NoDetector};
pub use history::{OutputTimeline, RecordedHistory};
pub use linkfault::{LinkFault, LinkFaultPlan, LinkFaultPlanBuilder, LinkFaultWindow, SendFate};
pub use op::{OpId, OpKind, OpRecord};
pub use process::{ProcessId, ProcessSet, ProcessSetIter};
pub use procset::ProcSet;
pub use time::Time;
pub use value::Value;
pub use window::{LinkWindow, WindowAction, WindowPlan, WindowPlanBuilder};
