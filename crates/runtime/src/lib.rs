//! Deterministic asynchronous message-passing simulator — the
//! mechanization of the model of computation of *Sharing is Harder than
//! Agreeing* (PODC 2008, §2.1).
//!
//! A run executes in atomic steps: at each step exactly one process (1)
//! receives one message or the null message, (2) queries its failure
//! detector, and (3) transitions, sending messages. The pieces:
//!
//! * [`Automaton`] — one process's deterministic step function;
//! * [`Network`] — reliable asynchronous channels;
//! * [`Scheduler`] / [`FairScheduler`] / [`RoundRobinScheduler`] /
//!   [`ScriptedScheduler`] — the adversary that resolves asynchrony;
//! * [`Simulation`] — the engine: owns the automata, pattern and network,
//!   executes steps, records a replayable [`Trace`];
//!   [`Simulation::drive`] runs it under a [`Driver`] — a fair run or a
//!   strict/lenient replay of a recorded script;
//! * [`Stacked`] — layering a consumer algorithm on top of a
//!   failure-detector emulation (the paper's reduction mechanism);
//! * [`explore`] — bounded exhaustive schedule enumeration.
//!
//! # Example: two processes ping-pong until one decides
//!
//! ```
//! use sih_model::{FailurePattern, NoDetector, ProcessId, Value};
//! use sih_runtime::{Automaton, Effects, FairScheduler, Simulation, StepInput};
//!
//! #[derive(Clone, Debug, Default)]
//! struct PingPong { decided: bool }
//!
//! impl Automaton for PingPong {
//!     type Msg = &'static str;
//!     fn step(&mut self, input: StepInput<&'static str>, eff: &mut Effects<&'static str>) {
//!         match input.delivered {
//!             None if input.me == ProcessId(0) && !self.decided => {
//!                 eff.send(ProcessId(1), "ping");
//!             }
//!             Some(env) if env.payload == "ping" && !self.decided => {
//!                 self.decided = true;
//!                 eff.decide(Value(1));
//!                 eff.halt();
//!             }
//!             _ => {}
//!         }
//!     }
//!     fn halted(&self) -> bool { self.decided }
//! }
//!
//! let mut sim = Simulation::new(
//!     vec![PingPong::default(), PingPong::default()],
//!     FailurePattern::builder(2).crash_at(ProcessId(0), sih_model::Time(40)).build(),
//! );
//! let outcome = sim.run(&mut FairScheduler::new(7), &NoDetector, 10_000);
//! assert_eq!(sim.trace().decision_of(ProcessId(1)), Some(Value(1)));
//! # let _ = outcome;
//! ```

mod automaton;
mod diagram;
mod dpor;
mod explore;
#[cfg(test)]
mod fairness_tests;
mod fingerprint;
pub mod fuzz;
mod hb;
mod network;
pub mod repro;
mod scheduler;
mod sim;
mod stack;
pub mod sweep;
mod trace;

pub use automaton::{Automaton, Effects, Envelope, MsgId, OpEvent, StepInput};
pub use diagram::{column_time, render_diagram, render_summary, MAX_COLUMNS};
pub use dpor::{wake_process, wake_races, SleepKey, SleepSet};
pub use explore::{explore, explore_par, explore_with, ExploreConfig, ExploreResult};
pub use fingerprint::{fnv1a_64, Fnv64, StateHash, StateHasher};
pub use fuzz::{
    crossover, mutate, Coverage, FuzzCorpus, FuzzRng, MutOp, MutatorConfig, PowerEntry,
};
pub use hb::{HbState, VClock};
pub use network::{Corruptible, Network};
pub use repro::{
    shrink_schedule, Schedule, ScheduleError, ShrinkOptions, ShrinkReport, SCHEDULE_VERSION,
};
pub use scheduler::{
    Choice, FairScheduler, RoundRobinScheduler, Scheduler, ScriptExhausted, ScriptedScheduler,
};
pub use sim::{
    Driver, LivenessVerdict, ReplayMode, RunOutcome, SchedState, SimPool, Simulation, StepReport,
    StopReason,
};
pub use stack::{
    stubborn_processes, Layered, ReportLayer, Stacked, Stubborn, StubbornMsg, STUBBORN_PERIOD,
};
pub use trace::{Event, Trace, TraceLevel};
