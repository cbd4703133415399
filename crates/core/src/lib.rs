//! # sih — *Sharing is Harder than Agreeing*, executable
//!
//! A full reproduction of Delporte-Gallet, Fauconnier and Guerraoui's
//! PODC 2008 paper as a Rust library: the asynchronous message-passing
//! model, the failure detectors (`Σ_S`, `σ`, `σ_k`, `anti-Ω`, `Ω`), the
//! register and agreement abstractions, every algorithm of Figures 2–6,
//! and — the unusual part — every impossibility proof as a runnable
//! adversary construction.
//!
//! ## Layout
//!
//! * [`model`] — processes, time, failure patterns, detector outputs;
//! * [`runtime`] — the deterministic simulator (automata, schedulers,
//!   traces, replay, layered stacks, bounded exploration);
//! * [`detectors`] — oracles + specification checkers + the quorum `Σ`;
//! * [`registers`] — ABD atomic register emulation + linearizability;
//! * [`agreement`] — `k`-set agreement spec, Figures 2 and 4, Paxos
//!   baseline;
//! * [`reductions`] — Figures 3, 5, 6 and the executable Lemmas 7, 11,
//!   15, tightness schedules and the Theorem 13 simulation;
//! * [`claims`] — every row of the paper's Figure 1 as a machine-checked
//!   [`Claim`];
//! * [`pipeline`] — one pooled runner per paper workload (`run_*_pooled`),
//!   shared by the claims, the `lab` harness and the tests;
//! * [`patterns`] — failure-pattern sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use sih::claims::{check_claim, Claim, ClaimConfig};
//!
//! let cfg = ClaimConfig { n: 4, k: 1, seeds: 1, max_steps: 150_000, ..ClaimConfig::default() };
//! let outcome = check_claim(Claim::SigmaImplementsSetAgreement, &cfg);
//! assert!(outcome.verdict.confirmed());
//! ```

pub mod claims;
pub mod patterns;
pub mod pipeline;

pub use claims::{check_claim, Claim, ClaimConfig, ClaimOutcome, Verdict};

/// Re-export of [`sih_model`].
pub mod model {
    pub use sih_model::*;
}
/// Re-export of [`sih_runtime`].
pub mod runtime {
    pub use sih_runtime::*;
}
/// Re-export of [`sih_detectors`].
pub mod detectors {
    pub use sih_detectors::*;
}
/// Re-export of [`sih_registers`].
pub mod registers {
    pub use sih_registers::*;
}
/// Re-export of [`sih_agreement`].
pub mod agreement {
    pub use sih_agreement::*;
}
/// Re-export of [`sih_reductions`].
pub mod reductions {
    pub use sih_reductions::*;
}
/// Re-export of [`sih_sharedmem`].
pub mod sharedmem {
    pub use sih_sharedmem::*;
}

/// Commonly used items, for `use sih::prelude::*`.
pub mod prelude {
    pub use crate::claims::{check_claim, Claim, ClaimConfig, ClaimOutcome, Verdict};
    pub use sih_agreement::{
        check_k_set_agreement, distinct_proposals, fig2_processes, fig4_processes,
    };
    pub use sih_detectors::{
        check_anti_omega, check_sigma, check_sigma_k, check_sigma_s, AntiOmega, Omega, Perfect,
        Sigma, SigmaK, SigmaS,
    };
    pub use sih_model::{
        Environment, FailureDetector, FailurePattern, FdOutput, ProcessId, ProcessSet, Time, Value,
    };
    pub use sih_registers::{abd_processes, check_linearizable, WorkloadSpec};
    pub use sih_runtime::{
        Automaton, Effects, FairScheduler, RoundRobinScheduler, ScriptedScheduler, Simulation,
        Stacked, StepInput, Trace,
    };
}
