//! `k`-set agreement: specification checker, the paper's algorithms
//! (Figures 2 and 4), and a consensus baseline.
//!
//! * [`check_k_set_agreement`] / [`check_k_agreement_safety`] /
//!   [`check_termination`] — the §2.3 specification as trace checkers;
//! * [`Fig2SetAgreement`] — `(n−1)`-set agreement from `σ` (Theorem 4);
//! * [`Fig4SetAgreement`] — `(n−k)`-set agreement from `σ_2k`
//!   (Theorem 8(a));
//! * [`PaxosConsensus`] — 1-set agreement from `Ω` + majority, the
//!   baseline end of the "how much failure information buys how much
//!   agreement" spectrum that `lab e16` charts.
//!
//! # Example: run Figure 2 under a sampled σ history
//!
//! ```
//! use sih_agreement::{check_k_set_agreement, distinct_proposals, fig2_processes};
//! use sih_detectors::Sigma;
//! use sih_model::{FailurePattern, ProcessId};
//! use sih_runtime::{FairScheduler, Simulation};
//!
//! let n = 4;
//! let pattern = FailurePattern::all_correct(n);
//! let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 7);
//! let mut sim = Simulation::new(fig2_processes(&distinct_proposals(n)), pattern.clone());
//! sim.run(&mut FairScheduler::new(7), &sigma, 50_000);
//! check_k_set_agreement(sim.trace(), &pattern, &distinct_proposals(n), n - 1)?;
//! # Ok::<(), sih_agreement::AgreementViolation>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod byzantine;
mod consensus;
mod fig2;
mod fig4;
mod spec;

pub use ablation::{fig2_ablation_violation, Fig2WithoutPhase2};
pub use byzantine::{equivocator_processes, Equivocator};
pub use consensus::{paxos_processes, PaxosConsensus, PaxosMsg};
pub use fig2::{fig2_processes, Fig2Msg, Fig2SetAgreement};
pub use fig4::{fig4_processes, Fig4Msg, Fig4SetAgreement};
pub use spec::{
    check_k_agreement_safety, check_k_set_agreement, check_k_set_agreement_degraded,
    check_termination, distinct_proposals, AgreementViolation,
};
