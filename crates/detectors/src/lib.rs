//! Failure detectors of *Sharing is Harder than Agreeing* (PODC 2008):
//! oracles, specification checkers, and the message-passing quorum
//! implementation of `Σ`.
//!
//! * Oracles — sampled legal histories, pure in `(process, time)`:
//!   [`SigmaS`] (`Σ_S`, §2.2), [`Sigma`] (`σ`, Definition 3), [`SigmaK`]
//!   (`σ_k`, Definition 9), [`AntiOmega`] (appendix), [`Omega`] (baseline).
//! * Checkers — [`check_sigma_s`], [`check_sigma`], [`check_sigma_k`],
//!   [`check_anti_omega`] validate any recorded history (oracle-sampled
//!   via [`sample_history`], or emulated by the algorithms of Figures 3,
//!   5, 6) against its definition.
//! * [`QuorumSigma`] — the §2.2 algorithm implementing `Σ_S` wherever a
//!   majority of processes is correct.
//!
//! # Example: sample σ and validate it
//!
//! ```
//! use sih_detectors::{check_sigma, sample_history, Sigma};
//! use sih_model::{FailurePattern, ProcessId, ProcessSet, Time};
//!
//! let pattern = FailurePattern::crashed_from_start(
//!     4,
//!     ProcessSet::from_iter([2, 3].map(ProcessId)),
//! );
//! let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 1);
//! let history = sample_history(&sigma, 4, Time(100));
//! check_sigma(&history, &pattern, sigma.active())?;
//! # Ok::<(), sih_detectors::Violation>(())
//! ```

mod anti_omega;
mod omega;
mod perfect;
mod props;
mod quorum;
mod rng;
mod sigma;
mod sigma_k;
mod sigma_s;
mod weak;

pub use anti_omega::AntiOmega;
pub use omega::Omega;
pub use perfect::Perfect;
pub use props::{
    check_anti_omega, check_sigma, check_sigma_k, check_sigma_s, sample_history, Violation,
};
pub use quorum::{QuorumMsg, QuorumSigma};
pub use sigma::{Sigma, SigmaMode};
pub use sigma_k::{SigmaK, SigmaKMode};
pub use sigma_s::SigmaS;
pub use weak::{WeakSigma, WeakSigmaK, WeakSigmaS};
