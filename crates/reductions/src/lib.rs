//! Failure-detector reductions and executable impossibility proofs from
//! *Sharing is Harder than Agreeing* (PODC 2008).
//!
//! Positive reductions (emulation algorithms):
//!
//! * [`Fig3SigmaFromSigmaPair`] — `σ ⪯ Σ_{p,q}` (Figure 3, Lemma 6);
//! * [`Fig5SigmaKFromSigmaX`] — `σ_|X| ⪯ Σ_X` (Figure 5, Lemma 10);
//! * [`Fig6AntiOmegaFromSigma`] — `anti-Ω ⪯ σ` (Figure 6, Lemma 16).
//!
//! Negative results, as adversary constructions that defeat any candidate
//! algorithm:
//!
//! * [`lemma7_defeat`] — `Σ_{p,q} ⋠ σ`: set agreement is *not* harder
//!   than a 2-register;
//! * [`lemma11_defeat`] — `Σ_X2k ⋠ σ_2k` (including the `n = 2k` case);
//! * [`lemma15_defeat`] — `anti-Ω` does not implement set agreement in
//!   message passing (the appendix's chain of runs);
//! * [`fig2_tightness`] / [`fig4_tightness`] — schedules forcing the
//!   positive algorithms to their full decision budgets (`n−1`, `n−k`);
//! * [`Theorem13Transform`] / [`theorem13_demo`] — the `B`-from-`A`
//!   simulation behind "a `(2k+1)`-register is not harder than
//!   `(n−(k+1))`-set agreement".
//!
//! The [`candidates`] module supplies the natural strategies the
//! adversaries are demonstrated against.
//!
//! # Example: defeat a candidate register emulation (Lemma 7)
//!
//! ```
//! use sih_model::ProcessId;
//! use sih_reductions::{lemma7_defeat, MirrorPairCandidate};
//!
//! let (p, q, a) = (ProcessId(0), ProcessId(1), ProcessId(2));
//! let defeat = lemma7_defeat(
//!     &|| (0..3).map(|_| MirrorPairCandidate::new(p, q)).collect::<Vec<_>>(),
//!     3, p, q, a, 42, 20_000,
//! );
//! println!("the candidate was defeated: {defeat}");
//! ```

mod ablation;
mod adversary;
pub mod candidates;
mod fig3;
mod fig5;
mod fig6;
mod footnote;

pub use ablation::{AblatedFig6Msg, Fig6WithoutChange};
pub use adversary::{
    fig2_tightness, fig4_tightness, lemma11_defeat, lemma15_defeat, lemma7_defeat, theorem13_demo,
    Defeat, Lemma15Report, Lemma15Verdict, Theorem13Report, Theorem13Transform, TightnessReport,
};
pub use candidates::{
    AntiOmegaAgreementCandidate, GossipMsg, GossipPairCandidate, MirrorPairCandidate,
    MirrorXCandidate, QuorumMinXCandidate, SelfQuietCandidate,
};
pub use fig3::{fig3_processes, Fig3SigmaFromSigmaPair};
pub use fig5::{fig5_processes, Fig5SigmaKFromSigmaX};
pub use fig6::{fig6_processes, Fig6AntiOmegaFromSigma, Fig6Msg};
pub use footnote::{partition_remark_demo, two_process_equivalence, EquivalenceReport};
