//! The results of Figure 1 as runnable, machine-checked **claims**.
//!
//! Each [`Claim`] is one arrow (or crossed arrow) of the paper's results
//! figure. [`check_claim`] gathers the claim's evidence:
//!
//! * for a *positive* claim (an algorithm exists) it runs the paper's
//!   algorithm across a pattern/seed sweep and validates the target
//!   abstraction's properties on every run;
//! * for a *negative* claim (no algorithm exists) it runs the paper's
//!   adversary construction against the candidate library and reports the
//!   exhibited violations.
//!
//! This module is the only code that runs and judges a Figure 1 result:
//! the lab's experiments re-run the same relations at more sizes through
//! [`positive_runs`] and the candidate rosters ([`defeat_lemma7_candidates`],
//! [`defeat_lemma11_outsider`], [`defeat_lemma11_full_system`],
//! [`defeat_lemma15_candidate`]), keeping only their sweep shape and
//! report formatting.

use crate::patterns::pattern_suite;
use crate::pipeline;
use sih_agreement::{check_k_set_agreement, distinct_proposals};
use sih_detectors::{check_anti_omega, check_sigma, check_sigma_k};
use sih_model::{FailurePattern, ProcessId, ProcessSet, Value};
use sih_reductions::{
    fig2_tightness, fig4_tightness, lemma11_defeat, lemma15_defeat, lemma7_defeat, theorem13_demo,
    AntiOmegaAgreementCandidate, Defeat, GossipPairCandidate, Lemma15Report, Lemma15Verdict,
    MirrorPairCandidate, MirrorXCandidate,
};
use sih_runtime::sweep::{with_seeds, Sweep};
use sih_runtime::{SimPool, Trace, TraceLevel};
use std::fmt;

/// One row of the paper's Figure 1 (plus the appendix results).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Claim {
    /// (a.1) `σ` implements `(n−1)`-set agreement — Fig. 2, Thm. 4.
    SigmaImplementsSetAgreement,
    /// `Σ_{p,q} ⪰ σ`: a 2-register is harder than set agreement —
    /// Fig. 3, Lemma 6 (plus the stacked end-to-end pipeline).
    TwoRegisterHarderThanSetAgreement,
    /// (b.1) `Σ_{p,q} ⋠ σ`: set agreement is **not** harder than a
    /// 2-register — Lemma 7.
    SetAgreementNotHarderThanTwoRegister,
    /// (a.2) `σ_2k` implements `(n−k)`-set agreement — Fig. 4, Thm. 8.
    Sigma2kImplementsNMinusKAgreement,
    /// `Σ_X ⪰ σ_|X|` — Fig. 5, Lemma 10 (plus the stacked pipeline).
    XRegisterHarderThanNMinusKAgreement,
    /// (b.2) `Σ_X2k ⋠ σ_2k` — Lemma 11 (incl. the `n = 2k` case).
    NMinusKAgreementNotHarderThanX2kRegister,
    /// (c) tightness: Figures 2/4 genuinely use budgets `n−1` / `n−k`.
    DecisionBudgetsAreTight,
    /// (c)/Thm. 13: a `(2k+1)`-register is not harder than
    /// `(n−(k+1))`-set agreement — the `B`-from-`A` simulation.
    RegisterNotHarderThanNMinusKMinus1,
    /// Appendix, Lemma 15: `anti-Ω` does not implement set agreement in
    /// message passing.
    AntiOmegaInsufficientInMessagePassing,
    /// Appendix, Lemma 16 + Cor. 17: `anti-Ω ⪯ σ`, strictly — Fig. 6.
    SigmaStrictlyStrongerThanAntiOmega,
}

impl Claim {
    /// Every claim, in the paper's order.
    pub const ALL: [Claim; 10] = [
        Claim::SigmaImplementsSetAgreement,
        Claim::TwoRegisterHarderThanSetAgreement,
        Claim::SetAgreementNotHarderThanTwoRegister,
        Claim::Sigma2kImplementsNMinusKAgreement,
        Claim::XRegisterHarderThanNMinusKAgreement,
        Claim::NMinusKAgreementNotHarderThanX2kRegister,
        Claim::DecisionBudgetsAreTight,
        Claim::RegisterNotHarderThanNMinusKMinus1,
        Claim::AntiOmegaInsufficientInMessagePassing,
        Claim::SigmaStrictlyStrongerThanAntiOmega,
    ];

    /// Short display title (the Figure 1 row).
    pub fn title(&self) -> &'static str {
        match self {
            Claim::SigmaImplementsSetAgreement => "σ → (n−1)-set agreement",
            Claim::TwoRegisterHarderThanSetAgreement => "2-register → set agreement",
            Claim::SetAgreementNotHarderThanTwoRegister => "2-register ↚ set agreement",
            Claim::Sigma2kImplementsNMinusKAgreement => "σ_2k → (n−k)-set agreement",
            Claim::XRegisterHarderThanNMinusKAgreement => "2k-register → (n−k)-set agreement",
            Claim::NMinusKAgreementNotHarderThanX2kRegister => "2k-register ↚ (n−k)-set agreement",
            Claim::DecisionBudgetsAreTight => "budgets n−1 / n−k are tight",
            Claim::RegisterNotHarderThanNMinusKMinus1 => "(2k+1)-register ↛ (n−k−1)-set agreement",
            Claim::AntiOmegaInsufficientInMessagePassing => {
                "anti-Ω ↛ set agreement (message passing)"
            }
            Claim::SigmaStrictlyStrongerThanAntiOmega => "anti-Ω ≺ σ",
        }
    }

    /// Where the claim lives in the paper.
    pub fn paper_ref(&self) -> &'static str {
        match self {
            Claim::SigmaImplementsSetAgreement => "Figure 2, Theorem 4",
            Claim::TwoRegisterHarderThanSetAgreement => "Figure 3, Lemma 6",
            Claim::SetAgreementNotHarderThanTwoRegister => "Lemma 7",
            Claim::Sigma2kImplementsNMinusKAgreement => "Figure 4, Theorem 8(a)",
            Claim::XRegisterHarderThanNMinusKAgreement => "Figure 5, Lemma 10",
            Claim::NMinusKAgreementNotHarderThanX2kRegister => "Lemma 11",
            Claim::DecisionBudgetsAreTight => "§5 (claim c), tightness schedules",
            Claim::RegisterNotHarderThanNMinusKMinus1 => "Theorems 12–13, Corollary 14",
            Claim::AntiOmegaInsufficientInMessagePassing => "Appendix, Lemma 15",
            Claim::SigmaStrictlyStrongerThanAntiOmega => "Figure 6, Lemma 16, Corollary 17",
        }
    }

    /// Whether the claim is positive (algorithm exists) or negative
    /// (adversary construction).
    pub fn is_positive(&self) -> bool {
        matches!(
            self,
            Claim::SigmaImplementsSetAgreement
                | Claim::TwoRegisterHarderThanSetAgreement
                | Claim::Sigma2kImplementsNMinusKAgreement
                | Claim::XRegisterHarderThanNMinusKAgreement
                | Claim::SigmaStrictlyStrongerThanAntiOmega
        )
    }

    /// The processes the claim's detector is parameterised by, which its
    /// pattern suites keep in focus: `X = {p0 … p2k−1}` for the `σ_2k` /
    /// `Σ_X` claims (R4–R6), the pair `{p0, p1}` otherwise.
    pub fn focus(&self, k: usize) -> ProcessSet {
        match self {
            Claim::Sigma2kImplementsNMinusKAgreement
            | Claim::XRegisterHarderThanNMinusKAgreement
            | Claim::NMinusKAgreementNotHarderThanX2kRegister => active_2k(k),
            _ => ProcessSet::from_iter([ProcessId(0), ProcessId(1)]),
        }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.title())
    }
}

/// Sweep parameters for [`check_claim`].
#[derive(Clone, Copy, Debug)]
pub struct ClaimConfig {
    /// System size `n`.
    pub n: usize,
    /// The `k` of the generalized claims (`1 ≤ k ≤ n/2`).
    pub k: usize,
    /// Seeds per pattern.
    pub seeds: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Worker threads for positive-claim sweeps (`0` = one per
    /// available core). Verdicts are identical for every thread count.
    pub threads: usize,
}

impl Default for ClaimConfig {
    fn default() -> Self {
        ClaimConfig { n: 6, k: 2, seeds: 5, max_steps: 200_000, threads: 0 }
    }
}

impl ClaimConfig {
    /// Checks the sizes every claim needs: `n ≥ 3` and `1 ≤ k ≤ n/2`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n >= 3 && self.k >= 1 && 2 * self.k <= self.n {
            Ok(())
        } else {
            Err(ConfigError { n: self.n, k: self.k })
        }
    }
}

/// A [`ClaimConfig`] whose `n` or `k` is outside the range the claims are
/// stated for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The rejected system size.
    pub n: usize,
    /// The rejected `k`.
    pub k: usize,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "need n ≥ 3, 1 ≤ k ≤ n/2 (got n = {}, k = {})", self.n, self.k)
    }
}

impl std::error::Error for ConfigError {}

/// The verdict of one claim check.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Positive claim: the algorithm satisfied its specification on every
    /// run of the sweep.
    Holds {
        /// Number of runs checked.
        runs: usize,
    },
    /// Negative claim: the adversary exhibited concrete violations
    /// against every candidate.
    CounterexampleExhibited {
        /// One description per defeated candidate.
        defeats: Vec<String>,
    },
    /// The claim FAILED to verify — would indicate a bug in this
    /// reproduction, never expected.
    Refuted {
        /// What went wrong.
        detail: String,
    },
}

impl Verdict {
    /// Whether the claim was confirmed (either direction).
    pub fn confirmed(&self) -> bool {
        !matches!(self, Verdict::Refuted { .. })
    }
}

/// The outcome of checking one claim.
#[derive(Clone, Debug)]
pub struct ClaimOutcome {
    /// The claim checked.
    pub claim: Claim,
    /// The verdict.
    pub verdict: Verdict,
    /// Free-form evidence notes (counts, parameters, exhibits).
    pub notes: Vec<String>,
}

/// Checks one claim under the given configuration.
///
/// # Panics
///
/// Panics if `cfg` fails [`ClaimConfig::validate`].
pub fn check_claim(claim: Claim, cfg: &ClaimConfig) -> ClaimOutcome {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    match claim {
        Claim::SigmaImplementsSetAgreement => check_r1(cfg),
        Claim::TwoRegisterHarderThanSetAgreement => check_r2(cfg),
        Claim::SetAgreementNotHarderThanTwoRegister => check_r3(cfg),
        Claim::Sigma2kImplementsNMinusKAgreement => check_r4(cfg),
        Claim::XRegisterHarderThanNMinusKAgreement => check_r5(cfg),
        Claim::NMinusKAgreementNotHarderThanX2kRegister => check_r6(cfg),
        Claim::DecisionBudgetsAreTight => check_r7(cfg),
        Claim::RegisterNotHarderThanNMinusKMinus1 => check_r8(cfg),
        Claim::AntiOmegaInsufficientInMessagePassing => check_r9(cfg),
        Claim::SigmaStrictlyStrongerThanAntiOmega => check_r10(cfg),
    }
}

fn pair() -> (ProcessId, ProcessId) {
    (ProcessId(0), ProcessId(1))
}

fn active_2k(k: usize) -> ProcessSet {
    (0..2 * k as u32).map(ProcessId).collect()
}

/// One checked run of a positive claim's sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSample {
    /// Steps the run took.
    pub steps: u64,
    /// Messages the run sent.
    pub messages: u64,
    /// The checker's complaint, if the run broke the target specification.
    pub violation: Option<String>,
}

impl RunSample {
    fn judge<E: fmt::Display>(trace: &Trace, checked: Result<(), E>) -> Self {
        RunSample {
            steps: trace.total_steps(),
            messages: trace.messages_sent(),
            violation: checked.err().map(|e| e.to_string()),
        }
    }
}

/// Runs a positive claim's algorithm on every `(pattern, seed)` cell of
/// `patterns × 0..seeds` and checks each run against the claim's target
/// specification:
///
/// * R1: Figure 2 from `σ_{p0,p1}`, `(n−1)`-set agreement;
/// * R2: Figure 3 from `Σ_{p0,p1}` (legal `σ`, Definition 3), then Figure 2
///   stacked on it (`(n−1)`-set agreement);
/// * R4: Figure 4 from `σ_2k` on `X = {p0 … p2k−1}`, `(n−k)`-set agreement;
/// * R5: Figure 5 from `Σ_X` (legal `σ_|X|`, Definition 9), then Figure 4
///   stacked on it with twice the step budget (`(n−k)`-set agreement);
/// * R10: Figure 6 from `σ_{p0,p1}`, a legal `anti-Ω`.
///
/// The emulations of R2 and R5 run 6 000 steps; every other run gets
/// `max_steps`. The stacked claims return two samples per cell, emulation
/// first. Samples come back in canonical grid order, so any fold over
/// them is identical for every thread count.
///
/// # Panics
///
/// Panics if `claim` is negative (it has no algorithm to run).
pub fn positive_runs(
    claim: Claim,
    n: usize,
    k: usize,
    patterns: &[FailurePattern],
    seeds: u64,
    max_steps: u64,
    threads: usize,
) -> Vec<RunSample> {
    let (p, q) = pair();
    let focus = claim.focus(k);
    let proposals = distinct_proposals(n);
    let agreement = |tr: &Trace, pattern: &FailurePattern, budget: usize| {
        RunSample::judge(tr, check_k_set_agreement(tr, pattern, &proposals, budget))
    };
    let light = TraceLevel::Light;
    let sweep = Sweep::new(threads);
    let grid = with_seeds(patterns, seeds);
    let cells: Vec<Vec<RunSample>> = match claim {
        Claim::SigmaImplementsSetAgreement => sweep.run(grid, || {
            let mut pool = SimPool::with_trace_level(light);
            move |_, (pattern, seed): (FailurePattern, u64)| {
                let tr = pipeline::run_fig2_pooled(&mut pool, &pattern, p, q, seed, max_steps);
                vec![agreement(tr, &pattern, n - 1)]
            }
        }),
        Claim::TwoRegisterHarderThanSetAgreement => sweep.run(grid, || {
            let mut fig3 = SimPool::with_trace_level(light);
            let mut stack = SimPool::with_trace_level(light);
            move |_, (pattern, seed): (FailurePattern, u64)| {
                // Lemma 6: the Figure 3 emulation yields a legal σ history.
                let tr = pipeline::run_fig3_pooled(&mut fig3, &pattern, p, q, seed, 6_000);
                let emulation =
                    RunSample::judge(tr, check_sigma(tr.emulated_history(), &pattern, focus));
                // End to end (Theorem 2 direction 1): Figure 2 stacked on
                // Figure 3 solves set agreement from Σ_{p,q}.
                let tr = pipeline::run_stack_fig3_fig2_pooled(
                    &mut stack, &pattern, p, q, seed, max_steps,
                );
                vec![emulation, agreement(tr, &pattern, n - 1)]
            }
        }),
        Claim::Sigma2kImplementsNMinusKAgreement => sweep.run(grid, || {
            let mut pool = SimPool::with_trace_level(light);
            move |_, (pattern, seed): (FailurePattern, u64)| {
                let tr = pipeline::run_fig4_pooled(&mut pool, &pattern, focus, seed, max_steps);
                vec![agreement(tr, &pattern, n - k)]
            }
        }),
        Claim::XRegisterHarderThanNMinusKAgreement => sweep.run(grid, || {
            let mut fig5 = SimPool::with_trace_level(light);
            let mut stack = SimPool::with_trace_level(light);
            move |_, (pattern, seed): (FailurePattern, u64)| {
                let tr = pipeline::run_fig5_pooled(&mut fig5, &pattern, focus, seed, 6_000);
                let emulation =
                    RunSample::judge(tr, check_sigma_k(tr.emulated_history(), &pattern, focus));
                let tr = pipeline::run_stack_fig5_fig4_pooled(
                    &mut stack,
                    &pattern,
                    focus,
                    seed,
                    max_steps * 2,
                );
                vec![emulation, agreement(tr, &pattern, n - k)]
            }
        }),
        Claim::SigmaStrictlyStrongerThanAntiOmega => sweep.run(grid, || {
            let mut pool = SimPool::with_trace_level(light);
            move |_, (pattern, seed): (FailurePattern, u64)| {
                let tr = pipeline::run_fig6_pooled(&mut pool, &pattern, p, q, seed, max_steps);
                vec![RunSample::judge(tr, check_anti_omega(tr.emulated_history(), &pattern))]
            }
        }),
        negative => panic!("{negative} is a negative claim: it has no algorithm to run"),
    };
    cells.into_iter().flatten().collect()
}

/// Judges a positive claim on its pattern suite (`extra_random` sampled
/// patterns from `suite_seed`, see [`pattern_suite`]): the first violation
/// in grid order refutes it, otherwise it holds on every sample.
fn check_positive(
    claim: Claim,
    cfg: &ClaimConfig,
    (extra_random, suite_seed): (usize, u64),
    max_steps: u64,
    notes: Vec<String>,
) -> ClaimOutcome {
    let patterns = pattern_suite(cfg.n, claim.focus(cfg.k), extra_random, suite_seed);
    let samples = positive_runs(claim, cfg.n, cfg.k, &patterns, cfg.seeds, max_steps, cfg.threads);
    match samples.iter().find_map(|s| s.violation.clone()) {
        Some(detail) => refuted(claim, detail),
        None => ClaimOutcome { claim, verdict: Verdict::Holds { runs: samples.len() }, notes },
    }
}

/// Lemma 7's two-run construction against both candidate `σ`-from-`Σ_{p,q}`
/// emulations on `n` processes (`p = p0`, `q = p1`, `a = p2`): the mirror
/// candidate (seed 17, `max_steps`) and the gossip(16) candidate (seed 19,
/// twice the budget). Returns `[mirror, gossip]`.
pub fn defeat_lemma7_candidates(n: usize, max_steps: u64) -> [Defeat; 2] {
    let (p, q) = pair();
    let a = ProcessId(2);
    [
        lemma7_defeat(
            &|| (0..n).map(|_| MirrorPairCandidate::new(p, q)).collect::<Vec<_>>(),
            n,
            p,
            q,
            a,
            17,
            max_steps,
        ),
        lemma7_defeat(
            &|| (0..n).map(|_| GossipPairCandidate::new(p, q, 16)).collect::<Vec<_>>(),
            n,
            p,
            q,
            a,
            19,
            2 * max_steps,
        ),
    ]
}

/// Lemma 11's outsider construction (`n > 2k`) against the mirror-X
/// candidate on `X = {p0 … p2k−1}` (seed 31).
pub fn defeat_lemma11_outsider(n: usize, k: usize, max_steps: u64) -> Defeat {
    let x = active_2k(k);
    lemma11_defeat(
        &|| (0..n).map(|_| MirrorXCandidate::new(x)).collect::<Vec<_>>(),
        n,
        x,
        31,
        max_steps,
    )
}

/// Lemma 11's `n = 2k` construction against the mirror-X candidate, on
/// its own system of `m = 2·max(k, 2)` processes (seed 37). Returns `m`
/// and the defeat.
pub fn defeat_lemma11_full_system(k: usize, max_steps: u64) -> (usize, Defeat) {
    let m = 2 * k.max(2);
    let full = ProcessSet::full(m);
    let mk = || (0..m).map(|_| MirrorXCandidate::new(full)).collect::<Vec<_>>();
    (m, lemma11_defeat(&mk, m, full, 37, max_steps))
}

/// Lemma 15's chain construction against the 5-round
/// [`AntiOmegaAgreementCandidate`] on `n` processes (20 000 steps per
/// segment).
pub fn defeat_lemma15_candidate(n: usize) -> Lemma15Report {
    lemma15_defeat(&|props: &[Value]| AntiOmegaAgreementCandidate::processes(props, 5), n, 20_000)
}

fn check_r1(cfg: &ClaimConfig) -> ClaimOutcome {
    let notes = vec![format!("n={}, Figure 2 under sampled σ histories", cfg.n)];
    check_positive(Claim::SigmaImplementsSetAgreement, cfg, (4, 11), cfg.max_steps, notes)
}

fn check_r2(cfg: &ClaimConfig) -> ClaimOutcome {
    let notes = vec![
        "Figure 3 output validated against Definition 3".into(),
        "stacked Fig3→Fig2 pipeline solves set agreement from Σ_{p,q}".into(),
    ];
    check_positive(Claim::TwoRegisterHarderThanSetAgreement, cfg, (3, 13), cfg.max_steps, notes)
}

fn check_r3(cfg: &ClaimConfig) -> ClaimOutcome {
    let [mirror, gossip] = defeat_lemma7_candidates(cfg.n, 30_000);
    ClaimOutcome {
        claim: Claim::SetAgreementNotHarderThanTwoRegister,
        verdict: Verdict::CounterexampleExhibited {
            defeats: vec![
                format!("mirror candidate: {mirror}"),
                format!("gossip candidate: {gossip}"),
            ],
        },
        notes: vec!["Lemma 7 two-run indistinguishability construction".into()],
    }
}

fn check_r4(cfg: &ClaimConfig) -> ClaimOutcome {
    let notes = vec![format!("n={}, k={}, Figure 4 under sampled σ_2k histories", cfg.n, cfg.k)];
    check_positive(Claim::Sigma2kImplementsNMinusKAgreement, cfg, (4, 23), cfg.max_steps, notes)
}

fn check_r5(cfg: &ClaimConfig) -> ClaimOutcome {
    let notes = vec![
        "Figure 5 output validated against Definition 9".into(),
        "stacked Fig5→Fig4 pipeline solves (n−k)-set agreement from Σ_X2k".into(),
    ];
    check_positive(Claim::XRegisterHarderThanNMinusKAgreement, cfg, (3, 29), cfg.max_steps, notes)
}

fn check_r6(cfg: &ClaimConfig) -> ClaimOutcome {
    let mut defeats = vec![format!(
        "mirror-X candidate (n>2k): {}",
        defeat_lemma11_outsider(cfg.n, cfg.k, 30_000)
    )];
    if cfg.n >= 4 {
        let (m, d) = defeat_lemma11_full_system(cfg.k, 30_000);
        defeats.push(format!("mirror-X candidate (n=2k={m}): {d}"));
    }
    ClaimOutcome {
        claim: Claim::NMinusKAgreementNotHarderThanX2kRegister,
        verdict: Verdict::CounterexampleExhibited { defeats },
        notes: vec!["Lemma 11 constructions, both the outsider and the n=2k shapes".into()],
    }
}

fn check_r7(cfg: &ClaimConfig) -> ClaimOutcome {
    let r2 = fig2_tightness(cfg.n, 41);
    let r4 = fig4_tightness(cfg.n, cfg.k, 43);
    let mut defeats = Vec::new();
    if !r2.is_exact() || !r4.is_exact() {
        return refuted(
            Claim::DecisionBudgetsAreTight,
            format!("budgets not reached: fig2 {:?}, fig4 {:?}", r2.distinct, r4.distinct),
        );
    }
    defeats.push(format!(
        "Figure 2 forced to {} distinct decisions (n−1 = {})",
        r2.distinct.len(),
        cfg.n - 1
    ));
    defeats.push(format!(
        "Figure 4 forced to {} distinct decisions (n−k = {})",
        r4.distinct.len(),
        cfg.n - cfg.k
    ));
    ClaimOutcome {
        claim: Claim::DecisionBudgetsAreTight,
        verdict: Verdict::CounterexampleExhibited { defeats },
        notes: vec!["adversarial schedules exhausting the decision budgets".into()],
    }
}

fn check_r8(cfg: &ClaimConfig) -> ClaimOutcome {
    let report = theorem13_demo(cfg.k, 47);
    if !report.violates_k_agreement {
        return refuted(Claim::RegisterNotHarderThanNMinusKMinus1, report.to_string());
    }
    ClaimOutcome {
        claim: Claim::RegisterNotHarderThanNMinusKMinus1,
        verdict: Verdict::CounterexampleExhibited { defeats: vec![report.to_string()] },
        notes: vec!["B-from-A simulation: the candidate's B violates k-set agreement with Σ".into()],
    }
}

fn check_r9(cfg: &ClaimConfig) -> ClaimOutcome {
    let report = defeat_lemma15_candidate(cfg.n);
    match &report.verdict {
        Lemma15Verdict::AgreementViolation { distinct } => ClaimOutcome {
            claim: Claim::AntiOmegaInsufficientInMessagePassing,
            verdict: Verdict::CounterexampleExhibited {
                defeats: vec![format!(
                    "chain construction: glued run decides {} distinct values (n = {})",
                    distinct.len(),
                    cfg.n
                )],
            },
            notes: vec![format!("solo segment lengths: {:?}", report.segments)],
        },
        other => ClaimOutcome {
            claim: Claim::AntiOmegaInsufficientInMessagePassing,
            verdict: Verdict::CounterexampleExhibited {
                defeats: vec![format!("candidate defeated earlier: {other:?}")],
            },
            notes: vec![],
        },
    }
}

fn check_r10(cfg: &ClaimConfig) -> ClaimOutcome {
    let notes = vec![
        "Figure 6 emulation validated against the anti-Ω specification".into(),
        "strictness follows from Lemma 15 (σ solves set agreement, anti-Ω cannot)".into(),
    ];
    check_positive(Claim::SigmaStrictlyStrongerThanAntiOmega, cfg, (4, 53), 20_000, notes)
}

fn refuted(claim: Claim, detail: String) -> ClaimOutcome {
    ClaimOutcome { claim, verdict: Verdict::Refuted { detail }, notes: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClaimConfig {
        ClaimConfig { n: 4, k: 1, seeds: 2, max_steps: 150_000, threads: 0 }
    }

    #[test]
    fn all_claims_confirm_at_small_size() {
        for claim in Claim::ALL {
            let outcome = check_claim(claim, &small());
            assert!(outcome.verdict.confirmed(), "{claim} refuted: {:?}", outcome.verdict);
        }
    }

    #[test]
    fn positive_and_negative_split() {
        let positives = Claim::ALL.iter().filter(|c| c.is_positive()).count();
        assert_eq!(positives, 5);
    }

    #[test]
    fn titles_and_refs_are_distinct() {
        let mut titles: Vec<&str> = Claim::ALL.iter().map(Claim::title).collect();
        titles.sort_unstable();
        titles.dedup();
        assert_eq!(titles.len(), Claim::ALL.len());
        assert!(Claim::ALL.iter().all(|c| !c.paper_ref().is_empty()));
    }

    #[test]
    fn validate_enforces_the_size_rule() {
        let cfg = |n, k| ClaimConfig { n, k, ..small() };
        assert_eq!(cfg(3, 1).validate(), Ok(()));
        assert_eq!(cfg(6, 3).validate(), Ok(()));
        for (n, k) in [(2, 1), (6, 0), (6, 4), (3, 2)] {
            assert_eq!(cfg(n, k).validate(), Err(ConfigError { n, k }), "n={n}, k={k}");
        }
    }

    #[test]
    fn positive_runs_are_one_sample_per_run_in_grid_order() {
        // The deterministic part of the suite: three patterns, one seed each.
        let patterns = pattern_suite(4, Claim::SigmaImplementsSetAgreement.focus(1), 0, 7);
        let cells = patterns.len();
        let runs = |claim, threads| positive_runs(claim, 4, 1, &patterns, 1, 150_000, threads);
        for claim in Claim::ALL.into_iter().filter(Claim::is_positive) {
            let samples = runs(claim, 1);
            // The stacked claims (R2, R5) add the emulation's own run.
            let per_cell = match claim {
                Claim::TwoRegisterHarderThanSetAgreement
                | Claim::XRegisterHarderThanNMinusKAgreement => 2,
                _ => 1,
            };
            assert_eq!(samples.len(), per_cell * cells, "{claim}");
            assert!(samples.iter().all(|s| s.violation.is_none()), "{claim}: {samples:?}");
            assert_eq!(samples, runs(claim, 3), "{claim}: thread count changed the samples");
        }
    }

    #[test]
    #[should_panic(expected = "negative claim")]
    fn positive_runs_reject_negative_claims() {
        let _ = positive_runs(Claim::DecisionBudgetsAreTight, 4, 1, &[], 1, 10, 1);
    }

    #[test]
    #[should_panic(expected = "n ≥ 3")]
    fn invalid_config_rejected() {
        let cfg = ClaimConfig { n: 2, k: 1, seeds: 1, max_steps: 10, threads: 0 };
        let _ = check_claim(Claim::SigmaImplementsSetAgreement, &cfg);
    }
}
