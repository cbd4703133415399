//! The workload registry and the counterexample harness (`lab repro`).
//!
//! **The registry.** A [`Workload`] row is one named, fully
//! reconstructible run description: its algorithm ([`Algo`]), its
//! detector twin ([`Twin`]), its ABD client scripts and its default
//! environment ([`Env`]: crash pattern, link-fault plan, adversary plan,
//! attack). `Spec::run` is the one constructor behind every run the lab
//! drives: given a schedule header (the environment), a dispatch on
//! [`Algo`] builds the automata and the detector, fixes the stop
//! predicate and the checker (with its `k`), and drives the run bare or
//! inside the `Stubborn` retransmission layer.
//! Its three callers — this module's record/replay driver, the `lab
//! faults` matrix and the `lab byzantine` matrix — each receive the
//! finished trace and outcome and judge them themselves.
//!
//! **The harness.** A schedule names its workload (`checker:` line), so
//! replaying it needs nothing but the schedule file: the row rebuilds the
//! automata and detector from `n`, `k` and `seed`, installs the recorded
//! crash pattern, link-fault plan and adversary, and re-executes the
//! choice sequence through [`Simulation::drive`] with a
//! [`Driver::Replay`] — the run loop every fair pipeline and matrix cell
//! also uses.
//!
//! Workloads come in sound/weakened pairs: the sound detector satisfies
//! its specification and the run verdict is `ok`; the weakened twin (from
//! `sih_detectors::weak`) disables exactly the intersection/quorum
//! hypothesis, and the resulting safety violation — recorded, shrunk and
//! committed under `tests/corpus/` — is a *negative witness* for the
//! paper's R1/R4/R10 hypotheses.
//!
//! Replays run in two modes ([`ReplayMode`]). **Strict** (corpus
//! verification): the script must execute exactly — an illegal choice is
//! an engine panic, and the verdict plus the executed script must both
//! match the schedule. **Lenient** (shrink and fuzz candidates): scripted
//! choices that are illegal in the mutated run are *skipped*. Both modes
//! end at the engine's halt and starvation stops (DESIGN.md §7.1), and
//! skipping executes nothing, so the executed subsequence of a lenient
//! replay is itself a schedule that strict-replays identically — the
//! canonical form the shrinker and the fuzzer keep. Panics (e.g. Fig. 2's
//! validity `expect` under a broken σ) are caught and mapped to the
//! stable verdict token `panic`, making panic-witnessing schedules
//! first-class shrinkable artifacts.

use sih_agreement::{
    check_k_agreement_safety, check_k_set_agreement_degraded, distinct_proposals,
    equivocator_processes, fig2_processes, fig4_processes, Equivocator, Fig2SetAgreement,
    Fig4SetAgreement,
};
use sih_detectors::{check_anti_omega, Sigma, SigmaK, SigmaS, WeakSigma, WeakSigmaK, WeakSigmaS};
use sih_model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailureDetector, FailurePattern, FdOutput,
    LinkFaultPlan, MutationKind, OpKind, ProcessId, ProcessSet, Time, Value,
};
use sih_reductions::Fig6WithoutChange;
use sih_registers::{
    abd_processes, check_linearizable, check_linearizable_degraded, split_ack_processes,
    two_writer_workload, LinearizabilityViolation, SplitAckForger,
};
use sih_runtime::sweep::Sweep;
pub use sih_runtime::ReplayMode;
use sih_runtime::{
    shrink_schedule, stubborn_processes, Automaton, Choice, Corruptible, Driver, LivenessVerdict,
    RunOutcome, Schedule, ShrinkOptions, ShrinkReport, SimPool, Simulation, StopReason, Stubborn,
    Trace, TraceLevel,
};
use std::fmt;

/// The verdict token of a run that tripped an engine or automaton panic.
pub const PANIC_VERDICT: &str = "panic";

/// The algorithm a run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Figure 2: `(n−1)`-set agreement from σ (R1).
    Fig2,
    /// Figure 4: `(n−k)`-set agreement from σ_2k, actives `{p0 … p(2k−1)}`
    /// (R4).
    Fig4,
    /// The ABD register for its clients, quorums from Σ_S (Prop. 1 route).
    Abd,
    /// Figure 6 minus the CHANGE handshake, over σ (R10 witness).
    Fig6WithoutChange,
}

impl Algo {
    /// The matrix label (`fig2`, `fig4`, `abd`, `fig6`).
    pub fn label(self) -> &'static str {
        match self {
            Algo::Fig2 => "fig2",
            Algo::Fig4 => "fig4",
            Algo::Abd => "abd",
            Algo::Fig6WithoutChange => "fig6",
        }
    }

    /// The smallest `n` a run at parameter `k` can be built with — also
    /// the shrinker's `n`-reduction floor.
    pub fn min_n(self, k: usize) -> usize {
        match self {
            Algo::Fig4 => k.saturating_mul(2).max(2),
            _ => 2,
        }
    }

    /// Rejects parameters outside the constructible range.
    fn check(self, n: usize, k: usize) -> Result<(), ReproError> {
        let (label, min) = (self.label(), self.min_n(k));
        if n < min || (self == Algo::Fig4 && k < 1) {
            return Err(ReproError::BadParams(format!(
                "{label} at k={k} needs n >= {min} (fig4: k >= 1), got n={n}"
            )));
        }
        Ok(())
    }

    /// Default system size for `record`.
    fn default_n(self) -> usize {
        match self {
            Algo::Fig2 => 3,
            _ => 4,
        }
    }

    /// Default step bound for `record`.
    fn default_steps(self) -> u64 {
        match self {
            Algo::Fig2 | Algo::Fig4 => 4_000,
            Algo::Abd => 6_000,
            Algo::Fig6WithoutChange => 60_000,
        }
    }
}

/// Which detector a run queries: the sound one its algorithm assumes
/// (σ, σ_2k or Σ_S), or the `sih_detectors::weak` twin with the
/// intersection/quorum hypothesis disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Twin {
    /// The sound detector.
    Sound,
    /// Its weakened twin.
    Weak,
}

/// ABD client scripts: the clients `S` and one script per member.
pub type Clients = fn() -> (ProcessSet, Vec<Vec<OpKind>>);

/// What a run executes: an algorithm, the detector twin it queries and
/// (read by [`Algo::Abd`] only) its client scripts.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The algorithm.
    pub algo: Algo,
    /// The detector twin.
    pub twin: Twin,
    /// The ABD client scripts.
    pub clients: Clients,
}

/// A workload's default environment — what a fresh `record` run uses.
#[derive(Clone, Copy, Debug)]
pub struct Env {
    /// The crash pattern at system size `n`.
    pub pattern: fn(usize) -> FailurePattern,
    /// The link-fault plan at system size `n`.
    pub faults: fn(usize) -> LinkFaultPlan,
    /// The mutation adversary at system size `n`.
    pub adversary: fn(usize) -> AdversaryPlan,
    /// The scripted protocol attack.
    pub attack: Option<AttackSpec>,
}

impl Env {
    /// An anonymous header in this environment at system size `n` (no
    /// checker, choices or verdict).
    pub(crate) fn header(&self, n: usize, k: usize, seed: u64, max_steps: u64) -> Schedule {
        Schedule {
            checker: String::new(),
            n,
            k,
            seed,
            max_steps,
            pattern: (self.pattern)(n),
            faults: (self.faults)(n),
            adversary: (self.adversary)(n),
            attack: self.attack,
            armor: Armor::NONE,
            choices: Vec::new(),
            verdict: String::new(),
        }
    }
}

/// Everyone correct, reliable links, no adversary.
pub(crate) const HONEST: Env = Env {
    pattern: FailurePattern::all_correct,
    faults: LinkFaultPlan::reliable,
    adversary: AdversaryPlan::honest,
    attack: None,
};

/// The Fig. 2 equivocation attack: p0 tells odd peers the story `x = 99`.
pub(crate) const EQUIVOCATE: AttackSpec = AttackSpec { kind: AttackKind::Equivocate, x: 99 };

/// The ABD split-ack attack: the last replica answers odd clients with an
/// invented view.
pub(crate) const SPLIT_ACK: AttackSpec = AttackSpec { kind: AttackKind::SplitAck, x: 55 };

/// One registered workload: a named, reconstructible configuration the
/// schedule format can reference.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Registry name (the `checker:` line of schedules).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// What it runs.
    pub spec: Spec,
    /// The environment of a fresh `record` run.
    pub env: Env,
    /// Whether a fresh fair-scheduler run is expected to end `ok`
    /// (sound detector) or to witness a violation (weakened twin).
    pub expect_ok: bool,
}

/// The workload registry. Names here are the only valid `checker:`
/// values: [`replay`] rejects any other name with
/// [`ReproError::UnknownWorkload`], so a corpus entry naming an
/// unregistered checker fails [`verify_corpus`].
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig2-sigma",
        summary: "Fig. 2 (n-1)-set agreement from sound σ (R1, holds)",
        spec: Spec { algo: Algo::Fig2, twin: Twin::Sound, clients: one_writer },
        env: HONEST,
        expect_ok: true,
    },
    Workload {
        name: "fig2-weak-sigma",
        summary: "Fig. 2 under σ with intersection disabled (R1 negative witness)",
        spec: Spec { algo: Algo::Fig2, twin: Twin::Weak, clients: one_writer },
        env: HONEST,
        expect_ok: false,
    },
    Workload {
        name: "fig4-sigma-k",
        summary: "Fig. 4 (n-k)-set agreement from sound σ_2k (R4, holds)",
        spec: Spec { algo: Algo::Fig4, twin: Twin::Sound, clients: one_writer },
        env: HONEST,
        expect_ok: true,
    },
    Workload {
        name: "fig4-weak-sigma-k",
        summary: "Fig. 4 under σ_2k with intersection disabled (R4 negative witness)",
        spec: Spec { algo: Algo::Fig4, twin: Twin::Weak, clients: one_writer },
        env: HONEST,
        expect_ok: false,
    },
    Workload {
        name: "abd-sigma-s",
        summary: "ABD register in S from sound Σ_S (Prop. 1 route, holds)",
        spec: Spec { algo: Algo::Abd, twin: Twin::Sound, clients: one_writer },
        env: HONEST,
        expect_ok: true,
    },
    Workload {
        name: "abd-weak-quorum",
        summary: "ABD register with quorum intersection disabled (stale read)",
        spec: Spec { algo: Algo::Abd, twin: Twin::Weak, clients: one_writer },
        env: Env { faults: cut_writeback, ..HONEST },
        expect_ok: false,
    },
    Workload {
        name: "fig6-without-change",
        summary: "Fig. 6 minus the CHANGE handshake: anti-Ω breaks (R10 witness)",
        spec: Spec { algo: Algo::Fig6WithoutChange, twin: Twin::Sound, clients: one_writer },
        env: Env { pattern: non_actives_crash, ..HONEST },
        expect_ok: false,
    },
    Workload {
        name: "fig2-byz-perturb",
        summary: "Fig. 2 under a value-perturbing network adversary (validity attack)",
        spec: Spec { algo: Algo::Fig2, twin: Twin::Sound, clients: one_writer },
        env: Env { adversary: perturb_p0_to_p1, ..HONEST },
        expect_ok: false,
    },
    Workload {
        name: "fig2-byz-equivocate",
        summary: "Fig. 2 with p0 equivocating per recipient (agreement/validity attack)",
        spec: Spec { algo: Algo::Fig2, twin: Twin::Sound, clients: one_writer },
        env: Env { attack: Some(EQUIVOCATE), ..HONEST },
        expect_ok: false,
    },
    Workload {
        name: "fig4-byz-perturb",
        summary: "Fig. 4 under a value-perturbing network adversary (validity attack)",
        spec: Spec { algo: Algo::Fig4, twin: Twin::Sound, clients: one_writer },
        env: Env { adversary: perturb_p0_to_p1, ..HONEST },
        expect_ok: false,
    },
    Workload {
        name: "abd-byz-perturb",
        summary: "ABD under timestamp-perturbing links (write order scrambled)",
        spec: Spec { algo: Algo::Abd, twin: Twin::Sound, clients: two_writer_workload },
        env: Env { adversary: perturb_every_link, ..HONEST },
        expect_ok: false,
    },
    Workload {
        name: "abd-byz-forge-ack",
        summary: "ABD under fabricated quorum acks in flight (stale-future read)",
        spec: Spec { algo: Algo::Abd, twin: Twin::Sound, clients: one_writer },
        env: Env { adversary: forge_ack_to_reader, ..HONEST },
        expect_ok: false,
    },
    Workload {
        name: "abd-byz-split-ack",
        summary: "ABD with one replica forging split acks per client (atomicity attack)",
        spec: Spec { algo: Algo::Abd, twin: Twin::Sound, clients: one_writer },
        env: Env { attack: Some(SPLIT_ACK), ..HONEST },
        expect_ok: false,
    },
];

/// The workloads whose reconstruction honors the schedule's adversary
/// fields — exactly the rows whose default environment carries an
/// adversary plan or an attack. Every other workload rejects a
/// non-default adversary plan, attack or armor rung instead of silently
/// ignoring it.
pub const BYZ_WORKLOADS: &[&str] = &[
    "fig2-byz-perturb",
    "fig2-byz-equivocate",
    "fig4-byz-perturb",
    "abd-byz-perturb",
    "abd-byz-forge-ack",
    "abd-byz-split-ack",
];

/// The one-writer register workload: `p0` writes once, `p1` reads
/// repeatedly (long enough that late reads start after the write
/// returned).
fn one_writer() -> (ProcessSet, Vec<Vec<OpKind>>) {
    let s: ProcessSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
    let scripts = vec![vec![OpKind::Write(Value(7))], vec![OpKind::Read; 6]];
    (s, scripts)
}

/// Fig. 6's crossed pair needs the non-actives to announce and crash; σ
/// then stabilizes to {p0} at p0.
fn non_actives_crash(n: usize) -> FailurePattern {
    if n < 4 {
        return FailurePattern::all_correct(n);
    }
    FailurePattern::builder(n)
        .crash_at(ProcessId(2), Time(40))
        .crash_at(ProcessId(3), Time(40))
        .build()
}

/// The planted quorum violation: p0's writeback traffic never reaches the
/// other replicas, so a singleton-quorum read at p1 is guaranteed stale
/// (with sound Σ_S the write could not have completed without a real
/// quorum, so this plan is harmless to the sound twin).
fn cut_writeback(n: usize) -> LinkFaultPlan {
    let mut b = LinkFaultPlan::builder(n);
    for q in 1..n as u32 {
        b = b.drop_link(ProcessId(0), ProcessId(q), Time::ZERO, None);
    }
    b.build()
}

/// Perturbing p0's traffic to p1 injects a never-proposed value into the
/// decision flood: a validity violation at p1.
fn perturb_p0_to_p1(n: usize) -> AdversaryPlan {
    AdversaryPlan::builder(n)
        .every(ProcessId(0), ProcessId(1), MutationKind::Perturb, 100, Time::ZERO, None)
        .build()
}

/// Timestamp perturbation on every link scrambles the apparent order of
/// the two writes; some seed's read observes the flip.
fn perturb_every_link(n: usize) -> AdversaryPlan {
    every_link(n, MutationKind::Perturb, 100)
}

/// A fabricated quorum ack from the last replica to the reader carries a
/// future timestamp; its value wins the read's max.
fn forge_ack_to_reader(n: usize) -> AdversaryPlan {
    AdversaryPlan::builder(n)
        .every(ProcessId(n as u32 - 1), ProcessId(1), MutationKind::ForgeAck, 77, Time::ZERO, None)
        .build()
}

/// `kind` (parameter `x`) on every directed link from t=0, unbounded.
pub(crate) fn every_link(n: usize, kind: MutationKind, x: u64) -> AdversaryPlan {
    let mut b = AdversaryPlan::builder(n);
    for src in (0..n as u32).map(ProcessId) {
        for dst in (0..n as u32).map(ProcessId).filter(|&dst| dst != src) {
            b = b.every(src, dst, kind, x, Time::ZERO, None);
        }
    }
    b.build()
}

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Whether the row honors a schedule's adversary fields (its default
    /// environment carries an adversary plan or an attack).
    pub(crate) fn honors_adversary(&self) -> bool {
        self.env.attack.is_some() || !(self.env.adversary)(self.spec.algo.default_n()).is_honest()
    }
}

/// Errors of the repro harness (schedule *parse* errors are
/// [`sih_runtime::ScheduleError`]; these are semantic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReproError {
    /// The schedule names a checker absent from [`WORKLOADS`].
    UnknownWorkload(String),
    /// Parameters outside the workload's constructible range.
    BadParams(String),
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::UnknownWorkload(name) => {
                write!(f, "unknown workload `{name}` (known: ")?;
                for (i, w) in WORKLOADS.iter().enumerate() {
                    write!(f, "{}{}", if i > 0 { ", " } else { "" }, w.name)?;
                }
                write!(f, ")")
            }
            ReproError::BadParams(detail) => write!(f, "bad parameters: {detail}"),
        }
    }
}

impl std::error::Error for ReproError {}

// ---- quiet panic capture ------------------------------------------------

thread_local! {
    static SILENCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static INSTALL_HOOK: std::sync::Once = std::sync::Once::new();

/// Runs `f`, catching panics without letting the default hook spam
/// stderr. The replacement hook is installed once and delegates to the
/// previous hook for every thread that is not inside `quiet_catch`, so
/// unrelated panics keep their backtraces.
fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
    INSTALL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCED.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SILENCED.with(|s| s.set(true));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    SILENCED.with(|s| s.set(false));
    r.map_err(|_| ())
}

// ---- the one constructor ------------------------------------------------

/// Whether processes run bare or inside the [`Stubborn`]
/// retransmission layer (the fault matrix's lossy-link repair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layer {
    Bare,
    Stubborn,
}

/// Reusable simulations, one slot per process type `Spec::run` can
/// build — one set per sweep worker.
#[derive(Debug)]
pub struct Pools {
    fig2: SimPool<Equivocator<Fig2SetAgreement>>,
    fig4: SimPool<Fig4SetAgreement>,
    abd: SimPool<SplitAckForger>,
    fig6: SimPool<Fig6WithoutChange>,
    stubborn_fig2: SimPool<Stubborn<Equivocator<Fig2SetAgreement>>>,
    stubborn_fig4: SimPool<Stubborn<Fig4SetAgreement>>,
    stubborn_abd: SimPool<Stubborn<SplitAckForger>>,
}

impl Pools {
    /// Empty pools recording at `level`.
    pub fn new(level: TraceLevel) -> Self {
        Pools {
            fig2: SimPool::with_trace_level(level),
            fig4: SimPool::with_trace_level(level),
            abd: SimPool::with_trace_level(level),
            fig6: SimPool::with_trace_level(level),
            stubborn_fig2: SimPool::with_trace_level(level),
            stubborn_fig4: SimPool::with_trace_level(level),
            stubborn_abd: SimPool::with_trace_level(level),
        }
    }
}

/// The checker an algorithm's runs are judged by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Check {
    /// `k`-set agreement over the distinct proposals.
    Agreement { k: usize },
    /// Linearizability of the register operations.
    Linearizable,
    /// Anti-Ω over the emulated history.
    AntiOmega,
}

impl Check {
    /// The strict verdict token: `ok` or `violation:<property>`.
    fn verdict(self, tr: &Trace, pattern: &FailurePattern) -> String {
        let violated = match self {
            Check::Agreement { k } => {
                check_k_agreement_safety(tr, &distinct_proposals(pattern.n()), k)
                    .map_err(|v| v.property)
            }
            Check::Linearizable => {
                check_linearizable(&tr.op_records(), None).map_err(|e| match e {
                    LinearizabilityViolation::NotLinearizable { .. } => "not-linearizable",
                    LinearizabilityViolation::HistoryTooLarge { .. } => "history-too-large",
                    LinearizabilityViolation::Incomplete { .. } => "incomplete",
                })
            }
            Check::AntiOmega => {
                check_anti_omega(tr.emulated_history(), pattern).map_err(|v| v.property)
            }
        };
        match violated {
            Ok(()) => "ok".to_string(),
            Err(property) => format!("violation:{property}"),
        }
    }

    /// The degraded verdict: safety is never excused, a liveness miss is
    /// [`LivenessVerdict::SafeButNotLive`] when `reason` excuses it.
    pub(crate) fn degraded(
        self,
        tr: &Trace,
        pattern: &FailurePattern,
        reason: StopReason,
    ) -> Result<LivenessVerdict, String> {
        match self {
            Check::Agreement { k } => {
                let proposals = distinct_proposals(pattern.n());
                check_k_set_agreement_degraded(tr, pattern, &proposals, k, reason)
                    .map_err(|e| e.to_string())
            }
            Check::Linearizable => {
                check_linearizable_degraded(&tr.op_records(), None, pattern, reason)
                    .map_err(|e| e.to_string())
            }
            Check::AntiOmega => check_anti_omega(tr.emulated_history(), pattern)
                .map(|()| LivenessVerdict::Live)
                .map_err(|v| v.to_string()),
        }
    }
}

/// What a run left behind for its caller to judge.
pub(crate) struct Ran<'p> {
    /// Stop reason and counters; `None` if the run panicked.
    pub outcome: Option<RunOutcome>,
    /// The recorded trace (up to the panicking step, if any).
    pub trace: &'p Trace,
    /// The executed choices (including a panicking one).
    pub script: &'p [Choice],
    /// The checker the algorithm is judged by.
    pub check: Check,
}

impl Spec {
    /// A matrix cell's spec: `algo` with its sound detector (the ABD
    /// cells run the two-writer workload).
    pub(crate) fn matrix(algo: Algo) -> Spec {
        Spec { algo, twin: Twin::Sound, clients: two_writer_workload }
    }

    /// The one constructor: builds the run header `s` describes under this
    /// spec — automata, detector, stop predicate and checker, from `n`,
    /// `k` and `seed` — installs its crash pattern, link faults and
    /// adversary, and drives it per `driver` (pushing per-step
    /// fingerprints into `fps`, if given). The header's own `choices`,
    /// `verdict` and `max_steps` are not read. Panics anywhere in the
    /// stepped region (illegal strict choice, automaton `expect`) are
    /// caught; the executed script stays meaningful because the engine
    /// records each choice *before* stepping the automaton.
    pub(crate) fn run<'p>(
        &self,
        s: &Schedule,
        pools: &'p mut Pools,
        layer: Layer,
        driver: Driver<'_>,
        fps: Option<&mut Vec<u64>>,
    ) -> Result<Ran<'p>, ReproError> {
        let (n, k, pattern, seed) = (s.n, s.k, &s.pattern, s.seed);
        if pattern.n() != n || s.faults.n() != n || s.adversary.n() != n {
            return Err(ReproError::BadParams(format!(
                "n mismatch: n={n}, pattern over {}, faults over {}, adversary over {}",
                pattern.n(),
                s.faults.n(),
                s.adversary.n()
            )));
        }
        let Spec { algo, twin, clients } = *self;
        algo.check(n, k)?;
        if algo == Algo::Fig6WithoutChange && layer == Layer::Stubborn {
            return Err(ReproError::BadParams("Fig. 6 runs bare only".to_string()));
        }
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        let (clients, scripts) = clients();
        let active = || (0..2 * k as u32).map(ProcessId).collect::<ProcessSet>();
        let fd: Box<dyn FailureDetector> = match (algo, twin) {
            (Algo::Fig2 | Algo::Fig6WithoutChange, Twin::Sound) => {
                Box::new(Sigma::new(p0, p1, pattern, seed))
            }
            (Algo::Fig2 | Algo::Fig6WithoutChange, Twin::Weak) => Box::new(WeakSigma::new(p0, p1)),
            (Algo::Fig4, Twin::Sound) => Box::new(SigmaK::new(active(), pattern, seed)),
            (Algo::Fig4, Twin::Weak) => Box::new(WeakSigmaK::new(active())),
            (Algo::Abd, Twin::Sound) => Box::new(SigmaS::new(clients, pattern, seed)),
            (Algo::Abd, Twin::Weak) => Box::new(WeakSigmaS::new(clients)),
        };
        let job = Job { s, fd, driver, fps };
        Ok(match algo {
            Algo::Fig2 => {
                // Every process is wrapped in an `Equivocator`; p0
                // equivocates iff the header carries the attack, otherwise
                // every wrapper is an inert shim.
                let procs = fig2_processes(&distinct_proposals(n));
                let procs = equivocator_processes(procs, p0, s.attack, s.armor);
                let check = Check::Agreement { k: n - 1 };
                match layer {
                    Layer::Bare => {
                        job.run(&mut pools.fig2, procs, Simulation::all_correct_decided, check)
                    }
                    Layer::Stubborn => {
                        let procs = stubborn_processes(procs);
                        job.run(
                            &mut pools.stubborn_fig2,
                            procs,
                            Simulation::all_correct_decided,
                            check,
                        )
                    }
                }
            }
            Algo::Fig4 => {
                // Figure 4 has no scripted attack (its fan-outs are already
                // relay-tagged): only the network plan applies.
                let procs = fig4_processes(&distinct_proposals(n));
                let check = Check::Agreement { k: n - k };
                match layer {
                    Layer::Bare => {
                        job.run(&mut pools.fig4, procs, Simulation::all_correct_decided, check)
                    }
                    Layer::Stubborn => {
                        let procs = stubborn_processes(procs);
                        job.run(
                            &mut pools.stubborn_fig4,
                            procs,
                            Simulation::all_correct_decided,
                            check,
                        )
                    }
                }
            }
            Algo::Abd => {
                // Every process is wrapped in a `SplitAckForger`, inert
                // unless the header carries the split-ack attack. The forger
                // is the last replica.
                let procs = abd_processes(clients, n, scripts);
                let last = ProcessId(n as u32 - 1);
                let procs = split_ack_processes(procs, last, s.attack, s.armor);
                // A register emulation never halts; a run is done once every
                // correct client drained its script.
                let done = move |finished: &dyn Fn(ProcessId) -> bool| {
                    clients.iter().all(|p| !pattern.is_correct(p) || finished(p))
                };
                let check = Check::Linearizable;
                match layer {
                    Layer::Bare => {
                        let stop = |sim: &Simulation<SplitAckForger>| {
                            done(&|p| sim.process(p).inner().script_finished())
                        };
                        job.run(&mut pools.abd, procs, stop, check)
                    }
                    Layer::Stubborn => {
                        let stop = |sim: &Simulation<Stubborn<SplitAckForger>>| {
                            done(&|p| sim.process(p).inner().inner().script_finished())
                        };
                        job.run(&mut pools.stubborn_abd, stubborn_processes(procs), stop, check)
                    }
                }
            }
            Algo::Fig6WithoutChange => {
                let procs = (0..n).map(|_| Fig6WithoutChange::new(n)).collect();
                // A recording stops once the crossed leader pair has formed
                // — the stable state that violates anti-Ω's finiteness.
                let crossed = |sim: &Simulation<_>| {
                    let h = sim.trace().emulated_history();
                    h.timeline(p0).final_output() == FdOutput::Leader(p1)
                        && h.timeline(p1).final_output() == FdOutput::Leader(p0)
                };
                job.run(&mut pools.fig6, procs, crossed, Check::AntiOmega)
            }
        })
    }
}

/// A built detector plus how to drive it — the part of a run every
/// process type shares.
struct Job<'s, 'd, 'f> {
    s: &'s Schedule,
    fd: Box<dyn FailureDetector>,
    driver: Driver<'d>,
    fps: Option<&'f mut Vec<u64>>,
}

impl Job<'_, '_, '_> {
    fn run<'p, A>(
        self,
        pool: &'p mut SimPool<A>,
        procs: Vec<A>,
        stop: impl FnMut(&Simulation<A>) -> bool,
        check: Check,
    ) -> Ran<'p>
    where
        A: Automaton + fmt::Debug,
        A::Msg: Corruptible,
    {
        let Job { s, fd, driver, fps } = self;
        let sim = pool.acquire(procs, &s.pattern);
        if !s.faults.is_reliable() {
            sim.set_link_faults(s.faults.clone());
        }
        if !s.adversary.is_honest() {
            sim.set_adversary(s.adversary.clone(), s.armor);
        }
        let outcome = quiet_catch(|| sim.drive(driver, &*fd, stop, fps)).ok();
        let sim: &'p Simulation<A> = sim;
        Ran { outcome, trace: sim.trace(), script: sim.script(), check }
    }
}

// ---- the record / replay driver -----------------------------------------

/// What a driven run produced.
struct RunResult {
    verdict: String,
    executed: Vec<Choice>,
}

thread_local! {
    /// The simulations every record, replay and shrink candidate on this
    /// thread runs in, recycled run over run. `Light` keeps what the
    /// checkers read (decisions, emulated outputs, op events) and skips
    /// the per-step `Step`/`Send` events nobody here reads; fingerprints
    /// are equal at both levels. A run that panicked is rewound like any
    /// other by the next `acquire`.
    static REPRO_POOLS: std::cell::RefCell<Pools> =
        std::cell::RefCell::new(Pools::new(TraceLevel::Light));
}

/// Reconstructs the workload a schedule header names and drives it in
/// this thread's pooled simulations.
fn run_workload(
    s: &Schedule,
    driver: Driver<'_>,
    fps: Option<&mut Vec<u64>>,
) -> Result<RunResult, ReproError> {
    REPRO_POOLS.with_borrow_mut(|pools| run_in(pools, s, driver, fps))
}

/// Reconstructs the workload a schedule header names and drives it in
/// `pools`. Everything the header records — `n`, `k`, `seed`, pattern,
/// faults, adversary plan, attack, armor — plus a driver fully
/// determines the run; the header's own `choices` and `verdict` are not
/// read.
fn run_in(
    pools: &mut Pools,
    s: &Schedule,
    driver: Driver<'_>,
    fps: Option<&mut Vec<u64>>,
) -> Result<RunResult, ReproError> {
    let w = workload(&s.checker).ok_or_else(|| ReproError::UnknownWorkload(s.checker.clone()))?;
    if !w.honors_adversary() && !s.adversary_free() {
        return Err(ReproError::BadParams(format!(
            "workload `{}` does not honor adversary fields; only {BYZ_WORKLOADS:?} do",
            w.name
        )));
    }
    let ran = w.spec.run(s, pools, Layer::Bare, driver, fps)?;
    let verdict = match ran.outcome {
        Some(_) => ran.check.verdict(ran.trace, &s.pattern),
        None => PANIC_VERDICT.to_string(),
    };
    Ok(RunResult { verdict, executed: ran.script.to_vec() })
}

/// Parameters of a fresh recording run.
#[derive(Clone, Debug)]
pub struct RecordRequest {
    /// Workload name.
    pub workload: String,
    /// System size (`None` = workload default).
    pub n: Option<usize>,
    /// Workload parameter `k`.
    pub k: usize,
    /// Scheduler + detector seed.
    pub seed: u64,
    /// Step bound (`None` = workload default).
    pub max_steps: Option<u64>,
}

impl RecordRequest {
    /// A request for `workload` with every other knob at its default.
    pub fn new(workload: &str) -> Self {
        RecordRequest { workload: workload.to_string(), n: None, k: 1, seed: 0, max_steps: None }
    }
}

/// Runs the workload once under the fair scheduler and **captures** a
/// [`Schedule`] iff the checker failed (or the run panicked); `Ok(None)`
/// means the run was clean — nothing to reproduce.
pub fn record(req: &RecordRequest) -> Result<Option<Schedule>, ReproError> {
    Ok(Some(record_any(req)?).filter(|s| s.verdict != "ok"))
}

/// Like [`record`] but captures the schedule **unconditionally** — an
/// `ok` run is returned too (with `verdict: "ok"`). The schedule fuzzer
/// seeds its corpus from these: a clean fair-scheduler trajectory is a
/// legal, strict-replayable starting point for mutation even when the
/// workload has no violation to witness at that seed.
pub fn record_any(req: &RecordRequest) -> Result<Schedule, ReproError> {
    let w =
        workload(&req.workload).ok_or_else(|| ReproError::UnknownWorkload(req.workload.clone()))?;
    let n = req.n.unwrap_or(w.spec.algo.default_n());
    let max_steps = req.max_steps.unwrap_or(w.spec.algo.default_steps());
    w.spec.algo.check(n, req.k)?;
    let checker = w.name.to_string();
    let mut s = Schedule { checker, ..w.env.header(n, req.k, req.seed, max_steps) };
    let rr = run_workload(&s, Driver::Fair { seed: req.seed, max_steps }, None)?;
    s.choices = rr.executed;
    s.verdict = rr.verdict;
    Ok(s)
}

/// [`record`] over seeds `0..seed_tries`, returning the first capture.
/// Deterministic: the ascending seed scan means the same violation is
/// found every time.
pub fn record_first_violation(
    name: &str,
    k: usize,
    seed_tries: u64,
) -> Result<Option<Schedule>, ReproError> {
    let mut req = RecordRequest::new(name);
    req.k = k;
    for seed in 0..seed_tries {
        req.seed = seed;
        if let Some(s) = record(&req)? {
            return Ok(Some(s));
        }
    }
    Ok(None)
}

/// Captures a schedule from an explicit script — the bridge from the
/// exhaustive explorer: feed the violating script of an `ExploreResult`
/// here (with the same pattern/faults the explorer ran under) and the
/// verdict is computed by a strict replay.
pub fn capture_from_script(
    name: &str,
    n: usize,
    k: usize,
    seed: u64,
    pattern: FailurePattern,
    faults: LinkFaultPlan,
    script: Vec<Choice>,
) -> Result<Schedule, ReproError> {
    // The exhaustive explorer runs adversary-free; captures from it are
    // honest-plan schedules by construction.
    let checker = name.to_string();
    let mut s =
        Schedule { checker, pattern, faults, choices: script, ..HONEST.header(n, k, seed, 0) };
    let rr =
        run_workload(&s, Driver::Replay { choices: &s.choices, mode: ReplayMode::Strict }, None)?;
    s.max_steps = rr.executed.len() as u64;
    s.choices = rr.executed;
    s.verdict = rr.verdict;
    Ok(s)
}

/// The outcome of replaying a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// Verdict the replay produced.
    pub verdict: String,
    /// Choices actually executed.
    pub executed: Vec<Choice>,
    /// Whether the replay reproduced the schedule: same verdict, and (in
    /// strict mode) the exact same executed script.
    pub matches: bool,
}

/// Replays a schedule through its registered workload.
pub fn replay(s: &Schedule, mode: ReplayMode) -> Result<ReplayReport, ReproError> {
    let rr = run_workload(s, Driver::Replay { choices: &s.choices, mode }, None)?;
    let matches =
        rr.verdict == s.verdict && (mode == ReplayMode::Lenient || rr.executed == s.choices);
    Ok(ReplayReport { verdict: rr.verdict, executed: rr.executed, matches })
}

/// The outcome of a coverage replay: a [`ReplayReport`]'s data plus the
/// per-step state fingerprint stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FingerprintReplay {
    /// Verdict the replay produced.
    pub verdict: String,
    /// Choices actually executed.
    pub executed: Vec<Choice>,
    /// The state fingerprint after each executed step, in step order
    /// (a panicking run keeps the prefix up to the panicking step).
    pub fingerprints: Vec<u64>,
}

/// Replays a schedule and records the state fingerprint after every
/// executed step — the schedule fuzzer's evaluation probe. It follows
/// exactly the trajectory of [`replay`] in the same mode.
pub fn replay_with_fingerprints(
    s: &Schedule,
    mode: ReplayMode,
) -> Result<FingerprintReplay, ReproError> {
    let mut fingerprints = Vec::new();
    let rr =
        run_workload(s, Driver::Replay { choices: &s.choices, mode }, Some(&mut fingerprints))?;
    Ok(FingerprintReplay { verdict: rr.verdict, executed: rr.executed, fingerprints })
}

/// Shrinks a failing schedule with the delta-debugging engine, using a
/// lenient replay of the *same* workload checker as the reproduction
/// oracle. The accepted canonical form after every mutation is the
/// actually-executed choice sequence, so the final schedule strict-replays
/// exactly. Serial and deterministic — thread count never enters.
pub fn shrink(s: &Schedule) -> Result<(Schedule, ShrinkReport), ReproError> {
    shrink_counting(s, &mut ReplayWork::default())
}

/// Deterministic replay work: how many replays ran and how many steps
/// they executed between them.
#[derive(Debug, Default)]
pub(crate) struct ReplayWork {
    /// Replays that ran (a workload that rejected its parameters runs
    /// none).
    pub(crate) replays: u64,
    /// Steps those replays executed (a panicking step included).
    pub(crate) steps: u64,
}

impl ReplayWork {
    /// Counts one replay that executed `steps` steps.
    pub(crate) fn add(&mut self, steps: usize) {
        self.replays += 1;
        self.steps += steps as u64;
    }
}

/// [`shrink`], adding every candidate replay to `work`.
pub(crate) fn shrink_counting(
    s: &Schedule,
    work: &mut ReplayWork,
) -> Result<(Schedule, ShrinkReport), ReproError> {
    let w = workload(&s.checker).ok_or_else(|| ReproError::UnknownWorkload(s.checker.clone()))?;
    let opts = ShrinkOptions { min_n: w.spec.algo.min_n(s.k), ..ShrinkOptions::default() };
    let target = s.verdict.clone();
    let mut eval = |cand: &Schedule| -> Option<Schedule> {
        let rep = replay(cand, ReplayMode::Lenient).ok()?;
        work.add(rep.executed.len());
        (rep.verdict == target).then(|| Schedule { choices: rep.executed, ..cand.clone() })
    };
    Ok(shrink_schedule(s, &opts, &mut eval))
}

/// One corpus entry's verification outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// File name (not path) of the entry.
    pub file: String,
    /// Whether the entry reproduced exactly.
    pub ok: bool,
    /// The verdict replayed, or what went wrong.
    pub detail: String,
}

impl fmt::Display for CorpusEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", if self.ok { "PASS" } else { "FAIL" }, self.file, self.detail)
    }
}

/// Why a reproducing schedule still witnesses nothing: a corpus entry
/// must record a failure (verdict other than `ok`) reached by at least
/// one scheduled choice.
fn witness_gap(s: &Schedule) -> Option<&'static str> {
    if s.choices.is_empty() {
        Some("the schedule has no choices")
    } else if s.verdict == "ok" {
        Some("the recorded verdict is `ok`")
    } else {
        None
    }
}

fn verify_one(file: &str, text: &str) -> CorpusEntry {
    let s = match Schedule::parse(text) {
        Ok(s) => s,
        Err(e) => {
            return CorpusEntry { file: file.to_string(), ok: false, detail: format!("parse: {e}") }
        }
    };
    match replay(&s, ReplayMode::Strict) {
        Ok(rep) if rep.matches => match witness_gap(&s) {
            None => CorpusEntry {
                file: file.to_string(),
                ok: true,
                detail: format!("reproduced `{}` in {} steps", s.verdict, s.choices.len()),
            },
            Some(gap) => CorpusEntry {
                file: file.to_string(),
                ok: false,
                detail: format!("not a witness: {gap}"),
            },
        },
        Ok(rep) => CorpusEntry {
            file: file.to_string(),
            ok: false,
            detail: if rep.verdict != s.verdict {
                format!("stale: recorded `{}`, replayed `{}`", s.verdict, rep.verdict)
            } else {
                format!(
                    "stale: replay executed {} of {} scripted choices",
                    rep.executed.len(),
                    s.choices.len()
                )
            },
        },
        Err(e) => CorpusEntry { file: file.to_string(), ok: false, detail: e.to_string() },
    }
}

/// Verifies `(file name, file text)` corpus entries, fanning the strict
/// replays over the deterministic [`Sweep`] engine: the report is
/// bitwise identical for every `threads` value (including 0 = all cores).
pub fn verify_corpus(entries: &[(String, String)], threads: usize) -> Vec<CorpusEntry> {
    Sweep::new(threads).run(entries.to_vec(), || {
        |_idx: usize, (file, text): (String, String)| verify_one(&file, &text)
    })
}

/// Reads every `*.schedule` file under `dir` (sorted by name) and
/// verifies the lot.
pub fn verify_corpus_dir(
    dir: &std::path::Path,
    threads: usize,
) -> std::io::Result<Vec<CorpusEntry>> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    files.sort();
    let mut entries = Vec::new();
    for path in files {
        let name = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        entries.push((name, std::fs::read_to_string(&path)?));
    }
    Ok(verify_corpus(&entries, threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pred: impl Fn(&Workload) -> bool) -> impl Iterator<Item = &'static Workload> {
        WORKLOADS.iter().filter(move |w| pred(w))
    }

    fn first_weak(algo: Algo) -> &'static Workload {
        rows(|w| w.spec.algo == algo && w.spec.twin == Twin::Weak).next().expect("a weak twin")
    }

    #[test]
    fn sound_workloads_record_nothing() {
        for w in rows(|w| w.expect_ok) {
            let captured = record(&RecordRequest::new(w.name)).unwrap();
            assert!(captured.is_none(), "{} captured {captured:?}", w.name);
        }
    }

    #[test]
    fn weak_workloads_capture_and_replay_bit_identically() {
        for w in rows(|w| w.spec.twin == Twin::Weak) {
            let name = w.name;
            let s = record_first_violation(name, 1, 64)
                .unwrap()
                .unwrap_or_else(|| panic!("{name}: no violation in 64 seeds"));
            assert!(s.verdict.starts_with("violation:") || s.verdict == PANIC_VERDICT, "{name}");
            let rep = replay(&s, ReplayMode::Strict).unwrap();
            assert!(rep.matches, "{name}: {} vs {}", rep.verdict, s.verdict);
            assert_eq!(rep.executed, s.choices, "{name}");
        }
    }

    #[test]
    fn fig6_without_change_captures_the_finiteness_violation() {
        let w = rows(|w| w.spec.algo == Algo::Fig6WithoutChange).next().unwrap();
        let s = record_first_violation(w.name, 1, 8).unwrap().unwrap();
        assert_eq!(s.verdict, "violation:finiteness");
        assert!(replay(&s, ReplayMode::Strict).unwrap().matches);
    }

    /// The shrinker's lenient replays and the strict corpus replay share
    /// one stop semantics, so every shrunk witness strict-replays.
    #[test]
    fn shrunk_schedules_keep_their_verdict_and_get_small() {
        for w in rows(|w| !w.expect_ok) {
            let captures: Vec<Schedule> = (0..64)
                .filter_map(|seed| {
                    record(&RecordRequest { seed, ..RecordRequest::new(w.name) }).unwrap()
                })
                .take(3)
                .collect();
            assert!(!captures.is_empty(), "{}: no violation in 64 seeds", w.name);
            for s in captures {
                let at = format!("{} seed {}", w.name, s.seed);
                let (min, rep) = shrink(&s).unwrap();
                assert_eq!(min.verdict, s.verdict, "{at}");
                assert!(rep.final_len <= rep.original_len, "{at}: {rep:?}");
                if w.spec.algo == Algo::Abd && w.spec.twin == Twin::Weak {
                    assert!(rep.final_len <= rep.original_len / 4, "{at}: {rep:?}");
                }
                assert!(replay(&min, ReplayMode::Strict).unwrap().matches, "{at}");
            }
        }
    }

    #[test]
    fn unknown_workloads_and_bad_params_are_typed() {
        assert!(matches!(record(&RecordRequest::new("nope")), Err(ReproError::UnknownWorkload(_))));
        let mut req = RecordRequest::new(first_weak(Algo::Fig4).name);
        req.k = 5; // 2k > default n
        assert!(matches!(record(&req), Err(ReproError::BadParams(_))));
    }

    /// `min_n` is exactly the construction floor: the shrinker never
    /// spends candidates on headers the row cannot build.
    #[test]
    fn min_n_is_the_smallest_buildable_size_of_every_row() {
        for w in WORKLOADS {
            for k in [1, 2] {
                let min = w.spec.algo.min_n(k);
                let at = |n: usize| RecordRequest {
                    n: Some(n),
                    k,
                    max_steps: Some(64),
                    ..RecordRequest::new(w.name)
                };
                let built = record_any(&at(min));
                assert!(built.is_ok(), "{} k={k} n={min}: {built:?}", w.name);
                let below = record_any(&at(min - 1));
                assert!(
                    matches!(below, Err(ReproError::BadParams(_))),
                    "{} k={k} n={}: {below:?}",
                    w.name,
                    min - 1
                );
            }
        }
    }

    #[test]
    fn byz_workloads_are_exactly_the_adversarial_rows() {
        let adversarial: Vec<&str> = rows(Workload::honors_adversary).map(|w| w.name).collect();
        assert_eq!(adversarial, BYZ_WORKLOADS);
    }

    #[test]
    fn corpus_verifier_flags_tampered_entries() {
        let s = record_first_violation(first_weak(Algo::Fig2).name, 1, 16).unwrap().unwrap();
        let good = ("good.schedule".to_string(), s.to_text());
        let mut tampered = s.clone();
        tampered.verdict = "ok".to_string();
        let bad = ("bad.schedule".to_string(), tampered.to_text());
        let junk = ("junk.schedule".to_string(), "not a schedule".to_string());
        // Two entries that reproduce exactly but witness nothing: a clean
        // run of a sound workload, and a schedule with no choices.
        let sound_name = rows(|w| w.expect_ok).next().unwrap().name;
        let sound = record_any(&RecordRequest::new(sound_name)).unwrap();
        assert_eq!(sound.verdict, "ok");
        let clean = ("clean.schedule".to_string(), sound.to_text());
        let empty = Schedule { choices: Vec::new(), verdict: "ok".to_string(), ..s.clone() };
        let empty = ("empty.schedule".to_string(), empty.to_text());
        let report = verify_corpus(&[good, bad, junk, clean, empty], 1);
        assert!(report[0].ok, "{}", report[0]);
        assert!(!report[1].ok && report[1].detail.contains("stale"), "{}", report[1]);
        assert!(!report[2].ok && report[2].detail.contains("parse"), "{}", report[2]);
        for (entry, gap) in report[3..].iter().zip(["verdict is `ok`", "has no choices"]) {
            assert!(!entry.ok && entry.detail.starts_with("not a witness"), "{entry}");
            assert!(entry.detail.contains(gap), "{entry}");
        }
    }

    /// The schedules of `tests/corpus`, in file-name order.
    fn corpus() -> Vec<Schedule> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
            .collect();
        files.sort();
        let corpus: Vec<Schedule> = files
            .iter()
            .map(|p| Schedule::parse(&std::fs::read_to_string(p).unwrap()).unwrap())
            .collect();
        assert_eq!(corpus.len(), 12);
        corpus
    }

    /// A `Light` run hands each step a pending detector query, run only
    /// if the automaton reads the output; a `Full` run queries before
    /// every step (its trace records the output). Detectors are pure, so
    /// the two must be one run: for every registered workload (a fresh
    /// fair recording at two seeds) and every corpus schedule, strict
    /// replays at both levels execute the same script, reach the same
    /// verdict, record the same register operations and pass through the
    /// same states.
    #[test]
    fn lazy_light_replays_equal_eager_full_replays() {
        let replay_at = |level: TraceLevel, s: &Schedule| {
            let w = workload(&s.checker).unwrap();
            let mut fps = Vec::new();
            let driver = Driver::Replay { choices: &s.choices, mode: ReplayMode::Strict };
            let mut pools = Pools::new(level);
            let ran = w.spec.run(s, &mut pools, Layer::Bare, driver, Some(&mut fps)).unwrap();
            let verdict = match ran.outcome {
                Some(_) => ran.check.verdict(ran.trace, &s.pattern),
                None => PANIC_VERDICT.to_string(),
            };
            (verdict, ran.script.to_vec(), ran.trace.op_records(), fps)
        };
        let mut schedules = corpus();
        for w in WORKLOADS {
            for seed in [0, 1] {
                schedules.push(
                    record_any(&RecordRequest { seed, ..RecordRequest::new(w.name) }).unwrap(),
                );
            }
        }
        let mut ops = 0;
        for s in &schedules {
            let light = replay_at(TraceLevel::Light, s);
            let full = replay_at(TraceLevel::Full, s);
            let at = format!("{} seed {} ({} choices)", s.checker, s.seed, s.choices.len());
            assert_eq!(light.0, s.verdict, "{at}");
            assert_eq!(light.1, s.choices, "{at}");
            assert_eq!(light, full, "{at}");
            ops += light.2.len();
        }
        assert!(ops > 0, "the register workloads record operations");
    }

    /// Replays go through one recycled `Light` pool per thread; they must
    /// be indistinguishable from fresh `Full` runs — across workloads,
    /// for the fuzzer's mutated offspring, and after a panicking run.
    #[test]
    fn pooled_light_replays_match_fresh_full_runs() {
        let check = |s: &Schedule, mode: ReplayMode| {
            let pooled = replay_with_fingerprints(s, mode).unwrap();
            let mut fps = Vec::new();
            let driver = Driver::Replay { choices: &s.choices, mode };
            let fresh =
                run_in(&mut Pools::new(TraceLevel::Full), s, driver, Some(&mut fps)).unwrap();
            let at = format!("{} ({mode:?}, {} choices)", s.checker, s.choices.len());
            assert_eq!(pooled.verdict, fresh.verdict, "{at}");
            assert_eq!(pooled.executed, fresh.executed, "{at}");
            assert_eq!(pooled.fingerprints, fps, "{at}");
        };
        let corpus = corpus();
        let mut rng = sih_runtime::FuzzRng::new(33);
        let mut offspring = 0;
        for s in &corpus {
            check(s, ReplayMode::Strict);
            let allow = BYZ_WORKLOADS.contains(&s.checker.as_str());
            let mcfg = sih_runtime::MutatorConfig::for_schedule(s, allow);
            let ops = sih_runtime::MutOp::ALL;
            let mut made = 0;
            for _ in 0..200 {
                let op = ops[rng.below(ops.len() as u64) as usize];
                if let Some(m) = sih_runtime::mutate(s, op, &mcfg, &mut rng) {
                    check(&m, ReplayMode::Lenient);
                    made += 1;
                    if made == 20 {
                        break;
                    }
                }
            }
            offspring += made;
        }
        assert!(offspring >= 200, "only {offspring} offspring");
        // The panic witness, then a clean run of the same algorithm — the
        // same pooled simulation — on this thread.
        let algo = |s: &Schedule| workload(&s.checker).map(|w| w.spec.algo);
        let witness = corpus.iter().find(|s| s.verdict == PANIC_VERDICT).unwrap();
        let clean =
            corpus.iter().find(|s| algo(s) == algo(witness) && s.verdict != PANIC_VERDICT).unwrap();
        check(witness, ReplayMode::Strict);
        check(clean, ReplayMode::Strict);
    }

    #[test]
    fn corpus_verification_is_thread_count_independent() {
        let s = record_first_violation(first_weak(Algo::Fig2).name, 1, 16).unwrap().unwrap();
        let entries: Vec<(String, String)> =
            (0..6).map(|i| (format!("e{i}.schedule"), s.to_text())).collect();
        let one = verify_corpus(&entries, 1);
        let two = verify_corpus(&entries, 2);
        let eight = verify_corpus(&entries, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }
}
