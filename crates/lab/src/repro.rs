//! Counterexample harness: record, shrink, replay (`lab repro`).
//!
//! This module binds the serializable [`Schedule`] artifact of
//! `sih_runtime::repro` to concrete **workloads** — named, fully
//! reconstructible configurations of one algorithm + one detector + one
//! checker. A schedule names its workload (`checker:` line), so replaying
//! it needs nothing but the schedule file: the registry rebuilds the
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
    check_k_agreement_safety, distinct_proposals, equivocator_processes, fig2_processes,
    fig4_processes,
};
use sih_detectors::{check_anti_omega, Sigma, SigmaK, SigmaS, WeakSigma, WeakSigmaK, WeakSigmaS};
use sih_model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailureDetector, FailurePattern, FdOutput,
    LinkFaultPlan, OpKind, ProcessId, ProcessSet, Time, Value,
};
use sih_reductions::Fig6WithoutChange;
use sih_registers::{
    abd_processes, check_linearizable, split_ack_processes, two_writer_workload,
    LinearizabilityViolation, SplitAckForger,
};
use sih_runtime::sweep::Sweep;
pub use sih_runtime::ReplayMode;
use sih_runtime::{
    shrink_schedule, Automaton, Choice, Corruptible, Driver, Schedule, ShrinkOptions, ShrinkReport,
    Simulation,
};
use std::fmt;

/// The verdict token of a run that tripped an engine or automaton panic.
pub const PANIC_VERDICT: &str = "panic";

/// One registered workload: a named, reconstructible configuration the
/// schedule format can reference.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Registry name (the `checker:` line of schedules).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Whether a fresh fair-scheduler run is expected to end `ok`
    /// (sound detector) or to witness a violation (weakened twin).
    pub expect_ok: bool,
    /// Default system size for `record`.
    pub default_n: usize,
    /// Default step bound for `record`.
    pub default_steps: u64,
}

/// The workload registry. Names here are the only valid `checker:`
/// values; `sih-analysis` cross-checks the committed corpus against this
/// list (by source inspection — the analyzer is dependency-free).
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig2-sigma",
        summary: "Fig. 2 (n-1)-set agreement from sound σ (R1, holds)",
        expect_ok: true,
        default_n: 3,
        default_steps: 4_000,
    },
    Workload {
        name: "fig2-weak-sigma",
        summary: "Fig. 2 under σ with intersection disabled (R1 negative witness)",
        expect_ok: false,
        default_n: 3,
        default_steps: 4_000,
    },
    Workload {
        name: "fig4-sigma-k",
        summary: "Fig. 4 (n-k)-set agreement from sound σ_2k (R4, holds)",
        expect_ok: true,
        default_n: 4,
        default_steps: 4_000,
    },
    Workload {
        name: "fig4-weak-sigma-k",
        summary: "Fig. 4 under σ_2k with intersection disabled (R4 negative witness)",
        expect_ok: false,
        default_n: 4,
        default_steps: 4_000,
    },
    Workload {
        name: "abd-sigma-s",
        summary: "ABD register in S from sound Σ_S (Prop. 1 route, holds)",
        expect_ok: true,
        default_n: 4,
        default_steps: 6_000,
    },
    Workload {
        name: "abd-weak-quorum",
        summary: "ABD register with quorum intersection disabled (stale read)",
        expect_ok: false,
        default_n: 4,
        default_steps: 6_000,
    },
    Workload {
        name: "fig6-without-change",
        summary: "Fig. 6 minus the CHANGE handshake: anti-Ω breaks (R10 witness)",
        expect_ok: false,
        default_n: 4,
        default_steps: 60_000,
    },
    Workload {
        name: "fig2-byz-perturb",
        summary: "Fig. 2 under a value-perturbing network adversary (validity attack)",
        expect_ok: false,
        default_n: 3,
        default_steps: 4_000,
    },
    Workload {
        name: "fig2-byz-equivocate",
        summary: "Fig. 2 with p0 equivocating per recipient (agreement/validity attack)",
        expect_ok: false,
        default_n: 3,
        default_steps: 4_000,
    },
    Workload {
        name: "fig4-byz-perturb",
        summary: "Fig. 4 under a value-perturbing network adversary (validity attack)",
        expect_ok: false,
        default_n: 4,
        default_steps: 4_000,
    },
    Workload {
        name: "abd-byz-perturb",
        summary: "ABD under timestamp-perturbing links (write order scrambled)",
        expect_ok: false,
        default_n: 4,
        default_steps: 6_000,
    },
    Workload {
        name: "abd-byz-forge-ack",
        summary: "ABD under fabricated quorum acks in flight (stale-future read)",
        expect_ok: false,
        default_n: 4,
        default_steps: 6_000,
    },
    Workload {
        name: "abd-byz-split-ack",
        summary: "ABD with one replica forging split acks per client (atomicity attack)",
        expect_ok: false,
        default_n: 4,
        default_steps: 6_000,
    },
];

/// The workloads whose reconstruction honors the schedule's adversary
/// fields. Every other workload rejects a non-default adversary plan,
/// attack or armor rung instead of silently ignoring it.
pub const BYZ_WORKLOADS: &[&str] = &[
    "fig2-byz-perturb",
    "fig2-byz-equivocate",
    "fig4-byz-perturb",
    "abd-byz-perturb",
    "abd-byz-forge-ack",
    "abd-byz-split-ack",
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The smallest `n` the workload's claim still covers — the shrinker's
/// `n`-reduction floor.
pub fn min_n(name: &str, k: usize) -> usize {
    match name {
        "fig4-sigma-k" | "fig4-weak-sigma-k" => (2 * k).max(2),
        _ => 2,
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

/// What a driven run produced.
struct RunResult {
    verdict: String,
    executed: Vec<Choice>,
}

// ---- quiet panic capture ------------------------------------------------

thread_local! {
    static SILENCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static INSTALL_HOOK: std::sync::Once = std::sync::Once::new();

/// Runs `f`, catching panics without letting the default hook spam
/// stderr. The replacement hook is installed once and delegates to the
/// previous hook for every thread that is not inside `quiet_catch`, so
/// unrelated panics keep their backtraces.
pub(crate) fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
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

// ---- the generic driver -------------------------------------------------

/// Builds the simulation under the schedule's crash pattern, link-fault
/// plan and adversary, drives it per `driver` (pushing per-step
/// fingerprints into `fingerprints`, if given), and computes the verdict.
/// Panics anywhere in the stepped region (illegal strict choice,
/// automaton `expect`, checker assertion) become [`PANIC_VERDICT`]; the
/// executed script is still meaningful because the engine records each
/// choice *before* stepping the automaton.
fn drive<A, D>(
    s: &Schedule,
    procs: Vec<A>,
    fd: &D,
    driver: Driver<'_>,
    fingerprints: Option<&mut Vec<u64>>,
    stop: impl FnMut(&Simulation<A>) -> bool,
    verdict: impl FnOnce(&Simulation<A>) -> String,
) -> RunResult
where
    A: Automaton + fmt::Debug,
    A::Msg: Corruptible,
    D: FailureDetector + ?Sized,
{
    let mut sim = Simulation::new(procs, s.pattern.clone());
    if !s.faults.is_reliable() {
        sim.set_link_faults(s.faults.clone());
    }
    if !s.adversary.is_honest() {
        sim.set_adversary(s.adversary.clone(), s.armor);
    }
    let stepped = quiet_catch(std::panic::AssertUnwindSafe(|| {
        sim.drive(driver, fd, stop, fingerprints);
    }));
    let verdict = match stepped {
        Ok(()) => verdict(&sim),
        Err(()) => PANIC_VERDICT.to_string(),
    };
    RunResult { verdict, executed: sim.script().to_vec() }
}

fn agreement_verdict<A: Automaton>(sim: &Simulation<A>, n: usize, k: usize) -> String {
    match check_k_agreement_safety(sim.trace(), &distinct_proposals(n), k) {
        Ok(()) => "ok".to_string(),
        Err(v) => format!("violation:{}", v.property),
    }
}

fn linearizability_verdict<A: Automaton>(sim: &Simulation<A>) -> String {
    match check_linearizable(&sim.trace().op_records(), None) {
        Ok(()) => "ok".to_string(),
        Err(LinearizabilityViolation::NotLinearizable { .. }) => {
            "violation:not-linearizable".to_string()
        }
        Err(LinearizabilityViolation::HistoryTooLarge { .. }) => {
            "violation:history-too-large".to_string()
        }
        Err(LinearizabilityViolation::Incomplete { .. }) => "violation:incomplete".to_string(),
    }
}

fn anti_omega_verdict<A: Automaton>(sim: &Simulation<A>, pattern: &FailurePattern) -> String {
    match check_anti_omega(sim.trace().emulated_history(), pattern) {
        Ok(()) => "ok".to_string(),
        Err(v) => format!("violation:{}", v.property),
    }
}

/// The fixed register workload: `p0` writes once, `p1` reads repeatedly
/// (long enough that late reads start after the write returned).
fn abd_scripts() -> (ProcessSet, Vec<Vec<OpKind>>) {
    let s: ProcessSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
    let scripts = vec![vec![OpKind::Write(Value(7))], vec![OpKind::Read; 6]];
    (s, scripts)
}

fn first_ids(count: usize) -> ProcessSet {
    (0..count as u32).map(ProcessId).collect()
}

/// Reconstructs the workload a schedule header names and drives it.
/// Everything the header records — `n`, `k`, `seed`, pattern, faults,
/// adversary plan, attack, armor — plus a driver fully determines the
/// run; the header's own `choices` and `verdict` are not read.
fn run_workload(
    s: &Schedule,
    driver: Driver<'_>,
    fps: Option<&mut Vec<u64>>,
) -> Result<RunResult, ReproError> {
    let (name, n, k, seed, pattern) = (s.checker.as_str(), s.n, s.k, s.seed, &s.pattern);
    if pattern.n() != n || s.faults.n() != n || s.adversary.n() != n {
        return Err(ReproError::BadParams(format!(
            "n mismatch: n={n}, pattern over {}, faults over {}, adversary over {}",
            pattern.n(),
            s.faults.n(),
            s.adversary.n()
        )));
    }
    if !BYZ_WORKLOADS.contains(&name) && !s.adversary_free() {
        return Err(ReproError::BadParams(format!(
            "workload `{name}` does not honor adversary fields; only {BYZ_WORKLOADS:?} do"
        )));
    }
    match name {
        "fig2-sigma" | "fig2-weak-sigma" | "fig2-byz-perturb" | "fig2-byz-equivocate" => {
            if n < 2 {
                return Err(ReproError::BadParams(format!("fig2 needs n >= 2, got {n}")));
            }
            // Every process is wrapped in an `Equivocator`; p0 equivocates
            // iff the schedule carries the attack (the shrinker may have
            // dropped it), otherwise every wrapper is an inert shim.
            let procs = equivocator_processes(
                fig2_processes(&distinct_proposals(n)),
                ProcessId(0),
                s.attack,
                s.armor,
            );
            let verdict = |sim: &Simulation<_>| agreement_verdict(sim, n, n - 1);
            if name == "fig2-weak-sigma" {
                let fd = WeakSigma::new(ProcessId(0), ProcessId(1));
                Ok(drive(s, procs, &fd, driver, fps, |_| false, verdict))
            } else {
                let fd = Sigma::new(ProcessId(0), ProcessId(1), pattern, seed);
                Ok(drive(s, procs, &fd, driver, fps, |_| false, verdict))
            }
        }
        "fig4-sigma-k" | "fig4-weak-sigma-k" | "fig4-byz-perturb" => {
            if k < 1 || 2 * k > n {
                return Err(ReproError::BadParams(format!(
                    "fig4 needs 1 <= k and 2k <= n, got k={k}, n={n}"
                )));
            }
            let active = first_ids(2 * k);
            let procs = fig4_processes(&distinct_proposals(n));
            let verdict = move |sim: &Simulation<_>| agreement_verdict(sim, n, n - k);
            if name == "fig4-weak-sigma-k" {
                let fd = WeakSigmaK::new(active);
                Ok(drive(s, procs, &fd, driver, fps, |_| false, verdict))
            } else {
                let fd = SigmaK::new(active, pattern, seed);
                Ok(drive(s, procs, &fd, driver, fps, |_| false, verdict))
            }
        }
        "abd-sigma-s" | "abd-weak-quorum" | "abd-byz-perturb" | "abd-byz-forge-ack"
        | "abd-byz-split-ack" => {
            if n < 2 {
                return Err(ReproError::BadParams(format!("abd needs n >= 2, got {n}")));
            }
            let (clients, scripts) =
                if name == "abd-byz-perturb" { two_writer_workload() } else { abd_scripts() };
            // Every process is wrapped in a `SplitAckForger`, inert unless
            // the schedule carries the split-ack attack. The forger is the
            // last replica — never one of the clients.
            let procs = split_ack_processes(
                abd_processes(clients, n, scripts),
                ProcessId(n as u32 - 1),
                s.attack,
                s.armor,
            );
            // A register emulation never halts; a recording run is done
            // once both clients drained their scripts.
            let done = move |sim: &Simulation<SplitAckForger>| {
                clients.iter().all(|p| sim.process(p).inner().script_finished())
            };
            let verdict = |sim: &Simulation<_>| linearizability_verdict(sim);
            if name == "abd-weak-quorum" {
                let fd = WeakSigmaS::new(clients);
                Ok(drive(s, procs, &fd, driver, fps, done, verdict))
            } else {
                let fd = SigmaS::new(clients, pattern, seed);
                Ok(drive(s, procs, &fd, driver, fps, done, verdict))
            }
        }
        "fig6-without-change" => {
            if n < 2 {
                return Err(ReproError::BadParams(format!("fig6 needs n >= 2, got {n}")));
            }
            let procs = (0..n).map(|_| Fig6WithoutChange::new(n)).collect();
            let fd = Sigma::new(ProcessId(0), ProcessId(1), pattern, seed);
            // Recording stops once the crossed leader pair has formed —
            // the stable state that violates anti-Ω's finiteness.
            let done = |sim: &Simulation<_>| {
                let h = sim.trace().emulated_history();
                h.timeline(ProcessId(0)).final_output() == FdOutput::Leader(ProcessId(1))
                    && h.timeline(ProcessId(1)).final_output() == FdOutput::Leader(ProcessId(0))
            };
            let verdict = |sim: &Simulation<_>| anti_omega_verdict(sim, pattern);
            Ok(drive(s, procs, &fd, driver, fps, done, verdict))
        }
        other => Err(ReproError::UnknownWorkload(other.to_string())),
    }
}

/// The crash pattern a fresh `record` run of the workload uses.
pub fn default_pattern(name: &str, n: usize) -> FailurePattern {
    match name {
        // Fig. 6's crossed pair needs the non-actives to announce and
        // crash; σ then stabilizes to {p0} at p0.
        "fig6-without-change" if n >= 4 => FailurePattern::builder(n)
            .crash_at(ProcessId(2), Time(40))
            .crash_at(ProcessId(3), Time(40))
            .build(),
        _ => FailurePattern::all_correct(n),
    }
}

/// The link-fault plan a fresh `record` run of the workload uses.
pub fn default_faults(name: &str, n: usize) -> LinkFaultPlan {
    match name {
        // The planted quorum violation: p0's writeback traffic never
        // reaches the other replicas, so a singleton-quorum read at p1 is
        // guaranteed stale (with sound Σ_S the write could not have
        // completed without a real quorum, so this plan is harmless to
        // the sound twin).
        "abd-weak-quorum" => {
            let mut b = LinkFaultPlan::builder(n);
            for q in 1..n as u32 {
                b = b.drop_link(ProcessId(0), ProcessId(q), Time::ZERO, None);
            }
            b.build()
        }
        _ => LinkFaultPlan::reliable(n),
    }
}

/// The adversary configuration — mutation plan, scripted attack, armor —
/// a fresh `record` run of the workload uses. Honest workloads get the
/// honest plan; the byzantine workloads get their canonical attack at
/// armor rung 0, so the violation they exist to witness actually lands.
pub fn default_adversary(name: &str, n: usize) -> (AdversaryPlan, Option<AttackSpec>, Armor) {
    let honest = (AdversaryPlan::honest(n), None, Armor::NONE);
    match name {
        // Perturbing p0's traffic to p1 injects a never-proposed value
        // into the decision flood: a validity violation at p1.
        "fig2-byz-perturb" | "fig4-byz-perturb" => (
            AdversaryPlan::builder(n)
                .perturb(ProcessId(0), ProcessId(1), 100, Time::ZERO, None)
                .build(),
            None,
            Armor::NONE,
        ),
        // p0 tells odd peers the story `x = 99`: a decision flood with a
        // value nobody proposed.
        "fig2-byz-equivocate" => (
            AdversaryPlan::honest(n),
            Some(AttackSpec { kind: AttackKind::Equivocate, x: 99 }),
            Armor::NONE,
        ),
        // Timestamp perturbation on every link scrambles the apparent
        // order of the two writes; some seed's read observes the flip.
        "abd-byz-perturb" => {
            let mut b = AdversaryPlan::builder(n);
            for src in 0..n as u32 {
                for dst in 0..n as u32 {
                    if src != dst {
                        b = b.perturb(ProcessId(src), ProcessId(dst), 100, Time::ZERO, None);
                    }
                }
            }
            (b.build(), None, Armor::NONE)
        }
        // A fabricated quorum ack from the last replica to the reader
        // carries a future timestamp; its value wins the read's max.
        "abd-byz-forge-ack" if n >= 2 => (
            AdversaryPlan::builder(n)
                .forge_ack(ProcessId(n as u32 - 1), ProcessId(1), 77, Time::ZERO, None)
                .build(),
            None,
            Armor::NONE,
        ),
        // The last replica answers odd clients with an invented view.
        "abd-byz-split-ack" => (
            AdversaryPlan::honest(n),
            Some(AttackSpec { kind: AttackKind::SplitAck, x: 55 }),
            Armor::NONE,
        ),
        _ => honest,
    }
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
    let n = req.n.unwrap_or(w.default_n);
    let max_steps = req.max_steps.unwrap_or(w.default_steps);
    let (adversary, attack, armor) = default_adversary(w.name, n);
    let mut s = Schedule {
        checker: w.name.to_string(),
        n,
        k: req.k,
        seed: req.seed,
        max_steps,
        pattern: default_pattern(w.name, n),
        faults: default_faults(w.name, n),
        adversary,
        attack,
        armor,
        choices: Vec::new(),
        verdict: String::new(),
    };
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
    let mut s = Schedule {
        checker: name.to_string(),
        n,
        k,
        seed,
        max_steps: 0,
        pattern,
        faults,
        adversary: AdversaryPlan::honest(n),
        attack: None,
        armor: Armor::NONE,
        choices: script,
        verdict: String::new(),
    };
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
    workload(&s.checker).ok_or_else(|| ReproError::UnknownWorkload(s.checker.clone()))?;
    let opts = ShrinkOptions { min_n: min_n(&s.checker, s.k), ..ShrinkOptions::default() };
    let target = s.verdict.clone();
    let mut eval = |cand: &Schedule| -> Option<Schedule> {
        let rep = replay(cand, ReplayMode::Lenient).ok()?;
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

fn verify_one(file: &str, text: &str) -> CorpusEntry {
    let s = match Schedule::parse(text) {
        Ok(s) => s,
        Err(e) => {
            return CorpusEntry { file: file.to_string(), ok: false, detail: format!("parse: {e}") }
        }
    };
    match replay(&s, ReplayMode::Strict) {
        Ok(rep) if rep.matches => CorpusEntry {
            file: file.to_string(),
            ok: true,
            detail: format!("reproduced `{}` in {} steps", s.verdict, s.choices.len()),
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
    verify_corpus_entries(entries.to_vec(), threads)
}

fn verify_corpus_entries(entries: Vec<(String, String)>, threads: usize) -> Vec<CorpusEntry> {
    Sweep::new(threads)
        .run(entries, || |_idx: usize, (file, text): (String, String)| verify_one(&file, &text))
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
    Ok(verify_corpus_entries(entries, threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_workloads_record_nothing() {
        for name in ["fig2-sigma", "fig4-sigma-k", "abd-sigma-s"] {
            let captured = record(&RecordRequest::new(name)).unwrap();
            assert!(captured.is_none(), "{name} captured {captured:?}");
        }
    }

    #[test]
    fn weak_workloads_capture_and_replay_bit_identically() {
        for name in ["fig2-weak-sigma", "fig4-weak-sigma-k", "abd-weak-quorum"] {
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
        let s = record_first_violation("fig6-without-change", 1, 8).unwrap().unwrap();
        assert_eq!(s.verdict, "violation:finiteness");
        assert!(replay(&s, ReplayMode::Strict).unwrap().matches);
    }

    /// The shrinker's lenient replays and the strict corpus replay share
    /// one stop semantics, so every shrunk witness strict-replays.
    #[test]
    fn shrunk_schedules_keep_their_verdict_and_get_small() {
        for w in WORKLOADS.iter().filter(|w| !w.expect_ok) {
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
                if w.name == "abd-weak-quorum" {
                    assert!(rep.final_len <= rep.original_len / 4, "{at}: {rep:?}");
                }
                assert!(replay(&min, ReplayMode::Strict).unwrap().matches, "{at}");
            }
        }
    }

    #[test]
    fn unknown_workloads_and_bad_params_are_typed() {
        assert!(matches!(record(&RecordRequest::new("nope")), Err(ReproError::UnknownWorkload(_))));
        let mut req = RecordRequest::new("fig4-weak-sigma-k");
        req.k = 5; // 2k > default n
        assert!(matches!(record(&req), Err(ReproError::BadParams(_))));
    }

    #[test]
    fn corpus_verifier_flags_tampered_entries() {
        let s = record_first_violation("fig2-weak-sigma", 1, 16).unwrap().unwrap();
        let good = ("good.schedule".to_string(), s.to_text());
        let mut tampered = s.clone();
        tampered.verdict = "ok".to_string();
        let bad = ("bad.schedule".to_string(), tampered.to_text());
        let junk = ("junk.schedule".to_string(), "not a schedule".to_string());
        let report = verify_corpus(&[good, bad, junk], 1);
        assert!(report[0].ok, "{}", report[0]);
        assert!(!report[1].ok && report[1].detail.contains("stale"), "{}", report[1]);
        assert!(!report[2].ok && report[2].detail.contains("parse"), "{}", report[2]);
    }

    #[test]
    fn corpus_verification_is_thread_count_independent() {
        let s = record_first_violation("fig2-weak-sigma", 1, 16).unwrap().unwrap();
        let entries: Vec<(String, String)> =
            (0..6).map(|i| (format!("e{i}.schedule"), s.to_text())).collect();
        let one = verify_corpus(&entries, 1);
        let two = verify_corpus(&entries, 2);
        let eight = verify_corpus(&entries, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }
}
