//! The four workloads: how each builds its inputs from a seed, runs them
//! through the repository's public API, and checks the result.
//!
//! One *unit* is one pass over a workload's fixed input. Every unit runs
//! in three parts: set-up (builds the inputs; timed as `setup_s`), the
//! timed region (`wall_s`), and the correctness gate (untimed unless it
//! is part of the check the workload stands for). A traced unit runs the
//! same input through the transparent wrappers of [`crate::probe`] and
//! additionally reports per-layer metrics.

use crate::probe::{built, timed, Busy, Spans, Timed, TimedFd};
use sih::pipeline::{run_register_workload_pooled, RegisterPool};
use sih_agreement::{check_k_agreement_safety, fig2_processes, Fig2SetAgreement};
use sih_detectors::{Sigma, SigmaS};
use sih_lab::repro::{replay, replay_with_fingerprints, ReplayMode, BYZ_WORKLOADS};
use sih_lab::{run_fuzz_bench, FuzzBenchReport, FuzzLabConfig};
use sih_model::{FailurePattern, NoDetector, OpKind, OpRecord, ProcessId, ProcessSet, Value};
use sih_registers::{
    abd_processes, abd_processes_with_rule, check_linearizable, AbdRegister,
    LinearizabilityViolation, QuorumRule, WorkloadSpec,
};
use sih_runtime::{
    explore_with, fnv1a_64, Automaton, Coverage, ExploreConfig, ExploreResult, FairScheduler,
    Fnv64, FuzzRng, MutOp, MutatorConfig, RunOutcome, SimPool, Simulation, Trace, TraceLevel,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Source-DPOR plus dedup exploration of Figure 2.
    ExploreFig2,
    /// Coverage-guided schedule fuzzing of the weakened twins.
    FuzzWeak,
    /// Majority-quorum ABD at n = 10⁵ through the event-driven runner.
    ScaleAbd,
    /// Many small ABD histories, each checked for linearizability.
    RegisterLin,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::ExploreFig2, Workload::FuzzWeak, Workload::ScaleAbd, Workload::RegisterLin];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreFig2 => "explore-fig2",
            Workload::FuzzWeak => "fuzz-weak",
            Workload::ScaleAbd => "scale-abd",
            Workload::RegisterLin => "register-lin",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::FULL`] is the benchmark; [`Size::TOY`] keeps the
/// benchmark's own tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Figure 2 system size.
    pub explore_n: usize,
    /// Figure 2 exploration depth.
    pub explore_depth: usize,
    /// Fuzz campaigns per unit, each with its own seed. Several short
    /// campaigns instead of one long one keep a unit's cost close to the
    /// same for every benchmark seed.
    pub fuzz_campaigns: u64,
    /// Schedule budget of each campaign.
    pub fuzz_budget: u64,
    /// ABD system size.
    pub scale_n: usize,
    /// Register histories per unit.
    pub histories: u64,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        explore_n: 4,
        explore_depth: 7,
        fuzz_campaigns: 8,
        fuzz_budget: 256,
        scale_n: 100_000,
        histories: 200,
    };

    /// Toy sizes for tests.
    pub const TOY: Size = Size {
        explore_n: 4,
        explore_depth: 4,
        fuzz_campaigns: 1,
        fuzz_budget: 64,
        scale_n: 1_000,
        histories: 10,
    };
}

/// Processes per register history.
const REGISTER_N: usize = 7;
/// Operations per process in a register history.
const REGISTER_OPS_PER_PROCESS: usize = 8;
/// Completed operations every register history must have.
const REGISTER_OPS: usize = REGISTER_N * REGISTER_OPS_PER_PROCESS;
/// Step cap of one register history.
const REGISTER_MAX_STEPS: u64 = 200_000;

/// Deterministic counters of one unit, the determinism gate's input.
pub type Counters = Vec<(&'static str, u64)>;

/// What one unit did.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// Seconds spent building the inputs.
    pub setup_s: f64,
    /// Seconds in the timed region.
    pub wall_s: f64,
    /// Deterministic counters.
    pub counters: Counters,
    /// Items the correctness gate judged (explorations, campaigns,
    /// instances or histories).
    pub attempted: u64,
    /// Why each failed item failed.
    pub failures: Vec<String>,
    /// Milliseconds per register history, simulation plus check.
    pub history_ms: Vec<f64>,
    /// Milliseconds per linearizability check (traced units only).
    pub check_ms: Vec<f64>,
    /// Microseconds per strict corpus replay (traced units only).
    pub replay_us: Vec<f64>,
    /// Per-layer metrics (traced units only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs one unit of `w` at `seed`; traced when `spans` is given.
pub fn run_unit(w: Workload, seed: u64, size: &Size, spans: Option<&mut Spans>) -> Unit {
    match (w, spans) {
        (Workload::ExploreFig2, None) => explore_plain(seed, size),
        (Workload::ExploreFig2, Some(sp)) => explore_traced(seed, size, sp),
        (Workload::FuzzWeak, sp) => fuzz_unit(seed, size, sp),
        (Workload::ScaleAbd, None) => scale_plain(seed, size),
        (Workload::ScaleAbd, Some(sp)) => scale_traced(seed, size, sp),
        (Workload::RegisterLin, None) => register_plain(seed, size),
        (Workload::RegisterLin, Some(sp)) => register_traced(seed, size, sp),
    }
}

/// SplitMix64 of `seed` and `i`: independent sub-seeds from one seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

// ---------------------------------------------------------------- explore

/// Figure 2 inputs: all correct, `Sigma(p0, p1)` sampled from `seed`, and
/// a seed-chosen permutation of the proposals `0..n` (small values, so
/// the `Debug` encoding has the same length for every seed).
struct ExploreInput {
    pattern: FailurePattern,
    sigma: Sigma,
    proposals: Vec<Value>,
    procs: Vec<Fig2SetAgreement>,
}

fn explore_input(seed: u64, n: usize) -> ExploreInput {
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed);
    let mut proposals: Vec<Value> = (0..n as u64).map(Value).collect();
    for i in (1..n).rev() {
        proposals.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    let procs = fig2_processes(&proposals);
    ExploreInput { pattern, sigma, proposals, procs }
}

/// One checked state in `FP_SAMPLE` is fingerprinted directly in a traced
/// exploration.
const FP_SAMPLE: u64 = 16;

fn explore_config(size: &Size) -> ExploreConfig {
    ExploreConfig::new(size.explore_depth).dpor(true)
}

fn explore_gate(unit: &mut Unit, res: std::thread::Result<ExploreResult>) -> Option<ExploreResult> {
    unit.attempted = 1;
    match res {
        Err(p) => {
            unit.failures.push(format!("exploration panicked: {}", panic_message(&*p)));
            None
        }
        Ok(r) => {
            if let Some((script, msg)) = &r.violation {
                unit.failures.push(format!("violation after {} steps: {msg}", script.len()));
            }
            unit.counters = vec![
                ("explore.states", r.states),
                ("explore.terminals", r.terminals),
                ("explore.truncated", r.truncated),
                ("explore.deduped", r.deduped),
                ("explore.pruned", r.pruned),
                ("explore.races", r.races),
                ("explore.table_bytes", r.table_bytes),
            ];
            Some(r)
        }
    }
}

fn explore_plain(seed: u64, size: &Size) -> Unit {
    let k = size.explore_n - 1;
    let ((sim, sigma, proposals), setup_ns) = built(|| {
        let ExploreInput { pattern, sigma, proposals, procs } = explore_input(seed, size.explore_n);
        (Simulation::new(procs, pattern), sigma, proposals)
    });
    let cfg = explore_config(size);
    let mut check = |s: &Simulation<Fig2SetAgreement>| {
        check_k_agreement_safety(s.trace(), &proposals, k).map_err(|e| e.to_string())
    };
    let (res, wall_ns) =
        timed(|| catch_unwind(AssertUnwindSafe(|| explore_with(&sim, &sigma, &cfg, &mut check))));
    let mut unit = Unit { setup_s: setup_ns * 1e-9, wall_s: secs(wall_ns), ..Unit::default() };
    explore_gate(&mut unit, res);
    unit
}

fn explore_traced(seed: u64, size: &Size, spans: &mut Spans) -> Unit {
    let k = size.explore_n - 1;
    let ((sim, fd, proposals), setup_ns) = spans.span("setup", |_| {
        built(|| {
            let ExploreInput { pattern, sigma, proposals, procs } =
                explore_input(seed, size.explore_n);
            let procs: Vec<Timed<Fig2SetAgreement>> = procs.into_iter().map(Timed).collect();
            (Simulation::new(procs, pattern), TimedFd(sigma), proposals)
        })
    });
    let cfg = explore_config(size);
    // The check closure also fingerprints every `FP_SAMPLE`-th checked
    // state directly (`call_ns`; one call per state would double the
    // traced run); the encoding that probe causes is kept apart from the
    // explorer's own.
    let (mut check_ns, mut checks) = (0u64, 0u64);
    let (mut probe_ns, mut probes, mut probe_encode_ns, mut probe_encodes) =
        (0u64, 0u64, 0u64, 0u64);
    let mut check = |s: &Simulation<Timed<Fig2SetAgreement>>| {
        if checks % FP_SAMPLE == 0 {
            let before = Busy::now();
            let (fp, ns) = timed(|| s.fingerprint());
            black_box(fp);
            let after = Busy::now();
            probe_ns += ns;
            probes += 1;
            probe_encode_ns += after.encode_ns - before.encode_ns;
            probe_encodes += after.encodes - before.encodes;
        }
        let (r, ns) = timed(|| check_k_agreement_safety(s.trace(), &proposals, k));
        check_ns += ns;
        checks += 1;
        r.map_err(|e| e.to_string())
    };
    Busy::take();
    let (res, wall_ns) = spans.span("runtime.explore", |_| {
        timed(|| catch_unwind(AssertUnwindSafe(|| explore_with(&sim, &fd, &cfg, &mut check))))
    });
    let busy = Busy::take();
    let mut unit = Unit { setup_s: setup_ns * 1e-9, wall_s: secs(wall_ns), ..Unit::default() };
    let Some(r) = spans.span("gate", |_| explore_gate(&mut unit, res)) else { return unit };
    let encode_ns = busy.encode_ns - probe_encode_ns;
    let wall = secs(wall_ns);
    let self_ns =
        wall_ns.saturating_sub(busy.step_ns + encode_ns + busy.query_ns + check_ns + probe_ns);
    unit.layers = vec![
        ("runtime.fingerprint.debug_encode_s", secs(encode_ns)),
        ("runtime.fingerprint.debug_encode_calls", (busy.encodes - probe_encodes) as f64),
        ("runtime.fingerprint.call_ns", probe_ns as f64 / probes.max(1) as f64),
        ("runtime.fingerprint.wall_share", secs(encode_ns) / wall),
        ("runtime.explore.states", r.states as f64),
        ("runtime.explore.deduped", r.deduped as f64),
        ("runtime.explore.pruned", r.pruned as f64),
        ("runtime.explore.races", r.races as f64),
        ("runtime.explore.terminals", r.terminals as f64),
        ("runtime.explore.table_bytes", r.table_bytes as f64),
        ("runtime.explore.dedup_ratio", r.deduped as f64 / (r.states + r.deduped).max(1) as f64),
        ("runtime.explore.states_per_s", r.states as f64 / wall),
        ("runtime.explore.self_s", secs(self_ns)),
        ("automaton.step_s", secs(busy.step_ns)),
        ("automaton.steps", busy.steps as f64),
        ("detectors.queries", busy.queries as f64),
        ("detectors.query_s", secs(busy.query_ns)),
        ("agreement.spec.check_s", secs(check_ns)),
        ("agreement.spec.calls", checks as f64),
        ("trace.wall_s", wall),
    ];
    unit
}

// ------------------------------------------------------------------- fuzz

fn fuzz_configs(seed: u64, size: &Size) -> Vec<FuzzLabConfig> {
    (0..size.fuzz_campaigns)
        .map(|i| FuzzLabConfig {
            seed: mix(seed, i),
            budget_schedules: size.fuzz_budget,
            budget_ms: 0,
            batch: 64,
            threads: 1,
        })
        .collect()
}

/// Fuzzing runs `run_fuzz_bench` whole, so tracing stays outside it: a
/// span per campaign, the gate's timed strict replays, then direct calls
/// into the other layers a campaign is built from (fingerprinting
/// replay, coverage merge, mutation) on the campaign's kept corpus.
fn fuzz_unit(seed: u64, size: &Size, mut spans: Option<&mut Spans>) -> Unit {
    let (cfgs, setup_ns) = built(|| fuzz_configs(seed, size));
    let mut reports = Vec::with_capacity(cfgs.len());
    let mut wall_ns = 0;
    for cfg in &cfgs {
        let campaign = || timed(|| catch_unwind(|| run_fuzz_bench(cfg, &[])));
        let (rep, ns) = match spans.as_deref_mut() {
            Some(sp) => sp.span("runtime.fuzz", |_| campaign()),
            None => campaign(),
        };
        wall_ns += ns;
        reports.push(rep);
    }
    let mut unit = Unit { setup_s: setup_ns * 1e-9, wall_s: secs(wall_ns), ..Unit::default() };
    let traced = spans.is_some();
    let mut probes = FuzzProbes::default();
    for rep in reports {
        unit.attempted += 1;
        let rep = match rep {
            Ok(rep) => rep,
            Err(p) => {
                unit.failures.push(format!("campaign panicked: {}", panic_message(&*p)));
                continue;
            }
        };
        let gate = |unit: &mut Unit| fuzz_gate(unit, &rep, traced);
        match spans.as_deref_mut() {
            Some(sp) => sp.span("gate", |_| gate(&mut unit)),
            None => gate(&mut unit),
        }
        if let Some(sp) = spans.as_deref_mut() {
            probes.add(&rep, seed, sp);
        }
    }
    if traced {
        unit.layers = probes.layers(unit.wall_s, &unit.replay_us);
    }
    unit
}

/// Fails the campaign unless the report is `ok` (budget spent, coverage
/// found, every witness strict-replays) and every kept corpus entry
/// strict-replays to its recorded verdict.
fn fuzz_gate(unit: &mut Unit, rep: &FuzzBenchReport, time_replays: bool) {
    let mut bad = Vec::new();
    if !rep.ok() {
        bad.push("report is not ok".to_string());
    }
    for s in &rep.corpus {
        let (r, ns) = timed(|| replay(s, ReplayMode::Strict));
        if time_replays {
            unit.replay_us.push(ns as f64 * 1e-3);
        }
        if !r.as_ref().is_ok_and(|r| r.matches) {
            bad.push(format!("corpus entry {:016x} does not strict-replay", s.digest()));
        }
    }
    if !bad.is_empty() {
        unit.failures.push(format!("campaign seed {}: {}", rep.cfg.seed, bad.join("; ")));
    }
    unit.counters.extend([
        ("fuzz.executed", rep.executed),
        ("fuzz.distinct_fps", rep.distinct_fingerprints),
        ("fuzz.violations", rep.violations),
        ("fuzz.corpus_size", rep.corpus.len() as u64),
        ("fuzz.corpus_digest", rep.corpus_digest),
        ("fuzz.witnesses", rep.witnesses.len() as u64),
    ]);
}

#[derive(Default)]
struct FuzzProbes {
    executed: u64,
    distinct_fps: u64,
    corpus: u64,
    violations: u64,
    shrink_rounds: u64,
    fp_replay_ns: u64,
    fps: u64,
    replays: u64,
    observe_ns: u64,
    keys: u64,
    mutate_ns: u64,
    mutate_tries: u64,
    mutate_some: u64,
}

impl FuzzProbes {
    fn add(&mut self, rep: &FuzzBenchReport, seed: u64, spans: &mut Spans) {
        self.executed += rep.executed;
        self.distinct_fps += rep.distinct_fingerprints;
        self.corpus += rep.corpus.len() as u64;
        self.violations += rep.violations;
        self.shrink_rounds += rep.witnesses.iter().map(|w| w.shrink.rounds as u64).sum::<u64>();
        let mut streams = Vec::with_capacity(rep.corpus.len());
        spans.span("lab.repro.replay_with_fingerprints", |_| {
            for s in &rep.corpus {
                let (r, ns) = timed(|| replay_with_fingerprints(s, ReplayMode::Strict));
                self.fp_replay_ns += ns;
                self.replays += 1;
                if let Ok(r) = r {
                    self.fps += r.fingerprints.len() as u64;
                    streams.push((fnv1a_64(s.checker.as_bytes()), r.fingerprints));
                }
            }
        });
        spans.span("runtime.fuzz.observe", |_| {
            let mut cov = Coverage::new();
            for (key, fps) in &streams {
                let (novel, ns) = timed(|| cov.observe(fps.iter().map(|fp| key ^ fp)));
                black_box(novel);
                self.observe_ns += ns;
                self.keys += fps.len() as u64;
            }
        });
        spans.span("runtime.fuzz.mutate", |_| {
            let mut rng = FuzzRng::new(mix(seed, rep.cfg.seed));
            for s in &rep.corpus {
                let mcfg =
                    MutatorConfig::for_schedule(s, BYZ_WORKLOADS.contains(&s.checker.as_str()));
                for op in MutOp::ALL {
                    let (m, ns) = timed(|| sih_runtime::mutate(s, op, &mcfg, &mut rng));
                    self.mutate_ns += ns;
                    self.mutate_tries += 1;
                    self.mutate_some += u64::from(m.is_some());
                }
            }
        });
    }

    /// `replay_us` holds the gate's strict replays of the same corpora,
    /// the plain side of the fingerprint share.
    fn layers(&self, wall_s: f64, replay_us: &[f64]) -> Vec<(&'static str, f64)> {
        let plain_ns: f64 = replay_us.iter().sum::<f64>() * 1e3;
        let fp_share = 1.0 - plain_ns / self.fp_replay_ns.max(1) as f64;
        vec![
            ("runtime.fingerprint.replay_fp_share", fp_share),
            ("lab.repro.fps_per_replay", self.fps as f64 / self.replays.max(1) as f64),
            ("lab.repro.shrink_rounds", self.shrink_rounds as f64),
            ("runtime.fuzz.executed", self.executed as f64),
            ("runtime.fuzz.distinct_fps", self.distinct_fps as f64),
            ("runtime.fuzz.corpus_size", self.corpus as f64),
            ("runtime.fuzz.violations", self.violations as f64),
            (
                "runtime.fuzz.novel_per_schedule",
                self.distinct_fps as f64 / self.executed.max(1) as f64,
            ),
            ("runtime.fuzz.mutate_ns", self.mutate_ns as f64 / self.mutate_tries.max(1) as f64),
            (
                "runtime.fuzz.mutate_yield",
                self.mutate_some as f64 / self.mutate_tries.max(1) as f64,
            ),
            ("runtime.fuzz.observe_ns_per_key", self.observe_ns as f64 / self.keys.max(1) as f64),
            ("trace.wall_s", wall_s),
        ]
    }
}

// ------------------------------------------------------------------ scale

/// Two clients, `p0` and `p1`, each with one write and one read over `n`
/// majority-quorum replicas; the seed picks the written values and which
/// client writes first.
fn scale_scripts(seed: u64) -> (ProcessSet, Vec<Vec<OpKind>>) {
    let s = ProcessSet::from_iter([0, 1].map(ProcessId));
    let v1 = Value(1 + mix(seed, 0) % 1000);
    let v2 = Value(1001 + mix(seed, 1) % 1000);
    let mut scripts =
        vec![vec![OpKind::Write(v1), OpKind::Read], vec![OpKind::Read, OpKind::Write(v2)]];
    if mix(seed, 2) & 1 == 1 {
        scripts.swap(0, 1);
    }
    (s, scripts)
}

fn scale_sim<A: Automaton>(
    seed: u64,
    n: usize,
    wrap: impl Fn(AbdRegister) -> A,
) -> (ProcessSet, Simulation<A>) {
    let (s, scripts) = scale_scripts(seed);
    let procs = abd_processes_with_rule(s, n, scripts, QuorumRule::Majority(n / 2 + 1));
    let mut sim =
        Simulation::new(procs.into_iter().map(wrap).collect(), FailurePattern::all_correct(n))
            .with_trace_level(TraceLevel::Light);
    sim.set_script_recording(false);
    (s, sim)
}

fn scale_budget(n: usize) -> u64 {
    64 * n as u64 + 100_000
}

fn scale_gate(
    unit: &mut Unit,
    outcome: &RunOutcome,
    ops: &[OpRecord],
    lin: &Result<(), LinearizabilityViolation>,
) {
    unit.attempted = 1;
    let complete = ops.iter().filter(|o| o.is_complete()).count() as u64;
    let mut bad = Vec::new();
    if complete != 4 {
        bad.push(format!("{complete} of 4 operations completed"));
    }
    if let Err(e) = lin {
        bad.push(e.to_string());
    }
    if outcome.sent != outcome.delivered + outcome.in_flight {
        bad.push(format!(
            "sent {} != delivered {} + in flight {}",
            outcome.sent, outcome.delivered, outcome.in_flight
        ));
    }
    if !bad.is_empty() {
        unit.failures.push(bad.join("; "));
    }
    unit.counters = vec![
        ("sim.steps", outcome.steps),
        ("network.sent", outcome.sent),
        ("network.delivered", outcome.delivered),
        ("network.in_flight", outcome.in_flight),
        ("registers.ops_complete", complete),
    ];
}

fn scale_plain(seed: u64, size: &Size) -> Unit {
    let n = size.scale_n;
    let ((s, mut sim), setup_ns) = built(|| scale_sim(seed, n, |a| a));
    let ((outcome, ops, lin), wall_ns) = timed(|| {
        let outcome = sim.run_event_driven(&NoDetector, scale_budget(n), |sim| {
            s.iter().all(|p| sim.process(p).script_finished())
        });
        let ops = sim.trace().op_records();
        let lin = check_linearizable(&ops, None);
        (outcome, ops, lin)
    });
    let mut unit = Unit { setup_s: setup_ns * 1e-9, wall_s: secs(wall_ns), ..Unit::default() };
    scale_gate(&mut unit, &outcome, &ops, &lin);
    unit
}

fn scale_traced(seed: u64, size: &Size, spans: &mut Spans) -> Unit {
    let n = size.scale_n;
    let ((s, mut sim), setup_ns) = spans.span("setup", |_| built(|| scale_sim(seed, n, Timed)));
    Busy::take();
    let ((outcome, run_ns, ops, lin, check_ns), wall_ns) = timed(|| {
        let (outcome, run_ns) = spans.span("runtime.sim", |_| {
            timed(|| {
                sim.run_event_driven(&NoDetector, scale_budget(n), |sim| {
                    s.iter().all(|p| sim.process(p).0.script_finished())
                })
            })
        });
        spans.span("registers.linearizability", |_| {
            let ops = sim.trace().op_records();
            let (lin, check_ns) = timed(|| check_linearizable(&ops, None));
            (outcome, run_ns, ops, lin, check_ns)
        })
    });
    let busy = Busy::take();
    let mut unit = Unit { setup_s: setup_ns * 1e-9, wall_s: secs(wall_ns), ..Unit::default() };
    spans.span("gate", |_| scale_gate(&mut unit, &outcome, &ops, &lin));
    let wall = secs(wall_ns);
    unit.layers = vec![
        ("automaton.step_s", secs(busy.step_ns)),
        ("automaton.steps", busy.steps as f64),
        ("runtime.sim.runner_self_s", secs(run_ns.saturating_sub(busy.step_ns))),
        ("runtime.sim.steps_per_s", outcome.steps as f64 / secs(run_ns)),
        ("runtime.sim.heap_bytes_per_proc", sim.harness_heap_bytes() as f64 / n as f64),
        ("runtime.network.sent", outcome.sent as f64),
        ("runtime.network.delivered", outcome.delivered as f64),
        ("runtime.network.in_flight", outcome.in_flight as f64),
        ("runtime.network.dropped", outcome.dropped as f64),
        ("runtime.network.mutated", outcome.mutated as f64),
        ("runtime.fingerprint.debug_encode_s", secs(busy.encode_ns)),
        ("runtime.fingerprint.debug_encode_calls", busy.encodes as f64),
        ("runtime.fingerprint.wall_share", secs(busy.encode_ns) / wall),
        ("registers.linearizability.check_s", secs(check_ns)),
        ("registers.linearizability.wall_share", secs(check_ns) / wall),
        ("registers.linearizability.ops_per_history", ops.len() as f64),
        ("trace.wall_s", wall),
    ];
    unit
}

// --------------------------------------------------------------- register

/// One register history's input: its seed and the clients' scripts.
type History = (u64, Vec<Vec<OpKind>>);

/// The register histories of a unit, all correct over seven clients; each
/// history's seed drives its scheduler, its detector and its scripts.
fn register_inputs(seed: u64, size: &Size) -> (FailurePattern, ProcessSet, Vec<History>) {
    let pattern = FailurePattern::all_correct(REGISTER_N);
    let s: ProcessSet = (0..REGISTER_N as u32).map(ProcessId).collect();
    let histories = (0..size.histories)
        .map(|h| {
            let hs = mix(seed, h);
            let spec = WorkloadSpec {
                ops_per_process: REGISTER_OPS_PER_PROCESS,
                read_ratio: 0.5,
                seed: hs,
            };
            (hs, spec.scripts(s))
        })
        .collect();
    (pattern, s, histories)
}

/// Why a register history fails the gate, if it does: it is not
/// linearizable, too large to check, or has fewer than
/// [`REGISTER_OPS`] completed operations.
pub fn register_history_failure(
    ops: &[OpRecord],
    lin: &Result<(), LinearizabilityViolation>,
) -> Option<String> {
    let complete = ops.iter().filter(|o| o.is_complete()).count();
    match lin {
        Err(e) => Some(e.to_string()),
        Ok(()) if complete < REGISTER_OPS => {
            Some(format!("{complete} of {REGISTER_OPS} operations completed"))
        }
        Ok(()) => None,
    }
}

/// What the gate and the determinism counters need of one history.
struct HistoryResult {
    steps: u64,
    sent: u64,
    ops: Vec<OpRecord>,
    lin: Result<(), LinearizabilityViolation>,
}

impl HistoryResult {
    fn new(trace: &Trace) -> HistoryResult {
        let ops = trace.op_records();
        let lin = check_linearizable(&ops, None);
        HistoryResult { steps: trace.total_steps(), sent: trace.messages_sent(), ops, lin }
    }
}

fn register_gate(unit: &mut Unit, results: &[HistoryResult]) {
    let mut digest = Fnv64::new();
    for (h, r) in results.iter().enumerate() {
        unit.attempted += 1;
        if let Some(why) = register_history_failure(&r.ops, &r.lin) {
            unit.failures.push(format!("history {h}: {why}"));
        }
        for v in [r.steps, r.sent, r.ops.len() as u64] {
            digest.write_u64(v);
        }
    }
    unit.counters = vec![
        ("registers.histories", results.len() as u64),
        ("sim.steps", results.iter().map(|r| r.steps).sum()),
        ("network.sent", results.iter().map(|r| r.sent).sum()),
        ("registers.ops", results.iter().map(|r| r.ops.len() as u64).sum()),
        ("registers.digest", digest.finish()),
    ];
}

fn register_plain(seed: u64, size: &Size) -> Unit {
    let (((pattern, s, histories), mut pool), setup_ns) =
        built(|| (register_inputs(seed, size), RegisterPool::with_trace_level(TraceLevel::Light)));
    let mut results = Vec::with_capacity(histories.len());
    let mut history_ms = Vec::with_capacity(histories.len());
    let ((), wall_ns) = timed(|| {
        for (hs, scripts) in histories {
            let (r, ns) = timed(|| {
                let tr = run_register_workload_pooled(
                    &mut pool,
                    &pattern,
                    s,
                    scripts,
                    hs,
                    REGISTER_MAX_STEPS,
                );
                HistoryResult::new(tr)
            });
            history_ms.push(ns as f64 * 1e-6);
            results.push(r);
        }
    });
    let mut unit =
        Unit { setup_s: setup_ns * 1e-9, wall_s: secs(wall_ns), history_ms, ..Unit::default() };
    register_gate(&mut unit, &results);
    unit
}

/// The traced twin of `run_register_workload_pooled`: the same detector,
/// scheduler, automata and stop condition, with the automata and the
/// detector wrapped. The determinism gate holds the twin to the pipeline
/// function: its counters must match the untraced unit's.
fn register_traced(seed: u64, size: &Size, spans: &mut Spans) -> Unit {
    let (((pattern, s, histories), mut pool), setup_ns) = spans.span("setup", |_| {
        built(|| {
            (
                register_inputs(seed, size),
                SimPool::<Timed<AbdRegister>>::with_trace_level(TraceLevel::Light),
            )
        })
    });
    let mut results = Vec::with_capacity(histories.len());
    let mut check_ms = Vec::with_capacity(histories.len());
    let (mut sim_ns, mut check_ns, mut heap) = (0u64, 0u64, 0usize);
    let mut net = [0u64; 5];
    Busy::take();
    let ((), wall_ns) = timed(|| {
        for (hs, scripts) in histories {
            let history = spans.enter("history");
            let sim_span = spans.enter("runtime.sim");
            let ((sim, outcome), ns) = timed(|| {
                let det = TimedFd(SigmaS::new(s, &pattern, hs));
                let procs = abd_processes(s, REGISTER_N, scripts).into_iter().map(Timed).collect();
                let sim = pool.acquire(procs, &pattern);
                let mut sched = FairScheduler::new(hs);
                let outcome = sim.run_until(&mut sched, &det, REGISTER_MAX_STEPS, |sim| {
                    sim.pattern().correct().iter().all(|p| sim.process(p).0.script_finished())
                });
                (sim, outcome)
            });
            spans.exit(sim_span);
            sim_ns += ns;
            let check_span = spans.enter("registers.linearizability");
            let (r, ns) = timed(|| HistoryResult::new(sim.trace()));
            spans.exit(check_span);
            spans.exit(history);
            check_ns += ns;
            check_ms.push(ns as f64 * 1e-6);
            heap = sim.harness_heap_bytes();
            let counts = [
                outcome.sent,
                outcome.delivered,
                outcome.in_flight,
                outcome.dropped,
                outcome.mutated,
            ];
            for (acc, v) in net.iter_mut().zip(counts) {
                *acc += v;
            }
            results.push(r);
        }
    });
    let busy = Busy::take();
    let mut unit = Unit { setup_s: setup_ns * 1e-9, wall_s: secs(wall_ns), ..Unit::default() };
    spans.span("gate", |_| register_gate(&mut unit, &results));
    let wall = secs(wall_ns);
    let ops: u64 = results.iter().map(|r| r.ops.len() as u64).sum();
    unit.layers = vec![
        ("automaton.step_s", secs(busy.step_ns)),
        ("automaton.steps", busy.steps as f64),
        ("runtime.sim.runner_self_s", secs(sim_ns.saturating_sub(busy.step_ns + busy.query_ns))),
        ("runtime.sim.steps_per_s", busy.steps as f64 / secs(sim_ns)),
        ("runtime.sim.heap_bytes_per_proc", heap as f64 / REGISTER_N as f64),
        ("runtime.network.sent", net[0] as f64),
        ("runtime.network.delivered", net[1] as f64),
        ("runtime.network.in_flight", net[2] as f64),
        ("runtime.network.dropped", net[3] as f64),
        ("runtime.network.mutated", net[4] as f64),
        ("detectors.queries", busy.queries as f64),
        ("detectors.query_s", secs(busy.query_ns)),
        ("runtime.fingerprint.debug_encode_s", secs(busy.encode_ns)),
        ("runtime.fingerprint.debug_encode_calls", busy.encodes as f64),
        ("runtime.fingerprint.wall_share", secs(busy.encode_ns) / wall),
        ("registers.linearizability.check_s", secs(check_ns)),
        ("registers.linearizability.wall_share", secs(check_ns) / wall),
        ("registers.linearizability.ops_per_history", ops as f64 / results.len().max(1) as f64),
        ("trace.wall_s", wall),
    ];
    unit.check_ms = check_ms;
    unit
}
