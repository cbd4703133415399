//! `lab faults` — the robustness matrix: Figure 2, Figure 4 and the ABD
//! register driven over lossy, duplicating and partitioned-then-healed
//! links (with a stubborn retransmission layer), plus the raw-register
//! permanent-partition starvation witness. Emits the `BENCH_faults.json`
//! artifact CI archives per revision.
//!
//! Every cell run is built by the workload registry's one constructor
//! (`repro::Spec::run`, inside its `Stubborn` layer) and judged here by
//! the algorithm's degraded checker.
//!
//! Safety must hold under *every* plan; liveness is asserted only for
//! plans with a finite `quiescence_time()`. Every counter in the artifact
//! comes from runs whose schedule depends only on `(pattern, plan, seed)`,
//! so the JSON is bitwise identical for any `--threads`.

use crate::json::{ObjectBuilder, Value};
use crate::repro::{Algo, Layer, Pools, Ran, Spec, HONEST, PANIC_VERDICT};
use sih_detectors::SigmaS;
use sih_model::{FailurePattern, LinkFaultPlan, OpKind, ProcessId, ProcessSet, Time};
use sih_registers::{abd_processes, check_linearizable_degraded, AbdRegister};
use sih_runtime::sweep::Sweep;
use sih_runtime::{
    Driver, LivenessVerdict, RunOutcome, Schedule, Simulation, StopReason, TraceLevel,
};
use std::fmt;
use std::time::Instant;

/// Parameters of one `lab faults` run.
#[derive(Clone, Copy, Debug)]
pub struct FaultsLabConfig {
    /// System size (the matrix needs `n >= 3`).
    pub n: usize,
    /// Seeds per cell.
    pub seeds: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Worker threads (`0` = one per core). Only wall clock depends on
    /// it — every counter in the artifact is thread-count independent.
    pub threads: usize,
}

impl Default for FaultsLabConfig {
    fn default() -> Self {
        FaultsLabConfig { n: 4, seeds: 3, max_steps: 400_000, threads: 0 }
    }
}

/// The three algorithms of the matrix.
const ALGOS: [Algo; 3] = [Algo::Fig2, Algo::Fig4, Algo::Abd];

/// The three fault scenarios of the matrix (all with finite quiescence).
const SCENARIOS: [&str; 3] = ["lossy", "duplicating", "partition-healed"];

/// Builds the named scenario's plan for a system of `n` processes.
fn scenario_plan(scenario: &str, n: usize) -> LinkFaultPlan {
    let until = Time(600);
    match scenario {
        "lossy" => {
            // Every directed link drops every other message until t=600.
            let mut b = LinkFaultPlan::builder(n);
            for src in 0..n as u32 {
                for dst in 0..n as u32 {
                    b = b.drop_every(ProcessId(src), ProcessId(dst), 2, 0, Time::ZERO, Some(until));
                }
            }
            b.build()
        }
        "duplicating" => {
            // Every directed link duplicates every other message.
            let mut b = LinkFaultPlan::builder(n);
            for src in 0..n as u32 {
                for dst in 0..n as u32 {
                    b = b.duplicate_every(
                        ProcessId(src),
                        ProcessId(dst),
                        2,
                        1,
                        Time::ZERO,
                        Some(until),
                    );
                }
            }
            b.build()
        }
        "partition-healed" => {
            // {p0} cut off from everyone until t=400, then healed.
            LinkFaultPlan::builder(n)
                .partition(ProcessSet::singleton(ProcessId(0)), Time::ZERO, Some(Time(400)))
                .build()
        }
        other => panic!("unknown fault scenario {other:?}"),
    }
}

/// Accumulated result of one (workload, scenario) cell of the matrix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCell {
    /// Which algorithm ran (`"fig2"`, `"fig4"`, `"abd"`).
    pub workload: &'static str,
    /// Which plan it ran under (`"lossy"`, `"duplicating"`,
    /// `"partition-healed"`).
    pub scenario: &'static str,
    /// The plan's `quiescence_time()` (all three scenarios are finite).
    pub quiescence: u64,
    /// Runs in this cell (= seeds).
    pub runs: u64,
    /// Runs judged [`LivenessVerdict::Live`].
    pub live: u64,
    /// Runs judged [`LivenessVerdict::SafeButNotLive`].
    pub safe_not_live: u64,
    /// Runs whose degraded check errored (safety violation or an
    /// unexcused liveness miss). Must be zero.
    pub violations: u64,
    /// Engine steps summed over the cell's runs.
    pub steps: u64,
    /// Network counters summed over the cell's runs; they satisfy
    /// `sent == delivered + dropped + in_flight` run by run, hence also
    /// in sum.
    pub sent: u64,
    /// Messages delivered, summed.
    pub delivered: u64,
    /// Messages the plan dropped, summed.
    pub dropped: u64,
    /// Extra copies the plan enqueued, summed.
    pub duplicated: u64,
    /// Messages still pending at stop time, summed.
    pub in_flight: u64,
}

impl FaultCell {
    /// Safety never broke and every run completed once the faults
    /// quiesced (the matrix's plans all have finite quiescence, so
    /// `SafeButNotLive` here means the budget was too small).
    pub fn ok(&self) -> bool {
        self.violations == 0 && self.live == self.runs
    }

    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("workload", self.workload)
            .field("scenario", self.scenario)
            .field("quiescence", self.quiescence)
            .field("runs", self.runs)
            .field("live", self.live)
            .field("safe_not_live", self.safe_not_live)
            .field("violations", self.violations)
            .field("steps", self.steps)
            .field("sent", self.sent)
            .field("delivered", self.delivered)
            .field("dropped", self.dropped)
            .field("duplicated", self.duplicated)
            .field("in_flight", self.in_flight)
            .field("ok", self.ok())
            .build()
    }
}

/// Result of the permanent-partition starvation leg: the raw (stubborn-
/// less) ABD register under a blackout that never heals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StarvedLeg {
    /// Steps the run took before the engine proved it stuck.
    pub steps: u64,
    /// The step budget it did *not* exhaust.
    pub budget: u64,
    /// Whether the run stopped [`StopReason::Starved`].
    pub starved: bool,
    /// Whether the degraded linearizability check returned
    /// [`LivenessVerdict::SafeButNotLive`].
    pub safe_not_live: bool,
    /// Messages the blackout dropped.
    pub dropped: u64,
}

impl StarvedLeg {
    /// The starvation witness behaved: typed `Starved` exit, far under
    /// budget, safe but not live.
    pub fn ok(&self) -> bool {
        self.starved && self.safe_not_live && self.steps < self.budget / 100
    }

    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("steps", self.steps)
            .field("budget", self.budget)
            .field("starved", self.starved)
            .field("safe_not_live", self.safe_not_live)
            .field("dropped", self.dropped)
            .field("ok", self.ok())
            .build()
    }
}

/// Measured outcome of one [`run_faults_bench`] call.
#[derive(Clone, Debug)]
pub struct FaultsBenchReport {
    /// The configuration that produced the numbers.
    pub cfg: FaultsLabConfig,
    /// Workers actually used (wall clock only).
    pub workers: usize,
    /// The 3×3 matrix, in canonical (workload, scenario) order.
    pub cells: Vec<FaultCell>,
    /// The permanent-partition starvation witness.
    pub starved: StarvedLeg,
    /// Wall clock in milliseconds (the only runner-dependent field).
    pub wall_ms: f64,
}

impl FaultsBenchReport {
    /// Every cell and the starvation leg behaved.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(FaultCell::ok) && self.starved.ok()
    }

    /// The `BENCH_faults.json` record.
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("bench", "faults_matrix")
            .field("n", self.cfg.n)
            .field("seeds", self.cfg.seeds)
            .field("max_steps", self.cfg.max_steps)
            .field("threads", self.cfg.threads)
            .field("workers", self.workers)
            .field("cells", self.cells.iter().map(FaultCell::to_json).collect::<Vec<_>>())
            .field("starved", self.starved.to_json())
            .field("wall_ms", self.wall_ms)
            .field("ok", self.ok())
            .build()
    }
}

impl fmt::Display for FaultsBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[faults] n={} seeds={} ({} worker(s), {:.1} ms)",
            self.cfg.n, self.cfg.seeds, self.workers, self.wall_ms
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<4} × {:<16} live {}/{}  sent {:>7} = {} delivered + {} dropped + {} in flight (+{} dup) — {}",
                c.workload,
                c.scenario,
                c.live,
                c.runs,
                c.sent,
                c.delivered,
                c.dropped,
                c.in_flight,
                c.duplicated,
                if c.ok() { "OK" } else { "UNEXPECTED" }
            )?;
        }
        writeln!(
            f,
            "  abd  × permanent-blackout: {} in {} steps (budget {}) — {}",
            if self.starved.starved { "Starved" } else { "NOT starved" },
            self.starved.steps,
            self.starved.budget,
            if self.starved.ok() { "OK" } else { "UNEXPECTED" }
        )
    }
}

/// One run of a matrix cell: `algo` over `plan`, judged by its degraded
/// checker — exactly what a matrix cell runs per seed. Figure 4 runs with
/// `k = 1` (actives `{p0, p1}`); ABD runs the two-writer workload. The
/// outcome carries the stop reason and network counters the degraded
/// checkers need; it is `None` (and the verdict an error) if the run
/// panicked.
pub fn run_fault_cell(
    pools: &mut Pools,
    algo: Algo,
    pattern: &FailurePattern,
    plan: &LinkFaultPlan,
    seed: u64,
    max_steps: u64,
) -> (Result<LivenessVerdict, String>, Option<RunOutcome>) {
    let (n, fair) = (pattern.n(), Driver::Fair { seed, max_steps });
    let (pattern, faults) = (pattern.clone(), plan.clone());
    let s = Schedule { pattern, faults, ..HONEST.header(n, 1, seed, max_steps) };
    match Spec::matrix(algo).run(&s, pools, Layer::Stubborn, fair, None) {
        Ok(Ran { outcome: Some(o), trace, check, .. }) => {
            (check.degraded(trace, &s.pattern, o.reason), Some(o))
        }
        Ok(_) => (Err(PANIC_VERDICT.to_string()), None),
        Err(e) => (Err(e.to_string()), None),
    }
}

/// The permanent-partition starvation witness: the raw (stubborn-less)
/// ABD register under a blackout that never heals.
fn starved_leg(pattern: &FailurePattern, budget: u64) -> StarvedLeg {
    let n = pattern.n();
    let blackout = LinkFaultPlan::builder(n).blackout(Time::ZERO, None).build();
    let s = ProcessSet::from_iter([0, 1].map(ProcessId));
    let scripts = vec![vec![OpKind::Write(sih_model::Value(1))], vec![OpKind::Read]];
    let det = SigmaS::new(s, pattern, 0);
    let mut sim = Simulation::new(abd_processes(s, n, scripts), pattern.clone())
        .with_trace_level(TraceLevel::Light)
        .with_link_faults(blackout);
    let done = |sim: &Simulation<AbdRegister>| {
        sim.pattern().correct().iter().all(|p| sim.process(p).script_finished())
    };
    let outcome = sim.drive(Driver::Fair { seed: 0, max_steps: budget }, &det, done, None);
    let verdict =
        check_linearizable_degraded(&sim.trace().op_records(), None, pattern, outcome.reason);
    StarvedLeg {
        steps: outcome.steps,
        budget,
        starved: outcome.reason == StopReason::Starved,
        safe_not_live: verdict == Ok(LivenessVerdict::SafeButNotLive),
        dropped: outcome.dropped,
    }
}

/// One run's contribution to its cell: `(verdict, outcome)` folded
/// serially in canonical grid order.
type CellSample = (usize, Result<LivenessVerdict, String>, Option<RunOutcome>);

/// Runs the full robustness matrix and the starvation leg.
///
/// The matrix fans `(cell, seed)` across the sweep engine; each run's
/// schedule and counters depend only on `(plan, pattern, seed)`, and the
/// per-cell sums fold in canonical grid order, so the artifact is
/// identical for every `--threads` value.
pub fn run_faults_bench(cfg: &FaultsLabConfig) -> FaultsBenchReport {
    assert!(cfg.n >= 3, "the faults matrix needs n >= 3");
    let t0 = Instant::now();
    let n = cfg.n;
    let pattern = FailurePattern::all_correct(n);

    // The canonical grid: every (workload, scenario) cell × every seed.
    let mut grid: Vec<(usize, u64)> = Vec::new();
    for cell in 0..ALGOS.len() * SCENARIOS.len() {
        for seed in 0..cfg.seeds {
            grid.push((cell, seed));
        }
    }

    let max_steps = cfg.max_steps;
    let sweep = Sweep::new(cfg.threads);
    let workers = sweep.effective_threads(grid.len());
    let samples: Vec<CellSample> = sweep.run(grid, || {
        let pattern = pattern.clone();
        let mut pools = Pools::new(TraceLevel::Light);
        move |_idx, (cell, seed): (usize, u64)| {
            let algo = ALGOS[cell / SCENARIOS.len()];
            let plan = scenario_plan(SCENARIOS[cell % SCENARIOS.len()], n);
            let (verdict, outcome) =
                run_fault_cell(&mut pools, algo, &pattern, &plan, seed, max_steps);
            (cell, verdict, outcome)
        }
    });

    // Fold in canonical grid order (the sweep returns results in item
    // order, and the sums are order-independent anyway).
    let mut cells: Vec<FaultCell> = Vec::new();
    for algo in ALGOS {
        for scenario in SCENARIOS {
            let quiescence = scenario_plan(scenario, n)
                .quiescence_time()
                .expect("matrix scenarios all have finite quiescence")
                .0;
            let workload = algo.label();
            cells.push(FaultCell { workload, scenario, quiescence, ..FaultCell::default() });
        }
    }
    for (cell, verdict, outcome) in samples {
        let c = &mut cells[cell];
        c.runs += 1;
        match verdict {
            Ok(LivenessVerdict::Live) => c.live += 1,
            Ok(LivenessVerdict::SafeButNotLive) => c.safe_not_live += 1,
            Err(_) => c.violations += 1,
        }
        if let Some(o) = outcome {
            c.steps += o.steps;
            c.sent += o.sent;
            c.delivered += o.delivered;
            c.dropped += o.dropped;
            c.duplicated += o.duplicated;
            c.in_flight += o.in_flight;
        }
    }

    let starved = starved_leg(&pattern, cfg.max_steps.max(1_000_000));

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    FaultsBenchReport { cfg: *cfg, workers, cells, starved, wall_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FaultsLabConfig {
        FaultsLabConfig { n: 3, seeds: 1, max_steps: 400_000, threads: 1 }
    }

    #[test]
    fn the_matrix_is_safe_and_live_and_the_witness_starves() {
        let report = run_faults_bench(&tiny());
        assert!(report.ok(), "{report}");
        assert_eq!(report.cells.len(), 9);
        assert!(report.cells.iter().all(|c| c.violations == 0));
        // Every lossy/partitioned cell actually exercised its faults.
        for c in &report.cells {
            assert_eq!(c.sent, c.delivered + c.dropped + c.in_flight, "{c:?}");
            match c.scenario {
                "lossy" | "partition-healed" => assert!(c.dropped > 0, "{c:?}"),
                "duplicating" => assert!(c.duplicated > 0, "{c:?}"),
                other => panic!("unknown scenario {other}"),
            }
        }
        assert!(report.starved.starved);
        // The quorum protocol cannot make progress, and the engine proves
        // it long before the million-step budget.
        assert!(report.starved.steps < 100, "{:?}", report.starved);
        let json = report.to_json().to_string_pretty();
        let parsed = crate::json::parse(&json).expect("round-trips");
        assert_eq!(parsed.get("ok").as_bool(), Some(true));
        assert_eq!(parsed.get("bench").as_str(), Some("faults_matrix"));
        assert_eq!(parsed.get("starved").get("starved").as_bool(), Some(true));
    }

    #[test]
    fn each_workload_is_safe_and_live_once_its_faults_quiesce() {
        let n = 4;
        let pattern = FailurePattern::all_correct(n);
        let mut pools = Pools::new(TraceLevel::Full);
        for (algo, scenario, seeds) in [
            (Algo::Fig2, "lossy", 0..3),
            (Algo::Fig4, "duplicating", 7..8),
            (Algo::Abd, "duplicating", 3..4),
        ] {
            let plan = scenario_plan(scenario, n);
            for seed in seeds {
                let (verdict, outcome) =
                    run_fault_cell(&mut pools, algo, &pattern, &plan, seed, 400_000);
                let cell = format!("{algo:?} × {scenario}, seed {seed}");
                let outcome = outcome.expect("no panic");
                assert_eq!(verdict, Ok(LivenessVerdict::Live), "{cell}");
                assert!(outcome.dropped + outcome.duplicated > 0, "{cell}: faults saw no traffic");
                assert_eq!(outcome.sent, outcome.delivered + outcome.dropped + outcome.in_flight);
            }
        }
    }
}
