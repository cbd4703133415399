//! `lab byzantine` — the graceful-degradation matrix: Figure 2, Figure 4
//! and the ABD register driven under deterministic message-mutation
//! adversaries and scripted protocol attacks, each swept up the
//! minimum-armor ladder. Emits the `BENCH_byzantine.json` artifact CI
//! archives per revision.
//!
//! Every attack runs at every armor rung (0 = none … 3 = full) over the
//! configured seeds. A run's verdict is the workload's *degraded*
//! check: `live`, `safe-not-live` (stalled but safe — graceful
//! degradation), a safety `violation`, or a `panic` (a broken automaton
//! invariant; counted as violation-grade). Per attack the report derives
//! the **defeating rung**: the lowest armor rung at which every seed is
//! fully live — by the oracle armor semantics it exists at the attack
//! class's ladder rung or below. Safety violations below the defeating
//! rung are the *expected* degradation this tier charts; they are only
//! excused because the mapped repro workloads commit a shrunk corpus
//! witness for them (`tests/corpus/*-byz-*.schedule`, checked by
//! `sih-analysis` and CI).
//!
//! Every cell run is built by the workload registry's one constructor
//! (`repro::Spec::run`, bare, with panic capture) and judged here by the
//! algorithm's degraded checker.
//!
//! Every counter in the artifact comes from runs whose schedule depends
//! only on `(cell, rung, seed)`, so the JSON is bitwise identical for
//! any `--threads`.

use crate::json::{ObjectBuilder, Value};
use crate::repro::{every_link, Algo, Layer, Pools, Ran, Spec, EQUIVOCATE, HONEST, SPLIT_ACK};
use sih_model::{AdversaryPlan, Armor, AttackClass, AttackSpec, MutationKind};
use sih_runtime::sweep::Sweep;
use sih_runtime::{Driver, LivenessVerdict, RunOutcome, Schedule, TraceLevel};
use std::fmt;
use std::time::Instant;

/// Parameters of one `lab byzantine` run.
#[derive(Clone, Copy, Debug)]
pub struct ByzantineLabConfig {
    /// System size (the matrix needs `n >= 3`).
    pub n: usize,
    /// Seeds per (cell, rung).
    pub seeds: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Worker threads (`0` = one per core). Only wall clock depends on
    /// it — every counter in the artifact is thread-count independent.
    pub threads: usize,
}

impl Default for ByzantineLabConfig {
    fn default() -> Self {
        ByzantineLabConfig { n: 4, seeds: 3, max_steps: 50_000, threads: 0 }
    }
}

/// One (workload, attack) cell of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CellSpec {
    algo: Algo,
    attack: &'static str,
}

/// The 15 cells: every network-level mutation kind that can touch the
/// workload's messages, plus the workload's scripted attack if it has
/// one.
const CELLS: [CellSpec; 15] = [
    CellSpec { algo: Algo::Fig2, attack: "flip" },
    CellSpec { algo: Algo::Fig2, attack: "perturb" },
    CellSpec { algo: Algo::Fig2, attack: "replay" },
    CellSpec { algo: Algo::Fig2, attack: "forge-sender" },
    CellSpec { algo: Algo::Fig2, attack: "equivocate" },
    CellSpec { algo: Algo::Fig4, attack: "flip" },
    CellSpec { algo: Algo::Fig4, attack: "perturb" },
    CellSpec { algo: Algo::Fig4, attack: "replay" },
    CellSpec { algo: Algo::Fig4, attack: "forge-sender" },
    CellSpec { algo: Algo::Abd, attack: "flip" },
    CellSpec { algo: Algo::Abd, attack: "perturb" },
    CellSpec { algo: Algo::Abd, attack: "replay" },
    CellSpec { algo: Algo::Abd, attack: "forge-sender" },
    CellSpec { algo: Algo::Abd, attack: "forge-ack" },
    CellSpec { algo: Algo::Abd, attack: "split-ack" },
];

/// The attack class a cell's attack belongs to (decides which armor rung
/// provably defeats it).
fn cell_class(attack: &str) -> AttackClass {
    match attack {
        "equivocate" => AttackClass::Equivocation,
        "split-ack" => AttackClass::AckForgery,
        name => MutationKind::from_name(name).expect("cell names a mutation kind").class(),
    }
}

/// The repro workload whose shrunk corpus witness excuses this cell's
/// sub-armor safety violations (`None`: the cell's degradation is
/// reported but not separately witnessed).
pub fn cell_witness(workload: &str, attack: &str) -> Option<&'static str> {
    // Witnesses are per attack *class* on a workload: `flip` and
    // `perturb` are both [`AttackClass::Tamper`], so they share the
    // workload's perturb witness. Replay and sender forgery have no
    // witness — they degrade liveness but never violate safety, and
    // `ByzantineCell::ok` enforces exactly that.
    match (workload, cell_class(attack)) {
        ("fig2", AttackClass::Tamper) => Some("fig2-byz-perturb"),
        ("fig2", AttackClass::Equivocation) => Some("fig2-byz-equivocate"),
        ("fig4", AttackClass::Tamper) => Some("fig4-byz-perturb"),
        ("abd", AttackClass::Tamper) => Some("abd-byz-perturb"),
        ("abd", AttackClass::AckForgery) if attack == "forge-ack" => Some("abd-byz-forge-ack"),
        ("abd", AttackClass::AckForgery) => Some("abd-byz-split-ack"),
        _ => None,
    }
}

/// Builds a cell's adversary configuration for a system of `n`
/// processes: the mutation plan (honest for scripted attacks) and the
/// attack spec (for the two scripted attacks).
fn cell_adversary(spec: &CellSpec, n: usize) -> (AdversaryPlan, Option<AttackSpec>) {
    match spec.attack {
        "equivocate" => (AdversaryPlan::honest(n), Some(EQUIVOCATE)),
        "split-ack" => (AdversaryPlan::honest(n), Some(SPLIT_ACK)),
        name => {
            let kind = MutationKind::from_name(name).expect("cell names a mutation kind");
            let x = match kind {
                MutationKind::Perturb => 100,
                MutationKind::ForgeSender => n as u64 - 1,
                MutationKind::ForgeAck => 77,
                MutationKind::Flip | MutationKind::Replay => 0,
            };
            // The kind on every directed link: the matrix charts
            // worst-case degradation per mutation class, not a lucky
            // schedule's near-miss, so the pressure must not depend on
            // which link the scheduler happens to exercise.
            (every_link(n, kind, x), None)
        }
    }
}

/// Accumulated counters of one (cell, armor-rung) leg over its seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RungStats {
    /// Runs in this leg (= seeds).
    pub runs: u64,
    /// Runs judged [`LivenessVerdict::Live`].
    pub live: u64,
    /// Runs judged [`LivenessVerdict::SafeButNotLive`] — stalled but
    /// safe: graceful degradation.
    pub safe_not_live: u64,
    /// Runs whose degraded check reported a safety violation.
    pub violations: u64,
    /// Runs that tripped an automaton invariant (violation-grade).
    pub panics: u64,
    /// Engine steps summed over the leg's runs.
    pub steps: u64,
    /// Messages sent, summed; per run
    /// `sent == delivered + dropped + mutated + in_flight`.
    pub sent: u64,
    /// Untampered deliveries, summed.
    pub delivered: u64,
    /// Tampered deliveries (the adversary consumed and replaced the
    /// envelope), summed.
    pub mutated: u64,
    /// Forged provenance/ack envelopes among the mutations, summed.
    pub forged: u64,
    /// Adversary actions the armor rung neutralized, summed.
    pub armored: u64,
}

impl RungStats {
    /// Every seed ended fully live — the attack left no trace.
    fn fully_live(&self) -> bool {
        self.live == self.runs
    }

    /// No violation-grade outcome (violations and panics both zero).
    fn safe(&self) -> bool {
        self.violations == 0 && self.panics == 0
    }

    fn to_json(self, rung: u8) -> Value {
        ObjectBuilder::new()
            .field("armor", rung as u64)
            .field("runs", self.runs)
            .field("live", self.live)
            .field("safe_not_live", self.safe_not_live)
            .field("violations", self.violations)
            .field("panics", self.panics)
            .field("steps", self.steps)
            .field("sent", self.sent)
            .field("delivered", self.delivered)
            .field("mutated", self.mutated)
            .field("forged", self.forged)
            .field("armored", self.armored)
            .build()
    }
}

/// One (workload, attack) cell of the byzantine matrix: the armor ladder
/// swept bottom to top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ByzantineCell {
    /// Which algorithm ran (`"fig2"`, `"fig4"`, `"abd"`).
    pub workload: &'static str,
    /// Which attack it ran under (a mutation kind name, `"equivocate"`
    /// or `"split-ack"`).
    pub attack: &'static str,
    /// The armor rung that provably defeats the attack's class (the
    /// ladder's upper bound for `defeating_rung`).
    pub class_rung: u8,
    /// Per-rung accumulated stats, index = rung.
    pub rungs: Vec<RungStats>,
    /// The lowest armor rung at which every seed ran fully live, if any.
    pub defeating_rung: Option<u8>,
    /// The repro workload witnessing this cell's sub-armor violations.
    pub witness: Option<&'static str>,
}

impl ByzantineCell {
    /// The cell degraded gracefully: a defeating rung exists, it is no
    /// higher than the attack class's ladder rung, and every rung at or
    /// above it is violation-free.
    pub fn ok(&self) -> bool {
        // Safety violations are never excused by degradation: a cell
        // may only violate below its defeating rung if a shrunk corpus
        // witness for its attack class is on file.
        let excused = self.witness.is_some() || self.rungs.iter().all(RungStats::safe);
        match self.defeating_rung {
            None => false,
            Some(r) => {
                excused
                    && r <= self.class_rung
                    && self.rungs[r as usize..].iter().all(|s| s.safe() && s.fully_live())
            }
        }
    }

    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("workload", self.workload)
            .field("attack", self.attack)
            .field("class_rung", self.class_rung as u64)
            .field(
                "rungs",
                self.rungs.iter().enumerate().map(|(r, s)| s.to_json(r as u8)).collect::<Vec<_>>(),
            )
            .field(
                "defeating_rung",
                self.defeating_rung.map(|r| Value::from(r as u64)).unwrap_or(Value::Null),
            )
            .field("witness", self.witness.map(Value::from).unwrap_or(Value::Null))
            .field("ok", self.ok())
            .build()
    }
}

/// Measured outcome of one [`run_byzantine_bench`] call.
#[derive(Clone, Debug)]
pub struct ByzantineBenchReport {
    /// The configuration that produced the numbers.
    pub cfg: ByzantineLabConfig,
    /// Workers actually used (wall clock only).
    pub workers: usize,
    /// The 15 cells, in canonical order.
    pub cells: Vec<ByzantineCell>,
    /// Wall clock in milliseconds (the only runner-dependent field).
    pub wall_ms: f64,
}

impl ByzantineBenchReport {
    /// Every attack has a defeating rung within its class's bound and
    /// full armor runs clean everywhere.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(ByzantineCell::ok)
    }

    /// The `BENCH_byzantine.json` record.
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("bench", "byzantine_matrix")
            .field("n", self.cfg.n)
            .field("seeds", self.cfg.seeds)
            .field("max_steps", self.cfg.max_steps)
            .field("threads", self.cfg.threads)
            .field("workers", self.workers)
            .field("cells", self.cells.iter().map(ByzantineCell::to_json).collect::<Vec<_>>())
            .field("wall_ms", self.wall_ms)
            .field("ok", self.ok())
            .build()
    }
}

impl fmt::Display for ByzantineBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[byzantine] n={} seeds={} ({} worker(s), {:.1} ms)",
            self.cfg.n, self.cfg.seeds, self.workers, self.wall_ms
        )?;
        for c in &self.cells {
            let degradation: Vec<String> = c
                .rungs
                .iter()
                .enumerate()
                .map(|(r, s)| {
                    let tag = if !s.safe() {
                        "VIOLATED"
                    } else if s.fully_live() {
                        "live"
                    } else {
                        "degraded"
                    };
                    format!("r{r}:{tag}")
                })
                .collect();
            writeln!(
                f,
                "  {:<4} × {:<12} [{}]  defeated at rung {} (class rung {}){} — {}",
                c.workload,
                c.attack,
                degradation.join(" "),
                c.defeating_rung.map_or_else(|| "-".into(), |r| r.to_string()),
                c.class_rung,
                c.witness.map_or_else(String::new, |w| format!("  witness {w}")),
                if c.ok() { "OK" } else { "UNEXPECTED" }
            )?;
        }
        Ok(())
    }
}

/// One run's verdict, panic included as its own violation-grade token.
enum RunVerdict {
    Live,
    SafeNotLive,
    Violation,
    Panic,
}

/// One run's contribution: `(grid index, verdict, counters)`; counters
/// are `None` for panicked runs (the simulation died mid-step).
type Sample = (usize, RunVerdict, Option<RunOutcome>);

/// Runs the full byzantine matrix: 15 cells × 4 armor rungs × seeds.
///
/// The grid fans `(cell, rung, seed)` across the sweep engine; each
/// run's schedule and counters depend only on those three coordinates,
/// and the per-leg sums fold in canonical grid order, so the artifact is
/// identical for every `--threads` value.
pub fn run_byzantine_bench(cfg: &ByzantineLabConfig) -> ByzantineBenchReport {
    assert!(cfg.n >= 3, "the byzantine matrix needs n >= 3");
    let t0 = Instant::now();
    let n = cfg.n;
    let ladder = Armor::LADDER.len();

    // The canonical grid: every (cell, rung) leg × every seed.
    let mut grid: Vec<(usize, u64)> = Vec::new();
    for leg in 0..CELLS.len() * ladder {
        for seed in 0..cfg.seeds {
            grid.push((leg, seed));
        }
    }

    let max_steps = cfg.max_steps;
    let sweep = Sweep::new(cfg.threads);
    let workers = sweep.effective_threads(grid.len());
    let samples: Vec<Sample> = sweep.run(grid, || {
        let mut pools = Pools::new(TraceLevel::Light);
        move |_idx, (leg, seed): (usize, u64)| {
            let spec = &CELLS[leg / ladder];
            let armor = Armor::LADDER[leg % ladder];
            let (plan, attack) = cell_adversary(spec, n);
            // Runs on the bare automata (no stubborn layer): the adversary
            // consumes and replaces envelopes at the network, and this
            // tier studies the bare protocol's degradation. A mutated
            // value can trip an automaton invariant (e.g. Fig. 2's
            // validity `expect`); that is a violation-grade outcome of its
            // own, not a harness crash.
            let s =
                Schedule { adversary: plan, attack, armor, ..HONEST.header(n, 1, seed, max_steps) };
            let fair = Driver::Fair { seed, max_steps };
            match Spec::matrix(spec.algo).run(&s, &mut pools, Layer::Bare, fair, None) {
                Ok(Ran { outcome: Some(o), trace, check, .. }) => {
                    let verdict = match check.degraded(trace, &s.pattern, o.reason) {
                        Ok(LivenessVerdict::Live) => RunVerdict::Live,
                        Ok(LivenessVerdict::SafeButNotLive) => RunVerdict::SafeNotLive,
                        Err(_) => RunVerdict::Violation,
                    };
                    (leg, verdict, Some(o))
                }
                // A panicked run (or, impossibly at n >= 3, a rejected
                // setup) left no counters.
                _ => (leg, RunVerdict::Panic, None),
            }
        }
    });

    // Fold in canonical grid order (sums are order-independent anyway).
    let mut cells: Vec<ByzantineCell> = CELLS
        .iter()
        .map(|spec| {
            let class = cell_class(spec.attack);
            let class_rung = Armor::LADDER
                .iter()
                .position(|a| a.defeats(class))
                .expect("the full ladder defeats every class") as u8;
            ByzantineCell {
                workload: spec.algo.label(),
                attack: spec.attack,
                class_rung,
                rungs: vec![RungStats::default(); ladder],
                defeating_rung: None,
                witness: cell_witness(spec.algo.label(), spec.attack),
            }
        })
        .collect();
    for (leg, verdict, outcome) in samples {
        let stats = &mut cells[leg / ladder].rungs[leg % ladder];
        stats.runs += 1;
        match verdict {
            RunVerdict::Live => stats.live += 1,
            RunVerdict::SafeNotLive => stats.safe_not_live += 1,
            RunVerdict::Violation => stats.violations += 1,
            RunVerdict::Panic => stats.panics += 1,
        }
        if let Some(o) = outcome {
            stats.steps += o.steps;
            stats.sent += o.sent;
            stats.delivered += o.delivered;
            stats.mutated += o.mutated;
            stats.forged += o.forged;
            stats.armored += o.armored;
        }
    }
    for c in &mut cells {
        c.defeating_rung = c.rungs.iter().position(|s| s.fully_live() && s.safe()).map(|r| r as u8);
    }

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ByzantineBenchReport { cfg: *cfg, workers, cells, wall_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ByzantineLabConfig {
        ByzantineLabConfig { n: 3, seeds: 1, max_steps: 50_000, threads: 1 }
    }

    #[test]
    fn every_attack_has_a_defeating_rung_within_its_class_bound() {
        let report = run_byzantine_bench(&tiny());
        assert_eq!(report.cells.len(), 15);
        assert!(report.ok(), "{report}");
        for c in &report.cells {
            let r = c.defeating_rung.expect("defeating rung exists");
            assert!(r <= c.class_rung, "{}/{}: {r} > {}", c.workload, c.attack, c.class_rung);
            // Full armor is bit-identical to the honest run: live, no
            // tampered deliveries, and every attempted action armored
            // away (for network-level attacks in windows that fired).
            let top = c.rungs.last().unwrap();
            assert!(top.fully_live() && top.safe(), "{}/{}: {top:?}", c.workload, c.attack);
            assert_eq!(top.mutated, 0, "{}/{}", c.workload, c.attack);
        }
        // The network-level invariant holds in sum per leg (panicked
        // runs contribute nothing; none happen at full armor).
        for c in &report.cells {
            let top = c.rungs.last().unwrap();
            assert!(top.sent >= top.delivered, "{}/{}", c.workload, c.attack);
        }
    }

    #[test]
    fn witnessed_cells_actually_violate_below_their_defeating_rung() {
        let report = run_byzantine_bench(&ByzantineLabConfig { seeds: 3, ..tiny() });
        let mut witnessed_violations = 0;
        for c in report.cells.iter().filter(|c| c.witness.is_some()) {
            let hits: u64 = c.rungs.iter().map(|s| s.violations + s.panics).sum();
            if hits > 0 {
                witnessed_violations += 1;
            }
        }
        // The acceptance floor: at least 4 witnessed cells actually
        // produce the violation their corpus schedule reproduces.
        assert!(witnessed_violations >= 4, "only {witnessed_violations} witnessed cells violated");
    }

    #[test]
    fn every_cell_witness_is_a_committed_corpus_schedule() {
        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        for spec in &CELLS {
            if let Some(name) = cell_witness(spec.algo.label(), spec.attack) {
                let path = corpus.join(format!("{name}.schedule"));
                assert!(
                    path.is_file(),
                    "{}/{}: {} is not committed",
                    spec.algo.label(),
                    spec.attack,
                    path.display()
                );
            }
        }
    }
}
