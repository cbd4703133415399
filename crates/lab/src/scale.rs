//! `lab scale` — the large-`n` scaling tier: the ABD register (majority
//! quorums, no detector), Figure 2 and Figure 4 driven at
//! `n ∈ {10³, 10⁴, 10⁵}` (and `10⁶` behind `--huge`) through the
//! event-driven runner. Emits the `BENCH_scale.json` artifact CI archives
//! per revision.
//!
//! The ABD leg runs scripted client operations end to end: every phase is
//! one batched fan-out (one `Network::broadcast` filling `n` queue
//! slots) answered by `n` replica replies, so steps scale as Θ(n) per operation
//! and the leg exercises the whole arena/bitset/batched-fan-out path.
//! The agreement legs sample a bounded number of decisions: Figures 2
//! and 4 have every non-active process flood a `(D, v)` broadcast at its
//! first step, which is inherently Θ(n²) messages if run to completion,
//! so the done-predicate stops each run after `sample` decisions — enough
//! to measure kickoff throughput, detector queries and fan-out batching
//! without materializing the quadratic flood.
//!
//! Every counter in the artifact is a deterministic function of
//! `(workload, n)` — the event-driven schedule is a function of the run
//! itself — so the JSON's deterministic fields are bitwise identical for
//! any `--threads` value. Only `wall_ms`, the derived `steps_per_sec` /
//! `msgs_per_sec` rates and `peak_rss_kb` depend on the runner.

use crate::json::{ObjectBuilder, Value as Json};
use sih_agreement::{
    distinct_proposals, fig2_processes, fig4_processes, Fig2SetAgreement, Fig4SetAgreement,
};
use sih_detectors::{Sigma, SigmaK};
use sih_model::{FailurePattern, NoDetector, OpKind, ProcessId, ProcessSet};
use sih_registers::{abd_processes_with_rule, check_linearizable, AbdRegister, QuorumRule};
use sih_runtime::sweep::Sweep;
use sih_runtime::{Simulation, StopReason, TraceLevel};
use std::fmt;
use std::time::Instant;

/// Parameters of one `lab scale` run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleLabConfig {
    /// Largest rung of the ladder `{10³, 10⁴, 10⁵}` to run. Values below
    /// `10³` replace the ladder with the single rung `max_n` (the CI
    /// smoke job and the unit tests use this).
    pub max_n: usize,
    /// Also run the `10⁶` rung (minutes of wall clock, gigabytes of
    /// queues — off by default).
    pub huge: bool,
    /// Decisions sampled per agreement-workload rung before stopping.
    pub sample: usize,
    /// Worker threads (`0` = one per core). Only wall clock depends on
    /// it — every deterministic field is thread-count independent.
    pub threads: usize,
}

impl Default for ScaleLabConfig {
    fn default() -> Self {
        ScaleLabConfig { max_n: 100_000, huge: false, sample: 8, threads: 0 }
    }
}

/// The three workloads of the tier.
const WORKLOADS: [&str; 3] = ["abd", "fig2", "fig4"];

/// The ladder of system sizes for `cfg`.
fn rungs(cfg: &ScaleLabConfig) -> Vec<usize> {
    let mut ns: Vec<usize> =
        [1_000, 10_000, 100_000].into_iter().filter(|&n| n <= cfg.max_n).collect();
    if ns.is_empty() {
        ns.push(cfg.max_n.max(8));
    }
    if cfg.huge {
        ns.push(1_000_000);
    }
    ns
}

/// Measured outcome of one `(workload, n)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleCell {
    /// Which algorithm ran (`"abd"`, `"fig2"`, `"fig4"`).
    pub workload: &'static str,
    /// System size.
    pub n: usize,
    /// Engine steps executed.
    pub steps: u64,
    /// Messages sent (every fan-out copy counts).
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages still pending at stop time.
    pub in_flight: u64,
    /// Decisions recorded (agreement legs) at stop time.
    pub decided: u64,
    /// Completed register operations (ABD leg; zero elsewhere).
    pub ops_complete: u64,
    /// Safety violations (linearizability for ABD). Must be zero.
    pub violations: u64,
    /// Why the run stopped (must be the done-predicate, i.e.
    /// `AllCorrectHalted`).
    pub reason: &'static str,
    /// Harness heap at stop time (queues, trace, halted set — measured,
    /// not estimated), in bytes. Excludes the automata: see
    /// [`automaton_bytes`](Self::automaton_bytes).
    pub heap_bytes: u64,
    /// `heap_bytes / n`.
    pub bytes_per_process: u64,
    /// The automata's inline footprint, `n × size_of` of the workload's
    /// automaton type (heap they own behind boxes is not counted).
    pub automaton_bytes: u64,
    /// Wall clock of this cell in milliseconds (runner-dependent).
    pub wall_ms: f64,
}

impl ScaleCell {
    /// The run stopped because its done-predicate fired, nothing broke,
    /// and no message was lost or double-counted: scale cells run over
    /// reliable, honest channels, so every send was delivered or is still
    /// queued (`in_flight` scans the queues, independent of the counters).
    pub fn ok(&self) -> bool {
        self.violations == 0
            && self.reason == "all-correct-halted"
            && self.sent == self.delivered + self.in_flight
    }

    fn to_json(&self) -> Json {
        let secs = (self.wall_ms / 1e3).max(1e-9);
        ObjectBuilder::new()
            .field("workload", self.workload)
            .field("n", self.n)
            .field("steps", self.steps)
            .field("sent", self.sent)
            .field("delivered", self.delivered)
            .field("in_flight", self.in_flight)
            .field("decided", self.decided)
            .field("ops_complete", self.ops_complete)
            .field("violations", self.violations)
            .field("reason", self.reason)
            .field("heap_bytes", self.heap_bytes)
            .field("bytes_per_process", self.bytes_per_process)
            .field("automaton_bytes", self.automaton_bytes)
            .field("ok", self.ok())
            // Runner-dependent fields last; CI strips them before
            // comparing artifacts across thread counts.
            .field("wall_ms", self.wall_ms)
            .field("steps_per_sec", self.steps as f64 / secs)
            .field("msgs_per_sec", self.sent as f64 / secs)
            .build()
    }
}

/// Measured outcome of one [`run_scale_bench`] call.
#[derive(Clone, Debug)]
pub struct ScaleBenchReport {
    /// The configuration that produced the numbers.
    pub cfg: ScaleLabConfig,
    /// Workers actually used (wall clock only).
    pub workers: usize,
    /// One cell per `(workload, n)`, in canonical order.
    pub cells: Vec<ScaleCell>,
    /// Peak RSS of the whole process in kiB (`VmHWM`; Linux only,
    /// runner-dependent).
    pub peak_rss_kb: Option<u64>,
    /// Total wall clock in milliseconds (runner-dependent).
    pub wall_ms: f64,
}

impl ScaleBenchReport {
    /// Every cell behaved.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(ScaleCell::ok)
    }

    /// The `BENCH_scale.json` record.
    pub fn to_json(&self) -> Json {
        ObjectBuilder::new()
            .field("bench", "scale_tier")
            .field("max_n", self.cfg.max_n)
            .field("huge", self.cfg.huge)
            .field("sample", self.cfg.sample)
            .field("threads", self.cfg.threads)
            .field("workers", self.workers)
            .field("cells", self.cells.iter().map(ScaleCell::to_json).collect::<Vec<_>>())
            .field("ok", self.ok())
            .field("wall_ms", self.wall_ms)
            .field("peak_rss_kb", self.peak_rss_kb.map_or(Json::Null, Json::from))
            .build()
    }
}

impl fmt::Display for ScaleBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[scale] rungs up to n={}{} ({} worker(s), {:.1} ms{})",
            self.cfg.max_n,
            if self.cfg.huge { " +huge" } else { "" },
            self.workers,
            self.wall_ms,
            match self.peak_rss_kb {
                Some(kb) => format!(", peak RSS {:.1} MiB", kb as f64 / 1024.0),
                None => String::new(),
            }
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  {:<4} n={:<7} steps {:>9}  sent {:>10}  delivered {:>9}  {:>5} B/proc  automata {:>9} B  {:>8.0} steps/s — {}",
                c.workload,
                c.n,
                c.steps,
                c.sent,
                c.delivered,
                c.bytes_per_process,
                c.automaton_bytes,
                c.steps as f64 / (c.wall_ms / 1e3).max(1e-9),
                if c.ok() { "OK" } else { "UNEXPECTED" }
            )?;
        }
        Ok(())
    }
}

fn reason_str(reason: StopReason) -> &'static str {
    match reason {
        StopReason::AllCorrectHalted => "all-correct-halted",
        StopReason::MaxSteps => "max-steps",
        StopReason::Starved => "starved",
        StopReason::SchedulerExhausted => "scheduler-exhausted",
    }
}

/// The ABD leg: scripted clients at `{p0, p1}` over `n` majority-quorum
/// replicas, run to script completion and checked linearizable.
fn run_abd_cell(n: usize) -> ScaleCell {
    let t0 = Instant::now();
    let pattern = FailurePattern::all_correct(n);
    let s = ProcessSet::from_iter([0, 1].map(ProcessId));
    // Each operation costs Θ(n) deliveries; keep the 10⁶ rung to one
    // operation per client so the cell stays in single-digit minutes.
    let scripts = if n > 100_000 {
        vec![vec![OpKind::Write(sih_model::Value(1))], vec![OpKind::Read]]
    } else {
        vec![
            vec![OpKind::Write(sih_model::Value(1)), OpKind::Read],
            vec![OpKind::Read, OpKind::Write(sih_model::Value(2))],
        ]
    };
    let expected_ops: u64 = scripts.iter().map(|s| s.len() as u64).sum();
    let procs = abd_processes_with_rule(s, n, scripts, QuorumRule::Majority(n / 2 + 1));
    let mut sim = Simulation::new(procs, pattern).with_trace_level(TraceLevel::Light);
    sim.set_script_recording(false);
    let budget = 64 * n as u64 + 100_000;
    let outcome = sim.run_event_driven(&NoDetector, budget, |sim| {
        s.iter().all(|p| sim.process(p).script_finished())
    });
    let heap = sim.harness_heap_bytes() as u64;
    let ops = sim.trace().op_records();
    let complete = ops.iter().filter(|o| o.is_complete()).count() as u64;
    let mut violations = u64::from(check_linearizable(&ops, None).is_err());
    if complete != expected_ops {
        violations += 1;
    }
    ScaleCell {
        workload: "abd",
        n,
        steps: outcome.steps,
        sent: outcome.sent,
        delivered: outcome.delivered,
        in_flight: outcome.in_flight,
        decided: 0,
        ops_complete: complete,
        violations,
        reason: reason_str(outcome.reason),
        heap_bytes: heap,
        bytes_per_process: heap / n as u64,
        automaton_bytes: automaton_bytes::<AbdRegister>(n),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// `n` automata of type `A`, inline.
fn automaton_bytes<A>(n: usize) -> u64 {
    (n * std::mem::size_of::<A>()) as u64
}

/// An agreement leg: run until `sample` decisions are on the trace.
/// Non-active processes flood their own value at their first step, so
/// decisions (and their Θ(n) fan-outs) accumulate from the kickoff on.
fn run_agreement_cell(workload: &'static str, n: usize, sample: usize) -> ScaleCell {
    let t0 = Instant::now();
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    let budget = 32 * n as u64 + 100_000;
    let target = sample.min(n / 2);
    let (outcome, heap, decided, automata) = match workload {
        "fig2" => {
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
            let mut sim = Simulation::new(fig2_processes(&proposals), pattern.clone())
                .with_trace_level(TraceLevel::Light);
            sim.set_script_recording(false);
            let o =
                sim.run_event_driven(&sigma, budget, |sim| sim.trace().decided_count() >= target);
            let automata = automaton_bytes::<Fig2SetAgreement>(n);
            (o, sim.harness_heap_bytes() as u64, sim.trace().decided_count() as u64, automata)
        }
        "fig4" => {
            let active: ProcessSet = (0..4u32).map(ProcessId).collect();
            let sigma_2k = SigmaK::new(active, &pattern, 0);
            let mut sim = Simulation::new(fig4_processes(&proposals), pattern.clone())
                .with_trace_level(TraceLevel::Light);
            sim.set_script_recording(false);
            let o = sim
                .run_event_driven(&sigma_2k, budget, |sim| sim.trace().decided_count() >= target);
            let automata = automaton_bytes::<Fig4SetAgreement>(n);
            (o, sim.harness_heap_bytes() as u64, sim.trace().decided_count() as u64, automata)
        }
        other => panic!("unknown scale workload {other:?}"),
    };
    ScaleCell {
        workload,
        n,
        steps: outcome.steps,
        sent: outcome.sent,
        delivered: outcome.delivered,
        in_flight: outcome.in_flight,
        decided,
        ops_complete: 0,
        violations: u64::from(decided < target as u64),
        reason: reason_str(outcome.reason),
        heap_bytes: heap,
        bytes_per_process: heap / n as u64,
        automaton_bytes: automata,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Reads the process's peak RSS (`VmHWM`) in kiB; Linux only.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs the scaling ladder.
///
/// Cells fan across the sweep engine; each cell's counters depend only on
/// `(workload, n, sample)`, so the artifact's deterministic fields are
/// identical for every `--threads` value.
pub fn run_scale_bench(cfg: &ScaleLabConfig) -> ScaleBenchReport {
    let t0 = Instant::now();
    let ns = rungs(cfg);
    let sample = cfg.sample;

    // Canonical cell order: workload-major, then ascending n.
    let mut grid: Vec<(usize, usize)> = Vec::new();
    for (w, _) in WORKLOADS.iter().enumerate() {
        for &n in &ns {
            grid.push((w, n));
        }
    }

    let sweep = Sweep::new(cfg.threads);
    let workers = sweep.effective_threads(grid.len());
    let cells: Vec<ScaleCell> = sweep.run(grid, || {
        move |_idx, (w, n): (usize, usize)| match WORKLOADS[w] {
            "abd" => run_abd_cell(n),
            wl @ ("fig2" | "fig4") => run_agreement_cell(wl, n, sample),
            other => unreachable!("workload {other}"),
        }
    });

    ScaleBenchReport {
        cfg: *cfg,
        workers,
        cells,
        peak_rss_kb: peak_rss_kb(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleLabConfig {
        // n = 200 exercises the past-64-processes paths (ProcSet acks,
        // majority quorums, batched fan-out) without slowing the suite.
        ScaleLabConfig { max_n: 200, huge: false, sample: 8, threads: 1 }
    }

    #[test]
    fn all_cells_complete_cleanly() {
        let report = run_scale_bench(&tiny());
        assert!(report.ok(), "{report}");
        assert_eq!(report.cells.len(), 3);
        let abd = &report.cells[0];
        assert_eq!(abd.workload, "abd");
        assert_eq!(abd.ops_complete, 4);
        assert_eq!(abd.violations, 0);
        // Each phase fans out to all n replicas: 4 ops × 2 phases.
        assert!(abd.sent >= 8 * 200, "{abd:?}");
        for c in &report.cells[1..] {
            assert!(c.decided >= 8, "{c:?}");
            assert_eq!(c.reason, "all-correct-halted");
        }
        let json = report.to_json().to_string_pretty();
        let parsed = crate::json::parse(&json).expect("round-trips");
        assert_eq!(parsed.get("ok").as_bool(), Some(true));
        assert_eq!(parsed.get("bench").as_str(), Some("scale_tier"));
    }

    #[test]
    fn a_cell_that_loses_or_double_counts_messages_is_not_ok() {
        let report = run_scale_bench(&ScaleLabConfig { max_n: 100, ..tiny() });
        for cell in &report.cells {
            assert!(cell.ok(), "{cell:?}");
            // A send that reached neither a queue nor a receiver...
            let lost = ScaleCell { sent: cell.sent + 1, ..cell.clone() };
            assert!(!lost.ok(), "a lost message passed: {lost:?}");
            // ...and a delivery counted twice.
            let doubled = ScaleCell { delivered: cell.delivered + 1, ..cell.clone() };
            assert!(!doubled.ok(), "a double-counted message passed: {doubled:?}");
        }
    }

    #[test]
    fn workers_are_clamped_to_the_cell_count() {
        let report = run_scale_bench(&ScaleLabConfig { threads: 8, ..tiny() });
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.workers, Sweep::new(8).effective_threads(3));
        assert!(report.workers <= 3, "{} workers for 3 cells", report.workers);
    }

    #[test]
    fn rung_ladder_respects_max_n_and_huge() {
        assert_eq!(rungs(&ScaleLabConfig::default()), vec![1_000, 10_000, 100_000]);
        assert_eq!(rungs(&ScaleLabConfig { max_n: 10_000, ..tiny() }), vec![1_000, 10_000]);
        assert_eq!(rungs(&ScaleLabConfig { max_n: 500, ..tiny() }), vec![500]);
        assert_eq!(
            rungs(&ScaleLabConfig { max_n: 1_000, huge: true, ..tiny() }),
            vec![1_000, 1_000_000]
        );
    }
}
