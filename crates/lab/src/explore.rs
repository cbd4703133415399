//! `lab explore` — benchmarks the reduced-state-space explorer against
//! unreduced enumeration on the Figure 2 safety workload and emits the
//! `BENCH_explore.json` artifact CI archives per revision.

use crate::json::{ObjectBuilder, Value};
use sih_agreement::{check_k_agreement_safety, distinct_proposals, fig2_processes};
use sih_detectors::Sigma;
use sih_model::{FailurePattern, ProcessId};
use sih_runtime::{explore_par, explore_with, ExploreConfig, ExploreResult, Simulation};
use std::fmt;
use std::time::Instant;

/// Parameters of one `lab explore` run.
#[derive(Clone, Copy, Debug)]
pub struct ExploreLabConfig {
    /// System size (Figure 2 needs `n >= 2`).
    pub n: usize,
    /// Schedule-length bound.
    pub depth: usize,
    /// Worker threads for the frontier leg; `0` = one per core. Only
    /// that leg's wall clock depends on it — every counter in the
    /// artifact comes from a fixed engine configuration, so the numbers
    /// are comparable across CI runners with different core counts.
    pub threads: usize,
    /// Prefix depth of the frontier leg's fan-out.
    pub frontier_depth: usize,
}

impl Default for ExploreLabConfig {
    fn default() -> Self {
        // The acceptance workload: Figure 2 at n = 3 to depth 9, the
        // same system `tests/exhaustive.rs` sweeps.
        ExploreLabConfig { n: 3, depth: 9, threads: 0, frontier_depth: 3 }
    }
}

/// Measured outcome of one [`run_explore_bench`] call.
#[derive(Clone, Debug)]
pub struct ExploreBenchReport {
    /// The configuration that produced the numbers.
    pub cfg: ExploreLabConfig,
    /// Workers the reduced run actually used.
    pub workers: usize,
    /// Full result of the unreduced (dedup and POR off) enumeration.
    pub unreduced: ExploreResult,
    /// Unreduced wall clock in milliseconds.
    pub unreduced_wall_ms: f64,
    /// Full result of the reduced run — **always** the serial
    /// shared-table engine, so these counters never depend on the
    /// runner's core count.
    pub reduced: ExploreResult,
    /// Reduced wall clock in milliseconds.
    pub reduced_wall_ms: f64,
    /// Full result of the source-DPOR leg — the serial engine with
    /// persistent sleep sets and happens-before race wake-ups on top of
    /// dedup.
    pub dpor: ExploreResult,
    /// DPOR-leg wall clock in milliseconds.
    pub dpor_wall_ms: f64,
    /// Full result of the frontier leg — **always** the parallel
    /// frontier engine at the configured `frontier_depth`; bitwise
    /// identical for every worker count, so only its wall clock reflects
    /// the runner.
    pub frontier: ExploreResult,
    /// Frontier-leg wall clock in milliseconds.
    pub frontier_wall_ms: f64,
}

impl ExploreBenchReport {
    /// All four runs found no violation (Figure 2 is safe) — or all
    /// found the same one.
    pub fn verdicts_agree(&self) -> bool {
        self.unreduced.violation == self.reduced.violation
            && self.reduced.violation == self.dpor.violation
            && self.dpor.violation == self.frontier.violation
    }

    /// Visited-state shrink factor of the reduction.
    pub fn state_reduction(&self) -> f64 {
        self.unreduced.states as f64 / self.reduced.states.max(1) as f64
    }

    /// Visited-state shrink factor of source-DPOR over the depth-1
    /// sleep-set leg — persistent sleep sets must never explore *more*.
    pub fn dpor_state_reduction(&self) -> f64 {
        self.reduced.states as f64 / self.dpor.states.max(1) as f64
    }

    /// Wall-clock shrink factor of the reduction.
    pub fn speedup(&self) -> f64 {
        self.unreduced_wall_ms / self.reduced_wall_ms.max(f64::EPSILON)
    }

    /// Wall-clock shrink factor of the frontier leg vs unreduced.
    pub fn frontier_speedup(&self) -> f64 {
        self.unreduced_wall_ms / self.frontier_wall_ms.max(f64::EPSILON)
    }

    /// Whether the parallel-frontier leg ran *slower* than the unreduced
    /// baseline. The explore CI job gates **hard** on this flag
    /// (`lab explore --strict-frontier`: a release-mode frontier run
    /// slower than plain enumeration means the shared-table fan-out
    /// regressed); otherwise it is surfaced as a warning, since
    /// small/debug runs are allowed to trip it.
    pub fn frontier_regressed(&self) -> bool {
        self.frontier_speedup() < 1.0
    }

    /// The artifact's acceptance gate, naming the first failed check:
    /// with `strict_frontier` the frontier leg must not be slower than
    /// unreduced enumeration; always, all four verdicts agree, the
    /// reduced leg finds no violation, and source-DPOR explores no more
    /// states than the sleep-set leg.
    pub fn gate(&self, strict_frontier: bool) -> Result<(), String> {
        if strict_frontier && self.frontier_regressed() {
            return Err(format!(
                "frontier regression: frontier_speedup {:.2} < 1.0",
                self.frontier_speedup()
            ));
        }
        if !self.verdicts_agree() {
            return Err("engine ladder verdicts disagree".to_owned());
        }
        if self.dpor.states > self.reduced.states {
            return Err("source-DPOR explored more states than the sleep-set leg".to_owned());
        }
        if !self.reduced.ok() {
            return Err("the reduced leg found a violation".to_owned());
        }
        Ok(())
    }

    /// The gate without the (wall-clock) frontier check — the artifact's
    /// `ok` field.
    pub fn ok(&self) -> bool {
        self.gate(false).is_ok()
    }

    /// Fraction of node encounters the fingerprint table absorbed.
    pub fn dedup_ratio(&self) -> f64 {
        let encounters = self.reduced.states + self.reduced.deduped;
        self.reduced.deduped as f64 / encounters.max(1) as f64
    }

    /// The `BENCH_explore.json` record.
    ///
    /// `threads` is always the **resolved** worker count (`0` = one per
    /// core is resolved before serializing), so it agrees with `workers`
    /// instead of recording the raw flag.
    pub fn to_json(&self) -> Value {
        let run = |r: &ExploreResult, wall_ms: f64| {
            ObjectBuilder::new()
                .field("states", r.states)
                .field("terminals", r.terminals)
                .field("deduped", r.deduped)
                .field("pruned", r.pruned)
                .field("races", r.races)
                .field("table_bytes", r.table_bytes)
                .field("wall_ms", wall_ms)
                .field("states_per_sec", r.states as f64 / (wall_ms / 1e3).max(f64::EPSILON))
                .build()
        };
        ObjectBuilder::new()
            .field("bench", "explore_fig2")
            .field("n", self.cfg.n)
            .field("depth", self.cfg.depth)
            .field("threads", self.workers)
            .field("workers", self.workers)
            .field("frontier_depth", self.cfg.frontier_depth)
            .field("unreduced", run(&self.unreduced, self.unreduced_wall_ms))
            .field("reduced", run(&self.reduced, self.reduced_wall_ms))
            .field("dpor", run(&self.dpor, self.dpor_wall_ms))
            .field("frontier", run(&self.frontier, self.frontier_wall_ms))
            .field("state_reduction", self.state_reduction())
            .field("dpor_state_reduction", self.dpor_state_reduction())
            .field("races", self.dpor.races)
            .field("speedup", self.speedup())
            .field("frontier_speedup", self.frontier_speedup())
            .field("frontier_regressed", self.frontier_regressed())
            .field("dedup_ratio", self.dedup_ratio())
            .field("verdicts_agree", self.verdicts_agree())
            .field("ok", self.ok())
            .build()
    }
}

impl fmt::Display for ExploreBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[explore] fig2 n={} depth={} ({} worker(s))",
            self.cfg.n, self.cfg.depth, self.workers
        )?;
        writeln!(
            f,
            "  unreduced: {:>9} states in {:>8.1} ms",
            self.unreduced.states, self.unreduced_wall_ms
        )?;
        writeln!(
            f,
            "  reduced:   {:>9} states in {:>8.1} ms  (deduped {}, pruned {}, table {} B)",
            self.reduced.states,
            self.reduced_wall_ms,
            self.reduced.deduped,
            self.reduced.pruned,
            self.reduced.table_bytes
        )?;
        writeln!(
            f,
            "  dpor:      {:>9} states in {:>8.1} ms  (pruned {}, races {})",
            self.dpor.states, self.dpor_wall_ms, self.dpor.pruned, self.dpor.races
        )?;
        writeln!(
            f,
            "  frontier:  {:>9} states in {:>8.1} ms  (depth {}, {} worker(s))",
            self.frontier.states, self.frontier_wall_ms, self.cfg.frontier_depth, self.workers
        )?;
        writeln!(
            f,
            "  {:.2}x fewer states ({:.2}x more via dpor), {:.2}x wall clock ({:.2}x frontier), \
             dedup ratio {:.3} — {}",
            self.state_reduction(),
            self.dpor_state_reduction(),
            self.speedup(),
            self.frontier_speedup(),
            self.dedup_ratio(),
            if self.ok() { "OK" } else { "UNEXPECTED" }
        )
    }
}

/// Runs the Figure 2 workload four ways — unreduced, reduced (serial
/// shared-table engine), source-DPOR, and reduced over the parallel
/// frontier — and reports all four, with identical-verdict checking.
///
/// Each JSON leg always comes from one fixed engine configuration:
/// `reduced` is always the serial engine (it never consults the thread
/// count) and `frontier` is always the frontier engine at
/// `cfg.frontier_depth` (bitwise identical for every worker count), so
/// every counter in `BENCH_explore.json` is comparable across revisions
/// regardless of the CI runner's core count — only the wall clocks
/// reflect the machine.
pub fn run_explore_bench(cfg: &ExploreLabConfig) -> ExploreBenchReport {
    let pattern = FailurePattern::all_correct(cfg.n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let proposals = distinct_proposals(cfg.n);
    let sim = Simulation::new(fig2_processes(&proposals), pattern);
    let k = cfg.n - 1;

    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, k).map_err(|e| e.to_string())
    };

    let t0 = Instant::now();
    let unreduced = explore_with(
        &sim,
        &sigma,
        &ExploreConfig::new(cfg.depth).dedup(false).por(false),
        &mut check,
    );
    let unreduced_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The canonical reduced leg: the serial shared-table engine, which
    // ignores `threads` entirely — its counters are runner-independent
    // by construction, and one shared dedup table reduces the most.
    let t0 = Instant::now();
    let reduced = explore_with(&sim, &sigma, &ExploreConfig::new(cfg.depth), &mut check);
    let reduced_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The source-DPOR leg: persistent sleep sets with happens-before
    // race wake-ups layered on the same dedup table.
    let t0 = Instant::now();
    let dpor = explore_with(&sim, &sigma, &ExploreConfig::new(cfg.depth).dpor(true), &mut check);
    let dpor_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let workers = match cfg.threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    };
    // The frontier leg: always the parallel engine at the configured
    // frontier depth. Its counters depend only on `frontier_depth`
    // (bitwise identical for every worker count); its wall clock shows
    // what this runner's cores buy.
    let frontier_cfg =
        ExploreConfig::new(cfg.depth).threads(workers).frontier_depth(cfg.frontier_depth);
    let t0 = Instant::now();
    let frontier = explore_par(&sim, &sigma, &frontier_cfg, || {
        let proposals = proposals.clone();
        move |s: &Simulation<_>| {
            check_k_agreement_safety(s.trace(), &proposals, k).map_err(|e| e.to_string())
        }
    });
    let frontier_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    ExploreBenchReport {
        cfg: *cfg,
        workers,
        unreduced,
        unreduced_wall_ms,
        reduced,
        reduced_wall_ms,
        dpor,
        dpor_wall_ms,
        frontier,
        frontier_wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bench_reduces_and_agrees_at_small_depth() {
        let cfg = ExploreLabConfig { depth: 6, threads: 1, ..ExploreLabConfig::default() };
        let report = run_explore_bench(&cfg);
        assert!(report.verdicts_agree());
        assert!(report.reduced.ok());
        assert!(report.state_reduction() > 1.0);
        // Source-DPOR never explores more than the depth-1 sleep sets.
        assert!(report.dpor.states <= report.reduced.states);
        let json = report.to_json().to_string_pretty();
        let parsed = crate::json::parse(&json).expect("round-trips");
        assert_eq!(parsed.get("ok").as_bool(), Some(true));
        assert_eq!(parsed.get("depth").as_u64(), Some(6));
        // `threads` serializes as the *resolved* worker count, matching
        // `workers` (the raw flag's `0` placeholder never leaks).
        assert_eq!(parsed.get("threads").as_u64(), Some(report.workers as u64));
        assert_eq!(parsed.get("threads").as_u64(), parsed.get("workers").as_u64());
        assert!(parsed.get("reduced").get("states_per_sec").as_f64().unwrap() > 0.0);
        assert!(parsed.get("dpor").get("states").as_u64().unwrap() > 0);
        assert_eq!(parsed.get("races").as_u64(), Some(report.dpor.races));
        assert!(parsed.get("frontier").get("states").as_u64().unwrap() > 0);
        // The regression flag is recorded (its value tracks the runner's
        // wall clock, so only its consistency is asserted here — CI
        // gates on the release-mode artifact).
        assert_eq!(
            parsed.get("frontier_regressed").as_bool(),
            Some(report.frontier_speedup() < 1.0)
        );
    }

    #[test]
    fn the_gate_names_the_first_failed_check() {
        let cfg = ExploreLabConfig { depth: 4, threads: 1, ..ExploreLabConfig::default() };
        let mut report = run_explore_bench(&cfg);
        assert_eq!(report.gate(false), Ok(()));
        // The frontier check is wall clock, so it only bites when asked.
        report.unreduced_wall_ms = 1.0;
        report.frontier_wall_ms = 2.0;
        assert_eq!(report.gate(false), Ok(()));
        let err = report.gate(true).expect_err("a slower frontier leg fails the strict gate");
        assert!(err.starts_with("frontier regression: frontier_speedup 0.50"), "{err}");
        report.frontier_wall_ms = 1.0;
        assert_eq!(report.gate(true), Ok(()));

        let mut more_dpor = report.clone();
        more_dpor.dpor.states = more_dpor.reduced.states + 1;
        assert!(more_dpor.gate(false).expect_err("dpor above reduced").contains("source-DPOR"));
        assert!(!more_dpor.ok());
        let json = more_dpor.to_json();
        assert_eq!(json.get("ok").as_bool(), Some(false));

        let mut disagree = report.clone();
        disagree.frontier.violation = Some((Vec::new(), "planted".to_owned()));
        assert!(disagree.gate(false).expect_err("verdicts differ").contains("disagree"));

        let mut violated = report;
        for leg in [
            &mut violated.unreduced,
            &mut violated.reduced,
            &mut violated.dpor,
            &mut violated.frontier,
        ] {
            leg.violation = Some((Vec::new(), "planted".to_owned()));
        }
        assert!(violated.verdicts_agree());
        assert!(violated.gate(false).expect_err("violation").contains("violation"));
    }

    #[test]
    fn resolved_worker_count_is_never_zero() {
        let cfg = ExploreLabConfig { depth: 4, threads: 0, ..ExploreLabConfig::default() };
        let report = run_explore_bench(&cfg);
        assert!(report.workers >= 1, "threads=0 must resolve to the core count");
        let parsed = crate::json::parse(&report.to_json().to_string_pretty()).expect("parses");
        assert!(parsed.get("threads").as_u64().unwrap() >= 1);
    }

    #[test]
    fn bench_counters_are_worker_count_independent() {
        let base = ExploreLabConfig { depth: 6, ..ExploreLabConfig::default() };
        let serial = run_explore_bench(&ExploreLabConfig { threads: 1, ..base });
        let par = run_explore_bench(&ExploreLabConfig { threads: 2, ..base });
        // Every leg comes from one fixed engine configuration: the full
        // results — all counters, not just the verdicts — must be
        // identical whatever the worker count, so BENCH_explore.json is
        // comparable across CI runners with different core counts.
        assert_eq!(serial.unreduced, par.unreduced);
        assert_eq!(serial.reduced, par.reduced);
        assert_eq!(serial.dpor, par.dpor);
        assert_eq!(serial.frontier, par.frontier);
        // All reduced legs are real reductions, and the frontier leg
        // shares the serial engine's table semantics, so its counters are
        // *bitwise equal* to the serial reduced leg — the partition into
        // subtree jobs changes who explores, never what.
        assert!(par.reduced.states < par.unreduced.states);
        assert!(par.dpor.states <= par.reduced.states);
        assert_eq!(par.frontier, par.reduced);
    }
}
