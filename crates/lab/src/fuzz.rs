//! `lab fuzz` — the coverage-guided schedule fuzzer ("VOPR mode").
//!
//! The fuzzer grows a live corpus of whole [`Schedule`]s against the
//! weakened-twin and byzantine repro workloads. Each batch it (1) picks
//! parents from the corpus under a deterministic power schedule, (2)
//! mutates them with the grammar-closed operators of
//! `sih_runtime::fuzz` (swarm style: every batch enables a random
//! subset of the operator alphabet), (3) fans the lenient coverage
//! replays over the deterministic [`Sweep`] engine, and (4) merges the
//! results serially in job order. A mutant that visits a state
//! fingerprint never seen before — the same per-step state
//! fingerprints the explorer dedups on, mixed with a workload key — is
//! kept in canonical form (its actually-executed choice script, which
//! strict-replays identically), and its parent's selection energy is
//! boosted: schedules that recently found novelty breed more.
//!
//! Any evaluated schedule whose verdict is not `ok` is a violation; the
//! first per (workload, verdict) class auto-shrinks through
//! [`crate::repro::shrink`] into a corpus-format witness.
//!
//! **Determinism.** Mutant generation, corpus selection and the merge
//! are serial; evaluation is the only parallel stage, and [`Sweep`]
//! returns results in submission order regardless of worker count. So
//! every counter, the kept corpus, its digest and every witness are
//! bitwise identical for any `--threads` value — only `wall_ms` (and
//! the rates derived from it) may differ. A nonzero `budget_ms` is the
//! one escape hatch: it is checked at batch boundaries against the wall
//! clock, so runs capped by time rather than by schedule count are
//! *not* reproducible across machines.

use crate::json::{ObjectBuilder, Value};
use crate::repro::{
    record_any, replay, replay_with_fingerprints, shrink, RecordRequest, ReplayMode, BYZ_WORKLOADS,
};
use sih_runtime::fuzz::{crossover, mutate, Coverage, FuzzCorpus, FuzzRng, MutOp, MutatorConfig};
use sih_runtime::sweep::Sweep;
use sih_runtime::{fnv1a_64, Schedule, ShrinkReport};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

/// The workloads the fuzzer targets: the three weakened twins (whose
/// planted soundness holes give mutants something to find) and one
/// byzantine workload (whose adversary fields exercise the gated v2
/// operators).
pub const FUZZ_WORKLOADS: &[&str] =
    &["fig2-weak-sigma", "fig4-weak-sigma-k", "abd-weak-quorum", "fig2-byz-perturb"];

/// Base-corpus recordings per workload (fair-scheduler seeds `0..N`).
const SEEDS_PER_WORKLOAD: u64 = 3;
/// Step cap on base-corpus recordings, so seed scripts stay mutably
/// short.
const SEED_MAX_STEPS: u64 = 2048;
/// One mutant in `CROSSOVER_ONE_IN` is bred by crossover instead of
/// point mutation.
const CROSSOVER_ONE_IN: u64 = 8;

/// Parameters of one `lab fuzz` run.
#[derive(Clone, Copy, Debug)]
pub struct FuzzLabConfig {
    /// Master seed of the mutation RNG.
    pub seed: u64,
    /// Stop after this many schedule evaluations (base seeds included).
    pub budget_schedules: u64,
    /// Optional wall-clock cap in milliseconds (`0` = none), checked at
    /// batch boundaries. Runs capped by time are not reproducible.
    pub budget_ms: u64,
    /// Mutants bred per batch (one swarm operator mask per batch).
    pub batch: usize,
    /// Worker threads (`0` = one per core). Only wall clock depends on
    /// it — every counter, the corpus and the witnesses are
    /// thread-count independent.
    pub threads: usize,
}

impl Default for FuzzLabConfig {
    fn default() -> Self {
        FuzzLabConfig { seed: 0, budget_schedules: 512, budget_ms: 0, batch: 64, threads: 0 }
    }
}

/// A shrunk violation witness the fuzzer found, in corpus format.
#[derive(Clone, Debug)]
pub struct FuzzWitness {
    /// Workload the violation was found against.
    pub workload: String,
    /// Stable verdict token (`panic`, `violation:agreement`, …).
    pub verdict: String,
    /// The shrunk, strict-replaying schedule.
    pub schedule: Schedule,
    /// What the shrink pass did.
    pub shrink: ShrinkReport,
}

/// Measured outcome of one [`run_fuzz_bench`] call.
#[derive(Clone, Debug)]
pub struct FuzzBenchReport {
    /// The configuration that produced the numbers.
    pub cfg: FuzzLabConfig,
    /// Workers actually used (wall clock only).
    pub workers: usize,
    /// Base-corpus schedules recorded or loaded.
    pub seeds_loaded: u64,
    /// Schedule evaluations performed.
    pub executed: u64,
    /// Batches completed.
    pub batches: u64,
    /// Distinct (workload, state-fingerprint) pairs observed.
    pub distinct_fingerprints: u64,
    /// Evaluations whose verdict was not `ok`.
    pub violations: u64,
    /// The kept corpus, in insertion order (every entry
    /// strict-replays).
    pub corpus: Vec<Schedule>,
    /// Canonical digest of the kept corpus (FNV-1a/64 over sorted entry
    /// digests).
    pub corpus_digest: u64,
    /// First violation per (workload, verdict) class, auto-shrunk.
    pub witnesses: Vec<FuzzWitness>,
    /// Wall clock in milliseconds (the only runner-dependent field,
    /// with the rates derived from it).
    pub wall_ms: f64,
}

impl FuzzBenchReport {
    /// The run met its budget, found coverage, kept a corpus, witnessed
    /// at least one violation, and every witness strict-replays.
    pub fn ok(&self) -> bool {
        // A time-capped run may stop short of the schedule budget;
        // otherwise the budget must have been spent.
        (self.executed >= self.cfg.budget_schedules || self.cfg.budget_ms > 0)
            && self.distinct_fingerprints > 0
            && !self.corpus.is_empty()
            && self.violations > 0
            && !self.witnesses.is_empty()
            && self
                .witnesses
                .iter()
                .all(|w| replay(&w.schedule, ReplayMode::Strict).is_ok_and(|r| r.matches))
    }

    /// The `BENCH_fuzz.json` record.
    pub fn to_json(&self) -> Value {
        let secs = (self.wall_ms / 1e3).max(1e-9);
        ObjectBuilder::new()
            .field("bench", "fuzz")
            .field("seed", self.cfg.seed)
            .field("budget_schedules", self.cfg.budget_schedules)
            .field("budget_ms", self.cfg.budget_ms)
            .field("batch", self.cfg.batch)
            .field("threads", self.cfg.threads)
            .field("workers", self.workers)
            .field("workloads", FUZZ_WORKLOADS.iter().map(|w| Value::from(*w)).collect::<Vec<_>>())
            .field("seeds_loaded", self.seeds_loaded)
            .field("executed", self.executed)
            .field("batches", self.batches)
            .field("distinct_fingerprints", self.distinct_fingerprints)
            .field("violations", self.violations)
            .field("corpus_size", self.corpus.len())
            .field("corpus_digest", format!("{:016x}", self.corpus_digest))
            .field(
                "witnesses",
                self.witnesses
                    .iter()
                    .map(|w| {
                        ObjectBuilder::new()
                            .field("workload", w.workload.as_str())
                            .field("verdict", w.verdict.as_str())
                            .field("choices", w.schedule.choices.len())
                            .field("digest", format!("{:016x}", w.schedule.digest()))
                            .field("shrink_original_len", w.shrink.original_len)
                            .field("shrink_final_len", w.shrink.final_len)
                            .field("shrink_rounds", w.shrink.rounds as u64)
                            .build()
                    })
                    .collect::<Vec<_>>(),
            )
            .field("schedules_per_sec", self.executed as f64 / secs)
            .field("distinct_fps_per_sec", self.distinct_fingerprints as f64 / secs)
            .field("wall_ms", self.wall_ms)
            .field("ok", self.ok())
            .build()
    }
}

impl fmt::Display for FuzzBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[fuzz] seed={} budget={} ({} worker(s), {:.1} ms)",
            self.cfg.seed, self.cfg.budget_schedules, self.workers, self.wall_ms
        )?;
        writeln!(
            f,
            "  {} evaluated in {} batches ({} base seeds): {} distinct fingerprints, \
             corpus {} (digest {:016x}), {} violations",
            self.executed,
            self.batches,
            self.seeds_loaded,
            self.distinct_fingerprints,
            self.corpus.len(),
            self.corpus_digest,
            self.violations
        )?;
        for w in &self.witnesses {
            writeln!(
                f,
                "  witness {} `{}`: {} -> {} choices in {} shrink rounds",
                w.workload, w.verdict, w.shrink.original_len, w.shrink.final_len, w.shrink.rounds
            )?;
        }
        write!(f, "  {}", if self.ok() { "OK" } else { "UNEXPECTED" })
    }
}

/// Reads every `*.schedule` under `dir` (sorted by name), keeping the
/// parseable ones whose workload the fuzzer targets — extra corpus
/// seeds for `lab fuzz --corpus`.
pub fn load_seed_schedules(dir: &std::path::Path) -> std::io::Result<Vec<Schedule>> {
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        if let Ok(s) = Schedule::parse(&text) {
            if FUZZ_WORKLOADS.contains(&s.checker.as_str()) {
                out.push(s);
            }
        }
    }
    Ok(out)
}

/// The coverage key of one step: the workload name folded into the
/// engine's state fingerprint, so identical automaton states of
/// different workloads never collide.
fn workload_key(checker: &str) -> u64 {
    fnv1a_64(checker.as_bytes())
}

/// One evaluation job: parent corpus index (`None` for base seeds) and
/// the candidate schedule.
type Job = (Option<usize>, Schedule);
/// One evaluation result: the job plus the replay outcome (`None` if
/// the workload rejected the candidate's parameters).
type Eval = (Option<usize>, Schedule, Option<crate::repro::FingerprintReplay>);

/// Runs the fuzzer: seeds the corpus (fresh fair-scheduler recordings
/// of every target workload, plus `extra_seeds`, e.g. the committed
/// corpus), then breeds, evaluates and merges batches until the budget
/// is spent.
pub fn run_fuzz_bench(cfg: &FuzzLabConfig, extra_seeds: &[Schedule]) -> FuzzBenchReport {
    assert!(cfg.batch >= 1, "batch must be at least 1");
    let t0 = Instant::now();
    let sweep = Sweep::new(cfg.threads);
    let mut rng = FuzzRng::new(cfg.seed);
    let mut coverage = Coverage::new();
    let mut corpus = FuzzCorpus::new();
    let mut executed = 0u64;
    let mut batches = 0u64;
    let mut violations = 0u64;
    let mut witness_keys: BTreeSet<(String, String)> = BTreeSet::new();
    let mut raw_witnesses: Vec<Schedule> = Vec::new();

    // ---- base corpus: fresh recordings + caller-supplied seeds ----
    let mut seed_jobs: Vec<Job> = Vec::new();
    for name in FUZZ_WORKLOADS {
        for seed in 0..SEEDS_PER_WORKLOAD {
            let mut req = RecordRequest::new(name);
            req.seed = seed;
            req.max_steps = Some(SEED_MAX_STEPS);
            let s = record_any(&req).expect("fuzz workloads are registered");
            seed_jobs.push((None, s));
        }
    }
    seed_jobs.extend(extra_seeds.iter().map(|s| (None, s.clone())));
    let seeds_loaded = seed_jobs.len() as u64;

    let evaluate = |sweep: &Sweep, jobs: Vec<Job>| -> Vec<Eval> {
        sweep.run(jobs, || {
            |_idx, (parent, s): Job| {
                let rep = replay_with_fingerprints(&s, ReplayMode::Lenient).ok();
                (parent, s, rep)
            }
        })
    };

    // The serial merge: coverage observation, corpus insertion, parent
    // reward and witness capture, in job order — the determinism pivot.
    let merge = |evals: Vec<Eval>,
                 coverage: &mut Coverage,
                 corpus: &mut FuzzCorpus,
                 executed: &mut u64,
                 violations: &mut u64,
                 witness_keys: &mut BTreeSet<(String, String)>,
                 raw_witnesses: &mut Vec<Schedule>| {
        for (parent, cand, rep) in evals {
            *executed += 1;
            let Some(rep) = rep else { continue };
            let key = workload_key(&cand.checker);
            let novel = coverage.observe(rep.fingerprints.iter().map(|fp| key ^ fp));
            // Canonical form: the actually-executed legal subsequence,
            // which strict-replays to the same verdict (DESIGN.md §10).
            let canonical =
                Schedule { choices: rep.executed.clone(), verdict: rep.verdict.clone(), ..cand };
            if rep.verdict != "ok" {
                *violations += 1;
                let k = (canonical.checker.clone(), canonical.verdict.clone());
                if witness_keys.insert(k) {
                    raw_witnesses.push(canonical.clone());
                }
            }
            if novel > 0 && !canonical.choices.is_empty() && corpus.push(canonical, novel).is_some()
            {
                if let Some(p) = parent {
                    corpus.reward(p);
                }
            }
        }
    };

    let seed_evals = evaluate(&sweep, seed_jobs);
    merge(
        seed_evals,
        &mut coverage,
        &mut corpus,
        &mut executed,
        &mut violations,
        &mut witness_keys,
        &mut raw_witnesses,
    );

    // ---- batched breed / evaluate / merge loop ----
    while executed < cfg.budget_schedules && !corpus.is_empty() {
        if cfg.budget_ms > 0 && t0.elapsed().as_millis() as u64 >= cfg.budget_ms {
            break;
        }
        let want = (cfg.budget_schedules - executed).min(cfg.batch as u64) as usize;
        // Swarm: each batch fuzzes with a random subset of the operator
        // alphabet (always keeping at least one universally-applicable
        // choice-script operator enabled).
        let mask = rng.next_u64();
        let mut ops: Vec<MutOp> = MutOp::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, op)| op)
            .collect();
        if !ops.iter().any(|op| !op.is_adversary()) {
            ops = MutOp::ALL.to_vec();
        }

        let mut jobs: Vec<Job> = Vec::with_capacity(want);
        while jobs.len() < want {
            let Some(pidx) = corpus.pick(&mut rng) else { break };
            let parent = corpus.entries()[pidx].schedule.clone();
            let allow = BYZ_WORKLOADS.contains(&parent.checker.as_str());
            let mcfg = MutatorConfig::for_schedule(&parent, allow);
            let mut cand: Option<Schedule> = None;
            if rng.chance(1, CROSSOVER_ONE_IN) {
                if let Some(other) = corpus.pick(&mut rng) {
                    let mate = &corpus.entries()[other].schedule;
                    cand = crossover(&parent, mate, &mcfg, &mut rng);
                }
            }
            if cand.is_none() {
                let mut cur = parent.clone();
                let want_ops = 1 + rng.below(2) as usize;
                let mut applied = 0;
                for _ in 0..8 {
                    let op = ops[rng.below(ops.len() as u64) as usize];
                    if let Some(m) = mutate(&cur, op, &mcfg, &mut rng) {
                        cur = m;
                        applied += 1;
                        if applied >= want_ops {
                            break;
                        }
                    }
                }
                cand = Some(cur);
            }
            // An unmutated fallback still evaluates (and dedups away);
            // budget progress is guaranteed either way.
            jobs.push((Some(pidx), cand.unwrap_or(parent)));
        }
        if jobs.is_empty() {
            break;
        }
        let evals = evaluate(&sweep, jobs);
        merge(
            evals,
            &mut coverage,
            &mut corpus,
            &mut executed,
            &mut violations,
            &mut witness_keys,
            &mut raw_witnesses,
        );
        batches += 1;
    }

    // ---- shrink the first violation of each class into a witness ----
    let witnesses: Vec<FuzzWitness> = raw_witnesses
        .into_iter()
        .map(|s| {
            let (shrunk, report) = shrink(&s).expect("witness workload is registered");
            FuzzWitness {
                workload: shrunk.checker.clone(),
                verdict: shrunk.verdict.clone(),
                schedule: shrunk,
                shrink: report,
            }
        })
        .collect();

    // The widest evaluation: the base corpus or one full batch.
    let workers = sweep.effective_threads((seeds_loaded as usize).max(cfg.batch));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    FuzzBenchReport {
        cfg: *cfg,
        workers,
        seeds_loaded,
        executed,
        batches,
        distinct_fingerprints: coverage.len(),
        violations,
        corpus: corpus.entries().iter().map(|e| e.schedule.clone()).collect(),
        corpus_digest: corpus.digest(),
        witnesses,
        wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzLabConfig {
        FuzzLabConfig { seed: 7, budget_schedules: 96, budget_ms: 0, batch: 24, threads: 1 }
    }

    #[test]
    fn fuzz_bench_meets_its_budget_and_witnesses_a_violation() {
        let report = run_fuzz_bench(&tiny(), &[]);
        assert!(report.ok(), "{report}");
        assert!(report.executed >= 96);
        assert!(report.distinct_fingerprints > 0);
        assert!(!report.witnesses.is_empty());
    }

    #[test]
    fn fuzz_corpus_entries_strict_replay() {
        let report = run_fuzz_bench(&tiny(), &[]);
        for s in &report.corpus {
            let rep = replay(s, ReplayMode::Strict).expect("kept entry replays");
            assert!(rep.matches, "{}: `{}` vs `{}`", s.checker, s.verdict, rep.verdict);
        }
    }
}
