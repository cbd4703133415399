//! Tier-1 contracts of the coverage-guided schedule fuzzer.
//!
//! Three properties pin the fuzzer to the rest of the harness:
//!
//! 1. **Grammar closure** — every mutation operator applied to every
//!    committed corpus schedule yields a `Schedule` that parses, round-
//!    trips through `to_text`, and preserves the version invariant (a
//!    v1 schedule stays adversary-free unless an adversary operator
//!    explicitly promotes it — never an invalid hybrid).
//! 2. **Thread-count determinism** — a fixed seed and schedule budget
//!    produce bitwise-identical corpora, coverage counts and
//!    `BENCH_fuzz.json` stats at 1, 2 and 8 threads.
//! 3. **Differential replay** — for fuzzer-kept entries on the fig2,
//!    fig4 and ABD weak twins, the strict replay verdict, executed
//!    script and per-step fingerprint stream agree between the
//!    workload-registry path (fanned over the Sweep engine) and a
//!    direct in-test `ScriptedScheduler` run over independently
//!    constructed simulations.

use sih::agreement::{
    check_k_agreement_safety, distinct_proposals, fig2_processes, fig4_processes,
};
use sih::detectors::{WeakSigma, WeakSigmaK, WeakSigmaS};
use sih::model::{FailureDetector, ProcessId, ProcessSet};
use sih::registers::{abd_processes, check_linearizable, LinearizabilityViolation};
use sih::runtime::fuzz::{crossover, mutate, FuzzRng, MutOp, MutatorConfig};
use sih::runtime::sweep::Sweep;
use sih::runtime::{Automaton, Choice, Schedule, ScriptedScheduler, Simulation};
use sih_lab::json::first_difference;
use sih_lab::repro::{replay_with_fingerprints, FingerprintReplay, ReplayMode, BYZ_WORKLOADS};
use sih_lab::{run_fuzz_bench, FuzzBenchReport, FuzzLabConfig};
use std::path::PathBuf;

fn corpus_schedules() -> Vec<(String, Schedule)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("reading tests/corpus")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("reading schedule");
            let s = Schedule::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, s)
        })
        .collect()
}

// ---- satellite 1: grammar closure of every operator ---------------------

#[test]
fn every_operator_on_every_corpus_schedule_roundtrips_and_keeps_the_version_invariant() {
    let corpus = corpus_schedules();
    assert!(!corpus.is_empty(), "tests/corpus is empty");
    for (file, s) in &corpus {
        let allow = BYZ_WORKLOADS.contains(&s.checker.as_str());
        let cfg = MutatorConfig::for_schedule(s, allow);
        for op in MutOp::ALL {
            for seed in 0..8u64 {
                let mut rng = FuzzRng::new(seed);
                let Some(m) = mutate(s, op, &cfg, &mut rng) else { continue };
                let text = m.to_text();
                let back = Schedule::parse(&text)
                    .unwrap_or_else(|e| panic!("{file} × {}: {e}\n{text}", op.name()));
                assert_eq!(back, m, "{file} × {}: round-trip", op.name());
                // The version invariant: only an explicit adversary
                // operator may promote a v1 schedule to the v2 grammar,
                // and on a workload that honors no adversary fields the
                // gate keeps every mutant adversary-free.
                if s.adversary_free() && !op.is_adversary() {
                    assert!(m.adversary_free(), "{file} × {}: implicit v2 promotion", op.name());
                }
                if !allow {
                    assert!(m.adversary_free(), "{file} × {}: gate bypassed", op.name());
                }
            }
        }
    }
    // Crossover is closed over the grammar too, for every same-shape
    // parent pair in the corpus.
    for (fa, a) in &corpus {
        for (fb, b) in &corpus {
            if a.checker != b.checker || a.n != b.n || a.k != b.k {
                continue;
            }
            let allow = BYZ_WORKLOADS.contains(&a.checker.as_str());
            let cfg = MutatorConfig::for_schedule(a, allow);
            for seed in 0..4u64 {
                let mut rng = FuzzRng::new(seed);
                let Some(c) = crossover(a, b, &cfg, &mut rng) else { continue };
                let back =
                    Schedule::parse(&c.to_text()).unwrap_or_else(|e| panic!("{fa} × {fb}: {e}"));
                assert_eq!(back, c, "{fa} × {fb}: crossover round-trip");
            }
        }
    }
}

// ---- satellite 2: thread-count determinism ------------------------------

fn fixed_cfg(threads: usize) -> FuzzLabConfig {
    FuzzLabConfig { seed: 11, budget_schedules: 128, budget_ms: 0, batch: 32, threads }
}

#[test]
fn fuzz_run_is_bitwise_identical_across_thread_counts() {
    let runs: Vec<FuzzBenchReport> =
        [1usize, 2, 8].into_iter().map(|t| run_fuzz_bench(&fixed_cfg(t), &[])).collect();
    let base = &runs[0];
    assert!(base.ok(), "{base}");
    for r in &runs[1..] {
        // Every counter and digest of the record, compared as `lab gate` does.
        assert_eq!(first_difference(&base.to_json(), &r.to_json()), None, "BENCH_fuzz.json");
        assert_eq!(base.corpus, r.corpus, "kept corpus differs across thread counts");
        assert_eq!(
            base.witnesses.iter().map(|w| w.schedule.to_text()).collect::<Vec<_>>(),
            r.witnesses.iter().map(|w| w.schedule.to_text()).collect::<Vec<_>>(),
            "witnesses differ across thread counts"
        );
    }
}

// ---- satellite 3: differential strict replay ----------------------------

// Quiet panic capture (the corpus contains `panic`-verdict schedules by
// design): the replacement hook is installed once and stays silent only
// on threads that are inside `quiet`, so genuine test failures keep
// their messages.
thread_local! {
    static SILENCED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static INSTALL_HOOK: std::sync::Once = std::sync::Once::new();

fn quiet<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
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

/// Drives `sim` through the script with a genuine strict
/// [`ScriptedScheduler`], one engine-checked step at a time, collecting
/// the fingerprint after each completed step. Returns whether the run
/// panicked (illegal scripted choice or automaton invariant).
fn drive_scripted<A: Automaton + std::fmt::Debug>(
    sim: &mut Simulation<A>,
    fd: &(impl FailureDetector + ?Sized),
    choices: &[Choice],
    fps: &mut Vec<u64>,
) -> bool {
    let mut sched = ScriptedScheduler::new(choices.iter().copied()).strict();
    quiet(std::panic::AssertUnwindSafe(|| loop {
        let before = sim.now();
        sim.run(&mut sched, fd, 1);
        if sim.now() == before {
            break;
        }
        fps.push(sim.fingerprint());
    }))
    .is_err()
}

/// The direct path: reconstructs the weak-twin workload from first
/// principles (no `sih_lab::repro` involvement past the schedule fields)
/// and strict-replays it.
fn direct_replay(s: &Schedule) -> FingerprintReplay {
    let n = s.n;
    let mut fps = Vec::new();
    let (panicked, executed, verdict) = match s.checker.as_str() {
        "fig2-weak-sigma" => {
            let mut sim =
                Simulation::new(fig2_processes(&distinct_proposals(n)), s.pattern.clone());
            if !s.faults.is_reliable() {
                sim.set_link_faults(s.faults.clone());
            }
            let fd = WeakSigma::new(ProcessId(0), ProcessId(1));
            let p = drive_scripted(&mut sim, &fd, &s.choices, &mut fps);
            let v = match check_k_agreement_safety(sim.trace(), &distinct_proposals(n), n - 1) {
                Ok(()) => "ok".to_string(),
                Err(v) => format!("violation:{}", v.property),
            };
            (p, sim.script().to_vec(), v)
        }
        "fig4-weak-sigma-k" => {
            let active: ProcessSet = (0..(2 * s.k) as u32).map(ProcessId).collect();
            let mut sim =
                Simulation::new(fig4_processes(&distinct_proposals(n)), s.pattern.clone());
            if !s.faults.is_reliable() {
                sim.set_link_faults(s.faults.clone());
            }
            let fd = WeakSigmaK::new(active);
            let p = drive_scripted(&mut sim, &fd, &s.choices, &mut fps);
            let v = match check_k_agreement_safety(sim.trace(), &distinct_proposals(n), n - s.k) {
                Ok(()) => "ok".to_string(),
                Err(v) => format!("violation:{}", v.property),
            };
            (p, sim.script().to_vec(), v)
        }
        "abd-weak-quorum" => {
            let set: ProcessSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
            let scripts = vec![
                vec![sih::model::OpKind::Write(sih::model::Value(7))],
                vec![sih::model::OpKind::Read; 6],
            ];
            let mut sim = Simulation::new(abd_processes(set, n, scripts), s.pattern.clone());
            if !s.faults.is_reliable() {
                sim.set_link_faults(s.faults.clone());
            }
            let fd = WeakSigmaS::new(set);
            let p = drive_scripted(&mut sim, &fd, &s.choices, &mut fps);
            let v = match check_linearizable(&sim.trace().op_records(), None) {
                Ok(()) => "ok".to_string(),
                Err(LinearizabilityViolation::NotLinearizable { .. }) => {
                    "violation:not-linearizable".to_string()
                }
                Err(LinearizabilityViolation::HistoryTooLarge { .. }) => {
                    "violation:history-too-large".to_string()
                }
                Err(LinearizabilityViolation::Incomplete { .. }) => {
                    "violation:incomplete".to_string()
                }
            };
            (p, sim.script().to_vec(), v)
        }
        other => panic!("differential test has no direct model for {other}"),
    };
    FingerprintReplay {
        verdict: if panicked { "panic".to_string() } else { verdict },
        executed,
        fingerprints: fps,
    }
}

#[test]
fn sweep_path_and_direct_scripted_run_agree_on_fuzzer_kept_entries() {
    const PER_WORKLOAD: usize = 12;
    let report = run_fuzz_bench(&fixed_cfg(1), &[]);
    let twins = ["fig2-weak-sigma", "fig4-weak-sigma-k", "abd-weak-quorum"];
    let mut picked: Vec<Schedule> = Vec::new();
    for t in twins {
        picked.extend(report.corpus.iter().filter(|s| s.checker == t).take(PER_WORKLOAD).cloned());
    }
    // The committed corpus entries for the same twins ride along.
    picked.extend(
        corpus_schedules()
            .into_iter()
            .map(|(_, s)| s)
            .filter(|s| twins.contains(&s.checker.as_str())),
    );
    assert!(!picked.is_empty(), "no fuzzer-kept entries on the weak twins");

    // Registry path, fanned over the Sweep engine.
    let via_sweep: Vec<FingerprintReplay> = Sweep::new(2).run(picked.clone(), || {
        |_idx, s: Schedule| {
            replay_with_fingerprints(&s, ReplayMode::Strict).expect("registered workload")
        }
    });
    for (s, sweep_rep) in picked.iter().zip(&via_sweep) {
        let direct = direct_replay(s);
        assert_eq!(
            direct.verdict, sweep_rep.verdict,
            "{}: verdict diverges between Sweep and direct ScriptedScheduler run",
            s.checker
        );
        assert_eq!(direct.executed, sweep_rep.executed, "{}: executed script diverges", s.checker);
        assert_eq!(
            direct.fingerprints, sweep_rep.fingerprints,
            "{}: per-step fingerprint stream diverges",
            s.checker
        );
    }
}
