//! Differential testing: the randomized **sweep** engine and the bounded
//! **exhaustive explorer** must agree on violation verdicts for the same
//! workload, failure pattern and detector — sound detectors are clean in
//! both engines; weakened detectors are caught by both.
//!
//! This is the consistency contract behind the counterexample corpus: a
//! schedule recorded from one engine replays under the scripted scheduler
//! regardless of which engine found it, so the two engines must not
//! disagree about *whether* a violation exists in the first place.

use sih::agreement::{
    check_k_agreement_safety, distinct_proposals, fig2_processes, fig4_processes,
};
use sih::detectors::{Sigma, SigmaK, SigmaS, WeakSigma, WeakSigmaK};
use sih::model::{FailureDetector, FailurePattern, OpKind, ProcessId, ProcessSet, Time, Value};
use sih::registers::{abd_processes, check_linearizable};
use sih::runtime::sweep::Sweep;
use sih::runtime::{
    explore_with, Automaton, ExploreConfig, ExploreResult, FairScheduler, Simulation,
};
use sih_lab::repro::{
    capture_from_script, record_first_violation, replay, ReplayMode, PANIC_VERDICT,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEEDS: u64 = 64;
const MAX_STEPS: u64 = 4_000;

/// Sweeps fig2 over scheduler seeds `0..SEEDS` with the given detector
/// builder, returning each seed's verdict token. Fanned over the
/// deterministic sweep engine, so the result is thread-count-invariant.
fn sweep_fig2<D: FailureDetector + Clone + Send>(
    pattern: &FailurePattern,
    det: impl Fn(u64) -> D + Sync,
    threads: usize,
) -> Vec<String> {
    let n = pattern.n();
    let proposals = distinct_proposals(n);
    let seeds: Vec<u64> = (0..SEEDS).collect();
    Sweep::new(threads).run(seeds, || {
        let pattern = pattern.clone();
        let proposals = proposals.clone();
        let det = &det;
        move |_idx: usize, seed: u64| {
            let mut sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
            let fd = det(seed);
            sim.run(&mut FairScheduler::new(seed), &fd, MAX_STEPS);
            match check_k_agreement_safety(sim.trace(), &proposals, n - 1) {
                Ok(()) => "ok".to_string(),
                Err(v) => format!("violation:{}", v.property),
            }
        }
    })
}

/// Same sweep for fig4 with `k = 1` (active pair `{p0, p1}`).
fn sweep_fig4<D: FailureDetector + Clone + Send>(
    pattern: &FailurePattern,
    det: impl Fn(u64) -> D + Sync,
    threads: usize,
) -> Vec<String> {
    let n = pattern.n();
    let k = 1;
    let proposals = distinct_proposals(n);
    let seeds: Vec<u64> = (0..SEEDS).collect();
    Sweep::new(threads).run(seeds, || {
        let pattern = pattern.clone();
        let proposals = proposals.clone();
        let det = &det;
        move |_idx: usize, seed: u64| {
            let mut sim = Simulation::new(fig4_processes(&proposals), pattern.clone());
            let fd = det(seed);
            sim.run(&mut FairScheduler::new(seed), &fd, MAX_STEPS);
            match check_k_agreement_safety(sim.trace(), &proposals, n - k) {
                Ok(()) => "ok".to_string(),
                Err(v) => format!("violation:{}", v.property),
            }
        }
    })
}

#[test]
fn fig2_sound_sigma_both_engines_report_no_violation() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);

    // Explorer: every schedule up to depth 9 is clean.
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
    };
    let result = explore_with(&sim, &sigma, &ExploreConfig::new(9), &mut check);
    assert!(result.ok(), "explorer found {:?}", result.violation);

    // Sweep: every sampled seed is clean too, at any thread count.
    let verdicts =
        sweep_fig2(&pattern, |seed| Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed), 1);
    assert!(verdicts.iter().all(|v| v == "ok"), "sweep found {verdicts:?}");
    for threads in [2, 8] {
        let again = sweep_fig2(
            &pattern,
            |seed| Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed),
            threads,
        );
        assert_eq!(verdicts, again, "sweep verdicts differ at threads={threads}");
    }
}

#[test]
fn fig2_sound_sigma_with_active_crash_both_engines_agree() {
    // Same fault plan on both sides: the active p1 crashes at t = 4.
    let n = 3;
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(1), Time(4)).build();
    let proposals = distinct_proposals(n);

    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 1);
    let sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
    };
    let result = explore_with(&sim, &sigma, &ExploreConfig::new(9), &mut check);
    assert!(result.ok(), "explorer found {:?}", result.violation);

    let verdicts =
        sweep_fig2(&pattern, |seed| Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed), 0);
    assert!(verdicts.iter().all(|v| v == "ok"), "sweep found {verdicts:?}");
}

#[test]
fn fig2_weak_sigma_both_engines_catch_the_planted_weakness() {
    // Under weak-σ the planted failure is the Theorem 4 validity panic
    // (`max{Me, You}` hits ⊥). The explorer hits it while stepping, so
    // the exploration itself unwinds; the sweep side goes through the
    // repro harness, which converts the same panic into the stable
    // `panic` verdict token.
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    let weak = WeakSigma::new(ProcessId(0), ProcessId(1));

    let sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
    let explorer_caught = catch_unwind(AssertUnwindSafe(|| {
        let mut check = |s: &Simulation<_>| {
            check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
        };
        let result = explore_with(&sim, &weak, &ExploreConfig::new(6), &mut check);
        result.violation.is_some()
    }))
    .map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("validity"), "unexpected explorer panic: {msg}");
        true
    })
    .unwrap_or_else(|caught| caught);
    assert!(explorer_caught, "explorer missed the weak-σ violation up to depth 6");

    let recorded = record_first_violation("fig2-weak-sigma", 1, SEEDS)
        .expect("workload is registered")
        .expect("sweep side missed the weak-σ violation");
    assert_eq!(recorded.verdict, PANIC_VERDICT);
    let rep = replay(&recorded, ReplayMode::Strict).expect("replay runs");
    assert!(rep.matches, "sweep recording is not reproducible: {}", rep.verdict);
}

#[test]
fn fig4_sound_sigma_k_both_engines_report_no_violation() {
    let n = 3;
    let k = 1;
    let active: ProcessSet = (0..2u32).map(ProcessId).collect();
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);

    let det = SigmaK::new(active, &pattern, 0);
    let sim = Simulation::new(fig4_processes(&proposals), pattern.clone());
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - k).map_err(|e| e.to_string())
    };
    let result = explore_with(&sim, &det, &ExploreConfig::new(8).max_deliveries(3), &mut check);
    assert!(result.ok(), "explorer found {:?}", result.violation);

    let verdicts = sweep_fig4(&pattern, |seed| SigmaK::new(active, &pattern, seed), 0);
    assert!(verdicts.iter().all(|v| v == "ok"), "sweep found {verdicts:?}");
}

#[test]
fn fig4_weak_sigma_k_both_engines_find_the_agreement_violation() {
    // n = 4, k = 1: singleton trusted sets let both actives pass the
    // until-exit without intersecting, yielding > n−k distinct decisions.
    let n = 4;
    let k = 1;
    let active: ProcessSet = (0..2u32).map(ProcessId).collect();
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    let weak = WeakSigmaK::new(active);

    let sim = Simulation::new(fig4_processes(&proposals), pattern.clone());
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - k).map_err(|e| e.to_string())
    };
    let result = explore_with(&sim, &weak, &ExploreConfig::new(8), &mut check);
    let (script, msg) = result.violation.expect("explorer missed the weak-σ_k violation");
    assert!(msg.contains("agreement"), "unexpected violation: {msg}");

    // Sweep side: at least one sampled seed hits the same verdict, and
    // the verdict vector is identical across thread counts.
    let verdicts = sweep_fig4(&pattern, |_| weak, 1);
    assert!(
        verdicts.iter().any(|v| v == "violation:agreement"),
        "sweep missed the weak-σ_k violation: {verdicts:?}"
    );
    assert!(verdicts.iter().all(|v| v == "ok" || v == "violation:agreement"), "{verdicts:?}");
    for threads in [2, 8] {
        let again = sweep_fig4(&pattern, |_| weak, threads);
        assert_eq!(verdicts, again, "sweep verdicts differ at threads={threads}");
    }

    // Bridge: the explorer's violating script becomes a corpus-grade
    // schedule via `capture_from_script`, and strict-replays unchanged.
    let captured = capture_from_script(
        "fig4-weak-sigma-k",
        n,
        k,
        0,
        pattern.clone(),
        sih::model::LinkFaultPlan::reliable(n),
        script,
    )
    .expect("capture from the explorer script");
    assert_eq!(captured.verdict, "violation:agreement");
    let rep = replay(&captured, ReplayMode::Strict).expect("replay runs");
    assert!(rep.matches, "explorer capture is not reproducible: {}", rep.verdict);
    let roundtrip = sih::runtime::Schedule::parse(&captured.to_text()).expect("roundtrip");
    assert_eq!(roundtrip, captured);
}

#[test]
fn engines_agree_that_validity_needs_no_weakening_to_check() {
    // Negative control for the differential harness itself: a planted
    // impossible invariant must be reported by both engines with the
    // same kind of evidence (a schedule/seed reaching it).
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);

    let sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
    let mut check = |s: &Simulation<_>| {
        if s.trace().decided().len() >= 2 {
            Err("planted: two processes decided".to_owned())
        } else {
            Ok(())
        }
    };
    let result = explore_with(&sim, &sigma, &ExploreConfig::new(9), &mut check);
    assert!(result.violation.is_some(), "explorer missed the planted invariant");

    let seeds: Vec<u64> = (0..SEEDS).collect();
    let hits = Sweep::new(0).run(seeds, || {
        let pattern = pattern.clone();
        let proposals = proposals.clone();
        move |_idx: usize, seed: u64| {
            let mut sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
            let fd = Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed);
            sim.run(&mut FairScheduler::new(seed), &fd, MAX_STEPS);
            sim.trace().decided().len() >= 2
        }
    });
    assert!(hits.iter().any(|&h| h), "sweep missed the planted invariant");
}

// ---------------------------------------------------------------------------
// Reduction-engine differential: unreduced vs sleep sets vs source-DPOR.
//
// The three reduction strengths must agree not just on the verdict but on
// the *set of terminal states reached* — the Mazurkiewicz-trace soundness
// claim made concrete. Terminal states are collected by fingerprint from
// inside the checker (the explorer calls it on every non-deduped visit;
// a deduped revisit was fingerprint-identical to its first visit, so set
// semantics are unaffected), and commuting quiet steps reach the *same*
// state either side of the swap, so a sound reduction may skip revisits
// but never lose a member of the set.
// ---------------------------------------------------------------------------

/// Runs `explore_with` and also collects the fingerprint set of end
/// states: terminal (all correct halted, or nobody schedulable — the
/// explorer's own dead-end condition) or sitting exactly on the depth
/// bound (every step advances `now`, so the bound is visible to the
/// checker as `now == depth`). Both kinds are preserved by a sound
/// reduction: a pruned schedule has a commuted representative of the
/// same length reaching the identical state.
fn explore_terminal_digest<A, D>(
    sim: &Simulation<A>,
    fd: &D,
    cfg: &ExploreConfig,
    depth: usize,
    mut check: impl FnMut(&Simulation<A>) -> Result<(), String>,
) -> (ExploreResult, BTreeSet<u64>)
where
    A: Automaton + Clone + std::fmt::Debug,
    D: FailureDetector + ?Sized,
{
    let horizon = Time(sim.now().0 + depth as u64);
    let mut terminals = BTreeSet::new();
    let mut wrapped = |s: &Simulation<A>| {
        if s.all_correct_halted() || s.schedulable_set().is_empty() || s.now() == horizon {
            terminals.insert(s.fingerprint());
        }
        check(s)
    };
    let result = explore_with(sim, fd, cfg, &mut wrapped);
    (result, terminals)
}

/// The three engine configurations under test, strongest last.
fn engine_ladder(depth: usize) -> [(&'static str, ExploreConfig); 3] {
    [
        ("unreduced", ExploreConfig::new(depth).dedup(false).por(false)),
        ("sleep-set", ExploreConfig::new(depth)),
        ("source-dpor", ExploreConfig::new(depth).dpor(true)),
    ]
}

/// Asserts the full ladder agrees on verdict and terminal set for one
/// scenario, and that each stronger engine visits no more states.
fn assert_ladder_agrees<A, D>(
    scenario: &str,
    depth: usize,
    sim: &Simulation<A>,
    fd: &D,
    make_check: impl Fn() -> Box<dyn FnMut(&Simulation<A>) -> Result<(), String>>,
) where
    A: Automaton + Clone + std::fmt::Debug,
    D: FailureDetector + ?Sized,
{
    let mut base: Option<(bool, BTreeSet<u64>)> = None;
    let mut prev_states = u64::MAX;
    for (name, cfg) in engine_ladder(depth) {
        let (result, terminals) = explore_terminal_digest(sim, fd, &cfg, depth, make_check());
        assert!(!terminals.is_empty(), "{scenario}/{name}: no terminal states reached");
        match &base {
            None => {
                prev_states = result.states;
                base = Some((result.ok(), terminals));
            }
            Some((ok, reference)) => {
                assert_eq!(result.ok(), *ok, "{scenario}/{name}: verdict diverged");
                assert_eq!(
                    &terminals, reference,
                    "{scenario}/{name}: terminal fingerprint set diverged"
                );
                assert!(
                    result.states <= prev_states,
                    "{scenario}/{name}: {} states > weaker engine's {prev_states}",
                    result.states
                );
                prev_states = result.states;
            }
        }
    }
}

#[test]
fn reduction_ladder_agrees_on_fig2() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let proposals = distinct_proposals(n);
    let sim = Simulation::new(fig2_processes(&proposals), pattern);
    assert_ladder_agrees("fig2", 8, &sim, &sigma, || {
        let proposals = proposals.clone();
        Box::new(move |s: &Simulation<_>| {
            check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
        })
    });
}

#[test]
fn reduction_ladder_agrees_on_fig4() {
    let n = 3;
    let k = 1;
    let active: ProcessSet = (0..2u32).map(ProcessId).collect();
    let pattern = FailurePattern::all_correct(n);
    let det = SigmaK::new(active, &pattern, 0);
    let proposals = distinct_proposals(n);
    let sim = Simulation::new(fig4_processes(&proposals), pattern);
    assert_ladder_agrees("fig4", 7, &sim, &det, || {
        let proposals = proposals.clone();
        Box::new(move |s: &Simulation<_>| {
            check_k_agreement_safety(s.trace(), &proposals, n - k).map_err(|e| e.to_string())
        })
    });
}

#[test]
fn reduction_ladder_agrees_on_abd() {
    // The ABD register (a different automaton family: quorum phases,
    // per-message state machines) under a sound Σ_S — linearizability as
    // the checked property.
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let s: ProcessSet = (0..n as u32).map(ProcessId).collect();
    let det = SigmaS::new(s, &pattern, 0);
    let scripts = vec![vec![OpKind::Write(Value(7))], vec![OpKind::Read], vec![]];
    let sim = Simulation::new(abd_processes(s, n, scripts), pattern);
    assert_ladder_agrees("abd", 6, &sim, &det, || {
        Box::new(|s: &Simulation<_>| {
            check_linearizable(&s.trace().op_records(), None).map_err(|e| e.to_string())
        })
    });
}
