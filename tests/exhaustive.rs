//! Bounded exhaustive exploration: safety of the paper's algorithms over
//! **every** schedule of small systems, not just sampled ones.

use sih::agreement::{
    check_k_agreement_safety, distinct_proposals, fig2_processes, fig4_processes,
};
use sih::detectors::{Sigma, SigmaK};
use sih::model::{FailurePattern, ProcessId, ProcessSet, Time};
use sih::runtime::{explore_par, explore_with, ExploreConfig, Simulation};

#[test]
fn fig2_safety_over_all_schedules_n3() {
    // n = 3, all correct, σ active pair {p0, p1}: every schedule up to 9
    // steps preserves agreement (≤ 2 distinct) and validity.
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let proposals = distinct_proposals(n);
    let sim = Simulation::new(fig2_processes(&proposals), pattern);
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
    };
    let result = explore_with(&sim, &sigma, &ExploreConfig::new(9), &mut check);
    assert!(result.ok(), "violation: {:?}", result.violation);
    // The reduced explorer must still have done real work — and must have
    // actually reduced it.
    assert!(result.states > 0 && result.terminals > 0);
    assert!(result.deduped > 0, "dedup never fired: {result:?}");
    assert!(result.pruned > 0, "sleep sets never fired: {result:?}");
    assert!(result.table_bytes > 0);
}

#[test]
fn fig2_safety_over_all_schedules_with_active_crash() {
    // p1 (an active) crashes at step 4: all schedules up to depth 9.
    let n = 3;
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(1), Time(4)).build();
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 1);
    let proposals = distinct_proposals(n);
    let sim = Simulation::new(fig2_processes(&proposals), pattern);
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
    };
    let result = explore_with(&sim, &sigma, &ExploreConfig::new(9), &mut check);
    assert!(result.ok(), "violation: {:?}", result.violation);
}

#[test]
fn fig4_safety_over_all_schedules_n3_k1() {
    // n = 3, k = 1 (active pair {p0, p1}): ≤ 2 distinct decisions on
    // every schedule up to 8 steps.
    let n = 3;
    let k = 1;
    let active: ProcessSet = (0..2u32).map(ProcessId).collect();
    let pattern = FailurePattern::all_correct(n);
    let det = SigmaK::new(active, &pattern, 0);
    let proposals = distinct_proposals(n);
    let sim = Simulation::new(fig4_processes(&proposals), pattern);
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - k).map_err(|e| e.to_string())
    };
    let result = explore_with(&sim, &det, &ExploreConfig::new(8).max_deliveries(3), &mut check);
    assert!(result.ok(), "violation: {:?}", result.violation);
    assert!(result.states > 0 && result.terminals > 0);
    // Reductions stay ON under a finite delivery cap: capped dedup keys
    // on the arrival-order-sensitive fingerprint (equal ordered queues ⇒
    // identical capped delivery menus forever), and sleep sets are
    // cap-stable because commuting a sibling step past a sleeping choice
    // never renumbers the delivery index it names. Both must have fired…
    assert!(result.deduped > 0, "dedup never fired under the cap: {result:?}");
    assert!(result.pruned > 0, "sleep sets never fired under the cap: {result:?}");
    assert!(result.table_bytes > 0);

    // …and the capped reduced verdict must agree with the capped *and*
    // the uncapped unreduced enumerations (the ground truth no
    // equivalence argument touches).
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - k).map_err(|e| e.to_string())
    };
    let capped_plain = explore_with(
        &sim,
        &det,
        &ExploreConfig::new(8).max_deliveries(3).dedup(false).por(false),
        &mut check,
    );
    assert_eq!(result.ok(), capped_plain.ok(), "capped reduced vs capped unreduced");
    assert!(result.states < capped_plain.states, "cap-sound reductions did nothing");
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - k).map_err(|e| e.to_string())
    };
    let uncapped_plain =
        explore_with(&sim, &det, &ExploreConfig::new(8).dedup(false).por(false), &mut check);
    assert_eq!(result.ok(), uncapped_plain.ok(), "capped reduced vs uncapped unreduced");
}

#[test]
fn exploration_would_catch_a_real_violation() {
    // Negative control: an impossible invariant must be reported, with
    // the schedule that reaches it.
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let sim = Simulation::new(fig2_processes(&distinct_proposals(n)), pattern);
    let mut check = |s: &Simulation<_>| {
        if s.trace().decided().len() >= 2 {
            Err("two processes decided (planted violation)".to_owned())
        } else {
            Ok(())
        }
    };
    let result = explore_with(&sim, &sigma, &ExploreConfig::new(9), &mut check);
    let (script, msg) = result.violation.expect("planted violation must be found");
    assert!(msg.contains("planted"));
    assert!(script.len() >= 2);
}

/// Reduction soundness: dedup + sleep sets must agree with unreduced
/// exploration on the *verdict* — both on a passing scenario (the Fig. 2
/// crash run) and on a failing one (a planted mutant invariant), where the
/// reduced run must also report the same lexicographically-least script.
#[test]
fn reductions_preserve_the_verdict() {
    let n = 3;
    let depth = 8;

    // Passing scenario: Fig. 2 with an active crash — no violation, with
    // or without reductions.
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(1), Time(4)).build();
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 1);
    let proposals = distinct_proposals(n);
    let sim = Simulation::new(fig2_processes(&proposals), pattern);
    let mut check = |s: &Simulation<_>| {
        check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
    };
    let unreduced =
        explore_with(&sim, &sigma, &ExploreConfig::new(depth).dedup(false).por(false), &mut check);
    let reduced = explore_with(&sim, &sigma, &ExploreConfig::new(depth), &mut check);
    assert_eq!(unreduced.violation, None);
    assert_eq!(reduced.violation, None);
    assert!(
        reduced.states < unreduced.states,
        "reduction did nothing: {} vs {}",
        reduced.states,
        unreduced.states
    );

    // Failing scenario: a planted mutant invariant ("no two processes may
    // decide") that every exhaustive run must refute — and both runs must
    // refute it with the same lexicographically-least choice script.
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let sim = Simulation::new(fig2_processes(&proposals), pattern);
    let mut mutant = |s: &Simulation<_>| {
        if s.trace().decided().len() >= 2 {
            Err("two processes decided (planted violation)".to_owned())
        } else {
            Ok(())
        }
    };
    let unreduced =
        explore_with(&sim, &sigma, &ExploreConfig::new(depth).dedup(false).por(false), &mut mutant);
    let reduced = explore_with(&sim, &sigma, &ExploreConfig::new(depth), &mut mutant);
    let (unreduced_script, _) = unreduced.violation.expect("unreduced run must find the mutant");
    let (reduced_script, _) = reduced.violation.expect("reduced run must find the mutant");
    assert_eq!(unreduced_script, reduced_script, "reduction changed the reported script");
}

/// The full [`sih::runtime::ExploreResult`] — every counter and the
/// violation script — must be bitwise identical for any thread count, and
/// must match the serial run of the same configuration.
#[test]
fn parallel_exploration_is_thread_count_independent() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    let proposals = distinct_proposals(n);
    let sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
    let make_check = || {
        let proposals = proposals.clone();
        move |s: &Simulation<_>| {
            check_k_agreement_safety(s.trace(), &proposals, n - 1).map_err(|e| e.to_string())
        }
    };

    for cfg in [
        ExploreConfig::new(9).frontier_depth(3),
        // Source-DPOR carries sleep sets and vector clocks into the
        // frontier jobs; its counters must stay worker-count-invariant
        // too — including with the auto-sized frontier (depth 0).
        ExploreConfig::new(9).dpor(true).frontier_depth(3),
        ExploreConfig::new(9).dpor(true),
    ] {
        let serial = explore_with(&sim, &sigma, &cfg, &mut make_check());
        for threads in [1, 2, 8] {
            let par = explore_par(&sim, &sigma, &cfg.threads(threads), make_check);
            assert_eq!(par, serial, "threads={threads} diverged from the serial run ({cfg:?})");
        }
    }
    let cfg = ExploreConfig::new(9).frontier_depth(3);

    // Same determinism when a violation is present: the planted mutant's
    // script must not depend on the thread count either.
    let make_mutant = || {
        |s: &Simulation<_>| {
            if s.trace().decided().len() >= 2 {
                Err("two processes decided (planted violation)".to_owned())
            } else {
                Ok(())
            }
        }
    };
    let serial = explore_with(&sim, &sigma, &cfg, &mut make_mutant());
    assert!(serial.violation.is_some());
    for threads in [1, 2, 8] {
        let par = explore_par(&sim, &sigma, &cfg.threads(threads), make_mutant);
        assert_eq!(par, serial, "threads={threads} diverged on the violating run");
    }
}
