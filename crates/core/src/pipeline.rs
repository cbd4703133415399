//! Ready-made experiment pipelines: one call = one fair run of a paper
//! algorithm (or a stacked reduction) with everything wired up.
//!
//! These are the building blocks the claims API, the `lab` harness and
//! the examples all share. Every runner builds its automata and detector
//! and hands the run to [`Simulation::drive`] with a [`Driver::Fair`] —
//! the one run loop the `lab` fault and Byzantine matrices and the `lab
//! repro` record/replay harness also use.
//!
//! Every runner takes a [`SimPool`] that recycles the simulation's
//! network queues, trace log and scratch buffers run over run, and
//! returns the run's [`Trace`] borrowed from it. Sweeps hold one pool per
//! worker, so the hot loop stops re-allocating per run; a single run uses
//! a fresh `SimPool::new()`.

use sih_agreement::{
    distinct_proposals, fig2_processes, fig4_processes, paxos_processes, Fig2SetAgreement,
    Fig4SetAgreement, PaxosConsensus,
};
use sih_detectors::{Omega, Sigma, SigmaK, SigmaS};
use sih_model::{FailureDetector, FailurePattern, OpKind, ProcessId, ProcessSet};
use sih_reductions::{
    fig3_processes, fig5_processes, fig6_processes, Fig3SigmaFromSigmaPair, Fig5SigmaKFromSigmaX,
    Fig6AntiOmegaFromSigma,
};
use sih_registers::{abd_processes, AbdRegister};
use sih_runtime::{Automaton, Driver, SimPool, Simulation, Stacked, Trace};
use std::fmt;

/// Reusable simulation slot for [`run_register_workload_pooled`].
pub type RegisterPool = SimPool<AbdRegister>;

/// Runs `procs` under `pattern` and `det` in `pool`'s simulation with
/// [`Driver::Fair`] until `stop` holds or `max_steps` elapse; returns the
/// run's trace, borrowed from the pool.
fn run_fair<'a, A: Automaton + fmt::Debug, D: FailureDetector>(
    pool: &'a mut SimPool<A>,
    procs: Vec<A>,
    pattern: &FailurePattern,
    det: &D,
    seed: u64,
    max_steps: u64,
    stop: impl FnMut(&Simulation<A>) -> bool,
) -> &'a Trace {
    let sim = pool.acquire(procs, pattern);
    sim.drive(Driver::Fair { seed, max_steps }, det, stop, None);
    sim.trace()
}

/// Runs Figure 2 (set agreement from `σ`).
pub fn run_fig2_pooled<'a>(
    pool: &'a mut SimPool<Fig2SetAgreement>,
    pattern: &FailurePattern,
    a0: ProcessId,
    a1: ProcessId,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let sigma = Sigma::new(a0, a1, pattern, seed);
    let procs = fig2_processes(&distinct_proposals(pattern.n()));
    run_fair(pool, procs, pattern, &sigma, seed, max_steps, |_| false)
}

/// Runs Figure 4 (`(n−k)`-set agreement from `σ_2k`).
pub fn run_fig4_pooled<'a>(
    pool: &'a mut SimPool<Fig4SetAgreement>,
    pattern: &FailurePattern,
    active: ProcessSet,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let det = SigmaK::new(active, pattern, seed);
    let procs = fig4_processes(&distinct_proposals(pattern.n()));
    run_fair(pool, procs, pattern, &det, seed, max_steps, |_| false)
}

/// Runs Figure 3 (emulating `σ` from `Σ_{p,q}`); the trace's emulated
/// history is the produced `σ` history.
pub fn run_fig3_pooled<'a>(
    pool: &'a mut SimPool<Fig3SigmaFromSigmaPair>,
    pattern: &FailurePattern,
    p: ProcessId,
    q: ProcessId,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let det = SigmaS::new(ProcessSet::from_iter([p, q]), pattern, seed);
    let procs = fig3_processes(pattern.n(), p, q);
    run_fair(pool, procs, pattern, &det, seed, max_steps, |_| false)
}

/// Runs Figure 5 (emulating `σ_|X|` from `Σ_X`).
pub fn run_fig5_pooled<'a>(
    pool: &'a mut SimPool<Fig5SigmaKFromSigmaX>,
    pattern: &FailurePattern,
    x: ProcessSet,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let det = SigmaS::new(x, pattern, seed);
    let procs = fig5_processes(pattern.n(), x);
    run_fair(pool, procs, pattern, &det, seed, max_steps, |_| false)
}

/// Runs Figure 6 (emulating `anti-Ω` from `σ`).
pub fn run_fig6_pooled<'a>(
    pool: &'a mut SimPool<Fig6AntiOmegaFromSigma>,
    pattern: &FailurePattern,
    a0: ProcessId,
    a1: ProcessId,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let sigma = Sigma::new(a0, a1, pattern, seed);
    let procs = fig6_processes(pattern.n());
    run_fair(pool, procs, pattern, &sigma, seed, max_steps, |_| false)
}

/// Runs the full positive pipeline of Theorem 2: **Figure 2 stacked on
/// Figure 3** — the set-agreement consumer runs on the `σ` that the
/// Figure 3 layer emulates live from a real `Σ_{p,q}` history. The trace
/// carries both the decisions (upper layer) and the emulated `σ` stream
/// (lower layer).
pub fn run_stack_fig3_fig2_pooled<'a>(
    pool: &'a mut SimPool<Stacked<Fig3SigmaFromSigmaPair, Fig2SetAgreement>>,
    pattern: &FailurePattern,
    p: ProcessId,
    q: ProcessId,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let n = pattern.n();
    let det = SigmaS::new(ProcessSet::from_iter([p, q]), pattern, seed);
    let procs = fig3_processes(n, p, q)
        .into_iter()
        .zip(fig2_processes(&distinct_proposals(n)))
        .map(|(lower, upper)| Stacked::new(lower, upper))
        .collect();
    run_fair(pool, procs, pattern, &det, seed, max_steps, Simulation::all_correct_decided)
}

/// Runs the Theorem 8 positive pipeline: **Figure 4 stacked on Figure
/// 5** — `(n−k)`-set agreement on top of the `σ_2k` emulated from
/// `Σ_X2k`.
pub fn run_stack_fig5_fig4_pooled<'a>(
    pool: &'a mut SimPool<Stacked<Fig5SigmaKFromSigmaX, Fig4SetAgreement>>,
    pattern: &FailurePattern,
    x: ProcessSet,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let n = pattern.n();
    let det = SigmaS::new(x, pattern, seed);
    let procs = fig5_processes(n, x)
        .into_iter()
        .zip(fig4_processes(&distinct_proposals(n)))
        .map(|(lower, upper)| Stacked::new(lower, upper))
        .collect();
    run_fair(pool, procs, pattern, &det, seed, max_steps, Simulation::all_correct_decided)
}

/// Runs an ABD `S`-register workload in a pooled simulation; returns the
/// trace (borrowed) — call [`Trace::op_records`] for the operation
/// records.
pub fn run_register_workload_pooled<'a>(
    pool: &'a mut RegisterPool,
    pattern: &FailurePattern,
    s: ProcessSet,
    scripts: Vec<Vec<OpKind>>,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let n = pattern.n();
    let det = SigmaS::new(s, pattern, seed);
    let sim = pool.acquire(abd_processes(s, n, scripts), pattern);
    // Computed once: `correct()` scans the pattern, and the stop test runs
    // before every step.
    let correct = pattern.correct();
    let done =
        |sim: &Simulation<AbdRegister>| correct.iter().all(|p| sim.process(p).script_finished());
    sim.drive(Driver::Fair { seed, max_steps }, &det, done, None);
    sim.trace()
}

/// Runs the Paxos consensus baseline (`Ω` + majority).
pub fn run_paxos_pooled<'a>(
    pool: &'a mut SimPool<PaxosConsensus>,
    pattern: &FailurePattern,
    seed: u64,
    max_steps: u64,
) -> &'a Trace {
    let omega = Omega::new(pattern, seed);
    let procs = paxos_processes(&distinct_proposals(pattern.n()));
    run_fair(pool, procs, pattern, &omega, seed, max_steps, |_| false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_agreement::check_k_set_agreement;
    use sih_detectors::{check_anti_omega, check_sigma, check_sigma_k};
    use sih_registers::{check_linearizable, two_writer_workload};
    use sih_runtime::TraceLevel;

    #[test]
    fn stack_fig3_fig2_solves_set_agreement_end_to_end() {
        // Theorem 2's positive direction as a single executable pipeline:
        // a {p,q}-register's detector (Σ_{p,q}) emulates σ (Figure 3),
        // which solves set agreement (Figure 2).
        let mut pool = SimPool::new();
        for seed in 0..6 {
            let f = FailurePattern::all_correct(5);
            let tr = run_stack_fig3_fig2_pooled(
                &mut pool,
                &f,
                ProcessId(0),
                ProcessId(1),
                seed,
                200_000,
            );
            check_k_set_agreement(tr, &f, &distinct_proposals(5), 4).unwrap();
            // And the lower layer's emulated history is a legal σ history.
            check_sigma(tr.emulated_history(), &f, ProcessSet::from_iter([0, 1].map(ProcessId)))
                .unwrap();
        }
    }

    #[test]
    fn stack_fig3_fig2_with_only_pair_correct() {
        let mut pool = SimPool::new();
        for seed in 0..6 {
            let f = FailurePattern::crashed_from_start(
                5,
                ProcessSet::from_iter([2, 3, 4].map(ProcessId)),
            );
            let tr = run_stack_fig3_fig2_pooled(
                &mut pool,
                &f,
                ProcessId(0),
                ProcessId(1),
                seed,
                200_000,
            );
            check_k_set_agreement(tr, &f, &distinct_proposals(5), 4).unwrap();
        }
    }

    #[test]
    fn stack_fig5_fig4_solves_n_minus_k_agreement_end_to_end() {
        let x = ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId));
        let mut pool = SimPool::new();
        for seed in 0..6 {
            let f = FailurePattern::all_correct(6);
            let tr = run_stack_fig5_fig4_pooled(&mut pool, &f, x, seed, 300_000);
            check_k_set_agreement(tr, &f, &distinct_proposals(6), 4).unwrap();
            check_sigma_k(tr.emulated_history(), &f, x).unwrap();
        }
    }

    #[test]
    fn fig6_pipeline_produces_legal_anti_omega() {
        let mut pool = SimPool::new();
        for seed in 0..6 {
            let f = FailurePattern::all_correct(4);
            let tr = run_fig6_pooled(&mut pool, &f, ProcessId(0), ProcessId(1), seed, 10_000);
            check_anti_omega(tr.emulated_history(), &f).unwrap();
        }
    }

    #[test]
    fn register_pipeline_is_linearizable() {
        let f = FailurePattern::all_correct(4);
        let (s, scripts) = two_writer_workload();
        let ops =
            run_register_workload_pooled(&mut RegisterPool::new(), &f, s, scripts, 3, 200_000)
                .op_records();
        assert_eq!(ops.iter().filter(|o| o.is_complete()).count(), 5);
        check_linearizable(&ops, None).unwrap();
    }

    #[test]
    fn paxos_pipeline_reaches_consensus() {
        let f = FailurePattern::all_correct(4);
        let mut pool = SimPool::new();
        let tr = run_paxos_pooled(&mut pool, &f, 2, 200_000);
        check_k_set_agreement(tr, &f, &distinct_proposals(4), 1).unwrap();
    }

    /// A recycled pool is observationally identical to a fresh one (a
    /// one-shot run): same events, counters, end time and decisions, run
    /// after run, even while the pool recycles its buffers.
    #[test]
    fn pooled_runs_match_one_shot_runs() {
        let mut pool = SimPool::new();
        for seed in 0..8 {
            let f = if seed % 2 == 0 {
                FailurePattern::all_correct(4)
            } else {
                FailurePattern::crashed_from_start(4, ProcessSet::singleton(ProcessId(3)))
            };
            let (p, q) = (ProcessId(0), ProcessId(1));
            let mut fresh_pool = SimPool::new();
            let fresh = run_fig2_pooled(&mut fresh_pool, &f, p, q, seed, 100_000);
            let pooled = run_fig2_pooled(&mut pool, &f, p, q, seed, 100_000);
            assert_eq!(pooled.events(), fresh.events(), "seed {seed}");
            assert_eq!(pooled.total_steps(), fresh.total_steps());
            assert_eq!(pooled.messages_sent(), fresh.messages_sent());
            assert_eq!(pooled.end_time(), fresh.end_time());
            assert_eq!(pooled.distinct_decisions(), fresh.distinct_decisions());
        }
    }

    /// A light-level pooled sweep still feeds the checkers correctly.
    #[test]
    fn light_trace_pooled_sweep_checks_clean() {
        let mut pool = SimPool::with_trace_level(TraceLevel::Light);
        for seed in 0..4 {
            let f = FailurePattern::all_correct(4);
            let tr = run_fig2_pooled(&mut pool, &f, ProcessId(0), ProcessId(1), seed, 100_000);
            assert!(tr.events().iter().all(|e| !matches!(
                e,
                sih_runtime::Event::Step { .. } | sih_runtime::Event::Send { .. }
            )));
            check_k_set_agreement(tr, &f, &distinct_proposals(4), 3).unwrap();
        }
    }
}
