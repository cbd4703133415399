//! The scheduler view against the state it summarizes, and pinned
//! `FairScheduler` choice scripts.
//!
//! `Simulation::sched_state` answers `pending_count`, `oldest_age`,
//! `oldest_index` and `starved` for the scheduler. At every step of the
//! fair runs below those answers must equal what the network's queues and
//! the automata say directly. The choice scripts of three fixed fair runs
//! are pinned as literal digests: the scheduler must make the same draws
//! in the same order whatever its internals.

use sih::agreement::{distinct_proposals, fig2_processes, paxos_processes};
use sih::detectors::{Omega, Sigma, SigmaS};
use sih::model::{FailureDetector, FailurePattern, ProcessId, ProcessSet, Time};
use sih::registers::{abd_processes, WorkloadSpec};
use sih::runtime::{Automaton, Choice, Driver, FairScheduler, Scheduler, Simulation, StopReason};
use std::fmt;

/// What the view must report, computed from the network and the automata.
#[derive(Debug, PartialEq)]
struct Expected {
    schedulable: ProcessSet,
    pending: Vec<usize>,
    oldest_age: Vec<Option<u64>>,
    oldest_index: Vec<Option<usize>>,
    starved: bool,
}

fn expected<A: Automaton>(sim: &Simulation<A>) -> Expected {
    let next = sim.now().next();
    let n = sim.n();
    let ids = || (0..n as u32).map(ProcessId);
    let schedulable: ProcessSet =
        ids().filter(|&p| sim.pattern().is_alive(p, next) && !sim.is_halted(p)).collect();
    let net = sim.network();
    let pending: Vec<usize> = ids().map(|p| net.pending(p).count()).collect();
    // The oldest message: the first one with the smallest send time.
    let oldest: Vec<Option<(usize, Time)>> = ids()
        .map(|p| {
            net.pending(p)
                .enumerate()
                .map(|(i, e)| (i, e.sent_at))
                .min_by_key(|&(i, sent)| (sent, i))
        })
        .collect();
    let starved = !schedulable.is_empty()
        && schedulable.iter().all(|p| pending[p.index()] == 0 && sim.process(p).quiescent());
    Expected {
        schedulable,
        pending,
        oldest_age: oldest.iter().map(|o| o.map(|(_, sent)| next - sent)).collect(),
        oldest_index: oldest.iter().map(|o| o.map(|(i, _)| i)).collect(),
        starved,
    }
}

/// Runs `sim` under a `FairScheduler` step by step, checking the view
/// before every step; returns the executed script and the stop reason.
fn checked_fair_run<A, D>(
    mut sim: Simulation<A>,
    fd: &D,
    seed: u64,
    max_steps: u64,
) -> (Vec<Choice>, StopReason)
where
    A: Automaton + fmt::Debug,
    D: FailureDetector,
{
    let mut sched = FairScheduler::new(seed);
    let mut steps = 0;
    let reason = loop {
        if sim.all_correct_halted() {
            break StopReason::AllCorrectHalted;
        }
        if steps >= max_steps {
            break StopReason::MaxSteps;
        }
        let want = expected(&sim);
        let view = sim.sched_state();
        let got = Expected {
            schedulable: view.schedulable_set,
            pending: (0..view.n as u32).map(|p| view.pending_count(ProcessId(p))).collect(),
            oldest_age: (0..view.n as u32).map(|p| view.oldest_age(ProcessId(p))).collect(),
            oldest_index: (0..view.n as u32).map(|p| view.oldest_index(ProcessId(p))).collect(),
            starved: view.starved(),
        };
        assert_eq!(got, want, "scheduler view differs at step {steps}");
        if view.starved() {
            break StopReason::Starved;
        }
        let Some(choice) = sched.choose(&view) else {
            break StopReason::SchedulerExhausted;
        };
        sim.step(choice, fd);
        steps += 1;
    };
    (sim.script().to_vec(), reason)
}

/// The script and stop reason of the same run through `Simulation::drive`.
fn driven<A, D>(
    mut sim: Simulation<A>,
    fd: &D,
    seed: u64,
    max_steps: u64,
) -> (Vec<Choice>, StopReason)
where
    A: Automaton + fmt::Debug,
    D: FailureDetector,
{
    let outcome = sim.drive(Driver::Fair { seed, max_steps }, fd, |_| false, None);
    (sim.script().to_vec(), outcome.reason)
}

/// FNV-1a/64 over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest of a choice script: `(p, deliver)` of every choice, with
/// `deliver` as index + 1 and 0 for a null step.
fn script_digest(script: &[Choice]) -> u64 {
    fnv(script.iter().flat_map(|c| [u64::from(c.p.0), c.deliver.map_or(0, |i| i as u64 + 1)]))
}

/// Checks the view along the run, that `drive` executes the same run, and
/// returns `(script length, script digest, stop reason)`.
fn fair_run<A, D>(
    procs: Vec<A>,
    pattern: &FailurePattern,
    fd: &D,
    seed: u64,
    max_steps: u64,
) -> (usize, u64, StopReason)
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector,
{
    let checked =
        checked_fair_run(Simulation::new(procs.clone(), pattern.clone()), fd, seed, max_steps);
    let driven = driven(Simulation::new(procs, pattern.clone()), fd, seed, max_steps);
    assert_eq!(checked, driven, "the step-by-step loop must execute the run `drive` does");
    (checked.0.len(), script_digest(&checked.0), checked.1)
}

/// Total length and one digest of several runs' `(length, digest)`.
fn fold(runs: &[(usize, u64, StopReason)]) -> (usize, u64) {
    (runs.iter().map(|r| r.0).sum(), fnv(runs.iter().flat_map(|r| [r.0 as u64, r.1])))
}

#[test]
fn fig2_with_crashes_view_matches_network() {
    let n = 6;
    let proposals = distinct_proposals(n);
    let patterns = [
        FailurePattern::builder(n).crash_at(ProcessId(1), Time(7)).build(),
        FailurePattern::builder(n)
            .crash_at(ProcessId(0), Time(3))
            .crash_at(ProcessId(5), Time(9))
            .build(),
        FailurePattern::crashed_from_start(n, ProcessSet::singleton(ProcessId(2))),
    ];
    let mut runs = Vec::new();
    for pattern in &patterns {
        for seed in 0..4 {
            let sigma = Sigma::new(ProcessId(0), ProcessId(1), pattern, seed);
            runs.push(fair_run(fig2_processes(&proposals), pattern, &sigma, seed, 5_000));
        }
    }
    assert!(runs.iter().all(|r| r.2 == StopReason::AllCorrectHalted), "{runs:?}");
    assert_eq!(fold(&runs), (77, 16_718_728_726_624_114_884));
}

#[test]
fn abd_under_sigma_s_view_matches_network() {
    let n = 5;
    let s = ProcessSet::full(n);
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(3), Time(40)).build();
    let scripts = WorkloadSpec { ops_per_process: 3, read_ratio: 0.5, seed: 9 }.scripts(s);
    let sigma_s = SigmaS::new(s, &pattern, 9);
    // ABD replicas never halt: once every script is done and the queues
    // drain, the run stops as starved.
    let got = fair_run(abd_processes(s, n, scripts), &pattern, &sigma_s, 9, 20_000);
    assert_eq!(got, (305, 8_230_490_103_612_032_036, StopReason::Starved));
}

#[test]
fn paxos_with_crashes_view_matches_network() {
    // p0 and the last process crash: a majority survives at n = 5 and the
    // run decides; at n = 4 none does, and the run spins to its budget.
    let crashes = |n: usize| {
        FailurePattern::builder(n)
            .crash_at(ProcessId(0), Time(12))
            .crash_at(ProcessId(n as u32 - 1), Time(30))
            .build()
    };
    let mut runs = Vec::new();
    for (n, budget) in [(5, 5_000), (4, 3_000)] {
        let pattern = crashes(n);
        let omega = Omega::new(&pattern, 0);
        runs.push(fair_run(paxos_processes(&distinct_proposals(n)), &pattern, &omega, 0, budget));
    }
    assert_eq!(runs[0].2, StopReason::AllCorrectHalted);
    assert_eq!(runs[1].2, StopReason::MaxSteps);
    assert_eq!(fold(&runs), (3_125, 4_408_168_567_514_851_176));
}
