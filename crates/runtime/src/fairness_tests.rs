//! Fairness and legality tests for the schedulers — the run-validity
//! conditions of the paper's model ("every correct process takes an
//! infinite number of steps"; reliable channels) translated to bounded
//! assertions on long finite runs.

#![cfg(test)]

use crate::automaton::{Automaton, Effects, StepInput};
use crate::scheduler::{Choice, FairScheduler, RoundRobinScheduler, ScriptedScheduler};
use crate::sim::{Driver, ReplayMode, Simulation, StopReason};
use proptest::prelude::*;
use sih_model::{FailurePattern, NoDetector, ProcessId, Time};

/// Sends one message to everyone each step; counts receipts.
#[derive(Clone, Debug, Default)]
struct Flood {
    received: u64,
    steps: u64,
}

impl Automaton for Flood {
    type Msg = u8;
    fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
        self.steps += 1;
        if input.delivered.is_some() {
            self.received += 1;
        }
        // Bound the flood so queues stay finite.
        if self.steps <= 50 {
            eff.send_all(input.n, 1);
        }
    }
}

#[test]
fn fair_scheduler_steps_every_correct_process() {
    let n = 6;
    let pattern = FailurePattern::all_correct(n);
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern.clone());
    let mut sched = FairScheduler::new(9);
    sim.run(&mut sched, &NoDetector, 5_000);
    for i in 0..n as u32 {
        let p = ProcessId(i);
        let steps = sim.trace().steps_of(p);
        assert!(steps > 200, "{p} starved: only {steps} steps");
    }
}

#[test]
fn fair_scheduler_respects_starvation_bound() {
    // No schedulable process goes more than `starvation_bound` choices
    // without being scheduled.
    let n = 5;
    let pattern = FailurePattern::all_correct(n);
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
    let bound = 16;
    let mut sched = FairScheduler::new(3).with_bounds(bound, 24);
    sim.run(&mut sched, &NoDetector, 3_000);
    let script = sim.script();
    let mut last_seen = vec![0usize; n];
    for (idx, choice) in script.iter().enumerate() {
        last_seen[choice.p.index()] = idx;
        for (i, seen) in last_seen.iter().enumerate() {
            let gap = idx - seen;
            assert!(
                gap <= (bound as usize) + n,
                "p{i} unscheduled for {gap} steps (bound {bound})"
            );
        }
    }
}

#[test]
fn fair_scheduler_delivers_every_message_eventually() {
    // Channel reliability: at the end of a long run with bounded
    // flooding, no message is older than the delivery bound.
    let n = 4;
    let pattern = FailurePattern::all_correct(n);
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
    let mut sched = FairScheduler::new(5).with_deliver_prob(0.3);
    sim.run(&mut sched, &NoDetector, 8_000);
    let now = sim.now();
    let delivery_bound = 96 + 64; // delivery bound + slack for scheduling gaps
    for i in 0..n as u32 {
        let p = ProcessId(i);
        for env in sim.network().pending(p) {
            assert!(
                now - env.sent_at <= delivery_bound,
                "stale message at {p}: sent {} now {now}",
                env.sent_at
            );
        }
    }
}

#[test]
fn round_robin_cycles_in_id_order() {
    let n = 4;
    let pattern = FailurePattern::all_correct(n);
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
    let mut sched = RoundRobinScheduler::new();
    sim.run(&mut sched, &NoDetector, 12);
    let order: Vec<u32> = sim.script().iter().map(|c| c.p.0).collect();
    assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
}

#[test]
fn round_robin_skips_crashed_processes() {
    let n = 3;
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(1), Time(2)).build();
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
    let mut sched = RoundRobinScheduler::new();
    sim.run(&mut sched, &NoDetector, 8);
    let order: Vec<u32> = sim.script().iter().map(|c| c.p.0).collect();
    // p1 may step at times 1 and 2 only (its slot at t=2), then vanishes.
    assert!(order.iter().skip(3).all(|&p| p != 1), "{order:?}");
}

#[test]
fn scripted_scheduler_hands_over_to_fallback() {
    let n = 2;
    let pattern = FailurePattern::all_correct(n);
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
    let script = vec![Choice::compute(ProcessId(1)); 3];
    let mut sched = ScriptedScheduler::followed_by(script, RoundRobinScheduler::new());
    assert_eq!(sched.remaining(), 3);
    sim.run(&mut sched, &NoDetector, 7);
    let order: Vec<u32> = sim.script().iter().map(|c| c.p.0).collect();
    assert_eq!(&order[..3], &[1, 1, 1]);
    assert_eq!(order.len(), 7);
    assert_eq!(sched.remaining(), 0);
}

#[test]
fn scripted_scheduler_without_fallback_exhausts() {
    let n = 2;
    let pattern = FailurePattern::all_correct(n);
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
    let mut sched = ScriptedScheduler::new(vec![Choice::compute(ProcessId(0)); 2]);
    let outcome = sim.run(&mut sched, &NoDetector, 100);
    assert_eq!(outcome.steps, 2);
    assert_eq!(outcome.reason, crate::sim::StopReason::SchedulerExhausted);
}

/// A quorum-style automaton for the starvation tests: broadcasts one
/// request on its first step, then waits silently for any reply — exactly
/// the shape that starves under a total partition.
#[derive(Clone, Debug, Default)]
struct AskOnce {
    asked: bool,
    got_reply: bool,
}

impl Automaton for AskOnce {
    type Msg = u8;
    fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
        if !self.asked {
            self.asked = true;
            eff.send_all(input.n, 0);
        }
        if input.delivered.is_some() {
            self.got_reply = true;
        }
    }
    fn quiescent(&self) -> bool {
        // After the first step the automaton only reacts to deliveries.
        self.asked
    }
}

#[test]
fn fully_partitioned_run_stops_starved_in_linear_steps() {
    use sih_model::{LinkFaultPlan, NoDetector};
    let n = 6;
    let pattern = FailurePattern::all_correct(n);
    let plan = LinkFaultPlan::builder(n).blackout(Time::ZERO, None).build();
    let mut sim = Simulation::new(vec![AskOnce::default(); n], pattern);
    sim.set_link_faults(plan);
    let outcome = sim.run(&mut RoundRobinScheduler::new(), &NoDetector, 1_000_000);
    // One step per process and every broadcast is eaten by the blackout;
    // the engine then proves no further step can have an effect — O(n)
    // steps, not the million-step budget.
    assert_eq!(outcome.reason, crate::sim::StopReason::Starved);
    assert_eq!(outcome.steps, n as u64, "stops right after the last first step");
    assert_eq!(outcome.sent, (n * n) as u64);
    assert_eq!(outcome.dropped, (n * n) as u64);
    assert_eq!(outcome.delivered, 0);
    assert_eq!(outcome.in_flight, 0);
}

#[test]
fn healed_partition_lets_the_same_system_finish() {
    use sih_model::{LinkFaultPlan, NoDetector};
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    // Blackout that heals at t=20: the broadcasts at t<=n are lost, but
    // AskOnce never resends — so the run still starves (nothing in
    // flight). A blackout that never starts, by contrast, lets replies
    // flow. This pins down that Starved depends on reachability, not on
    // the mere presence of a plan.
    let healing = LinkFaultPlan::builder(n).blackout(Time::ZERO, Some(Time(20))).build();
    let mut sim = Simulation::new(vec![AskOnce::default(); n], pattern.clone());
    sim.set_link_faults(healing);
    let outcome = sim.run(&mut RoundRobinScheduler::new(), &NoDetector, 1_000);
    assert_eq!(outcome.reason, crate::sim::StopReason::Starved);

    let idle = LinkFaultPlan::builder(n).blackout(Time(500), None).build();
    let mut sim = Simulation::new(vec![AskOnce::default(); n], pattern);
    sim.set_link_faults(idle);
    let outcome = sim.run_until(&mut RoundRobinScheduler::new(), &NoDetector, 1_000, |s| {
        (0..n).all(|i| s.process(ProcessId(i as u32)).got_reply)
    });
    assert_eq!(outcome.reason, crate::sim::StopReason::AllCorrectHalted);
    assert_eq!(outcome.dropped, 0);
}

#[test]
fn run_outcome_counters_satisfy_the_network_invariant() {
    use sih_model::{LinkFaultPlan, NoDetector};
    let n = 4;
    let pattern = FailurePattern::all_correct(n);
    let plan = LinkFaultPlan::builder(n)
        .drop_every(ProcessId(0), ProcessId(1), 2, 0, Time::ZERO, Some(Time(300)))
        .duplicate_every(ProcessId(2), ProcessId(3), 3, 1, Time::ZERO, Some(Time(200)))
        .build();
    let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
    sim.set_link_faults(plan);
    let outcome = sim.run(&mut FairScheduler::new(11), &NoDetector, 2_000);
    assert!(outcome.dropped > 0, "the drop window saw traffic");
    assert!(outcome.duplicated > 0, "the duplicate window saw traffic");
    assert_eq!(outcome.sent, outcome.delivered + outcome.dropped + outcome.in_flight);
    // RunOutcome mirrors the network's own counters.
    assert_eq!(outcome.sent, sim.network().sent_count());
    assert_eq!(outcome.delivered, sim.network().delivered_count());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn fairness_holds_for_arbitrary_seeds_and_probabilities(
        seed in 0u64..10_000,
        prob in 0.05f64..1.0,
    ) {
        let n = 4;
        let pattern = FailurePattern::all_correct(n);
        let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
        let mut sched = FairScheduler::new(seed).with_deliver_prob(prob);
        sim.run(&mut sched, &NoDetector, 4_000);
        for i in 0..n as u32 {
            prop_assert!(sim.trace().steps_of(ProcessId(i)) > 100);
        }
        // All 50 × n × n flooded messages either delivered or younger
        // than the delivery bound.
        let now = sim.now();
        for i in 0..n as u32 {
            for env in sim.network().pending(ProcessId(i)) {
                prop_assert!(now - env.sent_at <= 96 + 64);
            }
        }
    }

    #[test]
    fn scheduled_choices_are_always_legal(seed in 0u64..10_000) {
        // The engine panics on illegal choices; a clean run is the proof.
        let n = 5;
        let pattern = FailurePattern::builder(n)
            .crash_at(ProcessId(0), Time(40))
            .crash_at(ProcessId(3), Time(90))
            .build();
        let mut sim = Simulation::new(vec![Flood::default(); n], pattern);
        let mut sched = FairScheduler::new(seed);
        sim.run(&mut sched, &NoDetector, 2_000);
        prop_assert!(sim.trace().total_steps() == 2_000);
    }
}

/// Sends one message to the other process on its first step, then is
/// quiescent for good.
#[derive(Clone, Debug, Default)]
struct OneShot {
    sent: bool,
}

impl Automaton for OneShot {
    type Msg = u8;
    fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
        if !self.sent {
            self.sent = true;
            eff.send(ProcessId(1 - input.me.0), 1);
        }
    }
    fn quiescent(&self) -> bool {
        self.sent
    }
}

#[test]
fn lenient_replay_executes_nothing_past_starvation() {
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    // The leading delivery is illegal (nothing is pending yet) and is
    // skipped. After both sends and both deliveries the system is starved,
    // so the three trailing choices — each legal on its own — must not run.
    let script = [
        Choice::deliver_oldest(p0),
        Choice::compute(p0),
        Choice::compute(p1),
        Choice::deliver_oldest(p0),
        Choice::deliver_oldest(p1),
        Choice::compute(p0),
        Choice::compute(p1),
        Choice::compute(p0),
    ];
    let replay = |choices: &[Choice], mode: ReplayMode| {
        let mut sim = Simulation::new(vec![OneShot::default(); 2], FailurePattern::all_correct(2));
        let mut fps = Vec::new();
        // A replay ignores the stop predicate: the script is the run.
        let outcome =
            sim.drive(Driver::Replay { choices, mode }, &NoDetector, |_| true, Some(&mut fps));
        (outcome.reason, sim.script().to_vec(), fps)
    };
    let (reason, executed, fps) = replay(&script, ReplayMode::Lenient);
    assert_eq!(reason, StopReason::Starved);
    assert_eq!(executed, script[1..5]);
    assert_eq!(fps.len(), 4);
    // The executed subsequence is the canonical form: it strict-replays
    // through the same states.
    let (strict_reason, strict_executed, strict_fps) = replay(&executed, ReplayMode::Strict);
    assert_eq!(strict_reason, StopReason::Starved);
    assert_eq!(strict_executed, executed);
    assert_eq!(strict_fps, fps);
}
