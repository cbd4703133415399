//! Property tests for the link-fault machinery: the network's counter
//! invariant under seeded random fault plans, exactly-once delivery
//! through the stubborn layer, and determinism of faulty runs. (The
//! `lab faults` artifact's thread-count independence is gated with the
//! committed baseline in `tests/baselines.rs`.)

use proptest::prelude::*;
use sih::model::{FailurePattern, LinkFaultPlan, NoDetector, ProcessId, Time};
use sih::runtime::{Automaton, Effects, FairScheduler, Simulation, StepInput};

/// Sends one message to everyone for its first 30 steps.
#[derive(Clone, Debug, Default)]
struct Chatter {
    steps: u64,
}

impl Automaton for Chatter {
    type Msg = u8;
    fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
        self.steps += 1;
        if self.steps <= 30 {
            eff.send_all(input.n, 7);
        }
    }
}

/// Broadcasts once, then counts the payloads its inner layer receives.
#[derive(Clone, Debug, Default)]
struct BroadcastOnce {
    started: bool,
    received: u64,
}

impl Automaton for BroadcastOnce {
    type Msg = u8;
    fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
        if !self.started {
            self.started = true;
            eff.send_all(input.n, 1);
        }
        if input.delivered.is_some() {
            self.received += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `sent == delivered + dropped + in_flight`, whatever faults a
    /// seeded random plan injects.
    #[test]
    fn network_counters_reconcile_under_random_plans(
        plan_seed in 0u64..10_000,
        sched_seed in 0u64..10_000,
    ) {
        let n = 4;
        let plan = LinkFaultPlan::random_plan(n, plan_seed, Time(400));
        let pattern = FailurePattern::all_correct(n);
        let mut sim =
            Simulation::new(vec![Chatter::default(); n], pattern);
        sim.set_link_faults(plan);
        let outcome = sim.run(&mut FairScheduler::new(sched_seed), &NoDetector, 3_000);
        prop_assert_eq!(
            outcome.sent,
            outcome.delivered + outcome.dropped + outcome.in_flight
        );
        prop_assert_eq!(outcome.sent, sim.network().sent_count());
        prop_assert_eq!(outcome.dropped, sim.network().dropped_count());
        prop_assert_eq!(outcome.duplicated, sim.network().duplicated_count());
    }

    /// Through the stubborn layer every logical send is delivered to the
    /// inner automaton exactly once — duplicates and retransmissions are
    /// invisible — no matter what a (bounded) random plan does first.
    #[test]
    fn stubborn_delivery_is_exactly_once_under_random_plans(plan_seed in 0u64..10_000) {
        let n = 3;
        let plan = LinkFaultPlan::random_plan(n, plan_seed, Time(300));
        let pattern = FailurePattern::all_correct(n);
        let procs =
            sih::runtime::stubborn_processes(vec![BroadcastOnce::default(); n]);
        let mut sim = Simulation::new(procs, pattern);
        sim.set_link_faults(plan);
        let outcome = sim.run_until(
            &mut FairScheduler::new(plan_seed ^ 0x5bd1e995),
            &NoDetector,
            200_000,
            |s| (0..n).all(|i| s.process(ProcessId(i as u32)).inner().received == n as u64),
        );
        // Exactly once: n broadcasts of one message each, never more —
        // and all of them arrive once the plan's windows close.
        for i in 0..n {
            prop_assert_eq!(sim.process(ProcessId(i as u32)).inner().received, n as u64);
        }
        prop_assert_eq!(
            outcome.sent,
            outcome.delivered + outcome.dropped + outcome.in_flight
        );
    }

    /// Fault injection is a pure function of `(plan, seed)`: replaying
    /// the same seeds reproduces the schedule and every counter.
    #[test]
    fn faulty_runs_replay_bit_identically(plan_seed in 0u64..10_000) {
        let n = 4;
        let pattern = FailurePattern::all_correct(n);
        let run = || {
            let plan = LinkFaultPlan::random_plan(n, plan_seed, Time(400));
            let mut sim =
                Simulation::new(vec![Chatter::default(); n], pattern.clone());
            sim.set_link_faults(plan);
            let outcome =
                sim.run(&mut FairScheduler::new(plan_seed), &NoDetector, 2_000);
            (sim.script().to_vec(), outcome.sent, outcome.delivered, outcome.dropped,
             outcome.duplicated)
        };
        prop_assert_eq!(run(), run());
    }
}
