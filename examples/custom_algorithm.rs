//! Using the simulator as a library: write your own failure detector and
//! your own distributed algorithm, run them, and inspect the trace.
//!
//! The example implements a toy "first responder" leader election: every
//! process announces itself; everyone elects the smallest announced id,
//! restricted to processes the (custom) detector still trusts.
//!
//! ```text
//! cargo run --example custom_algorithm
//! ```

use sih::prelude::*;

/// A custom oracle: trusts exactly the alive processes (a "perfect"
/// detector — far stronger than anything the paper needs, which is the
/// point: you can explore the whole spectrum).
#[derive(Clone, Debug)]
struct PerfectDetector {
    pattern: FailurePattern,
}

impl FailureDetector for PerfectDetector {
    fn output(&self, _p: ProcessId, t: Time) -> FdOutput {
        FdOutput::Trust(self.pattern.alive_at(t))
    }
    fn stabilization_time(&self) -> Time {
        self.pattern.last_crash_time().next()
    }
    fn name(&self) -> String {
        "P (perfect)".to_owned()
    }
}

/// The toy algorithm: announce once; elect min(announced ∩ trusted).
#[derive(Clone, Debug, Default)]
struct FirstResponder {
    announced: ProcessSet,
    sent: bool,
    elected: Option<ProcessId>,
}

impl Automaton for FirstResponder {
    type Msg = ProcessId;

    fn step(&mut self, input: StepInput<ProcessId>, eff: &mut Effects<ProcessId>) {
        if !self.sent {
            self.sent = true;
            eff.send_all(input.n, input.me);
        }
        if let Some(env) = &input.delivered {
            self.announced.insert(env.payload);
        }
        // The detector output is read on demand: a step that never calls
        // `input.fd()` makes no query (detector histories are pure, so
        // that changes nothing).
        if let Some(trusted) = input.fd().trust() {
            if let Some(leader) = self.announced.intersection(trusted).min() {
                if self.elected != Some(leader) {
                    self.elected = Some(leader);
                    // Publish the election through the emulated-output
                    // channel so it lands in the trace.
                    eff.set_output(FdOutput::Leader(leader));
                }
            }
        }
    }
}

fn main() {
    let n = 5;
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(0), Time(60)).build();
    let detector = PerfectDetector { pattern: pattern.clone() };

    let mut sim = Simulation::new(vec![FirstResponder::default(); n], pattern.clone());
    let outcome = sim.run(&mut FairScheduler::new(3), &detector, 5_000);
    println!("ran {} steps with {}", outcome.steps, detector.name());

    for i in 0..n as u32 {
        let p = ProcessId(i);
        let final_leader = sim.trace().emulated_history().timeline(p).final_output();
        println!("  {p}: elected {final_leader}");
        if pattern.is_correct(p) {
            // p0 crashed at t=60; every correct process must eventually
            // elect the smallest survivor, p1.
            assert_eq!(final_leader, FdOutput::Leader(ProcessId(1)));
        }
    }
    println!("all correct processes converged on the smallest survivor ✓");
    println!(
        "trace: {} steps, {} messages",
        sim.trace().total_steps(),
        sim.trace().messages_sent()
    );
}
