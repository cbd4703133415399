//! Theorem 12's setting, live: a shared-memory algorithm runs unchanged
//! (a) over physical registers and (b) over ABD-emulated registers in
//! the paper's message-passing model with `Σ`.
//!
//! The program is the classic `f`-resilient collect-min, which solves
//! `(f+1)`-set agreement — the positive side of the boundary the paper's
//! Theorem 12 reduction leans on.
//!
//! ```text
//! cargo run --example shared_memory_port
//! ```

use sih::detectors::SigmaS;
use sih::model::{FailurePattern, ProcessId, ProcessSet, Time, Value};
use sih::runtime::{FairScheduler, Simulation};
use sih::sharedmem::{bridged_processes, CollectMin, LocalSharedSim};

fn main() {
    let n = 5;
    let f = 1;
    let proposals: Vec<Value> = (0..n as u64).map(Value).collect();

    // ── world 1: registers as physical devices ────────────────────────
    println!("── shared memory (physical registers) ──");
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(4), Time(10)).build();
    let mut local = LocalSharedSim::new(CollectMin::processes(&proposals, f), n, pattern.clone());
    assert!(local.run_fair(7, 200_000), "all correct processes decide");
    println!(
        "collect-min (f = {f}): {} distinct decisions (bound {}), {} steps",
        local.distinct_decisions().len(),
        f + 1,
        local.steps()
    );

    // ── world 2: registers emulated from Σ in message passing ─────────
    println!("\n── message passing (ABD-emulated registers, Σ quorums) ──");
    let det = SigmaS::new(ProcessSet::full(n), &pattern, 7);
    let procs = bridged_processes(CollectMin::processes(&proposals, f), n);
    let mut sim = Simulation::new(procs, pattern.clone());
    sim.run_until(&mut FairScheduler::new(7), &det, 1_000_000, Simulation::all_correct_decided);
    let distinct = sim.trace().distinct_decisions();
    assert!(sim.all_correct_decided(), "all correct processes decide over the emulation too");
    println!(
        "same program, ported: {} distinct decisions (bound {}), {} steps, {} messages",
        distinct.len(),
        f + 1,
        sim.trace().total_steps(),
        sim.trace().messages_sent()
    );
    println!(
        "\nthe 'register' the program used was {} messages of quorum traffic — \
         sharing is an emulation, and the information it needs (Σ) is the\n\
         paper's whole subject ∎",
        sim.trace().messages_sent()
    );
}
