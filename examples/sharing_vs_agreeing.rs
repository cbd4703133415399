//! The title of the paper, in one program: on the *same* asynchronous
//! system, agreeing (set agreement) succeeds with strictly less failure
//! information than sharing (an atomic register) requires.
//!
//! 1. **Agreeing with σ** — Figure 2 solves `(n−1)`-set agreement using
//!    only the paper's weak detector `σ`.
//! 2. **Sharing needs Σ** — the ABD emulation implements an atomic
//!    `{p,q}`-register from `Σ_{p,q}` (and we check linearizability).
//! 3. **σ cannot share** — the Lemma 7 adversary defeats a natural
//!    attempt to build `Σ_{p,q}` out of σ, exhibiting the exact run pair
//!    from the paper's proof.
//!
//! ```text
//! cargo run --example sharing_vs_agreeing
//! ```

use sih::model::OpKind;
use sih::prelude::*;
use sih::reductions::{lemma7_defeat, GossipPairCandidate};

fn main() {
    let n = 4;
    let (p, q, a) = (ProcessId(0), ProcessId(1), ProcessId(2));
    let pattern = FailurePattern::all_correct(n);

    // ── 1. Agreeing with σ ─────────────────────────────────────────────
    println!("── agreeing with σ ──");
    let sigma = Sigma::new(p, q, &pattern, 7);
    let proposals = distinct_proposals(n);
    let mut sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
    sim.run(&mut FairScheduler::new(7), &sigma, 100_000);
    check_k_set_agreement(sim.trace(), &pattern, &proposals, n - 1)
        .expect("invariant: Figure 2 solves (n-1)-set agreement with σ");
    println!(
        "set agreement with σ: {} distinct decisions from {} values ✓ ({} messages)",
        sim.trace().distinct_decisions().len(),
        n,
        sim.trace().messages_sent()
    );

    // ── 2. Sharing with Σ ──────────────────────────────────────────────
    println!("\n── sharing with Σ_{{p,q}} ──");
    let s = ProcessSet::from_iter([p, q]);
    let sigma_s = SigmaS::new(s, &pattern, 7);
    let scripts = vec![
        vec![OpKind::Write(Value(10)), OpKind::Read],
        vec![OpKind::Read, OpKind::Write(Value(20)), OpKind::Read],
    ];
    let mut sim = Simulation::new(abd_processes(s, n, scripts), pattern.clone());
    sim.run_until(&mut FairScheduler::new(7), &sigma_s, 300_000, |sim| {
        sim.pattern().correct().iter().all(|x| sim.process(x).script_finished())
    });
    let ops = sim.trace().op_records();
    check_linearizable(&ops, None).expect("invariant: ABD over Σ_S is linearizable");
    println!(
        "ABD register over Σ_{{p,q}}: {} operations, linearizable ✓ ({} messages)",
        ops.len(),
        sim.trace().messages_sent()
    );

    // ── 3. σ cannot share ─────────────────────────────────────────────
    println!("\n── σ cannot implement the register (Lemma 7) ──");
    let defeat = lemma7_defeat(
        &|| (0..n).map(|_| GossipPairCandidate::new(p, q, 16)).collect::<Vec<_>>(),
        n,
        p,
        q,
        a,
        7,
        60_000,
    );
    println!("candidate Σ_{{p,q}}-from-σ emulation defeated:");
    println!("  {defeat}");
    println!("\nsharing is harder than agreeing ∎");
}
