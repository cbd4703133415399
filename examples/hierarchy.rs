//! Reproduce the paper's Figure 1 — the summary of results — with every
//! arrow machine-checked by this library.
//!
//! ```text
//! cargo run --example hierarchy            # default: n=5, k=2
//! cargo run --example hierarchy 8 3        # custom n, k
//! ```

#![expect(clippy::disallowed_methods, reason = "an example binary: its arguments are its input")]

use sih::claims::{check_claim, Claim, ClaimConfig, Verdict};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(5, |a| a.parse().expect("n must be an integer"));
    let k: usize = args.next().map_or(2, |a| a.parse().expect("k must be an integer"));
    let cfg = ClaimConfig { n, k, seeds: 2, max_steps: 200_000, ..ClaimConfig::default() };

    println!("Figure 1 — results of 'Sharing is Harder than Agreeing' (n = {n}, k = {k})\n");
    println!("{:<44} {:<30} verdict", "claim", "paper artifact");
    println!("{}", "─".repeat(100));
    for claim in Claim::ALL {
        let outcome = check_claim(claim, &cfg);
        let verdict = match &outcome.verdict {
            Verdict::Holds { runs } => format!("HOLDS across {runs} checked runs"),
            Verdict::CounterexampleExhibited { defeats } => {
                format!("IMPOSSIBLE — {} counterexample(s) exhibited", defeats.len())
            }
            Verdict::Refuted { detail } => format!("REFUTED?! {detail}"),
        };
        println!("{:<44} {:<30} {verdict}", claim.title(), claim.paper_ref());
        for note in &outcome.notes {
            println!("    · {note}");
        }
    }
}
