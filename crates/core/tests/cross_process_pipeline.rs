//! Cross-process determinism of a full pipeline sweep: the event logs,
//! counters, and decisions of a Figure 2 sweep must be identical in two
//! ASLR-distinct executions of this binary (different `RandomState`
//! seeds, different layouts). Guards the whole simulated path — model,
//! scheduler, network, trace assembly — against ambient nondeterminism
//! that a same-process repeat cannot expose.

#![expect(
    clippy::disallowed_methods,
    reason = "the test re-executes its own binary and marks the child with an environment variable"
)]

use sih::patterns::pattern_suite;
use sih::pipeline;
use sih_model::{FailurePattern, ProcessId, ProcessSet};
use sih_runtime::sweep::{with_seeds, Sweep};
use std::process::Command;

const CHILD_ENV: &str = "SIH_XPROC_PIPELINE_CHILD";

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn digest() -> u64 {
    let (p, q) = (ProcessId(0), ProcessId(1));
    let focus = ProcessSet::from_iter([p, q]);
    let grid = with_seeds(&pattern_suite(4, focus, 2, 101), 2);
    let runs = Sweep::new(2).run(grid, || {
        let mut pool = pipeline::Fig2Pool::new();
        move |_idx, (pattern, seed): (FailurePattern, u64)| {
            let tr = pipeline::run_fig2_pooled(&mut pool, &pattern, p, q, seed, 60_000);
            format!(
                "steps={} msgs={} decisions={:?} events={:?}",
                tr.total_steps(),
                tr.messages_sent(),
                (0..pattern.n() as u32).map(|i| tr.decision_of(ProcessId(i))).collect::<Vec<_>>(),
                tr.events(),
            )
        }
    });
    fnv1a(&runs.join("\n"))
}

/// Child entry point: prints the digest when the marker env var is set;
/// a no-op pass in the normal suite.
#[test]
fn xproc_digest_worker() {
    if std::env::var(CHILD_ENV).is_ok() {
        println!("DIGEST:{:016x}", digest());
    }
}

fn spawn_child() -> u64 {
    let exe = std::env::current_exe().expect("invariant: test binary path is known");
    let out = Command::new(exe)
        .env(CHILD_ENV, "1")
        .args(["--exact", "xproc_digest_worker", "--nocapture"])
        .output()
        .expect("invariant: the test binary re-executes");
    assert!(out.status.success(), "child failed: {}", String::from_utf8_lossy(&out.stderr));
    // libtest may print its own `test … ...` prefix on the same line, so
    // locate the marker anywhere and take the 16 hex digits after it.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let at = stdout.find("DIGEST:").expect("invariant: child prints a DIGEST marker") + 7;
    u64::from_str_radix(&stdout[at..at + 16], 16).expect("invariant: digest is 16 hex digits")
}

#[test]
fn pipeline_sweep_identical_across_processes() {
    if std::env::var(CHILD_ENV).is_ok() {
        return; // children only run the worker
    }
    let a = spawn_child();
    let b = spawn_child();
    assert_eq!(a, b, "two ASLR-distinct processes produced different digests");
    assert_eq!(a, digest());
}
