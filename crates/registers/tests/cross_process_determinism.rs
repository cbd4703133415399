//! Cross-process determinism of record assembly and linearizability
//! checking.
//!
//! `Trace::op_records` (BTreeMap-backed) and `check_linearizable` (a
//! sort-based cluster check, with a BTreeSet-memoized fallback search for
//! repeated written values) must produce identical output in *distinct
//! processes* — different ASLR layouts and different `RandomState` hash
//! seeds. A same-process repeat cannot catch a hash-order dependency,
//! so the test re-executes its own binary twice as child processes and
//! compares the digests they print.

#![expect(
    clippy::disallowed_methods,
    reason = "the test re-executes its own binary and marks the child with an environment variable"
)]

use sih_model::{FailurePattern, OpKind, ProcessId, ProcessSet, Value};
use sih_registers::{abd_processes, check_linearizable, WorkloadSpec};
use sih_runtime::{FairScheduler, Simulation};
use std::process::Command;

const CHILD_ENV: &str = "SIH_XPROC_REGISTERS_CHILD";

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The run whose observable output the digest covers: ABD workloads over
/// several seeds; for each, the full op-record log and the
/// linearizability verdict.
fn digest() -> u64 {
    let mut transcript = String::new();
    for seed in 0..4u64 {
        let s = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
        let pattern = FailurePattern::all_correct(4);
        let scripts = WorkloadSpec { ops_per_process: 3, read_ratio: 0.5, seed }.scripts(s);
        let sigma = sih_detectors::SigmaS::new(s, &pattern, seed);
        let mut sim = Simulation::new(abd_processes(s, pattern.n(), scripts), pattern.clone());
        let mut sched = FairScheduler::new(seed);
        sim.run_until(&mut sched, &sigma, 150_000, |sim| {
            sim.pattern().correct().iter().all(|p| sim.process(p).script_finished())
        });
        let tr = sim.into_trace();
        let ops = tr.op_records();
        transcript.push_str(&format!("seed={seed} ops={ops:?}\n"));
        transcript.push_str(&format!("lin={:?}\n", check_linearizable(&ops, None)));
    }
    // A non-linearizable history too, so the violation path (and its
    // certificate) is part of the digest.
    let bad = [
        rec(0, 0, OpKind::Write(Value(1)), 0, Some(10), None),
        rec(1, 1, OpKind::Read, 20, Some(30), Some(Value(9))),
    ];
    transcript.push_str(&format!("bad={:?}\n", check_linearizable(&bad, None)));
    // Repeated written values take the memoized fallback search: one
    // history it accepts, one it rejects.
    let repeated = [
        rec(0, 0, OpKind::Write(Value(1)), 0, Some(10), None),
        rec(1, 1, OpKind::Write(Value(1)), 5, Some(15), None),
        rec(2, 2, OpKind::Write(Value(2)), 5, Some(15), None),
        rec(3, 0, OpKind::Read, 20, Some(30), Some(Value(1))),
    ];
    transcript.push_str(&format!("repeated={:?}\n", check_linearizable(&repeated, None)));
    let repeated_bad =
        [repeated[0], repeated[1], repeated[2], rec(3, 0, OpKind::Read, 20, Some(30), None)];
    transcript.push_str(&format!("repeated_bad={:?}\n", check_linearizable(&repeated_bad, None)));
    fnv1a(&transcript)
}

fn rec(
    id: u64,
    p: u32,
    kind: OpKind,
    invoked: u64,
    returned: Option<u64>,
    read_value: Option<Value>,
) -> sih_model::OpRecord {
    sih_model::OpRecord {
        id: sih_model::OpId(id),
        process: ProcessId(p),
        kind,
        invoked: sih_model::Time(invoked),
        returned: returned.map(sih_model::Time),
        read_value,
    }
}

/// Child entry point: prints the digest and nothing else of interest.
/// A plain no-op pass when run as part of the normal suite.
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
fn op_records_and_linearizability_agree_across_processes() {
    if std::env::var(CHILD_ENV).is_ok() {
        return; // children only run the worker
    }
    let a = spawn_child();
    let b = spawn_child();
    assert_eq!(a, b, "two ASLR-distinct processes produced different digests");
    // And the parent process agrees too (third distinct hash-seed draw).
    assert_eq!(a, digest());
}
