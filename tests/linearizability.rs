//! The register checker on real ABD histories: a history far past the
//! fallback search's cap is checked in full, and anomalies injected into
//! recorded histories are rejected by both deciders — the cluster check
//! behind `check_linearizable` and the memoized search it falls back to.

use sih::model::{FailurePattern, OpKind, OpRecord, ProcessId, ProcessSet, Value};
use sih::pipeline;
use sih::registers::{
    check_linearizable, check_linearizable_search, LinearizabilityViolation, WorkloadSpec, MAX_OPS,
};
use sih::runtime::SimPool;

/// One ABD history: `S` = {p0, p1, p2} of n = 4, all correct.
fn abd_history(ops_per_process: usize, seed: u64) -> Vec<OpRecord> {
    let pattern = FailurePattern::all_correct(4);
    let s = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
    let spec = WorkloadSpec { ops_per_process, read_ratio: 0.5, seed };
    let mut pool = SimPool::new();
    pipeline::run_register_workload_pooled(&mut pool, &pattern, s, spec.scripts(s), seed, 5_000_000)
        .op_records()
}

fn written(op: &OpRecord) -> Option<Value> {
    match op.kind {
        OpKind::Write(v) => Some(v),
        OpKind::Read => None,
    }
}

fn is_completed_read(op: &OpRecord) -> bool {
    op.kind == OpKind::Read && op.is_complete()
}

/// The value a write `w` displaced: the value of some write that
/// returned before `w` was invoked, or the initial `None`.
fn displaced_by(ops: &[OpRecord], w: &OpRecord) -> Option<Value> {
    ops.iter().filter(|old| old.precedes(w)).find_map(written)
}

/// A completed read `r` that some write `w_new` precedes: `r` returns
/// the value `w_new` displaced, which is overwritten before `r` starts.
fn stale_read(ops: &[OpRecord]) -> Option<(usize, Option<Value>)> {
    ops.iter().enumerate().filter(|(_, r)| is_completed_read(r)).find_map(|(i, r)| {
        let w_new = ops.iter().find(|w| written(w).is_some() && w.precedes(r))?;
        Some((i, displaced_by(ops, w_new)))
    })
}

/// Reads `r1 ≺ r2` where `r1` returned a written value: `r2` returns the
/// value that write displaced, so the register appears to go back.
fn new_old_inversion(ops: &[OpRecord]) -> Option<(usize, Option<Value>)> {
    ops.iter().filter(|r1| is_completed_read(r1)).find_map(|r1| {
        let w_new = ops.iter().find(|w| written(w).is_some() && written(w) == r1.read_value)?;
        let r2 = ops.iter().position(|r2| is_completed_read(r2) && r1.precedes(r2))?;
        Some((r2, displaced_by(ops, w_new)))
    })
}

/// A completed read that returned before some write was invoked returns
/// that write's value.
fn read_before_write(ops: &[OpRecord]) -> Option<(usize, Option<Value>)> {
    ops.iter().enumerate().filter(|(_, r)| is_completed_read(r)).find_map(|(i, r)| {
        let w = ops.iter().find(|w| written(w).is_some() && r.precedes(w))?;
        Some((i, written(w)))
    })
}

#[test]
fn abd_history_of_a_thousand_ops_is_checked_in_full() {
    let ops = abd_history(340, 11);
    let completed = ops.iter().filter(|o| o.is_complete()).count();
    assert!(completed >= 1_000, "only {completed} operations completed");
    check_linearizable(&ops, None).unwrap();
    // The fallback search could not have decided it.
    assert_eq!(
        check_linearizable_search(&ops, None),
        Err(LinearizabilityViolation::HistoryTooLarge { ops: ops.len(), max: MAX_OPS })
    );
}

#[test]
fn injected_anomalies_are_rejected_by_both_deciders() {
    type Injection = fn(&[OpRecord]) -> Option<(usize, Option<Value>)>;
    let injections: [(&str, Injection); 3] = [
        ("stale read", stale_read),
        ("new-old inversion", new_old_inversion),
        ("read before write", read_before_write),
    ];
    let mut injected = [0usize; 3];
    for seed in 0..12 {
        let ops = abd_history(6, seed);
        assert!(ops.len() <= MAX_OPS);
        check_linearizable(&ops, None).unwrap();
        check_linearizable_search(&ops, None).unwrap();
        for (count, (name, inject)) in injected.iter_mut().zip(injections) {
            let Some((read, value)) = inject(&ops) else { continue };
            let mut bad = ops.clone();
            bad[read].read_value = value;
            let fast = check_linearizable(&bad, None).expect_err(name);
            assert!(fast.detail().contains("certificate"), "seed {seed}, {name}: {fast}");
            let search = check_linearizable_search(&bad, None).expect_err(name);
            assert!(
                matches!(search, LinearizabilityViolation::NotLinearizable { .. }),
                "seed {seed}, {name}: {search}"
            );
            *count += 1;
        }
    }
    assert!(injected.iter().all(|&c| c >= 6), "injections applied per kind: {injected:?}");
}
