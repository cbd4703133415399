//! Property-based tests for the model vocabulary: algebraic laws of
//! [`ProcessSet`], monotonicity of [`FailurePattern`], step-function
//! consistency of [`OutputTimeline`], and the lazily materialised
//! [`RecordedHistory`] against a dense model.

#![cfg(test)]

use crate::{
    FailureDetector, FailurePattern, FdOutput, OutputTimeline, ProcSet, ProcessId, ProcessSet,
    RecordedHistory, Time,
};
use proptest::prelude::*;

fn arb_set() -> impl Strategy<Value = ProcessSet> {
    any::<u64>()
        .prop_map(|bits| (0..16u32).filter(|i| bits & (1 << i) != 0).map(ProcessId).collect())
}

proptest! {
    #[test]
    fn union_is_commutative_and_associative(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.union(b).union(c), a.union(b.union(c)));
    }

    #[test]
    fn intersection_distributes_over_union(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(
            a.intersection(b.union(c)),
            a.intersection(b).union(a.intersection(c))
        );
    }

    #[test]
    fn de_morgan_within_a_universe(a in arb_set(), b in arb_set()) {
        let u = ProcessSet::full(16);
        let comp = |s: ProcessSet| u.difference(s);
        prop_assert_eq!(comp(a.union(b)), comp(a).intersection(comp(b)));
        prop_assert_eq!(comp(a.intersection(b)), comp(a).union(comp(b)));
    }

    #[test]
    fn subset_iff_union_absorbs(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.is_subset(b), a.union(b) == b);
        prop_assert_eq!(a.intersects(b), !a.intersection(b).is_empty());
    }

    #[test]
    fn smallest_and_greatest_partition(a in arb_set(), m in 0usize..20) {
        let low = a.smallest(m);
        let high = a.difference(low);
        prop_assert_eq!(low.union(high), a);
        prop_assert!(!low.intersects(high));
        prop_assert_eq!(low.len(), m.min(a.len()));
        // Every low member is below every high member.
        if let (Some(lo_max), Some(hi_min)) = (low.max(), high.min()) {
            prop_assert!(lo_max < hi_min);
        }
    }

    #[test]
    fn iteration_round_trips(a in arb_set()) {
        let back: ProcessSet = a.iter().collect();
        prop_assert_eq!(back, a);
        prop_assert_eq!(a.iter().count(), a.len());
    }

    #[test]
    fn crashed_by_is_monotone(crash in proptest::option::of(0u64..50), probe in 0u64..100) {
        let mut b = FailurePattern::builder(3);
        if let Some(t) = crash {
            b = b.crash_at(ProcessId(1), Time(t));
        }
        let f = b.build();
        let earlier = f.crashed_by(Time(probe));
        let later = f.crashed_by(Time(probe + 1));
        prop_assert!(earlier.is_subset(later));
        prop_assert_eq!(f.alive_at(Time(probe)), f.all().difference(earlier));
    }

    #[test]
    fn correct_processes_are_alive_forever(probe in 0u64..1_000) {
        let f = FailurePattern::builder(4)
            .crash_at(ProcessId(0), Time(5))
            .crash_from_start(ProcessId(1))
            .build();
        for p in f.correct() {
            prop_assert!(f.is_alive(p, Time(probe)));
        }
        prop_assert!(!f.is_alive(ProcessId(1), Time(probe)));
    }

    #[test]
    fn timeline_at_returns_last_set_value(changes in proptest::collection::vec((0u64..100, 0u32..8), 0..12)) {
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut tl = OutputTimeline::new(FdOutput::Bot);
        for &(t, leader) in &sorted {
            tl.set(Time(t), FdOutput::Leader(ProcessId(leader)));
        }
        // Reference: scan for the last change ≤ probe.
        for probe in [0u64, 1, 10, 50, 99, 150] {
            let expected = sorted
                .iter().rfind(|&&(t, _)| t <= probe)
                .map_or(FdOutput::Bot, |&(_, l)| FdOutput::Leader(ProcessId(l)));
            prop_assert_eq!(tl.at(Time(probe)), expected);
        }
        prop_assert_eq!(
            tl.final_output(),
            sorted.last().map_or(FdOutput::Bot, |&(_, l)| FdOutput::Leader(ProcessId(l)))
        );
    }
}

/// Op sequences over ids that straddle several 64-bit words, so the
/// growable [`ProcSet`] is exercised past the `ProcessSet` ceiling.
/// Encoded as `(code, id)` pairs: codes 0–7 insert, 8–11 remove,
/// 12 clears (the vendored proptest has no weighted `prop_oneof`).
#[derive(Debug, Clone, Copy)]
enum SetOp {
    Insert(u32),
    Remove(u32),
    Clear,
}

fn arb_ops() -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec((0u32..13, 0u32..200), 0..64).prop_map(|raw| {
        raw.into_iter()
            .map(|(code, id)| match code {
                0..=7 => SetOp::Insert(id),
                8..=11 => SetOp::Remove(id),
                _ => SetOp::Clear,
            })
            .collect()
    })
}

/// Replays `ops` against both a [`ProcSet`] and the `BTreeSet` reference
/// model, checking that each mutation reports the same effect.
fn materialize(
    ops: &[SetOp],
) -> Result<(ProcSet, std::collections::BTreeSet<ProcessId>), TestCaseError> {
    let mut actual = ProcSet::new();
    let mut model = std::collections::BTreeSet::new();
    for &op in ops {
        match op {
            SetOp::Insert(i) => {
                prop_assert_eq!(actual.insert(ProcessId(i)), model.insert(ProcessId(i)));
            }
            SetOp::Remove(i) => {
                prop_assert_eq!(actual.remove(ProcessId(i)), model.remove(&ProcessId(i)));
            }
            SetOp::Clear => {
                actual.clear();
                model.clear();
            }
        }
    }
    Ok((actual, model))
}

proptest! {
    /// After any op sequence, `ProcSet` agrees with a `BTreeSet` model on
    /// membership, cardinality, emptiness, minimum, and iteration order.
    #[test]
    fn procset_matches_btreeset_model(ops in arb_ops()) {
        let (actual, model) = materialize(&ops)?;
        prop_assert_eq!(actual.len(), model.len());
        prop_assert_eq!(actual.is_empty(), model.is_empty());
        prop_assert_eq!(actual.first(), model.iter().next().copied());
        for i in 0..200u32 {
            prop_assert_eq!(actual.contains(ProcessId(i)), model.contains(&ProcessId(i)));
        }
        let iterated: Vec<ProcessId> = actual.iter().collect();
        let expected: Vec<ProcessId> = model.iter().copied().collect();
        prop_assert_eq!(iterated, expected);
    }

    /// Binary algebra (intersection / union / difference / subset /
    /// intersects) agrees with the `BTreeSet` reference semantics.
    #[test]
    fn procset_algebra_matches_btreeset(a_ops in arb_ops(), b_ops in arb_ops()) {
        let (a, ma) = materialize(&a_ops)?;
        let (b, mb) = materialize(&b_ops)?;
        let inter: Vec<ProcessId> = a.intersection(&b).iter().collect();
        prop_assert_eq!(inter, ma.intersection(&mb).copied().collect::<Vec<_>>());
        let uni: Vec<ProcessId> = a.union(&b).iter().collect();
        prop_assert_eq!(uni, ma.union(&mb).copied().collect::<Vec<_>>());
        let diff: Vec<ProcessId> = a.difference(&b).iter().collect();
        prop_assert_eq!(diff, ma.difference(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(a.is_subset(&b), ma.is_subset(&mb));
        prop_assert_eq!(a.intersects(&b), !ma.is_disjoint(&mb));
    }

    /// Structural equality, ordering, and hashing are value-based: two op
    /// sequences reaching the same member set compare equal even if their
    /// backing word vectors grew to different lengths.
    #[test]
    fn procset_eq_ignores_trailing_capacity(ops in arb_ops(), extra in 200u32..400) {
        let (mut a, _) = materialize(&ops)?;
        let mut b = a.clone();
        // Force `b` to grow extra zero words, then drop the member again.
        b.insert(ProcessId(extra));
        b.remove(ProcessId(extra));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        a.insert(ProcessId(extra));
        prop_assert_ne!(&a, &b);
    }

    /// For ids under the `ProcessSet` ceiling the two set types are
    /// interchangeable: round-trip conversion preserves members,
    /// `contains_all` matches subset semantics, and Debug renders the
    /// same `{p0,p2,…}` text (explorer fingerprints depend on this).
    #[test]
    fn procset_agrees_with_processset_below_64(small in arb_set(), other in arb_set()) {
        let grown = ProcSet::from_process_set(small);
        prop_assert_eq!(grown.to_process_set(), small);
        prop_assert_eq!(grown.len(), small.len());
        prop_assert_eq!(grown.contains_all(other), other.is_subset(small));
        prop_assert_eq!(format!("{grown:?}"), format!("{small:?}"));
    }
}

/// Records as `(process, time step, leader)`: the process is taken
/// modulo `n`, and each process's clock advances by the step (0 is a
/// same-instant overwrite), so every timeline is written forward.
fn arb_records() -> impl Strategy<Value = (usize, Vec<(usize, u64, u32)>)> {
    (1usize..12, proptest::collection::vec((0usize..12, 0u64..3, 0u32..4), 0..40))
}

/// Replays `records` into a fresh history, a materialised one and a dense
/// per-process model.
fn replay(
    n: usize,
    records: &[(usize, u64, u32)],
) -> (RecordedHistory, RecordedHistory, Vec<OutputTimeline>) {
    let mut sparse = RecordedHistory::new(n, FdOutput::Bot);
    let mut dense = RecordedHistory::with_initials(vec![FdOutput::Bot; n]);
    let mut model = vec![OutputTimeline::new(FdOutput::Bot); n];
    let mut clock = vec![0u64; n];
    for &(p, dt, leader) in records {
        let p = p % n;
        clock[p] += dt;
        let (t, out) = (Time(clock[p]), FdOutput::Leader(ProcessId(leader)));
        sparse.record(ProcessId(p as u32), t, out);
        dense.record(ProcessId(p as u32), t, out);
        model[p].set(t, out);
    }
    (sparse, dense, model)
}

proptest! {
    /// A sparse history reads exactly like the dense model through every
    /// accessor, and equals (and renders like) a fully materialised
    /// history of the same records.
    #[test]
    fn sparse_history_matches_dense_model(input in arb_records()) {
        let (n, records) = input;
        let (h, dense, model) = replay(n, &records);
        prop_assert_eq!(h.n(), n);
        for (i, tl) in model.iter().enumerate() {
            let p = ProcessId(i as u32);
            prop_assert_eq!(h.timeline(p), tl);
            for t in 0..(2 * records.len() as u64 + 2) {
                prop_assert_eq!(h.output(p, Time(t)), tl.at(Time(t)));
            }
        }
        let iterated: Vec<(ProcessId, OutputTimeline)> =
            h.iter().map(|(p, tl)| (p, tl.clone())).collect();
        let expected: Vec<(ProcessId, OutputTimeline)> =
            model.iter().enumerate().map(|(i, tl)| (ProcessId(i as u32), tl.clone())).collect();
        prop_assert_eq!(iterated, expected);
        prop_assert_eq!(
            h.stabilization_time(),
            model.iter().map(OutputTimeline::last_change).max().unwrap_or(Time::ZERO)
        );

        prop_assert_eq!(&h, &dense);
        prop_assert_eq!(&dense, &h);
        prop_assert_eq!(format!("{h:?}"), format!("{dense:?}"));
        let mut other = dense.clone();
        other.record(ProcessId((n - 1) as u32), Time(1_000), FdOutput::Leader(ProcessId(99)));
        prop_assert_ne!(&h, &other);
        prop_assert_ne!(&other, &h);
    }
}
