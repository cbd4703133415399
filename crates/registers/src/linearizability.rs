//! Linearizability checking for single-register histories.
//!
//! Atomicity ("every operation appears to execute instantaneously between
//! its invocation and response", §2.2 of the paper, after [15, 14]) is
//! checked by searching for a *linearization*: a total order of operations
//! that (1) contains every completed operation, (2) may contain any subset
//! of pending operations (a crashed client's operation may or may not have
//! taken effect), (3) respects real-time precedence, and (4) is a legal
//! sequential register history — every read returns the latest preceding
//! write (or the initial value).
//!
//! Two deciders implement that definition:
//!
//! * **Write clusters** (Gibbons–Korach), whenever every written value is
//!   unique and differs from the initial value — true of every register
//!   workload in this repository. Each read then names the write it
//!   observed, and the check orders clusters (a write plus the reads of
//!   its value) in O(n log n) at any history size, returning a
//!   certificate of at most six operations on a violation.
//! * **Wing–Gong search** ([`check_linearizable_search`]), memoized over a
//!   `u128` mask and capped at [`MAX_OPS`], for every other history. It
//!   doubles as the cluster check's differential oracle, as does the
//!   exponential [`check_linearizable_brute_force`] on tiny histories.

use sih_model::{FailurePattern, OpKind, OpRecord, Value};
use sih_runtime::{LivenessVerdict, StopReason};
use std::collections::BTreeSet;
use std::fmt;

/// Why a linearizability check did not accept a history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinearizabilityViolation {
    /// The checker proved no linearization exists.
    NotLinearizable {
        /// Human-readable explanation.
        detail: String,
    },
    /// The history exceeds the capacity of the checker that had to decide
    /// it — the verdict is *unknown*, not "violated". The cap is
    /// [`MAX_OPS`] for the memoized search, which [`check_linearizable`]
    /// needs only when a written value repeats or equals the initial
    /// value, and 8 for the brute-force oracle. Callers that fold this
    /// error into a pass/fail verdict must treat it as a harness failure,
    /// not as an atomicity violation.
    HistoryTooLarge {
        /// Operations in the offending history.
        ops: usize,
        /// The checker's capacity.
        max: usize,
    },
    /// A correct process's operation never returned even though the run
    /// had no excuse to stall (only emitted by
    /// [`check_linearizable_degraded`] for stop reasons that promise
    /// completion). The history itself may be linearizable.
    Incomplete {
        /// Human-readable detail.
        detail: String,
    },
}

impl LinearizabilityViolation {
    /// Human-readable detail of the violation (empty for capacity errors).
    pub fn detail(&self) -> &str {
        match self {
            LinearizabilityViolation::NotLinearizable { detail } => detail,
            LinearizabilityViolation::HistoryTooLarge { .. } => "",
            LinearizabilityViolation::Incomplete { detail } => detail,
        }
    }
}

impl fmt::Display for LinearizabilityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearizabilityViolation::NotLinearizable { detail } => {
                write!(f, "history is not linearizable: {detail}")
            }
            LinearizabilityViolation::HistoryTooLarge { ops, max } => {
                write!(f, "history of {ops} operations exceeds the checker's capacity of {max}")
            }
            LinearizabilityViolation::Incomplete { detail } => {
                write!(f, "operations of correct processes never returned: {detail}")
            }
        }
    }
}

impl std::error::Error for LinearizabilityViolation {}

/// Maximum history size of the fallback search (bitmask-bounded). Only
/// histories that [`check_linearizable`] cannot decide by write clusters
/// (a written value repeats, or equals the initial value) are bound by
/// it; every other history is checked in full at any size.
pub const MAX_OPS: usize = 128;

/// Checks that `ops` is a linearizable history of one atomic register
/// with the given initial value.
///
/// When every written value is unique and differs from `initial`, each
/// completed read names the one write it observed, and the check orders
/// *write clusters* (a write together with the reads of its value) in
/// O(n log n) at any history size. A violation's detail then names a
/// certificate of at most six operations by [`OpId`](sih_model::OpId):
/// a read of a value nobody wrote, a read that returned before its write
/// was invoked, or two clusters that must each precede the other.
/// Any other history falls back to [`check_linearizable_search`].
///
/// # Errors
///
/// Returns [`LinearizabilityViolation::NotLinearizable`] if no
/// linearization exists, and [`LinearizabilityViolation::HistoryTooLarge`]
/// (verdict unknown) if the history needs the fallback search and
/// exceeds [`MAX_OPS`] operations.
pub fn check_linearizable(
    ops: &[OpRecord],
    initial: Option<Value>,
) -> Result<(), LinearizabilityViolation> {
    match check_clusters(ops, initial) {
        Some(Ok(())) => Ok(()),
        Some(Err(certificate)) => {
            Err(no_linearization(ops, initial, Some(&certificate.describe(ops, initial))))
        }
        None => check_linearizable_search(ops, initial),
    }
}

/// The memoized Wing–Gong search [`check_linearizable`] falls back to
/// when written values are not unique: a depth-first search over which
/// operations are linearized so far (a `u128` mask) and the register's
/// value, memoized in a `BTreeSet` so that the search never depends on
/// the process's hash seed (determinism contract, DESIGN.md §6).
/// Exported as the differential oracle for the cluster check on
/// histories too large for [`check_linearizable_brute_force`].
///
/// # Errors
///
/// Returns [`LinearizabilityViolation::NotLinearizable`] if no
/// linearization exists, and [`LinearizabilityViolation::HistoryTooLarge`]
/// (verdict unknown) if the history exceeds [`MAX_OPS`] operations.
pub fn check_linearizable_search(
    ops: &[OpRecord],
    initial: Option<Value>,
) -> Result<(), LinearizabilityViolation> {
    if ops.len() > MAX_OPS {
        return Err(LinearizabilityViolation::HistoryTooLarge { ops: ops.len(), max: MAX_OPS });
    }
    let completed_mask: u128 =
        ops.iter().enumerate().filter(|(_, o)| o.is_complete()).fold(0, |m, (i, _)| m | (1 << i));
    // pred[i]: the other operations that returned strictly before `i` was
    // invoked. `i` may be linearized next iff all of them already are.
    let pred: Vec<u128> = ops
        .iter()
        .enumerate()
        .map(|(i, b)| {
            ops.iter()
                .enumerate()
                .filter(|&(j, a)| j != i && a.precedes(b))
                .fold(0, |m, (j, _)| m | (1 << j))
        })
        .collect();

    let mut visited: BTreeSet<SearchState> = BTreeSet::new();
    let start = SearchState { linearized: 0, value: initial };
    if dfs(ops, completed_mask, &pred, start, &mut visited) {
        Ok(())
    } else {
        Err(no_linearization(ops, initial, None))
    }
}

/// Checks a register history from a run over faulty links, degrading
/// gracefully: atomicity must hold unconditionally (pending operations are
/// handled exactly as in [`check_linearizable`] — a crashed or stalled
/// client's operation may or may not have taken effect), but *completeness*
/// is judged against the run's [`StopReason`].
///
/// An operation left pending by a process the [`FailurePattern`] crashes
/// is always excused. A pending operation of a *correct* process is
/// excused — the verdict becomes [`LivenessVerdict::SafeButNotLive`] —
/// only when the run stopped for a reason that legitimately starves
/// quorums ([`StopReason::Starved`], or [`StopReason::MaxSteps`] with
/// faults still unquiesced). Under any other stop reason, a correct
/// process that never finished its script is a liveness violation and the
/// check returns [`LinearizabilityViolation::Incomplete`].
///
/// # Errors
///
/// Propagates any error of [`check_linearizable`]; additionally returns
/// [`LinearizabilityViolation::Incomplete`] as described above.
pub fn check_linearizable_degraded(
    ops: &[OpRecord],
    initial: Option<Value>,
    pattern: &FailurePattern,
    reason: StopReason,
) -> Result<LivenessVerdict, LinearizabilityViolation> {
    check_linearizable(ops, initial)?;
    let correct = pattern.correct();
    let stalled: Vec<&OpRecord> =
        ops.iter().filter(|o| !o.is_complete() && correct.contains(o.process)).collect();
    if stalled.is_empty() {
        return Ok(LivenessVerdict::Live);
    }
    if matches!(reason, StopReason::Starved | StopReason::MaxSteps) {
        return Ok(LivenessVerdict::SafeButNotLive);
    }
    let list: Vec<String> =
        stalled.iter().map(|o| format!("{:?} at {}", o.id, o.process)).collect();
    Err(LinearizabilityViolation::Incomplete {
        detail: format!("[{}] pending though the run stopped as {reason:?}", list.join(", ")),
    })
}

/// The `NotLinearizable` error both deciders share, with the cluster
/// check's certificate appended when there is one.
fn no_linearization(
    ops: &[OpRecord],
    initial: Option<Value>,
    certificate: Option<&str>,
) -> LinearizabilityViolation {
    let completed = ops.iter().filter(|o| o.is_complete()).count();
    let mut detail = format!(
        "no linearization of {} operations ({completed} completed) from initial {initial:?}",
        ops.len()
    );
    if let Some(certificate) = certificate {
        detail.push_str("; certificate: ");
        detail.push_str(certificate);
    }
    LinearizabilityViolation::NotLinearizable { detail }
}

// The cluster check (Gibbons–Korach). With unique written values, every
// linearization is a sequence of clusters, each a write followed by the
// reads of its value; the initial value's cluster has a virtual write
// placed before everything. Pending reads may be left out, and so may a
// pending write that no read returned, so both are dropped; a pending
// write that a read returned must be kept. Cluster C_i must precede C_j
// when some op of C_i returned before some op of C_j was invoked, i.e.
// when f_i < s_j for f = earliest response and s = latest invocation.
// The history is linearizable iff no read returned before its own write
// was invoked and this relation is acyclic — and any cycle
// C_1 → … → C_k → C_1 shrinks to a 2-cycle: if C_1 has the least f on
// it, the edge C_{k-1} → C_k gives f_1 ≤ f_{k-1} < s_k, so C_1 → C_k,
// which closes a 2-cycle with C_k → C_1.

/// The virtual write of the initial value: earlier than every `Time`.
const BEFORE_ALL: i128 = -1;

/// One write cluster of the cluster check.
#[derive(Clone, Copy, Debug)]
struct Cluster {
    /// The write, or `None` for the initial value's cluster.
    write: Option<usize>,
    /// Earliest response, and the op that gave it (`None` for the
    /// initial value's virtual write, or while no completed op joined).
    f: i128,
    f_op: Option<usize>,
    /// Latest invocation, and the op that gave it (`None` while the
    /// cluster is empty).
    s: i128,
    s_op: Option<usize>,
}

impl Cluster {
    fn new(write: Option<usize>) -> Self {
        let f = if write.is_some() { i128::MAX } else { BEFORE_ALL };
        Cluster { write, f, f_op: None, s: BEFORE_ALL, s_op: None }
    }

    fn add(&mut self, i: usize, op: &OpRecord) {
        if let Some(r) = op.returned.map(|r| i128::from(r.0)).filter(|&r| r < self.f) {
            self.f = r;
            self.f_op = Some(i);
        }
        let inv = i128::from(op.invoked.0);
        if inv > self.s {
            self.s = inv;
            self.s_op = Some(i);
        }
    }

    /// The cluster's `f`-attaining op (a kept write cluster holds at
    /// least one completed op: its write, or a read of it).
    fn first_return(&self) -> usize {
        self.f_op.expect("invariant: a kept write cluster holds a completed op")
    }

    /// The cluster's `s`-attaining op (kept clusters are non-empty).
    fn last_invoke(&self) -> usize {
        self.s_op.expect("invariant: a kept cluster is non-empty")
    }
}

/// Why the cluster check rejected a history, by index into it. Every
/// certificate's operations form a sub-history (at most six operations)
/// that is itself not linearizable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Certificate {
    /// A completed read returned a value that no operation wrote and
    /// that is not the initial value.
    NeverWritten { read: usize },
    /// A completed read returned before the write of its value was
    /// invoked.
    ReadBeforeWrite { read: usize, write: usize },
    /// The clusters of `wi` and `wj` must each precede the other:
    /// `a ≺ b` and `c ≺ d` with `a, d` in `wi`'s cluster and `b, c` in
    /// `wj`'s. `wi = None` is the initial value, whose virtual write `a`
    /// precedes everything.
    TwoCycle { wi: Option<usize>, wj: usize, a: Option<usize>, b: usize, c: usize, d: usize },
}

impl Certificate {
    /// The witness operations, as sorted, distinct indices.
    #[cfg(test)]
    fn ops(self) -> Vec<usize> {
        let mut ops = match self {
            Certificate::NeverWritten { read } => vec![read],
            Certificate::ReadBeforeWrite { read, write } => vec![read, write],
            Certificate::TwoCycle { wi, wj, a, b, c, d } => {
                [wi, Some(wj), a, Some(b), Some(c), Some(d)].into_iter().flatten().collect()
            }
        };
        ops.sort_unstable();
        ops.dedup();
        ops
    }

    fn describe(self, ops: &[OpRecord], initial: Option<Value>) -> String {
        let id = |i: usize| ops[i].id;
        match self {
            Certificate::NeverWritten { read } => format!(
                "{} returned {:?}, which no operation wrote and is not the initial {initial:?}",
                id(read),
                ops[read].read_value
            ),
            Certificate::ReadBeforeWrite { read, write } => format!(
                "{} returned before {}, the write of its value, was invoked",
                id(read),
                id(write)
            ),
            Certificate::TwoCycle { wi, wj, a, b, c, d } => {
                let cluster_i = wi.map_or("the initial value".to_owned(), |w| id(w).to_string());
                let first = match a {
                    Some(a) => format!("{} returned before {} was invoked", id(a), id(b)),
                    None => "the initial value precedes every write".to_owned(),
                };
                format!(
                    "the clusters of {cluster_i} and {} must each precede the other: {first}, \
                     and {} returned before {} was invoked",
                    id(wj),
                    id(c),
                    id(d)
                )
            }
        }
    }
}

/// Decides a history by write clusters, or returns `None` when a
/// written value repeats or equals `initial` (the caller then falls
/// back to the search).
fn check_clusters(ops: &[OpRecord], initial: Option<Value>) -> Option<Result<(), Certificate>> {
    let mut writes: Vec<(Value, usize)> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o.kind {
            OpKind::Write(v) => Some((v, i)),
            OpKind::Read => None,
        })
        .collect();
    writes.sort_unstable();
    if writes.windows(2).any(|w| w[0].0 == w[1].0)
        || writes.iter().any(|&(v, _)| Some(v) == initial)
    {
        return None;
    }
    // Cluster 0 is the initial value's; cluster k + 1 is writes[k]'s.
    let mut clusters: Vec<Cluster> = std::iter::once(Cluster::new(None))
        .chain(writes.iter().map(|&(_, w)| Cluster::new(Some(w))))
        .collect();
    for (i, op) in ops.iter().enumerate() {
        if op.kind != OpKind::Read || !op.is_complete() {
            continue;
        }
        let k = if op.read_value == initial {
            0
        } else {
            match op.read_value.and_then(|v| writes.binary_search_by_key(&v, |&(v, _)| v).ok()) {
                Some(k) => k + 1,
                None => return Some(Err(Certificate::NeverWritten { read: i })),
            }
        };
        if let Some(write) = clusters[k].write.filter(|&w| op.precedes(&ops[w])) {
            return Some(Err(Certificate::ReadBeforeWrite { read: i, write }));
        }
        clusters[k].add(i, op);
    }
    for c in &mut clusters[1..] {
        let w = c.write.expect("invariant: only cluster 0 lacks a write");
        if ops[w].is_complete() || c.s_op.is_some() {
            c.add(w, &ops[w]);
        }
    }
    clusters.retain(|c| c.s_op.is_some());
    Some(match two_cycle(&mut clusters) {
        None => Ok(()),
        Some((i, j)) => {
            // Orient the pair by write, so that the initial value's
            // cluster, if involved, is `i`.
            let (ci, cj) = if clusters[j].write < clusters[i].write {
                (clusters[j], clusters[i])
            } else {
                (clusters[i], clusters[j])
            };
            Err(Certificate::TwoCycle {
                wi: ci.write,
                wj: cj.write.expect("invariant: only one cluster lacks a write"),
                a: ci.f_op,
                b: cj.last_invoke(),
                c: cj.first_return(),
                d: ci.last_invoke(),
            })
        }
    })
}

/// Finds two clusters with `f_i < s_j` and `f_j < s_i`, if any, in
/// O(n log n): sorted by `f`, the clusters with `f_i < s_j` form a
/// prefix, so one prefix maximum of `s` (top two, to skip `j` itself)
/// answers each `j`. Sorts `clusters` by `f`.
fn two_cycle(clusters: &mut [Cluster]) -> Option<(usize, usize)> {
    clusters.sort_by_key(|c| c.f);
    // top[p]: the two clusters with the largest `s` among clusters[..=p].
    let mut top: Vec<(usize, Option<usize>)> = Vec::with_capacity(clusters.len());
    for (p, c) in clusters.iter().enumerate() {
        top.push(match top.last() {
            None => (p, None),
            Some(&(first, _)) if c.s > clusters[first].s => (p, Some(first)),
            Some(&(first, second)) if second.is_none_or(|q| c.s > clusters[q].s) => {
                (first, Some(p))
            }
            Some(&prev) => prev,
        });
    }
    for (j, cj) in clusters.iter().enumerate() {
        let len = clusters.partition_point(|ci| ci.f < cj.s);
        let Some(&(first, second)) = len.checked_sub(1).map(|p| &top[p]) else { continue };
        let other = if first == j { second } else { Some(first) };
        if let Some(i) = other.filter(|&i| cj.f < clusters[i].s) {
            return Some((i, j));
        }
    }
    None
}

// Ord (not Hash) so the memo set below can be a BTreeSet: the checker's
// behaviour must not depend on the process's random hash seed
// (determinism contract, DESIGN.md §6).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SearchState {
    linearized: u128,
    value: Option<Value>,
}

fn dfs(
    ops: &[OpRecord],
    completed_mask: u128,
    pred: &[u128],
    state: SearchState,
    visited: &mut BTreeSet<SearchState>,
) -> bool {
    if state.linearized & completed_mask == completed_mask {
        return true; // every completed op linearized; pendings optional
    }
    if !visited.insert(state) {
        return false;
    }
    for i in 0..ops.len() {
        let bit = 1u128 << i;
        if state.linearized & bit != 0 || pred[i] & !state.linearized != 0 {
            continue;
        }
        let op = &ops[i];
        let next_value = match op.kind {
            OpKind::Read => {
                if op.is_complete() && op.read_value != state.value {
                    continue; // this read cannot go here
                }
                state.value
            }
            OpKind::Write(v) => Some(v),
        };
        let next = SearchState { linearized: state.linearized | bit, value: next_value };
        if dfs(ops, completed_mask, pred, next, visited) {
            return true;
        }
    }
    false
}

/// Brute-force reference: decides linearizability by enumerating every
/// subset of pending operations and every permutation of the chosen
/// operations. Exponential — usable only for tiny histories — but
/// obviously correct, which makes it the differential-testing oracle for
/// [`check_linearizable`].
///
/// # Panics
///
/// Panics if the history exceeds 8 operations.
pub fn check_linearizable_brute_force(
    ops: &[OpRecord],
    initial: Option<Value>,
) -> Result<(), LinearizabilityViolation> {
    assert!(ops.len() <= 8, "brute force is factorial; keep histories tiny");
    let completed: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].is_complete()).collect();
    let pending: Vec<usize> = (0..ops.len()).filter(|&i| !ops[i].is_complete()).collect();

    // Every subset of pendings...
    for subset_bits in 0..(1u32 << pending.len()) {
        let mut chosen: Vec<usize> = completed.clone();
        for (j, &idx) in pending.iter().enumerate() {
            if subset_bits & (1 << j) != 0 {
                chosen.push(idx);
            }
        }
        // ...and every permutation of the chosen operations.
        if permutations_any(&mut chosen.clone(), 0, &mut |perm| {
            legal_sequential(ops, perm, initial)
        }) {
            return Ok(());
        }
    }
    Err(LinearizabilityViolation::NotLinearizable {
        detail: "brute force found no linearization".to_owned(),
    })
}

/// Heap's-algorithm permutation visitor with early exit.
fn permutations_any(
    items: &mut Vec<usize>,
    k: usize,
    visit: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    if k == items.len() {
        return visit(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        if permutations_any(items, k + 1, visit) {
            return true;
        }
        items.swap(k, i);
    }
    false
}

/// Whether `perm` is a legal linearization: respects real-time precedence
/// and register sequential semantics.
fn legal_sequential(ops: &[OpRecord], perm: &[usize], initial: Option<Value>) -> bool {
    // Real-time: if a precedes b, a must come first.
    for (pos_a, &a) in perm.iter().enumerate() {
        for &b in &perm[pos_a + 1..] {
            if ops[b].precedes(&ops[a]) {
                return false;
            }
        }
    }
    // Excluded pendings must not be required: an excluded op is fine by
    // definition (it never took effect); completed ops are all in perm by
    // construction of the caller.
    let mut value = initial;
    for &i in perm {
        match ops[i].kind {
            OpKind::Write(v) => value = Some(v),
            OpKind::Read => {
                if ops[i].is_complete() && ops[i].read_value != value {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_model::{OpId, ProcessId, Time};

    fn op(
        id: u64,
        p: u32,
        kind: OpKind,
        invoked: u64,
        returned: Option<u64>,
        read_value: Option<Value>,
    ) -> OpRecord {
        OpRecord {
            id: OpId(id),
            process: ProcessId(p),
            kind,
            invoked: Time(invoked),
            returned: returned.map(Time),
            read_value,
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        check_linearizable(&[], None).unwrap();
    }

    #[test]
    fn sequential_write_then_read() {
        let h = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(5), None),
            op(1, 1, OpKind::Read, 6, Some(9), Some(Value(1))),
        ];
        check_linearizable(&h, None).unwrap();
    }

    #[test]
    fn stale_sequential_read_is_rejected() {
        let h = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(5), None),
            // Strictly after the write, yet returns the initial value.
            op(1, 1, OpKind::Read, 6, Some(9), None),
        ];
        let err = check_linearizable(&h, None).unwrap_err();
        assert!(err.detail().contains("no linearization"));
    }

    #[test]
    fn concurrent_read_may_return_either_value() {
        let w = op(0, 0, OpKind::Write(Value(1)), 0, Some(10), None);
        let old = op(1, 1, OpKind::Read, 5, Some(6), None);
        let new = op(2, 2, OpKind::Read, 5, Some(6), Some(Value(1)));
        check_linearizable(&[w, old], None).unwrap();
        check_linearizable(&[w, new], None).unwrap();
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        // Two sequential reads concurrent with a write: the first sees the
        // new value, the second (strictly later) sees the old one — the
        // classic atomicity violation a write-back prevents.
        let h = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(20), None),
            op(1, 1, OpKind::Read, 5, Some(8), Some(Value(1))),
            op(2, 1, OpKind::Read, 9, Some(12), None),
        ];
        let err = check_linearizable(&h, None).unwrap_err();
        assert!(err.detail().contains("no linearization"));
    }

    #[test]
    fn pending_write_may_take_effect() {
        // The writer crashed, but a later read observed its value: legal —
        // the pending write linearizes before the read.
        let h = vec![
            op(0, 0, OpKind::Write(Value(3)), 0, None, None),
            op(1, 1, OpKind::Read, 10, Some(12), Some(Value(3))),
        ];
        check_linearizable(&h, None).unwrap();
    }

    #[test]
    fn pending_write_may_also_never_take_effect() {
        let h = vec![
            op(0, 0, OpKind::Write(Value(3)), 0, None, None),
            op(1, 1, OpKind::Read, 10, Some(12), None),
        ];
        check_linearizable(&h, None).unwrap();
    }

    #[test]
    fn pending_write_cannot_flicker() {
        // Read new value, then old value, both after the pending write's
        // invocation: still an inversion.
        let h = vec![
            op(0, 0, OpKind::Write(Value(3)), 0, None, None),
            op(1, 1, OpKind::Read, 10, Some(12), Some(Value(3))),
            op(2, 1, OpKind::Read, 13, Some(15), None),
        ];
        let err = check_linearizable(&h, None).unwrap_err();
        assert!(err.detail().contains("no linearization"));
    }

    #[test]
    fn respects_initial_value() {
        let h = vec![op(0, 0, OpKind::Read, 0, Some(1), Some(Value(9)))];
        check_linearizable(&h, Some(Value(9))).unwrap();
        assert!(check_linearizable(&h, None).is_err());
    }

    #[test]
    fn interleaved_writers_find_a_witness_order() {
        // Two concurrent writes and two later reads agreeing on one of
        // them: linearizable by ordering that write last.
        let h = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(10), None),
            op(1, 1, OpKind::Write(Value(2)), 0, Some(10), None),
            op(2, 2, OpKind::Read, 11, Some(12), Some(Value(2))),
            op(3, 2, OpKind::Read, 13, Some(14), Some(Value(2))),
        ];
        check_linearizable(&h, None).unwrap();
    }

    #[test]
    fn disagreeing_later_reads_without_intervening_write_rejected() {
        let h = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(10), None),
            op(1, 1, OpKind::Write(Value(2)), 0, Some(10), None),
            op(2, 2, OpKind::Read, 11, Some(12), Some(Value(2))),
            op(3, 2, OpKind::Read, 13, Some(14), Some(Value(1))),
            op(4, 2, OpKind::Read, 15, Some(16), Some(Value(2))),
        ];
        let err = check_linearizable(&h, None).unwrap_err();
        assert!(err.detail().contains("no linearization"));
    }

    #[test]
    fn oversized_history_is_a_typed_error_not_a_panic() {
        // Repeated written values force the capped fallback search.
        let h: Vec<OpRecord> = (0..129)
            .map(|i| op(i, 0, OpKind::Write(Value(i % 2)), 2 * i, Some(2 * i + 1), None))
            .collect();
        let err = check_linearizable(&h, None).unwrap_err();
        assert_eq!(err, LinearizabilityViolation::HistoryTooLarge { ops: 129, max: MAX_OPS });
        assert!(err.to_string().contains("exceeds the checker's capacity"));
    }

    /// The cluster check's certificate for `h`, checked to name a
    /// sub-history of at most six operations that brute force rejects.
    fn certificate(h: &[OpRecord], initial: Option<Value>) -> Certificate {
        let cert = check_clusters(h, initial)
            .expect("written values are unique")
            .expect_err("the history is not linearizable");
        let sub: Vec<OpRecord> = cert.ops().into_iter().map(|i| h[i]).collect();
        assert!(sub.len() <= 6, "{cert:?}");
        assert!(check_linearizable_brute_force(&sub, initial).is_err(), "{cert:?}: {sub:?}");
        cert
    }

    #[test]
    fn unique_values_are_checked_at_any_size() {
        // 10^4 sequential write/read pairs: far past the search's cap.
        let h: Vec<OpRecord> = (0..10_000u64)
            .flat_map(|i| {
                [
                    op(2 * i, 0, OpKind::Write(Value(i + 1)), 4 * i, Some(4 * i + 1), None),
                    op(2 * i + 1, 1, OpKind::Read, 4 * i + 2, Some(4 * i + 3), Some(Value(i + 1))),
                ]
            })
            .collect();
        check_linearizable(&h, None).unwrap();
        assert!(matches!(
            check_linearizable_search(&h, None),
            Err(LinearizabilityViolation::HistoryTooLarge { ops: 20_000, .. })
        ));
        // The same history with its last read turned stale is rejected,
        // and the certificate names the two clashing clusters.
        let mut stale = h;
        let last = stale.len() - 1;
        stale[last].read_value = Some(Value(9_999));
        let err = check_linearizable(&stale, None).unwrap_err();
        assert!(err.detail().starts_with("no linearization of 20000 operations"), "{err}");
        assert!(err.detail().contains("the clusters of op19996 and op19998"), "{err}");
        certificate(&stale, None);
    }

    #[test]
    fn certificate_names_a_read_of_a_never_written_value() {
        let h = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(5), None),
            op(1, 1, OpKind::Read, 6, Some(9), Some(Value(7))),
        ];
        assert_eq!(certificate(&h, None), Certificate::NeverWritten { read: 1 });
        let err = check_linearizable(&h, None).unwrap_err();
        assert!(err.detail().contains("no linearization"), "{err}");
        assert!(err.detail().contains("op1 returned Some(Value(7)), which no operation wrote"));
        // A read of `None` is a read of a never-written value once the
        // register starts elsewhere.
        let h = vec![op(0, 1, OpKind::Read, 0, Some(1), None)];
        assert_eq!(certificate(&h, Some(Value(9))), Certificate::NeverWritten { read: 0 });
    }

    #[test]
    fn certificate_names_a_read_before_its_write() {
        let h = vec![
            op(0, 1, OpKind::Read, 0, Some(2), Some(Value(1))),
            op(1, 0, OpKind::Write(Value(1)), 3, None, None),
        ];
        assert_eq!(certificate(&h, None), Certificate::ReadBeforeWrite { read: 0, write: 1 });
        let err = check_linearizable(&h, None).unwrap_err();
        assert!(err.detail().contains("op0 returned before op1, the write of its value"), "{err}");
    }

    #[test]
    fn certificate_names_a_two_cycle() {
        // New-old inversion against the initial value: the initial
        // cluster {op2} must come after op1, which reads the write.
        let inversion = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(20), None),
            op(1, 1, OpKind::Read, 5, Some(8), Some(Value(1))),
            op(2, 1, OpKind::Read, 9, Some(12), None),
        ];
        assert_eq!(
            certificate(&inversion, None),
            Certificate::TwoCycle { wi: None, wj: 0, a: None, b: 1, c: 1, d: 2 }
        );
        let err = check_linearizable(&inversion, None).unwrap_err();
        assert!(
            err.detail()
                .contains("the clusters of the initial value and op0 must each precede the other"),
            "{err}"
        );

        // Between two written values: both writes return before any read
        // starts, yet the reads see 2, then 1, then 2 again — each
        // cluster must follow the other.
        let flicker = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(10), None),
            op(1, 1, OpKind::Write(Value(2)), 0, Some(10), None),
            op(2, 2, OpKind::Read, 11, Some(12), Some(Value(2))),
            op(3, 2, OpKind::Read, 13, Some(14), Some(Value(1))),
            op(4, 2, OpKind::Read, 15, Some(16), Some(Value(2))),
        ];
        let cert = certificate(&flicker, None);
        assert!(matches!(cert, Certificate::TwoCycle { wi: Some(_), .. }), "{cert:?}");
        let err = check_linearizable(&flicker, None).unwrap_err();
        assert!(err.detail().contains("returned before"), "{err}");
    }

    #[test]
    fn repeated_or_initial_values_fall_back_to_the_search() {
        // The same value written twice: a read of it is ambiguous, so
        // only the search can decide.
        let twice = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(1), None),
            op(1, 0, OpKind::Write(Value(2)), 2, Some(3), None),
            op(2, 0, OpKind::Write(Value(1)), 4, Some(5), None),
            op(3, 1, OpKind::Read, 6, Some(7), Some(Value(1))),
        ];
        assert!(check_clusters(&twice, None).is_none());
        check_linearizable(&twice, None).unwrap();
        // Writing the initial value back makes a late read of it legal.
        let rewrite = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(1), None),
            op(1, 0, OpKind::Write(Value(9)), 2, Some(3), None),
            op(2, 1, OpKind::Read, 4, Some(5), Some(Value(9))),
        ];
        assert!(check_clusters(&rewrite, Some(Value(9))).is_none());
        check_linearizable(&rewrite, Some(Value(9))).unwrap();
    }

    #[test]
    fn degraded_check_excuses_starvation_but_not_safety() {
        let all_correct = FailurePattern::all_correct(2);
        // p0's write is pending while p0 is correct: excused only when the
        // run was starved or ran out of budget.
        let h = vec![
            op(0, 0, OpKind::Write(Value(3)), 0, None, None),
            op(1, 1, OpKind::Read, 10, Some(12), Some(Value(3))),
        ];
        use sih_runtime::StopReason::*;
        assert_eq!(
            check_linearizable_degraded(&h, None, &all_correct, Starved),
            Ok(LivenessVerdict::SafeButNotLive)
        );
        assert_eq!(
            check_linearizable_degraded(&h, None, &all_correct, MaxSteps),
            Ok(LivenessVerdict::SafeButNotLive)
        );
        let err =
            check_linearizable_degraded(&h, None, &all_correct, AllCorrectHalted).unwrap_err();
        assert!(matches!(err, LinearizabilityViolation::Incomplete { .. }), "{err}");
        assert!(err.to_string().contains("never returned"));

        // The same pending op is excused outright once p0 is crashed.
        let p0_crashes = FailurePattern::builder(2).crash_at(ProcessId(0), Time(5)).build();
        assert_eq!(
            check_linearizable_degraded(&h, None, &p0_crashes, AllCorrectHalted),
            Ok(LivenessVerdict::Live)
        );

        // A complete history under a clean stop is Live.
        let done = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(5), None),
            op(1, 1, OpKind::Read, 6, Some(9), Some(Value(1))),
        ];
        assert_eq!(
            check_linearizable_degraded(&done, None, &all_correct, AllCorrectHalted),
            Ok(LivenessVerdict::Live)
        );

        // Atomicity violations are never excused, starved or not.
        let inversion = vec![
            op(0, 0, OpKind::Write(Value(1)), 0, Some(20), None),
            op(1, 1, OpKind::Read, 5, Some(8), Some(Value(1))),
            op(2, 1, OpKind::Read, 9, Some(12), None),
        ];
        let err = check_linearizable_degraded(&inversion, None, &all_correct, Starved).unwrap_err();
        assert!(matches!(err, LinearizabilityViolation::NotLinearizable { .. }));
    }

    #[test]
    fn brute_force_agrees_on_the_handwritten_cases() {
        let cases: Vec<(Vec<OpRecord>, bool)> = vec![
            (vec![], true),
            (
                vec![
                    op(0, 0, OpKind::Write(Value(1)), 0, Some(5), None),
                    op(1, 1, OpKind::Read, 6, Some(9), Some(Value(1))),
                ],
                true,
            ),
            (
                vec![
                    op(0, 0, OpKind::Write(Value(1)), 0, Some(5), None),
                    op(1, 1, OpKind::Read, 6, Some(9), None),
                ],
                false,
            ),
            (
                vec![
                    op(0, 0, OpKind::Write(Value(3)), 0, None, None),
                    op(1, 1, OpKind::Read, 10, Some(12), Some(Value(3))),
                    op(2, 1, OpKind::Read, 13, Some(15), None),
                ],
                false,
            ),
        ];
        for (history, expect_ok) in cases {
            assert_eq!(check_linearizable(&history, None).is_ok(), expect_ok);
            assert_eq!(check_linearizable_brute_force(&history, None).is_ok(), expect_ok);
        }
    }
}

#[cfg(test)]
mod differential {
    //! The cluster check, the fallback search and the brute-force
    //! reference must agree on arbitrary tiny histories (most of which are
    //! *not* linearizable — the property is checker agreement, in both
    //! directions), and every certificate must name a rejected
    //! sub-history.
    use super::*;
    use proptest::prelude::*;
    use sih_model::{OpId, ProcessId, Time};

    fn arb_op(id: u64) -> impl Strategy<Value = OpRecord> {
        (
            0u32..3,
            prop_oneof![Just(OpKind::Read), (1u64..4).prop_map(|v| OpKind::Write(Value(v))),],
            0u64..12,
            proptest::option::of(1u64..14),
            proptest::option::of(1u64..4),
        )
            .prop_map(move |(p, kind, invoked, ret_delta, read_val)| {
                let returned = ret_delta.map(|d| Time(invoked + d));
                let read_value = match kind {
                    OpKind::Read if returned.is_some() => read_val.map(Value),
                    _ => None,
                };
                OpRecord {
                    id: OpId(id),
                    process: ProcessId(p),
                    kind,
                    invoked: Time(invoked),
                    returned,
                    read_value,
                }
            })
    }

    fn arb_history() -> impl Strategy<Value = Vec<OpRecord>> {
        proptest::collection::vec(any::<u8>(), 0..=5).prop_flat_map(|v| {
            let strategies: Vec<_> = (0..v.len() as u64).map(arb_op).collect();
            strategies
        })
    }

    /// Histories whose written values are unique (`10 + k` for the k-th
    /// write, never the initial `2`): pending writes with and without
    /// readers, pending reads, and completed reads of `None`, of `2`, of
    /// the never-written `99` and of written values.
    fn arb_unique_history(max_ops: usize, horizon: u64) -> impl Strategy<Value = Vec<OpRecord>> {
        let raw_op = (
            0u32..3,
            any::<bool>(),
            0u64..horizon,
            proptest::option::of(1u64..horizon / 2 + 2),
            0u64..6,
        );
        proptest::collection::vec(raw_op, 0..=max_ops).prop_map(|raw| {
            let writes = raw.iter().filter(|r| r.1).count() as u64;
            let mut written = 0;
            raw.into_iter()
                .enumerate()
                .map(|(id, (p, is_write, invoked, ret_delta, pick))| {
                    let returned = ret_delta.map(|d| Time(invoked + d));
                    let (kind, read_value) = if is_write {
                        written += 1;
                        (OpKind::Write(Value(10 + written)), None)
                    } else {
                        let v = match pick {
                            _ if returned.is_none() => None,
                            0 => None,
                            1 => Some(Value(2)),
                            2 => Some(Value(99)),
                            _ if writes == 0 => None,
                            _ => Some(Value(11 + (pick + id as u64) % writes)),
                        };
                        (OpKind::Read, v)
                    };
                    OpRecord {
                        id: OpId(id as u64),
                        process: ProcessId(p),
                        kind,
                        invoked: Time(invoked),
                        returned,
                        read_value,
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        #[test]
        fn cluster_check_matches_brute_force_and_search(
            history in arb_unique_history(6, 12),
            from_two in any::<bool>(),
        ) {
            let init = from_two.then_some(Value(2));
            let clusters = check_clusters(&history, init).expect("written values are unique");
            let slow = check_linearizable_brute_force(&history, init).is_ok();
            let search = check_linearizable_search(&history, init).is_ok();
            prop_assert_eq!(clusters.is_ok(), slow, "history: {:?}", history);
            prop_assert_eq!(search, slow, "history: {:?}", history);
            if let Err(cert) = clusters {
                let sub: Vec<OpRecord> = cert.ops().into_iter().map(|i| history[i]).collect();
                prop_assert!(sub.len() <= 6);
                prop_assert!(
                    check_linearizable_brute_force(&sub, init).is_err(),
                    "{:?} of {:?}", cert, history
                );
            }
        }

        #[test]
        fn cluster_check_matches_search_on_longer_histories(
            history in arb_unique_history(16, 40),
            from_two in any::<bool>(),
        ) {
            let init = from_two.then_some(Value(2));
            let clusters = check_clusters(&history, init).expect("written values are unique");
            let search = check_linearizable_search(&history, init).is_ok();
            prop_assert_eq!(clusters.is_ok(), search, "history: {:?}", history);
        }

        #[test]
        fn dfs_checker_matches_brute_force(history in arb_history()) {
            let fast = check_linearizable(&history, None).is_ok();
            let slow = check_linearizable_brute_force(&history, None).is_ok();
            prop_assert_eq!(fast, slow, "history: {:?}", history);
        }

        #[test]
        fn dfs_checker_matches_brute_force_with_initial(history in arb_history()) {
            let init = Some(Value(2));
            let fast = check_linearizable(&history, init).is_ok();
            let slow = check_linearizable_brute_force(&history, init).is_ok();
            prop_assert_eq!(fast, slow);
        }
    }
}
