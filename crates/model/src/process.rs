//! Process identifiers and sets of processes.
//!
//! The paper's system is a set `Π` of `n` processes. Process identities are
//! totally ordered (the algorithms of Figures 4 and 6 rely on "smallest" /
//! "greatest" identities), so [`ProcessId`] is `Ord`.
//!
//! [`ProcessSet`] is a compact bitset over process ids, supporting the set
//! algebra the specifications use constantly (intersection for quorum
//! properties, subset tests for completeness, …). The implementation caps
//! the system size at [`ProcessSet::MAX_PROCESSES`] processes, far beyond
//! anything the experiments need.

use std::fmt;

/// Identity of a process in `Π = {p_0, …, p_{n-1}}`.
///
/// Ids are dense indices starting at zero; the total order on ids is the
/// order the paper's algorithms use when they speak of the "smallest" or
/// "greatest" processes of a set.
///
/// # Example
///
/// ```
/// use sih_model::ProcessId;
/// let p = ProcessId(2);
/// assert!(p < ProcessId(3));
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "p2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The id as a dense index, usable for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(value: u32) -> Self {
        ProcessId(value)
    }
}

/// A set of processes, represented as a 64-bit bitset.
///
/// `ProcessSet` is the workhorse of every failure-detector specification in
/// the paper: trusted lists, active sets, quorums and correct sets are all
/// `ProcessSet`s.
///
/// # Example
///
/// ```
/// use sih_model::{ProcessId, ProcessSet};
/// let a = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
/// let b = ProcessSet::from_iter([2, 3].map(ProcessId));
/// assert!(a.intersects(b));
/// assert_eq!(a.intersection(b), ProcessSet::singleton(ProcessId(2)));
/// assert!(ProcessSet::singleton(ProcessId(1)).is_subset(a));
/// assert_eq!(a.union(b).len(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ProcessSet(u64);

impl ProcessSet {
    /// Maximum number of processes representable in a set.
    pub const MAX_PROCESSES: usize = 64;

    /// The empty set (the `∅` of the specifications).
    pub const EMPTY: ProcessSet = ProcessSet(0);

    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// The full system `Π = {p_0, …, p_{n-1}}`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`Self::MAX_PROCESSES`].
    #[inline]
    pub fn full(n: usize) -> Self {
        assert!(n <= Self::MAX_PROCESSES, "at most 64 processes supported");
        if n == 64 {
            ProcessSet(u64::MAX)
        } else {
            ProcessSet((1u64 << n) - 1)
        }
    }

    /// The singleton `{p}`.
    #[inline]
    pub fn singleton(p: ProcessId) -> Self {
        ProcessSet(1u64 << p.index())
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of processes in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `p ∈ self`.
    #[inline]
    pub fn contains(self, p: ProcessId) -> bool {
        p.index() < Self::MAX_PROCESSES && self.0 & (1u64 << p.index()) != 0
    }

    /// Inserts `p`, returning whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let fresh = !self.contains(p);
        self.0 |= 1u64 << p.index();
        fresh
    }

    /// Removes `p`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let present = self.contains(p);
        self.0 &= !(1u64 << p.index());
        present
    }

    /// Set union `self ∪ other`.
    #[inline]
    pub fn union(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 | other.0)
    }

    /// Set intersection `self ∩ other`.
    #[inline]
    pub fn intersection(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & !other.0)
    }

    /// Whether `self ∩ other ≠ ∅` — the intersection properties of `Σ_S`,
    /// `σ` and `σ_k` are all phrased this way.
    #[inline]
    pub fn intersects(self, other: ProcessSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether `self ⊆ other` — the completeness properties are phrased
    /// this way (`H(p, t') ⊆ Correct(F)`).
    #[inline]
    pub fn is_subset(self, other: ProcessSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Smallest process id in the set, if any.
    #[inline]
    pub fn min(self) -> Option<ProcessId> {
        if self.is_empty() {
            None
        } else {
            Some(ProcessId(self.0.trailing_zeros()))
        }
    }

    /// Greatest process id in the set, if any.
    #[inline]
    pub fn max(self) -> Option<ProcessId> {
        if self.is_empty() {
            None
        } else {
            Some(ProcessId(63 - self.0.leading_zeros()))
        }
    }

    /// The `m` smallest processes of the set (the paper's `A` in
    /// Definition 9: "the set of the `⌊k/2⌋` smallest processes in `A`").
    ///
    /// Returns the whole set if it has at most `m` elements.
    pub fn smallest(self, m: usize) -> ProcessSet {
        let mut out = ProcessSet::EMPTY;
        for p in self.iter().take(m) {
            out.insert(p);
        }
        out
    }

    /// The `m` greatest processes of the set (the complement half `Ā` of
    /// Definition 9 when `m = |A| - ⌊k/2⌋`).
    pub fn greatest(self, m: usize) -> ProcessSet {
        self.difference(self.smallest(self.len().saturating_sub(m)))
    }

    /// Iterates over members in increasing id order.
    pub fn iter(self) -> ProcessSetIter {
        ProcessSetIter(self.0)
    }

    /// The raw bits of the set; useful for hashing engine states.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The set whose raw [`bits`](ProcessSet::bits) are `bits` (bit `i`
    /// set ⇔ `p_i` a member).
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        ProcessSet(bits)
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = ProcessSetIter;
    fn into_iter(self) -> ProcessSetIter {
        self.iter()
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the members of a [`ProcessSet`], in increasing id order.
#[derive(Clone, Debug)]
pub struct ProcessSetIter(u64);

impl Iterator for ProcessSetIter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            let idx = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(ProcessId(idx))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ProcessSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ProcessSet {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn empty_set_basics() {
        let e = ProcessSet::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
        assert!(!e.contains(ProcessId(0)));
        assert!(e.is_subset(e));
        assert!(!e.intersects(e));
    }

    #[test]
    fn full_set() {
        let f = ProcessSet::full(5);
        assert_eq!(f.len(), 5);
        assert!(f.contains(ProcessId(0)));
        assert!(f.contains(ProcessId(4)));
        assert!(!f.contains(ProcessId(5)));
        assert_eq!(ProcessSet::full(64).len(), 64);
    }

    #[test]
    fn from_bits_inverts_bits() {
        for s in [ProcessSet::EMPTY, set(&[0, 3, 63]), ProcessSet::full(64)] {
            assert_eq!(ProcessSet::from_bits(s.bits()), s);
        }
        assert_eq!(ProcessSet::from_bits(0b1010), set(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn full_set_too_big_panics() {
        let _ = ProcessSet::full(65);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId(7)));
        assert!(!s.insert(ProcessId(7)));
        assert!(s.contains(ProcessId(7)));
        assert!(s.remove(ProcessId(7)));
        assert!(!s.remove(ProcessId(7)));
        assert!(s.is_empty());
    }

    #[test]
    fn algebra() {
        let a = set(&[0, 1, 2]);
        let b = set(&[2, 3]);
        assert_eq!(a.union(b), set(&[0, 1, 2, 3]));
        assert_eq!(a.intersection(b), set(&[2]));
        assert_eq!(a.difference(b), set(&[0, 1]));
        assert!(a.intersects(b));
        assert!(!set(&[0]).intersects(set(&[1])));
        assert!(set(&[1, 2]).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn min_max_smallest_greatest() {
        let s = set(&[3, 9, 1, 40]);
        assert_eq!(s.min(), Some(ProcessId(1)));
        assert_eq!(s.max(), Some(ProcessId(40)));
        assert_eq!(s.smallest(2), set(&[1, 3]));
        assert_eq!(s.greatest(2), set(&[9, 40]));
        assert_eq!(s.smallest(0), ProcessSet::EMPTY);
        assert_eq!(s.smallest(10), s);
        assert_eq!(s.greatest(10), s);
    }

    #[test]
    fn halves_partition_like_definition_9() {
        // For |A| = 2k the paper splits A into the k smallest (A-low) and
        // the k greatest (A-high); the two halves partition A.
        let a = set(&[1, 4, 6, 9]);
        let low = a.smallest(2);
        let high = a.greatest(2);
        assert_eq!(low.union(high), a);
        assert!(!low.intersects(high));
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s = set(&[9, 0, 4]);
        let ids: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 4, 9]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(set(&[0, 2]).to_string(), "{p0,p2}");
        assert_eq!(format!("{:?}", ProcessSet::EMPTY), "{}");
    }
}
