//! Growable bitset over process ids for large-`n` systems.
//!
//! [`ProcessSet`](crate::ProcessSet) is a single `u64` word and caps the
//! system at 64 processes — exactly right for the exhaustive explorer and
//! the paper's proofs, and far too small for the scaling tier. [`ProcSet`]
//! is the same set algebra over a word *array*: capacity grows on demand,
//! iteration order is increasing id order (deterministic, like
//! `ProcessSet`), and membership/intersect/subset/count are word-parallel.
//!
//! The `Debug` rendering is byte-identical to `ProcessSet`'s (`{p0,p2}`)
//! and shows members only, never capacity. Automaton state hashes must
//! agree with `Debug` equality (the `Automaton::hash_state` contract in
//! `sih-runtime`), so equal sets must render, and hash, equally however
//! they were grown.
//!
//! Equality, ordering and hashing are representation-independent: trailing
//! zero words are ignored, so a set that grew and shrank compares equal to
//! one that never grew. The element count is cached, making `len` O(1) —
//! quorum-threshold tests (`|acks| ≥ ⌈(n+1)/2⌉`) are the hot path this
//! type exists for.

// sih-analysis: allow(index-reachable) — word indices are in range by the growable-bitset
// invariant: insert() grows `words` first, and every reader iterates 0..words.len().
use crate::{ProcessId, ProcessSet};
use std::fmt;

/// A growable set of processes: `Vec<u64>` words plus a cached count.
#[derive(Clone, Default)]
pub struct ProcSet {
    words: Vec<u64>,
    len: usize,
}

impl ProcSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ProcSet::default()
    }

    /// An empty set with capacity for ids `0..n` preallocated.
    pub fn with_capacity(n: usize) -> Self {
        ProcSet { words: Vec::with_capacity(n.div_ceil(64)), len: 0 }
    }

    /// The set `{p}`.
    pub fn singleton(p: ProcessId) -> Self {
        let mut s = ProcSet::new();
        s.insert(p);
        s
    }

    /// The full set `{p_0, …, p_{n-1}}`.
    pub fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n / 64];
        let rem = n % 64;
        if rem > 0 {
            words.push((1u64 << rem) - 1);
        }
        ProcSet { words, len: n }
    }

    /// Converts a fixed-width [`ProcessSet`] (one word holds it all).
    pub fn from_process_set(s: ProcessSet) -> Self {
        let bits = s.bits();
        ProcSet { words: if bits == 0 { Vec::new() } else { vec![bits] }, len: s.len() }
    }

    /// The fixed-width [`ProcessSet`] view of this set.
    ///
    /// # Panics
    ///
    /// Panics if any member id is `≥ ProcessSet::MAX_PROCESSES` — callers
    /// on small-`n` paths (schedulers, explorers) only.
    pub fn to_process_set(&self) -> ProcessSet {
        self.iter().collect()
    }

    /// Number of members. O(1): the count is cached.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Whether `p ∈ self`.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        let w = p.index() / 64;
        self.words.get(w).is_some_and(|word| word & (1u64 << (p.index() % 64)) != 0)
    }

    /// Inserts `p`, returning whether it was newly inserted.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let w = p.index() / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (p.index() % 64);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `p`, returning whether it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let w = p.index() / 64;
        let Some(word) = self.words.get_mut(w) else { return false };
        let bit = 1u64 << (p.index() % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// The words beyond trailing zeros (the canonical representation).
    fn trimmed(&self) -> &[u64] {
        let mut end = self.words.len();
        while end > 0 && self.words[end - 1] == 0 {
            end -= 1;
        }
        &self.words[..end]
    }

    /// The `i`-th 64-bit word of the set (`0` beyond the allocation).
    /// Word 0 covers ids `0..64`, so for a set drawn from a ≤ 64-process
    /// system `word(0)` equals the corresponding [`ProcessSet::bits`].
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// The canonical word array (no trailing zero words) — for hashing
    /// into fingerprints without committing to the allocation size.
    pub fn words(&self) -> &[u64] {
        self.trimmed()
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &ProcSet) -> ProcSet {
        let n = self.words.len().min(other.words.len());
        let mut words = Vec::with_capacity(n);
        let mut len = 0;
        for i in 0..n {
            let w = self.words[i] & other.words[i];
            len += w.count_ones() as usize;
            words.push(w);
        }
        ProcSet { words, len }
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        let n = self.words.len().max(other.words.len());
        let mut words = Vec::with_capacity(n);
        let mut len = 0;
        for i in 0..n {
            let w = self.word(i) | other.word(i);
            len += w.count_ones() as usize;
            words.push(w);
        }
        ProcSet { words, len }
    }

    /// `self \ other`.
    pub fn difference(&self, other: &ProcSet) -> ProcSet {
        let mut words = Vec::with_capacity(self.words.len());
        let mut len = 0;
        for (i, &w) in self.words.iter().enumerate() {
            let w = w & !other.word(i);
            len += w.count_ones() as usize;
            words.push(w);
        }
        ProcSet { words, len }
    }

    /// Whether the sets share a member (`self ∩ other ≠ ∅` — the quorum
    /// intersection property of Σ).
    pub fn intersects(&self, other: &ProcSet) -> bool {
        let n = self.words.len().min(other.words.len());
        (0..n).any(|i| self.words[i] & other.words[i] != 0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &ProcSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| w & !other.word(i) == 0)
    }

    /// Whether every member of the fixed-width set `s` is in `self` —
    /// O(1), one word op (a `ProcessSet` fits entirely in word 0).
    #[inline]
    pub fn contains_all(&self, s: ProcessSet) -> bool {
        s.bits() & !self.word(0) == 0
    }

    /// Members in increasing id order (deterministic, like
    /// [`ProcessSet`]'s iteration).
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i * 64) as u32;
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |bits| ProcessId(base + bits.trailing_zeros()))
        })
    }

    /// The smallest member, if any. (Named `first` rather than `min` so
    /// it cannot collide with `Ord::min` during method resolution.)
    pub fn first(&self) -> Option<ProcessId> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| ProcessId((i * 64) as u32 + w.trailing_zeros()))
    }

    /// Heap bytes behind the set (capacity, not length) — for the scale
    /// tier's deterministic memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

impl PartialEq for ProcSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for ProcSet {}

impl PartialOrd for ProcSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProcSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.trimmed().cmp(other.trimmed())
    }
}

impl std::hash::Hash for ProcSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.trimmed().hash(state);
    }
}

impl FromIterator<ProcessId> for ProcSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl From<ProcessSet> for ProcSet {
    fn from(s: ProcessSet) -> Self {
        ProcSet::from_process_set(s)
    }
}

// Same rendering as `ProcessSet` — see the module docs for why this is a
// compatibility contract, not a cosmetic choice.
impl fmt::Debug for ProcSet {
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

impl fmt::Display for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_across_word_boundaries() {
        let mut s = ProcSet::new();
        for i in [0u32, 63, 64, 127, 128, 1000] {
            assert!(s.insert(ProcessId(i)));
            assert!(!s.insert(ProcessId(i)));
        }
        assert_eq!(s.len(), 6);
        assert!(s.contains(ProcessId(64)));
        assert!(!s.contains(ProcessId(65)));
        assert!(s.remove(ProcessId(64)));
        assert!(!s.remove(ProcessId(64)));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut grown = ProcSet::new();
        grown.insert(ProcessId(500));
        grown.remove(ProcessId(500));
        grown.insert(ProcessId(3));
        let small = ProcSet::singleton(ProcessId(3));
        assert_eq!(grown, small);
        assert_eq!(grown.cmp(&small), std::cmp::Ordering::Equal);
        fn std_hash(s: &ProcSet) -> u64 {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        }
        assert_eq!(std_hash(&grown), std_hash(&small));
    }

    #[test]
    fn debug_matches_process_set_rendering() {
        let ids = [0u32, 2, 5, 63];
        let small: ProcessSet = ids.map(ProcessId).into_iter().collect();
        let big: ProcSet = ids.map(ProcessId).into_iter().collect();
        assert_eq!(format!("{big:?}"), format!("{small:?}"));
        assert_eq!(format!("{big}"), "{p0,p2,p5,p63}");
    }

    #[test]
    fn algebra_against_full_sets() {
        let a = ProcSet::full(130);
        let b = ProcSet::full(70);
        assert_eq!(a.len(), 130);
        assert_eq!(a.intersection(&b), b);
        assert_eq!(a.union(&b), a);
        assert_eq!(a.difference(&b).len(), 60);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
        assert_eq!(a.first(), Some(ProcessId(0)));
    }

    #[test]
    fn iteration_is_increasing() {
        let s: ProcSet = [200u32, 1, 64, 65, 3].map(ProcessId).into_iter().collect();
        let ids: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![1, 3, 64, 65, 200]);
    }

    #[test]
    fn process_set_interop() {
        let small = ProcessSet::from_iter([1, 4, 9].map(ProcessId));
        let big = ProcSet::from_process_set(small);
        assert_eq!(big.len(), 3);
        assert_eq!(big.word(0), small.bits());
        assert!(big.contains_all(small));
        let mut bigger = big.clone();
        bigger.insert(ProcessId(100));
        assert!(bigger.contains_all(small));
        let mut smaller = big;
        smaller.remove(ProcessId(4));
        assert!(!smaller.contains_all(small));
    }

    #[test]
    fn words_are_canonical() {
        let mut s = ProcSet::full(64);
        assert_eq!(s.words(), &[u64::MAX]);
        s.insert(ProcessId(64));
        s.remove(ProcessId(64));
        assert_eq!(s.words(), &[u64::MAX]);
        assert_eq!(s.word(1), 0);
    }
}
