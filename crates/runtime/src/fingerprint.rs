//! Deterministic hashers for state fingerprints.
//!
//! The reduced exhaustive explorer ([`crate::explore`]) dedups revisited
//! states by a 64-bit fingerprint of the simulation's canonical state,
//! and the schedule fuzzer counts distinct fingerprints as coverage.
//! Every hash here must be identical across processes, platforms and
//! runs — `std`'s `DefaultHasher` is seeded per process and its algorithm
//! is explicitly unstable, so the determinism contract (DESIGN.md §6)
//! rules it out. Two hashers, both fully specified and dependency-free:
//!
//! * [`StateHasher`] folds whole `u64` words through the splitmix64
//!   finalizer. [`Simulation::fingerprint`](crate::Simulation::fingerprint)
//!   uses it for everything it hashes: automata feed their fields word by
//!   word through [`Automaton::hash_state`](crate::Automaton::hash_state),
//!   and plain data — message payloads, envelopes, the installed fault
//!   plans — feed themselves through [`StateHash`].
//! * [`Fnv64`] is FNV-1a/64 over bytes. It hashes schedule text (the
//!   [`Schedule::digest`](crate::Schedule::digest) of the fuzzer's corpus
//!   dedup, streamed without building the text), sleep-set contexts and
//!   corpus digests, plus the `Debug` rendering behind
//!   [`StateHasher::write_debug`] — the
//!   [`Automaton::hash_state`](crate::Automaton::hash_state) default for
//!   wrappers outside this workspace, and the one place a fingerprint
//!   still formats text.
//!
//! # Incremental state fingerprints
//!
//! [`Simulation::fingerprint`](crate::Simulation::fingerprint) is kept
//! up to date rather than recomputed, because a step changes one
//! automaton and a few queues:
//!
//! * **One cached word per process**, keyed by its id: its
//!   `hash_state`, halted bit, trace slots (step count, decision,
//!   emulated timeline) and, under installed plans, its outgoing send
//!   counters and stash row. The words are combined as a wrapping sum
//!   (Zobrist-style), so replacing one is O(1). A step of `p` dirties
//!   `p`'s word; installing or removing a link-fault plan or adversary
//!   dirties every word; `reset` invalidates the cache; `clone` and
//!   `clone_from` carry it.
//! * **Run constants** — the failure pattern and the installed plans —
//!   are hashed once per run (again after a plan change).
//! * **The queue multiset** is a running sum of per-envelope terms the
//!   network adds on enqueue and subtracts on removal. The first
//!   fingerprint of a run switches it on; until then sends do no
//!   fingerprint work.
//!
//! A call then costs the dirty words plus a dozen global words (time,
//! network counters, the running op-event hash), at any `n`. Only the
//! equality classes are contractual — two states get equal fingerprints
//! exactly when their checker-visible projections are equal — not the
//! values themselves. `tests/state_hash.rs` checks the cached value
//! against the from-scratch `Simulation::fingerprint_uncached` after
//! every step of fair runs, `clone_from` chains, pooled runs and runs
//! that change plans mid-way.
//!
//! [`Fnv64`] implements [`std::fmt::Write`], so a value's `Debug`
//! rendering streams straight into it without allocating. Derived `Debug`
//! output is a pure function of the data (field values in declaration
//! order — no addresses, no hash-seeded iteration), which makes it a
//! canonical, if slow, encoding of plain-data state; it is the yardstick
//! every [`StateHash`] encoding is tested against.

use sih_model::{
    FdOutput, LinkFault, Mutation, MutationKind, OpId, OpKind, OutputTimeline, ProcSet, ProcessId,
    ProcessSet, Time, Value, WindowAction, WindowPlan,
};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// A streaming FNV-1a/64 hasher.
///
/// # Example
///
/// ```
/// use sih_runtime::Fnv64;
/// let mut h = Fnv64::new();
/// h.write(b"hello");
/// let a = h.finish();
/// let mut h2 = Fnv64::new();
/// h2.write(b"hel");
/// h2.write(b"lo");
/// assert_eq!(a, h2.finish()); // streaming is chunk-insensitive
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

/// FNV-1a/64 offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a/64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` (so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a value's `Debug` rendering as the canonical byte encoding.
    pub fn write_debug<T: fmt::Debug + ?Sized>(&mut self, value: &T) {
        // Formatting into a hasher cannot fail; the sink is infallible.
        let _ = fmt::write(self, format_args!("{value:?}"));
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Hash of a byte slice in one call (reference entry point and test
/// anchor for the streaming implementation).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// The splitmix64 finalizer: a full-avalanche bijection on `u64` (every
/// input bit flips each output bit with probability about ½).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The splitmix64 increment (⌊2⁶⁴/φ⌋), added before each fold so that a
/// run of zero words still moves the state.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A word-at-a-time hasher for state fingerprints.
///
/// Each [`StateHasher::write_u64`] folds one word into the state through
/// the splitmix64 finalizer `mix64`: `state ← mix64((state + γ) ⊕ word)`.
/// For a fixed state this is a bijection in the word, so two word
/// sequences of the same length that differ in one word always hash
/// differently, and unequal sequences collide with probability about 2⁻⁶⁴.
///
/// Equal fingerprints must mean equal states, so every encoding fed to a
/// `StateHasher` must be *injective*: variable-length data is preceded
/// by its length (see the [`StateHash`] impls), so no two distinct
/// values produce the same word sequence.
///
/// # Example
///
/// ```
/// use sih_runtime::StateHasher;
/// let mut a = StateHasher::new();
/// a.write(&Some(3u64));
/// let mut b = StateHasher::new();
/// b.write(&None::<u64>);
/// b.write_u64(3);
/// assert_ne!(a.finish(), b.finish()); // tags keep encodings injective
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateHasher(u64);

impl StateHasher {
    /// A fresh hasher.
    pub const fn new() -> Self {
        StateHasher(0)
    }

    /// Folds one word.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0.wrapping_add(GAMMA) ^ word);
    }

    /// Folds a `usize` widened to `u64` (so 32- and 64-bit hosts agree).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a value through its [`StateHash`] encoding.
    #[inline]
    pub fn write<T: StateHash + ?Sized>(&mut self, v: &T) {
        v.hash_into(self);
    }

    /// Folds a value's `Debug` rendering as one word: the FNV-1a/64 hash
    /// of the rendered bytes; equal renderings give equal words. Only the
    /// default [`Automaton::hash_state`](crate::Automaton::hash_state)
    /// uses it, for automata outside this workspace that implement
    /// nothing but `Debug` — it costs a formatter pass per call.
    pub fn write_debug<T: fmt::Debug + ?Sized>(&mut self, v: &T) {
        let mut f = Fnv64::new();
        f.write_debug(v);
        self.write_u64(f.finish());
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Plain data that feeds itself into a [`StateHasher`] word by word.
///
/// The encoding must be injective over the values a state can hold and
/// must agree with `Debug` equality: two values get the same word
/// sequence exactly when their `Debug` renderings are equal. (Derived
/// `Debug` renders every field, so for plain data that is field-wise
/// equality; caches and capacities, which `Debug` does not show, are not
/// hashed.) Enums write a tag word before their payload, and collections
/// write their length before their elements.
pub trait StateHash {
    /// Feeds `self` into `h`.
    fn hash_into(&self, h: &mut StateHasher);
}

macro_rules! state_hash_as_u64 {
    ($($t:ty),*) => {$(
        impl StateHash for $t {
            #[inline]
            fn hash_into(&self, h: &mut StateHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}

state_hash_as_u64!(u8, u32, u64, usize, bool);

/// No words: the unit message carries nothing but its arrival.
impl StateHash for () {
    #[inline]
    fn hash_into(&self, _: &mut StateHasher) {}
}

impl<T: StateHash + ?Sized> StateHash for &T {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        (**self).hash_into(h);
    }
}

/// The byte length, then the bytes packed eight to a little-endian word
/// (the last word zero-padded; the length keeps the padding unambiguous).
impl StateHash for str {
    fn hash_into(&self, h: &mut StateHasher) {
        let bytes = self.as_bytes();
        h.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            h.write_u64(chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }
}

impl<T: StateHash> StateHash for Option<T> {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                v.hash_into(h);
            }
        }
    }
}

impl<A: StateHash, B: StateHash> StateHash for (A, B) {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        self.0.hash_into(h);
        self.1.hash_into(h);
    }
}

impl<T: StateHash> StateHash for [T] {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_usize(self.len());
        for v in self {
            v.hash_into(h);
        }
    }
}

impl<T: StateHash, const N: usize> StateHash for [T; N] {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        self.as_slice().hash_into(h);
    }
}

impl<T: StateHash> StateHash for Vec<T> {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        self.as_slice().hash_into(h);
    }
}

/// Length plus elements in queue order — never the ring-buffer layout,
/// which depends on the push/pop history.
impl<T: StateHash> StateHash for VecDeque<T> {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_usize(self.len());
        for v in self {
            v.hash_into(h);
        }
    }
}

impl<T: StateHash> StateHash for BTreeSet<T> {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_usize(self.len());
        for v in self {
            v.hash_into(h);
        }
    }
}

impl StateHash for ProcessId {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(u64::from(self.0));
    }
}

impl StateHash for Value {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(self.0);
    }
}

impl StateHash for Time {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(self.0);
    }
}

impl StateHash for OpId {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(self.0);
    }
}

impl StateHash for OpKind {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            OpKind::Read => h.write_u64(0),
            OpKind::Write(v) => {
                h.write_u64(1);
                h.write(v);
            }
        }
    }
}

impl StateHash for ProcessSet {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(self.bits());
    }
}

/// The trimmed words (no trailing zero words), so a set that grew and
/// shrank hashes like one that never grew; the capacity and the cached
/// count are not hashed.
impl StateHash for ProcSet {
    fn hash_into(&self, h: &mut StateHasher) {
        let words = self.words();
        h.write_usize(words.len());
        for &w in words {
            h.write_u64(w);
        }
    }
}

impl StateHash for FdOutput {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        match self {
            FdOutput::Bot => h.write_u64(0),
            FdOutput::Trust(s) => {
                h.write_u64(1);
                h.write(s);
            }
            FdOutput::TrustActive { trust, active } => {
                h.write_u64(2);
                h.write(trust);
                h.write(active);
            }
            FdOutput::Leader(p) => {
                h.write_u64(3);
                h.write(p);
            }
        }
    }
}

impl StateHash for OutputTimeline {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write(&self.initial());
        h.write(self.changes());
    }
}

/// The size, then every window field the plan's `Debug` shows: the
/// link, the action's words, the selector and the span.
impl<A: WindowAction + StateHash> StateHash for WindowPlan<A> {
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_usize(self.n());
        h.write_usize(self.windows().len());
        for w in self.windows() {
            h.write(&w.src);
            h.write(&w.dst);
            h.write(&w.action);
            h.write_u64(w.stride);
            h.write_u64(w.offset);
            h.write(&w.from);
            h.write(&w.until);
        }
    }
}

impl StateHash for LinkFault {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(match self {
            LinkFault::Drop => 0,
            LinkFault::Duplicate => 1,
        });
    }
}

impl StateHash for Mutation {
    #[inline]
    fn hash_into(&self, h: &mut StateHasher) {
        h.write_u64(match self.kind {
            MutationKind::Flip => 0,
            MutationKind::Perturb => 1,
            MutationKind::Replay => 2,
            MutationKind::ForgeSender => 3,
            MutationKind::ForgeAck => 4,
        });
        h.write_u64(self.x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Vectors from the FNV reference code (Noll).
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chunked_and_whole_writes_agree() {
        let mut whole = Fnv64::new();
        whole.write(b"canonical encoding");
        let mut parts = Fnv64::new();
        parts.write(b"canonical ");
        parts.write(b"encoding");
        assert_eq!(whole.finish(), parts.finish());
    }

    #[test]
    fn debug_streaming_matches_formatted_string() {
        #[derive(Debug)]
        #[allow(dead_code)] // fields exist to be Debug-rendered
        struct S {
            a: u32,
            b: Option<&'static str>,
        }
        let v = S { a: 7, b: Some("x") };
        let mut streamed = Fnv64::new();
        streamed.write_debug(&v);
        assert_eq!(streamed.finish(), fnv1a_64(format!("{v:?}").as_bytes()));
    }

    fn state_fp<T: StateHash + ?Sized>(v: &T) -> u64 {
        let mut h = StateHasher::new();
        h.write(v);
        h.finish()
    }

    #[test]
    fn state_hash_keeps_tags_and_lengths_apart() {
        // Zero words still move the state, so lengths are visible…
        assert_ne!(state_fp(&Vec::<u64>::new()), state_fp(&vec![0u64]));
        assert_ne!(state_fp(&vec![0u64]), state_fp(&vec![0u64, 0]));
        // …and tags separate variants that carry equal payload words.
        assert_ne!(state_fp(&None::<Value>), state_fp(&Some(Value(0))));
        assert_ne!(state_fp(&Some(None::<Value>)), state_fp(&None::<Option<Value>>));
        assert_ne!(
            state_fp(&FdOutput::Trust(ProcessSet::EMPTY)),
            state_fp(&FdOutput::Leader(ProcessId(0)))
        );
        assert_ne!(state_fp(&OpKind::Read), state_fp(&OpKind::Write(Value(0))));
        // Nested sequences: [[1], []] vs [[], [1]].
        assert_ne!(state_fp(&vec![vec![1u64], vec![]]), state_fp(&vec![vec![], vec![1u64]]));
    }

    #[test]
    fn state_hash_ignores_representation_history() {
        // A set that grew past 64 and shrank back hashes like one that
        // never grew; capacity is invisible too.
        let mut grown = ProcSet::with_capacity(512);
        grown.insert(ProcessId(3));
        grown.insert(ProcessId(300));
        grown.remove(ProcessId(300));
        assert_eq!(state_fp(&grown), state_fp(&ProcSet::singleton(ProcessId(3))));
        // A ring buffer hashes its queue order, not its layout.
        let mut rotated: VecDeque<u64> = VecDeque::with_capacity(4);
        for v in [9, 9, 1, 2] {
            rotated.push_back(v);
        }
        rotated.pop_front();
        rotated.pop_front();
        rotated.push_back(3);
        let fresh: VecDeque<u64> = [1, 2, 3].into_iter().collect();
        assert_eq!(state_fp(&rotated), state_fp(&fresh));
        assert_eq!(state_fp(&rotated), state_fp(&vec![1u64, 2, 3]));
    }

    #[test]
    fn strings_hash_their_length_and_bytes() {
        assert_ne!(state_fp("ab"), state_fp("ab\0"));
        assert_ne!(state_fp("abcdefgh"), state_fp("abcdefghi"));
        assert_eq!(state_fp(&"hello"), state_fp("hello"));
        assert_eq!(state_fp(&[1u8, 2]), state_fp(&vec![1u8, 2]));
    }

    #[test]
    fn write_debug_folds_the_fnv_of_the_rendering() {
        let v = (ProcessId(2), Some(Value(7)));
        let mut a = StateHasher::new();
        a.write_debug(&v);
        let mut b = StateHasher::new();
        b.write_u64(fnv1a_64(format!("{v:?}").as_bytes()));
        assert_eq!(a, b);
    }

    #[test]
    fn integer_writes_are_width_stable() {
        let mut a = Fnv64::new();
        a.write_usize(513);
        let mut b = Fnv64::new();
        b.write_u64(513);
        assert_eq!(a.finish(), b.finish());
    }
}
