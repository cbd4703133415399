//! Pure pseudo-random helpers for oracle histories.
//!
//! Oracle detectors must be *pure functions* of `(process, time)` — the
//! simulator may query the same point twice (e.g. during replay) and must
//! see the same value. We therefore derive a fresh, deterministic RNG from
//! `(seed, p, t)` for each query instead of keeping mutable RNG state.
//!
//! A query is on the hot path of every fair run (one per step the
//! automaton reads it in), so it is kept to what it uses. Its words are
//! those of `ChaCha8Rng::seed_from_u64(mix(seed, p, t))`, but a
//! [`QueryRng`] computes them from that stream's first block
//! ([`rand_chacha::first_block`]) without building a generator, and
//! builds one only if the query reads past sixteen 32-bit words — no
//! query at `n ≤ 8` does. Fair coins are integer tests ([`coin`]),
//! bit-equal to the `gen_bool(0.5)` they replace, so no query does float
//! math.

use rand::{Rng, RngCore};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::{first_block, ChaCha8Rng};
use sih_model::{ProcessId, ProcessSet, Time};

/// SplitMix64-style mixing of the query coordinates into one RNG seed.
#[inline]
pub(crate) fn mix(seed: u64, p: ProcessId, t: Time) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(p.0) + 1))
        .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul(t.0 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The random words of one query: word for word the stream of
/// `ChaCha8Rng::seed_from_u64(state)`, served from its first block while
/// the query reads at most sixteen words.
pub(crate) struct QueryRng {
    state: u64,
    block: [u32; 16],
    /// Next unread word of `block`; 16 once it is used up.
    next: usize,
    /// The generator the words after the first block come from, built
    /// when the query first reads past it.
    rest: Option<ChaCha8Rng>,
}

impl QueryRng {
    /// The words seeded by `state`. The first block is computed here, so
    /// build one only on a path that draws.
    #[inline]
    pub(crate) fn new(state: u64) -> Self {
        QueryRng { state, block: first_block(state), next: 0, rest: None }
    }

    /// The next word past the first block.
    #[cold]
    #[inline(never)]
    fn next_past_block(&mut self) -> u32 {
        let state = self.state;
        self.rest
            .get_or_insert_with(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(state);
                rng.set_word_pos(16);
                rng
            })
            .next_u32()
    }
}

impl RngCore for QueryRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        match self.block.get(self.next) {
            Some(&w) => {
                self.next += 1;
                w
            }
            None => self.next_past_block(),
        }
    }

    /// Two words, low half first, exactly as `ChaCha8Rng::next_u64`.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }
}

/// The deterministic words of the query `(seed, p, t)`.
#[inline]
pub(crate) fn query_rng(seed: u64, p: ProcessId, t: Time) -> QueryRng {
    QueryRng::new(mix(seed, p, t))
}

/// A fair coin: `true` with probability 1/2, one `next_u64` per flip.
///
/// Exactly `gen_bool(0.5)` on the same word: that compares
/// `(x >> 11) · 2⁻⁵³` with `0.5`, which holds iff `x < 2⁶³`, i.e. iff the
/// top bit of `x` is clear.
#[inline]
pub(crate) fn coin(rng: &mut QueryRng) -> bool {
    rng.next_u64() >> 63 == 0
}

/// A uniformly random subset of `base` (each member kept on a [`coin`]
/// flip, in increasing id order), deterministic in `rng`.
///
/// The flips are or-ed into a bit mask instead of branched on: a fair
/// coin defeats branch prediction, and a mispredict per member costs more
/// than the ChaCha8 block the flips come from.
#[inline]
pub(crate) fn random_subset(rng: &mut QueryRng, base: ProcessSet) -> ProcessSet {
    let mut kept = 0u64;
    for p in base {
        kept |= u64::from(coin(rng)) << p.index();
    }
    ProcessSet::from_bits(kept)
}

/// A uniformly random member of `base`.
///
/// # Panics
///
/// Panics if `base` is empty.
pub(crate) fn random_member(rng: &mut impl RngCore, base: ProcessSet) -> ProcessId {
    let k = rng.gen_range(0..base.len());
    base.iter().nth(k).expect("invariant: callers pass a nonempty base set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_pure_and_spreads() {
        let a = mix(1, ProcessId(0), Time(0));
        let b = mix(1, ProcessId(0), Time(0));
        assert_eq!(a, b);
        assert_ne!(mix(1, ProcessId(0), Time(1)), a);
        assert_ne!(mix(1, ProcessId(1), Time(0)), a);
        assert_ne!(mix(2, ProcessId(0), Time(0)), a);
    }

    #[test]
    fn coin_is_gen_bool_half() {
        // The top-bit boundary on both sides, then a stream.
        struct Words(std::vec::IntoIter<u64>);
        impl RngCore for Words {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0.next().expect("enough words")
            }
        }
        let edges = vec![0, 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX];
        let bools: Vec<bool> = {
            let mut w = Words(edges.clone().into_iter());
            edges.iter().map(|_| w.gen_bool(0.5)).collect()
        };
        assert_eq!(bools, [true, true, true, false, false, false]);
        assert_eq!(edges.iter().map(|&x| x >> 63 == 0).collect::<Vec<_>>(), bools);
        for t in 0..50 {
            let mut a = query_rng(4, ProcessId(1), Time(t));
            let mut b = query_rng(4, ProcessId(1), Time(t));
            for _ in 0..20 {
                assert_eq!(coin(&mut a), b.gen_bool(0.5));
            }
        }
    }

    #[test]
    fn random_subset_is_subset_and_deterministic() {
        let base = ProcessSet::from_iter([0, 1, 2, 3, 4].map(ProcessId));
        let mut r1 = query_rng(9, ProcessId(0), Time(5));
        let mut r2 = query_rng(9, ProcessId(0), Time(5));
        let s1 = random_subset(&mut r1, base);
        let s2 = random_subset(&mut r2, base);
        assert_eq!(s1, s2);
        assert!(s1.is_subset(base));
    }

    #[test]
    fn random_member_is_member() {
        let base = ProcessSet::from_iter([3, 7].map(ProcessId));
        for t in 0..20 {
            let mut rng = query_rng(0, ProcessId(0), Time(t));
            assert!(base.contains(random_member(&mut rng, base)));
        }
    }

    /// A base of `k` members spread over `0..64` by `bits`: `k` steps of
    /// 37 (odd, so all 64 ids are distinct) from a start `bits` picks.
    fn base_of_size(k: usize, bits: u64) -> ProcessSet {
        let start = (bits % 64) as u32;
        ProcessSet::from_iter((0..k as u32).map(|i| ProcessId((start + i * 37) % 64)))
    }

    /// `random_subset` as first written: one `ChaCha8Rng` per query,
    /// `gen_bool(0.5)` per member in increasing id order.
    fn reference_subset(state: u64, base: ProcessSet) -> ProcessSet {
        let mut rng = ChaCha8Rng::seed_from_u64(state);
        base.iter().filter(|_| rng.gen_bool(0.5)).collect()
    }

    proptest::proptest! {
        #[test]
        fn one_block_draws_equal_the_seeded_stream(
            seed in proptest::prelude::any::<u64>(),
            p in 0u32..64,
            t in 0u64..1_000_000,
            bits in proptest::prelude::any::<u64>(),
        ) {
            let state = mix(seed, ProcessId(p), Time(t));
            // Every base size: up to 8 members stay in the first block,
            // 9 and more cross into the fallback generator.
            for k in 0..=64 {
                let base = base_of_size(k, bits);
                proptest::prop_assert_eq!(base.len(), k);
                let got = random_subset(&mut query_rng(seed, ProcessId(p), Time(t)), base);
                proptest::prop_assert_eq!(got, reference_subset(state, base));
            }
            // Raw words across the boundary, and a draw that starts in the
            // first block and ends past it.
            let mut q = query_rng(seed, ProcessId(p), Time(t));
            let mut r = ChaCha8Rng::seed_from_u64(state);
            for _ in 0..40 {
                proptest::prop_assert_eq!(q.next_u32(), r.next_u32());
            }
            let mut q = query_rng(seed, ProcessId(p), Time(t));
            let mut r = ChaCha8Rng::seed_from_u64(state);
            for _ in 0..15 {
                proptest::prop_assert_eq!(q.next_u32(), r.next_u32());
            }
            proptest::prop_assert_eq!(q.next_u64(), r.next_u64());
            let base = base_of_size(1 + (bits % 64) as usize, bits >> 6);
            proptest::prop_assert_eq!(random_member(&mut q, base), random_member(&mut r, base));
        }
    }
}
