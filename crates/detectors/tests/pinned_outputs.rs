//! Literal pins of the oracle detectors' sampled histories.
//!
//! The oracles are pure functions of `(seed, process, time)`, and every
//! fair run, corpus entry and BENCH baseline depends on the exact values
//! they return. These tests pin a digest of each detector's outputs over
//! a `(p, t)` grid that straddles stabilization, plus a few outputs
//! written out, so a change to the query RNG, its block function or the
//! way a detector spends its random words fails here rather than as a
//! drifted baseline far away.

use sih_detectors::{AntiOmega, Omega, Sigma, SigmaK, SigmaKMode, SigmaMode, SigmaS};
use sih_model::{FailureDetector, FailurePattern, FdOutput, ProcessId, ProcessSet, Time};

/// Seven processes: `p5` crashes at time 9, `p6` from the start, so
/// stabilization falls at time 10 inside the grid.
fn crashy() -> FailurePattern {
    FailurePattern::builder(7)
        .crash_at(ProcessId(5), Time(9))
        .crash_from_start(ProcessId(6))
        .build()
}

/// Only `p0` and `p1` are correct (triggers non-triviality of σ and σ_k
/// with a two-member correct active set).
fn pair_correct(n: usize) -> FailurePattern {
    FailurePattern::crashed_from_start(n, (2..n as u32).map(ProcessId).collect())
}

fn set(ids: &[u32]) -> ProcessSet {
    ids.iter().copied().map(ProcessId).collect()
}

const TRUST: u64 = 1 << 62;
const PAIR: u64 = 2 << 62;
const LEADER: u64 = 3 << 62;

/// One word per output: a tag in the top bits, the sets' bit masks below.
fn encode(o: FdOutput) -> u64 {
    match o {
        FdOutput::Bot => 0xb07,
        FdOutput::Trust(s) => TRUST | s.bits(),
        FdOutput::TrustActive { trust, active } => PAIR | (active.bits() << 16) | trust.bits(),
        FdOutput::Leader(p) => LEADER | u64::from(p.0),
    }
}

/// FNV-1a/64 over the encoded outputs of every `(p, t)`, `p` outer.
fn digest(d: &dyn FailureDetector, n: usize, horizon: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in 0..n as u32 {
        for t in 0..horizon {
            for b in encode(d.output(ProcessId(p), Time(t))).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn row(d: &dyn FailureDetector, p: u32, ts: std::ops::Range<u64>) -> Vec<u64> {
    ts.map(|t| encode(d.output(ProcessId(p), Time(t)))).collect()
}

const HORIZON: u64 = 40;

#[test]
fn sigma_s_outputs_are_pinned() {
    let f = crashy();
    let full = SigmaS::new(ProcessSet::full(7), &f, 3);
    let part = SigmaS::new(set(&[0, 1, 2, 4]), &f, 11);
    assert_eq!(digest(&full, 7, HORIZON), 0xe60b_23ed_23b7_86bf);
    assert_eq!(digest(&part, 7, HORIZON), 0x56c5_02c7_b5ac_6147);
    let masks = [0x73, 0x6b, 0x2d, 0x23, 0x71, 0x7d, 0x7d, 0x1d, 0x71, 0x45, 0x01, 0x07];
    assert_eq!(row(&full, 0, 0..12), masks.map(|m| TRUST | m));
}

#[test]
fn sigma_outputs_are_pinned() {
    let f = crashy();
    let reticent = Sigma::new(ProcessId(0), ProcessId(1), &f, 5);
    let generous = reticent.clone().with_mode(SigmaMode::Generous);
    let forced = Sigma::new(ProcessId(0), ProcessId(1), &pair_correct(4), 5);
    assert_eq!(digest(&reticent, 7, HORIZON), 0x724d_7cfc_a93d_20b7);
    assert_eq!(digest(&generous, 7, HORIZON), 0x8763_b684_0aff_78d7);
    assert_eq!(digest(&forced, 4, HORIZON), 0x094a_7148_b2ec_1dc4);
    let generous_masks = [0x0, 0x3, 0x1, 0x0, 0x0, 0x1, 0x1, 0x0, 0x1, 0x0, 0x0, 0x1];
    assert_eq!(row(&generous, 1, 8..20), generous_masks.map(|m| TRUST | m));
    let forced_masks = [0x1, 0x3, 0x1, 0x3, 0x3, 0x3, 0x1, 0x3, 0x3, 0x3, 0x3, 0x1];
    assert_eq!(row(&forced, 0, 0..12), forced_masks.map(|m| TRUST | m));
}

#[test]
fn sigma_k_outputs_are_pinned() {
    let f = crashy();
    let active = set(&[0, 1, 2, 3]);
    let reticent = SigmaK::new(active, &f, 13);
    let generous = reticent.clone().with_mode(SigmaKMode::Generous);
    let forced = SigmaK::new(active, &pair_correct(6), 13);
    assert_eq!(digest(&reticent, 7, HORIZON), 0x4b0c_8340_35c2_b6d4);
    assert_eq!(digest(&generous, 7, HORIZON), 0x2e6e_68c5_e702_3c15);
    assert_eq!(digest(&forced, 6, HORIZON), 0x34f9_ef6d_4f5a_a186);
    let trust = [0x1, 0x3, 0x3, 0x3, 0x3, 0x1, 0x1, 0x1, 0x1, 0x1, 0x3, 0x1];
    assert_eq!(row(&forced, 1, 0..12), trust.map(|m| PAIR | (active.bits() << 16) | m));
}

#[test]
fn omega_and_anti_omega_outputs_are_pinned() {
    let f = crashy();
    let omega = Omega::new(&f, 7);
    let anti = AntiOmega::new(&f, 9);
    assert_eq!(digest(&omega, 7, HORIZON), 0x76ec_2a52_7561_ffe0);
    assert_eq!(digest(&anti, 7, HORIZON), 0x16e6_c26f_f911_0c61);
    let leaders = [0, 0, 0, 5, 6, 1, 1, 0, 1, 6, 5, 4];
    assert_eq!(row(&anti, 2, 0..12), leaders.map(|p| LEADER | p));
}
