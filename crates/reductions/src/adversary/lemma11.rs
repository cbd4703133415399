//! Lemma 11, executable: no algorithm emulates `Σ_X` from `σ_{|X|}` for
//! `|X| = 2k` — hence `(n−k)`-set agreement is not harder than a
//! `2k`-register.
//!
//! Two constructions, as in the paper's proof:
//!
//! * **`n > 2k`** — the Lemma 7 construction verbatim, with `σ_2k`'s
//!   `(∅, A)`-shaped silence: run `r` has `p ∈ X` and an outsider `a`
//!   correct; completeness confines `output_p ⊆ {p, a}` by some `t`; run
//!   `r′` revives `q ∈ X`, whose history is forced (non-triviality: its
//!   singleton correct set lies in one half of `A`) to `({q}, A)`;
//!   intersection breaks.
//! * **`n = 2k`** — there is no outsider. Instead the "no-information"
//!   output `(∅, Π)` is legal whenever the correct set straddles both
//!   halves of `A = Π` (Definition 9's trigger is mute), so the adversary
//!   uses two *disjoint straddling pairs*: run `r` makes `{p_lo, p_hi}`
//!   correct, waits for `output_{p_lo} ⊆ {p_lo, p_hi}`, then run `r′`
//!   crashes them and revives a second pair `{q_lo, q_hi}` (first steps
//!   after `t`) under the *same* all-`(∅, Π)` history; completeness
//!   confines `output_{q_lo} ⊆ {q_lo, q_hi}` — disjoint from the
//!   preserved `output_{p_lo}(t)`. Requires `k ≥ 2`.

use super::{await_confined, Defeat};
use sih_model::{FailurePattern, FdOutput, ProcessId, ProcessSet, RecordedHistory};
use sih_runtime::{Automaton, FairScheduler, ScriptedScheduler, Simulation};

/// Runs the Lemma 11 construction against a candidate `Σ_X`-from-`σ_|X|`
/// emulation, for an even-sized `X`.
///
/// # Panics
///
/// Panics if `|X|` is odd or the configuration admits no construction:
/// `n = |X|` needs `|X| ≥ 4` (two disjoint straddling pairs), `n > |X|`
/// needs `|X| ≥ 2` and `n ≥ 3`.
pub fn lemma11_defeat<A, F>(
    mk: &F,
    n: usize,
    x: ProcessSet,
    seed: u64,
    deadline_steps: u64,
) -> Defeat
where
    A: Automaton,
    F: Fn() -> Vec<A>,
{
    assert!(x.len().is_multiple_of(2), "X has 2k processes");
    assert!(x.is_subset(ProcessSet::full(n)));
    if x.len() == n {
        lemma11_full_system(mk, n, seed, deadline_steps)
    } else {
        lemma11_with_outsider(mk, n, x, seed, deadline_steps)
    }
}

/// The `n > 2k` case: Lemma 7's two-run construction with `σ_2k` shapes.
fn lemma11_with_outsider<A, F>(
    mk: &F,
    n: usize,
    x: ProcessSet,
    seed: u64,
    deadline_steps: u64,
) -> Defeat
where
    A: Automaton,
    F: Fn() -> Vec<A>,
{
    assert!(n >= 3);
    let p = x.min().expect("X nonempty");
    let q = x.iter().nth(1).expect("X has ≥ 2 members");
    let a = ProcessSet::full(n).difference(x).min().expect("outsider exists");

    // Run r: p and the outsider a correct; σ_2k silent — (∅, A) at X.
    let mut b = FailurePattern::builder(n);
    for i in 0..n as u32 {
        let z = ProcessId(i);
        if z != p && z != a {
            b = b.crash_from_start(z);
        }
    }
    let pattern_r = b.build();
    let silent = sigma_k_silent_history(n, x).with_label("σ_2k(r): (∅,A) forever");

    let mut sim_r = Simulation::new(mk(), pattern_r);
    let mut sched_r = FairScheduler::new(seed);
    let t = match await_confined(
        &mut sim_r,
        &mut sched_r,
        &silent,
        p,
        ProcessSet::from_iter([p, a]),
        "r",
        deadline_steps,
    ) {
        Ok(t) => t,
        Err(defeat) => return defeat,
    };
    let prefix = sim_r.script().to_vec();

    // Run r′: q revived; its forced output becomes ({q}, A).
    let mut b2 = FailurePattern::builder(n).crash_at(p, t).crash_at(a, t);
    for i in 0..n as u32 {
        let z = ProcessId(i);
        if z != p && z != q && z != a {
            b2 = b2.crash_from_start(z);
        }
    }
    let pattern_r2 = b2.build();
    let mut fd2 = sigma_k_silent_history(n, x).with_label("σ_2k(r′): ({q},A) after t");
    fd2.record(q, t.next(), FdOutput::TrustActive { trust: ProcessSet::singleton(q), active: x });

    let mut sim_r2 = Simulation::new(mk(), pattern_r2);
    let mut sched_r2 =
        ScriptedScheduler::followed_by(prefix, FairScheduler::new(seed.wrapping_add(1)));
    let t2 = match await_confined(
        &mut sim_r2,
        &mut sched_r2,
        &fd2,
        q,
        ProcessSet::singleton(q),
        "r′",
        deadline_steps * 2,
    ) {
        Ok(t2) => t2,
        Err(defeat) => return defeat,
    };

    finish_intersection(sim_r2.trace(), p, t, q, t2)
}

/// The `n = 2k` case: two disjoint straddling pairs under the
/// no-information history `(∅, Π)`.
fn lemma11_full_system<A, F>(mk: &F, n: usize, seed: u64, deadline_steps: u64) -> Defeat
where
    A: Automaton,
    F: Fn() -> Vec<A>,
{
    assert!(n >= 4, "the n = 2k case needs k ≥ 2 for two disjoint straddling pairs");
    let x = ProcessSet::full(n);
    let low = x.smallest(n / 2);
    let high = x.difference(low);
    let p_lo = low.min().expect("invariant: n ≥ 4 gives each half ≥ 2 members");
    let p_hi = high.min().expect("invariant: n ≥ 4 gives each half ≥ 2 members");
    let q_lo = low.iter().nth(1).expect("invariant: n ≥ 4 gives each half ≥ 2 members");
    let q_hi = high.iter().nth(1).expect("invariant: n ≥ 4 gives each half ≥ 2 members");

    // The history is the same in both runs: (∅, Π) at everyone, forever —
    // legal whenever the correct set straddles both halves.
    let no_info = sigma_k_silent_history(n, x).with_label("σ_n: (∅,Π) forever");

    // Run r: {p_lo, p_hi} correct.
    let mut b = FailurePattern::builder(n);
    for z in x {
        if z != p_lo && z != p_hi {
            b = b.crash_from_start(z);
        }
    }
    let pattern_r = b.build();
    let mut sim_r = Simulation::new(mk(), pattern_r);
    let mut sched_r = FairScheduler::new(seed);
    let t = match await_confined(
        &mut sim_r,
        &mut sched_r,
        &no_info,
        p_lo,
        ProcessSet::from_iter([p_lo, p_hi]),
        "r",
        deadline_steps,
    ) {
        Ok(t) => t,
        Err(defeat) => return defeat,
    };
    let prefix = sim_r.script().to_vec();

    // Run r′: the first pair crashes right after t, the second pair is
    // correct and takes its first steps after t.
    let mut b2 = FailurePattern::builder(n).crash_at(p_lo, t).crash_at(p_hi, t);
    for z in x {
        if z != p_lo && z != p_hi && z != q_lo && z != q_hi {
            b2 = b2.crash_from_start(z);
        }
    }
    let pattern_r2 = b2.build();
    let mut sim_r2 = Simulation::new(mk(), pattern_r2);
    let mut sched_r2 =
        ScriptedScheduler::followed_by(prefix, FairScheduler::new(seed.wrapping_add(1)));
    let t2 = match await_confined(
        &mut sim_r2,
        &mut sched_r2,
        &no_info,
        q_lo,
        ProcessSet::from_iter([q_lo, q_hi]),
        "r′",
        deadline_steps * 2,
    ) {
        Ok(t2) => t2,
        Err(defeat) => return defeat,
    };

    finish_intersection(sim_r2.trace(), p_lo, t, q_lo, t2)
}

fn finish_intersection(
    trace: &sih_runtime::Trace,
    p: ProcessId,
    t: sih_model::Time,
    q: ProcessId,
    t2: sih_model::Time,
) -> Defeat {
    let h = trace.emulated_history();
    let out_p = h.timeline(p).at(t).trust().expect("confined in the replayed prefix");
    let out_q = h.timeline(q).at(t2).trust().expect("just confined");
    assert!(!out_p.intersects(out_q), "construction invariant: targets are disjoint");
    Defeat::Intersection { t_first: t, t_second: t2, first: (p, out_p), second: (q, out_q) }
}

/// The `σ_k` history outputting `(∅, A)` at `A`'s members and `⊥`
/// elsewhere, forever.
fn sigma_k_silent_history(n: usize, a: ProcessSet) -> RecordedHistory {
    let initials = (0..n as u32)
        .map(|i| {
            if a.contains(ProcessId(i)) {
                FdOutput::TrustActive { trust: ProcessSet::EMPTY, active: a }
            } else {
                FdOutput::Bot
            }
        })
        .collect();
    RecordedHistory::with_initials(initials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::MirrorXCandidate;
    use sih_detectors::check_sigma_k;
    use sih_model::Time;

    #[test]
    fn defeats_mirror_x_with_outsider() {
        // n = 6, |X| = 4: the mirror candidate holds X whenever σ_2k is
        // silent — never confining to {p, a} — a completeness defeat.
        let n = 6;
        let x = ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId));
        let defeat =
            lemma11_defeat(&|| (0..n).map(|_| MirrorXCandidate::new(x)).collect(), n, x, 5, 20_000);
        match defeat {
            Defeat::Completeness { run: "r", process, .. } => assert_eq!(process, ProcessId(0)),
            other => panic!("expected completeness defeat, got {other}"),
        }
    }

    /// A candidate tailored to the `n = 2k` shape: trust whoever σ_k
    /// trusts when nonempty; otherwise trust yourself and anyone you have
    /// heard from (processes announce themselves once).
    #[derive(Clone, Debug)]
    struct AnnounceCandidate {
        x: ProcessSet,
        heard: ProcessSet,
        sent: bool,
    }
    impl AnnounceCandidate {
        fn new(x: ProcessSet) -> Self {
            AnnounceCandidate { x, heard: ProcessSet::EMPTY, sent: false }
        }
    }
    impl Automaton for AnnounceCandidate {
        type Msg = ();
        fn step(&mut self, input: sih_runtime::StepInput<()>, eff: &mut sih_runtime::Effects<()>) {
            if !self.sent {
                self.sent = true;
                eff.send_others(input.n, input.me, ());
            }
            if let Some(env) = &input.delivered {
                self.heard.insert(env.from);
            }
            if !self.x.contains(input.me) {
                eff.set_output(FdOutput::Bot);
                return;
            }
            let trusted = match input.fd.trust() {
                Some(s) if !s.is_empty() => s,
                _ => ProcessSet::singleton(input.me).union(self.heard),
            };
            eff.set_output(FdOutput::Trust(trusted));
        }
    }

    #[test]
    fn defeats_announce_candidate_in_full_system_case() {
        // n = 2k = 4. Depending on whether stale prefix announcements
        // reach the revived pair, the announce candidate breaks either
        // intersection (it confined in both runs) or completeness in r′
        // (old announcements keep the first pair trusted) — the lemma is
        // witnessed either way.
        let n = 4;
        let x = ProcessSet::full(4);
        let defeat = lemma11_defeat(
            &|| (0..n).map(|_| AnnounceCandidate::new(x)).collect(),
            n,
            x,
            9,
            20_000,
        );
        match defeat {
            Defeat::Intersection { first, second, .. } => {
                assert!(!first.1.intersects(second.1));
            }
            Defeat::Completeness { run, .. } => assert_eq!(run, "r′"),
            other => panic!("unexpected defeat shape: {other}"),
        }
    }

    /// The purely local strategy "trust exactly myself": legal-looking
    /// within each run's confinement target, so the cross-run glue is
    /// what kills it — the sharpest illustration of the construction.
    #[derive(Clone, Debug)]
    struct SelfishCandidate {
        x: ProcessSet,
    }
    impl Automaton for SelfishCandidate {
        type Msg = ();
        fn step(&mut self, input: sih_runtime::StepInput<()>, eff: &mut sih_runtime::Effects<()>) {
            if self.x.contains(input.me) {
                eff.set_output(FdOutput::Trust(ProcessSet::singleton(input.me)));
            } else {
                eff.set_output(FdOutput::Bot);
            }
        }
    }

    #[test]
    fn full_system_intersection_violation_materializes_for_selfish() {
        let n = 4;
        let x = ProcessSet::full(4);
        let defeat =
            lemma11_defeat(&|| (0..n).map(|_| SelfishCandidate { x }).collect(), n, x, 2, 20_000);
        match defeat {
            Defeat::Intersection { first, second, .. } => {
                assert_eq!(first.1, ProcessSet::singleton(ProcessId(0)));
                assert_eq!(second.1, ProcessSet::singleton(ProcessId(1)));
            }
            other => panic!("expected intersection defeat, got {other}"),
        }
    }

    #[test]
    fn construction_histories_are_legal_sigma_k_histories() {
        // The (∅, A)-silence and the ({q}, A)-after-t histories must be
        // legal per Definition 9 for their patterns.
        let n = 6;
        let x = ProcessSet::from_iter([0, 1, 2, 3].map(ProcessId));
        // Run r: correct = {p0, p4} (p4 the outsider).
        let mut b = FailurePattern::builder(n);
        for i in [1u32, 2, 3, 5] {
            b = b.crash_from_start(ProcessId(i));
        }
        let f_r = b.build();
        check_sigma_k(&sigma_k_silent_history(n, x), &f_r, x).unwrap();

        // Run r′: correct = {p1}, p0 and p4 crash at t = 10.
        let t = Time(10);
        let mut b2 = FailurePattern::builder(n).crash_at(ProcessId(0), t).crash_at(ProcessId(4), t);
        for i in [2u32, 3, 5] {
            b2 = b2.crash_from_start(ProcessId(i));
        }
        let f_r2 = b2.build();
        let mut h2 = sigma_k_silent_history(n, x);
        h2.record(
            ProcessId(1),
            t.next(),
            FdOutput::TrustActive { trust: ProcessSet::singleton(ProcessId(1)), active: x },
        );
        check_sigma_k(&h2, &f_r2, x).unwrap();
    }

    #[test]
    fn full_system_no_info_history_is_legal_when_straddling() {
        let n = 4;
        let x = ProcessSet::full(n);
        // Correct = {p0, p2}: straddles the halves {0,1} / {2,3}.
        let f = FailurePattern::crashed_from_start(n, ProcessSet::from_iter([1, 3].map(ProcessId)));
        check_sigma_k(&sigma_k_silent_history(n, x), &f, x).unwrap();
    }

    #[test]
    #[should_panic(expected = "2k processes")]
    fn odd_x_rejected() {
        let x = ProcessSet::from_iter([0, 1, 2].map(ProcessId));
        let _ =
            lemma11_defeat(&|| (0..4).map(|_| MirrorXCandidate::new(x)).collect(), 4, x, 0, 100);
    }
}
