//! Byzantine adversary tier, end to end: deterministic mutation sweeps
//! across thread counts, Schedule v1/v2 round-trips over the committed
//! corpus, fresh record → shrink → replay of Byzantine witnesses, the
//! network counter balance under tampering, and the differential armor
//! suite — full armor must make every attacked run *bit-identical* to
//! its honest baseline under the same schedule.

use proptest::prelude::*;
use sih::agreement::{
    check_k_agreement_safety, distinct_proposals, equivocator_processes, fig2_processes,
    fig4_processes,
};
use sih::detectors::{Sigma, SigmaK, SigmaS};
use sih::model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailurePattern, Mutation, MutationKind,
    MutationWindow, ProcessId, ProcessSet, Time,
};
use sih::registers::{abd_processes, check_linearizable, split_ack_processes, two_writer_workload};
use sih::runtime::sweep::Sweep;
use sih::runtime::{FairScheduler, Schedule, ScriptedScheduler, Simulation};
use sih_lab::repro::{record_first_violation, replay, shrink, verify_corpus_dir, ReplayMode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const EQUIVOCATE: Option<AttackSpec> = Some(AttackSpec { kind: AttackKind::Equivocate, x: 99 });
const SPLIT_ACK: Option<AttackSpec> = Some(AttackSpec { kind: AttackKind::SplitAck, x: 55 });

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// The matrix's worst-case mutation pressure: `kind` on every directed
/// link, from time zero, never quiescing.
fn all_links(n: usize, kind: MutationKind, x: u64) -> AdversaryPlan {
    let mut b = AdversaryPlan::builder(n);
    for src in 0..n as u32 {
        for dst in 0..n as u32 {
            if src != dst {
                b = b.every(ProcessId(src), ProcessId(dst), kind, x, Time::ZERO, None);
            }
        }
    }
    b.build()
}

/// One attacked fig2 run: equivocating `p0` plus timestamp tampering on
/// every link, at the given armor rung. Returns a verdict token and the
/// terminal fingerprint (`0` for panicked runs — the mutated validity
/// `expect` is violation-grade, not nondeterminism).
fn fig2_byz_run(seed: u64, armor: Armor) -> (String, u64) {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed);
    catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::new(
            equivocator_processes(fig2_processes(&proposals), ProcessId(0), EQUIVOCATE, armor),
            pattern.clone(),
        );
        sim.set_adversary(all_links(n, MutationKind::Perturb, 100), armor);
        sim.run(&mut FairScheduler::new(seed), &sigma, 4_000);
        let verdict = match check_k_agreement_safety(sim.trace(), &proposals, n - 1) {
            Ok(()) => "ok".to_string(),
            Err(v) => format!("violation:{}", v.property),
        };
        sim.take_adversary();
        (verdict, sim.fingerprint_ordered())
    }))
    .unwrap_or_else(|_| ("panic".to_string(), 0))
}

/// The attacked sweep — verdicts *and* terminal fingerprints — is a pure
/// function of the seed: fanning it over 1, 2 and 8 worker threads
/// changes nothing. This is the replay-determinism contract the corpus
/// stands on, extended to adversarial runs.
#[test]
fn byz_sweep_is_identical_across_1_2_8_threads() {
    let seeds: Vec<u64> = (0..24).collect();
    let sweep = |threads: usize| {
        Sweep::new(threads).run(seeds.clone(), || {
            move |idx: usize, seed: u64| fig2_byz_run(seed, Armor::level((idx % 4) as u8))
        })
    };
    let one = sweep(1);
    assert!(
        one.iter().any(|(v, _)| v != "ok"),
        "the attacked sweep never degraded — the adversary is not engaging"
    );
    for threads in [2, 8] {
        assert_eq!(one, sweep(threads), "attacked sweep diverged at threads={threads}");
    }
}

/// Every committed Byzantine witness strict-replays to its recorded
/// verdict, and the corpus report is thread-count invariant.
#[test]
fn byzantine_corpus_witnesses_replay_across_thread_counts() {
    let one = verify_corpus_dir(&corpus_dir(), 1).expect("reading tests/corpus");
    let byz: Vec<_> = one.iter().filter(|e| e.file.contains("-byz-")).collect();
    assert_eq!(byz.len(), 6, "expected the six Byzantine witnesses, found {}", byz.len());
    for e in &byz {
        assert!(e.ok, "stale Byzantine witness: {e}");
    }
    for threads in [2, 8] {
        let other = verify_corpus_dir(&corpus_dir(), threads).expect("threaded run");
        assert_eq!(one, other, "corpus report differs at threads={threads}");
    }
}

/// Version discipline over the whole committed corpus: adversary-free
/// schedules re-emit as `v1` (old readers keep working), Byzantine
/// schedules as `v2`, and one text round-trip is the identity for both.
#[test]
fn schedule_text_round_trips_and_v1_stays_v1() {
    let mut checked = 0;
    let mut dir: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("reading tests/corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    dir.sort();
    for path in dir {
        let text = std::fs::read_to_string(&path).expect("readable schedule");
        let s = Schedule::parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        let emitted = s.to_text();
        let again = Schedule::parse(&emitted).expect("emitted text parses");
        assert_eq!(s, again, "{}: text round-trip not the identity", path.display());
        let byz = !s.adversary.is_honest() || s.attack.is_some() || s.armor != Armor::NONE;
        let want = if byz { "sih-schedule v2" } else { "sih-schedule v1" };
        assert!(emitted.starts_with(want), "{}: emitted header is not `{want}`", path.display());
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} corpus schedules checked");
}

/// The acceptance pipeline for two of the new Byzantine workloads, from
/// scratch: capture the planted violation, shrink it deterministically,
/// strict-replay the minimized schedule, and round-trip it through the
/// v2 text format.
#[test]
fn fresh_byzantine_witnesses_record_shrink_and_replay() {
    for (workload, verdict) in [
        ("fig2-byz-perturb", "violation:validity"),
        ("abd-byz-forge-ack", "violation:not-linearizable"),
    ] {
        let recorded = record_first_violation(workload, 1, 64)
            .expect("workload is registered")
            .unwrap_or_else(|| panic!("{workload}: no violation within 64 seeds"));
        assert_eq!(recorded.verdict, verdict, "{workload}");
        assert!(!recorded.adversary.is_honest() || recorded.attack.is_some(), "{workload}");

        let (small, report) = shrink(&recorded).expect("shrink runs");
        assert!(report.final_len <= report.original_len, "{workload}");
        assert_eq!(small.verdict, recorded.verdict, "{workload}: shrinking changed the verdict");

        let rep = replay(&small, ReplayMode::Strict).expect("replay runs");
        assert!(
            rep.matches,
            "{workload}: minimized schedule not strict-reproducible: {}",
            rep.verdict
        );

        let (again, _) = shrink(&recorded).expect("second shrink runs");
        assert_eq!(small, again, "{workload}: shrinking is not deterministic");

        let parsed = Schedule::parse(&small.to_text()).expect("v2 round-trip parses");
        assert_eq!(parsed, small, "{workload}");
    }
}

/// Differential armor suite, fig2: with every armor rung on, an
/// equivocating proposer *and* a tampering network leave no trace — the
/// verdict and the terminal ordered fingerprint equal the honest
/// baseline's under the identical schedule.
#[test]
fn full_armor_fig2_is_bit_identical_to_honest_baseline() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    for seed in 0..8 {
        let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed);
        let mut base = Simulation::new(fig2_processes(&proposals), pattern.clone());
        base.run(&mut FairScheduler::new(seed), &sigma, 4_000);
        let base_check = check_k_agreement_safety(base.trace(), &proposals, n - 1).is_ok();

        let mut armored = Simulation::new(
            equivocator_processes(fig2_processes(&proposals), ProcessId(0), EQUIVOCATE, Armor::MAX),
            pattern.clone(),
        );
        armored.set_adversary(all_links(n, MutationKind::Perturb, 100), Armor::MAX);
        let outcome =
            armored.run(&mut ScriptedScheduler::new(base.script().to_vec()), &sigma, u64::MAX);
        assert_eq!(outcome.mutated, 0, "seed {seed}: armor let a mutation through");
        assert!(outcome.armored > 0, "seed {seed}: the adversary never even tried");
        let armored_check = check_k_agreement_safety(armored.trace(), &proposals, n - 1).is_ok();

        armored.take_adversary();
        assert_eq!(base_check, armored_check, "seed {seed}: verdicts diverge");
        assert_eq!(
            base.fingerprint_ordered(),
            armored.fingerprint_ordered(),
            "seed {seed}: armored run is not bit-identical to the baseline"
        );
    }
}

/// Differential armor suite, fig4: the tampering network under full
/// armor is invisible to the `k`-set agreement runs.
#[test]
fn full_armor_fig4_is_bit_identical_to_honest_baseline() {
    let (n, k) = (4, 1);
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    let active: ProcessSet = (0..2 * k as u32).map(ProcessId).collect();
    for seed in 0..8 {
        let det = SigmaK::new(active, &pattern, seed);
        let mut base = Simulation::new(fig4_processes(&proposals), pattern.clone());
        base.run(&mut FairScheduler::new(seed), &det, 4_000);

        let mut armored = Simulation::new(fig4_processes(&proposals), pattern.clone());
        armored.set_adversary(all_links(n, MutationKind::Perturb, 100), Armor::MAX);
        let outcome =
            armored.run(&mut ScriptedScheduler::new(base.script().to_vec()), &det, u64::MAX);
        assert_eq!(outcome.mutated, 0, "seed {seed}");

        armored.take_adversary();
        assert_eq!(base.fingerprint_ordered(), armored.fingerprint_ordered(), "seed {seed}");
        assert_eq!(
            check_k_agreement_safety(base.trace(), &proposals, n - k).is_ok(),
            check_k_agreement_safety(armored.trace(), &proposals, n - k).is_ok(),
            "seed {seed}"
        );
    }
}

/// Differential armor suite, ABD: a split-ack forging replica plus
/// forged quorum acks, all defeated, leave the register emulation —
/// operations, verdict, terminal state — exactly as the honest run.
#[test]
fn full_armor_abd_is_bit_identical_to_honest_baseline() {
    let n = 4;
    let pattern = FailurePattern::all_correct(n);
    let (s, scripts) = two_writer_workload();
    for seed in 0..8 {
        let fd = SigmaS::new(s, &pattern, seed);
        let mut base = Simulation::new(abd_processes(s, n, scripts.clone()), pattern.clone());
        base.run(&mut FairScheduler::new(seed), &fd, 6_000);
        let base_check = check_linearizable(&base.trace().op_records(), None).is_ok();

        let mut armored = Simulation::new(
            split_ack_processes(
                abd_processes(s, n, scripts.clone()),
                ProcessId(3),
                SPLIT_ACK,
                Armor::MAX,
            ),
            pattern.clone(),
        );
        armored.set_adversary(all_links(n, MutationKind::ForgeAck, 77), Armor::MAX);
        let outcome =
            armored.run(&mut ScriptedScheduler::new(base.script().to_vec()), &fd, u64::MAX);
        assert_eq!(outcome.mutated, 0, "seed {seed}");
        assert_eq!(outcome.forged, 0, "seed {seed}: a forgery slipped past full armor");
        let armored_check = check_linearizable(&armored.trace().op_records(), None).is_ok();

        armored.take_adversary();
        assert_eq!(base_check, armored_check, "seed {seed}");
        assert_eq!(base.fingerprint_ordered(), armored.fingerprint_ordered(), "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The network counter balance the stubborn layer must preserve:
    /// consumed-and-replaced envelopes are **moved** to `mutated`, never
    /// double-counted, so `sent = delivered + dropped + mutated +
    /// in_flight` holds at the end of every adversarial run — and armor
    /// at or above the tamper rung forces `mutated = 0`.
    #[test]
    fn counters_balance_under_every_armor_rung(seed in 0u64..500, rung in 0u8..4) {
        let armor = Armor::level(rung);
        let n = 3;
        let pattern = FailurePattern::all_correct(n);
        let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, seed);
        let proposals = distinct_proposals(n);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulation::new(fig2_processes(&proposals), pattern.clone());
            sim.set_adversary(all_links(n, MutationKind::Perturb, 100), armor);
            sim.run(&mut FairScheduler::new(seed), &sigma, 4_000)
        }));
        // A panicked run is the mutated validity `expect` firing — a
        // violation-grade outcome the matrix reports; no counters to
        // audit there.
        if let Ok(o) = outcome {
            prop_assert_eq!(
                o.sent,
                o.delivered + o.dropped + o.mutated + o.in_flight,
                "counter imbalance: {:?}", o
            );
            if armor.defeats(MutationKind::Perturb.class()) {
                prop_assert_eq!(o.mutated, 0);
                prop_assert!(o.armored > 0, "adversary never engaged: {:?}", o);
            } else {
                prop_assert!(o.mutated > 0, "all-links perturb mutated nothing: {:?}", o);
                prop_assert_eq!(o.armored, 0);
            }
        }
    }

    /// Schedule v2 text is a faithful codec for *arbitrary* adversary
    /// configurations: random mutation windows, scripted attacks and
    /// armor rungs all survive `to_text` → `parse` unchanged.
    #[test]
    fn arbitrary_adversary_plans_round_trip_through_v2_text(
        windows in proptest::collection::vec(
            ((0u32..4, 0u32..4, 0usize..5),
             (0u64..1000, 1u64..4, 0u64..3),
             (0u64..100, proptest::option::of(0u64..100))),
            0..4,
        ),
        attack in proptest::option::of((0usize..2, 0u64..1000)),
        rung in 0u8..4,
    ) {
        let base = std::fs::read_to_string(corpus_dir().join("abd-byz-forge-ack.schedule"))
            .expect("committed witness");
        let mut s = Schedule::parse(&base).expect("witness parses");
        let kinds = [
            MutationKind::Flip,
            MutationKind::Perturb,
            MutationKind::Replay,
            MutationKind::ForgeSender,
            MutationKind::ForgeAck,
        ];
        let mut b = AdversaryPlan::builder(s.n);
        for ((src, dst, kind), (x, stride, offset), (from, until)) in windows {
            if src == dst {
                continue;
            }
            b = b.window(MutationWindow {
                src: ProcessId(src),
                dst: ProcessId(dst),
                action: Mutation { kind: kinds[kind], x },
                stride,
                offset: offset.min(stride - 1),
                from: Time(from),
                until: until.map(|u| Time(from + 1 + u)),
            });
        }
        s.adversary = b.build();
        s.attack = attack.map(|(k, x)| AttackSpec {
            kind: if k == 0 { AttackKind::Equivocate } else { AttackKind::SplitAck },
            x,
        });
        s.armor = Armor::level(rung);
        let parsed = Schedule::parse(&s.to_text()).expect("emitted text parses");
        prop_assert_eq!(parsed, s);
    }
}
