//! Structural state hashing against the `Debug` encoding it replaced.
//!
//! `Automaton::hash_state` must split states into exactly the classes
//! their `Debug` renderings do: the explorer's dedup and the fuzzer's
//! coverage consume nothing but fingerprint equality. [`DebugOnly`]
//! forwards every automaton method except `hash_state`, so it takes the
//! trait's `Debug` default; every workload below runs both ways and must
//! agree on every explorer counter and on the equality classes of the
//! per-step fingerprints of fair runs.
//!
//! Message payloads hash through their own `StateHash` encodings (one
//! envelope hash per send) and order the explorer's delivery menu
//! through their derived `Ord`. For every protocol message type, both
//! must split generated values into exactly the classes `Debug` does;
//! queues that differ only in arrival order must give the same menu, so
//! the same sleep keys and the same exploration.
//!
//! `Simulation::fingerprint` is incremental (cached per-process words,
//! a running queue sum); `Simulation::fingerprint_uncached` recomputes
//! the same value from scratch. Every fair run below, explorer-style
//! `clone_from` chains, pooled runs across `reset` and runs that change
//! their plans mid-way check the two agree after every step.

use sih::agreement::{
    check_k_agreement_safety, distinct_proposals, equivocator_processes, fig2_processes,
    fig4_processes, paxos_processes, Fig2Msg, Fig2WithoutPhase2, Fig4Msg, PaxosMsg,
};
use sih::detectors::{AntiOmega, Omega, QuorumMsg, QuorumSigma, Sigma, SigmaK, SigmaS, WeakSigmaS};
use sih::model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailureDetector, FailurePattern, FdOutput,
    LinkFaultPlan, MutationKind, MutationWindow, NoDetector, ProcessId, ProcessSet, Time, Value,
};
use sih::reductions::{
    fig3_processes, fig5_processes, fig6_processes, AblatedFig6Msg, AntiOmegaAgreementCandidate,
    Fig6Msg, Fig6WithoutChange, GossipMsg, GossipPairCandidate, MirrorPairCandidate,
    MirrorXCandidate, QuorumMinXCandidate, SelfQuietCandidate, Theorem13Transform,
};
use sih::registers::{
    abd_processes, check_linearizable, split_ack_processes, two_writer_workload, AbdMsg,
    SigmaExtractor, Timestamp,
};
use sih::runtime::{
    explore_par, explore_with, stubborn_processes, Automaton, Choice, Corruptible, Driver, Effects,
    ExploreConfig, Layered, Network, SimPool, Simulation, SleepKey, Stacked, StateHash,
    StateHasher, StepInput, StubbornMsg, Trace, TraceLevel,
};
use sih::sharedmem::{bridged_processes, BridgeMsg, CollectMin, RegisterId};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Forwards everything but `hash_state`, so fingerprints fall back to the
/// trait's `Debug` default.
#[derive(Clone)]
struct DebugOnly<A>(A);

impl<A: fmt::Debug> fmt::Debug for DebugOnly<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<A: Automaton> Automaton for DebugOnly<A> {
    type Msg = A::Msg;

    fn step(&mut self, input: StepInput<A::Msg>, eff: &mut Effects<A::Msg>) {
        self.0.step(input, eff);
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }

    fn quiescent(&self) -> bool {
        self.0.quiescent()
    }
}

const EQUIVOCATE: Option<AttackSpec> = Some(AttackSpec { kind: AttackKind::Equivocate, x: 99 });
const SPLIT_ACK: Option<AttackSpec> = Some(AttackSpec { kind: AttackKind::SplitAck, x: 55 });

/// The network installs of a comparison, shared by both arms (which
/// have the same message type).
trait Setup<M> {
    fn install<A: Automaton<Msg = M>>(&self, sim: &mut Simulation<A>);
}

/// A reliable, honest network.
struct Reliable;

impl<M> Setup<M> for Reliable {
    fn install<A: Automaton<Msg = M>>(&self, _: &mut Simulation<A>) {}
}

impl<M> Setup<M> for LinkFaultPlan {
    fn install<A: Automaton<Msg = M>>(&self, sim: &mut Simulation<A>) {
        sim.set_link_faults(self.clone());
    }
}

/// A mutation adversary under the given armor.
struct Adversary(AdversaryPlan, Armor);

impl<M: Corruptible> Setup<M> for Adversary {
    fn install<A: Automaton<Msg = M>>(&self, sim: &mut Simulation<A>) {
        sim.set_adversary(self.0.clone(), self.1);
    }
}

/// `kind` on every directed link, from time zero, never quiescing.
fn all_links(n: usize, kind: MutationKind, x: u64) -> AdversaryPlan {
    let mut b = AdversaryPlan::builder(n);
    for src in (0..n as u32).map(ProcessId) {
        for dst in (0..n as u32).map(ProcessId) {
            if src != dst {
                b = b.mutate(MutationWindow {
                    src,
                    dst,
                    kind,
                    x,
                    stride: 2,
                    offset: 0,
                    from: Time::ZERO,
                    until: None,
                });
            }
        }
    }
    b.build()
}

/// Drops `p0 → p1` for the first 30 steps and duplicates every other
/// send on `p1 → p2`.
fn lossy(n: usize) -> LinkFaultPlan {
    LinkFaultPlan::builder(n)
        .drop_link(ProcessId(0), ProcessId(1), Time(0), Some(Time(30)))
        .duplicate_every(ProcessId(1), ProcessId(2), 2, 0, Time(0), None)
        .build()
}

fn sim<A: Automaton>(
    procs: Vec<A>,
    pattern: &FailurePattern,
    setup: &impl Setup<A::Msg>,
) -> Simulation<A> {
    let mut s = Simulation::new(procs, pattern.clone());
    setup.install(&mut s);
    s
}

/// The cached fingerprint equals the from-scratch one.
fn assert_incremental<A: Automaton + fmt::Debug>(s: &Simulation<A>) {
    assert_eq!(
        s.fingerprint(),
        s.fingerprint_uncached(),
        "incremental fingerprint diverged from scratch at t={}",
        s.now()
    );
}

/// Each fingerprint replaced by the index of its first occurrence: two
/// streams split their steps into the same classes iff these are equal.
fn classes(fps: &[u64]) -> Vec<usize> {
    let mut first = BTreeMap::new();
    fps.iter().enumerate().map(|(i, fp)| *first.entry(*fp).or_insert(i)).collect()
}

/// The per-step fingerprints of fair runs over seeds `0..8`, one stream
/// (so states shared across seeds land in one class); `inspect` sees the
/// simulation before every step, after its incremental fingerprint was
/// checked against the from-scratch one.
fn fair_stream<A, D>(
    procs: &[A],
    pattern: &FailurePattern,
    setup: &impl Setup<A::Msg>,
    fd: &D,
    mut inspect: impl FnMut(&Simulation<A>),
) -> Vec<u64>
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
{
    let mut fps = Vec::new();
    for seed in 0..8 {
        let mut s = sim(procs.to_vec(), pattern, setup);
        let stop = |s: &Simulation<A>| {
            assert_incremental(s);
            inspect(s);
            false
        };
        s.drive(Driver::Fair { seed, max_steps: 400 }, fd, stop, Some(&mut fps));
    }
    fps
}

/// Fair runs of `procs` and of their `DebugOnly` twins agree on the
/// equality classes of their per-step fingerprints, and every process
/// state the runs reach obeys the `hash_state` contract on its own:
/// equal `Debug` renderings exactly when equal structural hashes.
fn assert_same_fair_classes<A, D>(
    procs: Vec<A>,
    pattern: &FailurePattern,
    setup: &impl Setup<A::Msg>,
    fd: &D,
) where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
{
    let mut by_debug: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_hash: BTreeMap<u64, String> = BTreeMap::new();
    let contract = |s: &Simulation<A>| {
        for p in (0..s.n() as u32).map(ProcessId) {
            let a = s.process(p);
            let mut h = StateHasher::new();
            a.hash_state(&mut h);
            let (fp, debug) = (h.finish(), format!("{a:?}"));
            assert_eq!(
                *by_debug.entry(debug.clone()).or_insert(fp),
                fp,
                "one rendering, two hashes: {debug}"
            );
            let seen = by_hash.entry(fp).or_insert_with(|| debug.clone());
            assert_eq!(*seen, debug, "one hash, two renderings");
        }
    };
    let debug: Vec<_> = procs.iter().cloned().map(DebugOnly).collect();
    let a = fair_stream(&procs, pattern, setup, fd, contract);
    let b = fair_stream(&debug, pattern, setup, fd, |_| {});
    assert_eq!(a.len(), b.len(), "the runs themselves diverged");
    let (ca, cb) = (classes(&a), classes(&b));
    assert_eq!(ca, cb, "structural and Debug fingerprints split the steps differently");
    let merged = ca.iter().enumerate().filter(|(i, c)| *i != **c).count();
    assert!(merged > 0, "no state recurs across seeds: the comparison is vacuous");
}

/// Source-DPOR exploration of `procs` and of their `DebugOnly` twins
/// returns identical results (every counter and any violation), and the
/// fair-run fingerprint classes agree too.
fn assert_equivalent<A, D>(
    procs: Vec<A>,
    pattern: &FailurePattern,
    setup: &impl Setup<A::Msg>,
    fd: &D,
    depth: usize,
    check: impl Fn(&Trace) -> Result<(), String>,
) where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
{
    let cfg = ExploreConfig::new(depth).dpor(true);
    let debug: Vec<_> = procs.iter().cloned().map(DebugOnly).collect();
    let a = explore_with(&sim(procs.clone(), pattern, setup), fd, &cfg, &mut |s| check(s.trace()));
    let b = explore_with(&sim(debug, pattern, setup), fd, &cfg, &mut |s| check(s.trace()));
    assert_eq!(a, b, "explorer results differ between structural and Debug hashing");
    assert!(a.deduped > 0, "dedup never fired: the comparison is vacuous ({a:?})");
    assert_same_fair_classes(procs, pattern, setup, fd);
}

#[test]
fn fig2_structural_hash_matches_debug() {
    let n = 3;
    let proposals = distinct_proposals(n);
    let check =
        |t: &Trace| check_k_agreement_safety(t, &proposals, n - 1).map_err(|e| e.to_string());
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    assert_equivalent(fig2_processes(&proposals), &pattern, &Reliable, &sigma, 7, check);

    let crashy = FailurePattern::builder(n).crash_at(ProcessId(1), Time(4)).build();
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &crashy, 1);
    assert_equivalent(fig2_processes(&proposals), &crashy, &lossy(n), &sigma, 7, check);
}

#[test]
fn fig2_byzantine_wrappers_hash_like_debug() {
    let n = 3;
    let proposals = distinct_proposals(n);
    let check =
        |t: &Trace| check_k_agreement_safety(t, &proposals, n - 1).map_err(|e| e.to_string());
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    for armor in [Armor::NONE, Armor::MAX] {
        let procs =
            equivocator_processes(fig2_processes(&proposals), ProcessId(0), EQUIVOCATE, armor);
        let adversary = Adversary(all_links(n, MutationKind::Replay, 0), armor);
        assert_equivalent(procs, &pattern, &adversary, &sigma, 7, check);
    }
}

#[test]
fn fig4_structural_hash_matches_debug() {
    let (n, k) = (4, 1);
    let proposals = distinct_proposals(n);
    let check =
        |t: &Trace| check_k_agreement_safety(t, &proposals, n - k).map_err(|e| e.to_string());
    let pattern = FailurePattern::all_correct(n);
    let active: ProcessSet = (0..2 * k as u32).map(ProcessId).collect();
    let det = SigmaK::new(active, &pattern, 0);
    assert_equivalent(fig4_processes(&proposals), &pattern, &Reliable, &det, 5, check);

    let adversary = Adversary(all_links(n, MutationKind::Perturb, 7), Armor::NONE);
    assert_equivalent(fig4_processes(&proposals), &pattern, &adversary, &det, 5, check);
}

#[test]
fn abd_structural_hash_matches_debug_under_both_twins() {
    let n = 3;
    let (s, scripts) = two_writer_workload();
    let check = |t: &Trace| check_linearizable(&t.op_records(), None).map_err(|e| e.to_string());
    let pattern = FailurePattern::all_correct(n);
    let sigma_s = SigmaS::new(s, &pattern, 0);
    assert_equivalent(
        abd_processes(s, n, scripts.clone()),
        &pattern,
        &Reliable,
        &sigma_s,
        6,
        check,
    );
    let weak = WeakSigmaS::new(s);
    assert_equivalent(abd_processes(s, n, scripts), &pattern, &Reliable, &weak, 6, check);
}

#[test]
fn abd_byzantine_wrappers_hash_like_debug() {
    let n = 4;
    let (s, scripts) = two_writer_workload();
    let check = |t: &Trace| check_linearizable(&t.op_records(), None).map_err(|e| e.to_string());
    let pattern = FailurePattern::all_correct(n);
    let sigma_s = SigmaS::new(s, &pattern, 0);
    for armor in [Armor::NONE, Armor::MAX] {
        let procs = split_ack_processes(
            abd_processes(s, n, scripts.clone()),
            ProcessId(3),
            SPLIT_ACK,
            armor,
        );
        let adversary = Adversary(all_links(n, MutationKind::ForgeAck, 77), armor);
        assert_equivalent(procs, &pattern, &adversary, &sigma_s, 5, check);
    }
}

/// The remaining structural impls, on fair runs: stubborn links over
/// lossy links, a Figure 3 → Figure 2 stack, Paxos, Figure 6, Σ
/// extraction from ABD, and collect-min over the register bridge.
#[test]
fn other_automata_hash_like_debug_on_fair_runs() {
    let n = 3;
    let proposals = distinct_proposals(n);
    let pattern = FailurePattern::all_correct(n);
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
    assert_same_fair_classes(
        stubborn_processes(fig2_processes(&proposals)),
        &pattern,
        &lossy(n),
        &sigma,
    );

    let stack: Vec<_> = fig3_processes(n, ProcessId(0), ProcessId(1))
        .into_iter()
        .zip(fig2_processes(&proposals))
        .map(|(lower, upper)| Stacked::new(lower, upper, FdOutput::Bot))
        .collect();
    let pair = SigmaS::new(ProcessSet::from_iter([ProcessId(0), ProcessId(1)]), &pattern, 0);
    assert_same_fair_classes(stack, &pattern, &Reliable, &pair);

    assert_same_fair_classes(
        paxos_processes(&proposals),
        &pattern,
        &Reliable,
        &Omega::new(&pattern, 0),
    );
    assert_same_fair_classes(fig6_processes(n), &pattern, &Reliable, &sigma);

    let (s, scripts) = two_writer_workload();
    let extractors: Vec<_> =
        abd_processes(s, n, scripts).into_iter().map(SigmaExtractor::new).collect();
    assert_same_fair_classes(extractors, &pattern, &Reliable, &SigmaS::new(s, &pattern, 0));

    let bridged = bridged_processes(CollectMin::processes(&proposals, 1), n);
    assert_same_fair_classes(
        bridged,
        &pattern,
        &Reliable,
        &SigmaS::new(ProcessSet::full(n), &pattern, 0),
    );
}

/// The reduction candidates, the ablations, the quorum Σ emulation and
/// the Theorem 13 transform, on fair runs.
#[test]
fn candidate_and_ablation_automata_hash_like_debug() {
    let n = 3;
    let proposals = distinct_proposals(n);
    let pattern = FailurePattern::all_correct(n);
    let (p, q) = (ProcessId(0), ProcessId(1));
    let pq = ProcessSet::from_iter([p, q]);
    let sigma = Sigma::new(p, q, &pattern, 0);
    let anti = AntiOmega::new(&pattern, 0);
    let sigma_pq = SigmaS::new(pq, &pattern, 0);

    let mirror: Vec<_> = (0..n).map(|_| MirrorPairCandidate::new(p, q)).collect();
    assert_same_fair_classes(mirror, &pattern, &Reliable, &sigma);
    let gossip: Vec<_> = (0..n).map(|_| GossipPairCandidate::new(p, q, 3)).collect();
    assert_same_fair_classes(gossip, &pattern, &Reliable, &sigma);
    let mirror_x: Vec<_> = (0..n).map(|_| MirrorXCandidate::new(pq)).collect();
    assert_same_fair_classes(mirror_x, &pattern, &Reliable, &sigma_pq);
    let named = AntiOmegaAgreementCandidate::processes(&proposals, 4);
    assert_same_fair_classes(named, &pattern, &Reliable, &anti);
    let quiet = SelfQuietCandidate::processes(&proposals, 4);
    assert_same_fair_classes(quiet, &pattern, &Reliable, &anti);
    let quorum_min = QuorumMinXCandidate::processes(pq, &proposals);
    assert_same_fair_classes(quorum_min, &pattern, &Reliable, &sigma_pq);
    let members = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
    let transformed: Vec<_> = QuorumMinXCandidate::processes(ProcessSet::full(n), &proposals)
        .into_iter()
        .map(|a| Theorem13Transform::new(a, members.clone(), n))
        .collect();
    let full = SigmaS::new(ProcessSet::full(n), &pattern, 0);
    assert_same_fair_classes(transformed, &pattern, &Reliable, &full);

    assert_same_fair_classes(fig5_processes(n, pq), &pattern, &Reliable, &sigma_pq);
    let quorum: Vec<_> = (0..n).map(|_| QuorumSigma::new(pq, n)).collect();
    assert_same_fair_classes(quorum, &pattern, &Reliable, &NoDetector);
    let ablated: Vec<_> = (0..n).map(|_| Fig6WithoutChange::new(n)).collect();
    assert_same_fair_classes(ablated, &pattern, &Reliable, &sigma);
    let no_phase2: Vec<_> = proposals.iter().map(|&v| Fig2WithoutPhase2::new(v)).collect();
    assert_same_fair_classes(no_phase2, &pattern, &Reliable, &sigma);
}

/// The trace's fingerprint sections promise the same fingerprint at
/// every trace level; the running op-event hash must keep that promise.
#[test]
fn full_and_light_traces_fingerprint_alike() {
    let n = 4;
    let (s, scripts) = two_writer_workload();
    let pattern = FailurePattern::all_correct(n);
    let fd = SigmaS::new(s, &pattern, 3);
    let stream = |level: TraceLevel| {
        let mut sim = Simulation::new(abd_processes(s, n, scripts.clone()), pattern.clone())
            .with_trace_level(level);
        let mut fps = Vec::new();
        sim.drive(Driver::Fair { seed: 5, max_steps: 2_000 }, &fd, |_| false, Some(&mut fps));
        assert!(!sim.trace().op_records().is_empty(), "no register operation ran");
        fps
    };
    let full = stream(TraceLevel::Full);
    assert!(!full.is_empty());
    assert_eq!(full, stream(TraceLevel::Light));
}

/// A deterministic LCG for the chain tests' choices.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A random legal choice at `s`, or `None` when nobody can step.
fn random_choice<A: Automaton>(s: &Simulation<A>, rng: &mut Lcg) -> Option<Choice> {
    let ready: Vec<ProcessId> = s.schedulable_set().iter().collect();
    if ready.is_empty() {
        return None;
    }
    let p = ready[rng.below(ready.len())];
    let pending = s.network().pending_count(p);
    let deliver = (pending > 0 && rng.below(4) > 0).then(|| rng.below(pending));
    Some(Choice { p, deliver })
}

/// Explorer-style materialization: each child is a recycled buffer
/// `clone_from` a random earlier state, then one or two steps. Parents
/// are sometimes left unfingerprinted, so dirty words ride along the
/// clone; every fingerprinted child must match a from-scratch hash.
fn assert_incremental_chains<A, D>(root: Simulation<A>, fd: &D, seed: u64)
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
{
    let mut rng = Lcg(seed);
    let mut states = vec![root];
    let mut spare: Vec<Simulation<A>> = Vec::new();
    let mut checked = 0;
    for _ in 0..600 {
        let parent = rng.below(states.len());
        let mut child = match spare.pop() {
            Some(mut buf) => {
                buf.clone_from(&states[parent]);
                buf
            }
            None => states[parent].clone(),
        };
        for _ in 0..1 + rng.below(2) {
            if let Some(c) = random_choice(&child, &mut rng) {
                child.step(c, fd);
            }
        }
        if rng.below(4) > 0 {
            assert_incremental(&child);
            checked += 1;
        }
        if states.len() < 48 {
            states.push(child);
        } else {
            let victim = rng.below(states.len());
            spare.push(std::mem::replace(&mut states[victim], child));
        }
    }
    assert!(checked > 300, "too few checked children");
}

#[test]
fn clone_from_chains_fingerprint_incrementally() {
    let n = 3;
    let proposals = distinct_proposals(n);
    let pattern = FailurePattern::builder(n).crash_at(ProcessId(2), Time(20)).build();
    let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 2);
    for seed in 0..3 {
        assert_incremental_chains(
            sim(fig2_processes(&proposals), &pattern, &Reliable),
            &sigma,
            seed,
        );
        assert_incremental_chains(
            sim(fig2_processes(&proposals), &pattern, &lossy(n)),
            &sigma,
            seed,
        );
        let adversary = Adversary(all_links(n, MutationKind::Replay, 0), Armor::NONE);
        let procs = equivocator_processes(
            fig2_processes(&proposals),
            ProcessId(0),
            EQUIVOCATE,
            Armor::NONE,
        );
        assert_incremental_chains(sim(procs, &pattern, &adversary), &sigma, seed);
    }
    let (s, scripts) = two_writer_workload();
    let pattern = FailurePattern::all_correct(4);
    let adversary = Adversary(all_links(4, MutationKind::ForgeAck, 77), Armor::NONE);
    let procs =
        split_ack_processes(abd_processes(s, 4, scripts), ProcessId(3), SPLIT_ACK, Armor::NONE);
    assert_incremental_chains(sim(procs, &pattern, &adversary), &SigmaS::new(s, &pattern, 0), 7);
}

/// A pooled simulation keeps its cache buffers across `reset` — also to
/// another size, another pattern and from a faulty run to a reliable
/// one — and must never serve a word of the previous run.
#[test]
fn pooled_runs_fingerprint_incrementally_across_reset() {
    let (s, scripts) = two_writer_workload();
    let mut pool = SimPool::with_trace_level(TraceLevel::Light);
    let runs: [(usize, Option<Time>, bool); 5] = [
        (3, None, true),
        (3, None, false),
        (4, Some(Time(9)), false),
        (4, Some(Time(9)), true),
        (3, Some(Time(4)), false),
    ];
    for (i, &(n, crash, faulty)) in runs.iter().enumerate() {
        let pattern = match crash {
            None => FailurePattern::all_correct(n),
            Some(t) => FailurePattern::builder(n).crash_at(ProcessId(2), t).build(),
        };
        let fd = SigmaS::new(s, &pattern, 0);
        let sim = pool.acquire(abd_processes(s, n, scripts.clone()), &pattern);
        assert_incremental(sim);
        if faulty {
            sim.set_link_faults(lossy(n));
        }
        let mut fps = Vec::new();
        let stop = |s: &Simulation<_>| {
            assert_incremental(s);
            false
        };
        sim.drive(Driver::Fair { seed: i as u64, max_steps: 300 }, &fd, stop, Some(&mut fps));
        assert!(fps.len() > 40, "run {i} barely moved ({} steps)", fps.len());
        assert_incremental(sim);
    }
}

/// Installing or removing a plan mid-run changes what the process words
/// cover; every later fingerprint must still match a from-scratch one.
#[test]
fn plan_changes_mid_run_fingerprint_incrementally() {
    let n = 3;
    let (s, scripts) = two_writer_workload();
    let pattern = FailurePattern::all_correct(n);
    let fd = SigmaS::new(s, &pattern, 0);
    let mut sim = Simulation::new(abd_processes(s, n, scripts), pattern);
    let mut steps = Vec::new();
    let mut leg = |sim: &mut Simulation<_>, seed: u64| {
        let mut fps = Vec::new();
        let stop = |s: &Simulation<_>| {
            assert_incremental(s);
            false
        };
        sim.drive(Driver::Fair { seed, max_steps: 30 }, &fd, stop, Some(&mut fps));
        assert_incremental(sim);
        steps.push(fps.len());
    };
    leg(&mut sim, 0);
    sim.set_link_faults(lossy(n));
    assert_incremental(&sim);
    leg(&mut sim, 1);
    sim.set_adversary(all_links(n, MutationKind::Replay, 0), Armor::NONE);
    assert_incremental(&sim);
    leg(&mut sim, 2);
    assert!(sim.take_adversary().is_some());
    assert_incremental(&sim);
    leg(&mut sim, 3);
    sim.set_adversary(all_links(n, MutationKind::ForgeAck, 5), Armor::NONE);
    leg(&mut sim, 4);
    // The last leg may finish the workload; the others run in full.
    assert!(steps[..4] == [30; 4] && steps[4] > 0, "a leg stopped early: {steps:?}");
}

/// Explores `root` under `cfg` serially and through `explore_par` at 2
/// threads with frontier depths 0 and 2, checking the incremental
/// fingerprint against a from-scratch one at every visited state. The
/// explorer moves each expanded state into its last child, so this
/// covers states that were stepped in place as well as copied ones.
/// All three runs must agree on every counter, and the caller's root
/// must come back untouched.
fn assert_explored_incrementally<A, D>(root: &Simulation<A>, fd: &D, cfg: ExploreConfig)
where
    A: Automaton + Clone + fmt::Debug + Send,
    D: FailureDetector + Sync,
{
    let (fp, steps) = (root.fingerprint_uncached(), root.trace().events().len());
    let checked = |s: &Simulation<A>| {
        assert_incremental(s);
        Ok(())
    };
    let mut visits = 0u64;
    let serial = explore_with(root, fd, &cfg, &mut |s| {
        visits += 1;
        checked(s)
    });
    assert!(serial.ok(), "{serial:?}");
    assert_eq!(visits, serial.states, "the check runs once per visited state");
    assert!(serial.states > 100, "too small to exercise the edges: {serial:?}");
    for frontier in [0, 2] {
        let par = explore_par(root, fd, &cfg.threads(2).frontier_depth(frontier), || checked);
        assert_eq!(par, serial, "frontier {frontier}");
    }
    assert_eq!(root.fingerprint_uncached(), fp, "exploration changed the caller's root");
    assert_eq!(root.fingerprint(), fp);
    assert_eq!(root.trace().events().len(), steps);
}

#[test]
fn explored_states_fingerprint_incrementally_after_parent_moves() {
    for (n, depth) in [(3, 7), (4, 5)] {
        let proposals = distinct_proposals(n);
        let pattern = FailurePattern::all_correct(n);
        let sigma = Sigma::new(ProcessId(0), ProcessId(1), &pattern, 0);
        let root = Simulation::new(fig2_processes(&proposals), pattern.clone());
        assert_explored_incrementally(&root, &sigma, ExploreConfig::new(depth));
        assert_explored_incrementally(&root, &sigma, ExploreConfig::new(depth).dpor(true));
    }

    // ABD over lossy links: under dpor from the initial state, and under
    // sleep sets from a root one step in, with messages already pending.
    let n = 3;
    let (s, scripts) = two_writer_workload();
    let pattern = FailurePattern::all_correct(n);
    let sigma_s = SigmaS::new(s, &pattern, 0);
    let mut root = sim(abd_processes(s, n, scripts), &pattern, &lossy(n));
    assert_explored_incrementally(&root, &sigma_s, ExploreConfig::new(5).dpor(true));
    root.step(Choice { p: ProcessId(0), deliver: None }, &sigma_s);
    assert!(root.network().in_flight() > 0);
    assert_explored_incrementally(&root, &sigma_s, ExploreConfig::new(5));
}

/// A dpor root may already have messages pending: the happens-before
/// shadow starts with one zero stamp per pending message, so exploring
/// ABD over lossy links one step in neither panics nor disagrees with
/// the sleep-set engine, serially or through `explore_par`.
#[test]
fn dpor_explores_from_a_root_with_pending_messages() {
    let n = 3;
    let (s, scripts) = two_writer_workload();
    let pattern = FailurePattern::all_correct(n);
    let sigma_s = SigmaS::new(s, &pattern, 0);
    let mut root = sim(abd_processes(s, n, scripts), &pattern, &lossy(n));
    root.step(Choice { p: ProcessId(0), deliver: None }, &sigma_s);
    assert!(root.network().in_flight() > 0);
    let check = || {
        |s: &Simulation<_>| {
            check_linearizable(&s.trace().op_records(), None).map_err(|e| e.to_string())
        }
    };
    let por = explore_with(&root, &sigma_s, &ExploreConfig::new(6), &mut check());
    let cfg = ExploreConfig::new(6).dpor(true);
    let dpor = explore_with(&root, &sigma_s, &cfg, &mut check());
    assert_eq!(dpor.ok(), por.ok(), "{por:?}\n{dpor:?}");
    assert_eq!(explore_par(&root, &sigma_s, &cfg.threads(2), check), dpor);
}

// ---- message payloads ------------------------------------------------------

fn structural<T: StateHash + ?Sized>(v: &T) -> u64 {
    let mut h = StateHasher::new();
    h.write(v);
    h.finish()
}

/// Over every pair of `values`: equal structural hashes coincide with
/// equal `Debug` renderings (and, with `ord`, so does `Ord` equality).
fn assert_debug_classes<T: StateHash + fmt::Debug>(
    values: &[T],
    ord: Option<fn(&T, &T) -> Ordering>,
) {
    assert!(values.len() > 1);
    let mut equal_pairs = 0;
    for a in values {
        for b in values {
            let debug_eq = format!("{a:?}") == format!("{b:?}");
            assert_eq!(structural(a) == structural(b), debug_eq, "hash: {a:?} vs {b:?}");
            if let Some(cmp) = ord {
                assert_eq!(cmp(a, b) == Ordering::Equal, debug_eq, "ord: {a:?} vs {b:?}");
            }
            equal_pairs += usize::from(debug_eq);
        }
    }
    // Each value is listed twice, so equal pairs are checked too.
    assert!(equal_pairs >= 2 * values.len(), "no equal pairs among {values:?}");
}

fn assert_payload_classes<M: StateHash + Ord + fmt::Debug>(values: &[M]) {
    assert_debug_classes(values, Some(M::cmp));
}

/// Every value of `gen`, twice over (built independently each time).
fn twice<M>(gen: impl Fn() -> Vec<M>) -> Vec<M> {
    let mut v = gen();
    v.extend(gen());
    v
}

fn values() -> Vec<Value> {
    (0..3).map(Value).collect()
}

fn opt_values() -> Vec<Option<Value>> {
    std::iter::once(None).chain(values().into_iter().map(Some)).collect()
}

fn pids() -> Vec<ProcessId> {
    (0..3).map(ProcessId).collect()
}

fn fig2_msgs() -> Vec<Fig2Msg> {
    let mut v: Vec<Fig2Msg> = values().into_iter().map(Fig2Msg::Decision).collect();
    v.extend(values().into_iter().map(Fig2Msg::Phase1));
    v.extend(opt_values().into_iter().map(Fig2Msg::Phase2));
    v
}

fn fig4_msgs() -> Vec<Fig4Msg> {
    let mut v: Vec<Fig4Msg> = values().into_iter().map(Fig4Msg::Decision).collect();
    for w in values() {
        v.extend(pids().into_iter().map(|p| Fig4Msg::Tagged(w, p)));
    }
    v
}

fn abd_msgs() -> Vec<AbdMsg> {
    let mut v = Vec::new();
    for tag in 0..2 {
        v.push(AbdMsg::Query { tag });
        v.push(AbdMsg::UpdateAck { tag });
        for num in 0..2 {
            for pid in 0..2 {
                let ts = Timestamp { num, pid };
                for w in opt_values() {
                    v.push(AbdMsg::QueryAck { tag, ts, v: w });
                    v.push(AbdMsg::Update { tag, ts, v: w });
                }
            }
        }
    }
    v
}

fn paxos_msgs() -> Vec<PaxosMsg> {
    let mut v = Vec::new();
    for bal in 0..3 {
        v.push(PaxosMsg::Prepare { bal });
        v.push(PaxosMsg::Nack { bal });
        v.push(PaxosMsg::Accepted { bal });
        v.push(PaxosMsg::Promise { bal, accepted: None });
        for w in values() {
            v.push(PaxosMsg::Accept { bal, v: w });
            v.push(PaxosMsg::Promise { bal, accepted: Some((bal, w)) });
        }
    }
    v.extend(values().into_iter().map(PaxosMsg::Decided));
    v
}

fn bridge_msgs() -> Vec<BridgeMsg> {
    let mut v = Vec::new();
    for tag in 0..2 {
        v.push(BridgeMsg::UpdateAck { tag });
        for reg in (0..2).map(RegisterId) {
            v.push(BridgeMsg::Query { reg, tag });
        }
        for (ts, pid) in [(0, 0), (0, 1), (1, 0)] {
            for w in opt_values() {
                v.push(BridgeMsg::QueryAck { tag, ts, pid, v: w });
                for reg in (0..2).map(RegisterId) {
                    v.push(BridgeMsg::Update { reg, tag, ts, pid, v: w });
                }
            }
        }
    }
    v
}

fn fig6_msgs() -> Vec<Fig6Msg> {
    let mut v: Vec<Fig6Msg> = pids().into_iter().map(Fig6Msg::NonActive).collect();
    v.extend(pids().into_iter().map(Fig6Msg::Active));
    v.push(Fig6Msg::Change);
    v
}

#[test]
fn every_message_type_hashes_and_orders_like_debug() {
    assert_payload_classes(&twice(fig2_msgs));
    assert_payload_classes(&twice(fig4_msgs));
    assert_payload_classes(&twice(abd_msgs));
    assert_payload_classes(&twice(paxos_msgs));
    assert_payload_classes(&twice(bridge_msgs));
    assert_payload_classes(&twice(fig6_msgs));
    assert_payload_classes(&twice(|| {
        let mut v: Vec<AblatedFig6Msg> = pids().into_iter().map(AblatedFig6Msg::Active).collect();
        v.extend(pids().into_iter().map(AblatedFig6Msg::NonActive));
        v
    }));
    assert_payload_classes(&twice(|| {
        (0..3).flat_map(|r| [QuorumMsg::Ping(r), QuorumMsg::Ack(r)]).collect::<Vec<_>>()
    }));
    assert_payload_classes(&twice(|| vec![GossipMsg::Ping, GossipMsg::Pong]));
    // The stack's wrappers, over the payloads they carry in this repo.
    assert_payload_classes(&twice(|| {
        let mut v: Vec<Layered<Fig6Msg, Fig2Msg>> =
            fig6_msgs().into_iter().map(Layered::Lower).collect();
        v.extend(fig2_msgs().into_iter().map(Layered::Upper));
        v
    }));
    assert_payload_classes(&twice(|| {
        let mut v: Vec<StubbornMsg<AbdMsg>> = (0..3).map(|cum| StubbornMsg::Ack { cum }).collect();
        for (seq, cum) in [(0, 0), (0, 1), (1, 0)] {
            v.extend(abd_msgs().into_iter().map(|payload| StubbornMsg::Data { seq, cum, payload }));
        }
        v
    }));
    // Plain payloads of the candidates, adversaries and toy workloads.
    assert_payload_classes(&twice(|| {
        pids().into_iter().flat_map(|p| values().into_iter().map(move |w| (p, w))).collect()
    }));
    assert_payload_classes(&twice(values));
    assert_payload_classes(&twice(pids));
    assert_payload_classes(&twice(|| vec![(), ()]));
    assert_payload_classes(&twice(|| vec![0u8, 1, 255]));
    assert_payload_classes(&twice(|| vec![0u64, 1, u64::MAX]));
    assert_payload_classes(&twice(|| vec!["", "a", "hello", "hello, world", "hello\0"]));
}

/// The content-ordered delivery menu at `to`: the sleep key and the
/// `(from, payload)` of each entry, in menu order.
fn menu_content<M: Clone + StateHash + Ord>(
    net: &Network<M>,
    to: ProcessId,
) -> Vec<(SleepKey, ProcessId, M)> {
    let mut menu = Vec::new();
    net.content_menu(to, &mut menu);
    menu.iter()
        .map(|&(fp, i)| {
            let env = net.pending(to).nth(i).expect("menu index in range");
            (SleepKey { p: to, deliver: Some(fp) }, env.from, env.payload.clone())
        })
        .collect()
}

#[test]
fn arrival_order_moves_neither_the_menu_nor_the_sleep_keys() {
    // Two senders, equal and unequal payloads, an exact duplicate.
    let sends = [
        (ProcessId(2), Fig2Msg::Phase1(Value(5))),
        (ProcessId(1), Fig2Msg::Phase2(None)),
        (ProcessId(1), Fig2Msg::Decision(Value(9))),
        (ProcessId(2), Fig2Msg::Phase1(Value(5))),
        (ProcessId(1), Fig2Msg::Phase1(Value(0))),
        (ProcessId(2), Fig2Msg::Phase2(Some(Value(1)))),
    ];
    let queue = |order: &[usize]| {
        let mut net = Network::new(3);
        for &i in order {
            let (from, m) = sends[i];
            net.send(from, ProcessId(0), Time(1), m);
        }
        net
    };
    let reference = menu_content(&queue(&[0, 1, 2, 3, 4, 5]), ProcessId(0));
    let from_payload: Vec<_> = reference.iter().map(|&(_, f, m)| (f, m)).collect();
    let mut sorted = from_payload.clone();
    sorted.sort();
    assert_eq!(from_payload, sorted, "the menu is not in (from, payload) order");
    for order in [[5, 4, 3, 2, 1, 0], [3, 1, 5, 0, 2, 4], [1, 2, 4, 0, 3, 5]] {
        assert_eq!(menu_content(&queue(&order), ProcessId(0)), reference, "order {order:?}");
    }
}

/// Sends two messages to `p0` on its first step (any process but `p0`).
#[derive(Clone, Debug, Default)]
struct Announce {
    sent: bool,
}

impl Automaton for Announce {
    type Msg = Fig2Msg;

    fn step(&mut self, input: StepInput<Fig2Msg>, eff: &mut Effects<Fig2Msg>) {
        if !self.sent && input.me != ProcessId(0) {
            self.sent = true;
            eff.send(ProcessId(0), Fig2Msg::Phase1(Value(u64::from(input.me.0) % 2)));
            eff.send(ProcessId(0), Fig2Msg::Decision(Value(7)));
        }
    }

    fn hash_state(&self, h: &mut StateHasher) {
        h.write(&self.sent);
    }
}

#[test]
fn arrival_permuted_roots_explore_identically() {
    let n = 4;
    let pattern = FailurePattern::all_correct(n);
    let root = |order: [u32; 3]| {
        let mut s = Simulation::new(vec![Announce::default(); n], pattern.clone());
        for p in order {
            s.step(Choice { p: ProcessId(p), deliver: None }, &NoDetector);
        }
        s
    };
    let a = root([1, 2, 3]);
    let b = root([3, 1, 2]);
    let arrivals = |s: &Simulation<Announce>| -> Vec<_> {
        s.network().pending(ProcessId(0)).map(|e| (e.from, *e.payload)).collect()
    };
    assert_ne!(arrivals(&a), arrivals(&b), "the roots must differ in arrival order");
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(menu_content(a.network(), ProcessId(0)), menu_content(b.network(), ProcessId(0)));
    for cfg in [ExploreConfig::new(6), ExploreConfig::new(6).max_deliveries(2)] {
        let mut ok = |_: &Simulation<Announce>| Ok(());
        let ra = explore_with(&a, &NoDetector, &cfg, &mut ok);
        let rb = explore_with(&b, &NoDetector, &cfg, &mut ok);
        assert!(ra.states > 50, "too small: {ra:?}");
        assert_eq!(
            (ra.states, ra.deduped, ra.pruned, ra.terminals, ra.truncated),
            (rb.states, rb.deduped, rb.pruned, rb.terminals, rb.truncated)
        );
    }
}

#[test]
fn fault_plans_hash_like_debug() {
    let links = || {
        let mut b = LinkFaultPlan::builder(3);
        let mut plans = vec![b.clone().build(), LinkFaultPlan::reliable(2), lossy(3)];
        b = b.drop_link(ProcessId(0), ProcessId(1), Time(0), Some(Time(30)));
        plans.push(b.clone().build());
        plans.push(
            b.clone().duplicate_every(ProcessId(1), ProcessId(2), 2, 1, Time(0), None).build(),
        );
        plans.push(b.drop_link(ProcessId(0), ProcessId(1), Time(0), None).build());
        plans
    };
    assert_debug_classes(&twice(links), None);
    let adversaries = || {
        let mut plans = vec![AdversaryPlan::honest(3), AdversaryPlan::honest(4)];
        for kind in [MutationKind::Flip, MutationKind::Replay, MutationKind::ForgeAck] {
            for x in [0, 7] {
                plans.push(all_links(3, kind, x));
            }
        }
        plans
    };
    assert_debug_classes(&twice(adversaries), None);
}
