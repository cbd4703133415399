//! Structural state hashing against the `Debug` encoding it replaced.
//!
//! `Automaton::hash_state` must split states into exactly the classes
//! their `Debug` renderings do: the explorer's dedup and the fuzzer's
//! coverage consume nothing but fingerprint equality. [`DebugOnly`]
//! forwards every automaton method except `hash_state`, so it takes the
//! trait's `Debug` default; every workload below runs both ways and must
//! agree on every explorer counter and on the equality classes of the
//! per-step fingerprints of fair runs.

use sih::agreement::{
    check_k_agreement_safety, distinct_proposals, equivocator_processes, fig2_processes,
    fig4_processes, paxos_processes, Fig2WithoutPhase2,
};
use sih::detectors::{AntiOmega, Omega, QuorumSigma, Sigma, SigmaK, SigmaS, WeakSigmaS};
use sih::model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailureDetector, FailurePattern, FdOutput,
    LinkFaultPlan, MutationKind, MutationWindow, NoDetector, ProcessId, ProcessSet, Time,
};
use sih::reductions::{
    fig3_processes, fig5_processes, fig6_processes, AntiOmegaAgreementCandidate, Fig6WithoutChange,
    GossipPairCandidate, MirrorPairCandidate, MirrorXCandidate, QuorumMinXCandidate,
    SelfQuietCandidate, Theorem13Transform,
};
use sih::registers::{
    abd_processes, check_linearizable, split_ack_processes, two_writer_workload, SigmaExtractor,
};
use sih::runtime::{
    explore_with, stubborn_processes, Automaton, Corruptible, Driver, Effects, ExploreConfig,
    Simulation, Stacked, StateHasher, StepInput, Trace, TraceLevel,
};
use sih::sharedmem::{bridged_processes, CollectMin};
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

/// Each fingerprint replaced by the index of its first occurrence: two
/// streams split their steps into the same classes iff these are equal.
fn classes(fps: &[u64]) -> Vec<usize> {
    let mut first = BTreeMap::new();
    fps.iter().enumerate().map(|(i, fp)| *first.entry(*fp).or_insert(i)).collect()
}

/// The per-step fingerprints of fair runs over seeds `0..8`, one stream
/// (so states shared across seeds land in one class); `inspect` sees the
/// simulation before every step.
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

/// `Trace::fingerprint_into` promises the same fingerprint at every
/// trace level; the running op-event hash must keep that promise.
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
