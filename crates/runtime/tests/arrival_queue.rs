//! Edge-case and property coverage for the [`Network`] arrival queues
//! (one ring buffer per destination): empty-queue delivery, delivery
//! after a queue drains and refills, and `oldest_sent_at` monotonicity,
//! cross-checked against a naive `Vec` reference model under
//! arbitrary-index deliveries, link-fault duplicate copies and
//! `clone_from` copies.

use proptest::prelude::*;
use sih_model::{FailurePattern, LinkFaultPlan, ProcessId, Time};
use sih_runtime::{Automaton, Effects, Network, Simulation, StepInput};

const P0: ProcessId = ProcessId(0);

#[test]
#[should_panic(expected = "delivery index")]
fn delivering_from_an_empty_queue_panics() {
    let mut net: Network<u8> = Network::new(2);
    net.deliver(P0, 0);
}

#[test]
#[should_panic(expected = "delivery index")]
fn delivering_past_the_alive_count_panics() {
    let mut net: Network<u8> = Network::new(2);
    net.send(ProcessId(1), P0, Time(1), 7);
    net.deliver(P0, 1);
}

/// Drains 100-deep queues from both ends, then refills each after it has
/// gone empty (so the ring buffer's head has moved and its slots wrap),
/// and checks FIFO payload order throughout.
#[test]
fn delivery_survives_full_tombstone_compaction_and_restart() {
    let mut net: Network<u32> = Network::new(2);
    for round in 0..3u32 {
        let base = round * 1000;
        for i in 0..100u32 {
            net.send(ProcessId(1), P0, Time(u64::from(round) + 1), base + i);
        }
        assert_eq!(net.pending_count(P0), 100);
        // Alternate oldest / youngest so both the front pop and the
        // arbitrary-index removal run.
        let mut expected: Vec<u32> = (base..base + 100).collect();
        while !expected.is_empty() {
            let idx = if expected.len().is_multiple_of(2) { 0 } else { expected.len() - 1 };
            let env = net.deliver(P0, idx);
            assert_eq!(env.payload, expected.remove(idx));
            // The queue's alive view must match the reference exactly.
            let alive: Vec<u32> = net.pending(P0).map(|e| *e.payload).collect();
            assert_eq!(alive, expected);
        }
        assert_eq!(net.pending_count(P0), 0);
        assert_eq!(net.oldest_sent_at(P0), None);
    }
    assert_eq!(net.delivered_count(), 300);
}

#[derive(Clone, Debug)]
enum Op {
    /// Send with this time increment (0 = same instant as the last send).
    Send(u64),
    /// Send on the duplicating link p2 → p0 with this time increment:
    /// two copies sharing one id.
    SendDup(u64),
    /// Deliver the op-th pending message, modulo the current queue length.
    Deliver(usize),
    /// Carry on with a `clone_from` copy of the network, made into a
    /// network of this many processes already holding other messages.
    CloneInto(usize),
}

/// Sends and deliveries four times as often as duplicated sends and
/// copies.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0usize..128).prop_map(|(kind, x)| match kind {
        0..=3 => Op::Send(x as u64 % 3),
        4 => Op::SendDup(x as u64 % 3),
        5..=8 => Op::Deliver(x),
        _ => Op::CloneInto(1 + x % 4),
    })
}

/// A process that never acts: a simulation of these only hosts the
/// network whose running queue sum the property switches on.
#[derive(Clone, Debug)]
struct Idle;

impl Automaton for Idle {
    type Msg = u64;
    fn step(&mut self, _: StepInput<u64>, _: &mut Effects<u64>) {}
}

/// A 3-process network whose link p2 → p0 duplicates every send, with
/// the running queue sum on (a state fingerprint switches it on, and
/// clones carry it).
fn duplicating_network() -> Network<u64> {
    let plan =
        LinkFaultPlan::builder(3).duplicate_every(ProcessId(2), P0, 1, 0, Time(0), None).build();
    let mut sim = Simulation::new(vec![Idle; 3], FailurePattern::all_correct(3));
    sim.set_link_faults(plan);
    sim.fingerprint();
    sim.network().clone()
}

/// A network over `n` processes that already holds `2n + 1` messages
/// (queues of unequal depth) and has delivered one from the middle of a
/// queue: the target a `clone_from` must fully overwrite.
fn dirtied(n: usize) -> Network<u64> {
    let mut net = Network::new(n);
    for i in 0..2 * n as u64 + 1 {
        let to = ProcessId((i * i % n as u64) as u32);
        net.send(ProcessId(0), to, Time(i), 1_000 + i);
    }
    let deepest = (0..n as u32).map(ProcessId).max_by_key(|&p| net.pending_count(p)).unwrap();
    net.deliver(deepest, net.pending_count(deepest) / 2);
    net
}

/// Each queue's pending `(id, sender, send time, payload)`s, then sent,
/// delivered, dropped, duplicated, mutated, forged and armored, then
/// the in-flight total.
type PublicView = (Vec<Vec<(u64, ProcessId, Time, u64)>>, [u64; 7], usize);

/// Everything the public API shows of a network.
fn public_view(net: &Network<u64>) -> PublicView {
    let queues = (0..net.n() as u32)
        .map(|p| {
            net.pending(ProcessId(p)).map(|e| (e.id.0, e.from, e.sent_at, *e.payload)).collect()
        })
        .collect();
    let counters = [
        net.sent_count(),
        net.delivered_count(),
        net.dropped_count(),
        net.duplicated_count(),
        net.mutated_count(),
        net.forged_count(),
        net.armored_count(),
    ];
    (queues, counters, net.in_flight())
}

proptest! {
    /// Under arbitrary interleavings of sends, duplicated sends,
    /// arbitrary-index deliveries and `clone_from` copies:
    /// * the queue agrees with a naive Vec reference model,
    /// * a `clone_from` into a network of other size and depth equals a
    ///   fresh `clone` in every pending view, counter and the running
    ///   queue sum,
    /// * `oldest_sent_at` is exactly the reference front's send time, and
    /// * it never decreases while the queue stays nonempty (delivering
    ///   the front only ever exposes a later-or-equal arrival).
    #[test]
    fn oldest_sent_at_is_monotone_and_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut net = duplicating_network();
        let mut reference: Vec<(u64, Time, u64)> = Vec::new(); // (id, sent_at, payload)
        let mut now = Time(0);
        let mut next_payload = 0u64;
        let mut last_oldest: Option<Time> = None;
        for op in ops {
            match op {
                Op::Send(dt) => {
                    now = Time(now.0 + dt);
                    let id = net.send(ProcessId(1), P0, now, next_payload);
                    reference.push((id.0, now, next_payload));
                    next_payload += 1;
                }
                Op::SendDup(dt) => {
                    now = Time(now.0 + dt);
                    let id = net.send(ProcessId(2), P0, now, next_payload);
                    reference.push((id.0, now, next_payload));
                    reference.push((id.0, now, next_payload));
                    next_payload += 1;
                }
                Op::Deliver(raw) => {
                    if reference.is_empty() {
                        continue;
                    }
                    let idx = raw % reference.len();
                    let env = net.deliver(P0, idx);
                    let (id, sent_at, payload) = reference.remove(idx);
                    prop_assert_eq!(env.id.0, id);
                    prop_assert_eq!(env.payload, payload);
                    prop_assert_eq!(env.sent_at, sent_at);
                }
                Op::CloneInto(n) => {
                    let mut copy = dirtied(n);
                    copy.clone_from(&net);
                    let fresh = net.clone();
                    prop_assert_eq!(public_view(&copy), public_view(&fresh));
                    // `Debug` shows every slot (memoized fingerprints
                    // included), the installed plan, the per-link
                    // counters and the running queue sum.
                    prop_assert_eq!(format!("{copy:?}"), format!("{fresh:?}"));
                    net = copy;
                }
            }
            let pending: Vec<(u64, Time, u64)> =
                net.pending(P0).map(|e| (e.id.0, e.sent_at, *e.payload)).collect();
            prop_assert_eq!(&pending, &reference);
            prop_assert_eq!(net.pending_count(P0), reference.len());
            prop_assert_eq!(
                net.sent_count(),
                net.delivered_count() + net.in_flight() as u64,
                "every copy is counted once"
            );
            let oldest = net.oldest_sent_at(P0);
            prop_assert_eq!(oldest, reference.first().map(|&(_, t, _)| t));
            if let (Some(prev), Some(cur)) = (last_oldest, oldest) {
                prop_assert!(cur >= prev, "oldest_sent_at went backwards: {cur:?} < {prev:?}");
            }
            last_oldest = oldest;
            // oldest_index is always the front of the alive sequence.
            if let Some(&(_, _, payload)) = reference.first() {
                prop_assert_eq!(net.oldest_index(P0), Some(0));
                prop_assert_eq!(net.pending(P0).next().map(|e| *e.payload), Some(payload));
            } else {
                prop_assert_eq!(net.oldest_index(P0), None);
            }
        }
    }
}
