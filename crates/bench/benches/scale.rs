//! Bench: the large-`n` scaling primitives — batched fan-out vs
//! per-recipient sends on the network, queue delivery at depth, and
//! `ProcSet` word-parallel set algebra vs `BTreeSet<ProcessId>`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sih::model::{ProcSet, ProcessId, Time};
use sih::runtime::Network;
use std::collections::BTreeSet;
use std::hint::black_box;

/// One payload fanned out to every process: one `broadcast` call
/// filling `n` queue slots vs the equivalent per-recipient `send` loop.
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_fanout");
    for n in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        let payload: [u64; 4] = [1, 2, 3, 4];
        group.bench_with_input(BenchmarkId::new("broadcast", n), &n, |b, &n| {
            b.iter(|| {
                let mut net: Network<[u64; 4]> = Network::new(n);
                black_box(net.broadcast(ProcessId(0), Time(1), payload, n, None))
            });
        });
        group.bench_with_input(BenchmarkId::new("send_loop", n), &n, |b, &n| {
            b.iter(|| {
                let mut net: Network<[u64; 4]> = Network::new(n);
                for to in 0..n as u32 {
                    net.send(ProcessId(0), ProcessId(to), Time(1), payload);
                }
                black_box(net.sent_count())
            });
        });
    }
    group.finish();
}

/// FIFO delivery from a deep arrival queue (the ABD client draining `n`
/// acks): each delivery pops the front of the destination's ring
/// buffer in O(1).
fn bench_deliver(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_deliver");
    for depth in [1_000usize, 100_000] {
        group.throughput(Throughput::Elements(depth as u64));
        group.bench_with_input(BenchmarkId::new("drain_fifo", depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut net: Network<u64> = Network::new(2);
                for i in 0..depth {
                    net.send(ProcessId(0), ProcessId(1), Time(1), i as u64);
                }
                let mut sum = 0u64;
                for _ in 0..depth {
                    sum = sum.wrapping_add(net.deliver(ProcessId(1), 0).payload);
                }
                black_box(sum)
            });
        });
    }
    group.finish();
}

/// Quorum accumulation: insert `n` ack senders one by one, checking the
/// majority threshold after each — the ABD hot path. `ProcSet` is a word
/// array with a cached count; `BTreeSet<ProcessId>` is what it replaced.
fn bench_quorum_accumulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("quorum_accumulate");
    for n in [1_000usize, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        let majority = n / 2 + 1;
        group.bench_with_input(BenchmarkId::new("procset", n), &n, |b, &n| {
            b.iter(|| {
                let mut acks = ProcSet::with_capacity(n);
                let mut reached = 0usize;
                for i in 0..n as u32 {
                    acks.insert(ProcessId(i));
                    if acks.len() >= majority {
                        reached += 1;
                    }
                }
                black_box(reached)
            });
        });
        group.bench_with_input(BenchmarkId::new("btreeset", n), &n, |b, &n| {
            b.iter(|| {
                let mut acks: BTreeSet<ProcessId> = BTreeSet::new();
                let mut reached = 0usize;
                for i in 0..n as u32 {
                    acks.insert(ProcessId(i));
                    if acks.len() >= majority {
                        reached += 1;
                    }
                }
                black_box(reached)
            });
        });
    }
    group.finish();
}

/// Set algebra at width `n`: subset and intersection over every-other-
/// process sets — word-parallel in `ProcSet`, element-wise in `BTreeSet`.
fn bench_set_algebra(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_algebra");
    for n in [1_000usize, 100_000] {
        let evens_ps: ProcSet = {
            let mut s = ProcSet::with_capacity(n);
            (0..n as u32).step_by(2).for_each(|i| {
                s.insert(ProcessId(i));
            });
            s
        };
        let all_ps = ProcSet::full(n);
        let evens_bt: BTreeSet<ProcessId> = (0..n as u32).step_by(2).map(ProcessId).collect();
        let all_bt: BTreeSet<ProcessId> = (0..n as u32).map(ProcessId).collect();

        group.bench_with_input(BenchmarkId::new("procset_subset", n), &n, |b, _| {
            b.iter(|| black_box(evens_ps.is_subset(&all_ps) && !all_ps.is_subset(&evens_ps)));
        });
        group.bench_with_input(BenchmarkId::new("btreeset_subset", n), &n, |b, _| {
            b.iter(|| black_box(evens_bt.is_subset(&all_bt) && !all_bt.is_subset(&evens_bt)));
        });
        group.bench_with_input(BenchmarkId::new("procset_intersection", n), &n, |b, _| {
            b.iter(|| black_box(evens_ps.intersection(&all_ps).len()));
        });
        group.bench_with_input(BenchmarkId::new("btreeset_intersection", n), &n, |b, _| {
            b.iter(|| black_box(evens_bt.intersection(&all_bt).count()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fanout, bench_deliver, bench_quorum_accumulate, bench_set_algebra);
criterion_main!(benches);
