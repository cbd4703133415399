//! Bench: the parallel sweep engine vs the serial loop on an E1-shaped
//! workload, plus the `Network` arrival-queue rewrite vs the naive
//! `Vec::remove` queue it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sih::model::{FailurePattern, ProcessId, ProcessSet, Time};
use sih::patterns::pattern_suite;
use sih::pipeline;
use sih::runtime::sweep::{with_seeds, Sweep};
use sih::runtime::TraceLevel;
use std::hint::black_box;

/// The E1-shaped grid: Figure 2 across a pattern suite × seeds, the
/// workload `sih-lab`'s experiment E1 fans out per system size.
fn e1_grid(n: usize, seeds: u64) -> Vec<(FailurePattern, u64)> {
    let focus = ProcessSet::from_iter([ProcessId(0), ProcessId(1)]);
    with_seeds(&pattern_suite(n, focus, 3, 101), seeds)
}

fn run_e1_sweep(grid: Vec<(FailurePattern, u64)>, threads: usize) -> u64 {
    let (p, q) = (ProcessId(0), ProcessId(1));
    Sweep::new(threads)
        .run(grid, || {
            let mut pool = pipeline::Fig2Pool::with_trace_level(TraceLevel::Light);
            move |_idx, (pattern, seed): (FailurePattern, u64)| {
                let tr = pipeline::run_fig2_pooled(&mut pool, &pattern, p, q, seed, 60_000);
                tr.total_steps()
            }
        })
        .into_iter()
        .sum()
}

fn bench_sweep_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_e1_workload");
    group.sample_size(10);
    // Big enough that each job is real work (Figure 2 at n = 16,
    // ~25µs/run) and the grid dwarfs thread-spawn overhead. On a
    // single-core host this measures pure engine overhead; the ≥2×
    // speedup at 4 threads needs ≥4 cores.
    let grid = e1_grid(16, 16);
    group.throughput(Throughput::Elements(grid.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            b.iter(|| black_box(run_e1_sweep(grid.clone(), threads)));
        });
    }
    group.finish();
}

/// The first `Network` queue: a plain `Vec` with `remove(index)` for
/// delivery and full scans for the oldest message — kept here as the
/// baseline for the front-ordered arrival queue.
#[derive(Default)]
struct NaiveQueue {
    slots: Vec<(u64, Time)>,
}

impl NaiveQueue {
    fn push(&mut self, payload: u64, at: Time) {
        self.slots.push((payload, at));
    }
    fn oldest_sent_at(&self) -> Option<Time> {
        self.slots.iter().map(|&(_, t)| t).min()
    }
    fn deliver(&mut self, index: usize) -> (u64, Time) {
        self.slots.remove(index)
    }
    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Drives a queue through the access mix of one scheduler step: a send,
/// an oldest-message probe (what `FairScheduler` asks of the stepping
/// process through the scheduler view) and a front-of-queue delivery.
fn bench_delivery(c: &mut Criterion) {
    use sih::runtime::Network;
    let mut group = c.benchmark_group("network_deliver");
    const OPS: u64 = 10_000;
    group.throughput(Throughput::Elements(OPS));
    for backlog in [64usize, 1024] {
        group.bench_with_input(
            BenchmarkId::new("arrival_queue", backlog),
            &backlog,
            |b, &backlog| {
                b.iter(|| {
                    let mut net: Network<u64> = Network::new(1);
                    let to = ProcessId(0);
                    for i in 0..backlog as u64 {
                        net.send(to, to, Time(i), i);
                    }
                    let mut acc = 0u64;
                    for i in 0..OPS {
                        net.send(to, to, Time(backlog as u64 + i), i);
                        acc += net.oldest_sent_at(to).map_or(0, |t| t.0);
                        let env = net.deliver(to, 0);
                        acc = acc.wrapping_add(env.payload);
                    }
                    black_box(acc)
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("naive_vec", backlog), &backlog, |b, &backlog| {
            b.iter(|| {
                let mut q = NaiveQueue::default();
                for i in 0..backlog as u64 {
                    q.push(i, Time(i));
                }
                let mut acc = 0u64;
                for i in 0..OPS {
                    q.push(i, Time(backlog as u64 + i));
                    acc += q.oldest_sent_at().map_or(0, |t| t.0);
                    let (payload, _) = q.deliver(0);
                    acc = acc.wrapping_add(payload);
                }
                assert!(q.len() == backlog);
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_scaling, bench_delivery);
criterion_main!(benches);
