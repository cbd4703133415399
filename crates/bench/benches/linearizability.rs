//! Bench: the linearizability checker — cost vs history length and
//! contention (the E11 verification-side series). ABD histories write
//! unique values, so every size takes the cluster check; the largest
//! (≥10³ operations) is far past the fallback search's `MAX_OPS`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sih::model::{FailurePattern, ProcessId, ProcessSet};
use sih::pipeline;
use sih::registers::{check_linearizable, WorkloadSpec};
use std::hint::black_box;

fn bench_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearizability_checker");
    group.sample_size(10);
    for ops_per in [2usize, 4, 8, 340] {
        // Pre-generate one history per size, then bench only the checker.
        let s: ProcessSet = (0..3u32).map(ProcessId).collect();
        let f = FailurePattern::all_correct(4);
        let spec = WorkloadSpec { ops_per_process: ops_per, read_ratio: 0.5, seed: 5 };
        let (_, ops) = pipeline::run_register_workload(&f, s, spec.scripts(s), 5, 800_000);
        let total = ops.len();
        group.bench_with_input(BenchmarkId::new("check", total), &ops, |b, ops| {
            b.iter(|| black_box(check_linearizable(ops, None)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checker);
criterion_main!(benches);
