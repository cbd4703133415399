//! Register workload generation: random read/write scripts for the
//! members of `S`.

// sih-analysis: allow(float) — read_ratio is a single Bernoulli
// parameter fed to a seeded ChaCha8Rng; no accumulation, replay-safe.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sih_model::{OpKind, ProcessId, ProcessSet, Value};

/// The fixed two-writer workload of the fault and Byzantine tiers: `p0`
/// writes 1 then reads, `p1` reads, writes 2 and reads again. Two writers
/// let a tampered timestamp flip the apparent write order, which a
/// single-writer script could never expose. Returns the client set `S`
/// and one script per client.
pub fn two_writer_workload() -> (ProcessSet, Vec<Vec<OpKind>>) {
    let s = ProcessSet::from_iter([ProcessId(0), ProcessId(1)]);
    let scripts = vec![
        vec![OpKind::Write(Value(1)), OpKind::Read],
        vec![OpKind::Read, OpKind::Write(Value(2)), OpKind::Read],
    ];
    (s, scripts)
}

/// A reproducible register workload specification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Operations issued by each member of `S`.
    pub ops_per_process: usize,
    /// Fraction of operations that are reads (`0.0..=1.0`).
    pub read_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec { ops_per_process: 4, read_ratio: 0.5, seed: 0 }
    }
}

impl WorkloadSpec {
    /// Generates one script per member of `S` (in id order). Written
    /// values are globally unique across the workload so that every read
    /// is attributable.
    pub fn scripts(&self, s: ProcessSet) -> Vec<Vec<OpKind>> {
        assert!((0.0..=1.0).contains(&self.read_ratio), "read_ratio in [0,1]");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut next_value = 1u64;
        s.iter()
            .map(|_| {
                (0..self.ops_per_process)
                    .map(|_| {
                        if rng.gen_bool(self.read_ratio) {
                            OpKind::Read
                        } else {
                            let v = Value(next_value);
                            next_value += 1;
                            OpKind::Write(v)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_model::ProcessId;

    fn s3() -> ProcessSet {
        ProcessSet::from_iter([0, 1, 2].map(ProcessId))
    }

    #[test]
    fn scripts_have_requested_shape() {
        let spec = WorkloadSpec { ops_per_process: 5, read_ratio: 0.5, seed: 1 };
        let scripts = spec.scripts(s3());
        assert_eq!(scripts.len(), 3);
        assert!(scripts.iter().all(|s| s.len() == 5));
    }

    #[test]
    fn written_values_are_globally_unique() {
        let spec = WorkloadSpec { ops_per_process: 10, read_ratio: 0.3, seed: 2 };
        let mut written: Vec<Value> = spec
            .scripts(s3())
            .into_iter()
            .flatten()
            .filter_map(|op| match op {
                OpKind::Write(v) => Some(v),
                OpKind::Read => None,
            })
            .collect();
        let before = written.len();
        written.sort_unstable();
        written.dedup();
        assert_eq!(written.len(), before);
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = WorkloadSpec { ops_per_process: 6, read_ratio: 0.5, seed: 42 };
        assert_eq!(spec.scripts(s3()), spec.scripts(s3()));
    }

    #[test]
    fn extreme_ratios() {
        let all_reads = WorkloadSpec { ops_per_process: 4, read_ratio: 1.0, seed: 0 };
        assert!(all_reads.scripts(s3()).iter().flatten().all(|op| *op == OpKind::Read));
        let all_writes = WorkloadSpec { ops_per_process: 4, read_ratio: 0.0, seed: 0 };
        assert!(all_writes.scripts(s3()).iter().flatten().all(|op| matches!(op, OpKind::Write(_))));
    }

    #[test]
    #[should_panic(expected = "read_ratio")]
    fn invalid_ratio_rejected() {
        let spec = WorkloadSpec { ops_per_process: 1, read_ratio: 1.5, seed: 0 };
        let _ = spec.scripts(s3());
    }
}
