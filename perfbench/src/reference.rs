//! A fixed reference kernel that measures how fast the machine runs at
//! the moment, so that a run's times can be rescaled to one nominal speed.
//!
//! The benchmark runs on shared machines whose speed drifts with the
//! neighbours' load: on the 2-vCPU VM it was tuned on, every workload
//! slowed by up to 1.75× for minutes at a time, far more than any per-run
//! median can absorb. A run's times are therefore multiplied by
//! `NOMINAL_S / r`, where `r` is the median reference time measured
//! between the run's units. The kernel is the benchmark's own code and
//! mixes what the workloads do (ordered-set churn, `Debug` formatting
//! into a hash, queue and array traffic), so a change to the program
//! under test cannot move it, while contention slows it like the
//! workloads.

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// The reference time that corresponds to the nominal speed, in seconds
/// (about the kernel's median on the tuning VM).
pub const NOMINAL_S: f64 = 0.0055;

/// Kernel repetitions per measurement; the median is taken.
const REPS: usize = 5;

/// The kernel's reusable buffers, allocated once so that a measurement
/// times computation rather than page faults, and small (256 KiB) so that
/// they barely add to the workloads' peak resident set.
pub struct Reference {
    cells: Vec<u64>,
    text: String,
}

impl Default for Reference {
    fn default() -> Self {
        Reference { cells: vec![0; 1 << 15], text: String::new() }
    }
}

impl Reference {
    /// The median time of [`REPS`] kernel runs, in seconds.
    pub fn measure(&mut self) -> f64 {
        let mut times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.kernel());
                t.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[REPS / 2]
    }

    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut set = BTreeSet::new();
        for _ in 0..12_000 {
            set.insert(next() % 30_000);
        }
        let mut found = 0u64;
        for _ in 0..12_000 {
            found += u64::from(set.contains(&(next() % 30_000)));
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..6_000u64 {
            self.text.clear();
            let _ = write!(self.text, "{:?}", (i, Some(i * 3), [i as u32; 3]));
            for b in self.text.bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let mut queue = VecDeque::with_capacity(1024);
        let mask = self.cells.len() - 1;
        for _ in 0..60_000 {
            queue.push_back(next());
            if queue.len() > 1000 {
                let a = queue.pop_front().expect("queue holds 1001 values") as usize;
                self.cells[a & mask] += 1;
            }
        }
        found ^ hash ^ self.cells[7]
    }
}
