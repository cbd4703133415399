//! The metric catalogue, in `BENCHMARK.json` order, and the reduction of
//! a run's units to metric values.

use crate::reference::NOMINAL_S;
use crate::stats::{median, p99};
use crate::workloads::Unit;

/// End-to-end metrics (`--trace 0`): name and unit. `wall_s` and
/// `setup_s` are medians over the run's units, at the nominal machine
/// speed of [`crate::reference`].
pub const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.fingerprint.debug_encode_s", "s"),
    ("runtime.fingerprint.debug_encode_calls", "count"),
    ("runtime.fingerprint.call_ns", "ns"),
    ("runtime.fingerprint.replay_fp_share", "ratio"),
    ("runtime.fingerprint.wall_share", "ratio"),
    ("runtime.explore.states", "count"),
    ("runtime.explore.deduped", "count"),
    ("runtime.explore.pruned", "count"),
    ("runtime.explore.races", "count"),
    ("runtime.explore.terminals", "count"),
    ("runtime.explore.table_bytes", "bytes"),
    ("runtime.explore.dedup_ratio", "ratio"),
    ("runtime.explore.states_per_s", "1/s"),
    ("runtime.explore.self_s", "s"),
    ("lab.repro.replay_us_p50", "us"),
    ("lab.repro.replay_us_p99", "us"),
    ("lab.repro.fps_per_replay", "count"),
    ("lab.repro.shrink_rounds", "count"),
    ("runtime.fuzz.executed", "count"),
    ("runtime.fuzz.distinct_fps", "count"),
    ("runtime.fuzz.corpus_size", "count"),
    ("runtime.fuzz.violations", "count"),
    ("runtime.fuzz.novel_per_schedule", "ratio"),
    ("runtime.fuzz.mutate_ns", "ns"),
    ("runtime.fuzz.mutate_yield", "ratio"),
    ("runtime.fuzz.observe_ns_per_key", "ns"),
    ("automaton.step_s", "s"),
    ("automaton.steps", "count"),
    ("runtime.sim.runner_self_s", "s"),
    ("runtime.sim.steps_per_s", "1/s"),
    ("runtime.sim.heap_bytes_per_proc", "bytes"),
    ("runtime.network.sent", "count"),
    ("runtime.network.delivered", "count"),
    ("runtime.network.in_flight", "count"),
    ("runtime.network.dropped", "count"),
    ("runtime.network.mutated", "count"),
    ("detectors.queries", "count"),
    ("detectors.query_s", "s"),
    ("agreement.spec.check_s", "s"),
    ("agreement.spec.calls", "count"),
    ("registers.linearizability.check_s", "s"),
    ("registers.linearizability.check_ms_p50", "ms"),
    ("registers.linearizability.check_ms_p99", "ms"),
    ("registers.linearizability.ops_per_history", "count"),
    ("registers.linearizability.wall_share", "ratio"),
    ("pipeline.history_p50_ms", "ms"),
    ("pipeline.history_p99_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("machine.reference_ms", "ms"),
];

/// The process's peak resident set (`VmHWM`) in MiB; Linux only.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn pooled(units: &[Unit], f: impl Fn(&Unit) -> &[f64]) -> Vec<f64> {
    units.iter().flat_map(|u| f(u).iter().copied()).collect()
}

/// The units of one part of a run (untraced or traced) and the reference
/// times measured before, between and after them.
#[derive(Debug, Default)]
pub struct Phase {
    /// The units, in run order.
    pub units: Vec<Unit>,
    /// Reference-kernel times in seconds.
    pub reference_s: Vec<f64>,
}

impl Phase {
    /// The factor that rescales this phase's times to the nominal machine
    /// speed of [`crate::reference`].
    pub fn speed_scale(&self) -> f64 {
        NOMINAL_S / median(&self.reference_s)
    }

    /// Median unit wall time at the nominal speed.
    pub fn wall_s(&self) -> f64 {
        median(&self.units.iter().map(|u| u.wall_s).collect::<Vec<_>>()) * self.speed_scale()
    }

    /// Median set-up time at the nominal speed.
    pub fn setup_s(&self) -> f64 {
        median(&self.units.iter().map(|u| u.setup_s).collect::<Vec<_>>()) * self.speed_scale()
    }
}

/// End-to-end values from the untraced units, in [`END_TO_END`] order.
pub fn end_to_end(plain: &Phase, peak_rss_mib: f64) -> Vec<f64> {
    vec![plain.wall_s(), plain.setup_s(), peak_rss_mib]
}

/// Per-layer values, in [`PER_LAYER`] order: each traced unit's layer
/// value reduced by median, pooled percentiles, the per-history wall time
/// of the run's untraced units, the tracing overhead (both sides at the
/// nominal speed, since they ran at different times) and the reference
/// time the machine showed. Layer times are as measured, not rescaled.
pub fn per_layer(plain: &Phase, traced: &Phase) -> Vec<f64> {
    let check_ms = pooled(&traced.units, |u| &u.check_ms);
    let replay_us = pooled(&traced.units, |u| &u.replay_us);
    let history_ms = pooled(&plain.units, |u| &u.history_ms);
    let reference_ms: Vec<f64> =
        plain.reference_s.iter().chain(&traced.reference_s).map(|r| r * 1e3).collect();
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "registers.linearizability.check_ms_p50" => median(&check_ms),
            "registers.linearizability.check_ms_p99" => p99(&check_ms).unwrap_or(0.0),
            "lab.repro.replay_us_p50" => median(&replay_us),
            "lab.repro.replay_us_p99" => p99(&replay_us).unwrap_or(0.0),
            "pipeline.history_p50_ms" => median(&history_ms),
            "pipeline.history_p99_ms" => p99(&history_ms).unwrap_or(0.0),
            "trace.overhead_ratio" => traced.wall_s() / plain.wall_s(),
            "machine.reference_ms" => median(&reference_ms),
            _ => {
                let xs: Vec<f64> = traced
                    .units
                    .iter()
                    .filter_map(|u| u.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                    .collect();
                median(&xs)
            }
        })
        .collect()
}
