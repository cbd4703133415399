//! The benchmark at toy sizes: every workload passes its gates, a traced
//! unit reproduces the untraced unit's counters, the register gate
//! rejects a bad history, and `BENCHMARK.json` names exactly the metrics
//! and workloads the command prints.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::probe::Spans;
use perfbench::workloads::{register_history_failure, run_unit, Size, Workload};
use sih_model::{OpId, OpKind, OpRecord, ProcessId, Time, Value};
use sih_registers::{check_linearizable, LinearizabilityViolation};

/// Runs one untraced and one traced toy unit of `w` and checks both.
fn toy(w: Workload) -> (perfbench::workloads::Unit, perfbench::workloads::Unit) {
    let plain = run_unit(w, 3, &Size::TOY, None);
    let mut spans = Spans::default();
    let traced = run_unit(w, 3, &Size::TOY, Some(&mut spans));
    for u in [&plain, &traced] {
        assert!(u.attempted > 0, "{}: nothing attempted", w.name());
        assert!(u.failures.is_empty(), "{}: {:?}", w.name(), u.failures);
        assert!(!u.counters.is_empty());
        assert!(u.wall_s > 0.0);
    }
    assert_eq!(plain.counters, traced.counters, "{}: tracing changed the run", w.name());
    assert!(plain.layers.is_empty());
    assert!(!traced.layers.is_empty());
    assert!(!spans.spans().is_empty());
    for (name, _) in &traced.layers {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name} is not in PER_LAYER");
    }
    (plain, traced)
}

fn layer(u: &perfbench::workloads::Unit, name: &str) -> f64 {
    u.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).expect(name)
}

#[test]
fn explore_depth_4_is_safe_and_traced_transparently() {
    let (plain, traced) = toy(Workload::ExploreFig2);
    assert_eq!(plain.attempted, 1);
    assert!(layer(&traced, "runtime.explore.states") > 0.0);
    assert!(layer(&traced, "runtime.fingerprint.debug_encode_calls") > 0.0);
    assert!(layer(&traced, "detectors.queries") > 0.0);
    assert_eq!(layer(&traced, "agreement.spec.calls"), layer(&traced, "runtime.explore.states"));
}

#[test]
fn fuzz_budget_64_keeps_a_replaying_corpus() {
    let (plain, traced) = toy(Workload::FuzzWeak);
    assert_eq!(plain.attempted, 1);
    assert_eq!(layer(&traced, "runtime.fuzz.executed"), 64.0);
    assert!(layer(&traced, "runtime.fingerprint.replay_fp_share") > 0.0);
    assert!(!traced.replay_us.is_empty());
}

#[test]
fn scale_abd_at_n_1000_completes_four_operations() {
    let (plain, traced) = toy(Workload::ScaleAbd);
    assert!(plain.counters.contains(&("registers.ops_complete", 4)));
    assert_eq!(layer(&traced, "runtime.fingerprint.debug_encode_calls"), 0.0);
    assert!(layer(&traced, "automaton.steps") > 0.0);
}

#[test]
fn ten_register_histories_are_linearizable() {
    let (plain, traced) = toy(Workload::RegisterLin);
    assert_eq!(plain.attempted, 10);
    assert_eq!(plain.history_ms.len(), 10);
    assert_eq!(traced.check_ms.len(), 10);
    assert_eq!(layer(&traced, "registers.linearizability.ops_per_history"), 56.0);
}

#[test]
fn the_same_seed_gives_the_same_counters() {
    for w in Workload::ALL {
        let a = run_unit(w, 5, &Size::TOY, None);
        let b = run_unit(w, 5, &Size::TOY, None);
        assert_eq!(a.counters, b.counters, "{}", w.name());
    }
}

fn op(id: u64, p: u32, kind: OpKind, invoked: u64, returned: u64, read: Option<u64>) -> OpRecord {
    OpRecord {
        id: OpId(id),
        process: ProcessId(p),
        kind,
        invoked: Time(invoked),
        returned: Some(Time(returned)),
        read_value: read.map(Value),
    }
}

#[test]
fn register_gate_fails_a_stale_read() {
    // p0 writes 1 and returns; only afterwards p1 reads, and gets the
    // initial value back.
    let ops =
        vec![op(0, 0, OpKind::Write(Value(1)), 1, 2, None), op(1, 1, OpKind::Read, 3, 4, None)];
    let lin = check_linearizable(&ops, None);
    assert!(matches!(lin, Err(LinearizabilityViolation::NotLinearizable { .. })));
    assert!(register_history_failure(&ops, &lin).is_some());
}

#[test]
fn register_gate_fails_short_and_oversized_histories() {
    let ops =
        vec![op(0, 0, OpKind::Write(Value(1)), 1, 2, None), op(1, 1, OpKind::Read, 3, 4, Some(1))];
    let lin = check_linearizable(&ops, None);
    assert_eq!(lin, Ok(()));
    let why = register_history_failure(&ops, &lin).expect("2 of 56 operations is a failure");
    assert!(why.contains("2 of 56"), "{why}");
    let too_large = Err(LinearizabilityViolation::HistoryTooLarge { ops: 200, max: 128 });
    assert!(register_history_failure(&ops, &too_large).is_some());
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// The `"name"` values inside the JSON array that follows `"key":`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect(key);
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let v = &rest[rest.find('"').expect("value") + 1..];
            v[..v.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_command() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}
