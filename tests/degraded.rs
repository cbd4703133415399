//! Table-driven tests of the **degraded** (graceful-degradation) checkers:
//! `check_k_set_agreement_degraded` and `check_linearizable_degraded`.
//!
//! The contract under test: *safety is never excused* — an agreement or
//! atomicity violation fails the check no matter how the run stopped —
//! while a *liveness* miss (termination, operation completeness) is
//! excused exactly when the stop reason legitimately starves quorums
//! (`Starved`, or `MaxSteps` with faults still unquiesced). Edge cases:
//! empty histories, everyone crashed from the start, and quiescence
//! landing exactly on the step horizon.

use sih::agreement::{check_k_set_agreement_degraded, distinct_proposals, fig4_processes};
use sih::detectors::{SigmaS, WeakSigmaK};
use sih::model::{
    FailurePattern, LinkFaultPlan, OpId, OpKind, OpRecord, ProcessId, ProcessSet, Time, Value,
};
use sih::registers::{abd_processes, check_linearizable_degraded, LinearizabilityViolation};
use sih::runtime::{FairScheduler, LivenessVerdict, Simulation, StopReason, Trace};

// ---------------------------------------------------------------------
// k-set agreement
// ---------------------------------------------------------------------

/// A process that decides a prescribed value on its first step (or halts
/// undecided on `None`).
#[derive(Clone, Debug)]
struct DecideMaybe(Option<Value>);

impl sih::runtime::Automaton for DecideMaybe {
    type Msg = ();
    fn step(&mut self, _input: sih::runtime::StepInput<()>, eff: &mut sih::runtime::Effects<()>) {
        if let Some(v) = self.0 {
            eff.decide(v);
        }
        eff.halt();
    }
}

/// Runs `DecideMaybe` automata to completion and returns the trace.
fn decisions_trace(pattern: &FailurePattern, decisions: &[Option<u64>]) -> Trace {
    let procs: Vec<DecideMaybe> = decisions.iter().map(|d| DecideMaybe(d.map(Value))).collect();
    let mut sim = Simulation::new(procs, pattern.clone());
    sim.run(&mut FairScheduler::new(0), &sih::model::NoDetector, 1_000);
    sim.into_trace()
}

/// What a degraded-check table row expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Live,
    SafeButNotLive,
    /// `Err` whose `property` field is this string.
    Violated(&'static str),
}

#[test]
fn k_set_agreement_degraded_table() {
    struct Case {
        name: &'static str,
        /// `None` decision = the process halts without deciding.
        decisions: &'static [Option<u64>],
        pattern: fn(usize) -> FailurePattern,
        k: usize,
        reason: StopReason,
        expect: Expect,
    }
    let all_correct = |n: usize| FailurePattern::all_correct(n);
    let p1_crashed = |n: usize| FailurePattern::builder(n).crash_from_start(ProcessId(1)).build();
    // Everyone crashed from the start: only `build_unchecked` accepts a
    // pattern with no correct majority left.
    let all_crashed = |n: usize| {
        let mut b = FailurePattern::builder(n);
        for p in (0..n as u32).map(ProcessId) {
            b = b.crash_from_start(p);
        }
        b.build_unchecked()
    };

    let cases = [
        Case {
            name: "empty trace, starved: termination miss excused",
            decisions: &[None, None],
            pattern: all_correct,
            k: 1,
            reason: StopReason::Starved,
            expect: Expect::SafeButNotLive,
        },
        Case {
            name: "empty trace, run claims completion: termination violated",
            decisions: &[None, None],
            pattern: all_correct,
            k: 1,
            reason: StopReason::AllCorrectHalted,
            expect: Expect::Violated("termination"),
        },
        Case {
            name: "empty trace, scheduler gave up: not an excuse",
            decisions: &[None, None],
            pattern: all_correct,
            k: 1,
            reason: StopReason::SchedulerExhausted,
            expect: Expect::Violated("termination"),
        },
        Case {
            name: "everyone crashed from the start: termination is vacuous",
            decisions: &[None, None],
            pattern: all_crashed,
            k: 1,
            reason: StopReason::Starved,
            expect: Expect::Live,
        },
        Case {
            name: "safety violation while starved: never excused",
            decisions: &[Some(0), Some(1)],
            pattern: all_correct,
            k: 1,
            reason: StopReason::Starved,
            expect: Expect::Violated("agreement"),
        },
        Case {
            name: "invented value while starved: never excused",
            decisions: &[Some(9), None],
            pattern: all_correct,
            k: 1,
            reason: StopReason::Starved,
            expect: Expect::Violated("validity"),
        },
        Case {
            name: "quiescence exactly at the horizon: MaxSteps with all decided is Live",
            decisions: &[Some(1), Some(1)],
            pattern: all_correct,
            k: 1,
            reason: StopReason::MaxSteps,
            expect: Expect::Live,
        },
        Case {
            name: "budget ran out mid-protocol: excused",
            decisions: &[Some(1), None],
            pattern: all_correct,
            k: 1,
            reason: StopReason::MaxSteps,
            expect: Expect::SafeButNotLive,
        },
        Case {
            name: "crashed process's missing decision never counts",
            decisions: &[Some(1), None],
            pattern: p1_crashed,
            k: 1,
            reason: StopReason::AllCorrectHalted,
            expect: Expect::Live,
        },
    ];

    for case in &cases {
        let n = case.decisions.len();
        let pattern = (case.pattern)(n);
        let trace = decisions_trace(&pattern, case.decisions);
        let proposals = distinct_proposals(n);
        let got = check_k_set_agreement_degraded(&trace, &pattern, &proposals, case.k, case.reason);
        match case.expect {
            Expect::Live => assert_eq!(got, Ok(LivenessVerdict::Live), "{}", case.name),
            Expect::SafeButNotLive => {
                assert_eq!(got, Ok(LivenessVerdict::SafeButNotLive), "{}", case.name)
            }
            Expect::Violated(property) => {
                let err = got.unwrap_err();
                assert_eq!(err.property, property, "{}", case.name);
            }
        }
    }
}

/// A **real** partitioned run: Fig. 4 under weak-σ_k with every link
/// black: both actives decide their own value. The resulting agreement
/// violation must fail the degraded check under *every* stop reason —
/// partitions excuse starvation, never safety.
#[test]
fn real_partition_safety_violation_is_never_excused() {
    let n = 2;
    let k = 1;
    let pattern = FailurePattern::all_correct(n);
    let proposals = distinct_proposals(n);
    let active: ProcessSet = (0..2u32).map(ProcessId).collect();
    let weak = WeakSigmaK::new(active);
    let blackout = LinkFaultPlan::builder(n).blackout(Time::ZERO, None).build();

    let mut sim = Simulation::new(fig4_processes(&proposals), pattern.clone());
    sim.set_link_faults(blackout);
    sim.run(&mut FairScheduler::new(0), &weak, 4_000);
    let trace = sim.into_trace();
    assert!(trace.distinct_decisions().len() > n - k, "partitioned run must split decisions");

    for reason in [
        StopReason::AllCorrectHalted,
        StopReason::Starved,
        StopReason::MaxSteps,
        StopReason::SchedulerExhausted,
    ] {
        let err = check_k_set_agreement_degraded(&trace, &pattern, &proposals, n - k, reason)
            .expect_err("safety violations are unconditional");
        assert_eq!(err.property, "agreement", "under {reason:?}");
    }
}

// ---------------------------------------------------------------------
// linearizability
// ---------------------------------------------------------------------

fn op(
    id: u64,
    process: u32,
    kind: OpKind,
    invoked: u64,
    returned: Option<u64>,
    read_value: Option<Value>,
) -> OpRecord {
    OpRecord {
        id: OpId(id),
        process: ProcessId(process),
        kind,
        invoked: Time(invoked),
        returned: returned.map(Time),
        read_value,
    }
}

#[test]
fn linearizable_degraded_table() {
    struct Case {
        name: &'static str,
        ops: Vec<OpRecord>,
        pattern: FailurePattern,
        reason: StopReason,
        expect: Result<LivenessVerdict, fn(&LinearizabilityViolation) -> bool>,
    }
    let all_correct = FailurePattern::all_correct(2);
    let p1_crashed = FailurePattern::builder(2).crash_from_start(ProcessId(1)).build();
    let not_linearizable = |v: &LinearizabilityViolation| {
        matches!(v, LinearizabilityViolation::NotLinearizable { .. })
    };
    let incomplete =
        |v: &LinearizabilityViolation| matches!(v, LinearizabilityViolation::Incomplete { .. });
    let too_large = |v: &LinearizabilityViolation| {
        matches!(v, LinearizabilityViolation::HistoryTooLarge { .. })
    };

    let cases = [
        Case {
            name: "empty history is vacuously live, even starved",
            ops: vec![],
            pattern: all_correct.clone(),
            reason: StopReason::Starved,
            expect: Ok(LivenessVerdict::Live),
        },
        Case {
            name: "stale read after a completed write: atomicity never excused",
            ops: vec![
                op(0, 0, OpKind::Write(Value(7)), 0, Some(5), None),
                op(1, 1, OpKind::Read, 6, Some(9), None),
            ],
            pattern: all_correct.clone(),
            reason: StopReason::Starved,
            expect: Err(not_linearizable),
        },
        Case {
            name: "crashed client's pending op is always excused",
            ops: vec![
                op(0, 0, OpKind::Write(Value(7)), 0, Some(5), None),
                op(1, 1, OpKind::Write(Value(8)), 1, None, None),
            ],
            pattern: p1_crashed.clone(),
            reason: StopReason::AllCorrectHalted,
            expect: Ok(LivenessVerdict::Live),
        },
        Case {
            name: "correct client starved mid-op: safe but not live",
            ops: vec![op(0, 0, OpKind::Write(Value(7)), 0, None, None)],
            pattern: all_correct.clone(),
            reason: StopReason::Starved,
            expect: Ok(LivenessVerdict::SafeButNotLive),
        },
        Case {
            name: "correct client pending at the horizon: excused under MaxSteps",
            ops: vec![op(0, 0, OpKind::Write(Value(7)), 0, None, None)],
            pattern: all_correct.clone(),
            reason: StopReason::MaxSteps,
            expect: Ok(LivenessVerdict::SafeButNotLive),
        },
        Case {
            name: "correct client pending though the run claims completion",
            ops: vec![op(0, 0, OpKind::Write(Value(7)), 0, None, None)],
            pattern: all_correct.clone(),
            reason: StopReason::AllCorrectHalted,
            expect: Err(incomplete),
        },
        Case {
            name: "oversized history is a capacity error, not an excuse",
            // Repeated written values force the capped fallback search.
            ops: (0..129)
                .map(|i| op(i, 0, OpKind::Write(Value(i % 2)), 2 * i, Some(2 * i + 1), None))
                .collect(),
            pattern: all_correct.clone(),
            reason: StopReason::Starved,
            expect: Err(too_large),
        },
    ];

    for case in &cases {
        let got = check_linearizable_degraded(&case.ops, None, &case.pattern, case.reason);
        match &case.expect {
            Ok(verdict) => assert_eq!(got, Ok(*verdict), "{}", case.name),
            Err(classify) => {
                let err = got.expect_err(case.name);
                assert!(classify(&err), "{}: unexpected violation {err:?}", case.name);
            }
        }
    }
}

/// A **real** blackout run: the ABD register under a sound `Σ_S` with
/// every link black from the start. No quorum ever assembles, the
/// clients' scripts stall, the run exhausts its budget — and the degraded
/// check excuses exactly that: safe but not live, never a violation.
#[test]
fn real_blackout_starvation_is_excused() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let s: ProcessSet = (0..n as u32).map(ProcessId).collect();
    let det = SigmaS::new(s, &pattern, 0);
    let scripts = vec![vec![OpKind::Write(Value(7))], vec![OpKind::Read], vec![]];
    let blackout = LinkFaultPlan::builder(n).blackout(Time::ZERO, None).build();

    let mut sim = Simulation::new(abd_processes(s, n, scripts), pattern.clone());
    sim.set_link_faults(blackout);
    let outcome = sim.run(&mut FairScheduler::new(0), &det, 2_000);
    assert!(
        matches!(outcome.reason, StopReason::MaxSteps | StopReason::Starved),
        "a blacked-out register run cannot complete: {:?}",
        outcome.reason
    );
    let trace = sim.into_trace();
    let verdict = check_linearizable_degraded(&trace.op_records(), None, &pattern, outcome.reason);
    assert_eq!(verdict, Ok(LivenessVerdict::SafeButNotLive));
}
