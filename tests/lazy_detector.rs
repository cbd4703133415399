//! Detector outputs on demand.
//!
//! At `TraceLevel::Light` a step hands its automaton a pending detector
//! query, run only if the automaton reads the output; at `Full` the
//! engine queries before the step because the `Step` event records the
//! output. The read sites test their cheap conditions first, so a step
//! whose outcome cannot depend on the detector makes no query at `Light`.
//! [`Counting`] counts queries; each case below makes one step and
//! expects 0 queries at `Light` and 1 at `Full`, with the same effects.

use sih::agreement::{fig2_processes, Fig2Msg};
use sih::detectors::SigmaS;
use sih::model::{
    FailureDetector, FailurePattern, FdOutput, OpKind, ProcessId, ProcessSet, Time, Value,
};
use sih::registers::{abd_processes, AbdRegister};
use sih::runtime::{Automaton, Choice, FairScheduler, Simulation, StepReport, TraceLevel};
use std::cell::Cell;

/// Counts the queries made of the detector it wraps.
struct Counting<D> {
    inner: D,
    queries: Cell<u64>,
}

impl<D: FailureDetector> FailureDetector for Counting<D> {
    fn output(&self, p: ProcessId, t: Time) -> FdOutput {
        self.queries.set(self.queries.get() + 1);
        self.inner.output(p, t)
    }

    fn stabilization_time(&self) -> Time {
        self.inner.stabilization_time()
    }
}

/// The same output at every process and time.
struct Constant(FdOutput);

impl FailureDetector for Constant {
    fn output(&self, _p: ProcessId, _t: Time) -> FdOutput {
        self.0
    }

    fn stabilization_time(&self) -> Time {
        Time::ZERO
    }
}

const P0: ProcessId = ProcessId(0);
const P1: ProcessId = ProcessId(1);

/// Builds a simulation at `level`, brings it to the case's state with
/// `setup`, then takes `choice` and returns the queries that step made,
/// its report and the state fingerprint after it.
fn queries_of_step<A, D>(
    level: TraceLevel,
    procs: Vec<A>,
    pattern: &FailurePattern,
    fd: D,
    setup: impl FnOnce(&mut Simulation<A>, &Counting<D>),
    choice: Choice,
) -> (u64, StepReport, u64)
where
    A: Automaton + std::fmt::Debug,
    D: FailureDetector,
{
    let mut sim = Simulation::new(procs, pattern.clone()).with_trace_level(level);
    let fd = Counting { inner: fd, queries: Cell::new(0) };
    setup(&mut sim, &fd);
    let before = fd.queries.get();
    let report = sim.step(choice, &fd);
    (fd.queries.get() - before, report, sim.fingerprint())
}

/// Runs the case at both levels: no query at `Light`, one at `Full`,
/// and the same step either way.
fn assert_light_skips_the_query<A, D>(
    case: &str,
    procs: impl Fn() -> Vec<A>,
    pattern: &FailurePattern,
    fd: impl Fn() -> D,
    setup: impl Fn(&mut Simulation<A>, &Counting<D>),
    choice: Choice,
) where
    A: Automaton + std::fmt::Debug,
    D: FailureDetector,
{
    let (light, light_report, light_fp) =
        queries_of_step(TraceLevel::Light, procs(), pattern, fd(), &setup, choice);
    let (full, full_report, full_fp) =
        queries_of_step(TraceLevel::Full, procs(), pattern, fd(), &setup, choice);
    assert_eq!((light, full), (0, 1), "{case}: queries at Light and at Full");
    assert_eq!(format!("{light_report:?}"), format!("{full_report:?}"), "{case}");
    assert_eq!(light_fp, full_fp, "{case}");
}

fn abd_one_writer(n: usize) -> Vec<AbdRegister> {
    abd_processes(ProcessSet::singleton(P0), n, vec![vec![OpKind::Write(Value(7))]])
}

#[test]
fn an_abd_client_without_acks_does_not_query() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let sigma = || SigmaS::new(ProcessSet::singleton(P0), &pattern, 5);
    // The client's first step invokes the write and sends its queries
    // (that step reads Σ_S: ⊥ would make it wait); nothing has been
    // acknowledged when it steps again.
    let start = |sim: &mut Simulation<AbdRegister>, fd: &Counting<SigmaS>| {
        let report = sim.step(Choice::compute(P0), fd);
        assert!(report.ops && report.sent == n, "the write starts: {report:?}");
    };
    let procs = || abd_one_writer(n);
    assert_light_skips_the_query(
        "ABD, no acks",
        procs,
        &pattern,
        sigma,
        start,
        Choice::compute(P0),
    );
}

#[test]
fn a_drained_abd_client_does_not_query() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    let sigma = || SigmaS::new(ProcessSet::singleton(P0), &pattern, 5);
    // Run the one-op script to completion under the fair scheduler.
    let drain = |sim: &mut Simulation<AbdRegister>, fd: &Counting<SigmaS>| {
        let mut sched = FairScheduler::new(1);
        sim.run_until(&mut sched, fd, 10_000, |s| s.process(P0).script_finished());
        assert!(sim.process(P0).script_finished(), "the write completes");
    };
    let procs = || abd_one_writer(n);
    assert_light_skips_the_query(
        "ABD, drained",
        procs,
        &pattern,
        sigma,
        drain,
        Choice::compute(P0),
    );
}

#[test]
fn a_fig2_process_whose_message_met_its_wait_does_not_query() {
    let n = 3;
    let pattern = FailurePattern::all_correct(n);
    // Not ⊥ (both processes take part) and never `{p}` (no escape), so
    // only a Phase 1 message ends the wait.
    let fd = || Constant(FdOutput::Trust(ProcessSet::from_iter([P0, P1])));
    let procs = || fig2_processes(&[Value(1), Value(2), Value(3)]);
    // p0 and p1 each start and broadcast Phase 1; p1 then waits.
    let start = |sim: &mut Simulation<_>, fd: &Counting<Constant>| {
        sim.step(Choice::compute(P0), fd);
        sim.step(Choice::compute(P1), fd);
        assert_eq!(sim.network().pending_count(P1), 1, "p0's Phase 1 message is pending at p1");
    };
    // Delivering p0's Phase 1 message meets p1's wait: p1 sends Phase 2.
    let deliver = Choice { p: P1, deliver: Some(0) };
    assert_light_skips_the_query(
        "Fig. 2, message met the wait",
        procs,
        &pattern,
        fd,
        start,
        deliver,
    );
    let mut sim = Simulation::new(procs(), pattern.clone());
    let counting = Counting { inner: fd(), queries: Cell::new(0) };
    start(&mut sim, &counting);
    sim.step(deliver, &counting);
    assert!(
        sim.network()
            .pending(P0)
            .any(|env| matches!(env.payload, Fig2Msg::Phase2(_)) && env.from == P1),
        "p1 moved to Phase 2"
    );
}
