//! The simulation engine: executes runs of the paper's model.
//!
//! A [`Simulation`] owns the `n` automata, the network and the failure
//! pattern, and executes atomic steps under a [`Scheduler`]'s choices and
//! a [`FailureDetector`] history. Given the same automata, pattern,
//! history and choice sequence, a run is **bit-for-bit reproducible** —
//! the engine records every executed choice as a script
//! ([`Simulation::script`]) precisely so adversary constructions can
//! replay prefixes (Lemmas 7, 11, 15).

// sih-analysis: allow(index-reachable) — procs is n-sized and indexed by ProcessIds from the
// schedulable set or by choices `step` first asserts alive under the n-process pattern.
use crate::automaton::{Automaton, Effects, SendOp, StepInput};
use crate::fingerprint::{StateHash, StateHasher};
use crate::network::{Corruptible, Network};
use crate::scheduler::{Choice, FairScheduler, Scheduler};
use crate::trace::{Trace, TraceLevel};
use sih_model::{
    AdversaryPlan, Armor, FailureDetector, FailurePattern, LinkFaultPlan, ProcSet, ProcessId,
    ProcessSet, Time,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

/// What the scheduler view reads of the pending queues: the three
/// per-process queries of [`SchedState`], answered on demand.
///
/// Object-safe, so the view borrows any simulation's network without
/// being generic in its message type.
trait PendingQueues: fmt::Debug {
    fn pending_count(&self, p: ProcessId) -> usize;
    fn oldest_sent_at(&self, p: ProcessId) -> Option<Time>;
    fn oldest_index(&self, p: ProcessId) -> Option<usize>;
}

impl<M: Clone + fmt::Debug + StateHash> PendingQueues for Network<M> {
    fn pending_count(&self, p: ProcessId) -> usize {
        Network::pending_count(self, p)
    }

    fn oldest_sent_at(&self, p: ProcessId) -> Option<Time> {
        Network::oldest_sent_at(self, p)
    }

    fn oldest_index(&self, p: ProcessId) -> Option<usize> {
        Network::oldest_index(self, p)
    }
}

/// The scheduler's view of the engine before a step.
///
/// The schedulable set and the starvation flag are computed when the view
/// is built; the per-process queue queries borrow the network and are
/// answered on demand, so a scheduler pays only for the processes it
/// asks about.
#[derive(Debug)]
pub struct SchedState<'a> {
    /// System size.
    pub n: usize,
    /// The time the next step will carry.
    pub next_time: Time,
    /// Processes allowed to take the next step (alive and not halted).
    pub schedulable_set: ProcessSet,
    net: &'a dyn PendingQueues,
    starved: bool,
}

impl SchedState<'_> {
    /// Iterates over schedulable processes in id order.
    pub fn schedulable(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.schedulable_set.iter()
    }

    /// Whether `p` may take the next step.
    pub fn is_schedulable(&self, p: ProcessId) -> bool {
        self.schedulable_set.contains(p)
    }

    /// Number of messages pending at `p`.
    pub fn pending_count(&self, p: ProcessId) -> usize {
        self.net.pending_count(p)
    }

    /// Age (in steps) of the oldest message pending at `p`.
    pub fn oldest_age(&self, p: ProcessId) -> Option<u64> {
        self.net.oldest_sent_at(p).map(|s| self.next_time - s)
    }

    /// Queue index of the oldest message pending at `p`.
    pub fn oldest_index(&self, p: ProcessId) -> Option<usize> {
        self.net.oldest_index(p)
    }

    /// Whether the system is provably stuck: there are schedulable
    /// processes, but every one of them is
    /// [quiescent](crate::Automaton::quiescent) with an empty pending
    /// queue — no step anyone can take will ever produce an effect again.
    pub fn starved(&self) -> bool {
        self.starved
    }
}

/// Why a [`Simulation::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// Every correct process has halted.
    AllCorrectHalted,
    /// The step budget was exhausted.
    MaxSteps,
    /// The scheduler returned `None`.
    SchedulerExhausted,
    /// The system is provably stuck: schedulable processes exist, but
    /// every one is [quiescent](crate::Automaton::quiescent) with an
    /// empty pending queue, so no reachable step has any effect — e.g. a
    /// permanent partition starved every quorum. Detected eagerly so such
    /// runs stop in O(1) steps instead of spinning to `MaxSteps`.
    Starved,
}

/// How [`Simulation::drive`] chooses the steps of a run.
#[derive(Clone, Copy, Debug)]
pub enum Driver<'a> {
    /// A fresh run under a [`FairScheduler`] seeded with `seed`, for at
    /// most `max_steps` steps.
    Fair {
        /// Scheduler seed.
        seed: u64,
        /// Step budget.
        max_steps: u64,
    },
    /// A replay of a recorded choice script.
    Replay {
        /// The script, in step order.
        choices: &'a [Choice],
        /// What happens to a choice that is illegal when its turn comes.
        mode: ReplayMode,
    },
}

/// Replay fidelity of a [`Driver::Replay`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayMode {
    /// Every choice executes as recorded; an illegal one is an engine
    /// panic (corpus verification).
    Strict,
    /// Choices illegal in the run so far are skipped (shrink and fuzz
    /// candidates). Skipping executes nothing, so the executed
    /// subsequence is itself a schedule that strict-replays identically.
    Lenient,
}

/// The scheduler of a [`Driver::Replay`]: hands out the script in order,
/// skipping illegal choices under [`ReplayMode::Lenient`].
struct Replayer<'a> {
    rest: std::slice::Iter<'a, Choice>,
    lenient: bool,
}

impl Scheduler for Replayer<'_> {
    fn choose(&mut self, view: &SchedState<'_>) -> Option<Choice> {
        let lenient = self.lenient;
        self.rest.by_ref().copied().find(|c| {
            !lenient
                || (view.is_schedulable(c.p)
                    && c.deliver.is_none_or(|i| i < view.pending_count(c.p)))
        })
    }
}

/// Statistics of a finished [`Simulation::run`].
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Steps executed by this call.
    pub steps: u64,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Network accounting at stop time: total messages sent (every copy,
    /// enqueued or dropped).
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages the link-fault plan dropped.
    pub dropped: u64,
    /// Extra copies the link-fault plan enqueued.
    pub duplicated: u64,
    /// Envelopes the mutation adversary tampered with that were removed
    /// from the queues (counted here *instead of* in `delivered`).
    pub mutated: u64,
    /// Sends on which the adversary forged provenance (sender id or
    /// quorum ack).
    pub forged: u64,
    /// Adversary actions neutralized by the installed armor rung.
    pub armored: u64,
    /// Messages still pending at stop time. The counters always satisfy
    /// `sent == delivered + dropped + mutated + in_flight`.
    pub in_flight: u64,
}

/// A liveness verdict for runs over faulty links: safety checkers always
/// apply, but termination/completion can legitimately fail when the run
/// was starved by a partition that never heals (or ran out of budget
/// while faults were still active). See
/// `check_k_set_agreement_degraded` in `sih-agreement` and
/// `check_linearizable_degraded` in `sih-registers`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LivenessVerdict {
    /// Safety held and the run completed (terminated / all ops done).
    Live,
    /// Safety held, but the run stopped before completing for an excusable
    /// reason ([`StopReason::Starved`] or [`StopReason::MaxSteps`] under
    /// unquiesced faults) — the degraded-but-correct outcome the paper's
    /// quorum algorithms exhibit under partitions.
    SafeButNotLive,
}

/// The observable side effects of one executed step.
///
/// Returned by [`Simulation::step`] so callers that replay many sibling
/// steps (the exhaustive explorer's partial-order reduction) can judge
/// commutativity without diffing traces. A step is [*quiet*] when it
/// produced none of the **time-stamped checker events** — decisions,
/// emulated-detector updates, register-operation boundaries. Quiet steps
/// may still send and halt: neither observable carries a timestamp the
/// property checkers read, so swapping two quiet steps of different
/// processes leaves every checker input unchanged.
///
/// [*quiet*]: StepReport::quiet
#[derive(Clone, Copy, Debug, Default)]
pub struct StepReport {
    /// The step decided a value.
    pub decided: bool,
    /// The step updated the emulated failure-detector output.
    pub emulated: bool,
    /// The step produced register-operation invoke/return events.
    pub ops: bool,
    /// The step halted its process.
    pub halted: bool,
    /// Number of messages the step sent.
    pub sent: usize,
}

impl StepReport {
    /// Whether the step produced no time-stamped checker events (no
    /// decision, no emulated-output update, no register-op boundary).
    pub fn quiet(&self) -> bool {
        !self.decided && !self.emulated && !self.ops
    }
}

/// A run in progress (or finished): automata + network + pattern + trace.
#[derive(Debug)]
pub struct Simulation<A: Automaton> {
    procs: Vec<A>,
    net: Network<A::Msg>,
    pattern: FailurePattern,
    now: Time,
    trace: Trace,
    halted: ProcSet,
    // Counters shadowing `halted`/`trace.decided()` restricted to correct
    // processes, compared with the cached `|Correct(F)|`, so the run-loop
    // termination tests (`all_correct_halted`, `all_correct_decided`) are
    // O(1) at any `n` instead of 64-capped subset tests or O(n) scans.
    halted_correct: usize,
    decided_correct: usize,
    // `pattern.correct_count()`, cached: the pattern is fixed for a run
    // and only replaced by `reset`/`clone_from`, which refresh it.
    correct_count: usize,
    script: Vec<Choice>,
    record_script: bool,
    // Scratch `Effects` reused across steps: at n = 10⁵ a fresh
    // `Effects::new()` per step is four Vec allocations per step; reusing
    // one arena makes stepping allocation-free on the fast path.
    scratch_eff: Effects<A::Msg>,
    // Incremental state of `fingerprint` (a `RefCell`: fingerprinting
    // takes `&self`). Stale and allocation-free until the first call.
    fp: RefCell<FpCache>,
}

/// The cached sections of [`Simulation::fingerprint`].
///
/// Each process owns one *word*: the hash, keyed by its id, of every
/// piece of state that only its own step can change (see
/// `Simulation::process_word`). The fingerprint folds the **wrapping
/// sum** of the words — a Zobrist-style combination, so replacing one
/// word is O(1) — together with the run constants, the network's running
/// queue sum and a handful of global counters.
#[derive(Debug)]
struct FpCache {
    /// Hash of the run constants: the failure pattern and the installed
    /// plans.
    constants: u64,
    /// `words[p]`: process `p`'s word.
    words: Vec<u64>,
    /// Wrapping sum of `words`.
    sum: u64,
    /// Processes stepped since the last refresh (repeats allowed).
    dirty: Vec<ProcessId>,
    /// Whether the constants and every word must be recomputed: before
    /// the first fingerprint, after a reset and after a plan change.
    stale: bool,
}

impl Default for FpCache {
    fn default() -> Self {
        FpCache { constants: 0, words: Vec::new(), sum: 0, dirty: Vec::new(), stale: true }
    }
}

// Manual Clone so `clone_from` reuses the word and dirty-list buffers.
impl Clone for FpCache {
    fn clone(&self) -> Self {
        FpCache {
            constants: self.constants,
            words: self.words.clone(),
            sum: self.sum,
            dirty: self.dirty.clone(),
            stale: self.stale,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.constants = source.constants;
        self.words.clone_from(&source.words);
        self.sum = source.sum;
        self.dirty.clone_from(&source.dirty);
        self.stale = source.stale;
    }
}

impl FpCache {
    /// Marks `p`'s word stale after its step. A no-op while everything
    /// is stale — the one branch runs that never fingerprint pay.
    #[inline]
    fn touch(&mut self, p: ProcessId) {
        if self.stale {
            return;
        }
        if self.dirty.len() >= self.words.len() {
            // More steps than processes since the last refresh: a full
            // recompute is no dearer than replaying the list.
            self.invalidate();
        } else {
            self.dirty.push(p);
        }
    }

    /// Marks the constants and every word stale.
    fn invalidate(&mut self) {
        self.stale = true;
        self.dirty.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.dirty.capacity() * std::mem::size_of::<ProcessId>()
    }
}

// Manual Clone so `clone_from` reuses every heap allocation of the
// destination (queues, trace event log, script, scratch buffers). The
// exhaustive explorer materializes one child simulation per tree edge;
// with the derive's default `clone_from` (allocate a fresh clone, drop
// the old one) those allocations dominated its profile.
impl<A: Automaton + Clone> Clone for Simulation<A> {
    fn clone(&self) -> Self {
        Simulation {
            procs: self.procs.clone(),
            net: self.net.clone(),
            pattern: self.pattern.clone(),
            now: self.now,
            trace: self.trace.clone(),
            halted: self.halted.clone(),
            halted_correct: self.halted_correct,
            decided_correct: self.decided_correct,
            correct_count: self.correct_count,
            script: self.script.clone(),
            record_script: self.record_script,
            scratch_eff: Effects::new(),
            fp: RefCell::new(self.fp.borrow().clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.procs.clone_from(&source.procs);
        self.net.clone_from(&source.net);
        self.pattern.clone_from(&source.pattern);
        self.now = source.now;
        self.trace.clone_from(&source.trace);
        self.halted.clone_from(&source.halted);
        self.halted_correct = source.halted_correct;
        self.decided_correct = source.decided_correct;
        self.correct_count = source.correct_count;
        self.script.clone_from(&source.script);
        self.record_script = source.record_script;
        self.fp.get_mut().clone_from(&source.fp.borrow());
    }
}

impl<A: Automaton> Simulation<A> {
    /// A fresh run of the given automata under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len() != pattern.n()`.
    pub fn new(procs: Vec<A>, pattern: FailurePattern) -> Self {
        assert_eq!(procs.len(), pattern.n(), "one automaton per process");
        let n = procs.len();
        Simulation {
            procs,
            net: Network::new(n),
            correct_count: pattern.correct_count(),
            pattern,
            now: Time::ZERO,
            trace: Trace::new(n),
            halted: ProcSet::with_capacity(n),
            halted_correct: 0,
            decided_correct: 0,
            script: Vec::new(),
            record_script: true,
            scratch_eff: Effects::new(),
            fp: RefCell::default(),
        }
    }

    /// Sets how much the trace records. See [`TraceLevel`].
    #[must_use]
    pub fn with_trace_level(mut self, level: TraceLevel) -> Self {
        self.trace.set_level(level);
        self
    }

    /// Rewinds to a fresh run of `procs` under `pattern`, reusing the
    /// network-queue, trace and scratch allocations of the previous run
    /// (the trace's [`TraceLevel`] is kept). Equivalent to replacing
    /// `self` with [`Simulation::new`], minus the per-run allocations —
    /// sweep pipelines call this once per run.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len() != pattern.n()`.
    pub fn reset(&mut self, procs: Vec<A>, pattern: &FailurePattern) {
        assert_eq!(procs.len(), pattern.n(), "one automaton per process");
        let n = procs.len();
        self.procs = procs;
        self.pattern.clone_from(pattern);
        self.correct_count = pattern.correct_count();
        self.now = Time::ZERO;
        self.halted.clear();
        self.halted_correct = 0;
        self.decided_correct = 0;
        self.script.clear();
        if self.net.n() == n {
            self.net.reset();
        } else {
            self.net = Network::new(n);
        }
        self.trace.reset(n);
        self.fp.get_mut().invalidate();
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Current global time (time of the last executed step).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The failure pattern of the run.
    pub fn pattern(&self) -> &FailurePattern {
        &self.pattern
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the simulation, returning its trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The network state (pending messages).
    pub fn network(&self) -> &Network<A::Msg> {
        &self.net
    }

    /// Installs a link-fault plan on the network; subsequent sends consult
    /// it (see [`Network::send`]). Call before running — sends already in
    /// flight are unaffected. [`Simulation::reset`] uninstalls it.
    ///
    /// # Panics
    ///
    /// Panics if the plan's process count differs from the system size.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) {
        self.net.set_link_faults(plan);
        self.fp.get_mut().invalidate();
    }

    /// Installs a message-mutation adversary on the network; subsequent
    /// sends consult its plan with `armor` deciding which attack classes
    /// the honest processes neutralize (see [`Network::set_adversary`]).
    /// Call before running. [`Simulation::reset`] uninstalls it.
    ///
    /// # Panics
    ///
    /// Panics if the plan's process count differs from the system size.
    pub fn set_adversary(&mut self, plan: AdversaryPlan, armor: Armor)
    where
        A::Msg: Corruptible,
    {
        self.net.set_adversary(plan, armor);
        self.fp.get_mut().invalidate();
    }

    /// Uninstalls the mutation adversary, returning its plan and armor if
    /// one was installed. Queues and counters are untouched; terminal
    /// fingerprints taken afterwards use the adversary-free domain (the
    /// differential armor suite compares against baselines this way).
    pub fn take_adversary(&mut self) -> Option<(AdversaryPlan, Armor)> {
        self.fp.get_mut().invalidate();
        self.net.take_adversary()
    }

    /// The [`RunOutcome`] network counters at the present moment.
    fn outcome(&self, steps: u64, reason: StopReason) -> RunOutcome {
        RunOutcome {
            steps,
            reason,
            sent: self.net.sent_count(),
            delivered: self.net.delivered_count(),
            dropped: self.net.dropped_count(),
            duplicated: self.net.duplicated_count(),
            mutated: self.net.mutated_count(),
            forged: self.net.forged_count(),
            armored: self.net.armored_count(),
            in_flight: self.net.in_flight() as u64,
        }
    }

    /// Immutable access to a process automaton (for state assertions in
    /// tests and adversaries).
    pub fn process(&self, p: ProcessId) -> &A {
        &self.procs[p.index()]
    }

    /// Processes that have halted.
    ///
    /// # Panics
    ///
    /// Panics if `n > ProcessSet::MAX_PROCESSES`; large-`n` callers use
    /// [`Simulation::is_halted`] / [`Simulation::halted_count`].
    pub fn halted(&self) -> ProcessSet {
        self.halted.to_process_set()
    }

    /// Whether `p` has halted — O(1), any `n`.
    pub fn is_halted(&self, p: ProcessId) -> bool {
        self.halted.contains(p)
    }

    /// Number of halted processes — O(1), any `n`.
    pub fn halted_count(&self) -> usize {
        self.halted.len()
    }

    /// Whether every correct process has halted. O(1): maintained as a
    /// counter and compared with `|Correct(F)|`, cached per run since the
    /// failure pattern is immutable during a run.
    pub fn all_correct_halted(&self) -> bool {
        self.halted_correct == self.correct_count
    }

    /// Whether every correct process has decided. O(1), any `n`.
    pub fn all_correct_decided(&self) -> bool {
        self.decided_correct == self.correct_count
    }

    /// The sequence of choices executed so far — replaying it through
    /// [`ScriptedScheduler`](crate::ScriptedScheduler) on a fresh,
    /// identically-configured simulation reproduces this run exactly.
    pub fn script(&self) -> &[Choice] {
        &self.script
    }

    /// Turns choice-script recording on or off (on by default).
    ///
    /// A scale run at n = 10⁵ executes millions of steps whose script
    /// nobody replays; turning recording off caps the engine's memory at
    /// the live state instead of the run history. Replay-dependent
    /// workflows (counterexample shrinking, corpus capture) must leave it
    /// on. The setting survives [`Simulation::reset`].
    pub fn set_script_recording(&mut self, record: bool) {
        self.record_script = record;
    }

    /// Approximate heap footprint of the engine's live state in bytes:
    /// network queues + trace + script + halted set + fingerprint cache
    /// (empty unless the run was fingerprinted).
    /// Used by the scale lab to report bytes/process; excludes the
    /// automata themselves (the caller knows its own state layout).
    pub fn harness_heap_bytes(&self) -> usize {
        self.net.heap_bytes()
            + self.trace.heap_bytes()
            + self.script.capacity() * std::mem::size_of::<Choice>()
            + self.halted.heap_bytes()
            + self.fp.borrow().heap_bytes()
    }

    /// The set of processes allowed to take the next step (alive at the
    /// next time and not halted) — the non-mutating core of
    /// [`Simulation::sched_state`]. Choice enumerators that probe children
    /// off a shared `&Simulation` (the exhaustive explorer) combine this
    /// with [`Simulation::network`] instead of taking a `SchedState`.
    pub fn schedulable_set(&self) -> ProcessSet {
        let next = self.now.next();
        let mut schedulable = ProcessSet::EMPTY;
        for i in 0..self.n() {
            let p = ProcessId(i as u32);
            if self.pattern.is_alive(p, next) && !self.halted.contains(p) {
                schedulable.insert(p);
            }
        }
        schedulable
    }

    /// The scheduler view for the next step.
    ///
    /// Building it costs one pass over the processes for the schedulable
    /// set plus the starvation test over the schedulable members only;
    /// the queue queries ([`SchedState::pending_count`],
    /// [`SchedState::oldest_age`], [`SchedState::oldest_index`]) read the
    /// network when the scheduler asks.
    pub fn sched_state(&mut self) -> SchedState<'_> {
        let schedulable = self.schedulable_set();
        // The system is starved when schedulable processes exist but every
        // one is quiescent with nothing pending — then no reachable step
        // ever has an effect (quiescence is forever, queues can only be
        // filled by effects).
        let starved = !schedulable.is_empty()
            && schedulable
                .iter()
                .all(|p| self.net.pending_count(p) == 0 && self.procs[p.index()].quiescent());
        SchedState {
            n: self.n(),
            next_time: self.now.next(),
            schedulable_set: schedulable,
            net: &self.net,
            starved,
        }
    }

    /// Executes one atomic step, returning what it observably did.
    ///
    /// # Panics
    ///
    /// Panics if the choice is illegal: the process is crashed at the
    /// step's time, already halted, or the delivery index is out of
    /// range. (Adversary scripts are meant to be exact; an illegal choice
    /// is a construction bug, not a recoverable condition.)
    pub fn step<D: FailureDetector + ?Sized>(&mut self, choice: Choice, fd: &D) -> StepReport {
        let t = self.now.next();
        let p = choice.p;
        assert!(self.pattern.is_alive(p, t), "scheduled crashed process {p} at {t}");
        assert!(!self.halted.contains(p), "scheduled halted process {p}");

        let delivered = choice.deliver.map(|idx| {
            assert!(idx < self.net.pending_count(p), "delivery index {idx} out of range at {p}");
            self.net.deliver(p, idx)
        });

        let fd_out = fd.output(p, t);
        self.now = t;
        if self.record_script {
            self.script.push(choice);
        }
        self.trace.push_step(t, p, delivered.as_ref().map(|e| (e.from, e.id)), fd_out);

        // The automaton fills the scratch arena in place, cleared first: a
        // step that panicked mid-effects may have left it dirty.
        self.scratch_eff.clear();
        let input = StepInput { me: p, n: self.n(), now: t, delivered, fd: fd_out };
        self.procs[p.index()].step(input, &mut self.scratch_eff);
        let eff = &mut self.scratch_eff;

        let mut report = StepReport {
            decided: eff.decision.is_some(),
            emulated: eff.emulated.is_some(),
            ops: !eff.op_events.is_empty(),
            halted: false,
            sent: eff.send_count(),
        };
        for op in eff.sends.drain(..) {
            match op {
                SendOp::To(to, payload) => {
                    let id = self.net.send(p, to, t, payload);
                    self.trace.push_send(t, p, to, id);
                }
                SendOp::Fanout { n, except, payload } => {
                    let first = self.net.broadcast(p, t, payload, n, except);
                    self.trace.push_send_batch(t, p, n, except, first);
                }
            }
        }
        if let Some(v) = eff.decision.take() {
            let fresh = self.trace.push_decide(t, p, v);
            assert!(fresh, "{p} decided twice");
            if self.pattern.is_correct(p) {
                self.decided_correct += 1;
            }
        }
        if let Some(out) = eff.emulated.take() {
            self.trace.push_emulate(t, p, out);
        }
        for ev in eff.op_events.drain(..) {
            self.trace.push_op_event(t, p, ev);
        }
        if eff.halt || self.procs[p.index()].halted() {
            if self.halted.insert(p) && self.pattern.is_correct(p) {
                self.halted_correct += 1;
            }
            report.halted = true;
        }
        self.fp.get_mut().touch(p);
        report
    }

    /// Runs under `sched` and `fd` until every correct process has
    /// halted, the scheduler gives up, or `max_steps` further steps have
    /// executed.
    pub fn run<S, D>(&mut self, sched: &mut S, fd: &D, max_steps: u64) -> RunOutcome
    where
        S: Scheduler + ?Sized,
        D: FailureDetector + ?Sized,
    {
        self.run_until(sched, fd, max_steps, |_| false)
    }

    /// Like [`Simulation::run`], but additionally stops (with
    /// [`StopReason::AllCorrectHalted`]) once `done` returns true.
    /// Useful for protocols whose automata never halt (emulations,
    /// replica servers) but whose interesting work has a detectable end.
    pub fn run_until<S, D, F>(
        &mut self,
        sched: &mut S,
        fd: &D,
        max_steps: u64,
        done: F,
    ) -> RunOutcome
    where
        S: Scheduler + ?Sized,
        D: FailureDetector + ?Sized,
        F: FnMut(&Simulation<A>) -> bool,
    {
        self.run_loop(sched, fd, max_steps, done, |_| {})
    }

    /// The run loop of [`Simulation::run_until`], calling `on_step` after
    /// every executed step.
    fn run_loop<S, D, F, G>(
        &mut self,
        sched: &mut S,
        fd: &D,
        max_steps: u64,
        mut done: F,
        mut on_step: G,
    ) -> RunOutcome
    where
        S: Scheduler + ?Sized,
        D: FailureDetector + ?Sized,
        F: FnMut(&Simulation<A>) -> bool,
        G: FnMut(&Simulation<A>),
    {
        let mut steps = 0;
        loop {
            if self.all_correct_halted() || done(self) {
                return self.outcome(steps, StopReason::AllCorrectHalted);
            }
            if steps >= max_steps {
                return self.outcome(steps, StopReason::MaxSteps);
            }
            let view = self.sched_state();
            if view.starved() {
                return self.outcome(steps, StopReason::Starved);
            }
            let Some(choice) = sched.choose(&view) else {
                return self.outcome(steps, StopReason::SchedulerExhausted);
            };
            self.step(choice, fd);
            steps += 1;
            on_step(self);
        }
    }

    /// Runs a **message-driven** protocol to completion with an
    /// event-driven worklist instead of a per-step scheduler scan.
    ///
    /// [`Simulation::run_until`] pays O(n) per step (building the scheduler
    /// view scans all n processes for the schedulable set, and
    /// [`FairScheduler`] picks among them), which is O(n²) for a protocol
    /// whose work is O(n) steps — prohibitive at n = 10⁵. This runner
    /// keeps a FIFO worklist of processes that may have work:
    ///
    /// * every alive process is seeded once (its *kickoff* null step —
    ///   where quorum protocols broadcast their first request);
    /// * after that, a process re-enters the worklist only when a send
    ///   makes its queue non-empty (the network's wake log) or it still
    ///   has pending messages after its step.
    ///
    /// Each step delivers the process's oldest pending message (FIFO), or
    /// takes a null step for the kickoff. The schedule is a deterministic
    /// function of the run itself, so two runs of the same system produce
    /// identical traces regardless of host or thread count.
    ///
    /// **Soundness**: a process with an empty queue after its kickoff is
    /// stepped again only when a message arrives, so this runner is only
    /// complete for protocols whose automata are quiescent-unless-messaged
    /// after their first step (every fig2/fig4/ABD automaton in this repo
    /// is). Protocols that need spontaneous null steps must use
    /// [`Simulation::run`].
    ///
    /// Stops when `done` returns true or every correct process halted
    /// ([`StopReason::AllCorrectHalted`]), the budget runs out
    /// ([`StopReason::MaxSteps`]), or the worklist drains
    /// ([`StopReason::Starved`] — no reachable step has an effect).
    pub fn run_event_driven<D, F>(&mut self, fd: &D, max_steps: u64, mut done: F) -> RunOutcome
    where
        D: FailureDetector + ?Sized,
        F: FnMut(&Simulation<A>) -> bool,
    {
        let n = self.n();
        let mut worklist: VecDeque<ProcessId> = VecDeque::with_capacity(n);
        let mut queued = vec![false; n];
        for (i, q) in queued.iter_mut().enumerate() {
            let p = ProcessId(i as u32);
            if self.pattern.is_alive(p, self.now.next()) && !self.halted.contains(p) {
                worklist.push_back(p);
                *q = true;
            }
        }
        self.net.set_wake_tracking(true);
        let mut steps = 0;
        let outcome = loop {
            if self.all_correct_halted() || done(self) {
                break self.outcome(steps, StopReason::AllCorrectHalted);
            }
            if steps >= max_steps {
                break self.outcome(steps, StopReason::MaxSteps);
            }
            let Some(p) = worklist.pop_front() else {
                break self.outcome(steps, StopReason::Starved);
            };
            queued[p.index()] = false;
            if self.halted.contains(p) || !self.pattern.is_alive(p, self.now.next()) {
                continue;
            }
            let deliver = (self.net.pending_count(p) > 0).then_some(0);
            self.step(Choice { p, deliver }, fd);
            steps += 1;
            self.net.drain_woken(|woken| {
                if !queued[woken.index()] {
                    queued[woken.index()] = true;
                    worklist.push_back(woken);
                }
            });
            if !self.halted.contains(p) && self.net.pending_count(p) > 0 && !queued[p.index()] {
                queued[p.index()] = true;
                worklist.push_back(p);
            }
        };
        self.net.set_wake_tracking(false);
        outcome
    }
}

impl<A: Automaton + fmt::Debug> Simulation<A> {
    /// Runs under `driver` and `fd`: the one way pipelines, matrix cells,
    /// recordings and replays drive a run. Install link-fault and
    /// adversary plans first ([`Simulation::set_link_faults`],
    /// [`Simulation::set_adversary`]).
    ///
    /// Every run stops once every correct process has halted, or when the
    /// system is [starved](SchedState::starved). A [`Driver::Fair`] run
    /// also stops when `stop` returns true or after `max_steps` steps. A
    /// [`Driver::Replay`] ignores `stop` — the script *is* the run — and
    /// ends with its script unless an engine stop comes first. Lenient
    /// mode honors the same engine stops as strict mode, so the choices a
    /// lenient replay executes strict-replay through the same states
    /// (DESIGN.md §7.1). With a `fingerprints` sink, the
    /// [fingerprint](Simulation::fingerprint) after every executed step
    /// is pushed to it — the schedule fuzzer's coverage probe.
    pub fn drive<D, F>(
        &mut self,
        driver: Driver<'_>,
        fd: &D,
        stop: F,
        mut fingerprints: Option<&mut Vec<u64>>,
    ) -> RunOutcome
    where
        D: FailureDetector + ?Sized,
        F: FnMut(&Simulation<A>) -> bool,
    {
        let on_step = |sim: &Self| {
            if let Some(fps) = fingerprints.as_deref_mut() {
                fps.push(sim.fingerprint());
            }
        };
        match driver {
            Driver::Fair { seed, max_steps } => {
                self.run_loop(&mut FairScheduler::new(seed), fd, max_steps, stop, on_step)
            }
            Driver::Replay { choices, mode } => {
                let mut replayer =
                    Replayer { rest: choices.iter(), lenient: mode == ReplayMode::Lenient };
                self.run_loop(&mut replayer, fd, u64::MAX, |_| false, on_step)
            }
        }
    }

    /// A canonical 64-bit fingerprint of the **checker-visible** state.
    ///
    /// Two simulations with equal fingerprints are *check-equivalent*:
    /// every property checker that respects the checker-input contract
    /// (below) returns the same verdict on both, and their onward
    /// state spaces under the explorer's choice enumeration are
    /// isomorphic. The exhaustive explorer uses this to dedup revisited
    /// states (collisions of the 64-bit hash are possible in principle;
    /// see DESIGN.md for the trade-off discussion).
    ///
    /// **What is hashed**, word by word through a [`StateHasher`] (an
    /// in-repo one-multiply fold — no `std` hashers, per the determinism
    /// contract):
    ///
    /// * per process, one *word* keyed by its id: its automaton state,
    ///   through [`Automaton::hash_state`] (whose contract makes equal
    ///   hashes mean equal `Debug` renderings; a wrapper without an
    ///   override hashes that rendering itself, the one formatter pass a
    ///   fingerprint can take), whether it halted, its
    ///   step count, decision (with time) and emulated failure-detector
    ///   timeline, and — when plans are installed — its outgoing
    ///   link-fault and adversary send counters and its stash row;
    /// * the run constants: the failure pattern, and each installed
    ///   link-fault or adversary plan (its [`StateHash`] encoding) with
    ///   the armor rung;
    /// * the network queues as one **multiset** of `(to, from, payload)`
    ///   triples (per-envelope [`StateHasher`] hashes of the sender and
    ///   the payload's [`StateHash`] encoding, computed once per send);
    /// * the current time (`now`), the network's sent/delivered (and,
    ///   when plans are installed, dropped/duplicated/mutated/forged/
    ///   armored) counters, a running hash of the register-operation
    ///   events (kept as they are recorded) and the trace's sent count.
    ///
    /// **Incremental.** The process words are combined as a wrapping sum
    /// and cached together with the run constants; the queue multiset is
    /// a running sum the network keeps on enqueue and removal once the
    /// first call switches it on. A [`Simulation::step`] of `p` dirties
    /// only `p`'s word; [`Simulation::set_link_faults`],
    /// [`Simulation::set_adversary`] and [`Simulation::take_adversary`]
    /// dirty every word and the constants; [`Simulation::reset`]
    /// invalidates all of it (keeping the buffers) and switches the queue
    /// sum off; `clone`/`clone_from` carry it. A call therefore costs
    /// one word per process stepped since the last call (each O(n) under
    /// installed plans, for its send-counter rows) plus a dozen global
    /// words. Runs that never fingerprint allocate no cache and do no
    /// per-send work.
    ///
    /// **What is deliberately excluded** — harness metadata no checker
    /// may read: message ids and `sent_at` stamps (delivery-by-index
    /// enumeration never consults them), `Step`/`Send` trace events, and
    /// the choice script itself.
    ///
    /// **Checker-input contract**: an exploration `check` closure must be
    /// a pure function of the hashed projection above (equivalently: of
    /// what a [`TraceLevel::Light`] trace plus the live simulation state
    /// exposes, minus message ids and send stamps). Every checker in this
    /// repository reads only decisions, emulated histories, op records
    /// and automaton state, so they all qualify.
    ///
    /// Queues hash as multisets because two interleavings that send the
    /// same messages in different order produce arrival-permuted queues:
    /// the explorer enumerates deliveries in canonical *content* order
    /// (sorted by `(from, payload)`) and keys sleep sets by content,
    /// so permuted queues expand pairwise check-equivalent children with
    /// identical sleep contexts — merging the states is sound (even
    /// under a finite `max_deliveries` cap, whose menu is a
    /// content-order prefix) and is exactly what makes commuting-send
    /// diamonds collapse.
    pub fn fingerprint(&self) -> u64 {
        let mut cache = self.fp.borrow_mut();
        let FpCache { constants, words, sum, dirty, stale } = &mut *cache;
        if *stale {
            *constants = self.constants_word();
            words.clear();
            words.extend((0..self.n() as u32).map(|i| self.process_word(ProcessId(i))));
            *sum = words.iter().fold(0, |acc, &w| acc.wrapping_add(w));
            dirty.clear();
            *stale = false;
        } else {
            for p in dirty.drain(..) {
                let w = self.process_word(p);
                let slot = &mut words[p.index()];
                *sum = sum.wrapping_sub(*slot).wrapping_add(w);
                *slot = w;
            }
        }
        self.combine(*constants, *sum, self.net.queue_sum())
    }

    /// [`Simulation::fingerprint`] recomputed from scratch, without
    /// reading or updating any cache: the oracle the incremental path is
    /// tested against.
    #[doc(hidden)]
    pub fn fingerprint_uncached(&self) -> u64 {
        self.combine(self.constants_word(), self.process_sum(), self.net.queue_sum_uncached())
    }

    /// Order-sensitive sibling of [`Simulation::fingerprint`]: identical
    /// except that each network queue is hashed as its exact
    /// arrival-order **sequence** of envelopes rather than a multiset.
    /// Computed from scratch on every call.
    ///
    /// Equal ordered fingerprints mean the two states agree
    /// envelope-for-envelope per queue — strictly finer than the
    /// multiset view, at the price of *not* collapsing commuting-send
    /// diamonds whose queues are permutations of each other. The
    /// explorer's canonical content-ordered enumeration made the
    /// multiset hash sound for dedup everywhere, so this flavor is not
    /// on the dedup path; it remains the right key for callers that do
    /// distinguish arrival order (differential tooling, queue-order
    /// diagnostics).
    pub fn fingerprint_ordered(&self) -> u64 {
        self.combine(self.constants_word(), self.process_sum(), self.net.queue_sequences())
    }

    /// Folds the three sections with the global counters.
    fn combine(&self, constants: u64, processes: u64, queues: u64) -> u64 {
        let mut h = StateHasher::new();
        h.write(&self.now);
        h.write_u64(constants);
        h.write_u64(processes);
        h.write_u64(queues);
        self.net.counters_into(&mut h);
        self.trace.counters_into(&mut h);
        h.finish()
    }

    /// The run constants: the failure pattern and the installed plans.
    fn constants_word(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_usize(self.pattern.n());
        for p in (0..self.pattern.n() as u32).map(ProcessId) {
            h.write(&self.pattern.crash_time(p));
        }
        self.net.plans_into(&mut h);
        h.finish()
    }

    /// Process `p`'s word: its id, then everything only its own step
    /// changes.
    fn process_word(&self, p: ProcessId) -> u64 {
        let mut h = StateHasher::new();
        h.write(&p);
        self.procs[p.index()].hash_state(&mut h);
        h.write(&self.halted.contains(p));
        self.trace.process_into(p, &mut h);
        self.net.sender_into(p, &mut h);
        h.finish()
    }

    /// Wrapping sum of every process word, from scratch.
    fn process_sum(&self) -> u64 {
        (0..self.n() as u32).fold(0, |acc, i| acc.wrapping_add(self.process_word(ProcessId(i))))
    }
}

/// A reusable [`Simulation`] slot for sweep pipelines.
///
/// The first [`SimPool::acquire`] builds a simulation; every later one
/// rewinds it in place with [`Simulation::reset`], so network queues,
/// the trace event log and the scheduler scratch buffers are recycled
/// run over run instead of re-allocated. One pool per sweep worker.
#[derive(Debug, Default)]
pub struct SimPool<A: Automaton> {
    slot: Option<Simulation<A>>,
    level: TraceLevel,
}

impl<A: Automaton> SimPool<A> {
    /// An empty pool recording at [`TraceLevel::Full`].
    pub fn new() -> Self {
        SimPool { slot: None, level: TraceLevel::Full }
    }

    /// An empty pool recording at `level`.
    pub fn with_trace_level(level: TraceLevel) -> Self {
        SimPool { slot: None, level }
    }

    /// A simulation ready to run `procs` under `pattern`, recycled from
    /// the previous run where possible.
    ///
    /// # Panics
    ///
    /// Panics if `procs.len() != pattern.n()`.
    pub fn acquire(&mut self, procs: Vec<A>, pattern: &FailurePattern) -> &mut Simulation<A> {
        match &mut self.slot {
            Some(sim) => sim.reset(procs, pattern),
            slot @ None => {
                *slot = Some(Simulation::new(procs, pattern.clone()).with_trace_level(self.level));
            }
        }
        self.slot.as_mut().expect("invariant: both match arms above leave the slot occupied")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_model::{FdOutput, NoDetector, OpId, OpKind, Value};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Asserts that the `Effects` it is handed is empty on every step,
    /// then leaves effects behind by its own step count: a send, a
    /// fan-out to all, a fan-out to the others, a decision, op events
    /// with an emulated output, and finally every kind of effect
    /// followed by a panic. Process 1 sends and halts on its first step.
    #[derive(Clone, Debug, Default)]
    struct Probe {
        steps: u32,
    }

    impl Automaton for Probe {
        type Msg = u8;

        fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
            assert_eq!(eff.send_count(), 0, "stale sends at step {}", self.steps);
            assert_eq!(eff.decision(), None, "stale decision at step {}", self.steps);
            assert_eq!(eff.emulated(), None, "stale output at step {}", self.steps);
            assert!(eff.op_events().is_empty(), "stale op events at step {}", self.steps);
            assert!(!eff.halt_requested(), "stale halt at step {}", self.steps);
            self.steps += 1;
            if input.me == ProcessId(1) {
                eff.send(ProcessId(0), 9);
                eff.halt();
                return;
            }
            match self.steps {
                1 => eff.send(ProcessId(1), 1),
                2 => eff.send_all(input.n, 2),
                3 => eff.send_others(input.n, input.me, 3),
                4 => eff.decide(Value(7)),
                5 => {
                    eff.op_invoke(OpId(1), OpKind::Write(Value(3)));
                    eff.op_return(OpId(1), OpKind::Write(Value(3)), None);
                    eff.set_output(FdOutput::Bot);
                }
                6 => {
                    eff.send(ProcessId(2), 4);
                    eff.send_all(input.n, 5);
                    eff.decide(Value(8));
                    eff.set_output(FdOutput::Bot);
                    eff.op_invoke(OpId(2), OpKind::Read);
                    eff.halt();
                    panic!("probe panics mid-effects");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn every_step_starts_from_empty_effects() {
        let mut sim = Simulation::new(vec![Probe::default(); 3], FailurePattern::all_correct(3));
        let p0 = Choice::compute(ProcessId(0));
        for _ in 0..5 {
            sim.step(p0, &NoDetector);
        }
        // A halting step of another process, then p0 again.
        sim.step(Choice::compute(ProcessId(1)), &NoDetector);
        assert!(sim.is_halted(ProcessId(1)));
        let caught = catch_unwind(AssertUnwindSafe(|| sim.step(p0, &NoDetector)));
        assert!(caught.is_err(), "the probe's sixth step panics");
        // The step after the caught panic still sees empty effects.
        let report = sim.step(p0, &NoDetector);
        assert_eq!(report.sent, 0);
        assert!(!report.halted && !report.decided && !report.ops && !report.emulated);
        assert_eq!(sim.process(ProcessId(0)).steps, 7);
        assert_eq!(sim.network().sent_count(), 1 + 3 + 2 + 1);
        assert!(!sim.is_halted(ProcessId(0)));
    }
}
