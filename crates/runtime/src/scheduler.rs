//! Schedulers: who steps next, and which message (if any) they receive.
//!
//! The asynchrony of the model lives entirely here. A [`Scheduler`] is
//! asked, before every step, to pick a [`Choice`]: the stepping process and
//! an optional pending-message index to deliver to it. The engine enforces
//! crash times; schedulers must provide *fairness* (every correct process
//! keeps taking steps, every message to a live process is eventually
//! delivered) for runs to be legal runs of the paper's model —
//! [`FairScheduler`] does this with explicit anti-starvation bounds, while
//! [`ScriptedScheduler`] replays recorded or hand-authored prefixes for the
//! indistinguishability constructions.

// sih-analysis: allow(float) — deliver_prob is a single Bernoulli
// parameter fed to a seeded ChaCha8Rng; no accumulation, replay-safe.

// sih-analysis: allow(index-reachable) — FairScheduler::choose indexes since_scheduled, resized
// to the view's n first, by members of the view's schedulable set, which are all below n.
use crate::sim::SchedState;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sih_model::ProcessId;

/// One scheduling decision: step `p`, optionally delivering the
/// `deliver`-th pending message of its arrival-ordered queue.
///
/// The derived order (process id first, then `None < Some(0) < Some(1) <
/// …`) is exactly the canonical enumeration order of the exhaustive
/// explorer, so comparing `Vec<Choice>` scripts lexicographically ranks
/// schedules in exploration order — the parallel explorer uses this to
/// define its thread-count-independent "first" violation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Choice {
    /// The process that takes the step.
    pub p: ProcessId,
    /// Index into `p`'s pending queue (arrival order), or `None` for a
    /// step that receives the null message.
    pub deliver: Option<usize>,
}

impl Choice {
    /// A step of `p` with no delivery.
    pub fn compute(p: ProcessId) -> Self {
        Choice { p, deliver: None }
    }

    /// A step of `p` delivering its oldest pending message.
    pub fn deliver_oldest(p: ProcessId) -> Self {
        Choice { p, deliver: Some(0) }
    }
}

/// Chooses the next step of a run.
pub trait Scheduler {
    /// Picks the next step given the engine's view, or `None` to end the
    /// run (e.g. everyone interesting has halted, or a script ran out).
    fn choose(&mut self, view: &SchedState<'_>) -> Option<Choice>;
}

/// A fair randomized scheduler (the workhorse for positive experiments).
///
/// Fairness mechanisms, all deterministic in the seed:
///
/// * **Step fairness** — among schedulable processes (alive, not halted),
///   any process starved for more than [`starvation_bound`] consecutive
///   steps is scheduled immediately; otherwise the pick is uniform.
/// * **Delivery fairness** — when the chosen process has pending messages,
///   one is delivered with probability `deliver_prob`; a message older
///   than [`delivery_bound`] forces delivery of the oldest. Delivery picks
///   are skewed toward older messages.
///
/// [`starvation_bound`]: FairScheduler::starvation_bound
/// [`delivery_bound`]: FairScheduler::delivery_bound
#[derive(Clone, Debug)]
pub struct FairScheduler {
    rng: ChaCha8Rng,
    deliver_prob: f64,
    starvation_bound: u64,
    delivery_bound: u64,
    since_scheduled: Vec<u64>,
}

impl FairScheduler {
    /// A fair scheduler with the given seed and default bounds.
    pub fn new(seed: u64) -> Self {
        FairScheduler {
            rng: ChaCha8Rng::seed_from_u64(seed),
            deliver_prob: 0.75,
            starvation_bound: 64,
            delivery_bound: 96,
            since_scheduled: Vec::new(),
        }
    }

    /// Sets the probability of delivering a pending message when one
    /// exists (clamped to `[0.05, 1.0]` — a zero would break channel
    /// reliability in runs shorter than the delivery bound).
    pub fn with_deliver_prob(mut self, p: f64) -> Self {
        self.deliver_prob = p.clamp(0.05, 1.0);
        self
    }

    /// Maximum consecutive steps a schedulable process may be passed over.
    pub fn starvation_bound(&self) -> u64 {
        self.starvation_bound
    }

    /// Maximum age (in steps) a pending message may reach before its
    /// delivery is forced.
    pub fn delivery_bound(&self) -> u64 {
        self.delivery_bound
    }

    /// Overrides the anti-starvation bounds (both must be positive).
    pub fn with_bounds(mut self, starvation: u64, delivery: u64) -> Self {
        assert!(starvation > 0 && delivery > 0, "bounds must be positive");
        self.starvation_bound = starvation;
        self.delivery_bound = delivery;
        self
    }
}

impl Scheduler for FairScheduler {
    fn choose(&mut self, view: &SchedState<'_>) -> Option<Choice> {
        let schedulable = view.schedulable_set;
        if schedulable.is_empty() {
            return None;
        }
        if self.since_scheduled.len() < view.n {
            self.since_scheduled.resize(view.n, 0);
        }

        // Starvation rescue first, then uniform pick: the k-th schedulable
        // process in id order, read off the bitset without collecting it.
        let p = schedulable
            .iter()
            .find(|p| self.since_scheduled[p.index()] >= self.starvation_bound)
            .unwrap_or_else(|| {
                let k = self.rng.gen_range(0..schedulable.len());
                schedulable.iter().nth(k).expect("invariant: k < |schedulable|")
            });

        for q in schedulable {
            self.since_scheduled[q.index()] += 1;
        }
        self.since_scheduled[p.index()] = 0;

        let pending = view.pending_count(p);
        let deliver = if pending == 0 {
            None
        } else if view.oldest_age(p).is_some_and(|age| age >= self.delivery_bound) {
            view.oldest_index(p)
        } else if self.rng.gen_bool(self.deliver_prob) {
            // Skew toward older messages: pick two indices, keep the lower.
            let a = self.rng.gen_range(0..pending);
            let b = self.rng.gen_range(0..pending);
            Some(a.min(b))
        } else {
            None
        };
        Some(Choice { p, deliver })
    }
}

/// A deterministic round-robin scheduler: cycles through live processes in
/// id order, delivering the oldest pending message whenever one exists.
/// Produces the "synchronous-looking" runs that make good baselines and
/// fast tests.
#[derive(Clone, Debug, Default)]
pub struct RoundRobinScheduler {
    cursor: u32,
}

impl RoundRobinScheduler {
    /// A round-robin scheduler starting at `p0`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn choose(&mut self, view: &SchedState<'_>) -> Option<Choice> {
        let n = view.n as u32;
        for off in 0..n {
            let p = ProcessId((self.cursor + off) % n);
            if view.is_schedulable(p) {
                self.cursor = (p.0 + 1) % n;
                let deliver = if view.pending_count(p) > 0 { view.oldest_index(p) } else { None };
                return Some(Choice { p, deliver });
            }
        }
        None
    }
}

/// The typed error a strict [`ScriptedScheduler`] records when its script
/// runs out: in strict mode exhaustion must *end* the run (as
/// `StopReason::SchedulerExhausted`), never silently hand over to the
/// fallback — replay harnesses depend on "every executed step came from
/// the script" to call a replay bit-identical.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScriptExhausted {
    /// Scripted choices performed before the script ran out.
    pub performed: usize,
}

impl std::fmt::Display for ScriptExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "script exhausted after {} scripted choices (strict mode)", self.performed)
    }
}

impl std::error::Error for ScriptExhausted {}

/// Replays a fixed sequence of choices, then optionally hands over to an
/// inner scheduler. An illegal scripted choice is surfaced as an engine
/// panic, because the adversary constructions depend on scripts being
/// executed exactly.
///
/// In **strict** mode ([`ScriptedScheduler::strict`], or
/// [`set_strict`](ScriptedScheduler::set_strict) mid-run), script
/// exhaustion is a hard stop: the fallback is *not* consulted — even if
/// one was installed — the run ends with `SchedulerExhausted`, and the
/// typed [`ScriptExhausted`] error is available from
/// [`exhaustion`](ScriptedScheduler::exhaustion). Without strict mode an
/// exhausted script silently delegates to the fallback (the historical
/// behavior, still right for "scripted prefix, then fair" experiments).
pub struct ScriptedScheduler {
    choices: std::collections::VecDeque<Choice>,
    then: Option<Box<dyn Scheduler>>,
    performed: usize,
    strict: bool,
    exhausted: Option<ScriptExhausted>,
}

impl std::fmt::Debug for ScriptedScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedScheduler")
            .field("remaining", &self.choices.len())
            .field("has_fallback", &self.then.is_some())
            .field("strict", &self.strict)
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl ScriptedScheduler {
    /// A scheduler that performs exactly `choices`, then stops.
    pub fn new(choices: impl IntoIterator<Item = Choice>) -> Self {
        ScriptedScheduler {
            choices: choices.into_iter().collect(),
            then: None,
            performed: 0,
            strict: false,
            exhausted: None,
        }
    }

    /// A scheduler that performs `choices`, then delegates to `then`.
    pub fn followed_by(
        choices: impl IntoIterator<Item = Choice>,
        then: impl Scheduler + 'static,
    ) -> Self {
        ScriptedScheduler { then: Some(Box::new(then)), ..ScriptedScheduler::new(choices) }
    }

    /// Strict mode: exhaustion ends the run with a typed error instead of
    /// handing over to the fallback.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Toggles strict mode mid-run. Turning strict on after the script
    /// already ran out still applies: the *next* `choose` records the
    /// exhaustion and stops instead of consulting the fallback.
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// The typed exhaustion error, if strict mode stopped the run.
    pub fn exhaustion(&self) -> Option<&ScriptExhausted> {
        self.exhausted.as_ref()
    }

    /// Remaining scripted choices.
    pub fn remaining(&self) -> usize {
        self.choices.len()
    }
}

impl Scheduler for ScriptedScheduler {
    fn choose(&mut self, view: &SchedState<'_>) -> Option<Choice> {
        match self.choices.pop_front() {
            Some(c) => {
                self.performed += 1;
                Some(c)
            }
            None if self.strict => {
                self.exhausted = Some(ScriptExhausted { performed: self.performed });
                None
            }
            None => self.then.as_mut().and_then(|s| s.choose(view)),
        }
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn choose(&mut self, view: &SchedState<'_>) -> Option<Choice> {
        (**self).choose(view)
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn choose(&mut self, view: &SchedState<'_>) -> Option<Choice> {
        (**self).choose(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Automaton, Effects, Simulation, StepInput, StopReason};
    use sih_model::{FailurePattern, NoDetector};

    #[derive(Clone, Debug, Default)]
    struct Idle;

    impl Automaton for Idle {
        type Msg = ();
        fn step(&mut self, _input: StepInput<()>, _eff: &mut Effects<()>) {}
    }

    fn sim(n: usize) -> Simulation<Idle> {
        Simulation::new(vec![Idle; n], FailurePattern::all_correct(n))
    }

    fn script(len: usize) -> Vec<Choice> {
        (0..len).map(|i| Choice::compute(ProcessId((i % 2) as u32))).collect()
    }

    #[test]
    fn non_strict_exhaustion_hands_over_to_fallback() {
        let mut sim = sim(2);
        let mut sched = ScriptedScheduler::followed_by(script(3), RoundRobinScheduler::new());
        let outcome = sim.run(&mut sched, &NoDetector, 10);
        // The fallback keeps the run going until the step bound.
        assert_eq!(outcome.reason, StopReason::MaxSteps);
        assert_eq!(sim.script().len(), 10);
        assert!(sched.exhaustion().is_none());
    }

    #[test]
    fn strict_exhaustion_is_a_typed_stop_even_with_a_fallback() {
        let mut sim = sim(2);
        let mut sched =
            ScriptedScheduler::followed_by(script(3), RoundRobinScheduler::new()).strict();
        let outcome = sim.run(&mut sched, &NoDetector, 10);
        // The fallback is never consulted: exactly the script executes.
        assert_eq!(outcome.reason, StopReason::SchedulerExhausted);
        assert_eq!(sim.script(), &script(3)[..]);
        let err = sched.exhaustion().expect("strict exhaustion must be recorded");
        assert_eq!(err.performed, 3);
        assert!(err.to_string().contains("after 3 scripted choices"));
    }

    #[test]
    fn strict_set_mid_run_stops_at_exhaustion() {
        let mut sim = sim(2);
        let mut sched = ScriptedScheduler::followed_by(script(4), RoundRobinScheduler::new());
        // Execute two scripted steps under the lenient default...
        for _ in 0..2 {
            let choice = {
                let view = sim.sched_state();
                sched.choose(&view).expect("script has choices left")
            };
            sim.step(choice, &NoDetector);
        }
        // ...then the harness tightens the contract mid-run.
        sched.set_strict(true);
        let outcome = sim.run(&mut sched, &NoDetector, 10);
        assert_eq!(outcome.reason, StopReason::SchedulerExhausted);
        assert_eq!(sim.script().len(), 4); // the two remaining scripted steps ran
        assert_eq!(sched.exhaustion(), Some(&ScriptExhausted { performed: 4 }));
    }

    #[test]
    fn strict_without_fallback_still_reports() {
        let mut sim = sim(1);
        let mut sched = ScriptedScheduler::new(script(0)).strict();
        let outcome = sim.run(&mut sched, &NoDetector, 5);
        assert_eq!(outcome.reason, StopReason::SchedulerExhausted);
        assert_eq!(sched.exhaustion(), Some(&ScriptExhausted { performed: 0 }));
    }
}
