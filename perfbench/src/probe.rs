//! Outside-in instrumentation: transparent wrappers that time each call
//! into a layer, and an in-memory span recorder.
//!
//! The wrappers change no behaviour. [`Timed`] forwards every
//! [`Automaton`] method and formats through the inner automaton's own
//! `Debug` with the caller's formatter, so the bytes the fingerprint
//! hashes are unchanged; [`TimedFd`] forwards every detector query. The
//! determinism gate checks this: a traced unit must reproduce the
//! untraced unit's counters exactly.
//!
//! Fine-grained busy time (millions of calls) accumulates into
//! per-thread [`Busy`] totals; coarse layer boundaries become [`Span`]s.

use sih_model::{FailureDetector, FdOutput, ProcessId, Time};
use sih_runtime::{Automaton, Effects, StepInput};
use std::cell::Cell;
use std::fmt;
use std::io::Write;
use std::time::Instant;

/// Busy time and call counts of the fine-grained layers, summed over
/// every call on this thread since the last [`Busy::take`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    /// Nanoseconds inside [`Automaton::step`].
    pub step_ns: u64,
    /// Automaton steps taken.
    pub steps: u64,
    /// Nanoseconds inside the automata's `Debug` encoding (the
    /// `write_debug` part of `Simulation::fingerprint`, hashing included:
    /// the formatter streams straight into the hasher).
    pub encode_ns: u64,
    /// Automaton `Debug` encodings.
    pub encodes: u64,
    /// Nanoseconds inside failure-detector queries.
    pub query_ns: u64,
    /// Failure-detector queries.
    pub queries: u64,
}

thread_local! {
    static BUSY: Cell<Busy> = Cell::new(Busy::default());
}

impl Busy {
    /// Returns this thread's totals and resets them to zero.
    pub fn take() -> Busy {
        BUSY.with(|b| b.replace(Busy::default()))
    }

    /// This thread's totals so far.
    pub fn now() -> Busy {
        BUSY.with(Cell::get)
    }

    fn add(update: impl FnOnce(&mut Busy)) {
        BUSY.with(|b| {
            let mut v = b.get();
            update(&mut v);
            b.set(v);
        });
    }
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// An automaton whose steps and `Debug` encodings are timed.
pub struct Timed<A>(pub A);

impl<A: Clone> Clone for Timed<A> {
    fn clone(&self) -> Self {
        Timed(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl<A: fmt::Debug> fmt::Debug for Timed<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = Instant::now();
        let r = self.0.fmt(f);
        let ns = nanos_since(t);
        Busy::add(|b| {
            b.encode_ns += ns;
            b.encodes += 1;
        });
        r
    }
}

impl<A: Automaton> Automaton for Timed<A> {
    type Msg = A::Msg;

    fn step(&mut self, input: StepInput<A::Msg>, eff: &mut Effects<A::Msg>) {
        let t = Instant::now();
        self.0.step(input, eff);
        let ns = nanos_since(t);
        Busy::add(|b| {
            b.step_ns += ns;
            b.steps += 1;
        });
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }

    fn quiescent(&self) -> bool {
        self.0.quiescent()
    }
}

/// A failure detector whose queries are timed.
pub struct TimedFd<D>(pub D);

impl<D: FailureDetector> FailureDetector for TimedFd<D> {
    fn output(&self, p: ProcessId, t: Time) -> FdOutput {
        let start = Instant::now();
        let out = self.0.output(p, t);
        let ns = nanos_since(start);
        Busy::add(|b| {
            b.query_ns += ns;
            b.queries += 1;
        });
        out
    }

    fn stabilization_time(&self) -> Time {
        self.0.stabilization_time()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// Runs `f` and returns its result with the nanoseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, nanos_since(t))
}

/// Least time a set-up measurement spans: builds faster than this are
/// repeated and averaged, so that microsecond set-ups read steadily.
const SETUP_MIN_NS: u64 = 1_000_000;

/// Builds a unit's inputs, repeating `build` until [`SETUP_MIN_NS`]
/// have passed; returns the last build and the mean nanoseconds per
/// build. Earlier builds are dropped after the clock stops.
pub fn built<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let mut builds = Vec::new();
    let ns = loop {
        builds.push(build());
        let ns = nanos_since(t);
        if ns >= SETUP_MIN_NS {
            break ns;
        }
    };
    let n = builds.len();
    (builds.pop().expect("at least one build"), ns as f64 / n as f64)
}

/// One recorded layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// The unit (one pass over the workload's fixed input) it belongs to.
    pub unit: u64,
    /// Layer boundary name, e.g. `runtime.explore`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// An in-memory span recorder; spans are written out only at the end of
/// the run, so recording costs two clock reads and a push.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), unit: 0 }
    }
}

impl Spans {
    /// Starts a new unit: later spans share its id.
    pub fn next_unit(&mut self) {
        self.unit += 1;
    }

    /// Opens a span named `name`, nested in the innermost open span, and
    /// returns its handle for [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            unit: self.unit,
            name,
            parent: self.open.last().copied(),
            start_ns: nanos_since(self.origin),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = nanos_since(self.origin);
    }

    /// Records `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.enter(name);
        let r = f(self);
        self.exit(idx);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, with its self time (duration
    /// minus the time its child spans cover).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"unit\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{}}}",
                s.unit,
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i])
            )?;
        }
        Ok(())
    }
}
