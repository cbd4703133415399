//! Counterexample capture, shrinking, and replay.
//!
//! A failing run — a `check_*` rejection, an explorer violation, or an
//! engine panic — is only useful if it can be handed to a developer as an
//! artifact. This module defines that artifact: a [`Schedule`] bundles
//! everything the engine needs to reproduce a run bit-identically (the
//! exact [`Choice`] sequence, the crash pattern, the link-fault plan, the
//! detector seed and the workload parameters), serialized in a versioned,
//! diff-friendly text format so minimized schedules can live in a
//! committed corpus (`tests/corpus/`).
//!
//! The companion [`shrink_schedule`] is a delta-debugging minimizer: it
//! repeatedly proposes structurally smaller schedules (dropping choices
//! ddmin-style, removing or shortening fault windows, merging crash
//! windows into crash-from-start, reducing `n`) and keeps a candidate only
//! when a caller-supplied evaluator confirms the *same* checker verdict
//! still reproduces. The shrinker is serial and purely deterministic: its
//! output depends only on the input schedule and the evaluator, never on
//! thread count or wall-clock.
//!
//! # Format (version 1)
//!
//! ```text
//! sih-schedule v1
//! checker: fig2-weak-sigma
//! n: 3
//! k: 2
//! seed: 7
//! max-steps: 40
//! verdict: violation:agreement
//! crash-from-start: p2
//! crash: p1 @ 10
//! link: drop p0->p1 0%1 @[0, 200)
//! link: dup p2->p0 1%3 @[5, inf)
//! choice: p0 .
//! choice: p1 0
//! ```
//!
//! Blank lines and `#` comments are ignored. `choice: pI .` is a step of
//! `pI` receiving the null message; `choice: pI 4` delivers the message at
//! index 4 of `pI`'s arrival-ordered pending queue. The `verdict` is a
//! stable property-level token (e.g. `violation:agreement`, `panic`), not
//! a detail string, so it survives shrinking unchanged.
//!
//! # Format (version 2)
//!
//! Version 2 extends v1 with the Byzantine adversary environment — a
//! mutation plan, an optional scripted protocol attack, and the armor
//! rung the honest processes ran with:
//!
//! ```text
//! sih-schedule v2
//! checker: fig2-byz-perturb
//! n: 3
//! k: 2
//! seed: 7
//! max-steps: 40
//! verdict: violation:agreement
//! armor: 1
//! adversary: perturb p0->p1 0%1 @[0, 40) x=9
//! adversary: forge-sender p2->p0 1%3 @[5, inf) x=1
//! attack: equivocate x=3
//! choice: p0 .
//! choice: p1 0
//! ```
//!
//! Both versions parse; [`Schedule::to_text`] emits v1 whenever every
//! adversary field is at its default (honest plan, no attack, no armor),
//! so pre-existing corpus files round-trip byte-identically.

use crate::scheduler::Choice;
use crate::{Automaton, Fnv64, Simulation};
use sih_model::{
    AdversaryPlan, Armor, AttackKind, AttackSpec, FailurePattern, LinkFault, LinkFaultPlan,
    LinkFaultWindow, MutationKind, MutationWindow, ProcessId, Time,
};
use std::fmt;

/// The schedule format version this build writes when any adversary field
/// is non-default (it reads both v1 and v2).
pub const SCHEDULE_VERSION: u32 = 2;

/// A self-contained, replayable record of one run: workload identity and
/// parameters, the full fault environment, and the exact choice sequence.
///
/// `checker` names a registered workload (the lab crate owns the registry
/// mapping names to automata + detector + checker); `k` is a free workload
/// parameter (the `k` of `k`-set agreement; `1` where unused). `verdict`
/// is the property-level outcome the schedule witnesses — replaying must
/// reproduce it exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Registered checker/workload name (e.g. `fig2-weak-sigma`).
    pub checker: String,
    /// Number of processes.
    pub n: usize,
    /// Workload parameter (the `k` of `k`-set agreement; `1` if unused).
    pub k: usize,
    /// Detector / scheduler seed the run was recorded under.
    pub seed: u64,
    /// Step bound of the recorded run.
    pub max_steps: u64,
    /// Crash pattern of the run.
    pub pattern: FailurePattern,
    /// Link-fault plan of the run ([`LinkFaultPlan::reliable`] if none).
    pub faults: LinkFaultPlan,
    /// Mutation-adversary plan of the run ([`AdversaryPlan::honest`] if
    /// none was installed).
    pub adversary: AdversaryPlan,
    /// Scripted protocol attack the workload ran with, if any.
    pub attack: Option<AttackSpec>,
    /// Armor rung the honest processes ran with.
    pub armor: Armor,
    /// The executed choice sequence, step by step.
    pub choices: Vec<Choice>,
    /// Property-level verdict token the schedule reproduces.
    pub verdict: String,
}

/// Why a schedule failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The first line is not a `sih-schedule v<N>` header.
    MissingHeader,
    /// The header names a version this build does not read.
    UnsupportedVersion {
        /// The version token found in the header.
        found: String,
    },
    /// A required field never appeared.
    MissingField {
        /// Name of the missing field.
        field: &'static str,
    },
    /// A line did not match the grammar.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::MissingHeader => {
                write!(f, "missing `sih-schedule v{SCHEDULE_VERSION}` header")
            }
            ScheduleError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported schedule version `{found}` (this build reads v{SCHEDULE_VERSION})"
                )
            }
            ScheduleError::MissingField { field } => write!(f, "missing required field `{field}`"),
            ScheduleError::Malformed { line, detail } => write!(f, "line {line}: {detail}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Captures the run executed so far by `sim` as a schedule: the exact
    /// executed script, the crash pattern and link-fault plan, plus the
    /// caller-supplied workload identity, parameters, and verdict.
    ///
    /// Because [`Simulation::script`] records each choice *before* the
    /// automaton steps, a run that panicked mid-step is captured up to and
    /// including the panicking choice.
    pub fn capture<A: Automaton>(
        sim: &Simulation<A>,
        checker: impl Into<String>,
        k: usize,
        seed: u64,
        max_steps: u64,
        verdict: impl Into<String>,
    ) -> Schedule {
        let n = sim.n();
        Schedule {
            checker: checker.into(),
            n,
            k,
            seed,
            max_steps,
            pattern: sim.pattern().clone(),
            faults: sim
                .network()
                .link_fault_plan()
                .cloned()
                .unwrap_or_else(|| LinkFaultPlan::reliable(n)),
            adversary: sim
                .network()
                .adversary_plan()
                .cloned()
                .unwrap_or_else(|| AdversaryPlan::honest(n)),
            attack: None, // a workload-level concept; the recorder fills it in
            armor: sim.network().armor().unwrap_or(Armor::NONE),
            choices: sim.script().to_vec(),
            verdict: verdict.into(),
        }
    }

    /// Whether every adversary field is at its default — such schedules
    /// serialize in the v1 grammar, keeping pre-adversary corpus files
    /// byte-stable. Equivalently: [`Schedule::to_text`] writes a v1
    /// header iff this is true (the version invariant the fuzzer's
    /// mutation operators must preserve).
    pub fn adversary_free(&self) -> bool {
        self.adversary.is_honest() && self.attack.is_none() && self.armor == Armor::NONE
    }

    /// A canonical 64-bit digest of the schedule: FNV-1a/64 over the
    /// exact serialized text. Because [`Schedule::to_text`] round-trips
    /// exactly, equal digests mean equal schedules (up to hash
    /// collisions) — the corpus-dedup and corpus-summary key of the
    /// fuzzer, identical across thread counts and platforms.
    ///
    /// The text streams straight into the hasher through the writer
    /// [`Schedule::to_text`] uses, so the value is exactly
    /// `fnv1a_64(self.to_text().as_bytes())` without building the text.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.write_text(&mut h);
        h.finish()
    }

    /// Serializes to the versioned text format (parseable by
    /// [`Schedule::parse`]; round-trips exactly).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// The one writer of the canonical text, shared by
    /// [`Schedule::to_text`] and [`Schedule::digest`].
    fn write_text(&self, out: &mut impl TextSink) {
        out.put("sih-schedule v");
        out.put_u64(if self.adversary_free() { 1 } else { u64::from(SCHEDULE_VERSION) });
        out.put("\nchecker: ");
        out.put(&self.checker);
        out.put("\nn: ");
        out.put_u64(self.n as u64);
        out.put("\nk: ");
        out.put_u64(self.k as u64);
        out.put("\nseed: ");
        out.put_u64(self.seed);
        out.put("\nmax-steps: ");
        out.put_u64(self.max_steps);
        out.put("\nverdict: ");
        out.put(&self.verdict);
        out.put("\n");
        for p in self.pattern.all().iter() {
            if self.pattern.crashed_from_start_at(p) {
                out.put("crash-from-start: ");
                out.put_pid(p);
                out.put("\n");
            } else if let Some(t) = self.pattern.crash_time(p) {
                out.put("crash: ");
                out.put_pid(p);
                out.put(" @ ");
                out.put_u64(t.0);
                out.put("\n");
            }
        }
        for w in self.faults.windows() {
            let (kind, stride, offset) = match w.fault {
                LinkFault::Drop { stride, offset } => ("drop", stride, offset),
                LinkFault::Duplicate { stride, offset } => ("dup", stride, offset),
            };
            out.put("link: ");
            out.put(kind);
            out.put(" ");
            out.put_link(w.src, w.dst, offset, stride);
            out.put_span(w.from, w.until);
            out.put("\n");
        }
        if !self.adversary_free() {
            if self.armor != Armor::NONE {
                out.put("armor: ");
                out.put_u64(u64::from(self.armor.rung()));
                out.put("\n");
            }
            for w in self.adversary.windows() {
                out.put("adversary: ");
                out.put(w.kind.name());
                out.put(" ");
                out.put_link(w.src, w.dst, w.offset, w.stride);
                out.put_span(w.from, w.until);
                out.put(" x=");
                out.put_u64(w.x);
                out.put("\n");
            }
            if let Some(a) = self.attack {
                out.put("attack: ");
                out.put(a.kind.name());
                out.put(" x=");
                out.put_u64(a.x);
                out.put("\n");
            }
        }
        for c in &self.choices {
            out.put("choice: ");
            out.put_pid(c.p);
            match c.deliver {
                None => out.put(" .\n"),
                Some(i) => {
                    out.put(" ");
                    out.put_u64(i as u64);
                    out.put("\n");
                }
            }
        }
    }

    /// Parses the versioned text format. Blank lines and `#` comments are
    /// skipped; errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Schedule, ScheduleError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

        let (lineno, header) = lines.next().ok_or(ScheduleError::MissingHeader)?;
        let version = header.strip_prefix("sih-schedule v").ok_or(ScheduleError::MissingHeader)?;
        if !matches!(version.parse::<u32>(), Ok(v) if (1..=SCHEDULE_VERSION).contains(&v)) {
            let _ = lineno;
            return Err(ScheduleError::UnsupportedVersion { found: version.to_string() });
        }

        let mut checker: Option<String> = None;
        let mut n: Option<usize> = None;
        let mut k: usize = 1;
        let mut seed: u64 = 0;
        let mut max_steps: Option<u64> = None;
        let mut verdict: Option<String> = None;
        let mut crashes: Vec<(ProcessId, Option<Time>)> = Vec::new();
        let mut windows: Vec<LinkFaultWindow> = Vec::new();
        let mut adv_windows: Vec<MutationWindow> = Vec::new();
        let mut attack: Option<AttackSpec> = None;
        let mut armor = Armor::NONE;
        let mut choices: Vec<Choice> = Vec::new();

        for (lineno, line) in lines {
            let (key, rest) = line.split_once(':').ok_or_else(|| ScheduleError::Malformed {
                line: lineno,
                detail: format!("expected `key: value`, got `{line}`"),
            })?;
            let rest = rest.trim();
            match key.trim() {
                "checker" => checker = Some(rest.to_string()),
                "n" => n = Some(parse_num(rest, lineno, "n")? as usize),
                "k" => k = parse_num(rest, lineno, "k")? as usize,
                "seed" => seed = parse_num(rest, lineno, "seed")?,
                "max-steps" => max_steps = Some(parse_num(rest, lineno, "max-steps")?),
                "verdict" => verdict = Some(rest.to_string()),
                "crash-from-start" => crashes.push((parse_pid(rest, lineno)?, None)),
                "crash" => {
                    let (p, t) = rest.split_once('@').ok_or_else(|| ScheduleError::Malformed {
                        line: lineno,
                        detail: format!("expected `crash: pI @ t`, got `{rest}`"),
                    })?;
                    crashes.push((
                        parse_pid(p.trim(), lineno)?,
                        Some(Time(parse_num(t.trim(), lineno, "crash time")?)),
                    ));
                }
                "link" => windows.push(parse_window(rest, lineno)?),
                "adversary" => adv_windows.push(parse_mutation(rest, lineno)?),
                "attack" => attack = Some(parse_attack(rest, lineno)?),
                "armor" => {
                    let rung = parse_num(rest, lineno, "armor rung")?;
                    if rung > u64::from(Armor::MAX.rung()) {
                        return Err(ScheduleError::Malformed {
                            line: lineno,
                            detail: format!(
                                "armor rung {rung} exceeds the ladder top {}",
                                Armor::MAX.rung()
                            ),
                        });
                    }
                    armor = Armor::level(rung as u8);
                }
                "choice" => {
                    let mut toks = rest.split_whitespace();
                    let p = parse_pid(
                        toks.next().ok_or_else(|| ScheduleError::Malformed {
                            line: lineno,
                            detail: "choice needs a process".to_string(),
                        })?,
                        lineno,
                    )?;
                    let deliver = match toks.next() {
                        Some(".") | None => None,
                        Some(tok) => Some(parse_num(tok, lineno, "delivery index")? as usize),
                    };
                    choices.push(Choice { p, deliver });
                }
                other => {
                    return Err(ScheduleError::Malformed {
                        line: lineno,
                        detail: format!("unknown key `{other}`"),
                    })
                }
            }
        }

        let checker = checker.ok_or(ScheduleError::MissingField { field: "checker" })?;
        let n = n.ok_or(ScheduleError::MissingField { field: "n" })?;
        let max_steps = max_steps.ok_or(ScheduleError::MissingField { field: "max-steps" })?;
        let verdict = verdict.ok_or(ScheduleError::MissingField { field: "verdict" })?;

        let mut pb = FailurePattern::builder(n);
        for (p, t) in crashes {
            pb = match t {
                None => pb.crash_from_start(p),
                Some(t) => pb.crash_at(p, t),
            };
        }
        Ok(Schedule {
            checker,
            n,
            k,
            seed,
            max_steps,
            pattern: pb.build_unchecked(),
            faults: plan_from_windows(n, &windows),
            adversary: adversary_from_windows(n, &adv_windows),
            attack,
            armor,
            choices,
            verdict,
        })
    }
}

/// Where [`Schedule::write_text`] sends the canonical text: a `String`
/// for [`Schedule::to_text`], an FNV-1a hasher for [`Schedule::digest`].
/// Numbers are written digit by digit, with no formatter pass.
trait TextSink {
    /// Appends `s`.
    fn put(&mut self, s: &str);

    /// Appends one ASCII byte.
    fn put_ascii(&mut self, b: u8);

    /// Appends `v` in decimal, most significant digit first.
    fn put_u64(&mut self, v: u64) {
        let mut unit = 1;
        while v / unit >= 10 {
            unit *= 10;
        }
        while unit > 0 {
            self.put_ascii(b'0' + (v / unit % 10) as u8);
            unit /= 10;
        }
    }

    /// Appends a process id as `pI` (its `Display` form).
    fn put_pid(&mut self, p: ProcessId) {
        self.put_ascii(b'p');
        self.put_u64(u64::from(p.0));
    }

    /// Appends a window's link and selector, `pI->pJ offset%stride`.
    fn put_link(&mut self, src: ProcessId, dst: ProcessId, offset: u64, stride: u64) {
        self.put_pid(src);
        self.put("->");
        self.put_pid(dst);
        self.put_ascii(b' ');
        self.put_u64(offset);
        self.put_ascii(b'%');
        self.put_u64(stride);
    }

    /// Appends a window's span, ` @[from, until)` with `inf` for a
    /// window that never heals.
    fn put_span(&mut self, from: Time, until: Option<Time>) {
        self.put(" @[");
        self.put_u64(from.0);
        self.put(", ");
        match until {
            Some(u) => self.put_u64(u.0),
            None => self.put("inf"),
        }
        self.put_ascii(b')');
    }
}

impl TextSink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }

    fn put_ascii(&mut self, b: u8) {
        self.push(char::from(b));
    }
}

impl TextSink for Fnv64 {
    fn put(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    fn put_ascii(&mut self, b: u8) {
        self.write(&[b]);
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn parse_num(tok: &str, line: usize, what: &str) -> Result<u64, ScheduleError> {
    tok.parse::<u64>().map_err(|_| ScheduleError::Malformed {
        line,
        detail: format!("{what}: expected a number, got `{tok}`"),
    })
}

fn parse_pid(tok: &str, line: usize) -> Result<ProcessId, ScheduleError> {
    tok.strip_prefix('p').and_then(|d| d.parse::<u32>().ok()).map(ProcessId).ok_or_else(|| {
        ScheduleError::Malformed {
            line,
            detail: format!("expected a process id `pI`, got `{tok}`"),
        }
    })
}

/// Parses `drop p0->p1 0%1 @[0, 200)` / `dup p2->p0 1%3 @[5, inf)`.
fn parse_window(rest: &str, line: usize) -> Result<LinkFaultWindow, ScheduleError> {
    let bad = |detail: String| ScheduleError::Malformed { line, detail };
    let mut toks = rest.split_whitespace();
    let kind = toks.next().ok_or_else(|| bad("empty link spec".to_string()))?;
    let linkspec = toks.next().ok_or_else(|| bad("link needs `pI->pJ`".to_string()))?;
    let sel = toks.next().ok_or_else(|| bad("link needs `offset%stride`".to_string()))?;
    let span: String = toks.collect::<Vec<_>>().join(" ");

    let (src, dst) = linkspec
        .split_once("->")
        .ok_or_else(|| bad(format!("expected `pI->pJ`, got `{linkspec}`")))?;
    let (src, dst) = (parse_pid(src, line)?, parse_pid(dst, line)?);

    let (offset, stride) =
        sel.split_once('%').ok_or_else(|| bad(format!("expected `offset%stride`, got `{sel}`")))?;
    let (offset, stride) = (parse_num(offset, line, "offset")?, parse_num(stride, line, "stride")?);

    let span = span
        .strip_prefix("@[")
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| bad(format!("expected `@[from, until)`, got `{span}`")))?;
    let (from, until) =
        span.split_once(',').ok_or_else(|| bad(format!("expected `from, until`, got `{span}`")))?;
    let from = Time(parse_num(from.trim(), line, "window start")?);
    let until = match until.trim() {
        "inf" => None,
        t => Some(Time(parse_num(t, line, "window end")?)),
    };

    let fault = match kind {
        "drop" => LinkFault::Drop { stride, offset },
        "dup" => LinkFault::Duplicate { stride, offset },
        other => return Err(bad(format!("unknown link fault `{other}`"))),
    };
    Ok(LinkFaultWindow { src, dst, fault, from, until })
}

/// Parses `perturb p0->p1 0%1 @[0, 40) x=9` (same link/selector/span
/// grammar as `link:`, plus a mutation kind and its `x` parameter).
fn parse_mutation(rest: &str, line: usize) -> Result<MutationWindow, ScheduleError> {
    let bad = |detail: String| ScheduleError::Malformed { line, detail };
    let (rest, x) = match rest.rsplit_once("x=") {
        Some((head, x)) => (head.trim(), parse_num(x.trim(), line, "mutation x")?),
        None => return Err(bad(format!("adversary line needs a trailing `x=N`, got `{rest}`"))),
    };
    let mut toks = rest.split_whitespace();
    let kind = toks.next().ok_or_else(|| bad("empty adversary spec".to_string()))?;
    let kind = MutationKind::from_name(kind)
        .ok_or_else(|| bad(format!("unknown mutation kind `{kind}`")))?;
    let linkspec = toks.next().ok_or_else(|| bad("adversary needs `pI->pJ`".to_string()))?;
    let sel = toks.next().ok_or_else(|| bad("adversary needs `offset%stride`".to_string()))?;
    let span: String = toks.collect::<Vec<_>>().join(" ");

    let (src, dst) = linkspec
        .split_once("->")
        .ok_or_else(|| bad(format!("expected `pI->pJ`, got `{linkspec}`")))?;
    let (src, dst) = (parse_pid(src, line)?, parse_pid(dst, line)?);

    let (offset, stride) =
        sel.split_once('%').ok_or_else(|| bad(format!("expected `offset%stride`, got `{sel}`")))?;
    let (offset, stride) = (parse_num(offset, line, "offset")?, parse_num(stride, line, "stride")?);
    if stride == 0 || offset >= stride {
        return Err(bad(format!("selector `{offset}%{stride}` needs offset < stride, stride > 0")));
    }

    let span = span
        .strip_prefix("@[")
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| bad(format!("expected `@[from, until)`, got `{span}`")))?;
    let (from, until) =
        span.split_once(',').ok_or_else(|| bad(format!("expected `from, until`, got `{span}`")))?;
    let from = Time(parse_num(from.trim(), line, "window start")?);
    let until = match until.trim() {
        "inf" => None,
        t => Some(Time(parse_num(t, line, "window end")?)),
    };
    if let Some(u) = until {
        if u <= from {
            return Err(bad(format!("empty adversary window @[{}, {})", from.0, u.0)));
        }
    }
    Ok(MutationWindow { src, dst, kind, x, stride, offset, from, until })
}

/// Parses `equivocate x=3` / `split-ack x=1`.
fn parse_attack(rest: &str, line: usize) -> Result<AttackSpec, ScheduleError> {
    let bad = |detail: String| ScheduleError::Malformed { line, detail };
    let (name, x) = match rest.rsplit_once("x=") {
        Some((head, x)) => (head.trim(), parse_num(x.trim(), line, "attack x")?),
        None => (rest.trim(), 0),
    };
    let kind =
        AttackKind::from_name(name).ok_or_else(|| bad(format!("unknown attack `{name}`")))?;
    Ok(AttackSpec { kind, x })
}

/// Rebuilds a plan from an explicit window list (used by the parser, the
/// shrinker's window mutations, and the fuzzer's mutation operators).
pub(crate) fn plan_from_windows(n: usize, windows: &[LinkFaultWindow]) -> LinkFaultPlan {
    let mut b = LinkFaultPlan::builder(n);
    for w in windows {
        b = match w.fault {
            LinkFault::Drop { stride, offset } => {
                b.drop_every(w.src, w.dst, stride, offset, w.from, w.until)
            }
            LinkFault::Duplicate { stride, offset } => {
                b.duplicate_every(w.src, w.dst, stride, offset, w.from, w.until)
            }
        };
    }
    b.build()
}

/// Rebuilds an adversary plan from an explicit window list (used by the
/// parser, the shrinker's window mutations, and the fuzzer's mutation
/// operators).
pub(crate) fn adversary_from_windows(n: usize, windows: &[MutationWindow]) -> AdversaryPlan {
    let mut b = AdversaryPlan::builder(n);
    for &w in windows {
        b = b.mutate(w);
    }
    b.build()
}

/// Rebuilds a crash pattern over `n` processes from an explicit crash
/// list (`None` = crashed from the start).
pub(crate) fn pattern_from_crashes(
    n: usize,
    crashes: &[(ProcessId, Option<Time>)],
) -> FailurePattern {
    let mut pb = FailurePattern::builder(n);
    for &(p, t) in crashes {
        pb = match t {
            None => pb.crash_from_start(p),
            Some(t) => pb.crash_at(p, t),
        };
    }
    pb.build_unchecked()
}

pub(crate) fn crash_list(pattern: &FailurePattern) -> Vec<(ProcessId, Option<Time>)> {
    pattern
        .all()
        .iter()
        .filter_map(|p| {
            if pattern.crashed_from_start_at(p) {
                Some((p, None))
            } else {
                pattern.crash_time(p).map(|t| (p, Some(t)))
            }
        })
        .collect()
}

/// Knobs of [`shrink_schedule`].
#[derive(Clone, Copy, Debug)]
pub struct ShrinkOptions {
    /// Smallest `n` the workload's claim still covers; the `n`-reduction
    /// pass never goes below this.
    pub min_n: usize,
    /// Maximum number of full pass rounds (each round runs every pass
    /// once); the shrinker also stops early at a fixpoint.
    pub max_rounds: u32,
}

impl Default for ShrinkOptions {
    fn default() -> Self {
        ShrinkOptions { min_n: 1, max_rounds: 12 }
    }
}

/// What the shrinker did, for reporting and for the ≤-ratio acceptance
/// checks in tests and CI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkReport {
    /// Choice count of the input schedule.
    pub original_len: usize,
    /// Choice count of the minimized schedule.
    pub final_len: usize,
    /// Candidate schedules proposed.
    pub candidates_tried: u64,
    /// Candidates the evaluator confirmed (failure preserved).
    pub candidates_accepted: u64,
    /// Pass rounds executed.
    pub rounds: u32,
}

/// Delta-debugging minimizer. `eval` is the reproduction oracle: given a
/// candidate, it replays it against the schedule's checker and returns the
/// *canonicalized* schedule (its actually-executed choice sequence) iff
/// the original verdict reproduces, else `None`.
///
/// Passes, run round-robin to a fixpoint (or `max_rounds`):
///
/// 1. **ddmin over choices** — remove chunks of the choice sequence at
///    halving granularity (drops deliveries and compute steps);
/// 2. **fault windows** — remove whole windows; close never-healing
///    windows; halve window spans;
/// 3. **adversary** — drop the scripted attack; remove whole mutation
///    windows; close never-ending windows; halve window spans;
/// 4. **crashes** — remove crashes entirely, or merge a mid-run crash
///    window into crash-from-start;
/// 5. **n-reduction** — drop the highest process while nothing in the
///    schedule references it and `n > min_n`.
///
/// The algorithm is serial and deterministic: passes run in a fixed
/// order, candidates are proposed in a fixed order, and nothing depends
/// on thread count or timing. If the input itself does not reproduce
/// (`eval(original)` is `None`), it is returned unchanged.
pub fn shrink_schedule<F>(
    original: &Schedule,
    opts: &ShrinkOptions,
    eval: &mut F,
) -> (Schedule, ShrinkReport)
where
    F: FnMut(&Schedule) -> Option<Schedule>,
{
    let mut report =
        ShrinkReport { original_len: original.choices.len(), ..ShrinkReport::default() };
    report.candidates_tried += 1;
    let mut best = match eval(original) {
        Some(canon) => {
            report.candidates_accepted += 1;
            canon
        }
        None => {
            report.final_len = original.choices.len();
            return (original.clone(), report);
        }
    };

    while report.rounds < opts.max_rounds {
        report.rounds += 1;
        let mut changed = false;
        changed |= ddmin_pass(&mut best, eval, &mut report);
        changed |= fault_pass(&mut best, eval, &mut report);
        changed |= adversary_pass(&mut best, eval, &mut report);
        changed |= crash_pass(&mut best, eval, &mut report);
        changed |= reduce_n_pass(&mut best, opts.min_n, eval, &mut report);
        if !changed {
            break;
        }
    }
    report.final_len = best.choices.len();
    (best, report)
}

fn try_accept<F>(
    best: &mut Schedule,
    cand: Schedule,
    eval: &mut F,
    report: &mut ShrinkReport,
) -> bool
where
    F: FnMut(&Schedule) -> Option<Schedule>,
{
    report.candidates_tried += 1;
    match eval(&cand) {
        Some(canon) => {
            report.candidates_accepted += 1;
            *best = canon;
            true
        }
        None => false,
    }
}

fn ddmin_pass<F>(best: &mut Schedule, eval: &mut F, report: &mut ShrinkReport) -> bool
where
    F: FnMut(&Schedule) -> Option<Schedule>,
{
    let mut any = false;
    if best.choices.is_empty() {
        return false;
    }
    let mut chunk = best.choices.len().div_ceil(2);
    loop {
        let mut i = 0;
        while i < best.choices.len() {
            let mut cand = best.clone();
            let end = (i + chunk).min(cand.choices.len());
            cand.choices.drain(i..end);
            if try_accept(best, cand, eval, report) {
                any = true; // removed; re-test the same position
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    any
}

fn fault_pass<F>(best: &mut Schedule, eval: &mut F, report: &mut ShrinkReport) -> bool
where
    F: FnMut(&Schedule) -> Option<Schedule>,
{
    let mut any = false;
    // Remove whole windows (snapshot indices; retry in place after a hit).
    let mut i = 0;
    while i < best.faults.windows().len() {
        let mut ws = best.faults.windows().to_vec();
        ws.remove(i);
        let mut cand = best.clone();
        cand.faults = plan_from_windows(cand.n, &ws);
        if try_accept(best, cand, eval, report) {
            any = true;
        } else {
            i += 1;
        }
    }
    // Close never-healing windows at the step horizon, then halve spans.
    for i in 0..best.faults.windows().len() {
        let w = best.faults.windows()[i];
        if w.until.is_none() {
            let mut ws = best.faults.windows().to_vec();
            ws[i].until = Some(Time(best.max_steps));
            let mut cand = best.clone();
            cand.faults = plan_from_windows(cand.n, &ws);
            any |= try_accept(best, cand, eval, report);
        }
        loop {
            let w = best.faults.windows()[i];
            let Some(u) = w.until else { break };
            let span = u.0.saturating_sub(w.from.0);
            if span <= 1 {
                break;
            }
            let mut ws = best.faults.windows().to_vec();
            ws[i].until = Some(Time(w.from.0 + span / 2));
            let mut cand = best.clone();
            cand.faults = plan_from_windows(cand.n, &ws);
            if try_accept(best, cand, eval, report) {
                any = true;
            } else {
                break;
            }
        }
    }
    any
}

fn adversary_pass<F>(best: &mut Schedule, eval: &mut F, report: &mut ShrinkReport) -> bool
where
    F: FnMut(&Schedule) -> Option<Schedule>,
{
    let mut any = false;
    // Drop the scripted attack first: if the mutation windows alone
    // reproduce, the minimal witness should say so.
    if best.attack.is_some() {
        let mut cand = best.clone();
        cand.attack = None;
        any |= try_accept(best, cand, eval, report);
    }
    // Remove whole mutation windows (retry in place after a hit).
    let mut i = 0;
    while i < best.adversary.windows().len() {
        let mut ws = best.adversary.windows().to_vec();
        ws.remove(i);
        let mut cand = best.clone();
        cand.adversary = adversary_from_windows(cand.n, &ws);
        if try_accept(best, cand, eval, report) {
            any = true;
        } else {
            i += 1;
        }
    }
    // Close never-ending windows at the step horizon, then halve spans.
    for i in 0..best.adversary.windows().len() {
        let w = best.adversary.windows()[i];
        if w.until.is_none() {
            let mut ws = best.adversary.windows().to_vec();
            ws[i].until = Some(Time(best.max_steps.max(w.from.0 + 1)));
            let mut cand = best.clone();
            cand.adversary = adversary_from_windows(cand.n, &ws);
            any |= try_accept(best, cand, eval, report);
        }
        loop {
            let w = best.adversary.windows()[i];
            let Some(u) = w.until else { break };
            let span = u.0.saturating_sub(w.from.0);
            if span <= 1 {
                break;
            }
            let mut ws = best.adversary.windows().to_vec();
            ws[i].until = Some(Time(w.from.0 + span / 2));
            let mut cand = best.clone();
            cand.adversary = adversary_from_windows(cand.n, &ws);
            if try_accept(best, cand, eval, report) {
                any = true;
            } else {
                break;
            }
        }
    }
    any
}

fn crash_pass<F>(best: &mut Schedule, eval: &mut F, report: &mut ShrinkReport) -> bool
where
    F: FnMut(&Schedule) -> Option<Schedule>,
{
    let mut any = false;
    for p in best.pattern.all().iter() {
        let crashes = crash_list(&best.pattern);
        let Some(idx) = crashes.iter().position(|&(q, _)| q == p) else { continue };
        // Try removing the crash entirely (p becomes correct).
        let mut without = crashes.clone();
        without.remove(idx);
        let mut cand = best.clone();
        cand.pattern = pattern_from_crashes(cand.n, &without);
        if try_accept(best, cand, eval, report) {
            any = true;
            continue;
        }
        // Merge a mid-run crash window into crash-from-start: the faulty
        // interval [t, ∞) widens to [0, ∞), removing p's steps entirely.
        if crashes[idx].1.is_some() {
            let mut merged = crashes;
            merged[idx].1 = None;
            let mut cand = best.clone();
            cand.pattern = pattern_from_crashes(cand.n, &merged);
            any |= try_accept(best, cand, eval, report);
        }
    }
    any
}

fn reduce_n_pass<F>(
    best: &mut Schedule,
    min_n: usize,
    eval: &mut F,
    report: &mut ShrinkReport,
) -> bool
where
    F: FnMut(&Schedule) -> Option<Schedule>,
{
    let mut any = false;
    while best.n > min_n {
        let q = ProcessId((best.n - 1) as u32);
        let referenced = best.choices.iter().any(|c| c.p == q)
            || best.faults.windows().iter().any(|w| w.src == q || w.dst == q)
            || best.adversary.windows().iter().any(|w| w.src == q || w.dst == q);
        if referenced {
            break;
        }
        let crashes: Vec<_> =
            crash_list(&best.pattern).into_iter().filter(|&(p, _)| p != q).collect();
        let mut cand = best.clone();
        cand.n = best.n - 1;
        cand.pattern = pattern_from_crashes(cand.n, &crashes);
        cand.faults = plan_from_windows(cand.n, best.faults.windows());
        cand.adversary = adversary_from_windows(cand.n, best.adversary.windows());
        if try_accept(best, cand, eval, report) {
            any = true;
        } else {
            break;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            checker: "fig2-weak-sigma".to_string(),
            n: 4,
            k: 3,
            seed: 7,
            max_steps: 40,
            pattern: FailurePattern::builder(4)
                .crash_from_start(ProcessId(3))
                .crash_at(ProcessId(2), Time(10))
                .build(),
            faults: LinkFaultPlan::builder(4)
                .drop_link(ProcessId(0), ProcessId(1), Time(0), Some(Time(200)))
                .duplicate_every(ProcessId(2), ProcessId(0), 3, 1, Time(5), None)
                .build(),
            adversary: AdversaryPlan::honest(4),
            attack: None,
            armor: Armor::NONE,
            choices: vec![
                Choice { p: ProcessId(0), deliver: None },
                Choice { p: ProcessId(1), deliver: Some(0) },
                Choice { p: ProcessId(0), deliver: Some(2) },
            ],
            verdict: "violation:agreement".to_string(),
        }
    }

    fn byz_sample() -> Schedule {
        let mut s = sample();
        s.checker = "fig2-byz-perturb".to_string();
        s.adversary = AdversaryPlan::builder(4)
            .perturb(ProcessId(0), ProcessId(1), 9, Time(0), Some(Time(40)))
            .forge_sender(ProcessId(2), ProcessId(0), 1, Time(5), None)
            .build();
        s.attack = Some(AttackSpec { kind: AttackKind::Equivocate, x: 3 });
        s.armor = Armor::SENDER_ID;
        s
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let s = sample();
        let text = s.to_text();
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn adversary_free_schedules_serialize_as_v1() {
        let s = sample();
        assert!(s.to_text().starts_with("sih-schedule v1\n"));
        assert!(!s.to_text().contains("adversary:"));
    }

    #[test]
    fn v2_roundtrip_is_exact() {
        let s = byz_sample();
        let text = s.to_text();
        assert!(text.starts_with("sih-schedule v2\n"));
        assert!(text.contains("armor: 1\n"));
        assert!(text.contains("adversary: perturb p0->p1 0%1 @[0, 40) x=9\n"));
        assert!(text.contains("adversary: forge-sender p2->p0 0%1 @[5, inf) x=1\n"));
        assert!(text.contains("attack: equivocate x=3\n"));
        let back = Schedule::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn v2_default_armor_line_is_omitted() {
        let mut s = byz_sample();
        s.armor = Armor::NONE;
        let text = s.to_text();
        assert!(!text.contains("armor:"));
        assert_eq!(Schedule::parse(&text).unwrap(), s);
    }

    #[test]
    fn malformed_adversary_lines_are_rejected() {
        let base = "sih-schedule v2\nchecker: x\nn: 2\nmax-steps: 5\nverdict: ok\n";
        for bad in [
            "adversary: warp p0->p1 0%1 @[0, 5) x=1\n", // unknown kind
            "adversary: flip p0->p1 0%1 @[0, 5)\n",     // missing x=
            "adversary: flip p0->p1 1%1 @[0, 5) x=1\n", // offset >= stride
            "adversary: flip p0->p1 0%1 @[5, 5) x=1\n", // empty window
            "attack: nuke x=1\n",                       // unknown attack
            "armor: 9\n",                               // above the ladder
        ] {
            let text = format!("{base}{bad}");
            assert!(
                matches!(Schedule::parse(&text), Err(ScheduleError::Malformed { .. })),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = sample();
        let text = format!("# a corpus entry\n\n{}\n# trailing note\n", s.to_text());
        assert_eq!(Schedule::parse(&text).unwrap(), s);
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(Schedule::parse(""), Err(ScheduleError::MissingHeader));
        assert_eq!(Schedule::parse("schedule v1\n"), Err(ScheduleError::MissingHeader));
        assert_eq!(
            Schedule::parse("sih-schedule v99\n"),
            Err(ScheduleError::UnsupportedVersion { found: "99".to_string() })
        );
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = Schedule::parse("sih-schedule v1\nn: 2\nmax-steps: 5\nverdict: ok\n");
        assert_eq!(err, Err(ScheduleError::MissingField { field: "checker" }));
        let err = Schedule::parse("sih-schedule v1\nchecker: x\nmax-steps: 5\nverdict: ok\n");
        assert_eq!(err, Err(ScheduleError::MissingField { field: "n" }));
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let text = "sih-schedule v1\nchecker: x\nn: 2\nchoice: q7 .\n";
        match Schedule::parse(text) {
            Err(ScheduleError::Malformed { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected Malformed, got {other:?}"),
        }
        let text = "sih-schedule v1\nbogus-key: 3\n";
        match Schedule::parse(text) {
            Err(ScheduleError::Malformed { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("bogus-key"));
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn display_errors_are_informative() {
        let e = ScheduleError::Malformed { line: 3, detail: "boom".to_string() };
        assert_eq!(e.to_string(), "line 3: boom");
        assert!(ScheduleError::MissingHeader.to_string().contains("sih-schedule"));
    }

    /// A toy oracle: the "failure" reproduces iff at least one choice
    /// steps p1 AND the pattern crashes p2 (any time). The canonical form
    /// just echoes the candidate.
    fn toy_eval(cand: &Schedule) -> Option<Schedule> {
        let steps_p1 = cand.choices.iter().any(|c| c.p == ProcessId(1));
        let crashes_p2 = cand.pattern.crash_time(ProcessId(2)).is_some();
        (steps_p1 && crashes_p2).then(|| cand.clone())
    }

    #[test]
    fn shrink_reaches_the_minimal_witness() {
        let mut s = sample();
        s.choices = (0..32).map(|i| Choice { p: ProcessId(i % 3), deliver: None }).collect();
        let (min, rep) = shrink_schedule(&s, &ShrinkOptions::default(), &mut toy_eval);
        // Exactly the one p1 step survives; all windows vanish; the p2
        // crash merges to from-start; p3 (from-start, unreferenced) is
        // removed and n drops to 3.
        assert_eq!(min.choices, vec![Choice { p: ProcessId(1), deliver: None }]);
        assert!(min.faults.is_reliable());
        assert!(min.pattern.crashed_from_start_at(ProcessId(2)));
        assert_eq!(min.n, 3);
        assert_eq!(rep.original_len, 32);
        assert_eq!(rep.final_len, 1);
        assert!(rep.candidates_accepted > 0);
    }

    /// Oracle for the adversary pass: reproduces iff some perturb window
    /// covers the 0→1 link (the attack and the forge window are noise).
    fn byz_eval(cand: &Schedule) -> Option<Schedule> {
        cand.adversary
            .windows()
            .iter()
            .any(|w| {
                w.kind == MutationKind::Perturb && w.src == ProcessId(0) && w.dst == ProcessId(1)
            })
            .then(|| cand.clone())
    }

    #[test]
    fn shrink_minimizes_adversary_windows_and_drops_the_attack() {
        let s = byz_sample();
        let (min, rep) = shrink_schedule(&s, &ShrinkOptions::default(), &mut byz_eval);
        assert_eq!(min.attack, None);
        assert_eq!(min.adversary.windows().len(), 1);
        let w = min.adversary.windows()[0];
        assert_eq!(w.kind, MutationKind::Perturb);
        // The span halves down to the minimal [0, 1) slice.
        assert_eq!((w.from, w.until), (Time(0), Some(Time(1))));
        assert!(rep.candidates_accepted > 0);
        // Deterministic, like every other pass.
        assert_eq!(shrink_schedule(&s, &ShrinkOptions::default(), &mut byz_eval).0, min);
    }

    #[test]
    fn shrink_is_deterministic() {
        let mut s = sample();
        s.choices = (0..17).map(|i| Choice { p: ProcessId(i % 4), deliver: None }).collect();
        let a = shrink_schedule(&s, &ShrinkOptions::default(), &mut toy_eval);
        let b = shrink_schedule(&s, &ShrinkOptions::default(), &mut toy_eval);
        assert_eq!(a, b);
    }

    #[test]
    fn non_reproducing_input_is_returned_unchanged() {
        let mut s = sample();
        s.pattern = FailurePattern::all_correct(4); // oracle needs a p2 crash
        let (out, rep) = shrink_schedule(&s, &ShrinkOptions::default(), &mut toy_eval);
        assert_eq!(out, s);
        assert_eq!(rep.candidates_accepted, 0);
    }

    #[test]
    fn min_n_floor_is_respected() {
        let mut s = sample();
        s.choices = vec![Choice { p: ProcessId(1), deliver: None }];
        let opts = ShrinkOptions { min_n: 4, ..ShrinkOptions::default() };
        let (min, _) = shrink_schedule(&s, &opts, &mut toy_eval);
        assert_eq!(min.n, 4);
    }
}
