//! Mutation engine of the coverage-guided schedule fuzzer ("VOPR mode").
//!
//! A fuzzer input is a whole [`Schedule`]: the choice script plus its
//! fault environment (crash pattern, link-fault windows, adversary plan,
//! scripted attack, armor rung). Every operator here is **closed over
//! the v1/v2 schedule grammar**: a mutant is built exclusively through
//! the same window/pattern builders the parser uses, so it always
//! serializes with [`Schedule::to_text`] and parses back to an equal
//! value — the property `tests/fuzz.rs` pins for every operator against
//! every committed corpus entry.
//!
//! The **version invariant** is enforced structurally: the operators
//! that can introduce adversary state (and thereby promote a v1
//! schedule to the v2 grammar) are gated behind
//! [`MutatorConfig::allow_adversary`], which the lab driver sets iff the
//! schedule's workload honors adversary fields (`BYZ_WORKLOADS`). A v1
//! schedule mutated with the gate closed stays adversary-free; with the
//! gate open any promotion is explicit (the operator says `adversary` in
//! its name) — never an invalid hybrid.
//!
//! Everything in this module is deterministic: the only randomness is
//! the caller-supplied [`FuzzRng`] (splitmix64, the same generator
//! `AdversaryPlan::random_plan` uses), and the coverage map and corpus
//! use ordered containers only, per the determinism contract
//! (DESIGN.md §6).

use crate::fingerprint::mix64;
use crate::repro::{
    adversary_from_windows, crash_list, pattern_from_crashes, plan_from_windows, Schedule,
};
use crate::scheduler::Choice;
use crate::Fnv64;
use sih_model::{
    Armor, AttackKind, AttackSpec, LinkFault, LinkFaultWindow, MutationKind, MutationWindow,
    ProcessId, Time,
};
use std::collections::BTreeSet;

/// A small, fast, seedable generator for mutation decisions — splitmix64,
/// the same finalizer [`sih_model::AdversaryPlan::random_plan`] uses, so
/// fuzzing runs stay deterministic without dragging a full RNG crate into
/// the runtime.
#[derive(Clone, Debug)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FuzzRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// A draw in `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// A Bernoulli draw: true with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den.max(1)) < num
    }
}

/// Bounds and gates of the mutation operators for one parent schedule.
#[derive(Clone, Copy, Debug)]
pub struct MutatorConfig {
    /// Whether operators may touch the adversary fields (mutation
    /// windows, attack line, armor rung). The lab driver opens this gate
    /// only for workloads that honor adversary fields; with it closed,
    /// adversary operators return `None` and a v1 parent can never be
    /// promoted to v2.
    pub allow_adversary: bool,
    /// Time horizon for window starts/ends and crash times (typically
    /// the parent's `max_steps`).
    pub horizon: u64,
    /// Hard cap on a mutant's choice count (duplication/crossover clamp
    /// to this).
    pub max_choices: usize,
}

impl MutatorConfig {
    /// The default bounds for mutating `s`.
    pub fn for_schedule(s: &Schedule, allow_adversary: bool) -> Self {
        MutatorConfig {
            allow_adversary,
            horizon: s.max_steps.max(16),
            max_choices: (s.choices.len().saturating_mul(4)).clamp(64, 4096),
        }
    }
}

/// The mutation operator alphabet. Every operator maps a parsing
/// schedule to a parsing schedule (or declines with `None` when it does
/// not apply — e.g. no window to shift, or the adversary gate is
/// closed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MutOp {
    /// Cut a run of choices and re-insert it at another position.
    SpliceChoices,
    /// Keep only a prefix of the choice script.
    TruncateChoices,
    /// Duplicate a short run of choices in place.
    DuplicateRun,
    /// Translate one link-fault window in time (span preserved).
    ShiftFaultWindow,
    /// Re-bound or unbound one link-fault window, or re-draw its send
    /// selector.
    ResizeFaultWindow,
    /// Add a fresh random link-fault window.
    AddFaultWindow,
    /// Remove one link-fault window.
    DropFaultWindow,
    /// Add, remove, or re-time a crash in the failure pattern.
    PerturbCrash,
    /// Translate one adversary mutation window in time (gated).
    ShiftAdversaryWindow,
    /// Re-bound or unbound one adversary mutation window, or re-draw its
    /// selector (gated).
    ResizeAdversaryWindow,
    /// Add a fresh random adversary mutation window (gated).
    AddAdversaryWindow,
    /// Remove one adversary mutation window (gated).
    DropAdversaryWindow,
    /// Move the armor rung somewhere else on the ladder (gated).
    FlipArmor,
    /// Toggle or re-parameterize the scripted attack line (gated).
    FlipAttack,
}

impl MutOp {
    /// Every operator, in canonical order.
    pub const ALL: [MutOp; 14] = [
        MutOp::SpliceChoices,
        MutOp::TruncateChoices,
        MutOp::DuplicateRun,
        MutOp::ShiftFaultWindow,
        MutOp::ResizeFaultWindow,
        MutOp::AddFaultWindow,
        MutOp::DropFaultWindow,
        MutOp::PerturbCrash,
        MutOp::ShiftAdversaryWindow,
        MutOp::ResizeAdversaryWindow,
        MutOp::AddAdversaryWindow,
        MutOp::DropAdversaryWindow,
        MutOp::FlipArmor,
        MutOp::FlipAttack,
    ];

    /// Stable display name (for swarm logs and reports).
    pub fn name(self) -> &'static str {
        match self {
            MutOp::SpliceChoices => "splice-choices",
            MutOp::TruncateChoices => "truncate-choices",
            MutOp::DuplicateRun => "duplicate-run",
            MutOp::ShiftFaultWindow => "shift-fault-window",
            MutOp::ResizeFaultWindow => "resize-fault-window",
            MutOp::AddFaultWindow => "add-fault-window",
            MutOp::DropFaultWindow => "drop-fault-window",
            MutOp::PerturbCrash => "perturb-crash",
            MutOp::ShiftAdversaryWindow => "shift-adversary-window",
            MutOp::ResizeAdversaryWindow => "resize-adversary-window",
            MutOp::AddAdversaryWindow => "add-adversary-window",
            MutOp::DropAdversaryWindow => "drop-adversary-window",
            MutOp::FlipArmor => "flip-armor",
            MutOp::FlipAttack => "flip-attack",
        }
    }

    /// Whether the operator touches adversary fields — the only
    /// operators that may promote a v1 schedule to the v2 grammar.
    pub fn is_adversary(self) -> bool {
        matches!(
            self,
            MutOp::ShiftAdversaryWindow
                | MutOp::ResizeAdversaryWindow
                | MutOp::AddAdversaryWindow
                | MutOp::DropAdversaryWindow
                | MutOp::FlipArmor
                | MutOp::FlipAttack
        )
    }
}

/// Applies `op` to `s`, returning the mutant, or `None` when the
/// operator does not apply (empty target list, closed adversary gate,
/// or a guard that keeps the mutant well-formed).
///
/// Mutants keep the parent's `checker`, `n`, `k`, `seed` and
/// `max_steps`; environment mutations rebuild plans through the same
/// builders the parser uses, so every mutant round-trips through
/// [`Schedule::to_text`] exactly.
pub fn mutate(s: &Schedule, op: MutOp, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Schedule> {
    if op.is_adversary() && !cfg.allow_adversary {
        return None;
    }
    match op {
        MutOp::SpliceChoices => splice_choices(s, rng),
        MutOp::TruncateChoices => truncate_choices(s, rng),
        MutOp::DuplicateRun => duplicate_run(s, cfg, rng),
        MutOp::ShiftFaultWindow => shift_fault_window(s, cfg, rng),
        MutOp::ResizeFaultWindow => resize_fault_window(s, cfg, rng),
        MutOp::AddFaultWindow => add_fault_window(s, cfg, rng),
        MutOp::DropFaultWindow => drop_fault_window(s, rng),
        MutOp::PerturbCrash => perturb_crash(s, cfg, rng),
        MutOp::ShiftAdversaryWindow => shift_adversary_window(s, cfg, rng),
        MutOp::ResizeAdversaryWindow => resize_adversary_window(s, cfg, rng),
        MutOp::AddAdversaryWindow => add_adversary_window(s, cfg, rng),
        MutOp::DropAdversaryWindow => drop_adversary_window(s, rng),
        MutOp::FlipArmor => flip_armor(s, rng),
        MutOp::FlipAttack => flip_attack(s, rng),
    }
}

/// One-point crossover between two corpus parents: `a`'s choice prefix
/// spliced onto `b`'s suffix, with each environment component (pattern,
/// fault plan, adversary bundle, seed) inherited from one parent or the
/// other. Only defined for parents of the same workload shape
/// (`checker`, `n`, `k`), so every inherited component is legal in the
/// child.
pub fn crossover(
    a: &Schedule,
    b: &Schedule,
    cfg: &MutatorConfig,
    rng: &mut FuzzRng,
) -> Option<Schedule> {
    if a.checker != b.checker || a.n != b.n || a.k != b.k {
        return None;
    }
    let cut_a = rng.below(a.choices.len() as u64 + 1) as usize;
    let cut_b = rng.below(b.choices.len() as u64 + 1) as usize;
    let mut choices: Vec<Choice> = Vec::with_capacity(cut_a + b.choices.len() - cut_b);
    choices.extend_from_slice(&a.choices[..cut_a]);
    choices.extend_from_slice(&b.choices[cut_b..]);
    if choices.is_empty() {
        return None;
    }
    choices.truncate(cfg.max_choices);
    let mut child = a.clone();
    child.choices = choices;
    if rng.chance(1, 2) {
        child.pattern = b.pattern.clone();
    }
    if rng.chance(1, 2) {
        child.faults = b.faults.clone();
    }
    if rng.chance(1, 2) {
        child.adversary = b.adversary.clone();
        child.attack = b.attack;
        child.armor = b.armor;
    }
    if rng.chance(1, 2) {
        child.seed = b.seed;
    }
    child.max_steps = a.max_steps.max(b.max_steps);
    Some(child)
}

// ---- choice-script operators --------------------------------------------

fn splice_choices(s: &Schedule, rng: &mut FuzzRng) -> Option<Schedule> {
    let len = s.choices.len();
    if len < 2 {
        return None;
    }
    let start = rng.below(len as u64) as usize;
    let run = 1 + rng.below((len - start).min(8) as u64) as usize;
    let mut choices = s.choices.clone();
    let cut: Vec<Choice> = choices.drain(start..start + run).collect();
    let at = rng.below(choices.len() as u64 + 1) as usize;
    choices.splice(at..at, cut);
    Some(Schedule { choices, ..s.clone() })
}

fn truncate_choices(s: &Schedule, rng: &mut FuzzRng) -> Option<Schedule> {
    let len = s.choices.len();
    if len < 2 {
        return None;
    }
    let keep = 1 + rng.below(len as u64 - 1) as usize;
    let mut choices = s.choices.clone();
    choices.truncate(keep);
    Some(Schedule { choices, ..s.clone() })
}

fn duplicate_run(s: &Schedule, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Schedule> {
    let len = s.choices.len();
    if len == 0 || len >= cfg.max_choices {
        return None;
    }
    let start = rng.below(len as u64) as usize;
    let run = 1 + rng.below((len - start).min(8) as u64) as usize;
    let seg: Vec<Choice> = s.choices[start..start + run].to_vec();
    let mut choices = s.choices.clone();
    choices.splice(start + run..start + run, seg);
    choices.truncate(cfg.max_choices);
    Some(Schedule { choices, ..s.clone() })
}

// ---- link-fault operators ------------------------------------------------

/// A signed time delta up to ±`horizon / 4`, never zero.
fn time_delta(cfg: &MutatorConfig, rng: &mut FuzzRng) -> i64 {
    let mag = 1 + rng.below(cfg.horizon / 4 + 1) as i64;
    if rng.chance(1, 2) {
        mag
    } else {
        -mag
    }
}

/// A fresh window end: `None` (permanent) one time in four, else a bound
/// strictly above `from` within the horizon.
fn random_until(from: u64, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Time> {
    if rng.chance(1, 4) {
        None
    } else {
        Some(Time(from + 1 + rng.below(cfg.horizon)))
    }
}

fn shift_fault_window(s: &Schedule, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Schedule> {
    let mut ws = s.faults.windows().to_vec();
    if ws.is_empty() {
        return None;
    }
    let i = rng.below(ws.len() as u64) as usize;
    let delta = time_delta(cfg, rng);
    ws[i] = ws[i].shifted(delta);
    Some(Schedule { faults: plan_from_windows(s.n, &ws), ..s.clone() })
}

fn resize_fault_window(s: &Schedule, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Schedule> {
    let mut ws = s.faults.windows().to_vec();
    if ws.is_empty() {
        return None;
    }
    let i = rng.below(ws.len() as u64) as usize;
    if rng.chance(1, 3) {
        let stride = 1 + rng.below(4);
        let offset = rng.below(stride);
        ws[i] = ws[i].with_selector(stride, offset);
    } else {
        let until = random_until(ws[i].from.0, cfg, rng);
        ws[i] = ws[i].resized(until);
    }
    Some(Schedule { faults: plan_from_windows(s.n, &ws), ..s.clone() })
}

fn add_fault_window(s: &Schedule, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Schedule> {
    if s.n < 2 || s.faults.windows().len() >= 8 {
        return None;
    }
    let src = ProcessId(rng.below(s.n as u64) as u32);
    let mut dst = ProcessId(rng.below(s.n as u64) as u32);
    if dst == src {
        dst = ProcessId((dst.0 + 1) % s.n as u32);
    }
    let stride = 1 + rng.below(4);
    let offset = rng.below(stride);
    let from = Time(rng.below(cfg.horizon));
    let until = random_until(from.0, cfg, rng);
    let fault = if rng.chance(1, 2) {
        LinkFault::Drop { stride, offset }
    } else {
        LinkFault::Duplicate { stride, offset }
    };
    let mut ws = s.faults.windows().to_vec();
    ws.push(LinkFaultWindow { src, dst, fault, from, until });
    Some(Schedule { faults: plan_from_windows(s.n, &ws), ..s.clone() })
}

fn drop_fault_window(s: &Schedule, rng: &mut FuzzRng) -> Option<Schedule> {
    let mut ws = s.faults.windows().to_vec();
    if ws.is_empty() {
        return None;
    }
    let i = rng.below(ws.len() as u64) as usize;
    ws.remove(i);
    Some(Schedule { faults: plan_from_windows(s.n, &ws), ..s.clone() })
}

// ---- crash-pattern operator ---------------------------------------------

fn perturb_crash(s: &Schedule, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Schedule> {
    let crashes = crash_list(&s.pattern);
    match rng.below(3) {
        // Crash a currently-correct process (from the start one time in
        // four, else mid-run within the horizon).
        0 => {
            let correct: Vec<ProcessId> = (0..s.n as u32)
                .map(ProcessId)
                .filter(|p| !crashes.iter().any(|&(q, _)| q == *p))
                .collect();
            if correct.len() <= 1 {
                return None; // keep at least one correct process
            }
            let p = correct[rng.below(correct.len() as u64) as usize];
            let t = if rng.chance(1, 4) { None } else { Some(Time(1 + rng.below(cfg.horizon))) };
            let mut next = crashes;
            next.push((p, t));
            Some(Schedule { pattern: pattern_from_crashes(s.n, &next), ..s.clone() })
        }
        // Un-crash one crashed process.
        1 => {
            if crashes.is_empty() {
                return None;
            }
            let mut next = crashes;
            next.remove(rng.below(next.len() as u64) as usize);
            Some(Schedule { pattern: pattern_from_crashes(s.n, &next), ..s.clone() })
        }
        // Re-draw the crash time of one mid-run crash.
        _ => {
            let timed: Vec<usize> =
                crashes.iter().enumerate().filter_map(|(i, &(_, t))| t.map(|_| i)).collect();
            if timed.is_empty() {
                return None;
            }
            let i = timed[rng.below(timed.len() as u64) as usize];
            let mut next = crashes;
            next[i].1 = Some(Time(1 + rng.below(cfg.horizon)));
            Some(Schedule { pattern: pattern_from_crashes(s.n, &next), ..s.clone() })
        }
    }
}

// ---- adversary operators (gated) ----------------------------------------

fn shift_adversary_window(
    s: &Schedule,
    cfg: &MutatorConfig,
    rng: &mut FuzzRng,
) -> Option<Schedule> {
    let mut ws = s.adversary.windows().to_vec();
    if ws.is_empty() {
        return None;
    }
    let i = rng.below(ws.len() as u64) as usize;
    let delta = time_delta(cfg, rng);
    ws[i] = ws[i].shifted(delta);
    Some(Schedule { adversary: adversary_from_windows(s.n, &ws), ..s.clone() })
}

fn resize_adversary_window(
    s: &Schedule,
    cfg: &MutatorConfig,
    rng: &mut FuzzRng,
) -> Option<Schedule> {
    let mut ws = s.adversary.windows().to_vec();
    if ws.is_empty() {
        return None;
    }
    let i = rng.below(ws.len() as u64) as usize;
    if rng.chance(1, 3) {
        let stride = 1 + rng.below(4);
        let offset = rng.below(stride);
        ws[i] = ws[i].with_selector(stride, offset);
    } else {
        let until = random_until(ws[i].from.0, cfg, rng);
        ws[i] = ws[i].resized(until);
    }
    Some(Schedule { adversary: adversary_from_windows(s.n, &ws), ..s.clone() })
}

fn add_adversary_window(s: &Schedule, cfg: &MutatorConfig, rng: &mut FuzzRng) -> Option<Schedule> {
    if s.n < 2 || s.adversary.windows().len() >= 8 {
        return None;
    }
    let src = ProcessId(rng.below(s.n as u64) as u32);
    let mut dst = ProcessId(rng.below(s.n as u64) as u32);
    if dst == src {
        dst = ProcessId((dst.0 + 1) % s.n as u32);
    }
    let stride = 1 + rng.below(4);
    let from = Time(rng.below(cfg.horizon));
    let w = MutationWindow {
        src,
        dst,
        kind: MutationKind::ALL[rng.below(MutationKind::ALL.len() as u64) as usize],
        x: 1 + rng.below(100),
        stride,
        offset: rng.below(stride),
        from,
        until: random_until(from.0, cfg, rng),
    };
    let mut ws = s.adversary.windows().to_vec();
    ws.push(w);
    Some(Schedule { adversary: adversary_from_windows(s.n, &ws), ..s.clone() })
}

fn drop_adversary_window(s: &Schedule, rng: &mut FuzzRng) -> Option<Schedule> {
    let mut ws = s.adversary.windows().to_vec();
    if ws.is_empty() {
        return None;
    }
    let i = rng.below(ws.len() as u64) as usize;
    ws.remove(i);
    Some(Schedule { adversary: adversary_from_windows(s.n, &ws), ..s.clone() })
}

fn flip_armor(s: &Schedule, rng: &mut FuzzRng) -> Option<Schedule> {
    let ladder = Armor::LADDER.len() as u64;
    let mut rung = rng.below(ladder) as u8;
    if rung == s.armor.rung() {
        rung = (rung + 1) % ladder as u8;
    }
    Some(Schedule { armor: Armor::level(rung), ..s.clone() })
}

fn flip_attack(s: &Schedule, rng: &mut FuzzRng) -> Option<Schedule> {
    let attack = match s.attack {
        None => Some(AttackSpec {
            kind: AttackKind::ALL[rng.below(AttackKind::ALL.len() as u64) as usize],
            x: 1 + rng.below(100),
        }),
        Some(_) => {
            if rng.chance(1, 2) {
                None
            } else {
                Some(AttackSpec {
                    kind: AttackKind::ALL[rng.below(AttackKind::ALL.len() as u64) as usize],
                    x: 1 + rng.below(100),
                })
            }
        }
    };
    if attack == s.attack {
        return None;
    }
    Some(Schedule { attack, ..s.clone() })
}

// ---- coverage map --------------------------------------------------------

/// The fuzzer's coverage map: the set of distinct per-step state
/// fingerprints ([`Simulation::fingerprint`](crate::Simulation::fingerprint),
/// as the explorer dedups on, mixed with a workload key by `lab fuzz`)
/// any evaluated schedule has ever visited.
/// Ordered container, so merging observations in canonical order is
/// bitwise identical across thread counts.
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    seen: BTreeSet<u64>,
}

impl Coverage {
    /// An empty map.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Records `keys`, returning how many were novel.
    pub fn observe(&mut self, keys: impl IntoIterator<Item = u64>) -> u64 {
        let mut novel = 0;
        for k in keys {
            if self.seen.insert(k) {
                novel += 1;
            }
        }
        novel
    }

    /// Distinct fingerprints observed so far.
    pub fn len(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// One live-corpus entry with its power-schedule energy.
#[derive(Clone, Debug)]
pub struct PowerEntry {
    /// The kept schedule (canonicalized by the driver so it
    /// strict-replays).
    pub schedule: Schedule,
    /// Selection weight: seeded from the novelty the entry brought in,
    /// boosted when its children find more, decayed as it is picked.
    pub energy: u32,
}

/// The live corpus with its deterministic power schedule.
///
/// Selection is energy-weighted: an entry's energy starts at a base plus
/// the novelty it contributed, gains a bonus each time one of its
/// mutants is kept (recent-novelty feedback), and decays by one per
/// selection (floor 1), so stale parents gradually lose the race.
/// Everything is integer arithmetic over a `Vec` in insertion order plus
/// the caller's [`FuzzRng`] — no wall clock, no hash containers — so
/// corpus evolution is identical across thread counts.
#[derive(Clone, Debug, Default)]
pub struct FuzzCorpus {
    entries: Vec<PowerEntry>,
    digests: BTreeSet<u64>,
}

/// Base selection energy of a fresh corpus entry.
const BASE_ENERGY: u32 = 8;
/// Cap on any entry's energy.
const MAX_ENERGY: u32 = 64;
/// Energy bonus a parent earns when a child of its is kept.
const PARENT_BONUS: u32 = 4;

impl FuzzCorpus {
    /// An empty corpus.
    pub fn new() -> Self {
        FuzzCorpus::default()
    }

    /// Adds `s` (deduplicated by [`Schedule::digest`]); `novelty` is the
    /// number of new coverage keys it contributed. Returns the entry's
    /// index, or `None` if it was a duplicate.
    pub fn push(&mut self, s: Schedule, novelty: u64) -> Option<usize> {
        if !self.digests.insert(s.digest()) {
            return None;
        }
        let energy = (BASE_ENERGY + (novelty.min(24) as u32)).min(MAX_ENERGY);
        self.entries.push(PowerEntry { schedule: s, energy });
        Some(self.entries.len() - 1)
    }

    /// Credits `idx` for a kept child (recent-novelty feedback).
    pub fn reward(&mut self, idx: usize) {
        if let Some(e) = self.entries.get_mut(idx) {
            e.energy = (e.energy + PARENT_BONUS).min(MAX_ENERGY);
        }
    }

    /// Picks a parent index, energy-weighted, and decays its energy.
    pub fn pick(&mut self, rng: &mut FuzzRng) -> Option<usize> {
        let total: u64 = self.entries.iter().map(|e| e.energy as u64).sum();
        if total == 0 {
            return None;
        }
        let mut r = rng.below(total);
        for (i, e) in self.entries.iter_mut().enumerate() {
            let w = e.energy as u64;
            if r < w {
                e.energy = (e.energy - 1).max(1);
                return Some(i);
            }
            r -= w;
        }
        None
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[PowerEntry] {
        &self.entries
    }

    /// Number of kept schedules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A canonical digest of the corpus *contents* (selection state
    /// excluded): FNV-1a/64 over the sorted entry digests. Equal across
    /// thread counts iff the kept schedules are equal.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for d in &self.digests {
            h.write_u64(*d);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sih_model::{AdversaryPlan, FailurePattern, LinkFaultPlan};

    fn base() -> Schedule {
        Schedule {
            checker: "fig2-weak-sigma".to_string(),
            n: 3,
            k: 1,
            seed: 2,
            max_steps: 64,
            pattern: FailurePattern::all_correct(3),
            faults: LinkFaultPlan::builder(3)
                .drop_link(ProcessId(0), ProcessId(1), Time(0), Some(Time(32)))
                .build(),
            adversary: AdversaryPlan::honest(3),
            attack: None,
            armor: Armor::NONE,
            choices: (0..6).map(|i| Choice { p: ProcessId(i % 3), deliver: None }).collect(),
            verdict: "panic".to_string(),
        }
    }

    #[test]
    fn every_operator_yields_a_roundtripping_mutant_or_declines() {
        let s = base();
        for allow in [false, true] {
            let cfg = MutatorConfig::for_schedule(&s, allow);
            for op in MutOp::ALL {
                for seed in 0..32 {
                    let mut rng = FuzzRng::new(seed);
                    let Some(m) = mutate(&s, op, &cfg, &mut rng) else { continue };
                    let text = m.to_text();
                    let back = Schedule::parse(&text)
                        .unwrap_or_else(|e| panic!("{}: {e}\n{text}", op.name()));
                    assert_eq!(back, m, "{} round-trip", op.name());
                    if !op.is_adversary() {
                        assert!(m.adversary_free(), "{} promoted v1", op.name());
                    }
                }
            }
        }
    }

    #[test]
    fn adversary_operators_are_gated() {
        let s = base();
        let cfg = MutatorConfig::for_schedule(&s, false);
        let mut rng = FuzzRng::new(7);
        for op in MutOp::ALL.into_iter().filter(|op| op.is_adversary()) {
            assert!(mutate(&s, op, &cfg, &mut rng).is_none(), "{}", op.name());
        }
    }

    #[test]
    fn crossover_requires_matching_shape_and_is_nonempty() {
        let a = base();
        let mut b = base();
        b.seed = 9;
        b.choices.truncate(3);
        let cfg = MutatorConfig::for_schedule(&a, false);
        let mut rng = FuzzRng::new(3);
        let child = crossover(&a, &b, &cfg, &mut rng).expect("same shape crosses over");
        assert!(!child.choices.is_empty());
        assert_eq!(Schedule::parse(&child.to_text()).unwrap(), child);
        let mut other = base();
        other.checker = "abd-weak-quorum".to_string();
        assert!(crossover(&a, &other, &cfg, &mut rng).is_none());
    }

    #[test]
    fn corpus_power_schedule_is_deterministic_and_dedups() {
        let run = || {
            let mut c = FuzzCorpus::new();
            let mut rng = FuzzRng::new(11);
            let mut s = base();
            assert!(c.push(s.clone(), 5).is_some());
            assert!(c.push(s.clone(), 5).is_none(), "duplicate kept");
            s.seed = 42;
            assert!(c.push(s.clone(), 0).is_some());
            c.reward(0);
            (0..16).filter_map(|_| c.pick(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn coverage_counts_novelty_once() {
        let mut cov = Coverage::new();
        assert_eq!(cov.observe([1, 2, 2, 3]), 3);
        assert_eq!(cov.observe([2, 3, 4]), 1);
        assert_eq!(cov.len(), 4);
    }
}
