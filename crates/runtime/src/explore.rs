//! Bounded exhaustive exploration of schedules, with deterministic
//! state-space reduction.
//!
//! For small systems and step bounds, the explorer enumerates **every**
//! schedule (process choice × message-delivery choice at each step) of a
//! run and checks a property at every reached state. Positive experiments
//! use this to strengthen randomized sampling: "no violation in any
//! schedule up to depth `d`" is a much stronger statement than "no
//! violation in 10k random schedules".
//!
//! The raw schedule tree is exponential in the depth bound, but most of
//! it is redundant, and the engine removes the redundancy without giving
//! up determinism:
//!
//! * **Fingerprint dedup** ([`ExploreConfig::dedup`]) — every state is
//!   hashed into a canonical 64-bit fingerprint
//!   ([`Simulation::fingerprint`]) of its checker-visible projection; a
//!   state revisited under the same sleep context with the same or less
//!   remaining depth is skipped. This is sound even though
//!   failure-detector histories are time-dependent, because global time
//!   *is* the step count: all states at one tree depth share `now`,
//!   `now` is hashed, and detector outputs are pure functions of
//!   `(process, time)`.
//! * **Canonical content-ordered expansion** — each process's delivery
//!   menu is enumerated sorted by `(from, payload)` — the payload's
//!   derived `Ord` — with equal envelopes oldest-first, and sleep sets
//!   key on *content*
//!   ([`crate::dpor::SleepKey`]: process + envelope fingerprint), never
//!   on queue position. Two states whose queues are permutations of each
//!   other therefore expand pairwise fingerprint-equal children with
//!   *identical* sleep sets — the whole expansion is a pure function of
//!   the multiset fingerprint, which is what keeps dedup on the
//!   order-insensitive hash sound with sleep sets and delivery caps on.
//! * **Sleep-set partial-order reduction** ([`ExploreConfig::por`]) —
//!   when two adjacent steps of *different* processes both produce no
//!   time-stamped checker events ([`StepReport::quiet`]) and their
//!   detector outputs are stable across the two step times, the two
//!   orders are check-equivalent; only the canonical order is explored.
//! * **Source-DPOR** ([`ExploreConfig::dpor`]) — upgrades the sleep
//!   sets from depth-1 to *persistent*: a sleeping choice stays asleep
//!   down the path until a step it is dependent with executes, judged
//!   with happens-before vector clocks ([`crate::hb`]) — a send into a
//!   sleeping process's queue whose stamp is concurrent with that
//!   process's clock is a *race* and wakes it (see [`crate::dpor`]).
//!   The choices actually expanded at a node — enabled minus sleeping —
//!   form its source set. Strictly stronger pruning than `por`.
//! * **Shared sharded fingerprint table** — dedup claims go through one
//!   table shared by every worker, sharded by fingerprint high bits so
//!   workers rarely contend. Each shard is a flat open-addressing
//!   array; the table is never iterated, so its slot order is
//!   unobservable — only claim outcomes and the entry count leave it.
//!   A claim is a pure function of the key
//!   `(state fingerprint, sleep-context fingerprint)`: whichever visit
//!   arrives first expands the identical subtree, so every counter is a
//!   sum of per-key contributions and the full [`ExploreResult`] is
//!   bitwise identical for any thread count, frontier depth, or visit
//!   order.
//! * **Parallel frontier** ([`ExploreConfig::frontier_depth`],
//!   [`explore_par`]) — the root is expanded breadth-first into subtree
//!   jobs (auto-sized to the worker count when `frontier_depth == 0`)
//!   that fan out across the deterministic [`Sweep`] engine,
//!   work-stealing off its atomic cursor. Thanks to the shared table the
//!   partition never changes the counters; if any worker finds a
//!   violation, the exploration is re-run serially so the reported
//!   violation is the canonical (first in DFS order) one.
//! * **No per-node double clone** — choice enumeration uses the
//!   non-mutating [`Simulation::schedulable_set`] view instead of
//!   cloning a probe. Every child but the last is materialized with
//!   allocation-reusing [`Clone::clone_from`] into free-list pools
//!   (simulations, happens-before shadows, sleep sets); the last child
//!   takes the parent's state and shadow themselves, since the parent
//!   is not read again once its children exist. [`explore_with`] clones
//!   the caller's root once and leaves it untouched. The copies are flat
//!   memory: trace events are `Copy`, happens-before stamps are one flat
//!   vector per queue, and queued payloads sit inline in their slots.
//! * **One-probe dead-end claims** — a state is classified as a dead end
//!   before its dedup claim, and a dead end claims at budget
//!   `usize::MAX` (its empty future is covered at any depth), so each
//!   terminal costs one table probe.
//!
//! The reported violation is the first one in the canonical search
//! order: processes ascending, per process "no delivery" first and then
//! the deliveries in content order. (With reductions off and at most
//! one delivery candidate per step this coincides with the
//! lexicographically-least violating [`Choice`] script.) For a fixed
//! [`ExploreConfig`] the result never depends on the
//! thread count, the frontier depth, or the process's hash seed;
//! counters *do* legitimately differ across configs (dedup on/off, por
//! vs dpor) — reduction changes how many states exist, not which verdict
//! is reached.
//!
//! [`Sweep`]: crate::sweep::Sweep
//! [`StepReport::quiet`]: crate::StepReport::quiet

use crate::automaton::Automaton;
use crate::dpor::{self, SleepKey, SleepSet};
use crate::hb::HbState;
use crate::scheduler::Choice;
use crate::sim::Simulation;
use crate::sweep::Sweep;
use sih_model::{FailureDetector, ProcessId};
use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Tuning knobs of an exploration. Construct with [`ExploreConfig::new`]
/// and refine with the builder methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum further steps from the root (tree depth bound).
    pub depth: usize,
    /// Per step, how many distinct pending messages are tried as the
    /// delivery (always including "no delivery"); `usize::MAX` tries
    /// every pending message.
    ///
    /// A finite cap samples the first `cap` messages of the **canonical
    /// content order** (sorted by `(from, payload)`, ties
    /// oldest-first) — a prefix the order-insensitive multiset
    /// fingerprint fully determines, so dedup stays sound at any cap.
    /// Sleep sets are cap-sound too: they key on content
    /// ([`crate::dpor::SleepKey`]), and a commuting sibling step never
    /// removes the sleeping message — hence **both reductions stay on
    /// under finite caps** (they were forced off before the canonical
    /// enumeration existed).
    pub max_deliveries: usize,
    /// Skip states whose canonical fingerprint was already explored
    /// under the same sleep context at equal or greater remaining depth.
    pub dedup: bool,
    /// Sleep-set partial-order reduction: skip the non-canonical order
    /// of commuting adjacent step pairs.
    pub por: bool,
    /// Source-DPOR: persistent sleep sets with happens-before race
    /// wake-ups (see [`SleepSet`](crate::SleepSet)). Supersedes `por` — when set, the
    /// depth-1 sleep sets of `por` are carried down the path and woken
    /// only by dependent steps, pruning strictly more.
    pub dpor: bool,
    /// Worker threads for the parallel frontier (`0` = one per core);
    /// only consulted by [`explore_par`], and never changes the result.
    pub threads: usize,
    /// Prefix depth expanded breadth-first into parallel subtree jobs;
    /// `0` lets [`explore_par`] auto-size the frontier to its worker
    /// count. Never changes the result — the shared fingerprint table
    /// makes every counter partition-independent.
    pub frontier_depth: usize,
}

impl ExploreConfig {
    /// Defaults: explore to `depth`, try every delivery, dedup and
    /// sleep-set reduction on, serial (no frontier).
    pub fn new(depth: usize) -> Self {
        ExploreConfig {
            depth,
            max_deliveries: usize::MAX,
            dedup: true,
            por: true,
            dpor: false,
            threads: 1,
            frontier_depth: 0,
        }
    }

    /// Sets the per-step delivery cap. Reductions stay on — the capped
    /// menu is a canonical content-order prefix the multiset
    /// fingerprint determines (see [`ExploreConfig::max_deliveries`]).
    #[must_use]
    pub fn max_deliveries(mut self, cap: usize) -> Self {
        self.max_deliveries = cap;
        self
    }

    /// Enables or disables fingerprint dedup.
    #[must_use]
    pub fn dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Enables or disables the partial-order reduction.
    #[must_use]
    pub fn por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }

    /// Enables or disables source-DPOR (persistent sleep sets with
    /// happens-before race wake-ups).
    #[must_use]
    pub fn dpor(mut self, on: bool) -> Self {
        self.dpor = on;
        self
    }

    /// Sets the worker-thread count (`0` = one per core).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the parallel-frontier prefix depth (`0` = auto-size to the
    /// worker count).
    #[must_use]
    pub fn frontier_depth(mut self, k: usize) -> Self {
        self.frontier_depth = k;
        self
    }

    /// Whether any sleep-set machinery (depth-1 or persistent) is on.
    fn sleep_on(&self) -> bool {
        self.por || self.dpor
    }
}

/// Aggregate result of an exploration.
///
/// Derives `Eq` so determinism tests can assert the *entire* result —
/// counters and violation script — is identical across thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreResult {
    /// States visited (including the root, excluding deduped revisits).
    pub states: u64,
    /// Terminal states (all correct halted, or nobody schedulable).
    pub terminals: u64,
    /// States cut off by the depth bound.
    pub truncated: u64,
    /// Revisited states skipped by fingerprint dedup.
    pub deduped: u64,
    /// Child branches skipped because they were asleep (covered by an
    /// earlier branch).
    pub pruned: u64,
    /// Sleeping choices woken by a dependent (racing) step — nonzero
    /// only under [`ExploreConfig::dpor`].
    pub races: u64,
    /// Payload size of the shared dedup table: entries × `(key + value)`
    /// bytes. The empty slots of the shards' flat arrays are not
    /// counted, so the figure tracks the number of claimed keys only.
    pub table_bytes: u64,
    /// First violation in canonical search order, if any: the choice
    /// script reaching it (from the exploration root) and the checker's
    /// message.
    pub violation: Option<(Vec<Choice>, String)>,
}

impl ExploreResult {
    const EMPTY: ExploreResult = ExploreResult {
        states: 0,
        terminals: 0,
        truncated: 0,
        deduped: 0,
        pruned: 0,
        races: 0,
        table_bytes: 0,
        violation: None,
    };

    /// Whether the exploration found no violation.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// Adds `sub`'s counters into `self` (violations are handled by the
    /// drivers, never merged).
    fn absorb(&mut self, sub: &ExploreResult) {
        self.states += sub.states;
        self.terminals += sub.terminals;
        self.truncated += sub.truncated;
        self.deduped += sub.deduped;
        self.pruned += sub.pruned;
        self.races += sub.races;
    }
}

/// Number of shards in the shared fingerprint table — a power of two
/// comfortably above any realistic worker count, so two workers rarely
/// claim in the same shard at once.
const TABLE_SHARDS: usize = 64;

/// Bytes per table entry reported in [`ExploreResult::table_bytes`].
const TABLE_ENTRY_BYTES: u64 = (mem::size_of::<(u64, u64)>() + mem::size_of::<usize>()) as u64;

/// The shared dedup table: `(state fingerprint, sleep-context
/// fingerprint) → largest remaining depth already claimed`, sharded by
/// fingerprint high bits so concurrent claims rarely touch the same
/// lock.
///
/// The claim outcome is a pure function of the key — equal state
/// fingerprints imply equal `now`, hence equal tree depth, hence equal
/// remaining budget — so *which* visit claims first never changes what
/// gets explored, only who explores it. That is the property that makes
/// the shared table safe to use from any number of workers without a
/// merge step. Each shard is a [`FlatTable`]; the table is never
/// iterated, so its slot order is unobservable (only claim outcomes and
/// the entry count leave it).
struct SharedTable {
    shards: Vec<Mutex<FlatTable>>,
}

impl SharedTable {
    fn new() -> Self {
        SharedTable { shards: (0..TABLE_SHARDS).map(|_| Mutex::default()).collect() }
    }

    fn lock_shard(&self, fp: u64) -> MutexGuard<'_, FlatTable> {
        lock(&self.shards[(fp >> 58) as usize])
    }

    /// Claims `(fp, ctx)` at `remaining`: returns `true` when the caller
    /// should visit the node (first visit, or a revisit with a strictly
    /// larger remaining budget), `false` when it is a dedup skip. A dead
    /// end claims at `usize::MAX`: its (empty) future is covered at any
    /// revisit depth.
    fn claim(&self, fp: u64, ctx: u64, remaining: usize) -> bool {
        let mut shard = self.lock_shard(fp);
        let (seen, fresh) = shard.slot_or_insert(fp, ctx, remaining);
        if fresh {
            true
        } else if *seen >= remaining {
            false
        } else {
            *seen = remaining;
            true
        }
    }

    #[cfg(test)]
    fn entries(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).len() as u64).sum()
    }

    /// Empties every shard, freeing its slot array, and returns how many
    /// entries the table held.
    ///
    /// The drivers call this before their search engine's pools drop, so
    /// the large slot arrays go back to the allocator first and the small
    /// pooled buffers, freed last, are what the caller's next allocations
    /// reuse. With the arrays freed last, building a simulation right
    /// after an exploration measured about 20% slower.
    fn drain_entries(&self) -> u64 {
        self.shards.iter().map(|s| mem::take(&mut *lock(s)).len() as u64).sum()
    }

    #[cfg(test)]
    fn get(&self, fp: u64, ctx: u64) -> Option<usize> {
        self.lock_shard(fp).lookup(fp, ctx)
    }
}

fn lock(shard: &Mutex<FlatTable>) -> MutexGuard<'_, FlatTable> {
    shard.lock().expect("invariant: table shards are never poisoned (worker panics propagate)")
}

/// One [`SharedTable`] shard: a flat open-addressing map from
/// `(fp, ctx)` keys to `remaining` budgets, with linear probing.
///
/// It takes no `std` hasher: the keys are fingerprints, already mixed,
/// and a fixed multiply-shift picks the home slot. The all-zero key
/// `(0, 0)` marks an empty slot, so that key's entry is held aside in
/// `zero`. The array grows ×1.5 once it passes 7/8 load: doubling
/// would leave the shards of a run that just crossed a size threshold
/// about half empty, and at explorer sizes the table dominates resident
/// memory.
#[derive(Debug, Default)]
struct FlatTable {
    /// Slot array (empty until the first insert); key `(0, 0)` is an
    /// empty slot.
    slots: Vec<TableSlot>,
    /// Keys held in `slots`.
    len: usize,
    /// The budget claimed for key `(0, 0)`, if any.
    zero: Option<usize>,
}

#[derive(Clone, Copy, Debug, Default)]
struct TableSlot {
    fp: u64,
    ctx: u64,
    remaining: usize,
}

/// Smallest slot array a [`FlatTable`] allocates.
const TABLE_MIN_SLOTS: usize = 64;

impl FlatTable {
    /// Keys held.
    fn len(&self) -> usize {
        self.len + usize::from(self.zero.is_some())
    }

    /// The budget stored for `(fp, ctx)`, inserting `init` when the key
    /// is absent; the flag says whether it was.
    fn slot_or_insert(&mut self, fp: u64, ctx: u64, init: usize) -> (&mut usize, bool) {
        if (fp, ctx) == (0, 0) {
            let fresh = self.zero.is_none();
            return (self.zero.get_or_insert(init), fresh);
        }
        let (mut i, found) = probe_table(&self.slots, fp, ctx);
        if !found {
            if 8 * (self.len + 1) > 7 * self.slots.len() {
                self.grow();
                i = probe_table(&self.slots, fp, ctx).0;
            }
            self.slots[i] = TableSlot { fp, ctx, remaining: init };
            self.len += 1;
        }
        (&mut self.slots[i].remaining, !found)
    }

    #[cfg(test)]
    fn lookup(&self, fp: u64, ctx: u64) -> Option<usize> {
        if (fp, ctx) == (0, 0) {
            return self.zero;
        }
        let (i, found) = probe_table(&self.slots, fp, ctx);
        found.then(|| self.slots[i].remaining)
    }

    /// Rebuilds the slot array ×1.5 larger (at least [`TABLE_MIN_SLOTS`]).
    fn grow(&mut self) {
        let size = (self.slots.len() * 3 / 2).max(TABLE_MIN_SLOTS);
        let old = mem::replace(&mut self.slots, vec![TableSlot::default(); size]);
        for slot in old.into_iter().filter(|s| (s.fp, s.ctx) != (0, 0)) {
            let (i, _) = probe_table(&self.slots, slot.fp, slot.ctx);
            self.slots[i] = slot;
        }
    }
}

/// Linear probe for nonzero key `(fp, ctx)` in `slots`, which holds at
/// least one empty slot unless it is empty itself: the key's slot and
/// `true`, or the first empty slot on its probe path and `false` (`0`
/// for an empty array). The home slot is a multiply-shift of the mixed
/// key, which maps onto any array length.
fn probe_table(slots: &[TableSlot], fp: u64, ctx: u64) -> (usize, bool) {
    let size = slots.len();
    if size == 0 {
        return (0, false);
    }
    let h = (fp ^ ctx.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut i = ((u128::from(h) * size as u128) >> 64) as usize;
    loop {
        let s = &slots[i];
        if s.fp == fp && s.ctx == ctx {
            return (i, true);
        }
        if (s.fp, s.ctx) == (0, 0) {
            return (i, false);
        }
        i += 1;
        if i == size {
            i = 0;
        }
    }
}

/// Exhaustively explores all schedules of `sim` up to `depth` further
/// steps, calling `check` on every reached state; returns on the first
/// violation.
///
/// Thin wrapper over [`explore_with`] with the [`ExploreConfig::new`]
/// defaults — reductions **on**, serial. Pass a config with
/// `.dedup(false).por(false)` for the unreduced enumeration.
pub fn explore<A, D, F>(
    sim: &Simulation<A>,
    fd: &D,
    depth: usize,
    max_branch_deliveries: usize,
    check: &mut F,
) -> ExploreResult
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
    F: FnMut(&Simulation<A>) -> Result<(), String>,
{
    explore_with(sim, fd, &ExploreConfig::new(depth).max_deliveries(max_branch_deliveries), check)
}

/// Explores under an explicit [`ExploreConfig`], single-threaded.
///
/// Runs the canonical depth-first search; `cfg.threads` and
/// `cfg.frontier_depth` are ignored here, and thanks to the shared
/// fingerprint table the result is bitwise identical to [`explore_par`]
/// with the same config at any thread count or frontier depth.
pub fn explore_with<A, D, F>(
    sim: &Simulation<A>,
    fd: &D,
    cfg: &ExploreConfig,
    check: &mut F,
) -> ExploreResult
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
    F: FnMut(&Simulation<A>) -> Result<(), String>,
{
    let table = SharedTable::new();
    let mut dfs = Dfs::new(fd, cfg, &table, None, check);
    // The search moves each node's state into its last child, so it
    // works on a copy of the caller's root.
    let mut root = sim.clone();
    let mut hb =
        cfg.dpor.then(|| HbState::with_pending(sim.n(), |p| sim.network().pending_count(p)));
    dfs.node(&mut root, hb.as_mut(), cfg.depth, &SleepSet::new());
    let mut result = dfs.result;
    result.table_bytes = table.drain_entries() * TABLE_ENTRY_BYTES;
    result
}

/// Explores with the parallel frontier: a breadth-first prefix of the
/// tree is expanded into subtree jobs (exactly
/// `cfg.frontier_depth` levels, or auto-sized to the worker count when
/// it is `0`) that fan out across [`Sweep::new`]`(cfg.threads)`,
/// work-stealing off its atomic cursor. All workers share one sharded
/// fingerprint table, so the counters are sums of per-key contributions
/// and the merged result is bitwise identical to [`explore_with`] for
/// any `cfg.threads` and any frontier depth.
///
/// `make_check` is called once per worker to build its checker closure;
/// a checker must be a pure function of the checker-visible state (see
/// [`Simulation::fingerprint`]), which is what makes the fan-out sound.
/// When any worker finds a violation the parallel counters are
/// discarded and the exploration re-runs serially, so the reported
/// violation script and every counter are exactly [`explore_with`]'s —
/// not "whatever finished before the abort". (Violating explorations
/// stop at the first violation, so the serial re-run is cheap relative
/// to a full sweep of the state space.)
pub fn explore_par<A, D, W, C>(
    sim: &Simulation<A>,
    fd: &D,
    cfg: &ExploreConfig,
    make_check: W,
) -> ExploreResult
where
    A: Automaton + Clone + fmt::Debug + Send,
    A::Msg: Send,
    D: FailureDetector + ?Sized + Sync,
    W: Fn() -> C + Sync,
    C: FnMut(&Simulation<A>) -> Result<(), String>,
{
    let table = SharedTable::new();
    let abort = AtomicBool::new(false);

    // Phase 1: expand the frontier breadth-first on this thread, using
    // the same per-node gate (claim, check, classify) as the DFS so the
    // prefix contributes to the shared table and counters identically.
    let mut root_check = make_check();
    let mut partial;
    let jobs;
    let used_levels;
    {
        let mut bfs = Dfs::new(fd, cfg, &table, Some(&abort), &mut root_check);
        let (lvls, lvl_jobs) = expand_frontier(&mut bfs, sim, cfg);
        partial = bfs.result;
        jobs = lvl_jobs;
        used_levels = lvls;
    }
    if partial.violation.is_some() {
        // Canonical script + counters come from the serial driver.
        return explore_with(sim, fd, cfg, &mut make_check());
    }
    let remaining = cfg.depth - used_levels;

    // Phase 2: fan the subtree jobs across the sweep pool. Each worker
    // keeps one Dfs (checker, pools) for all the jobs it steals.
    let results = Sweep::new(cfg.threads).run(jobs, || {
        let mut dfs = Dfs::new(fd, cfg, &table, Some(&abort), make_check());
        move |_idx: usize, mut job: Job<A>| {
            dfs.result = ExploreResult::EMPTY;
            dfs.node(&mut job.sim, job.hb.as_mut(), remaining, &job.sleep);
            mem::replace(&mut dfs.result, ExploreResult::EMPTY)
        }
    });

    if results.iter().any(|r| r.violation.is_some()) {
        return explore_with(sim, fd, cfg, &mut make_check());
    }
    for sub in &results {
        partial.absorb(sub);
    }
    partial.table_bytes = table.drain_entries() * TABLE_ENTRY_BYTES;
    partial
}

/// A frontier subtree job: the state to explore plus its inherited
/// happens-before shadow and sleep context.
struct Job<A: Automaton> {
    sim: Simulation<A>,
    hb: Option<HbState>,
    sleep: SleepSet,
}

/// Expands the root breadth-first through the shared-table gate,
/// returning `(levels expanded, jobs)`. With `cfg.frontier_depth > 0`
/// exactly that many levels are expanded; with `0` the frontier grows
/// until there are enough jobs to keep the worker pool busy (at least
/// [`JOBS_PER_WORKER`] per worker), the level empties, or the depth
/// budget runs out.
fn expand_frontier<A, D, F>(
    bfs: &mut Dfs<'_, A, D, F>,
    sim: &Simulation<A>,
    cfg: &ExploreConfig,
) -> (usize, Vec<Job<A>>)
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
    F: FnMut(&Simulation<A>) -> Result<(), String>,
{
    let target = if cfg.frontier_depth > 0 {
        0 // explicit depth: the level count is the only stop condition
    } else {
        JOBS_PER_WORKER * Sweep::new(cfg.threads).effective_threads(usize::MAX)
    };
    let k = if cfg.frontier_depth > 0 { cfg.frontier_depth.min(cfg.depth) } else { cfg.depth };

    let mut level = vec![Job {
        sim: sim.clone(),
        hb: cfg.dpor.then(|| HbState::with_pending(sim.n(), |p| sim.network().pending_count(p))),
        sleep: SleepSet::new(),
    }];
    let mut used = 0;
    while used < k {
        if cfg.frontier_depth == 0 && (level.len() >= target || level.is_empty()) {
            break;
        }
        let remaining = cfg.depth - used;
        let mut next: Vec<Job<A>> = Vec::new();
        for mut job in level {
            if bfs.result.violation.is_some() {
                return (used, Vec::new());
            }
            if let Gate::Expand = bfs.gate(&job.sim, remaining, &job.sleep) {
                let mut kids = Vec::new();
                bfs.expand_into(&mut job.sim, job.hb.as_mut(), &job.sleep, &mut kids);
                next.extend(kids.into_iter().map(|c| Job { sim: c.sim, hb: c.hb, sleep: c.sleep }));
            }
        }
        level = next;
        used += 1;
    }
    (used, level)
}

/// Frontier auto-sizing: jobs per worker to aim for, so the
/// work-stealing cursor can rebalance uneven subtrees.
const JOBS_PER_WORKER: usize = 8;

/// What the per-node gate (dedup claim → check → classify) decided.
enum Gate {
    /// Skipped: already claimed under this context at this depth.
    Deduped,
    /// Checked and found violating (recorded in the result).
    Violation,
    /// Checked; a terminal state (all correct halted / none schedulable).
    Terminal,
    /// Checked; out of depth budget.
    Truncated,
    /// Checked; expand the children.
    Expand,
}

/// A materialized child edge: the choice taken and the child's state,
/// happens-before shadow and sleep set (all drawn from the owning
/// [`Dfs`]'s pools; return them with [`Dfs::recycle`]).
struct ChildEdge<A: Automaton> {
    choice: Choice,
    sim: Simulation<A>,
    hb: Option<HbState>,
    sleep: SleepSet,
}

/// The reduced depth-first search engine. One per worker; the dedup
/// table is shared, everything else (pools, path, counters) is local.
struct Dfs<'a, A: Automaton, D: ?Sized, F> {
    fd: &'a D,
    cfg: &'a ExploreConfig,
    check: F,
    table: &'a SharedTable,
    /// Cooperative stop flag for the parallel driver: set on the first
    /// violation, checked at node entry. `None` in the serial driver
    /// (whose early exit is the canonical one).
    abort: Option<&'a AtomicBool>,
    /// Free lists recycled across tree edges.
    sim_pool: Vec<Simulation<A>>,
    hb_pool: Vec<HbState>,
    sleep_pool: Vec<SleepSet>,
    edge_pool: Vec<Vec<ChildEdge<A>>>,
    /// Scratch: per-destination pending counts before / queue growth
    /// across the current step (dpor only).
    pending_before: Vec<usize>,
    grew: Vec<usize>,
    /// Scratch: one process's delivery menu as `(envelope fp, alive
    /// index)` pairs, sorted into canonical content order per expansion.
    menu: Vec<(u64, usize)>,
    /// Scratch: the non-sleeping children of the node being expanded,
    /// in canonical order.
    candidates: Vec<(SleepKey, Choice)>,
    /// Scratch: the earlier siblings of the node being expanded, keyed
    /// by content, with their quietness.
    earlier: Vec<(SleepKey, bool)>,
    path: Vec<Choice>,
    result: ExploreResult,
}

impl<'a, A, D, F> Dfs<'a, A, D, F>
where
    A: Automaton + Clone + fmt::Debug,
    D: FailureDetector + ?Sized,
    F: FnMut(&Simulation<A>) -> Result<(), String>,
{
    fn new(
        fd: &'a D,
        cfg: &'a ExploreConfig,
        table: &'a SharedTable,
        abort: Option<&'a AtomicBool>,
        check: F,
    ) -> Self {
        Dfs {
            fd,
            cfg,
            check,
            table,
            abort,
            sim_pool: Vec::new(),
            hb_pool: Vec::new(),
            sleep_pool: Vec::new(),
            edge_pool: Vec::new(),
            pending_before: Vec::new(),
            grew: Vec::new(),
            menu: Vec::new(),
            candidates: Vec::new(),
            earlier: Vec::new(),
            path: Vec::new(),
            result: ExploreResult::EMPTY,
        }
    }

    fn aborted(&self) -> bool {
        self.abort.is_some_and(|a| a.load(Ordering::Relaxed))
    }

    /// The per-node gate: dedup claim, state count, property check,
    /// terminal/truncation classification. Exactly one gate runs per
    /// visit, in both the DFS and the frontier BFS, which is what keeps
    /// their counters interchangeable.
    fn gate(&mut self, sim: &Simulation<A>, remaining: usize, sleep: &SleepSet) -> Gate {
        let dead_end = sim.all_correct_halted() || sim.schedulable_set().is_empty();
        if self.cfg.dedup {
            // A dead end's (empty) future is covered at any depth, so it
            // claims the largest budget in the same probe.
            let budget = if dead_end { usize::MAX } else { remaining };
            if !self.table.claim(sim.fingerprint(), sleep.fingerprint(), budget) {
                self.result.deduped += 1;
                return Gate::Deduped;
            }
        }

        self.result.states += 1;
        if let Err(msg) = (self.check)(sim) {
            self.result.violation = Some((self.path.clone(), msg));
            if let Some(abort) = self.abort {
                abort.store(true, Ordering::Relaxed);
            }
            return Gate::Violation;
        }

        if dead_end {
            self.result.terminals += 1;
            return Gate::Terminal;
        }
        if remaining == 0 {
            self.result.truncated += 1;
            return Gate::Truncated;
        }
        Gate::Expand
    }

    /// Visits one state: gate, then expand and recurse in canonical
    /// child order. `sleep` is the sleep context inherited along the
    /// path (empty unless `por`/`dpor`); `hb` is the happens-before
    /// shadow (`Some` iff `cfg.dpor`). An expanded node's `sim` and `hb`
    /// move into its last child and are left holding stale pooled
    /// buffers (see [`Dfs::expand_into`]).
    fn node(
        &mut self,
        sim: &mut Simulation<A>,
        hb: Option<&mut HbState>,
        remaining: usize,
        sleep: &SleepSet,
    ) {
        if self.aborted() {
            return;
        }
        if !matches!(self.gate(sim, remaining, sleep), Gate::Expand) {
            return;
        }
        let mut kids = self.edge_pool.pop().unwrap_or_default();
        self.expand_into(sim, hb, sleep, &mut kids);
        for mut kid in kids.drain(..) {
            if self.result.violation.is_none() && !self.aborted() {
                self.path.push(kid.choice);
                self.node(&mut kid.sim, kid.hb.as_mut(), remaining - 1, &kid.sleep);
                self.path.pop();
            }
            self.recycle(kid);
        }
        self.edge_pool.push(kids);
    }

    /// Returns a child's buffers to the free lists.
    fn recycle(&mut self, kid: ChildEdge<A>) {
        self.sim_pool.push(kid.sim);
        if let Some(hb) = kid.hb {
            self.hb_pool.push(hb);
        }
        self.sleep_pool.push(kid.sleep);
    }

    /// Materializes every child of `sim` not asleep under `sleep`, in
    /// canonical order (processes ascending; per process the no-delivery
    /// step, then deliveries sorted by `(from, payload)`), computing
    /// each child's sleep set (and happens-before shadow under dpor).
    /// Updates the `pruned`/`races` counters.
    ///
    /// Every child but the last is copied from the parent into a pooled
    /// buffer; the last one takes the parent's state itself (and its
    /// happens-before shadow), leaving a pooled buffer in its place (see
    /// [`child_buffer`]). So `sim` and `hb` are stale once this returns.
    fn expand_into(
        &mut self,
        sim: &mut Simulation<A>,
        mut hb: Option<&mut HbState>,
        sleep: &SleepSet,
        out: &mut Vec<ChildEdge<A>>,
    ) {
        let t1 = sim.now().next();
        let t2 = t1.next();
        let sleep_on = self.cfg.sleep_on();
        let n = sim.n();
        if self.cfg.dpor {
            self.pending_before.clear();
            for i in 0..n {
                self.pending_before.push(sim.network().pending_count(ProcessId(i as u32)));
            }
        }
        // The non-sleeping candidates, in canonical order.
        let mut candidates = mem::take(&mut self.candidates);
        candidates.clear();
        let mut menu = mem::take(&mut self.menu);
        for p in sim.schedulable_set().iter() {
            // Canonical content-ordered delivery menu: the pending
            // messages sorted by `(from, payload)`, ties oldest-first.
            // A finite cap keeps a prefix of *this* order, so the menu —
            // and every sleep key derived from it — is a pure function
            // of the queue's content multiset, never of arrival order or
            // of a hash value. The concrete alive index still rides
            // along for [`Simulation::step`] and the replayable script.
            sim.network().content_menu(p, &mut menu);
            let tried = menu.len().min(self.cfg.max_deliveries);
            for d in 0..=tried {
                let (key, choice) = match d.checked_sub(1) {
                    None => (SleepKey { p, deliver: None }, Choice { p, deliver: None }),
                    Some(k) => {
                        let (efp, idx) = menu[k];
                        (SleepKey { p, deliver: Some(efp) }, Choice { p, deliver: Some(idx) })
                    }
                };
                if sleep_on && sleep.contains(key) {
                    self.result.pruned += 1;
                } else {
                    candidates.push((key, choice));
                }
            }
        }
        self.menu = menu;

        // Earlier siblings at this node, keyed by content, with their
        // quietness — the raw material of the children's sleep sets.
        let mut earlier = mem::take(&mut self.earlier);
        earlier.clear();
        let last = candidates.len().wrapping_sub(1);
        for (i, &(key, choice)) in candidates.iter().enumerate() {
            let p = choice.p;
            let mut child = child_buffer(&mut self.sim_pool, sim, i == last);
            let report = child.step(choice, self.fd);
            // The failure pattern is fixed for the run; read it from the
            // child, which may hold the parent's state by now.
            let pattern = child.pattern();

            // Whether this step commutes with quiet siblings: quiet
            // itself, its process survives the swap window, and its
            // detector output is stable across the two step times.
            let commutes = report.quiet()
                && pattern.is_alive(p, t2)
                && self.fd.output(p, t1) == self.fd.output(p, t2);

            // Happens-before shadow of the child (dpor only): apply
            // the delivery and the observed queue growth.
            let child_hb = hb.as_deref_mut().map(|parent| {
                self.grew.clear();
                for i in 0..n {
                    let pid = ProcessId(i as u32);
                    let after = child.network().pending_count(pid);
                    let before = self.pending_before[i];
                    let delivered = usize::from(choice.deliver.is_some() && pid == p);
                    self.grew.push(after + delivered - before);
                }
                let mut h = child_buffer(&mut self.hb_pool, parent, i == last);
                h.apply(p, choice.deliver, &self.grew);
                h
            });

            // The child's sleep set. Depth-1 part (por and dpor):
            // every *earlier* quiet sibling of a different process,
            // when both steps' detector outputs are stable across
            // {t1, t2} and both processes survive — then
            // `choice · sibling` reaches a state check-equivalent to
            // `sibling · choice`, whose subtree the earlier branch
            // already explored at the same remaining depth (see
            // DESIGN.md). Persistent part (dpor only): inherited
            // sleepers are carried down while the executed step
            // commutes with them, and woken by program order or a
            // happens-before race ([`dpor::wake_races`]).
            let mut child_sleep = self.sleep_pool.pop().unwrap_or_default();
            child_sleep.clear();
            if self.cfg.dpor && commutes && !sleep.is_empty() {
                child_sleep.copy_from(sleep);
                // Sleepers whose own commutation window broke (fd
                // drift or crash) are dropped, not raced.
                child_sleep.retain(|s| {
                    pattern.is_alive(s.p, t2) && self.fd.output(s.p, t1) == self.fd.output(s.p, t2)
                });
                let woken = dpor::wake_races(
                    &mut child_sleep,
                    child_hb.as_ref().expect("invariant: dpor mode always carries an hb shadow"),
                    p,
                    &self.grew,
                );
                self.result.races += woken;
            }
            if sleep_on && commutes {
                for &(prev, prev_quiet) in &earlier {
                    if prev_quiet
                        && prev.p != p
                        && pattern.is_alive(prev.p, t2)
                        && self.fd.output(prev.p, t1) == self.fd.output(prev.p, t2)
                    {
                        child_sleep.insert(prev);
                    }
                }
            }

            out.push(ChildEdge { choice, sim: child, hb: child_hb, sleep: child_sleep });
            earlier.push((key, report.quiet()));
        }
        self.earlier = earlier;
        self.candidates = candidates;
    }
}

/// A child's copy of `parent`, drawn from `pool`: a `clone_from` into a
/// pooled buffer, except that the `last` child swaps the pooled buffer
/// for the parent itself. An empty pool falls back to a plain clone.
fn child_buffer<T: Clone>(pool: &mut Vec<T>, parent: &mut T, last: bool) -> T {
    match pool.pop() {
        Some(mut buf) if last => {
            mem::swap(&mut buf, parent);
            buf
        }
        Some(mut buf) => {
            buf.clone_from(parent);
            buf
        }
        None => parent.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Effects, StepInput};
    use proptest::prelude::*;
    use sih_model::{FailurePattern, NoDetector, ProcessId, Value};
    use std::collections::BTreeMap;

    /// The ordered-map table the flat shards replaced: the oracle for
    /// `claim`.
    #[derive(Default)]
    struct TableModel(BTreeMap<(u64, u64), usize>);

    impl TableModel {
        fn claim(&mut self, fp: u64, ctx: u64, remaining: usize) -> bool {
            match self.0.get_mut(&(fp, ctx)) {
                Some(seen) if *seen >= remaining => false,
                Some(seen) => {
                    *seen = remaining;
                    true
                }
                None => {
                    self.0.insert((fp, ctx), remaining);
                    true
                }
            }
        }
    }

    /// Fingerprints that collide often: the extremes, a few small values
    /// (all in shard 0, sharing home slots), arbitrary shard-0 values
    /// (driving one shard through many sizes) and arbitrary values.
    fn table_fp() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), 0u64..4, 0u64..1 << 58, any::<u64>()]
    }

    fn table_ctx() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), 0u64..3, any::<u64>()]
    }

    fn table_budget() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), Just(usize::MAX), 0usize..10, any::<usize>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The sharded flat table agrees with the ordered-map model on
        /// every claim outcome, the entry count and every stored budget,
        /// including re-claims with larger budgets, dead-end claims (at
        /// budget `usize::MAX`) and the all-zero key that marks empty
        /// slots.
        #[test]
        fn flat_table_matches_an_ordered_map_model(
            ops in proptest::collection::vec(
                (any::<u8>(), table_fp(), table_ctx(), table_budget()),
                0..600,
            ),
        ) {
            let table = SharedTable::new();
            let mut model = TableModel::default();
            for (i, &(op, fp, ctx, remaining)) in ops.iter().enumerate() {
                // One op in eight is a dead-end claim.
                let budget = if op % 8 == 0 { usize::MAX } else { remaining };
                prop_assert_eq!(
                    table.claim(fp, ctx, budget),
                    model.claim(fp, ctx, budget),
                    "claim ({:#x}, {:#x}) at {}", fp, ctx, budget
                );
                if i % 32 == 0 {
                    prop_assert_eq!(table.entries(), model.0.len() as u64);
                }
            }
            prop_assert_eq!(table.entries(), model.0.len() as u64);
            for (&(fp, ctx), &seen) in &model.0 {
                prop_assert_eq!(table.get(fp, ctx), Some(seen));
            }
            for &(_, fp, ctx, _) in &ops {
                let absent = (fp ^ 1, ctx);
                prop_assert_eq!(table.get(absent.0, absent.1), model.0.get(&absent).copied());
            }
        }
    }

    #[test]
    fn flat_table_grows_by_half_and_keeps_every_key() {
        // One shard taken through every size from the minimum up: keys
        // stay findable across each rebuild, and growth is ×1.5 at 7/8
        // load.
        let mut shard = FlatTable::default();
        let mut sizes = vec![];
        for k in 1..=3_000u64 {
            let fp = k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let (seen, fresh) = shard.slot_or_insert(fp, k % 3, k as usize);
            assert!(fresh);
            assert_eq!(*seen, k as usize);
            if sizes.last() != Some(&shard.slots.len()) {
                sizes.push(shard.slots.len());
            }
            assert!(8 * shard.len() <= 7 * shard.slots.len());
        }
        assert_eq!(shard.len(), 3_000);
        for k in 1..=3_000u64 {
            let fp = k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            assert_eq!(shard.lookup(fp, k % 3), Some(k as usize));
            assert_eq!(shard.lookup(fp, 3), None);
        }
        assert_eq!(sizes[0], TABLE_MIN_SLOTS);
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 3 / 2);
        }
        assert_eq!(sizes.len(), 11, "{sizes:?}");
    }

    /// Decides its own id on its second step.
    #[derive(Clone, Debug, Default)]
    struct TwoStepDecider {
        steps: u32,
        done: bool,
    }
    impl Automaton for TwoStepDecider {
        type Msg = u8;
        fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
            self.steps += 1;
            if self.steps == 2 && !self.done {
                self.done = true;
                eff.decide(Value::of_process(input.me));
                eff.halt();
            }
        }
        fn halted(&self) -> bool {
            self.done
        }
    }

    fn unreduced(depth: usize) -> ExploreConfig {
        ExploreConfig::new(depth).dedup(false).por(false)
    }

    #[test]
    fn explores_all_interleavings_of_two_processes() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        let mut no_check = |_: &Simulation<TwoStepDecider>| Ok(());
        let res = explore_with(&sim, &NoDetector, &unreduced(4), &mut no_check);
        assert!(res.ok());
        // Each process needs exactly 2 steps; all interleavings of the
        // 4-step runs terminate: C(4,2) = 6 terminal orderings.
        assert_eq!(res.terminals, 6);
        assert!(res.states > 6);
        assert_eq!(res.truncated, 0);
        assert_eq!(res.deduped, 0);
        assert_eq!(res.pruned, 0);
        assert_eq!(res.races, 0);
        assert_eq!(res.table_bytes, 0);
    }

    #[test]
    fn reduction_shrinks_the_tree_and_preserves_the_verdict() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        let mut c1 = |_: &Simulation<TwoStepDecider>| Ok(());
        let full = explore_with(&sim, &NoDetector, &unreduced(4), &mut c1);
        let mut c2 = |_: &Simulation<TwoStepDecider>| Ok(());
        let reduced = explore_with(&sim, &NoDetector, &ExploreConfig::new(4), &mut c2);
        assert_eq!(full.ok(), reduced.ok());
        assert!(reduced.states < full.states, "{} !< {}", reduced.states, full.states);
        assert!(reduced.deduped + reduced.pruned > 0);
        assert!(reduced.table_bytes > 0);
        // Decision *times* are checker-visible, so distinct-time terminals
        // must stay distinct: dedup only merges exact projections.
        assert!(reduced.terminals >= 4);
    }

    #[test]
    fn depth_bound_truncates() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        let mut no_check = |_: &Simulation<TwoStepDecider>| Ok(());
        let res = explore(&sim, &NoDetector, 1, usize::MAX, &mut no_check);
        assert!(res.truncated > 0);
        assert_eq!(res.terminals, 0);
    }

    /// Three messages to the other process on the first step.
    #[derive(Clone, Debug, Default)]
    struct Sender {
        sent: bool,
    }
    impl Automaton for Sender {
        type Msg = u8;
        fn step(&mut self, input: StepInput<u8>, eff: &mut Effects<u8>) {
            if !self.sent {
                self.sent = true;
                let other = ProcessId(1 - input.me.0);
                eff.send(other, 1);
                eff.send(other, 2);
                eff.send(other, 3);
            }
        }
    }

    #[test]
    fn delivery_cap_limits_branching() {
        // With messages pending, capping tried deliveries shrinks the
        // tree but still visits the no-delivery branch.
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![Sender::default(); 2], pattern);
        let mut no_check = |_: &Simulation<Sender>| Ok(());
        let uncapped = explore_with(&sim, &NoDetector, &unreduced(3), &mut no_check);
        let mut no_check2 = |_: &Simulation<Sender>| Ok(());
        let capped =
            explore_with(&sim, &NoDetector, &unreduced(3).max_deliveries(1), &mut no_check2);
        assert!(capped.states < uncapped.states);
        assert!(capped.states > 1);
    }

    #[test]
    fn finite_delivery_cap_keeps_reductions_on_and_sound() {
        // Under a finite cap the reductions used to be forced off; with
        // the canonical content-ordered menu they now run — and must
        // agree with both the capped and the *uncapped* unreduced
        // enumeration on the verdict.
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![Sender::default(); 2], pattern);
        let mut c1 = |_: &Simulation<Sender>| Ok(());
        let reduced_capped =
            explore_with(&sim, &NoDetector, &ExploreConfig::new(4).max_deliveries(1), &mut c1);
        let mut c2 = |_: &Simulation<Sender>| Ok(());
        let plain_capped =
            explore_with(&sim, &NoDetector, &unreduced(4).max_deliveries(1), &mut c2);
        let mut c3 = |_: &Simulation<Sender>| Ok(());
        let plain_uncapped = explore_with(&sim, &NoDetector, &unreduced(4), &mut c3);
        assert_eq!(reduced_capped.ok(), plain_capped.ok());
        assert_eq!(reduced_capped.ok(), plain_uncapped.ok());
        // The reductions really ran and really reduced.
        assert!(reduced_capped.deduped + reduced_capped.pruned > 0);
        assert!(reduced_capped.table_bytes > 0);
        assert!(reduced_capped.states < plain_capped.states);
        // And the parallel driver agrees bitwise with the serial one.
        let par = explore_par(
            &sim,
            &NoDetector,
            &ExploreConfig::new(4).max_deliveries(1).frontier_depth(2).threads(2),
            || |_: &Simulation<Sender>| Ok(()),
        );
        assert_eq!(par, reduced_capped);
    }

    #[test]
    fn por_prunes_commuting_quiet_steps() {
        // All Sender steps are quiet (sends only) and NoDetector is
        // trivially stable, so adjacent steps of different processes
        // commute and the sleep sets must fire.
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![Sender::default(); 2], pattern);
        let mut c1 = |_: &Simulation<Sender>| Ok(());
        let por_only =
            explore_with(&sim, &NoDetector, &ExploreConfig::new(4).dedup(false).por(true), &mut c1);
        let mut c2 = |_: &Simulation<Sender>| Ok(());
        let full = explore_with(&sim, &NoDetector, &unreduced(4), &mut c2);
        assert!(por_only.pruned > 0);
        assert!(por_only.states < full.states);
        assert_eq!(por_only.ok(), full.ok());
    }

    #[test]
    fn dpor_prunes_at_least_as_much_as_sleep_sets() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![Sender::default(); 2], pattern);
        let mut c1 = |_: &Simulation<Sender>| Ok(());
        let full = explore_with(&sim, &NoDetector, &unreduced(5), &mut c1);
        let mut c2 = |_: &Simulation<Sender>| Ok(());
        let por = explore_with(&sim, &NoDetector, &ExploreConfig::new(5), &mut c2);
        let mut c3 = |_: &Simulation<Sender>| Ok(());
        let dpor = explore_with(&sim, &NoDetector, &ExploreConfig::new(5).dpor(true), &mut c3);
        assert_eq!(dpor.ok(), full.ok());
        assert!(dpor.states <= por.states, "dpor {} !<= por {}", dpor.states, por.states);
        assert!(dpor.states < full.states);
        // Persistent sleep sets carried past a send into the sleeper's
        // queue must record the race that woke them.
        assert!(dpor.races > 0, "expected happens-before race wake-ups");
    }

    #[test]
    fn dpor_terminals_match_the_unreduced_enumeration() {
        // Every Mazurkiewicz trace must still be represented: the
        // deciders' four distinct decision-time terminals all survive
        // dpor (same assertion the por reduction honors).
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        let mut c = |_: &Simulation<TwoStepDecider>| Ok(());
        let dpor = explore_with(&sim, &NoDetector, &ExploreConfig::new(4).dpor(true), &mut c);
        assert!(dpor.ok());
        assert!(dpor.terminals >= 4);
    }

    #[test]
    fn violation_reports_reaching_script() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        // "Violation": p1 decided.
        let mut check = |s: &Simulation<TwoStepDecider>| {
            if s.trace().decision_of(ProcessId(1)).is_some() {
                Err("p1 decided".to_owned())
            } else {
                Ok(())
            }
        };
        let res = explore(&sim, &NoDetector, 6, usize::MAX, &mut check);
        let (script, msg) = res.violation.expect("must find the violation");
        assert_eq!(msg, "p1 decided");
        // The reaching script must contain exactly two steps of p1 at its
        // end-state (p1 decides on its second step).
        let p1_steps = script.iter().filter(|c| c.p == ProcessId(1)).count();
        assert_eq!(p1_steps, 2);
    }

    #[test]
    fn unreduced_violation_script_is_lexicographically_least() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        let mut check = |s: &Simulation<TwoStepDecider>| {
            if s.trace().decision_of(ProcessId(1)).is_some() {
                Err("p1 decided".to_owned())
            } else {
                Ok(())
            }
        };
        let res = explore_with(&sim, &NoDetector, &unreduced(6), &mut check);
        let (script, _) = res.violation.clone().expect("must find the violation");
        // Unreduced DFS visits scripts in lexicographic order (ascending
        // siblings, prefixes first), so the first violation found is the
        // lex-least violating script: p0 halts after two steps, making
        // [p0, p0, p1, p1] the smallest schedule whose end state has two
        // p1 steps.
        let expected: Vec<Choice> =
            [0, 0, 1, 1].into_iter().map(|p| Choice { p: ProcessId(p), deliver: None }).collect();
        assert_eq!(script, expected);
        // The parallel driver re-runs serially on violation, so it must
        // settle on the same script (and identical counters).
        let par =
            explore_par(&sim, &NoDetector, &unreduced(6).frontier_depth(2).threads(2), || {
                |s: &Simulation<TwoStepDecider>| {
                    if s.trace().decision_of(ProcessId(1)).is_some() {
                        Err("p1 decided".to_owned())
                    } else {
                        Ok(())
                    }
                }
            });
        assert_eq!(par.violation.as_ref().map(|(s, _)| s.as_slice()), Some(expected.as_slice()));
        assert_eq!(par, res);
    }

    #[test]
    fn frontier_and_thread_count_leave_the_result_identical() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![Sender::default(); 2], pattern);
        let make_check = || |_: &Simulation<Sender>| Ok(());
        for cfg in [
            ExploreConfig::new(5),
            ExploreConfig::new(5).dpor(true),
            unreduced(5),
            ExploreConfig::new(5).max_deliveries(1),
        ] {
            let mut serial_check = make_check();
            let serial = explore_with(&sim, &NoDetector, &cfg, &mut serial_check);
            // Explicit frontier depths and the auto-sized frontier
            // (frontier_depth 0) must all match the serial counters.
            for frontier in [0, 2, 3] {
                for threads in [1, 2, 8] {
                    let out = explore_par(
                        &sim,
                        &NoDetector,
                        &cfg.frontier_depth(frontier).threads(threads),
                        make_check,
                    );
                    assert_eq!(out, serial, "cfg {cfg:?} frontier {frontier} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn old_wrapper_matches_default_config() {
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        let mut c1 = |_: &Simulation<TwoStepDecider>| Ok(());
        let wrapped = explore(&sim, &NoDetector, 4, usize::MAX, &mut c1);
        let mut c2 = |_: &Simulation<TwoStepDecider>| Ok(());
        let configured = explore_with(&sim, &NoDetector, &ExploreConfig::new(4), &mut c2);
        assert_eq!(wrapped, configured);
    }

    #[test]
    fn dedup_table_reexplores_revisits_with_more_remaining_depth() {
        // In a live run every revisit carries equal remaining depth (the
        // fingerprint hashes `now` and every step advances it), so the
        // table's `seen >= remaining` branch is driven directly here:
        // seed the table as if the root had been explored with a budget
        // too small to reach the violation, then visit it with a larger
        // one — the visit must re-explore, find the deep violation, and
        // raise the recorded budget.
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        let fp = sim.fingerprint();
        let ctx = SleepSet::new().fingerprint();
        // "p1 decided" needs two p1 steps — unreachable within 1 step.
        let mut check = |s: &Simulation<TwoStepDecider>| {
            if s.trace().decision_of(ProcessId(1)).is_some() {
                Err("p1 decided".to_owned())
            } else {
                Ok(())
            }
        };
        let cfg = ExploreConfig::new(3).por(false);
        let table = SharedTable::new();
        assert!(table.claim(fp, ctx, 1)); // seed: explored at budget 1
        let mut dfs = Dfs::new(&NoDetector, &cfg, &table, None, &mut check);
        dfs.node(&mut sim.clone(), None, 3, &SleepSet::new());
        assert_eq!(dfs.result.deduped, 0, "larger remaining budget must re-explore");
        let (script, _) = dfs.result.violation.expect("violation beyond the seeded budget");
        assert_eq!(script.iter().filter(|c| c.p == ProcessId(1)).count(), 2);
        assert_eq!(table.get(fp, ctx), Some(3), "re-exploring must raise the recorded budget");

        // A revisit at equal (or smaller) remaining budget is skipped.
        let mut check2 = |s: &Simulation<TwoStepDecider>| {
            if s.trace().decision_of(ProcessId(1)).is_some() {
                Err("p1 decided".to_owned())
            } else {
                Ok(())
            }
        };
        let table2 = SharedTable::new();
        assert!(table2.claim(fp, ctx, 3));
        let mut dfs2 = Dfs::new(&NoDetector, &cfg, &table2, None, &mut check2);
        dfs2.node(&mut sim.clone(), None, 3, &SleepSet::new());
        assert_eq!(dfs2.result.deduped, 1);
        assert_eq!(dfs2.result.states, 0);
        assert_eq!(dfs2.result.violation, None);
    }

    #[test]
    fn dead_end_revisited_at_a_larger_budget_is_deduped() {
        // A dead end claims at `usize::MAX` in its one probe, so a
        // revisit is a dedup skip whatever its remaining budget — the
        // outcome the old claim-then-upgrade pair of probes had.
        let table = SharedTable::new();
        assert!(table.claim(5, 9, usize::MAX));
        assert_eq!(table.get(5, 9), Some(usize::MAX));
        for remaining in [0, 3, 1_000, usize::MAX] {
            assert!(!table.claim(5, 9, remaining), "revisit at {remaining}");
        }
        assert_eq!(table.entries(), 1);

        // Through the gate: two processes that halt at once are a dead
        // end at the root; a second visit with more budget is deduped.
        let pattern = FailurePattern::all_correct(2);
        let mut sim = Simulation::new(vec![TwoStepDecider::default(); 2], pattern);
        for p in [0, 0, 1, 1] {
            sim.step(Choice { p: ProcessId(p), deliver: None }, &NoDetector);
        }
        assert!(sim.all_correct_halted());
        let cfg = ExploreConfig::new(3);
        let table = SharedTable::new();
        let mut no_check = |_: &Simulation<TwoStepDecider>| Ok(());
        let mut dfs = Dfs::new(&NoDetector, &cfg, &table, None, &mut no_check);
        dfs.node(&mut sim.clone(), None, 1, &SleepSet::new());
        dfs.node(&mut sim.clone(), None, 5, &SleepSet::new());
        assert_eq!((dfs.result.terminals, dfs.result.deduped), (1, 1));
        let key = (sim.fingerprint(), SleepSet::new().fingerprint());
        assert_eq!(table.get(key.0, key.1), Some(usize::MAX));
    }

    #[test]
    fn dedup_respects_remaining_depth() {
        // End-to-end cross-check of the same table logic the unit test
        // above drives directly: reduced and unreduced exploration agree
        // on the verdict at every depth.
        let pattern = FailurePattern::all_correct(2);
        for depth in 1..=5 {
            let sim = Simulation::new(vec![Sender::default(); 2], pattern.clone());
            let mut c1 = |_: &Simulation<Sender>| Ok(());
            let full = explore_with(&sim, &NoDetector, &unreduced(depth), &mut c1);
            let mut c2 = |_: &Simulation<Sender>| Ok(());
            let red = explore_with(&sim, &NoDetector, &ExploreConfig::new(depth), &mut c2);
            let mut c3 = |_: &Simulation<Sender>| Ok(());
            let dp =
                explore_with(&sim, &NoDetector, &ExploreConfig::new(depth).dpor(true), &mut c3);
            assert_eq!(full.ok(), red.ok(), "depth {depth}");
            assert_eq!(full.ok(), dp.ok(), "depth {depth}");
            assert!(red.states <= full.states, "depth {depth}");
            assert!(dp.states <= red.states, "depth {depth}");
        }
    }

    #[test]
    fn sleep_context_splits_dedup_keys() {
        // Two visits of one state under different sleep contexts must
        // not merge: the context with the larger sleep set explores a
        // subset, and merging would let it shadow schedules only the
        // other context covers.
        let pattern = FailurePattern::all_correct(2);
        let sim = Simulation::new(vec![Sender::default(); 2], pattern);
        let fp = sim.fingerprint();
        let mut ctx_sleep = SleepSet::new();
        ctx_sleep.insert(SleepKey { p: ProcessId(1), deliver: None });
        let table = SharedTable::new();
        assert!(table.claim(fp, ctx_sleep.fingerprint(), 3));
        // Same state, empty context: a different key, so it claims too.
        assert!(table.claim(fp, SleepSet::new().fingerprint(), 3));
        // Same state, same context: dedup.
        assert!(!table.claim(fp, ctx_sleep.fingerprint(), 3));
    }
}
