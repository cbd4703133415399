//! Link windows: the one device both network adversaries are built from.
//!
//! The paper's model (§2.1) assumes reliable, authenticated asynchronous
//! channels. The fault tier ([`LinkFaultPlan`](crate::LinkFaultPlan))
//! and the Byzantine tier ([`AdversaryPlan`](crate::AdversaryPlan))
//! break that assumption the same way: a [`LinkWindow`] applies an
//! action to the sends on one directed link whose per-link counter `k`
//! satisfies `k % stride == offset`, during `[from, until)` (`until =
//! None`: forever). A [`WindowPlan`] is a list of such windows over `n`
//! processes; the two plans differ only in their action type — a
//! [`LinkFault`](crate::LinkFault) or a [`Mutation`](crate::Mutation) —
//! and in how matching windows combine. Everything is a pure function of
//! the plan, the sender's clock and the counter, so plans keep the
//! determinism contract (DESIGN.md §6) and stay fingerprint-stable.

use crate::{ProcessId, ProcessSet, Time};
use std::fmt;

/// What a window does to the sends it selects: a
/// [`LinkFault`](crate::LinkFault) or a [`Mutation`](crate::Mutation).
pub trait WindowAction: Copy + fmt::Debug {
    /// The plan's name in its `Debug` listing.
    const PLAN: &'static str;

    /// Stable lowercase name (schedule format and `Debug` listing).
    fn name(self) -> &'static str;

    /// The action's parameter, written `x=N`; `None` for actions that
    /// take none.
    fn x(self) -> Option<u64>;

    /// The inverse of [`name`](Self::name) and [`x`](Self::x): `None` for
    /// an unknown name, or an `x` the action does not take or lacks.
    fn from_parts(name: &str, x: Option<u64>) -> Option<Self>;
}

/// One window: `action` on the directed link `src -> dst`, applied to the
/// sends whose per-link counter `k` satisfies `k % stride == offset`,
/// during `[from, until)`. A stride of `1` with offset `0` hits every
/// send in the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkWindow<A> {
    /// Sender side of the directed link.
    pub src: ProcessId,
    /// Receiver side of the directed link.
    pub dst: ProcessId,
    /// What the window does to the sends it selects.
    pub action: A,
    /// Period of the counter selection (`>= 1`).
    pub stride: u64,
    /// Residue selected within the period (`< stride`).
    pub offset: u64,
    /// First time at which the window is active.
    pub from: Time,
    /// First time at which the window is no longer active (exclusive);
    /// `None` means the window never closes.
    pub until: Option<Time>,
}

impl<A> LinkWindow<A> {
    /// Whether the window is active at time `t`.
    #[inline]
    pub fn active_at(&self, t: Time) -> bool {
        t >= self.from && self.until.is_none_or(|u| t < u)
    }

    /// Whether the window selects the `k`-th send on its link.
    #[inline]
    pub fn selects(&self, k: u64) -> bool {
        k % self.stride == self.offset
    }

    /// The window translated by `delta` steps, span preserved. Saturates
    /// at `t = 0`, so the result always satisfies the builder invariants
    /// whenever `self` did — the schedule fuzzer's shift operator.
    #[must_use]
    pub fn shifted(mut self, delta: i64) -> Self {
        let span = self.until.map(|u| u.0.saturating_sub(self.from.0));
        self.from = Time(if delta >= 0 {
            self.from.0.saturating_add(delta as u64)
        } else {
            self.from.0.saturating_sub(delta.unsigned_abs())
        });
        self.until = span.map(|s| Time(self.from.0.saturating_add(s.max(1))));
        self
    }

    /// The window with its end moved to `until`, clamped so the window
    /// stays non-empty (`until > from`); `None` makes it permanent. The
    /// schedule fuzzer's resize operator.
    #[must_use]
    pub fn resized(mut self, until: Option<Time>) -> Self {
        self.until = until.map(|u| Time(u.0.max(self.from.0 + 1)));
        self
    }

    /// The window with a new `offset % stride` send selector, clamped to
    /// the builder invariants (`stride >= 1`, `offset < stride`).
    #[must_use]
    pub fn with_selector(mut self, stride: u64, offset: u64) -> Self {
        self.stride = stride.max(1);
        self.offset = offset % self.stride;
        self
    }

    /// The builder invariants over `n` processes.
    fn check(&self, n: usize) {
        assert!(self.src.index() < n && self.dst.index() < n, "process out of range");
        if let Some(u) = self.until {
            assert!(self.from < u, "a link window must be non-empty (from < until)");
        }
        assert!(self.stride >= 1, "stride must be at least 1");
        assert!(self.offset < self.stride, "offset must be smaller than stride");
    }
}

/// A finite list of [`LinkWindow`]s over `n` processes, in insertion
/// order. [`LinkFaultPlan`](crate::LinkFaultPlan) and
/// [`AdversaryPlan`](crate::AdversaryPlan) are this container over their
/// action types.
#[derive(PartialEq, Eq, Hash)]
pub struct WindowPlan<A> {
    n: usize,
    windows: Vec<LinkWindow<A>>,
}

// Manual Clone so `clone_from` (used by `Simulation::reset`, simulation
// pools and explorer state copies) reuses the window vector instead of
// reallocating it.
impl<A: Clone> Clone for WindowPlan<A> {
    fn clone(&self) -> Self {
        WindowPlan { n: self.n, windows: self.windows.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.windows.clone_from(&source.windows);
    }
}

impl<A: WindowAction> WindowPlan<A> {
    /// Starts building a plan over `n` processes (no windows unless some
    /// are added).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > ProcessSet::MAX_PROCESSES`.
    pub fn builder(n: usize) -> WindowPlanBuilder<A> {
        assert!(n > 0, "a system has at least one process");
        assert!(n <= ProcessSet::MAX_PROCESSES, "at most 64 processes supported");
        WindowPlanBuilder { plan: WindowPlan { n, windows: Vec::new() } }
    }

    /// The plan over `n` processes holding exactly `windows`, in order
    /// (the parser's, shrinker's and fuzzer's constructor).
    ///
    /// # Panics
    ///
    /// As [`WindowPlanBuilder::window`], on any window that breaks the
    /// builder invariants.
    pub fn from_windows(n: usize, windows: &[LinkWindow<A>]) -> Self {
        windows.iter().fold(Self::builder(n), |b, &w| b.window(w)).build()
    }

    /// Number of processes `n = |Π|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The windows of the plan, in insertion order.
    #[inline]
    pub fn windows(&self) -> &[LinkWindow<A>] {
        &self.windows
    }

    /// The actions of the windows that select the `k`-th send on the
    /// directed link `src -> dst` at time `t`, in insertion order.
    pub(crate) fn matching(
        &self,
        src: ProcessId,
        dst: ProcessId,
        t: Time,
        k: u64,
    ) -> impl Iterator<Item = A> + '_ {
        self.windows
            .iter()
            .filter(move |w| w.src == src && w.dst == dst && w.active_at(t) && w.selects(k))
            .map(|w| w.action)
    }

    /// The time from which the plan is quiet: the maximum `until` over
    /// all windows, or `None` if some window never closes. A plan with
    /// no windows quiesces at `Time::ZERO`.
    ///
    /// Liveness claims are stated relative to this time: a fault plan
    /// with a finite quiescence time is *fair-lossy with eventual heal*,
    /// and every retransmitting protocol must make progress after it.
    pub fn quiescence_time(&self) -> Option<Time> {
        let mut q = Time::ZERO;
        for w in &self.windows {
            q = q.max(w.until?);
        }
        Some(q)
    }
}

impl<A: WindowAction> fmt::Debug for WindowPlan<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(n={}, windows=[", A::PLAN, self.n)?;
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let (src, dst) = (w.src.index(), w.dst.index());
            write!(f, "{} p{src}→p{dst} {}%{}", w.action.name(), w.offset, w.stride)?;
            if let Some(x) = w.action.x() {
                write!(f, " x={x}")?;
            }
            match w.until {
                Some(u) => write!(f, " @[{}, {})", w.from, u)?,
                None => write!(f, " @[{}, ∞)", w.from)?,
            }
        }
        write!(f, "])")
    }
}

/// Builder for a [`WindowPlan`] (see [`WindowPlan::builder`]).
#[derive(Clone)]
pub struct WindowPlanBuilder<A> {
    plan: WindowPlan<A>,
}

impl<A: WindowAction> WindowPlanBuilder<A> {
    /// Adds a window.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range processes, empty windows (`until <= from`),
    /// or invalid selectors (`stride == 0`, `offset >= stride`).
    pub fn window(mut self, w: LinkWindow<A>) -> Self {
        w.check(self.plan.n);
        self.plan.windows.push(w);
        self
    }

    /// The number of processes the plan is built over.
    pub(crate) fn n(&self) -> usize {
        self.plan.n
    }

    /// Finishes the plan.
    pub fn build(self) -> WindowPlan<A> {
        self.plan
    }
}

/// The splitmix64 stream behind both plans' `random_plan`: the standard
/// 64-bit mixer, plain arithmetic only, so the same seed gives the same
/// plan on every platform.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use crate::{
        AdversaryPlan, LinkFault, LinkFaultPlan, LinkWindow, MutationKind, ProcessId, Time,
    };

    fn window(stride: u64, offset: u64, from: u64, until: Option<u64>) -> LinkWindow<LinkFault> {
        LinkWindow {
            src: ProcessId(0),
            dst: ProcessId(1),
            action: LinkFault::Drop,
            stride,
            offset,
            from: Time(from),
            until: until.map(Time),
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ = LinkFaultPlan::builder(2).window(window(1, 0, 5, Some(5)));
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn offset_out_of_stride_rejected() {
        let _ = LinkFaultPlan::builder(2).window(window(2, 2, 0, None));
    }

    /// One listing for both plans: the action's name, the link, the
    /// selector, the action's `x` if it takes one, and the span.
    #[test]
    fn debug_format_lists_windows() {
        let faults = LinkFaultPlan::builder(2).window(window(1, 0, 3, Some(9))).build();
        assert_eq!(format!("{faults:?}"), "LinkFaultPlan(n=2, windows=[drop p0→p1 0%1 @[t3, t9)])");
        let (p0, p1, perturb) = (ProcessId(0), ProcessId(1), MutationKind::Perturb);
        let adversary = AdversaryPlan::builder(2).every(p0, p1, perturb, 7, Time(3), None).build();
        assert_eq!(
            format!("{adversary:?}"),
            "AdversaryPlan(n=2, windows=[perturb p0→p1 0%1 x=7 @[t3, ∞)])"
        );
    }

    #[test]
    fn reshaped_windows_keep_the_builder_invariants() {
        let w = window(3, 1, 10, Some(20));
        assert_eq!(w.shifted(-15), window(3, 1, 0, Some(10)));
        assert_eq!(w.shifted(5), window(3, 1, 15, Some(25)));
        assert_eq!(w.resized(Some(Time(4))), window(3, 1, 10, Some(11)));
        assert_eq!(w.resized(None), window(3, 1, 10, None));
        assert_eq!(w.with_selector(0, 7), window(1, 0, 10, Some(20)));
        assert_eq!(w.with_selector(4, 6), window(4, 2, 10, Some(20)));
    }
}
