//! The stateful explorer: every delivery order, every delay corner,
//! every clock corner — pruned by dynamic partial-order reduction.
//!
//! [`skewbound_shift::exhaustive_probe`] enumerates delay and clock
//! assignments but leaves same-time events in the engine's deterministic
//! FIFO order. This module closes that gap: a [`SchedulePolicy`] replays
//! a recorded choice prefix and branches over the orders of same-time
//! event batches, turning the engine into a stateless model checker
//! (re-execution instead of state snapshots, in the Verisoft tradition).
//!
//! Exploration is pruned with **persistent sets and sleep sets**
//! (Godefroid, LNCS 1032). At each step the policy branches only over a
//! persistent set of the batch: an event independent of every other
//! enabled event runs alone, otherwise the alternatives are the
//! dependence closure of the batch's first non-sleeping event. After the
//! branch executing event `a` before its sibling `b` has been fully
//! explored, the branch that defers `a` keeps `a` asleep until some
//! executed event is *dependent* with it — if every enabled event is
//! asleep, the interleaving is a commutation of one already checked and
//! the run is abandoned ([`SimError::PolicyAbort`]). Independence is
//! structural (events at different processes commute; the engine applies
//! them to disjoint actors) plus semantic: two same-process deliveries
//! commute when their payload operations commute on every probe state
//! ([`immediately_non_commuting`] finds no witness). The semantic check
//! is an approximation on the probe set — see `DESIGN.md §8`.
//!
//! The reduction assumes no activation enqueues an event at its own
//! instant. A run that breaks this (a zero message delay or a
//! zero-length timer) is stopped with
//! [`ViolationKind::SameInstantEvent`], which voids the exploration.
//!
//! Every run additionally passes through the linearizability checker and
//! the [`skewbound_core::invariants`] protocol invariants; violations
//! carry a replayable coordinate (`clock × delays × choices`) that
//! [`minimize`] shrinks to a locally-minimal failing configuration for
//! certificate emission.

use skewbound_core::invariants::{check_invariants, standard_invariants, RunView};
use skewbound_core::params::Params;
use skewbound_lin::checker::{check_history_stats, CheckLimits, CheckOutcome};
use skewbound_shift::exhaustive::{
    verify_send_order_independence, AssignmentExhausted, EnumeratedDelay,
};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::engine::{EventView, ScheduleDecision, SchedulePolicy, SimError, Simulation};
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_sim::trace::TraceSink;
use skewbound_spec::classify::immediately_non_commuting;
use skewbound_spec::seqspec::SequentialSpec;

use crate::model::ModelActor;
use crate::table::{CachedVerdict, TranspositionTable};

/// The independence relation the explorer prunes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Independence {
    /// Structural + commuting-delivery independence (the real relation).
    Dpor,
    /// Nothing is independent: every same-time batch branches over every
    /// order. Exists so the DPOR reduction is *measurable* — explored
    /// schedule counts under [`Independence::Dpor`] must come out
    /// strictly smaller on any scenario with concurrent deliveries.
    Naive,
}

/// Grid, limits and relation for [`model_check`].
#[derive(Debug, Clone)]
pub struct McConfig<S: SequentialSpec> {
    /// Delay values each message may take (all within `[d − u, d]`).
    pub delay_choices: Vec<SimDuration>,
    /// Clock assignments to explore (all within skew `ε`).
    pub clock_choices: Vec<ClockAssignment>,
    /// Probe states for the commuting-delivery independence check.
    pub probe_states: Vec<S::State>,
    /// The independence relation ([`Independence::Dpor`] normally).
    pub independence: Independence,
    /// Hard cap on executed schedules across the whole exploration.
    pub max_schedules: u64,
    /// Limits for the per-run linearizability check.
    pub check_limits: CheckLimits,
    /// Stop at the first violating run instead of exploring on.
    pub stop_at_first_violation: bool,
    /// Worker threads for the exploration frontier. `None` defers to the
    /// environment (`SKEWBOUND_THREADS` / `SKEWBOUND_PAR`, one per core
    /// otherwise — see [`skewbound_sim::par`]); `Some(1)` forces the
    /// sequential path. The report is bit-identical either way.
    pub workers: Option<usize>,
}

impl<S: SequentialSpec> McConfig<S> {
    /// Endpoint delays `{d − u, d}` and `±ε`-corner clocks, mirroring
    /// [`skewbound_shift::exhaustive::ExhaustiveConfig::corners`]: the
    /// shifting proofs construct their adversarial runs at exactly these
    /// corners.
    #[must_use]
    pub fn corners(params: &Params, probe_states: Vec<S::State>) -> Self {
        let bounds = params.delay_bounds();
        let n = params.n();
        let eps = params.eps();
        let mut clock_choices = vec![ClockAssignment::zero(n)];
        for pid in ProcessId::all(n) {
            clock_choices.push(ClockAssignment::single_late(n, pid, eps));
            let mut ahead = ClockAssignment::zero(n);
            ahead.shift(pid, i64::try_from(eps.as_ticks()).expect("eps fits"));
            clock_choices.push(ahead);
        }
        McConfig {
            delay_choices: vec![bounds.min(), bounds.max()],
            clock_choices,
            probe_states,
            independence: Independence::Dpor,
            max_schedules: 1_000_000,
            check_limits: CheckLimits::default(),
            stop_at_first_violation: false,
            workers: None,
        }
    }
}

/// Why one explored run was rejected (or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The history admits no legal linearization.
    NotLinearizable,
    /// An operation never received a response at quiescence.
    IncompleteHistory,
    /// A protocol invariant failed (`skewbound_core::invariants`).
    Invariant {
        /// The invariant's stable name.
        name: String,
        /// The first violation's evidence.
        detail: String,
    },
    /// The implementation's send pattern depends on message delays, so
    /// the enumerated delay grid does not cover its behaviours and no
    /// per-cell verdict is sound. Detected up front by
    /// [`verify_send_order_independence`] (two opposite-extreme dry
    /// runs); the whole exploration is abandoned with this single
    /// violation instead of aborting the process.
    SendOrderDivergence {
        /// The divergence diagnostic (first differing send, both
        /// orders, both counts).
        detail: String,
    },
    /// An activation enqueued an event at its own instant (a zero
    /// message delay, e.g. the `d − u` corner with `u = d`, or a
    /// zero-length timer). The same-time reduction assumes every
    /// activation enqueues strictly later events; without that it can
    /// skip orders, so no verdict of the exploration is sound and the
    /// whole report is this single violation, at the coordinate of the
    /// first run that broke the assumption.
    SameInstantEvent {
        /// Which event was enqueued, where and when.
        detail: String,
    },
}

impl ViolationKind {
    /// Stable machine-matchable label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::NotLinearizable => "not-linearizable",
            ViolationKind::IncompleteHistory => "incomplete-history",
            ViolationKind::Invariant { .. } => "invariant",
            ViolationKind::SendOrderDivergence { .. } => "send-order-divergence",
            ViolationKind::SameInstantEvent { .. } => "same-instant-event",
        }
    }

    /// `true` for a violation of the exploration's own precondition
    /// rather than of one run: the report carries it alone.
    #[must_use]
    pub fn voids_exploration(&self) -> bool {
        matches!(
            self,
            ViolationKind::SendOrderDivergence { .. } | ViolationKind::SameInstantEvent { .. }
        )
    }

    /// `true` when `other` is the same *kind* of failure (for invariant
    /// violations: the same invariant, details may differ). Minimization
    /// shrinks a counterexample only while the kind is preserved.
    #[must_use]
    pub fn same_kind(&self, other: &ViolationKind) -> bool {
        match (self, other) {
            (
                ViolationKind::Invariant { name: a, .. },
                ViolationKind::Invariant { name: b, .. },
            ) => a == b,
            _ => self.label() == other.label(),
        }
    }
}

impl core::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ViolationKind::NotLinearizable => write!(f, "history is not linearizable"),
            ViolationKind::IncompleteHistory => {
                write!(f, "an operation never responded (incomplete history)")
            }
            ViolationKind::Invariant { name, detail } => {
                write!(f, "protocol invariant {name} violated: {detail}")
            }
            ViolationKind::SendOrderDivergence { detail } => {
                write!(f, "send order depends on delays: {detail}")
            }
            ViolationKind::SameInstantEvent { detail } => {
                write!(f, "event enqueued at its own instant: {detail}")
            }
        }
    }
}

/// Verdict of a single (re-)executed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunVerdict {
    /// Linearizable and every invariant held.
    Clean,
    /// The sleep set proved the run a commutation of one already
    /// explored; it was abandoned unchecked.
    Pruned,
    /// The run requested more delays than the enumerated assignment
    /// covers — it left the enumerated space and proves nothing.
    OffSpace(AssignmentExhausted),
    /// The linearizability checker hit its node limit.
    Unknown,
    /// A genuine violation.
    Violation(ViolationKind),
}

/// A replayable coordinate of one violating run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McViolation {
    /// Index into [`McConfig::clock_choices`].
    pub clock_idx: usize,
    /// Per-message indices into [`McConfig::delay_choices`], in global
    /// send order.
    pub delay_digits: Vec<usize>,
    /// Branch taken at each schedule choice point, in order.
    pub choices: Vec<usize>,
    /// What failed.
    pub kind: ViolationKind,
}

/// What [`model_check`] explored and found.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Messages per run (delay-assignment dimensionality).
    pub messages: usize,
    /// `clock × delay` grid cells visited.
    pub cells: u64,
    /// Schedules executed (including pruned ones).
    pub schedules: u64,
    /// Schedules the sleep sets abandoned as redundant.
    pub pruned: u64,
    /// Runs that left the enumerated delay space.
    pub off_space: u64,
    /// Runs the linearizability checker could not decide.
    pub unknown: u64,
    /// Exploration hit [`McConfig::max_schedules`] before finishing.
    pub capped: bool,
    /// Engine events executed across all completed (non-pruned) runs —
    /// the deterministic work measure behind
    /// [`McReport::explored_states_per_sec`].
    pub explored_states: u64,
    /// Every violating run found (first per cell under
    /// `stop_at_first_violation`), in canonical cell order: ascending
    /// clock index, then delay code, then DFS plan — the first entry is
    /// the lexicographically-least violating coordinate regardless of
    /// the worker count.
    pub violations: Vec<McViolation>,
    /// Wall-clock time of the exploration (advisory: not covered by the
    /// determinism contract, varies run to run).
    pub wall_nanos: u64,
    /// Worker threads the frontier actually used (advisory).
    pub workers: usize,
    /// Distinct precedence structures in the transposition table
    /// (advisory: thread-timing dependent when workers race).
    pub table_entries: u64,
    /// Linearizability checks served from the transposition table
    /// (advisory: thread-timing dependent).
    pub table_hits: u64,
}

impl McReport {
    /// `true` when the whole explored space is violation-free and fully
    /// decided.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.violations.is_empty() && self.unknown == 0 && !self.capped
    }

    /// Exploration throughput: engine events per wall-clock second.
    /// Advisory (derived from `wall_nanos`).
    #[must_use]
    pub fn explored_states_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.explored_states as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// `true` when `other` reports the same exploration *results*: every
    /// deterministic field matches (messages, cells, schedules, pruned,
    /// off-space, unknown, capped, explored states, violations). The
    /// advisory timing/table fields are deliberately excluded — this is
    /// the thread-count determinism contract.
    #[must_use]
    pub fn same_results(&self, other: &McReport) -> bool {
        self.messages == other.messages
            && self.cells == other.cells
            && self.schedules == other.schedules
            && self.pruned == other.pruned
            && self.off_space == other.off_space
            && self.unknown == other.unknown
            && self.capped == other.capped
            && self.explored_states == other.explored_states
            && self.violations == other.violations
    }
}

/// What the dependence relation needs to know about an event.
#[derive(Debug)]
enum EvKey<Op> {
    Invoke(ProcessId),
    Timer(ProcessId),
    Deliver(ProcessId, Option<Op>),
}

impl<Op> EvKey<Op> {
    fn pid(&self) -> ProcessId {
        match self {
            EvKey::Invoke(p) | EvKey::Timer(p) | EvKey::Deliver(p, _) => *p,
        }
    }
}

fn key_of<A: ModelActor>(ev: &EventView<'_, A>) -> EvKey<A::Op> {
    match ev {
        EventView::Invoke { pid, .. } => EvKey::Invoke(*pid),
        EventView::Timer { pid, .. } => EvKey::Timer(*pid),
        EventView::Deliver { pid, msg, .. } => EvKey::Deliver(*pid, A::payload_op(msg).cloned()),
    }
}

/// The dependence relation. Sound over-approximation: anything not
/// provably commuting is dependent.
fn dependent<S: SequentialSpec>(
    independence: Independence,
    spec: &S,
    states: &[S::State],
    a: &EvKey<S::Op>,
    b: &EvKey<S::Op>,
) -> bool {
    if independence == Independence::Naive {
        return true;
    }
    if a.pid() != b.pid() {
        // The engine dispatches each event to exactly one actor; events
        // at different processes touch disjoint state and commute. (Their
        // *sends* enqueue with the same delays either way.)
        return false;
    }
    if let (EvKey::Deliver(_, Some(x)), EvKey::Deliver(_, Some(y))) = (a, b) {
        // Same process, both deliveries: commuting payload operations
        // reach the same replica state in either order.
        return immediately_non_commuting(
            spec,
            states,
            core::slice::from_ref(x),
            core::slice::from_ref(y),
        )
        .is_some();
    }
    true
}

/// One schedule choice point: how many alternatives the policy saw, and
/// which it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Size of the branched-over set: the non-sleeping members of the
    /// batch's persistent set (the dependence closure of its first
    /// non-sleeping event), in batch order. Always at least 2 — a
    /// single alternative runs without a choice point.
    pub alts: usize,
    /// Index of the branch taken.
    pub chosen: usize,
}

/// Bits per word of a dependence row.
const WORD: usize = 64;

/// Bit `i` of a multi-word bitmask.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / WORD] >> (i % WORD) & 1 == 1
}

/// A [`SchedulePolicy`] that replays a choice prefix, defaults to the
/// first alternative beyond it, and maintains the sleep set.
struct ReplayPolicy<'a, S: SequentialSpec> {
    spec: &'a S,
    states: &'a [S::State],
    independence: Independence,
    plan: &'a [usize],
    depth: usize,
    trace: Vec<ChoicePoint>,
    /// Sequence numbers of the sleeping events. They all belong to the
    /// current instant's batch: a sleeper is never run while asleep, and
    /// the engine finishes an instant before it starts the next.
    sleep: Vec<u64>,
    /// The instant of the last batch and the highest sequence number
    /// enqueued when it first formed; a later sequence number at the
    /// same instant was enqueued by an activation at that instant.
    instant: Option<(SimTime, u64)>,
    /// Set when the run broke the same-instant precondition (and was
    /// abandoned for it).
    same_instant: Option<String>,
    // Per-step scratch, reused so a step allocates nothing.
    keys: Vec<EvKey<S::Op>>,
    cands: Vec<usize>,
    alts: Vec<usize>,
    /// The batch's dependence relation, one `⌈k / 64⌉`-word row per
    /// event: bit `j` of row `i` is set when events `i` and `j` are
    /// dependent.
    rows: Vec<u64>,
    closure: Vec<u64>,
    todo: Vec<usize>,
}

impl<'a, S: SequentialSpec> ReplayPolicy<'a, S> {
    fn new(
        spec: &'a S,
        states: &'a [S::State],
        independence: Independence,
        plan: &'a [usize],
    ) -> Self {
        ReplayPolicy {
            spec,
            states,
            independence,
            plan,
            depth: 0,
            trace: Vec::new(),
            sleep: Vec::new(),
            instant: None,
            same_instant: None,
            keys: Vec::new(),
            cands: Vec::new(),
            alts: Vec::new(),
            rows: Vec::new(),
            closure: Vec::new(),
            todo: Vec::new(),
        }
    }

    /// Words per dependence row for the current batch.
    fn row_words(&self) -> usize {
        self.keys.len().div_ceil(WORD)
    }

    /// Fills `rows` with the batch's dependence relation: `k(k − 1)/2`
    /// calls to [`dependent`].
    fn fill_rows(&mut self) {
        let (k, w) = (self.keys.len(), self.row_words());
        self.rows.clear();
        self.rows.resize(k * w, 0);
        for a in 0..k {
            for b in a + 1..k {
                let dep = dependent(
                    self.independence,
                    self.spec,
                    self.states,
                    &self.keys[a],
                    &self.keys[b],
                );
                if dep {
                    self.rows[a * w + b / WORD] |= 1 << (b % WORD);
                    self.rows[b * w + a / WORD] |= 1 << (a % WORD);
                }
            }
        }
    }

    /// Fills `alts` with the non-sleeping members of a persistent set of
    /// the batch. A candidate independent of every other enabled event
    /// is a persistent set on its own; otherwise the dependence closure
    /// of the first candidate is.
    fn persistent_alts(&mut self) {
        self.fill_rows();
        self.alts.clear();
        let w = self.row_words();
        let lone = self
            .cands
            .iter()
            .find(|&&c| self.rows[c * w..(c + 1) * w].iter().all(|&x| x == 0));
        if let Some(&c) = lone {
            self.alts.push(c);
            return;
        }
        let first = self.cands[0];
        self.closure.clear();
        self.closure.resize(w, 0);
        self.closure[first / WORD] |= 1 << (first % WORD);
        self.todo.clear();
        self.todo.push(first);
        while let Some(i) = self.todo.pop() {
            for word in 0..w {
                let mut grown = self.rows[i * w + word] & !self.closure[word];
                self.closure[word] |= grown;
                while grown != 0 {
                    self.todo
                        .push(word * WORD + grown.trailing_zeros() as usize);
                    grown &= grown - 1;
                }
            }
        }
        let closure = &self.closure;
        self.alts
            .extend(self.cands.iter().filter(|&&c| bit(closure, c)));
    }
}

impl<A> SchedulePolicy<A> for ReplayPolicy<'_, A::Spec>
where
    A: ModelActor,
{
    fn choose(&mut self, now: SimTime, enabled: &[EventView<'_, A>]) -> ScheduleDecision {
        match self.instant {
            Some((at, first_max)) if at == now => {
                if let Some(ev) = enabled.iter().find(|e| e.seq() > first_max) {
                    let what = match ev {
                        EventView::Invoke { .. } => "an invocation",
                        EventView::Deliver { .. } => "a delivery",
                        EventView::Timer { .. } => "a timer expiry",
                    };
                    self.same_instant = Some(format!(
                        "{what} at {} was enqueued for t = {now} by an event at that same \
                         instant (a zero message delay or a zero-length timer); the \
                         same-time reduction needs every activation to enqueue strictly \
                         later events",
                        ev.pid()
                    ));
                    return ScheduleDecision::Abort;
                }
            }
            _ => {
                let newest = enabled.iter().map(EventView::seq).max().unwrap_or(0);
                self.instant = Some((now, newest));
            }
        }
        self.keys.clear();
        self.keys.extend(enabled.iter().map(key_of::<A>));
        self.cands.clear();
        self.cands
            .extend((0..enabled.len()).filter(|&i| !self.sleep.contains(&enabled[i].seq())));
        if self.cands.is_empty() {
            // Every enabled event is asleep: any continuation is a
            // commutation of an already-explored schedule.
            return ScheduleDecision::Abort;
        }
        self.persistent_alts();
        let chosen_idx = if self.alts.len() == 1 {
            self.alts[0]
        } else {
            let chosen = self.plan.get(self.depth).copied().unwrap_or(0);
            if chosen >= self.alts.len() {
                // The plan no longer fits the run's branching structure.
                // Unreachable from `model_check` (plans are prefixes of
                // recorded traces and replays are deterministic), but
                // `minimize` probes perturbed plans — a divergent trial
                // is simply abandoned.
                return ScheduleDecision::Abort;
            }
            self.depth += 1;
            self.trace.push(ChoicePoint {
                alts: self.alts.len(),
                chosen,
            });
            // Earlier siblings were (or will have been) fully explored
            // by branches to our left: they go to sleep.
            self.sleep
                .extend(self.alts[..chosen].iter().map(|&i| enabled[i].seq()));
            self.alts[chosen]
        };
        // Executing an event wakes every sleeping event dependent with it
        // (their orders relative to it now matter again).
        let w = self.row_words();
        let row = &self.rows[chosen_idx * w..(chosen_idx + 1) * w];
        self.sleep.retain(|&seq| {
            enabled
                .iter()
                .position(|e| e.seq() == seq)
                .is_some_and(|i| !bit(row, i))
        });
        ScheduleDecision::Take(chosen_idx)
    }
}

/// One run's full result: verdict plus everything a certificate needs.
#[derive(Debug)]
pub struct RunOutcome<S: SequentialSpec> {
    /// The verdict.
    pub verdict: RunVerdict,
    /// The observed history.
    pub history: History<S::Op, S::Resp>,
    /// Every choice point the run passed through, in order (the replayed
    /// plan prefix plus default-first decisions beyond it).
    pub trace: Vec<ChoicePoint>,
    /// Engine events the run executed (0 for pruned runs, whose engine
    /// report is discarded on abort).
    pub events: u64,
}

impl<S: SequentialSpec> RunOutcome<S> {
    /// The branch taken at each choice point — a plan that replays this
    /// exact run.
    #[must_use]
    pub fn choices(&self) -> Vec<usize> {
        self.trace.iter().map(|cp| cp.chosen).collect()
    }
}

/// Mixed-radix counter over delay assignments: digit `i` (index into
/// [`McConfig::delay_choices`]) for message `i`, least-significant digit
/// first. Replaces the old `base.pow(messages)` cell count, which
/// overflowed `u64` at 2 choices × 64 messages and panicked — the
/// counter enumerates the same codes in the same order without ever
/// materializing the grid size. With `base == 1` or `len == 0` there is
/// exactly one (all-zero / empty) assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DigitCounter {
    digits: Vec<usize>,
    base: usize,
}

impl DigitCounter {
    pub(crate) fn new(base: usize, len: usize) -> Self {
        assert!(base >= 1, "need at least one delay choice");
        DigitCounter {
            digits: vec![0; len],
            base,
        }
    }

    /// Resumes counting from a serialized position.
    pub(crate) fn from_digits(digits: Vec<usize>, base: usize) -> Self {
        assert!(base >= 1, "need at least one delay choice");
        assert!(
            digits.iter().all(|&d| d < base),
            "fringe cursor digit out of range for {base} delay choices"
        );
        DigitCounter { digits, base }
    }

    pub(crate) fn current(&self) -> &[usize] {
        &self.digits
    }

    /// Advances to the next assignment; `false` once every code has been
    /// produced (the counter wrapped back to all zeros).
    pub(crate) fn advance(&mut self) -> bool {
        for d in &mut self.digits {
            *d += 1;
            if *d < self.base {
                return true;
            }
            *d = 0;
        }
        false
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clocks: &ClockAssignment,
    digits: &[usize],
    plan: &[usize],
) -> RunOutcome<A::Spec>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    run_one_cached(
        spec,
        make_actors,
        params,
        script,
        config,
        clocks,
        digits,
        plan,
        None,
    )
}

/// [`run_one`] with an optional shared [`TranspositionTable`] serving
/// the linearizability verdict from memoized precedence structures.
/// Used by the parallel frontier; verdicts are identical with or
/// without the table (see `table`'s module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_one_cached<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clocks: &ClockAssignment,
    digits: &[usize],
    plan: &[usize],
    table: Option<&TranspositionTable<A::Spec>>,
) -> RunOutcome<A::Spec>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    run_one_with_sink(
        spec,
        make_actors,
        params,
        script,
        config,
        clocks,
        digits,
        plan,
        None,
        table,
    )
    .0
}

/// [`run_one`] with an optional engine [`TraceSink`]: every engine event
/// streams into the sink, and after the run the linearizability
/// checker's `"check"`-stage counters (`nodes`, `memo_hits`,
/// `max_frontier_depth`) are emitted into it too. The sink is returned
/// so callers can keep writing (model-checker counters, file output).
#[allow(clippy::too_many_arguments)]
fn run_one_with_sink<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clocks: &ClockAssignment,
    digits: &[usize],
    plan: &[usize],
    sink: Option<Box<dyn TraceSink>>,
    table: Option<&TranspositionTable<A::Spec>>,
) -> (RunOutcome<A::Spec>, Option<Box<dyn TraceSink>>)
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let bounds = params.delay_bounds();
    let assignment: Vec<SimDuration> = digits.iter().map(|&d| config.delay_choices[d]).collect();
    let mut sim = Simulation::new(
        make_actors(),
        clocks.clone(),
        EnumeratedDelay::new(bounds, assignment),
    );
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    for (pid, at, op) in script {
        sim.schedule_invoke(*pid, *at, op.clone());
    }
    let mut policy =
        ReplayPolicy::<A::Spec>::new(spec, &config.probe_states, config.independence, plan);
    let result = sim.run_scheduled(&mut policy);
    let trace = policy.trace;
    let mut check_stats = None;
    let mut events = 0u64;
    let verdict = match result {
        Err(SimError::PolicyAbort) => match policy.same_instant {
            Some(detail) => RunVerdict::Violation(ViolationKind::SameInstantEvent { detail }),
            None => RunVerdict::Pruned,
        },
        // Internal invariant: the engine only fails on its own limits;
        // name the coordinate so a grid-sized exploration is debuggable.
        Err(e) => panic!("model-checked run failed at delay digits {digits:?}, plan {plan:?}: {e}"),
        Ok(report) => {
            events = report.events;
            let history = sim.history();
            if let Err(exhausted) = sim.delays().check_exhausted() {
                RunVerdict::OffSpace(exhausted)
            } else if !history.is_complete() {
                RunVerdict::Violation(ViolationKind::IncompleteHistory)
            } else if history.len() > 128 {
                RunVerdict::Unknown
            } else {
                let lin_verdict = if let Some(table) = table {
                    table.check(spec, history, config.check_limits)
                } else {
                    let (outcome, stats) = check_history_stats(spec, history, config.check_limits);
                    check_stats = Some(stats);
                    match outcome {
                        CheckOutcome::Linearizable(_) => CachedVerdict::Linearizable,
                        CheckOutcome::NotLinearizable(_) => CachedVerdict::NotLinearizable,
                        CheckOutcome::Unknown { .. } => CachedVerdict::Unknown,
                    }
                };
                match lin_verdict {
                    CachedVerdict::NotLinearizable => {
                        RunVerdict::Violation(ViolationKind::NotLinearizable)
                    }
                    CachedVerdict::Unknown => RunVerdict::Unknown,
                    CachedVerdict::Linearizable => {
                        let executed_orders: Vec<_> = ProcessId::all(params.n())
                            .filter_map(|pid| sim.actor(pid).executed_order().map(<[_]>::to_vec))
                            .collect();
                        let view = RunView {
                            params,
                            spec,
                            history,
                            executed_orders: &executed_orders,
                        };
                        let violations = check_invariants(&view, &standard_invariants());
                        match violations.into_iter().next() {
                            Some(v) => RunVerdict::Violation(ViolationKind::Invariant {
                                name: v.invariant.to_owned(),
                                detail: v.detail,
                            }),
                            None => RunVerdict::Clean,
                        }
                    }
                }
            }
        }
    };
    let mut sink = sim.take_trace_sink();
    if let (Some(sink), Some(stats)) = (sink.as_deref_mut(), check_stats) {
        sink.counter("check", "nodes", stats.nodes);
        sink.counter("check", "memo_hits", stats.memo_hits);
        sink.counter("check", "max_frontier_depth", stats.max_frontier_depth);
    }
    (
        RunOutcome {
            verdict,
            history: sim.into_history(),
            trace,
            events,
        },
        sink,
    )
}

/// Re-executes the single run a violation (or any coordinate) names.
#[allow(clippy::too_many_arguments)]
pub fn replay<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clock_idx: usize,
    delay_digits: &[usize],
    choices: &[usize],
) -> RunOutcome<A::Spec>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    run_one(
        spec,
        make_actors,
        params,
        script,
        config,
        &config.clock_choices[clock_idx],
        delay_digits,
        choices,
    )
}

/// [`replay`] with a [`TraceSink`] attached to the engine: the run's
/// invocations, sends, deliveries, timer arms/firings and responses
/// stream into the sink (stamped with real time, local clock reading
/// and process id), followed by the `"check"`-stage counters of the
/// replay's linearizability check. Returns the sink for further writes.
#[allow(clippy::too_many_arguments)]
pub fn replay_traced<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clock_idx: usize,
    delay_digits: &[usize],
    choices: &[usize],
    sink: Box<dyn TraceSink>,
) -> (RunOutcome<A::Spec>, Box<dyn TraceSink>)
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let (outcome, sink) = run_one_with_sink(
        spec,
        make_actors,
        params,
        script,
        config,
        &config.clock_choices[clock_idx],
        delay_digits,
        choices,
        Some(sink),
        None,
    );
    let sink = sink.unwrap_or_else(|| {
        // Internal invariant: `Simulation::take_trace_sink` always hands
        // back the sink we attached above.
        panic!(
            "engine dropped the trace sink replaying clock {clock_idx}, \
             delays {delay_digits:?}, choices {choices:?}"
        )
    });
    (outcome, sink)
}

/// Explores every `(clock, delay assignment, schedule)` combination of
/// the scripted scenario, checking each run's history against `spec` and
/// the protocol invariants.
///
/// Work is fanned out over the work-stealing frontier in
/// [`crate::frontier`] (worker count from [`McConfig::workers`], else
/// `SKEWBOUND_THREADS` / one per core) with a shared
/// [`TranspositionTable`]; results are merged in canonical cell order,
/// so the report is bit-identical at any thread count. A delay-dependent
/// send pattern (detected up front, as in
/// [`skewbound_shift::exhaustive_probe`]) yields a report with a single
/// [`ViolationKind::SendOrderDivergence`] violation instead of a panic;
/// a run that enqueues an event at its own instant likewise yields a
/// report with a single [`ViolationKind::SameInstantEvent`] violation.
/// Arbitrarily large delay grids are enumerated lazily — hitting
/// [`McConfig::max_schedules`] sets `capped` rather than overflowing.
///
/// # Panics
///
/// Panics if `config` has no delay or clock choices.
pub fn model_check<A, F>(
    spec: &A::Spec,
    make_actors: F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
) -> McReport
where
    A: ModelActor,
    A::Spec: Sync,
    <A::Spec as SequentialSpec>::State: Sync,
    <A::Spec as SequentialSpec>::Op: Send + Sync,
    <A::Spec as SequentialSpec>::Resp: Send + Sync,
    F: Fn() -> Vec<A> + Sync,
{
    crate::frontier::model_check_resumable(spec, &make_actors, params, script, config, None).0
}

/// Checks the send pattern and sizes the delay grid; `Err` carries the
/// ready-made divergence report.
pub(crate) fn preflight<A, F>(
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
) -> Result<usize, Box<McReport>>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    assert!(!config.delay_choices.is_empty(), "need delay choices");
    assert!(!config.clock_choices.is_empty(), "need clock choices");
    let bounds = params.delay_bounds();
    verify_send_order_independence(make_actors, &config.clock_choices[0], bounds, script).map_err(
        |divergence| {
            // The divergence is a property of the whole grid, not of one
            // cell; anchor it at the origin coordinate (which is one of
            // the two dry runs that exposed it).
            void_report(
                0,
                McViolation {
                    clock_idx: 0,
                    delay_digits: Vec::new(),
                    choices: Vec::new(),
                    kind: ViolationKind::SendOrderDivergence {
                        detail: divergence.to_string(),
                    },
                },
            )
        },
    )
}

/// The report of an exploration voided by `violation` (see
/// [`ViolationKind::voids_exploration`]): no counts, one violation.
pub(crate) fn void_report(messages: usize, violation: McViolation) -> Box<McReport> {
    Box::new(McReport {
        messages,
        cells: 0,
        schedules: 0,
        pruned: 0,
        off_space: 0,
        unknown: 0,
        capped: false,
        explored_states: 0,
        violations: vec![violation],
        wall_nanos: 0,
        workers: 1,
        table_entries: 0,
        table_hits: 0,
    })
}

/// What exploring one work unit produced. A unit is a DFS subtree of one
/// grid cell: the cell's full schedule tree for a fresh cell, or the
/// subtree under a locked choice prefix for a split-off sibling.
#[derive(Debug)]
pub(crate) struct UnitOutcome {
    /// 1 when this unit counted its cell (a fresh cell that executed at
    /// least one run), 0 for split subtrees and untouched units.
    pub cells: u64,
    pub schedules: u64,
    pub pruned: u64,
    pub off_space: u64,
    pub unknown: u64,
    /// Engine events across the unit's completed runs.
    pub events: u64,
    pub violations: Vec<McViolation>,
    /// Set when the unit stopped on its schedule budget: the next plan
    /// the DFS would have run, and the lock depth it would run under.
    pub resume: Option<(Vec<usize>, usize)>,
    /// Depth-0 sibling subtrees split off for other workers: `(plan,
    /// lock_depth)` pairs, in ascending plan order.
    pub spawned: Vec<(Vec<usize>, usize)>,
}

/// Runs the DFS of one work unit: starts at `start_plan`, never
/// backtracks above `lock_depth` (those choice points belong to sibling
/// units), and stops after `budget` schedules. When `split` is set and
/// the unit owns a whole fresh cell whose first run branches at depth 0,
/// the siblings of the first branch are split off as new units instead
/// of being walked inline — the deterministic work-splitting rule (the
/// split depends only on the cell's first trace, never on thread
/// timing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_unit<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clock_idx: usize,
    digits: &[usize],
    start_plan: &[usize],
    lock_depth: usize,
    budget: u64,
    table: Option<&TranspositionTable<A::Spec>>,
    split: bool,
) -> UnitOutcome
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let fresh = start_plan.is_empty() && lock_depth == 0;
    let mut out = UnitOutcome {
        cells: 0,
        schedules: 0,
        pruned: 0,
        off_space: 0,
        unknown: 0,
        events: 0,
        violations: Vec::new(),
        resume: None,
        spawned: Vec::new(),
    };
    let clocks = &config.clock_choices[clock_idx];
    let mut plan: Vec<usize> = start_plan.to_vec();
    let mut lock = lock_depth;
    let mut first = true;
    loop {
        if out.schedules >= budget {
            out.resume = Some((plan, lock));
            return out;
        }
        let outcome = run_one_cached(
            spec,
            make_actors,
            params,
            script,
            config,
            clocks,
            digits,
            &plan,
            table,
        );
        out.schedules += 1;
        out.events += outcome.events;
        if fresh {
            out.cells = 1;
        }
        if first && fresh && split {
            if let Some(cp0) = outcome.trace.first() {
                // The cell's first decision has siblings: hand them to
                // the frontier and keep only subtree 0 for ourselves.
                for j in 1..cp0.alts {
                    out.spawned.push((vec![j], 1));
                }
                if cp0.alts > 1 {
                    lock = 1;
                }
            }
        }
        first = false;
        let run_choices = outcome.choices();
        match outcome.verdict {
            RunVerdict::Clean => {}
            RunVerdict::Pruned => out.pruned += 1,
            RunVerdict::OffSpace(_) => out.off_space += 1,
            RunVerdict::Unknown => out.unknown += 1,
            RunVerdict::Violation(kind) => {
                let stop = config.stop_at_first_violation || kind.voids_exploration();
                out.violations.push(McViolation {
                    clock_idx,
                    delay_digits: digits.to_vec(),
                    choices: run_choices,
                    kind,
                });
                if stop {
                    return out;
                }
            }
        }
        // Backtrack: advance the deepest choice point (at or below the
        // lock) that still has an unexplored alternative; the prefix
        // above it is kept, everything below falls back to
        // default-first.
        match next_plan_locked(&outcome.trace, lock) {
            Some(next) => plan = next,
            None => return out,
        }
    }
}

fn next_plan_locked(trace: &[ChoicePoint], lock_depth: usize) -> Option<Vec<usize>> {
    for depth in (lock_depth..trace.len()).rev() {
        let cp = trace[depth];
        if cp.chosen + 1 < cp.alts {
            let mut plan: Vec<usize> = trace[..depth].iter().map(|c| c.chosen).collect();
            plan.push(cp.chosen + 1);
            return Some(plan);
        }
    }
    None
}

/// Shrinks a violation to a locally-minimal failing configuration of the
/// *same kind*: the shortest failing choice prefix, with every surviving
/// choice as small as possible and every delay digit reset to the
/// default (last delay choice, i.e. `d`) where the failure allows.
///
/// Delta-debugging by re-execution: every candidate reduction is
/// re-run, and kept only if the violation kind is preserved.
pub fn minimize<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    violation: &McViolation,
) -> McViolation
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    minimize_counted(spec, make_actors, params, script, config, violation).0
}

/// [`minimize`] plus the number of delta-debugging steps it took: one
/// step per candidate reduction re-executed (kept or not). The count
/// feeds the `"mc"`-stage `delta_debug_steps` trace counter and the
/// certificate's `explored` block.
pub fn minimize_counted<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    violation: &McViolation,
) -> (McViolation, u64)
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let kind = &violation.kind;
    let steps = core::cell::Cell::new(0u64);
    let still_fails = |digits: &[usize], choices: &[usize]| -> bool {
        steps.set(steps.get() + 1);
        let outcome = run_one(
            spec,
            make_actors,
            params,
            script,
            config,
            &config.clock_choices[violation.clock_idx],
            digits,
            choices,
        );
        matches!(&outcome.verdict, RunVerdict::Violation(k) if k.same_kind(kind))
    };
    let default_digit = config.delay_choices.len() - 1;
    let mut digits = violation.delay_digits.clone();
    let mut choices = violation.choices.clone();
    // Each pass is monotone (only shrinks); iterate to a fixpoint with a
    // hard round bound as a backstop.
    for _round in 0..8 {
        let mut changed = false;
        // 1. Shortest failing choice prefix (the suffix falls back to
        //    the policy's default-first decisions).
        for k in 0..choices.len() {
            if still_fails(&digits, &choices[..k]) {
                choices.truncate(k);
                changed = true;
                break;
            }
        }
        // 2. Smallest branch index per surviving choice point.
        for i in 0..choices.len() {
            while choices[i] > 0 {
                let mut trial = choices.clone();
                trial[i] -= 1;
                if still_fails(&digits, &trial) {
                    choices = trial;
                    changed = true;
                } else {
                    break;
                }
            }
        }
        // 3. Default delay (`d`) per message where the failure survives.
        for i in 0..digits.len() {
            if digits[i] != default_digit {
                let mut trial = digits.clone();
                trial[i] = default_digit;
                if still_fails(&trial, &choices) {
                    digits = trial;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (
        McViolation {
            clock_idx: violation.clock_idx,
            delay_digits: digits,
            choices,
            kind: kind.clone(),
        },
        steps.get(),
    )
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use skewbound_core::foils::{eager_group, LocalFirstReplica};
    use skewbound_core::replica::Replica;
    use skewbound_core::timestamp::Timestamp;
    use skewbound_sim::actor::{Actor, Context};
    use skewbound_spec::counter::{Counter, CounterOp, CounterResp};
    use skewbound_spec::prelude::*;
    use skewbound_spec::probes;

    use super::*;

    /// One completed run as the world sees it: the history records
    /// `(pid, op, resp, invoked_at, responded_at)`, sorted, plus every
    /// replica's executed timestamp order.
    type Outcome = (
        Vec<(ProcessId, String, String, SimTime, Option<SimTime>)>,
        Vec<Vec<Timestamp>>,
    );

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .expect("valid parameters")
    }

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    /// Walks the whole schedule DFS of each `(clock index, delay digits)`
    /// cell under `independence`, replaying every plan the way
    /// [`explore_unit`] does, and collects the outcome of every run that
    /// completed (pruned runs are commutations of ones already seen).
    fn outcomes<A, F>(
        spec: &A::Spec,
        make_actors: &F,
        script: &[(ProcessId, SimTime, A::Op)],
        probe_states: Vec<<A::Spec as SequentialSpec>::State>,
        independence: Independence,
        cells: &[(usize, Vec<usize>)],
    ) -> BTreeSet<Outcome>
    where
        A: ModelActor,
        F: Fn() -> Vec<A>,
    {
        let p = params();
        let config: McConfig<A::Spec> = McConfig::corners(&p, probe_states);
        let mut seen = BTreeSet::new();
        for (clock_idx, digits) in cells {
            let mut plan = Vec::new();
            loop {
                let assignment = digits.iter().map(|&d| config.delay_choices[d]).collect();
                let mut sim = Simulation::new(
                    make_actors(),
                    config.clock_choices[*clock_idx].clone(),
                    EnumeratedDelay::new(p.delay_bounds(), assignment),
                );
                for (pid, at, op) in script {
                    sim.schedule_invoke(*pid, *at, op.clone());
                }
                let mut policy = ReplayPolicy::new(spec, &config.probe_states, independence, &plan);
                match sim.run_scheduled(&mut policy) {
                    Ok(_) => {
                        let mut records: Vec<_> = sim
                            .history()
                            .records()
                            .iter()
                            .map(|r| {
                                (
                                    r.pid,
                                    format!("{:?}", r.op),
                                    format!("{:?}", r.resp()),
                                    r.invoked_at,
                                    r.responded_at(),
                                )
                            })
                            .collect();
                        records.sort();
                        let orders = ProcessId::all(p.n())
                            .filter_map(|pid| sim.actor(pid).executed_order().map(<[_]>::to_vec))
                            .collect();
                        seen.insert((records, orders));
                    }
                    Err(SimError::PolicyAbort) => {
                        assert!(policy.same_instant.is_none(), "{:?}", policy.same_instant);
                        assert_eq!(independence, Independence::Dpor, "naive never prunes");
                    }
                    Err(e) => panic!("run failed: {e}"),
                }
                match next_plan_locked(&policy.trace, 0) {
                    Some(next) => plan = next,
                    None => break,
                }
            }
        }
        seen
    }

    /// The persistent-set reduction loses no behaviour: over the same
    /// cells, the DPOR walk reaches exactly the outcomes the naive walk
    /// (every order of every batch) reaches.
    #[test]
    fn dpor_reaches_every_outcome_naive_reaches() {
        let p = params();
        let same = |name: &str, dpor: BTreeSet<Outcome>, naive: BTreeSet<Outcome>| {
            assert!(!dpor.is_empty(), "{name}: no run completed");
            assert_eq!(dpor, naive, "{name}: outcome sets differ");
        };

        // Algorithm 1 on two racing writes, at `d` and zero skew (the naive
        // walk of the `d − u` cell alone runs to two million schedules).
        let register = [
            (pid(0), t(0), RmwOp::Write(1)),
            (pid(1), t(0), RmwOp::Write(2)),
            (pid(2), t(40_000), RmwOp::Read),
        ];
        let cells = [(0, vec![1; 4])];
        let make = || Replica::group(RmwRegister::default(), &p);
        let walk = |independence| {
            outcomes(
                &RmwRegister::default(),
                &make,
                &register,
                probes::register_states(),
                independence,
                &cells,
            )
        };
        same(
            "register",
            walk(Independence::Dpor),
            walk(Independence::Naive),
        );

        // A replica that answers from local state: which racing write a
        // read sees depends on the order of same-time deliveries and the
        // read's invocation, so a reduction that drops an order drops an
        // outcome.
        let racing = [
            (pid(0), t(0), RegOp::Write(1)),
            (pid(1), t(0), RegOp::Write(2)),
            (pid(2), t(9_000), RegOp::Read),
        ];
        let cells = [(0, vec![1; 4]), (0, vec![0, 0, 1, 1]), (1, vec![1; 4])];
        let make = || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n());
        let walk = |independence| {
            outcomes(
                &RwRegister::<i64>::default(),
                &make,
                &racing,
                probes::register_states(),
                independence,
                &cells,
            )
        };
        let dpor = walk(Independence::Dpor);
        assert!(
            dpor.len() > 2,
            "the read must see each racing write in some order: {dpor:?}"
        );
        same("local-first register", dpor, walk(Independence::Naive));

        // Two commuting deliveries and a timer, due together at p2: only
        // the dependence closure of the first delivery (through the
        // timer) reaches the read that sees the second write alone.
        let tally = [
            (pid(0), t(0), CounterOp::Add(1)),
            (pid(1), t(0), CounterOp::Add(2)),
            (pid(2), t(0), CounterOp::Read),
        ];
        let make = || vec![Tally::default(), Tally::default(), Tally::default()];
        let walk = |independence| {
            outcomes(
                &Counter::default(),
                &make,
                &tally,
                probes::register_states(),
                independence,
                &[(0, vec![1; 4])],
            )
        };
        let dpor = walk(Independence::Dpor);
        assert_eq!(dpor.len(), 4, "the read sees 0, 1, 2 or 3: {dpor:?}");
        same("tally", dpor, walk(Independence::Naive));

        let stack = [
            (pid(0), t(0), StackOp::Push(7)),
            (pid(1), t(200), StackOp::Pop),
        ];
        let cells = [(0, vec![1; 4]), (0, vec![0; 4]), (2, vec![0, 1, 0, 1])];
        let make = || Replica::group(Stack::<i64>::new(), &p);
        let walk = |independence| {
            outcomes(
                &Stack::<i64>::new(),
                &make,
                &stack,
                probes::stack_states(),
                independence,
                &cells,
            )
        };
        same("stack", walk(Independence::Dpor), walk(Independence::Naive));

        let foil = [
            (pid(2), t(0), QueueOp::Enqueue(7)),
            (pid(0), t(40_000), QueueOp::Dequeue),
            (pid(1), t(40_500), QueueOp::Dequeue),
        ];
        let cells = [
            (0, vec![1; 6]),
            (0, vec![0; 6]),
            (1, vec![0, 1, 0, 1, 0, 1]),
        ];
        let make = || eager_group(Queue::<i64>::new(), &p, 1, 2);
        let walk = |independence| {
            outcomes(
                &Queue::<i64>::new(),
                &make,
                &foil,
                probes::queue_states(),
                independence,
                &cells,
            )
        };
        same(
            "eager queue foil",
            walk(Independence::Dpor),
            walk(Independence::Naive),
        );
    }

    /// Adds locally and broadcasts; a read answers after `d` with the
    /// local sum, whatever has arrived by then.
    #[derive(Debug, Default)]
    struct Tally(i64);

    impl Actor for Tally {
        type Msg = CounterOp;
        type Op = CounterOp;
        type Resp = CounterResp;
        type Timer = ();

        fn on_invoke(&mut self, op: CounterOp, ctx: &mut Context<'_, Self>) {
            match op {
                CounterOp::Add(k) => {
                    self.0 += k;
                    ctx.broadcast(CounterOp::Add(k));
                    ctx.respond(CounterResp::Ack);
                }
                CounterOp::Read => {
                    ctx.set_timer(params().d(), ());
                }
            }
        }

        fn on_message(&mut self, _from: ProcessId, msg: CounterOp, _ctx: &mut Context<'_, Self>) {
            if let CounterOp::Add(k) = msg {
                self.0 += k;
            }
        }

        fn on_timer(&mut self, (): (), ctx: &mut Context<'_, Self>) {
            ctx.respond(CounterResp::Value(self.0));
        }
    }

    impl ModelActor for Tally {
        type Spec = Counter;

        fn payload_op(msg: &CounterOp) -> Option<&CounterOp> {
            Some(msg)
        }
    }

    /// A batch wider than one mask word: 70 reads invoked together at
    /// 70 processes, then their 70 timers due together. Every event is
    /// independent of the rest, so one schedule covers the cell.
    #[test]
    fn wide_batch_of_independent_events_runs_one_schedule() {
        let p = Params::with_optimal_skew(
            70,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .expect("valid parameters");
        let mut config = McConfig::corners(&p, probes::register_states());
        config.clock_choices.truncate(1);
        config.workers = Some(1);
        let script: Vec<_> = ProcessId::all(70)
            .map(|q| (q, t(0), CounterOp::Read))
            .collect();
        let report = model_check(
            &Counter::default(),
            || (0..70).map(|_| Tally::default()).collect(),
            &p,
            &script,
            &config,
        );
        assert!(report.all_passed(), "{report:?}");
        assert_eq!((report.cells, report.schedules), (1, 1));
        assert_eq!(report.explored_states, 140);
    }

    /// The closure follows dependence across row words and through
    /// sleeping events: two commuting deliveries at p0 (indices 0 and
    /// 66) are both dependent with a p0 timer (index 65), everything
    /// else comes in same-process groups elsewhere.
    #[test]
    fn closure_spans_row_words_and_sleepers() {
        let spec = Counter::default();
        let states = probes::register_states();
        let mut policy = ReplayPolicy::new(&spec, &states, Independence::Dpor, &[]);
        policy
            .keys
            .push(EvKey::Deliver(pid(0), Some(CounterOp::Add(1))));
        policy
            .keys
            .extend((0..64).map(|i| EvKey::Timer(pid(100 + i / 2))));
        policy.keys.push(EvKey::Timer(pid(0)));
        policy
            .keys
            .push(EvKey::Deliver(pid(0), Some(CounterOp::Add(2))));
        policy.keys.extend([
            EvKey::Invoke(pid(200)),
            EvKey::Timer(pid(200)),
            EvKey::Invoke(pid(200)),
        ]);
        assert_eq!(policy.keys.len(), 70);

        policy.cands = (0..70).collect();
        policy.persistent_alts();
        assert_eq!(policy.alts, [0, 65, 66]);

        policy.cands.retain(|&c| c != 65);
        policy.persistent_alts();
        assert_eq!(policy.alts, [0, 66], "the sleeping timer still links them");
    }

    /// `(schedules, explored states)` of a sequential exploration, which
    /// must have pruned nothing.
    fn counts<A, F>(
        spec: &A::Spec,
        make_actors: F,
        script: &[(ProcessId, SimTime, A::Op)],
        probe_states: Vec<<A::Spec as SequentialSpec>::State>,
        clocks: usize,
        independence: Independence,
    ) -> (u64, u64)
    where
        A: ModelActor,
        A::Spec: Sync,
        <A::Spec as SequentialSpec>::State: Sync,
        <A::Spec as SequentialSpec>::Op: Send + Sync,
        <A::Spec as SequentialSpec>::Resp: Send + Sync,
        F: Fn() -> Vec<A> + Sync,
    {
        let p = params();
        let mut config = McConfig::corners(&p, probe_states);
        config.clock_choices.truncate(clocks);
        config.independence = independence;
        config.workers = Some(1);
        let report = model_check(spec, make_actors, &p, script, &config);
        assert!(report.all_passed(), "{report:?}");
        assert_eq!(report.pruned, 0, "no run may end sleep-blocked");
        (report.schedules, report.explored_states)
    }

    /// The scenarios `skewlint --smoke` checks, and one query shaped like
    /// the `mc-register` benchmark's, explore exactly the runs the
    /// sleep-set-only explorer completed — `schedules − pruned` and
    /// `explored_states` as it reported them — with none pruned.
    #[test]
    fn exploration_counts_match_the_sleep_set_explorer() {
        let p = params();
        let register = [
            (pid(0), t(0), RmwOp::Write(1)),
            (pid(1), t(0), RmwOp::Write(2)),
            (pid(2), t(40_000), RmwOp::Read),
        ];
        let make = || Replica::group(RmwRegister::default(), &p);
        let spec = RmwRegister::default();
        let states = probes::register_states;
        let dpor = Independence::Dpor;
        assert_eq!(
            counts(&spec, make, &register, states(), 3, dpor),
            (450, 8_100)
        );

        let queue = [
            (pid(0), t(0), QueueOp::Enqueue(1)),
            (pid(1), t(0), QueueOp::Enqueue(2)),
            (pid(2), t(40_000), QueueOp::Dequeue),
        ];
        let make_queue = || Replica::group(Queue::<i64>::new(), &p);
        let queue_counts = counts(
            &Queue::<i64>::new(),
            make_queue,
            &queue,
            probes::queue_states(),
            3,
            dpor,
        );
        assert_eq!(queue_counts, (1_800, 41_400));

        let stack = [
            (pid(0), t(0), StackOp::Push(7)),
            (pid(1), t(200), StackOp::Pop),
        ];
        let make_stack = || Replica::group(Stack::<i64>::new(), &p);
        let stack_counts = |independence| {
            counts(
                &Stack::<i64>::new(),
                make_stack,
                &stack,
                probes::stack_states(),
                3,
                independence,
            )
        };
        assert_eq!(stack_counts(dpor), (48, 720));
        assert_eq!(stack_counts(Independence::Naive), (6_912, 103_680));

        // Two racing writes, a read probe at d/2, a final read; every
        // clock corner.
        let query = [
            (pid(0), t(0), RmwOp::Write(11)),
            (pid(1), t(0), RmwOp::Write(22)),
            (pid(2), t(4_500), RmwOp::Read),
            (pid(0), t(36_000), RmwOp::Read),
        ];
        assert_eq!(
            counts(&spec, make, &query, states(), 7, dpor),
            (1_050, 21_000)
        );
    }
}
