//! The work-stealing exploration frontier and its deterministic merge.
//!
//! [`model_check`](crate::model_check) splits the exploration grid into
//! **work units** — one per `clock × delay-code` cell, plus DFS subtrees
//! split off at a hot cell's first (depth-0) choice point — and fans
//! them out over a scoped worker pool in the style of
//! [`skewbound_sim::par::run_grid`]: workers claim units from a shared
//! frontier (smallest canonical coordinate first), explore them with
//! [`crate::explore`]'s replay DFS, and share one
//! [`TranspositionTable`] so linearizability verdicts memoized by one
//! worker serve all of them.
//!
//! ## The determinism contract
//!
//! Parallel execution is treated as *best-effort cache warming*: after
//! the pool drains, a single-threaded **merge walk** revisits every unit
//! in canonical order — ascending clock index, then delay code, then
//! DFS plan — and absorbs each unit's result into the report. A unit
//! whose recorded result does not fit the canonical schedule budget at
//! its position (or that no worker got to) is simply re-explored inline
//! by the merge walk with the exact remaining budget. Worker scheduling
//! can therefore change *how fast* the answer arrives, never *what* it
//! is: counts, `capped`, violation order (lexicographically-least
//! first) and the serialized fringe are bit-identical at any
//! `SKEWBOUND_THREADS`.
//!
//! The split rule is deterministic for the same reason: a fresh cell
//! always splits at its first run's depth-0 choice point when that
//! point branches, regardless of pool pressure, so the unit set itself
//! does not depend on thread timing.
//!
//! ## Budget and fringe
//!
//! [`McConfig::max_schedules`] is a *total* budget. Workers stop
//! claiming once the global executed-schedule counter passes it; the
//! merge walk then computes the exact canonical cut, re-running the cut
//! unit with the precise remainder. Everything beyond the cut — the
//! pending unit list and the lazy cell-generator position — is returned
//! as a [`Fringe`], serializable to `skewbound-fringe/v2` JSON via the
//! `lint` JSON module and resumable with [`model_check_resumable`]: a
//! resumed exploration (with the cumulative budget raised) produces the
//! same final report as an uninterrupted run. Cells are enumerated
//! lazily throughout, so a `2^64`-cell grid caps cleanly instead of
//! overflowing.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use skewbound_core::params::Params;
use skewbound_lint::json::{obj, parse, Json};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par;
use skewbound_sim::time::SimTime;
use skewbound_spec::seqspec::SequentialSpec;

use crate::explore::{
    explore_unit, preflight, void_report, DigitCounter, McConfig, McReport, McViolation,
    UnitOutcome, ViolationKind,
};
use crate::model::ModelActor;
use crate::table::TranspositionTable;

/// Schema tag of the serialized fringe.
pub const FRINGE_SCHEMA: &str = "skewbound-fringe/v2";

/// One work unit: a DFS subtree of one grid cell. `plan == []` with
/// `lock_depth == 0` is the whole fresh cell; a split sibling carries
/// the locked choice prefix it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Unit {
    pub(crate) clock_idx: usize,
    /// Delay digits, least-significant first (index into
    /// `McConfig::delay_choices` per message).
    pub(crate) digits: Vec<usize>,
    pub(crate) plan: Vec<usize>,
    pub(crate) lock_depth: usize,
}

impl Ord for Unit {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Canonical exploration order: clock index, then delay *code*
        // (digits are little-endian, so compare from the most
        // significant end), then DFS plan (lexicographic; a prefix
        // precedes its extensions, matching DFS emission order).
        self.clock_idx
            .cmp(&other.clock_idx)
            .then_with(|| self.digits.len().cmp(&other.digits.len()))
            .then_with(|| self.digits.iter().rev().cmp(other.digits.iter().rev()))
            .then_with(|| self.plan.cmp(&other.plan))
            .then_with(|| self.lock_depth.cmp(&other.lock_depth))
    }
}

impl PartialOrd for Unit {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy generator of fresh cells in canonical order.
#[derive(Debug, Clone)]
struct CellCursor {
    clock_idx: usize,
    clock_count: usize,
    counter: DigitCounter,
}

impl CellCursor {
    fn new(base: usize, messages: usize, clock_count: usize) -> Self {
        CellCursor {
            clock_idx: 0,
            clock_count,
            counter: DigitCounter::new(base, messages),
        }
    }

    fn resume(clock_idx: usize, digits: Vec<usize>, base: usize, clock_count: usize) -> Self {
        CellCursor {
            clock_idx,
            clock_count,
            counter: DigitCounter::from_digits(digits, base),
        }
    }

    fn next_cell(&mut self) -> Option<(usize, Vec<usize>)> {
        if self.clock_idx >= self.clock_count {
            return None;
        }
        let cell = (self.clock_idx, self.counter.current().to_vec());
        if !self.counter.advance() {
            self.clock_idx += 1;
        }
        Some(cell)
    }

    /// The next cell the cursor would produce, without advancing; `None`
    /// once exhausted.
    fn position(&self) -> Option<(usize, Vec<usize>)> {
        if self.clock_idx >= self.clock_count {
            return None;
        }
        Some((self.clock_idx, self.counter.current().to_vec()))
    }
}

/// Claimable work: split-off units first (they always precede every
/// cell the cursor has yet to produce), then fresh cells off the lazy
/// cursor. `BTreeMap` keyed by the canonical order so the smallest
/// coordinate is claimed first — that keeps worker effort aligned with
/// the canonical budget cut.
#[derive(Debug)]
struct FrontierState {
    pending: BTreeMap<Unit, ()>,
    cursor: CellCursor,
}

impl FrontierState {
    fn claim(&mut self) -> Option<Unit> {
        if let Some((unit, ())) = self.pending.pop_first() {
            return Some(unit);
        }
        let (clock_idx, digits) = self.cursor.next_cell()?;
        Some(Unit {
            clock_idx,
            digits,
            plan: Vec::new(),
            lock_depth: 0,
        })
    }
}

/// The part of the exploration that is still ahead: accumulated
/// deterministic counts plus the unexplored unit list and generator
/// position. Serialize with [`Fringe::to_json`], restore with
/// [`Fringe::parse`], and continue with
/// [`model_check_resumable`] — the resumed run's final report equals an
/// uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fringe {
    pub(crate) messages: usize,
    pub(crate) cells: u64,
    pub(crate) schedules: u64,
    pub(crate) pruned: u64,
    pub(crate) off_space: u64,
    pub(crate) unknown: u64,
    pub(crate) explored_states: u64,
    pub(crate) violations: Vec<McViolation>,
    /// Unexplored units beyond the cut, in canonical order.
    pub(crate) pending: Vec<Unit>,
    /// Where the lazy cell generator stopped, if cells remain.
    pub(crate) cursor: Option<(usize, Vec<usize>)>,
}

impl Fringe {
    /// Units pending beyond the cut (not counting cells the lazy
    /// generator has yet to produce).
    #[must_use]
    pub fn pending_units(&self) -> usize {
        self.pending.len()
    }

    /// Schedules already executed before the cut.
    #[must_use]
    pub fn schedules_done(&self) -> u64 {
        self.schedules
    }

    /// Serializes to `skewbound-fringe/v2` JSON (pretty-printed, like
    /// certificates).
    #[must_use]
    pub fn to_json(&self) -> String {
        let num_u = |v: u64| Json::Num(i64::try_from(v).expect("count fits i64"));
        let num_us = |v: usize| Json::Num(i64::try_from(v).expect("count fits i64"));
        let digit_arr = |ds: &[usize]| Json::Arr(ds.iter().map(|&d| num_us(d)).collect::<Vec<_>>());
        let violations = self
            .violations
            .iter()
            .map(|v| {
                let (name, detail) = match &v.kind {
                    ViolationKind::Invariant { name, detail } => {
                        (Json::Str(name.clone()), Json::Str(detail.clone()))
                    }
                    ViolationKind::SendOrderDivergence { detail }
                    | ViolationKind::SameInstantEvent { detail } => {
                        (Json::Null, Json::Str(detail.clone()))
                    }
                    _ => (Json::Null, Json::Null),
                };
                obj([
                    ("clock_idx", num_us(v.clock_idx)),
                    ("delay_digits", digit_arr(&v.delay_digits)),
                    ("choices", digit_arr(&v.choices)),
                    ("kind", Json::Str(v.kind.label().to_owned())),
                    ("name", name),
                    ("detail", detail),
                ])
            })
            .collect();
        let pending = self
            .pending
            .iter()
            .map(|u| {
                obj([
                    ("clock_idx", num_us(u.clock_idx)),
                    ("digits", digit_arr(&u.digits)),
                    ("plan", digit_arr(&u.plan)),
                    ("lock_depth", num_us(u.lock_depth)),
                ])
            })
            .collect();
        let cursor = match &self.cursor {
            Some((clock_idx, digits)) => obj([
                ("clock_idx", num_us(*clock_idx)),
                ("digits", digit_arr(digits)),
            ]),
            None => Json::Null,
        };
        obj([
            ("schema", Json::Str(FRINGE_SCHEMA.into())),
            ("messages", num_us(self.messages)),
            ("cells", num_u(self.cells)),
            ("schedules", num_u(self.schedules)),
            ("pruned", num_u(self.pruned)),
            ("off_space", num_u(self.off_space)),
            ("unknown", num_u(self.unknown)),
            ("explored_states", num_u(self.explored_states)),
            ("violations", Json::Arr(violations)),
            ("pending", Json::Arr(pending)),
            ("cursor", cursor),
        ])
        .pretty()
    }

    /// Parses and validates a serialized fringe.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field: wrong schema,
    /// missing members, negative counts, or a non-canonical pending
    /// list.
    pub fn parse(text: &str) -> Result<Fringe, String> {
        let doc = parse(text)?;
        let schema = require_str(&doc, "schema")?;
        if schema != FRINGE_SCHEMA {
            return Err(format!("schema is {schema:?}, expected {FRINGE_SCHEMA:?}"));
        }
        let messages = require_usize(&doc, "messages")?;
        let mut violations = Vec::new();
        for (i, v) in require_arr(&doc, "violations")?.iter().enumerate() {
            let kind_label = require_str(v, "kind")?;
            let detail = v.get("detail").and_then(Json::as_str).unwrap_or_default();
            let kind = match kind_label {
                "not-linearizable" => ViolationKind::NotLinearizable,
                "incomplete-history" => ViolationKind::IncompleteHistory,
                "invariant" => ViolationKind::Invariant {
                    name: v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("violations[{i}] invariant needs a name"))?
                        .to_owned(),
                    detail: detail.to_owned(),
                },
                "send-order-divergence" => ViolationKind::SendOrderDivergence {
                    detail: detail.to_owned(),
                },
                "same-instant-event" => ViolationKind::SameInstantEvent {
                    detail: detail.to_owned(),
                },
                other => return Err(format!("violations[{i}] has unknown kind {other:?}")),
            };
            violations.push(McViolation {
                clock_idx: require_usize(v, "clock_idx")?,
                delay_digits: require_digits(v, "delay_digits")?,
                choices: require_digits(v, "choices")?,
                kind,
            });
        }
        let mut pending = Vec::new();
        for (i, u) in require_arr(&doc, "pending")?.iter().enumerate() {
            let unit = Unit {
                clock_idx: require_usize(u, "clock_idx")?,
                digits: require_digits(u, "digits")?,
                plan: require_digits(u, "plan")?,
                lock_depth: require_usize(u, "lock_depth")?,
            };
            if unit.digits.len() != messages {
                return Err(format!(
                    "pending[{i}] has {} delay digits for {messages} messages",
                    unit.digits.len()
                ));
            }
            if let Some(prev) = pending.last() {
                if *prev >= unit {
                    return Err(format!("pending[{i}] breaks the canonical unit order"));
                }
            }
            pending.push(unit);
        }
        let cursor = match require(&doc, "cursor")? {
            Json::Null => None,
            c => {
                let digits = require_digits(c, "digits")?;
                if digits.len() != messages {
                    return Err(format!(
                        "cursor has {} delay digits for {messages} messages",
                        digits.len()
                    ));
                }
                Some((require_usize(c, "clock_idx")?, digits))
            }
        };
        Ok(Fringe {
            messages,
            cells: require_u64(&doc, "cells")?,
            schedules: require_u64(&doc, "schedules")?,
            pruned: require_u64(&doc, "pruned")?,
            off_space: require_u64(&doc, "off_space")?,
            unknown: require_u64(&doc, "unknown")?,
            explored_states: require_u64(&doc, "explored_states")?,
            violations,
            pending,
            cursor,
        })
    }

    /// Checks that this fringe matches the exploration it is about to
    /// resume: same per-run message count, digits within the configured
    /// delay choices, clock indices within range.
    fn validate_for<S: SequentialSpec>(
        &self,
        config: &McConfig<S>,
        messages: usize,
    ) -> Result<(), String> {
        if self.messages != messages {
            return Err(format!(
                "fringe was serialized for {} messages per run, this scenario has {messages}",
                self.messages
            ));
        }
        let base = config.delay_choices.len();
        let clocks = config.clock_choices.len();
        let check_cell = |clock_idx: usize, digits: &[usize]| -> Result<(), String> {
            if clock_idx >= clocks {
                return Err(format!(
                    "fringe names clock index {clock_idx}, config has {clocks} clock choices"
                ));
            }
            if let Some(&d) = digits.iter().find(|&&d| d >= base) {
                return Err(format!(
                    "fringe names delay digit {d}, config has {base} delay choices"
                ));
            }
            Ok(())
        };
        for u in &self.pending {
            check_cell(u.clock_idx, &u.digits)?;
        }
        for v in &self.violations {
            check_cell(v.clock_idx, &v.delay_digits)?;
        }
        if let Some((clock_idx, digits)) = &self.cursor {
            check_cell(*clock_idx, digits)?;
        }
        Ok(())
    }
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    require(doc, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let n = require(doc, key)?
        .as_num()
        .ok_or_else(|| format!("field {key:?} must be a number"))?;
    u64::try_from(n).map_err(|_| format!("field {key:?} must be non-negative, got {n}"))
}

fn require_usize(doc: &Json, key: &str) -> Result<usize, String> {
    let n = require_u64(doc, key)?;
    usize::try_from(n).map_err(|_| format!("field {key:?} does not fit usize: {n}"))
}

fn require_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    require(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

fn require_digits(doc: &Json, key: &str) -> Result<Vec<usize>, String> {
    require_arr(doc, key)?
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let n = d
                .as_num()
                .ok_or_else(|| format!("{key}[{i}] must be a number"))?;
            usize::try_from(n).map_err(|_| format!("{key}[{i}] must be non-negative, got {n}"))
        })
        .collect()
}

/// [`model_check`](crate::model_check) with an optional resume point and
/// the leftover fringe in the result. `config.max_schedules` is the
/// *cumulative* budget including the schedules a resumed fringe already
/// executed, so `resume`-ing with the same config continues toward the
/// same cut an uninterrupted run would hit. The second component is
/// `Some` exactly when the report is `capped`.
///
/// # Panics
///
/// Panics if `config` has no delay or clock choices, or if `resume` does
/// not match the scenario (different message count, digits or clock
/// indices outside the configured choices).
pub fn model_check_resumable<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    resume: Option<&Fringe>,
) -> (McReport, Option<Fringe>)
where
    A: ModelActor,
    A::Spec: Sync,
    <A::Spec as SequentialSpec>::State: Sync,
    <A::Spec as SequentialSpec>::Op: Send + Sync,
    <A::Spec as SequentialSpec>::Resp: Send + Sync,
    F: Fn() -> Vec<A> + Sync,
{
    let started = Instant::now();
    let messages = match preflight(make_actors, params, script, config) {
        Ok(messages) => messages,
        Err(report) => return (*report, None),
    };
    if let Some(fringe) = resume {
        if let Err(why) = fringe.validate_for(config, messages) {
            panic!("cannot resume from fringe: {why}");
        }
    }

    let base = config.delay_choices.len();
    let clock_count = config.clock_choices.len();
    let workers = config.workers.unwrap_or_else(par::available_workers).max(1);
    let budget = config.max_schedules;
    let table: TranspositionTable<A::Spec> = TranspositionTable::new();

    let mut pending = BTreeMap::new();
    let cursor = match resume {
        None => CellCursor::new(base, messages, clock_count),
        Some(fringe) => {
            for unit in &fringe.pending {
                pending.insert(unit.clone(), ());
            }
            match &fringe.cursor {
                Some((clock_idx, digits)) => {
                    CellCursor::resume(*clock_idx, digits.clone(), base, clock_count)
                }
                // Generator was exhausted at serialization time: park the
                // cursor past the last clock.
                None => CellCursor::resume(clock_count, vec![0; messages], base, clock_count),
            }
        }
    };
    let already_done = resume.map_or(0, |f| f.schedules);
    let initial_position = cursor.position();

    let frontier = Mutex::new(FrontierState {
        pending,
        cursor: cursor.clone(),
    });
    let results: Mutex<Vec<(Unit, UnitOutcome)>> = Mutex::new(Vec::new());
    let schedules_done = AtomicU64::new(already_done);
    let min_violating: Mutex<Option<Unit>> = Mutex::new(None);
    let first_panic: Mutex<Option<(Unit, String)>> = Mutex::new(None);

    let worker_loop = || {
        loop {
            let done = schedules_done.load(Ordering::Relaxed);
            if done >= budget {
                return;
            }
            let unit = {
                let mut frontier = frontier.lock().expect("frontier poisoned");
                // Units past the least stopping coordinate are dead
                // weight: the merge walk will discard them.
                let min = min_violating.lock().expect("min poisoned");
                if let Some(min) = min.as_ref() {
                    let ahead_of_min = frontier
                        .pending
                        .first_key_value()
                        .is_some_and(|(u, ())| u < min);
                    if !ahead_of_min {
                        return;
                    }
                }
                frontier.claim()
            };
            let Some(unit) = unit else { return };
            let unit_budget = budget.saturating_sub(done);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                explore_unit(
                    spec,
                    make_actors,
                    params,
                    script,
                    config,
                    unit.clock_idx,
                    &unit.digits,
                    &unit.plan,
                    unit.lock_depth,
                    unit_budget,
                    Some(&table),
                    true,
                )
            }));
            match outcome {
                Ok(outcome) => {
                    schedules_done.fetch_add(outcome.schedules, Ordering::Relaxed);
                    if !outcome.spawned.is_empty() {
                        let mut frontier = frontier.lock().expect("frontier poisoned");
                        for (plan, lock_depth) in &outcome.spawned {
                            frontier.pending.insert(
                                Unit {
                                    clock_idx: unit.clock_idx,
                                    digits: unit.digits.clone(),
                                    plan: plan.clone(),
                                    lock_depth: *lock_depth,
                                },
                                (),
                            );
                        }
                    }
                    let stops = outcome
                        .violations
                        .iter()
                        .any(|v| config.stop_at_first_violation || v.kind.voids_exploration());
                    if stops {
                        let mut min = min_violating.lock().expect("min poisoned");
                        if min.as_ref().is_none_or(|m| unit < *m) {
                            *min = Some(unit.clone());
                        }
                    }
                    results
                        .lock()
                        .expect("results poisoned")
                        .push((unit, outcome));
                }
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let mut first = first_panic.lock().expect("panic slot poisoned");
                    if first.as_ref().is_none_or(|(u, _)| unit < *u) {
                        *first = Some((unit, message));
                    }
                    return;
                }
            }
        }
    };

    if workers <= 1 {
        worker_loop();
    } else {
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker_loop);
            }
        });
    }

    if let Some((unit, message)) = first_panic.into_inner().expect("panic slot poisoned") {
        panic!(
            "exploration of clock {}, delay digits {:?}, plan {:?} panicked: {message}",
            unit.clock_idx, unit.digits, unit.plan
        );
    }

    // ---- Deterministic merge walk (single-threaded) ----

    let mut map: BTreeMap<Unit, Option<UnitOutcome>> = BTreeMap::new();
    for (unit, outcome) in results.into_inner().expect("results poisoned") {
        map.insert(unit, Some(outcome));
    }
    let leftover = frontier.into_inner().expect("frontier poisoned");
    for (unit, ()) in leftover.pending {
        map.entry(unit).or_insert(None);
    }
    let mut cursor = leftover.cursor;

    let mut report = McReport {
        messages,
        cells: 0,
        schedules: 0,
        pruned: 0,
        off_space: 0,
        unknown: 0,
        capped: false,
        explored_states: 0,
        violations: Vec::new(),
        wall_nanos: 0,
        workers,
        table_entries: 0,
        table_hits: 0,
    };
    if let Some(fringe) = resume {
        report.cells = fringe.cells;
        report.schedules = fringe.schedules;
        report.pruned = fringe.pruned;
        report.off_space = fringe.off_space;
        report.unknown = fringe.unknown;
        report.explored_states = fringe.explored_states;
        report.violations = fringe.violations.clone();
    }
    let mut fringe_pending: Vec<Unit> = Vec::new();
    let mut stopped = false;
    // The cell the canonical walk is currently inside: the last absorbed
    // unit's cell, seeded from a resumed fringe's pending list (whose
    // units all share one cell by construction). Decides which leftover
    // units are canonical pending at the budget cut and where the
    // serialized cursor points.
    let mut current_cell: Option<(usize, Vec<usize>)> = resume
        .and_then(|f| f.pending.first())
        .map(|u| (u.clock_idx, u.digits.clone()));

    loop {
        let (unit, recorded) = if let Some((unit, recorded)) = map.pop_first() {
            (unit, recorded)
        } else if report.capped || stopped {
            // Cells the lazy generator never produced stay unproduced:
            // the cursor position goes to the fringe as-is.
            break;
        } else {
            match cursor.next_cell() {
                Some((clock_idx, digits)) => (
                    Unit {
                        clock_idx,
                        digits,
                        plan: Vec::new(),
                        lock_depth: 0,
                    },
                    None,
                ),
                None => break,
            }
        };
        if stopped {
            // A violation before this coordinate ended the exploration
            // (`stop_at_first_violation`): everything later is discarded,
            // exactly as the sequential `break 'grid` did.
            continue;
        }
        let remaining = budget.saturating_sub(report.schedules);
        if remaining == 0 {
            report.capped = true;
            // Only the partially-absorbed cell's DFS leftovers are
            // canonical pending. Units in later cells are speculative
            // worker progress the canonical walk never reached — they
            // are regenerable from the cursor, so they are dropped (the
            // serialized cursor is rolled back to the successor of
            // `current_cell` below).
            if current_cell
                .as_ref()
                .is_some_and(|(c, d)| *c == unit.clock_idx && *d == unit.digits)
            {
                fringe_pending.push(unit);
            }
            continue;
        }
        let outcome = match recorded {
            Some(o)
                if (o.resume.is_none() && o.schedules <= remaining)
                    || (o.resume.is_some() && o.schedules == remaining) =>
            {
                o
            }
            // No worker reached this unit, or its recorded run does not
            // land on the canonical cut: re-explore inline with the
            // exact remaining budget. The shared table makes the re-run
            // cheap — every verdict is already memoized.
            _ => explore_unit(
                spec,
                make_actors,
                params,
                script,
                config,
                unit.clock_idx,
                &unit.digits,
                &unit.plan,
                unit.lock_depth,
                remaining,
                Some(&table),
                true,
            ),
        };
        current_cell = Some((unit.clock_idx, unit.digits.clone()));
        report.cells += outcome.cells;
        report.schedules += outcome.schedules;
        report.pruned += outcome.pruned;
        report.off_space += outcome.off_space;
        report.unknown += outcome.unknown;
        report.explored_states += outcome.events;
        let violated = !outcome.violations.is_empty();
        if let Some(void) = outcome
            .violations
            .iter()
            .find(|v| v.kind.voids_exploration())
        {
            return (*void_report(messages, void.clone()), None);
        }
        report.violations.extend(outcome.violations);
        for (plan, lock_depth) in outcome.spawned {
            map.entry(Unit {
                clock_idx: unit.clock_idx,
                digits: unit.digits.clone(),
                plan,
                lock_depth,
            })
            .or_insert(None);
        }
        if let Some((plan, lock_depth)) = outcome.resume {
            report.capped = true;
            fringe_pending.push(Unit {
                clock_idx: unit.clock_idx,
                digits: unit.digits.clone(),
                plan,
                lock_depth,
            });
        }
        if config.stop_at_first_violation && violated {
            stopped = true;
        }
    }

    report.wall_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report.table_entries = table.entries();
    report.table_hits = table.hits();

    let fringe = report.capped.then(|| {
        // Canonical cursor: the successor of the cell the walk stopped
        // inside — never the worker-advanced generator position, which
        // depends on thread timing.
        let cursor = match &current_cell {
            Some((clock_idx, digits)) => {
                let mut c = CellCursor::resume(*clock_idx, digits.clone(), base, clock_count);
                c.next_cell();
                c.position()
            }
            None => initial_position,
        };
        Fringe {
            messages,
            cells: report.cells,
            schedules: report.schedules,
            pruned: report.pruned,
            off_space: report.off_space,
            unknown: report.unknown,
            explored_states: report.explored_states,
            violations: report.violations.clone(),
            pending: fringe_pending,
            cursor,
        }
    });
    (report, fringe)
}
