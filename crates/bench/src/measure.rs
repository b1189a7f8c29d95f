//! Latency measurement workloads for the table experiments.
//!
//! For each object of Chapter VI we run closed-loop mixed workloads on
//! Algorithm 1 and on the centralized baseline, across several admissible
//! delay models (maximal, minimal, seeded-random) and clock assignments
//! (perfectly synchronized, maximally skewed within `ε`), and collect the
//! worst observed invocation-to-response latency per operation kind. The
//! engine is exact — zero local processing, delays exactly as assigned —
//! so the measured maxima can be compared against the closed-form bound
//! formulas tick-for-tick.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use skewbound_core::centralized::Centralized;
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lin::{
    check_history_stats, validate_linearization, CheckLimits, CheckOutcome, CheckStats,
};
use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::{DelayBounds, DelayModel, FixedDelay, MsgMeta, UniformDelay};
use skewbound_sim::engine::Simulation;
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par::{run_grid, worker_count};
use skewbound_sim::time::SimDuration;
use skewbound_sim::workload::ClosedLoop;
use skewbound_spec::prelude::*;

/// Worst-case latency observed per operation label.
pub type MaxLatencies = BTreeMap<&'static str, SimDuration>;

/// Aggregate execution statistics for one measurement grid, split by
/// pipeline stage: simulating runs vs. linearizability-checking the
/// histories they produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridStats {
    /// Number of simulation runs in the grid.
    pub runs: u64,
    /// Total engine events processed across all runs.
    pub events: u64,
    /// Summed per-run simulation wall-clock time, in nanoseconds. With
    /// the parallel runner this exceeds elapsed time — it is the total
    /// CPU-side work of the sim stage.
    pub sim_wall_nanos: u64,
    /// Summed wall-clock time spent checking run histories for
    /// linearizability, in nanoseconds.
    pub check_wall_nanos: u64,
    /// Total DFS nodes the checker explored across all runs.
    pub check_nodes: u64,
    /// Total `(taken-set, state)` memo hits across all runs.
    pub check_memo_hits: u64,
    /// Deepest DFS frontier any run's check reached.
    pub check_max_frontier: u64,
    /// Worker threads the grid was fanned out over.
    pub workers: usize,
    /// Peak resident set size of the bench process in bytes, sampled
    /// after the grid finished (`0` when the platform cannot report
    /// it). A whole-process high-water mark — comparable across PRs as
    /// long as the bench binary runs the same workload set.
    pub peak_rss_bytes: u64,
}

impl GridStats {
    /// Engine events per second of summed sim-stage wall-clock time.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        Self::rate(self.events, self.sim_wall_nanos)
    }

    /// Checker DFS nodes per second of summed check-stage wall-clock
    /// time.
    #[must_use]
    pub fn check_nodes_per_sec(&self) -> f64 {
        Self::rate(self.check_nodes, self.check_wall_nanos)
    }

    fn rate(count: u64, nanos: u64) -> f64 {
        if nanos == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = count as f64 / nanos as f64 * 1e9;
        rate
    }

    /// Folds another grid's statistics into this one.
    pub fn absorb(&mut self, other: GridStats) {
        self.runs += other.runs;
        self.events += other.events;
        self.sim_wall_nanos += other.sim_wall_nanos;
        self.check_wall_nanos += other.check_wall_nanos;
        self.check_nodes += other.check_nodes;
        self.check_memo_hits += other.check_memo_hits;
        self.check_max_frontier = self.check_max_frontier.max(other.check_max_frontier);
        self.workers = self.workers.max(other.workers);
        self.peak_rss_bytes = self.peak_rss_bytes.max(other.peak_rss_bytes);
    }
}

/// The path named by the `SKEWBOUND_TRACE` environment variable, if
/// set: where the grid runner should write its aggregated per-stage
/// counters as JSON lines.
#[must_use]
pub fn trace_counters_path() -> Option<std::path::PathBuf> {
    std::env::var_os("SKEWBOUND_TRACE").map(std::path::PathBuf::from)
}

/// Writes the grid's aggregated per-stage counters to `path` as
/// JSON-lines `counter` records — the same line shape the
/// `skewbound-mc` trace sink emits (`{"kind":"counter","name":…,
/// "stage":…,"value":…}`, keys sorted), so one reader handles both
/// artifacts. `bench` deliberately does not depend on `skewbound-mc`,
/// hence the hand-rendered lines (mirroring `BENCH_grid.json`).
pub fn write_trace_counters(stats: &GridStats, path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::new();
    let mut line = |stage: &str, name: &str, value: u64| {
        out.push_str(&format!(
            "{{\"kind\":\"counter\",\"name\":\"{name}\",\"stage\":\"{stage}\",\"value\":{value}}}\n"
        ));
    };
    line("engine", "runs", stats.runs);
    line("engine", "events", stats.events);
    line("engine", "sim_wall_nanos", stats.sim_wall_nanos);
    line("check", "nodes", stats.check_nodes);
    line("check", "memo_hits", stats.check_memo_hits);
    line("check", "max_frontier_depth", stats.check_max_frontier);
    line("check", "check_wall_nanos", stats.check_wall_nanos);
    std::fs::write(path, out)
}

fn clock_assignments(params: &Params) -> Vec<ClockAssignment> {
    vec![
        ClockAssignment::zero(params.n()),
        ClockAssignment::spread(params.n(), params.eps()),
    ]
}

/// Which delay model a grid point runs under. A plain descriptor so grid
/// points stay `Sync` and each worker builds its own model.
#[derive(Debug, Clone, Copy)]
enum DelaySpec {
    Maximal,
    Minimal,
    Seeded(u64),
}

impl DelaySpec {
    fn build(self, bounds: DelayBounds) -> GridDelay {
        match self {
            DelaySpec::Maximal => GridDelay::Fixed(FixedDelay::maximal(bounds)),
            DelaySpec::Minimal => GridDelay::Fixed(FixedDelay::minimal(bounds)),
            DelaySpec::Seeded(seed) => GridDelay::Uniform(UniformDelay::new(bounds, seed)),
        }
    }
}

enum GridDelay {
    Fixed(FixedDelay),
    Uniform(UniformDelay),
}

impl DelayModel for GridDelay {
    fn delay(&mut self, meta: MsgMeta) -> SimDuration {
        match self {
            GridDelay::Fixed(m) => m.delay(meta),
            GridDelay::Uniform(m) => m.delay(meta),
        }
    }

    fn bounds(&self) -> DelayBounds {
        match self {
            GridDelay::Fixed(m) => m.bounds(),
            GridDelay::Uniform(m) => m.bounds(),
        }
    }
}

/// One point of a measurement grid: clocks × delay model × workload seed.
struct GridPoint {
    clocks: ClockAssignment,
    delays: DelaySpec,
    run_seed: u64,
}

/// The full grid: every delay spec under every clock assignment, with
/// workload seeds numbered `1..` in the same order the sequential loops
/// used.
fn grid_points(params: &Params, delay_specs: &[DelaySpec]) -> Vec<GridPoint> {
    let mut run_seed = 1u64;
    let mut points = Vec::with_capacity(2 * delay_specs.len());
    for clocks in clock_assignments(params) {
        for &delays in delay_specs {
            points.push(GridPoint {
                clocks: clocks.clone(),
                delays,
                run_seed,
            });
            run_seed += 1;
        }
    }
    points
}

/// Outcome of checking one run's history: the checker's search counters
/// and the wall-clock time the check took.
#[derive(Debug, Clone, Copy)]
struct CheckSample {
    stats: CheckStats,
    wall_nanos: u64,
}

/// Checks one run's history against the spec and returns the search
/// counters. Histories beyond the checker's 128-op bitmask are skipped
/// (reported as zero) rather than split, keeping the measurement
/// unbiased.
///
/// # Panics
///
/// Panics if the run produced a non-linearizable history: every grid
/// point simulates a correct implementation, so a violation here is an
/// engine or implementation bug, not a measurement result.
fn check_linearizable<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> CheckStats {
    if history.len() > 128 {
        return CheckStats::default();
    }
    let (outcome, stats) = check_history_stats(spec, history, CheckLimits::default());
    match outcome {
        CheckOutcome::Linearizable(lin) => {
            debug_assert!(
                validate_linearization(spec, history, &lin),
                "checker returned an invalid witness"
            );
        }
        CheckOutcome::Unknown { .. } => {}
        CheckOutcome::NotLinearizable(v) => panic!(
            "measurement run produced a non-linearizable history \
             ({} ops, longest legal prefix {})",
            v.total_ops,
            v.longest_prefix.len()
        ),
    }
    stats
}

/// Runs one closed-loop workload and returns each completed operation's
/// worst latency per label, plus the engine report and the (timed)
/// linearizability check of the run's history.
#[allow(clippy::too_many_arguments)]
fn run_point<A, D, G, L, C>(
    actors: Vec<A>,
    clocks: ClockAssignment,
    delays: D,
    ops_per_process: usize,
    seed: u64,
    gen: G,
    label: L,
    check: &C,
) -> (MaxLatencies, skewbound_sim::engine::SimReport, CheckSample)
where
    A: Actor,
    A::Op: Clone,
    D: DelayModel,
    G: FnMut(ProcessId, usize, &mut StdRng) -> A::Op,
    L: Fn(&A::Op) -> &'static str,
    C: Fn(&History<A::Op, A::Resp>) -> CheckStats,
{
    let n = clocks.len();
    let mut driver = ClosedLoop::new(ProcessId::all(n).collect(), ops_per_process, seed, gen);
    let mut sim = Simulation::new(actors, clocks, delays);
    let report = sim.run_with(&mut driver).expect("measurement run failed");
    assert!(sim.history().is_complete(), "incomplete measurement run");
    let check_start = std::time::Instant::now();
    let stats = check(sim.history());
    let check_wall = u64::try_from(check_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut acc = MaxLatencies::new();
    for rec in sim.history().records() {
        let lat = rec.latency().expect("complete");
        let entry = acc.entry(label(&rec.op)).or_insert(SimDuration::ZERO);
        *entry = (*entry).max(lat);
    }
    (
        acc,
        report,
        CheckSample {
            stats,
            wall_nanos: check_wall,
        },
    )
}

/// Fans a grid out over the [`skewbound_sim::par`] worker pool and merges
/// the per-point results in grid order. Merging maxima is
/// order-insensitive, so the merged latencies are identical to the
/// sequential loops' regardless of worker count.
fn measure_grid<A, F, G, L, C>(
    points: &[GridPoint],
    make_actors: F,
    bounds: DelayBounds,
    ops_per_process: usize,
    gen: &G,
    label: L,
    check: &C,
) -> (MaxLatencies, GridStats)
where
    A: Actor,
    A::Op: Clone,
    F: Fn() -> Vec<A> + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> A::Op + Clone + Sync,
    L: Fn(&A::Op) -> &'static str + Copy + Sync,
    C: Fn(&History<A::Op, A::Resp>) -> CheckStats + Sync,
{
    let results = run_grid(points, |_, point| {
        run_point(
            make_actors(),
            point.clocks.clone(),
            point.delays.build(bounds),
            ops_per_process,
            point.run_seed,
            gen.clone(),
            label,
            check,
        )
    });
    let mut acc = MaxLatencies::new();
    let mut stats = GridStats {
        workers: worker_count(points.len()),
        ..GridStats::default()
    };
    for (latencies, report, check_sample) in results {
        for (op, lat) in latencies {
            let entry = acc.entry(op).or_insert(SimDuration::ZERO);
            *entry = (*entry).max(lat);
        }
        stats.runs += 1;
        stats.events += report.events;
        stats.sim_wall_nanos += report.wall_nanos;
        stats.check_nodes += check_sample.stats.nodes;
        stats.check_memo_hits += check_sample.stats.memo_hits;
        stats.check_max_frontier = stats
            .check_max_frontier
            .max(check_sample.stats.max_frontier_depth);
        stats.check_wall_nanos += check_sample.wall_nanos;
    }
    stats.peak_rss_bytes = skewbound_sim::stats::peak_rss_bytes();
    (acc, stats)
}

/// Replica grid delay specs: `{fixed-maximal, fixed-minimal, three random
/// seeds}`.
const REPLICA_DELAYS: [DelaySpec; 5] = [
    DelaySpec::Maximal,
    DelaySpec::Minimal,
    DelaySpec::Seeded(11),
    DelaySpec::Seeded(22),
    DelaySpec::Seeded(33),
];

/// Centralized grid delay specs: `{fixed-maximal, two random seeds}`.
const CENTRALIZED_DELAYS: [DelaySpec; 3] = [
    DelaySpec::Maximal,
    DelaySpec::Seeded(11),
    DelaySpec::Seeded(22),
];

/// Measures Algorithm 1 across the standard delay/clock grid:
/// {fixed-maximal, fixed-minimal, three random seeds} × {zero skew,
/// maximal skew}.
pub fn measure_replica_grid<S, G, L>(
    spec: S,
    params: &Params,
    ops_per_process: usize,
    gen: G,
    label: L,
) -> MaxLatencies
where
    S: SequentialSpec + Send + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> S::Op + Clone + Sync,
    L: Fn(&S::Op) -> &'static str + Copy + Sync,
{
    measure_replica_grid_stats(spec, params, ops_per_process, gen, label).0
}

/// [`measure_replica_grid`], also returning the grid's execution
/// statistics.
pub fn measure_replica_grid_stats<S, G, L>(
    spec: S,
    params: &Params,
    ops_per_process: usize,
    gen: G,
    label: L,
) -> (MaxLatencies, GridStats)
where
    S: SequentialSpec + Send + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> S::Op + Clone + Sync,
    L: Fn(&S::Op) -> &'static str + Copy + Sync,
{
    let bounds = params.delay_bounds();
    let spec = Arc::new(spec);
    let points = grid_points(params, &REPLICA_DELAYS);
    let check_spec = Arc::clone(&spec);
    measure_grid(
        &points,
        || Replica::group_shared(&spec, params),
        bounds,
        ops_per_process,
        &gen,
        label,
        &move |history| check_linearizable(check_spec.as_ref(), history),
    )
}

/// Measures the centralized baseline across the same grid.
pub fn measure_centralized_grid<S, G, L>(
    spec: S,
    params: &Params,
    ops_per_process: usize,
    gen: G,
    label: L,
) -> MaxLatencies
where
    S: SequentialSpec + Send + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> S::Op + Clone + Sync,
    L: Fn(&S::Op) -> &'static str + Copy + Sync,
{
    measure_centralized_grid_stats(spec, params, ops_per_process, gen, label).0
}

/// [`measure_centralized_grid`], also returning the grid's execution
/// statistics.
pub fn measure_centralized_grid_stats<S, G, L>(
    spec: S,
    params: &Params,
    ops_per_process: usize,
    gen: G,
    label: L,
) -> (MaxLatencies, GridStats)
where
    S: SequentialSpec + Send + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> S::Op + Clone + Sync,
    L: Fn(&S::Op) -> &'static str + Copy + Sync,
{
    let bounds = params.delay_bounds();
    let n = params.n();
    let spec = Arc::new(spec);
    let points = grid_points(params, &CENTRALIZED_DELAYS);
    let check_spec = Arc::clone(&spec);
    measure_grid(
        &points,
        || Centralized::group_shared(&spec, n),
        bounds,
        ops_per_process,
        &gen,
        label,
        &move |history| check_linearizable(check_spec.as_ref(), history),
    )
}

/// Result of one large-n scale run: the process count, the writers that
/// drove it and the engine's report (with peak RSS captured).
#[derive(Debug, Clone, Copy)]
pub struct ScaleStats {
    /// Replica processes simulated in the single run.
    pub processes: usize,
    /// Processes that issued one write each at `t = 0`.
    pub writers: usize,
    /// The engine report, peak RSS included.
    pub report: skewbound_sim::engine::SimReport,
}

/// Runs one Algorithm-1 register workload at `processes` replicas in a
/// single simulation — the 10⁵-node scale point the columnar engine
/// core exists for. `writers` processes each invoke one write at
/// `t = 0`; every write broadcasts to all `n − 1` peers and every
/// receiver arms an execute timer, so the run processes roughly
/// `2·writers·n` events without any re-broadcast amplification.
///
/// # Panics
///
/// Panics if the run fails or completes with pending operations.
#[must_use]
pub fn scale_run(processes: usize, writers: usize) -> ScaleStats {
    let params = Params::with_optimal_skew(
        processes,
        SimDuration::from_ticks(10_000),
        SimDuration::from_ticks(2_000),
        SimDuration::ZERO,
    )
    .expect("valid scale parameters");
    let spec = Arc::new(RmwRegister::default());
    let mut sim = Simulation::new(
        Replica::group_shared(&spec, &params),
        ClockAssignment::zero(processes),
        FixedDelay::maximal(params.delay_bounds()),
    );
    sim.reserve_ops(writers);
    for w in 0..writers {
        let pid = ProcessId::new(u32::try_from(w).expect("writer index fits u32"));
        sim.schedule_invoke(
            pid,
            skewbound_sim::time::SimTime::ZERO,
            RmwOp::Write(w as i64),
        );
    }
    let report = sim.run().expect("scale run failed").with_peak_rss();
    assert!(sim.history().is_complete(), "scale run left pending ops");
    ScaleStats {
        processes,
        writers,
        report,
    }
}

// ---------------------------------------------------------------------
// Per-object workloads (generators + labelers).
// ---------------------------------------------------------------------

/// Register workload: mixed read/write/RMW.
#[must_use]
pub fn register_gen(_pid: ProcessId, idx: usize, _rng: &mut StdRng) -> RmwOp {
    match idx % 4 {
        0 => RmwOp::Write(idx as i64),
        1 => RmwOp::Read,
        2 => RmwOp::Rmw(RmwKind::FetchAdd(1)),
        _ => RmwOp::Read,
    }
}

/// Labels register ops for the table rows.
#[must_use]
pub fn register_label(op: &RmwOp) -> &'static str {
    match op {
        RmwOp::Read => "read",
        RmwOp::Write(_) => "write",
        RmwOp::Rmw(_) => "read-modify-write",
    }
}

/// Queue workload: mixed enqueue/dequeue/peek.
#[must_use]
pub fn queue_gen(pid: ProcessId, idx: usize, _rng: &mut StdRng) -> QueueOp {
    match idx % 4 {
        0 | 1 => QueueOp::Enqueue((pid.index() * 1000 + idx) as i64),
        2 => QueueOp::Dequeue,
        _ => QueueOp::Peek,
    }
}

/// Labels queue ops for the table rows.
#[must_use]
pub fn queue_label(op: &QueueOp) -> &'static str {
    match op {
        QueueOp::Enqueue(_) => "enqueue",
        QueueOp::Dequeue => "dequeue",
        QueueOp::Peek => "peek",
        QueueOp::Len => "len",
    }
}

/// Stack workload: mixed push/pop/peek.
#[must_use]
pub fn stack_gen(pid: ProcessId, idx: usize, _rng: &mut StdRng) -> StackOp {
    match idx % 4 {
        0 | 1 => StackOp::Push((pid.index() * 1000 + idx) as i64),
        2 => StackOp::Pop,
        _ => StackOp::Peek,
    }
}

/// Labels stack ops for the table rows.
#[must_use]
pub fn stack_label(op: &StackOp) -> &'static str {
    match op {
        StackOp::Push(_) => "push",
        StackOp::Pop => "pop",
        StackOp::Peek => "peek",
        StackOp::Len => "len",
    }
}

/// Tree workload: inserts under random existing-ish parents, deletes,
/// searches and depth queries.
#[must_use]
pub fn tree_gen(pid: ProcessId, idx: usize, _rng: &mut StdRng) -> TreeOp {
    let node = (pid.index() as u32) * 1_000 + idx as u32 + 1;
    match idx % 5 {
        0 => TreeOp::Insert { node, parent: 0 },
        1 => TreeOp::Insert {
            node,
            parent: node.saturating_sub(1),
        },
        2 => TreeOp::Delete {
            node: node.saturating_sub(2),
        },
        3 => TreeOp::Search { node: node / 2 },
        _ => TreeOp::Depth,
    }
}

/// Labels tree ops for the table rows.
#[must_use]
pub fn tree_label(op: &TreeOp) -> &'static str {
    match op {
        TreeOp::Insert { .. } => "insert",
        TreeOp::Delete { .. } => "delete",
        TreeOp::Search { .. } => "search",
        TreeOp::Depth => "depth",
    }
}

/// One point of the shard-count scaling curve: a full sharded-namespace
/// run at `shards` shards, gated per shard by the locality
/// linearizability check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardScalePoint {
    /// Shard count of this point.
    pub shards: usize,
    /// Total engine events across all shards.
    pub events: u64,
    /// Aggregate throughput: `Σ eventsᵢ / wallᵢ` (see
    /// [`ShardStats`](skewbound_sim::shard::ShardStats)).
    pub agg_events_per_sec: f64,
    /// The slowest shard's wall time, in nanoseconds.
    pub max_wall_nanos: u64,
    /// Distinct object keys the per-shard gates checked.
    pub checked_keys: usize,
}

/// The fixed total work of the shard-scaling grid, chosen to divide
/// evenly over `shards × 3` process slots for every `shards ∈
/// {1, 2, 3, 4, 6, 8, 12, 16, 24}`, and large enough that each shard's
/// wall time is well clear of timer resolution.
pub const SHARD_SCALE_TOTAL_BATCHES: usize = 5760;

/// Runs the shard-count scaling grid: one sharded-namespace run per
/// entry of `shard_counts`, at **fixed total work**
/// ([`SHARD_SCALE_TOTAL_BATCHES`] batches of 8 keyed register ops over a
/// 4096-key universe, 3 replica processes per shard), so points are
/// comparable across shard counts.
///
/// Every shard's history must pass the per-shard linearizability gate —
/// flatten the batches, split per key, check each key against the plain
/// register spec — before its measurement is reported.
///
/// # Panics
///
/// Panics if any shard's history fails its gate, naming the shard and
/// the violating keys.
#[must_use]
pub fn shard_scaling(shard_counts: &[usize]) -> Vec<ShardScalePoint> {
    shard_counts
        .iter()
        .map(|&shards| shard_scale_point(shards))
        .collect()
}

fn shard_scale_point(shards: usize) -> ShardScalePoint {
    let workload = skewbound_core::shard::ShardWorkload::with_total_batches(
        shards,
        3,
        4096,
        SHARD_SCALE_TOTAL_BATCHES,
        8,
        0x5EED_CAFE,
    );
    let outcomes = skewbound_core::shard::run_sharded(&workload);
    let mut checked_keys = 0;
    for out in &outcomes {
        let flat = skewbound_lin::flatten_batches(&out.history);
        let gate = skewbound_lin::check_namespace(&RmwRegister::default(), &flat);
        assert!(
            gate.is_linearizable(),
            "shard {} of {shards} failed its linearizability gate: keys {:?}",
            out.shard,
            gate.violating_keys()
        );
        checked_keys += gate.per_key.len();
    }
    let runs: Vec<_> = outcomes.iter().map(|o| o.run).collect();
    let stats = skewbound_sim::shard::ShardStats::from_runs(&runs);
    ShardScalePoint {
        shards,
        events: stats.events,
        agg_events_per_sec: stats.aggregate_events_per_sec,
        max_wall_nanos: stats.max_wall_nanos,
        checked_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_core::bounds;

    fn params() -> Params {
        Params::with_optimal_skew(
            4,
            SimDuration::from_ticks(10_000),
            SimDuration::from_ticks(2_000),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn register_measured_matches_formulas() {
        let p = params();
        let measured =
            measure_replica_grid(RmwRegister::default(), &p, 6, register_gen, register_label);
        assert_eq!(measured["write"], bounds::ub_mop(&p), "write = eps + X");
        assert_eq!(measured["read"], bounds::ub_aop(&p), "read = d + eps - X");
        assert!(measured["read-modify-write"] <= bounds::ub_oop(&p));
    }

    #[test]
    fn centralized_measured_is_2d_shaped() {
        let p = params();
        let measured =
            measure_centralized_grid(RmwRegister::default(), &p, 6, register_gen, register_label);
        let two_d = bounds::ub_centralized(&p);
        for (op, &lat) in &measured {
            assert!(lat <= two_d, "{op} exceeded 2d");
        }
        // Under maximal fixed delays some remote op hits exactly 2d.
        assert!(measured.values().any(|&l| l == two_d));
    }

    #[test]
    fn grid_stats_split_both_stages_populated() {
        let p = params();
        let (_, stats) =
            measure_replica_grid_stats(RmwRegister::default(), &p, 4, register_gen, register_label);
        assert!(stats.runs > 0);
        assert!(stats.events > 0);
        assert!(stats.sim_wall_nanos > 0, "sim stage must be timed");
        assert!(stats.check_wall_nanos > 0, "check stage must be timed");
        // Every run's 16-op history explores at least one DFS node per
        // linearized operation.
        assert!(stats.check_nodes >= stats.runs * 16);
        // The DFS must at some point hold a full 16-op linearization.
        assert_eq!(stats.check_max_frontier, 16);
        assert!(stats.events_per_sec() > 0.0);
        assert!(stats.check_nodes_per_sec() > 0.0);
        #[cfg(target_os = "linux")]
        assert!(stats.peak_rss_bytes > 0, "peak RSS must be sampled");
    }

    #[test]
    fn scale_run_is_complete_and_counts_events() {
        let s = scale_run(64, 4);
        assert_eq!(s.processes, 64);
        // Each write broadcasts to n − 1 peers; every event is at least
        // the invoke plus the deliveries.
        assert!(s.report.events >= 4 * 64);
        #[cfg(target_os = "linux")]
        assert!(s.report.peak_rss_bytes > 0);
    }

    #[test]
    fn trace_counters_file_is_json_lines() {
        let stats = GridStats {
            runs: 10,
            events: 5_000,
            sim_wall_nanos: 1_000,
            check_wall_nanos: 2_000,
            check_nodes: 160,
            check_memo_hits: 12,
            check_max_frontier: 16,
            workers: 4,
            peak_rss_bytes: 1 << 20,
        };
        let path = std::env::temp_dir().join("skewbound_trace_counters_test.jsonl");
        write_trace_counters(&stats, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 7);
        for line in text.lines() {
            assert!(line.starts_with("{\"kind\":\"counter\","), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"name\":\"memo_hits\",\"stage\":\"check\",\"value\":12"));
        assert!(text.contains("\"name\":\"events\",\"stage\":\"engine\",\"value\":5000"));
    }

    #[test]
    fn queue_measured_within_bounds() {
        let p = params();
        let measured = measure_replica_grid(Queue::<i64>::new(), &p, 6, queue_gen, queue_label);
        assert_eq!(measured["enqueue"], bounds::ub_mop(&p));
        assert!(measured["dequeue"] <= bounds::ub_oop(&p));
        assert_eq!(measured["peek"], bounds::ub_aop(&p));
    }
}
