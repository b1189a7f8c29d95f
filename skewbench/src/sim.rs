//! `sim-shard`: the virtual-time sharded namespace, run flat out over
//! the `sim::par` worker pool and gated shard by shard.
//!
//! Each round runs every shard of [`SHAPE`] as one pool job: build the
//! replica group, run it to quiescence on its own engine, then check
//! every key's history. Batched shards run [`NsReplica`] with
//! class-pure AOP/MOP batches; every fourth shard runs the generic
//! [`Replica`] with single OOP ops, because the batched replica has no
//! OOP path. Rounds repeat the same seeded inputs until the run's time
//! is up; only complete rounds count. Throughput is per CPU-second (see
//! [`cpu_secs`]).

use std::time::Instant;

use skewbound_core::nsreplica::NsReplica;
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_core::shard::shard_params;
use skewbound_lin::checker::{check_history_stats, CheckLimits};
use skewbound_lin::multi::{check_namespace, flatten_batches, split_history};
use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::FixedDelay;
use skewbound_sim::engine::Simulation;
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par::worker_count;
use skewbound_sim::shard::run_shards;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_sim::workload::Driver;
use skewbound_spec::namespace::{Namespace, NsOp};
use skewbound_spec::register::{RmwOp, RmwRegister, RmwResp};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::gen::{ShardScript, ShardShape};
use crate::probe::codec;
use crate::stats::{cpu_secs, median, own_peak_rss_mb};
use crate::{ClassLatency, Outcome, SETUP_REPEATS};

/// One round: 96 shards of 3 processes, 40 invocations per process;
/// 72 batched shards (8-op batches), 24 generic shards.
pub const SHAPE: ShardShape = ShardShape {
    shards: 96,
    generic_every: 4,
    processes: 3,
    invocations: 40,
    batch: 8,
    keys_per_shard: 24,
};

/// In every this-many-th round, every this-many-th invocation of a
/// process is timed, which keeps the sample (and the benchmark's own
/// memory) small.
const SAMPLE_EVERY: usize = 8;

/// A closed-loop driver over a pre-generated per-process script that
/// times sampled invocations in wall-clock terms: from the moment the
/// engine takes the op to the moment it hands back the response.
struct TimedScript<O> {
    ops: Vec<Vec<O>>,
    next: Vec<usize>,
    /// Per process, when a sampled op was invoked.
    invoked: Vec<Option<Instant>>,
    sampled: bool,
    class: fn(&O) -> OpClass,
    latency: ClassLatency,
}

impl<O: Clone> TimedScript<O> {
    fn new(ops: Vec<Vec<O>>, class: fn(&O) -> OpClass, sampled: bool) -> Self {
        let n = ops.len();
        TimedScript {
            ops,
            next: vec![0; n],
            invoked: vec![None; n],
            sampled,
            class,
            latency: ClassLatency::default(),
        }
    }

    fn take(&mut self, pid: ProcessId) -> Option<O> {
        let i = pid.index();
        let op = self.ops[i].get(self.next[i])?.clone();
        self.next[i] += 1;
        if self.sampled && self.next[i].is_multiple_of(SAMPLE_EVERY) {
            self.invoked[i] = Some(Instant::now());
        }
        Some(op)
    }
}

impl<O: Clone, R> Driver<O, R> for TimedScript<O> {
    fn initial(&mut self) -> Vec<(ProcessId, SimTime, O)> {
        (0..self.ops.len())
            .filter_map(|i| {
                let pid = ProcessId::new(i as u32);
                self.take(pid).map(|op| (pid, SimTime::ZERO, op))
            })
            .collect()
    }

    fn next(&mut self, pid: ProcessId, op: &O, _: &R, _: SimTime) -> Option<(SimDuration, O)> {
        if let Some(invoked) = self.invoked[pid.index()].take() {
            let ms = invoked.elapsed().as_secs_f64() * 1e3;
            self.latency.push((self.class)(op), ms);
        }
        self.take(pid).map(|op| (SimDuration::ZERO, op))
    }
}

fn class_of(op: &NsOp<RmwOp>) -> OpClass {
    RmwRegister::default().class(&op.op)
}

/// A shard ready to run: its engine and its driver.
enum Built {
    Batched(
        Simulation<NsReplica<RmwRegister>, FixedDelay>,
        TimedScript<Vec<NsOp<RmwOp>>>,
    ),
    Generic(
        Simulation<Replica<Namespace<RmwRegister>>, FixedDelay>,
        TimedScript<NsOp<RmwOp>>,
    ),
}

fn engine<A: Actor>(actors: Vec<A>, params: &Params) -> Simulation<A, FixedDelay> {
    Simulation::new(
        actors,
        ClockAssignment::zero(params.n()),
        FixedDelay::maximal(params.delay_bounds()),
    )
}

fn build(script: &ShardScript, params: &Params, sampled: bool) -> Built {
    match script {
        ShardScript::Batched(ops) => Built::Batched(
            engine(
                NsReplica::group(RmwRegister::default(), params, true),
                params,
            ),
            TimedScript::new(ops.clone(), |b| class_of(&b[0]), sampled),
        ),
        ShardScript::Generic(ops) => Built::Generic(
            engine(
                Replica::group(Namespace::new(RmwRegister::default()), params),
                params,
            ),
            TimedScript::new(ops.clone(), class_of, sampled),
        ),
    }
}

/// What one shard job did.
#[derive(Default)]
struct Job {
    ops: u64,
    failed: u64,
    events: u64,
    run_nanos: u64,
    check_nanos: u64,
    nodes: u64,
    memo_hits: u64,
    latency: ClassLatency,
}

/// Runs a built shard, then gates every key of its history.
fn run_job(built: Built, traced: bool) -> Job {
    let start = Instant::now();
    let (events, history, latency) = match built {
        Built::Batched(mut sim, mut driver) => {
            let report = sim
                .run_with(&mut driver)
                .expect("shard run hit the event cap");
            (
                report.events,
                flatten_batches(&sim.into_history()),
                driver.latency,
            )
        }
        Built::Generic(mut sim, mut driver) => {
            let report = sim
                .run_with(&mut driver)
                .expect("shard run hit the event cap");
            (report.events, sim.into_history(), driver.latency)
        }
    };
    let run_nanos = start.elapsed().as_nanos() as u64;
    let ops = history.len() as u64;
    let check = Instant::now();
    let mut job = Job {
        ops,
        events,
        run_nanos,
        latency,
        ..Job::default()
    };
    let linearizable = history.is_complete() && gate(&history, traced, &mut job);
    job.check_nanos = check.elapsed().as_nanos() as u64;
    if !linearizable {
        job.failed = ops;
    }
    job
}

/// The per-key linearizability gate. The traced variant checks key by
/// key to collect the checker's own counters.
fn gate(history: &History<NsOp<RmwOp>, RmwResp>, traced: bool, job: &mut Job) -> bool {
    let spec = RmwRegister::default();
    if !traced {
        return check_namespace(&spec, history).is_linearizable();
    }
    let mut ok = true;
    for (_, sub) in split_history(history, |op| op.key) {
        let projected = sub.map(|op| op.op.clone(), Clone::clone);
        let (outcome, stats) = check_history_stats(&spec, &projected, CheckLimits::default());
        ok &= outcome.is_linearizable();
        job.nodes += stats.nodes;
        job.memo_hits += stats.memo_hits;
    }
    ok
}

/// Builds every shard of a round once: the workload's set-up cost.
fn set_up(seed: u64, params: &Params) -> (Vec<ShardScript>, f64) {
    let start = Instant::now();
    let scripts = SHAPE.scripts(seed);
    let built: Vec<Built> = scripts.iter().map(|s| build(s, params, true)).collect();
    let secs = start.elapsed().as_secs_f64();
    drop(built);
    (scripts, secs)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let params = shard_params(SHAPE.processes);
    let mut setups = Vec::new();
    let mut scripts = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (s, secs) = set_up(seed, &params);
        scripts = s;
        setups.push(secs);
    }

    let workers = worker_count(SHAPE.shards);
    let mut total = Job::default();
    let mut wall = 0.0f64;
    let mut rounds = 0u64;
    let cpu = cpu_secs();
    while wall < seconds {
        let start = Instant::now();
        let jobs = run_shards(SHAPE.shards, |shard| {
            let sampled = (rounds as usize).is_multiple_of(SAMPLE_EVERY);
            run_job(build(&scripts[shard], &params, sampled), traced)
        });
        wall += start.elapsed().as_secs_f64();
        rounds += 1;
        for job in jobs {
            total.ops += job.ops;
            total.failed += job.failed;
            total.events += job.events;
            total.run_nanos += job.run_nanos;
            total.check_nanos += job.check_nanos;
            total.nodes += job.nodes;
            total.memo_hits += job.memo_hits;
            total.latency.merge(job.latency);
        }
    }
    let cpu = cpu_secs() - cpu;

    let mut out = Outcome::new(total.ops, total.failed);
    out.note(format!(
        "{rounds} rounds of {} shards on {workers} workers, {wall:.3} s, {cpu:.3} CPU seconds, \
         {:.0} ops per wall second",
        SHAPE.shards,
        total.ops as f64 / wall
    ));
    out.set("setup_s", median(setups));
    out.set("ops_per_sec", total.ops as f64 / cpu);
    out.cost = cpu / total.ops as f64;
    out.latency(total.latency, &params, "engine wall time per invocation");
    out.set("peak_rss_mb", own_peak_rss_mb());
    if traced {
        let busy = (total.run_nanos + total.check_nanos) as f64 * 1e-9;
        out.set("sim.events_per_op", total.events as f64 / total.ops as f64);
        out.set(
            "sim.events_per_sec",
            total.events as f64 / (total.run_nanos as f64 * 1e-9),
        );
        out.set("sim.run_share", total.run_nanos as f64 * 1e-9 / busy);
        out.set("sim.par.busy_frac", busy / (workers as f64 * wall));
        out.set("lin.nodes_per_op", total.nodes as f64 / total.ops as f64);
        out.set(
            "lin.memo_hits_per_op",
            total.memo_hits as f64 / total.ops as f64,
        );
        out.set(
            "lin.nodes_per_sec",
            total.nodes as f64 / (total.check_nanos as f64 * 1e-9),
        );
        // The wire cost the shards' invocations would have as frames.
        let invocations: Vec<Vec<NsOp<RmwOp>>> = scripts
            .iter()
            .flat_map(|s| match s {
                ShardScript::Batched(p) => p.iter().flatten().cloned().collect::<Vec<_>>(),
                ShardScript::Generic(p) => p.iter().flatten().map(|op| vec![op.clone()]).collect(),
            })
            .collect();
        let c = codec(&invocations);
        out.set("net.wire.encode_ns", c.encode_ns);
        out.set("net.wire.decode_ns", c.decode_ns);
        out.set(
            "net.wire.bytes_per_op",
            c.bytes_per_frame * invocations.len() as f64
                / invocations.iter().map(Vec::len).sum::<usize>() as f64,
        );
    }
    out
}
