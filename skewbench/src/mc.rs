//! `mc-register`: the parallel model checker on the honest register.
//!
//! The workload is a stream of model-checking queries (see
//! [`mc_queries`]): each explores every delivery order, every `{d − u,
//! d}` delay digit and every `±ε` clock corner of a four-op register
//! script over the frontier's `nproc` workers and its shared
//! transposition table. A query's latency is the CPU time (all workers)
//! from submitting it to its verdict, and throughput is per CPU-second
//! (see [`cpu_secs`]); the query's class is that of its probe operation.
//! Queries cycle until the run's time is up.

use std::time::Instant;

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_mc::explore::{model_check, replay, McConfig, McReport};
use skewbound_sim::time::SimDuration;
use skewbound_spec::probes;
use skewbound_spec::register::{RmwOp, RmwRegister};

use crate::gen::{mc_queries, Query};
use crate::probe::codec;
use crate::stats::{cpu_secs, median, own_peak_rss_mb};
use crate::{ClassLatency, Outcome, SETUP_REPEATS};

/// Distinct queries generated per run (cycled through).
const QUERIES: usize = 30;

/// `n = 3`, `d = 9 000`, `u = 2 400` ticks, `X = 0`, optimal skew: the
/// repository's default system.
fn params() -> Params {
    Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )
    .expect("fixed parameters are valid")
}

fn config(params: &Params) -> McConfig<RmwRegister> {
    let mut config = McConfig::corners(params, probes::register_states());
    // Far above any query's schedule count: a capped query fails.
    config.max_schedules = 5_000_000;
    config
}

/// Builds the queries and runs the first query's first schedule: the
/// time to a first checked run.
fn set_up(seed: u64, params: &Params) -> (Vec<Query>, f64) {
    let start = Instant::now();
    let queries = mc_queries(seed, QUERIES, params.d().as_ticks());
    let config = config(params);
    let first = replay(
        &RmwRegister::default(),
        &|| Replica::group(RmwRegister::default(), params),
        params,
        &queries[0].script,
        &config,
        0,
        &[0; 16],
        &[],
    );
    assert!(!first.history.is_empty(), "the first schedule ran no ops");
    (queries, start.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let params = params();
    let mut setups = Vec::new();
    let mut queries = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (q, secs) = set_up(seed, &params);
        queries = q;
        setups.push(secs);
    }

    let config = config(&params);
    let mut latency = ClassLatency::default();
    let mut reports: Vec<McReport> = Vec::new();
    let (mut states, mut failed, mut ops) = (0u64, 0u64, 0u64);
    let (mut wall, mut cpu) = (0.0f64, 0.0f64);
    for query in queries.iter().cycle() {
        if wall >= seconds {
            break;
        }
        let start = Instant::now();
        let cpu_start = cpu_secs();
        let report = model_check(
            &RmwRegister::default(),
            || Replica::group(RmwRegister::default(), &params),
            &params,
            &query.script,
            &config,
        );
        let query_cpu = cpu_secs() - cpu_start;
        wall += start.elapsed().as_secs_f64();
        cpu += query_cpu;
        latency.push(query.probe, query_cpu * 1e3);
        states += report.explored_states;
        ops += (report.schedules - report.pruned) * query.script.len() as u64;
        if !report.all_passed() {
            failed += report.explored_states.max(1);
        }
        reports.push(report);
    }

    let mut out = Outcome::new(states, failed);
    out.note(format!(
        "{} queries, {} schedules, {} explored states, {:.3} s on {} workers",
        reports.len(),
        reports.iter().map(|r| r.schedules).sum::<u64>(),
        states,
        wall,
        reports[0].workers
    ));
    out.set("setup_s", median(setups));
    out.note(format!(
        "{:.0} ops per wall second; {cpu:.3} CPU seconds",
        ops as f64 / wall
    ));
    out.set("ops_per_sec", ops as f64 / cpu);
    out.cost = cpu / ops as f64;
    out.latency(latency, &params, "CPU time to a query's verdict");
    out.set("peak_rss_mb", own_peak_rss_mb());
    if traced {
        let sum = |f: fn(&McReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        let per_query = |f: fn(&McReport) -> u64| sum(f) / reports.len() as f64;
        out.set("mc.schedules_per_query", per_query(|r| r.schedules));
        out.set("mc.states_per_query", per_query(|r| r.explored_states));
        out.set(
            "mc.states_per_sec",
            sum(|r| r.explored_states) / (sum(|r| r.wall_nanos) * 1e-9),
        );
        out.set("mc.pruned_per_query", per_query(|r| r.pruned));
        out.set("mc.table_hits_per_query", per_query(|r| r.table_hits));
        out.set("mc.table_entries_per_query", per_query(|r| r.table_entries));
        let script_ops: Vec<RmwOp> = queries
            .iter()
            .flat_map(|q| q.script.iter().map(|(_, _, op)| op.clone()))
            .collect();
        let c = codec(&script_ops);
        out.set("net.wire.encode_ns", c.encode_ns);
        out.set("net.wire.decode_ns", c.decode_ns);
        out.set("net.wire.bytes_per_op", c.bytes_per_frame);
    }
    out
}
