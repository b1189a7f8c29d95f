//! Bit-identity pins for Algorithm 1 on keyed and batched objects.
//!
//! Each test runs a fixed seeded scenario and hashes every history
//! record's `(op, response, invoked_at, responded_at)` into one digest.
//! The expected digests were recorded when `NsReplica` still carried
//! its own copy of Algorithm 1 (per-op `⟨clock, pid, #seq⟩` timestamps
//! inside a batch). `NsReplica` now runs the generic `Replica` over a
//! `Batch<Namespace<S>>` spec with one timestamp per batch; the pins
//! prove the two are the same protocol, record for record. Any change
//! in timestamp order, timer placement, delay draws or response values
//! moves a digest.

use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::Rng;
use skewbound_core::nsreplica::NsReplica;
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_core::shard::{run_sharded, ShardWorkload};
use skewbound_sim::prelude::*;
use skewbound_spec::namespace::{Namespace, NsOp};
use skewbound_spec::register::{RmwKind, RmwOp, RmwRegister};

/// FNV-1a over the `Debug` rendering of every record, in history order.
fn digest<O: Debug, R: Debug>(history: &History<O, R>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for rec in history.records() {
        let (resp, responded_at) = rec.response.as_ref().expect("complete history");
        let line = format!(
            "{:?}|{:?}|{:?}|{:?};",
            rec.op, resp, rec.invoked_at, responded_at
        );
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn params(n: usize) -> Params {
    Params::with_optimal_skew(
        n,
        SimDuration::from_ticks(100),
        SimDuration::from_ticks(30),
        SimDuration::ZERO,
    )
    .unwrap()
}

/// Params with a non-zero `X`, so accessor timestamps are shifted.
fn params_x(n: usize) -> Params {
    params(n).with_x(SimDuration::from_ticks(15)).unwrap()
}

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn t(x: u64) -> SimTime {
    SimTime::from_ticks(x)
}

/// The seed-7 script of the `nsreplica` unit tests: a two-key write
/// batch and a concurrent single write, then a three-key read batch.
#[test]
fn ns_batches_seed7_script() {
    let params = params(3);
    let mut sim = Simulation::new(
        NsReplica::group(RmwRegister::default(), &params, true),
        ClockAssignment::zero(3),
        UniformDelay::new(params.delay_bounds(), 7),
    );
    sim.schedule_invoke(
        p(0),
        t(0),
        vec![
            NsOp::new(1, RmwOp::Write(10)),
            NsOp::new(2, RmwOp::Write(20)),
        ],
    );
    sim.schedule_invoke(p(1), t(0), vec![NsOp::new(3, RmwOp::Write(30))]);
    sim.schedule_invoke(
        p(2),
        t(1_000),
        vec![
            NsOp::new(1, RmwOp::Read),
            NsOp::new(2, RmwOp::Read),
            NsOp::new(3, RmwOp::Read),
        ],
    );
    sim.run().unwrap();
    assert_eq!(digest(sim.history()), 0x3210_9bba_bdfe_7172);
}

/// The seed-3 script of the `nsreplica` unit tests: three racing
/// single-op write batches, two on one key.
#[test]
fn ns_batches_seed3_script() {
    let params = params(3);
    let mut sim = Simulation::new(
        NsReplica::group(RmwRegister::default(), &params, true),
        ClockAssignment::zero(3),
        UniformDelay::new(params.delay_bounds(), 3),
    );
    sim.schedule_invoke(p(0), t(0), vec![NsOp::new(5, RmwOp::Write(1))]);
    sim.schedule_invoke(p(1), t(10), vec![NsOp::new(5, RmwOp::Write(2))]);
    sim.schedule_invoke(p(2), t(20), vec![NsOp::new(9, RmwOp::Write(3))]);
    sim.run().unwrap();
    assert_eq!(digest(sim.history()), 0x2a44_d0e8_deb6_fdb8);
}

/// A closed-loop run of random class-pure batches (1–4 ops over 6 keys)
/// under uniform delays, spread clocks and `X > 0`.
#[test]
fn ns_batches_closed_loop_with_shifted_accessors() {
    let params = params_x(4);
    let pids: Vec<ProcessId> = (0..4).map(p).collect();
    let mut driver = ClosedLoop::new(pids, 12, 0x51DE, |_pid, _index, rng: &mut StdRng| {
        let len = rng.gen_range(1..5usize);
        let reads = rng.gen_range(0..2u32) == 0;
        (0..len)
            .map(|_| {
                let key = rng.gen_range(0..6u64);
                if reads {
                    NsOp::new(key, RmwOp::Read)
                } else {
                    NsOp::new(key, RmwOp::Write(rng.gen_range(0..100i64)))
                }
            })
            .collect::<Vec<_>>()
    });
    let mut sim = Simulation::new(
        NsReplica::group(RmwRegister::default(), &params, true),
        ClockAssignment::spread(4, params.eps()),
        UniformDelay::new(params.delay_bounds(), 0xD1CE),
    );
    sim.run_with(&mut driver).unwrap();
    assert_eq!(sim.history().len(), 4 * 12);
    assert_eq!(digest(sim.history()), 0x5a87_a338_9665_d2aa);
}

/// `core::shard::run_sharded` at 1, 4 and 8 shards: one digest per
/// shard count, folded over the shards in order.
#[test]
fn sharded_runs_at_1_4_8_shards() {
    let mut got = Vec::new();
    for shards in [1, 4, 8] {
        let workload = ShardWorkload {
            shards,
            processes: 3,
            total_objects: 512,
            batches_per_process: 48 / shards,
            batch: 8,
            seed: 0x5EED_CAFE,
        };
        let folded = run_sharded(&workload)
            .iter()
            .fold(0u64, |acc, out| acc.rotate_left(7) ^ digest(&out.history));
        got.push(folded);
    }
    assert_eq!(
        got,
        [
            0x07c6_03db_02d6_496a,
            0x5ab5_3355_1b98_1163,
            0xbda9_da2d_85c6_41ea
        ]
    );
}

/// The generic replica on a keyed namespace with read-modify-write
/// (`OOP`) ops mixed in with writes and reads.
#[test]
fn namespace_replica_oop_run() {
    let params = params_x(3);
    let pids: Vec<ProcessId> = (0..3).map(p).collect();
    let mut driver = ClosedLoop::new(pids, 16, 0x00F0, |_pid, _index, rng: &mut StdRng| {
        let key = rng.gen_range(0..4u64);
        let op = match rng.gen_range(0..4u32) {
            0 => RmwOp::Read,
            1 => RmwOp::Write(rng.gen_range(0..50i64)),
            2 => RmwOp::Rmw(RmwKind::FetchAdd(rng.gen_range(1..5i64))),
            _ => RmwOp::Rmw(RmwKind::Swap(rng.gen_range(0..50i64))),
        };
        NsOp::new(key, op)
    });
    let mut sim = Simulation::new(
        Replica::group(Namespace::new(RmwRegister::default()), &params),
        ClockAssignment::spread(3, params.eps()),
        UniformDelay::new(params.delay_bounds(), 0x0DD),
    );
    sim.run_with(&mut driver).unwrap();
    assert_eq!(sim.history().len(), 3 * 16);
    assert_eq!(digest(sim.history()), 0x841b_676c_7d6f_3ca0);
}
