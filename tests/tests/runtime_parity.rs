//! Cross-runtime parity: the same replica set and the same seeded
//! closed-loop workload must run to completion on **all three**
//! backends — the deterministic discrete-event engine, the real-thread
//! runtime, and the TCP loopback mesh — and every observed history
//! must be linearizable.
//!
//! This is the contract the shared `NodeCore` + `Transport` split
//! exists to keep: one `Actor` implementation, one workload, three
//! schedulers. The histories are not expected to be identical (the rt
//! and net backends' delays and interleavings come from the OS), only
//! equally complete, equally correct, and built from the identical
//! per-process operation sequences.

use std::time::Duration;

use skewbound_core::params::Params;
use skewbound_core::prelude::{run_history, run_history_rt, Replica};
use skewbound_integration::assert_linearizable;
use skewbound_lin::checker::check_history;
use skewbound_net::runtime::run_history_net;
use skewbound_net::wire::{Decode, Encode};
use skewbound_sim::prelude::*;
use skewbound_spec::prelude::*;

/// µs-scale parameters shared by both runs: the rt backend interprets
/// one tick as one microsecond, and the engine is scale-free, so the
/// same `Params` drive both. d = 2 ms, u = 1 ms, ε = 0 (the rt backend
/// does not emulate drifting clocks).
fn parity_params(n: usize) -> Params {
    Params::with_optimal_skew(
        n,
        SimDuration::from_ticks(2_000),
        SimDuration::from_ticks(1_000),
        SimDuration::ZERO,
    )
    .unwrap()
}

const OPS_PER_PROCESS: usize = 3;

/// The workload generator must be a pure function of `(pid, idx)`: the
/// two backends complete operations in different real-time orders, so
/// the shared `StdRng` inside `ClosedLoop` is consulted in a different
/// sequence — ignoring it keeps the issued ops identical across runs.
fn gen_op(pid: ProcessId, idx: usize, _rng: &mut rand::rngs::StdRng) -> CounterOp {
    match idx % 3 {
        0 => CounterOp::Add(i64::from(pid.as_u32()) * 10 + 1),
        1 => CounterOp::Read,
        _ => CounterOp::Add(-1),
    }
}

type GenFn = fn(ProcessId, usize, &mut rand::rngs::StdRng) -> CounterOp;

fn closed_loop(n: usize) -> ClosedLoop<CounterOp, GenFn> {
    ClosedLoop::new(
        ProcessId::all(n).collect(),
        OPS_PER_PROCESS,
        42,
        gen_op as GenFn,
    )
}

#[test]
fn same_workload_runs_on_both_backends() {
    let n = 3;
    let params = parity_params(n);
    let expected_ops = n * OPS_PER_PROCESS;

    // Engine run: virtual time, seeded uniform delays.
    let engine_history = run_history(
        Replica::group(Counter::default(), &params),
        ClockAssignment::zero(n),
        UniformDelay::new(params.delay_bounds(), 7),
        &mut closed_loop(n),
    )
    .unwrap();
    assert!(engine_history.is_complete());
    assert_eq!(engine_history.len(), expected_ops);
    assert_linearizable(&Counter::default(), &engine_history);

    // Real-thread run: OS threads, injected delays in the same
    // [d − u, d] bounds, the same driver definition.
    let rt_history = run_history_rt(
        Replica::group(Counter::default(), &params),
        &ClockAssignment::zero(n),
        params.delay_bounds(),
        7,
        &mut closed_loop(n),
        Duration::from_millis(20),
    );
    assert!(rt_history.is_complete());
    assert_eq!(rt_history.len(), expected_ops);
    assert_linearizable(&Counter::default(), &rt_history);

    // Both backends issued the identical multiset of operations per
    // process (the generator is pure in (pid, idx)), so the final
    // counter values agree even though interleavings differ.
    for pid in ProcessId::all(n) {
        let ops = |h: &History<CounterOp, CounterResp>| {
            h.records()
                .iter()
                .filter(|r| r.pid == pid)
                .map(|r| r.op.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ops(&engine_history),
            ops(&rt_history),
            "{pid}: backends issued different operations"
        );
    }
}

/// The per-process operation sequence of a history, in invocation order.
fn ops_of<S: SequentialSpec>(h: &History<S::Op, S::Resp>, pid: ProcessId) -> Vec<S::Op> {
    h.records()
        .iter()
        .filter(|r| r.pid == pid)
        .map(|r| r.op.clone())
        .collect()
}

/// Runs the same pure-in-`(pid, idx)` workload on the engine, the
/// real-thread runtime and the TCP loopback mesh, and asserts all three
/// histories are complete, linearizable, and made of the identical
/// per-process operation sequences.
fn three_backend_parity<S>(make_spec: fn() -> S, gen: fn(ProcessId, usize) -> S::Op)
where
    S: SequentialSpec + Send + Sync + 'static,
    S::State: Send,
    S::Op: Encode + Decode + Send + Sync,
    S::Resp: Encode + Decode + Send,
{
    let n = 3;
    let params = parity_params(n);
    let expected_ops = n * OPS_PER_PROCESS;

    let mut driver = ClosedLoop::new(
        ProcessId::all(n).collect(),
        OPS_PER_PROCESS,
        42,
        move |pid, idx, _rng: &mut rand::rngs::StdRng| gen(pid, idx),
    );
    let engine_history = run_history(
        Replica::group(make_spec(), &params),
        ClockAssignment::zero(n),
        UniformDelay::new(params.delay_bounds(), 7),
        &mut driver,
    )
    .unwrap();

    let mut driver = ClosedLoop::new(
        ProcessId::all(n).collect(),
        OPS_PER_PROCESS,
        42,
        move |pid, idx, _rng: &mut rand::rngs::StdRng| gen(pid, idx),
    );
    let rt_history = run_history_rt(
        Replica::group(make_spec(), &params),
        &ClockAssignment::zero(n),
        params.delay_bounds(),
        7,
        &mut driver,
        Duration::from_millis(20),
    );

    // The TCP leg needs wire-realistic parameters: with a µs-per-tick
    // timebase and real OS scheduling, a delay budget as small as the
    // engine/rt legs' d = 2 ms is routinely blown by a single stall,
    // which violates the partial-synchrony assumption (every message
    // within d) that Algorithm 1's replica agreement rests on.
    let net_params = Params::with_optimal_skew(
        n,
        SimDuration::from_ticks(20_000),
        SimDuration::from_ticks(8_000),
        SimDuration::ZERO,
    )
    .unwrap();
    let mut net_history = run_history_net(make_spec, &net_params, 7, OPS_PER_PROCESS, gen);

    for (name, history) in [("engine", &engine_history), ("rt", &rt_history)] {
        assert!(history.is_complete(), "{name}: incomplete history");
        assert_eq!(history.len(), expected_ops, "{name}: wrong op count");
        assert_linearizable(&make_spec(), history);
    }

    // Completeness, op count and op sequences never depend on timing —
    // any mismatch is a real bug and fails immediately. The
    // linearizability of the observed history does: a scheduling stall
    // longer than the delay headroom breaks the timing model itself, so
    // that check alone gets a couple of retries on fresh runs.
    for attempt in 1..=3 {
        assert!(net_history.is_complete(), "net: incomplete history");
        assert_eq!(net_history.len(), expected_ops, "net: wrong op count");
        for pid in ProcessId::all(n) {
            assert_eq!(
                ops_of::<S>(&engine_history, pid),
                ops_of::<S>(&net_history, pid),
                "{pid}: engine and net issued different operations"
            );
        }
        if check_history(&make_spec(), &net_history).is_linearizable() {
            break;
        }
        assert!(
            attempt < 3,
            "net: non-linearizable history on {attempt} attempts: {:?}",
            net_history.records()
        );
        eprintln!("net parity attempt {attempt} hit a timing-model violation; retrying");
        net_history = run_history_net(make_spec, &net_params, 7, OPS_PER_PROCESS, gen);
    }

    for pid in ProcessId::all(n) {
        assert_eq!(
            ops_of::<S>(&engine_history, pid),
            ops_of::<S>(&rt_history, pid),
            "{pid}: engine and rt issued different operations"
        );
    }
}

#[test]
fn register_workload_parity_across_three_backends() {
    three_backend_parity(RwRegister::<i64>::default, |pid, idx| match idx % 3 {
        0 => RegOp::Write(i64::from(pid.as_u32()) * 100 + idx as i64),
        1 => RegOp::Read,
        _ => RegOp::Write(-i64::from(pid.as_u32()) - 1),
    });
}

#[test]
fn queue_workload_parity_across_three_backends() {
    three_backend_parity(Queue::<i64>::new, |pid, idx| match idx % 3 {
        0 => QueueOp::Enqueue(i64::from(pid.as_u32()) * 10 + idx as i64),
        1 => QueueOp::Dequeue,
        _ => QueueOp::Peek,
    });
}

#[test]
fn kv_workload_parity_across_three_backends() {
    three_backend_parity(KvStore::new, |pid, idx| {
        let key = i64::from(pid.as_u32() % 2);
        match idx % 3 {
            0 => KvOp::Put {
                key,
                value: i64::from(pid.as_u32()) * 10 + idx as i64,
            },
            1 => KvOp::Get { key },
            _ => KvOp::Remove { key: 1 - key },
        }
    });
}
