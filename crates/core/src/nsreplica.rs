//! Algorithm 1 over a keyed namespace, with batched invocations.
//!
//! A namespace of independent objects is one object (Herlihy–Wing
//! locality), and a batch of its keyed ops is one op of that object.
//! So [`NsReplica`] is the generic [`Replica`] over the spec
//! [`BatchedNamespace<S>`] = `Batch<Namespace<S>>`, and its `Actor`
//! impl only delegates. There is no second copy of Algorithm 1.
//!
//! One invocation is one `Vec<NsOp>` with **one timestamp**, one
//! broadcast message and one timer per role. A batch of pure mutators
//! responds at `ε + X`, a batch of pure accessors at `d + ε − X`, and a
//! mixed or `OOP` batch is an `Other`-class op that responds when it
//! executes, within `d + ε`. The local copy is the per-key state map;
//! [`SequentialSpec::apply_in_place`] and [`SequentialSpec::peek`]
//! touch only the keys a batch names.

use core::fmt;
use std::collections::BTreeMap;

use skewbound_sim::actor::{Actor, Context};
use skewbound_sim::ids::ProcessId;
use skewbound_spec::combinators::Batch;
use skewbound_spec::namespace::{Namespace, NsOp};
use skewbound_spec::seqspec::SequentialSpec;

use crate::params::Params;
use crate::replica::{OpMsg, Replica, ReplicaTimer};

/// The object an [`NsReplica`] group replicates: batches of keyed ops
/// on a namespace of `S` objects.
pub type BatchedNamespace<S> = Batch<Namespace<S>>;

/// One process of the batched namespace replica group.
///
/// # Examples
///
/// ```
/// use skewbound_core::nsreplica::NsReplica;
/// use skewbound_core::params::Params;
/// use skewbound_sim::prelude::*;
/// use skewbound_spec::prelude::*;
///
/// let params = Params::with_optimal_skew(
///     3,
///     SimDuration::from_ticks(100),
///     SimDuration::from_ticks(30),
///     SimDuration::ZERO,
/// )?;
/// let actors = NsReplica::group(RmwRegister::default(), &params, true);
/// let mut sim = Simulation::new(
///     actors,
///     ClockAssignment::zero(3),
///     UniformDelay::new(params.delay_bounds(), 42),
/// );
/// sim.schedule_invoke(
///     ProcessId::new(0),
///     SimTime::ZERO,
///     vec![NsOp::new(7, RmwOp::Write(5)), NsOp::new(9, RmwOp::Write(6))],
/// );
/// sim.schedule_invoke(
///     ProcessId::new(1),
///     SimTime::from_ticks(500),
///     vec![NsOp::new(7, RmwOp::Read), NsOp::new(9, RmwOp::Read)],
/// );
/// sim.run().unwrap();
/// assert_eq!(
///     sim.history().records()[1].resp(),
///     Some(&vec![RmwResp::Value(5), RmwResp::Value(6)])
/// );
/// # Ok::<(), skewbound_core::params::ParamError>(())
/// ```
pub struct NsReplica<S: SequentialSpec>(Replica<BatchedNamespace<S>>);

impl<S: SequentialSpec> fmt::Debug for NsReplica<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("NsReplica").field(&self.0).finish()
    }
}

impl<S: SequentialSpec> NsReplica<S> {
    /// A replica with the honest timer profile from `params`.
    #[must_use]
    pub fn new(inner: S, params: &Params) -> Self {
        NsReplica(Replica::new(Batch::new(Namespace::new(inner)), params))
    }

    /// One replica per process, sharing one spec.
    ///
    /// `batched` must be `true`. It is what is left of a per-op message
    /// framing option that no longer exists (a batch is one op with one
    /// timestamp, so it is one message); the parameter is kept only so
    /// the benchmark harness under `skewbench/` keeps compiling.
    ///
    /// # Panics
    ///
    /// Panics if `batched` is `false`.
    #[must_use]
    pub fn group(inner: S, params: &Params, batched: bool) -> Vec<Self> {
        assert!(batched, "per-op framing is gone: a batch is one message");
        Replica::group(Batch::new(Namespace::new(inner)), params)
            .into_iter()
            .map(NsReplica)
            .collect()
    }

    /// Per-key local states (absent keys are at the inner initial state).
    #[must_use]
    pub fn local_states(&self) -> &BTreeMap<u64, S::State> {
        self.0.local_state()
    }

    /// Number of batches executed on the local copy so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.0.executed()
    }

    /// Number of batches waiting in `To_Execute`.
    #[must_use]
    pub fn queued_len(&self) -> usize {
        self.0.queued_len()
    }
}

impl<S: SequentialSpec> Actor for NsReplica<S> {
    type Msg = OpMsg<BatchedNamespace<S>>;
    type Op = Vec<NsOp<S::Op>>;
    type Resp = Vec<S::Resp>;
    type Timer = ReplicaTimer<BatchedNamespace<S>>;

    fn on_invoke(&mut self, batch: Self::Op, ctx: &mut Context<'_, Self>) {
        self.0.handle_invoke(batch, ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self>) {
        self.0.handle_message(msg, ctx);
    }

    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Context<'_, Self>) {
        self.0.handle_timer(timer, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_sim::prelude::*;
    use skewbound_spec::prelude::*;

    fn params(n: usize) -> Params {
        Params::with_optimal_skew(
            n,
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(30),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn run() -> History<Vec<NsOp<RmwOp>>, Vec<RmwResp>> {
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
        sim.into_history()
    }

    #[test]
    fn batched_mutators_are_visible_to_later_accessors() {
        let h = run();
        assert!(h.is_complete());
        assert_eq!(
            h.records()[2].resp(),
            Some(&vec![
                RmwResp::Value(10),
                RmwResp::Value(20),
                RmwResp::Value(30)
            ])
        );
    }

    #[test]
    fn mutator_batch_responds_at_eps_plus_x() {
        let h = run();
        let params = params(3);
        assert_eq!(
            h.records()[0].latency().unwrap(),
            crate::bounds::ub_mop(&params)
        );
    }

    #[test]
    fn replicas_converge_per_key() {
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
        let states: Vec<_> = (0..3)
            .map(|i| sim.actor(p(i)).local_states().clone())
            .collect();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[1], states[2]);
        assert_eq!(states[0].get(&9), Some(&3));
        // Three broadcast writes → three executions on every replica.
        assert!((0..3).all(|i| sim.actor(p(i)).executed() == 3));
    }

    #[test]
    fn oop_and_mixed_batches_are_linearizable() {
        // Batches that are not class-pure run as `Other`-class ops: one
        // timestamp, respond on execution within d + ε.
        let params = params(3);
        let mut sim = Simulation::new(
            NsReplica::group(RmwRegister::default(), &params, true),
            ClockAssignment::spread(3, params.eps()),
            UniformDelay::new(params.delay_bounds(), 5),
        );
        let fetch_add = |key, delta| NsOp::new(key, RmwOp::Rmw(RmwKind::FetchAdd(delta)));
        let scripts = [
            vec![
                vec![fetch_add(1, 1), NsOp::new(2, RmwOp::Write(7))],
                vec![NsOp::new(1, RmwOp::Read), NsOp::new(2, RmwOp::Read)],
                vec![fetch_add(2, 3), fetch_add(2, 3), NsOp::new(2, RmwOp::Read)],
            ],
            vec![
                vec![NsOp::new(1, RmwOp::Write(4)), NsOp::new(1, RmwOp::Read)],
                vec![fetch_add(1, 10)],
                vec![],
            ],
            vec![
                vec![NsOp::new(2, RmwOp::Read), fetch_add(1, 2)],
                vec![NsOp::new(1, RmwOp::Write(1)), NsOp::new(2, RmwOp::Write(2))],
                vec![NsOp::new(1, RmwOp::Read)],
            ],
        ];
        for (i, script) in scripts.into_iter().enumerate() {
            for (k, batch) in script.into_iter().enumerate() {
                sim.schedule_invoke(p(i as u32), t(k as u64 * 400 + i as u64 * 13), batch);
            }
        }
        sim.run().unwrap();
        let h = sim.into_history();
        assert!(h.is_complete());
        let bound = crate::bounds::ub_oop(&params);
        for rec in h.records() {
            assert!(rec.latency().unwrap() <= bound, "{rec:?} slower than d + ε");
        }
        // A batch's ops execute back to back: the write in p1's
        // write-then-read batch is what its read sees.
        assert_eq!(
            h.records()[1].resp(),
            Some(&vec![RmwResp::Ack, RmwResp::Value(4)])
        );
        let gate = skewbound_lin::check_namespace(
            &RmwRegister::default(),
            &skewbound_lin::flatten_batches(&h),
        );
        assert!(gate.is_linearizable(), "keys {:?}", gate.violating_keys());
    }

    #[test]
    #[should_panic(expected = "per-op framing is gone")]
    fn per_op_framing_is_rejected() {
        let _ = NsReplica::group(RmwRegister::default(), &params(2), false);
    }
}
