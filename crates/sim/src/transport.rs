//! The pluggable transport layer: deliver-at-time semantics for
//! messages and timers.
//!
//! Both runtimes execute the same [`Actor`] state
//! machines through the same [`NodeCore`](crate::node::NodeCore); what
//! differs is *when and how* an enqueued message or timer expiry comes
//! back to a node. A [`Transport`] captures exactly that difference:
//!
//! * the discrete-event engine implements it with a virtual-time
//!   calendar queue ([`crate::equeue`]) — a send is assigned a delay by
//!   the [`DelayModel`] and popped back at
//!   `sent_at + delay` in deterministic `(time, seq)` order;
//! * the real-thread runtime implements it with per-worker mpsc
//!   inboxes — a send is assigned a seeded random delay within the same
//!   `[d − u, d]` bounds, pushed to the receiver at once, and held
//!   there until the wall clock reaches `sent_at + delay`.
//!
//! Every message and timer a node produces passes through this single
//! choke point, which is what makes delay injection, trace pairing and
//! future drop/duplicate fault hooks land once for both backends.

use core::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::Rng;

use crate::actor::Actor;
use crate::clock::ClockAssignment;
use crate::delay::{DelayBounds, DelayModel, MsgMeta};
use crate::engine::{EventKind, MsgEvent};
use crate::equeue::CalendarQueue;
use crate::ids::{MsgId, OpId, ProcessId, TimerId};
use crate::slab::{Slab, SlabRef};
use crate::time::{ticks_to_duration, SimDuration, SimTime};

/// Why a transport failed to accept a send.
///
/// The in-process backends (the engine's `VirtualTransport`, the rt
/// runtime's `ChannelTransport`)
/// never fail — their queues are unbounded and intra-process — so every
/// path through them returns `Ok` unconditionally and stays
/// bit-identical to the infallible days. Byte-oriented cross-process
/// backends surface real failures: an unreachable peer, a codec reject,
/// a closed mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No live connection to `to` and reconnection is not (yet)
    /// possible.
    PeerUnreachable {
        /// The unreachable destination.
        to: ProcessId,
    },
    /// The payload could not be encoded for (or decoded from) the wire.
    Codec(String),
    /// The transport has been shut down; no further sends are accepted.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::PeerUnreachable { to } => {
                write!(f, "peer {to} is unreachable")
            }
            TransportError::Codec(reason) => write!(f, "wire codec error: {reason}"),
            TransportError::Closed => write!(f, "transport is closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A backend that schedules message deliveries and timer expiries.
///
/// Implementations decide the *delivery time* of each message (the
/// delay model of the run) and own the queue/heap/channel machinery
/// that eventually hands the event back to the destination node. The
/// [`NodeCore`](crate::node::NodeCore) calls these methods while
/// draining one activation's effects; it never schedules anything
/// behind the transport's back.
///
/// Sends are fallible: in-process backends always return `Ok` (their
/// queues cannot fail), while cross-process backends report
/// [`TransportError`]s which the node core propagates to its scheduler.
pub trait Transport<A: Actor> {
    /// Assigns a delay to `msg` and enqueues its delivery at `to`
    /// (deliver-at-time semantics). Returns the run-unique message id,
    /// allocated in global send order so every `send` trace event pairs
    /// with exactly one later `deliver` carrying the same id.
    fn send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: A::Msg,
    ) -> Result<MsgId, TransportError>;

    /// Enqueues the expiry of timer `id` at `pid`, `delay` *local
    /// clock* ticks from now. The id is already live in the node's
    /// [`TimerSlab`](crate::timers::TimerSlab); the transport only
    /// schedules the expiry event (converting clock to real time if the
    /// backend models clock drift).
    fn set_timer(&mut self, pid: ProcessId, id: TimerId, delay: SimDuration, timer: A::Timer);

    /// Informs the backend that a previously scheduled timer was
    /// cancelled, so eager backends can prune its expiry from their
    /// schedule. The node has already retired the id in its slab, so a
    /// backend may also ignore this and drop the stale expiry when it
    /// comes due (the engine does; the real-thread runtime prunes so
    /// shutdown never waits on cancelled timers).
    fn cancel_timer(&mut self, pid: ProcessId, id: TimerId) {
        let _ = (pid, id);
    }
}

/// The byte-oriented half of the transport split: an object-safe
/// carrier of already-encoded frames.
///
/// [`Transport`] is generic over the actor — ideal in-process, where
/// messages move by value and never touch bytes — but a cross-process
/// backend (`skewbound-net`'s TCP mesh) can't be: it moves opaque
/// frames, and its codec lives above it. `WireTransport` is that lower
/// layer. A typed adapter encodes each `A::Msg` into a frame (the
/// `wire` codec in `skewbound-net`), hands the bytes here, and decodes
/// frames arriving from peers back into typed messages.
///
/// Object safety is the point: binaries hold a
/// `Box<dyn WireTransport>` chosen by config, without rebuilding the
/// replica stack per backend.
pub trait WireTransport: Send {
    /// Queues one encoded frame for delivery to `to`. Queuing is
    /// asynchronous: `Ok` means the frame was accepted for
    /// (re)transmission, not that the peer received it. Delivery is
    /// at-least-once under reconnects; receivers deduplicate by the
    /// frame header's message id.
    fn send_frame(&mut self, to: ProcessId, frame: &[u8]) -> Result<(), TransportError>;

    /// Requests that buffered frames be pushed to the wire now (a
    /// batching backend may coalesce sends until flushed). In-order
    /// per-destination delivery of previously accepted frames must be
    /// preserved.
    fn flush(&mut self) -> Result<(), TransportError>;

    /// The local process id this endpoint speaks as.
    fn local_pid(&self) -> ProcessId;
}

/// Above this process count, per-pair send counters move from a dense
/// `n * n` vector to a hash map: the dense table is fastest for grid
/// cells (n of a few dozen) but is quadratic in memory — 80 GB of
/// counters at n = 100 000.
const DENSE_PAIR_LIMIT: usize = 1024;

/// Per ordered pair `(from, to)` send counters, feeding
/// [`MsgMeta::pair_seq`]. Dense for small systems, sparse above
/// [`DENSE_PAIR_LIMIT`]; both give bit-identical counter sequences, so
/// scripted/enumerated delay models replay the same either way.
#[derive(Debug)]
pub(crate) enum PairSeq {
    /// Flat `from * n + to` vector (grids run millions of short
    /// simulations; a flat vector beats a hash map in the send path).
    Dense { counts: Vec<u64>, n: usize },
    /// `(from << 32) | to` keyed map, allocated per *used* pair only.
    Sparse(FxHashMap<u64, u64>),
}

impl PairSeq {
    pub(crate) fn new(n: usize) -> Self {
        if n <= DENSE_PAIR_LIMIT {
            PairSeq::Dense {
                counts: vec![0; n * n],
                n,
            }
        } else {
            PairSeq::Sparse(FxHashMap::default())
        }
    }

    /// Post-increments the counter of the ordered pair.
    #[inline]
    fn next(&mut self, from: ProcessId, to: ProcessId) -> u64 {
        let counter = match self {
            PairSeq::Dense { counts, n } => &mut counts[from.index() * *n + to.index()],
            PairSeq::Sparse(map) => map
                .entry((u64::from(from.as_u32()) << 32) | u64::from(to.as_u32()))
                .or_insert(0),
        };
        let seq = *counter;
        *counter += 1;
        seq
    }
}

/// Which payload slab a queued [`EvTag`] resolves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvSlot {
    Invoke,
    Deliver,
    Timer,
}

/// One queued event in columnar form: the destination process, the
/// payload kind and the slab handle of the payload. 16 bytes of `Copy`
/// data — this is all the calendar queue moves around.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvTag {
    pub(crate) pid: ProcessId,
    pub(crate) kind: EvSlot,
    pub(crate) slot: SlabRef,
}

/// Slab payload of an in-flight message.
pub(crate) struct MsgPayload<M> {
    pub(crate) from: ProcessId,
    pub(crate) id: MsgId,
    pub(crate) msg: M,
}

/// The engine's [`Transport`]: a virtual-time calendar queue over
/// struct-of-arrays event storage.
///
/// A send is assigned a delay by the [`DelayModel`] (validated against
/// the bounds once at construction and asserted per call, in release
/// builds too), and
/// queued for delivery at `sent_at + delay`; a timer arm is converted
/// from local clock ticks to real time under the [`ClockAssignment`]
/// and queued at its expiry instant. The queue itself carries only
/// [`EvTag`]s — payloads live in per-kind generation-stamped
/// [`Slab`]s whose slots recycle, so steady-state scheduling allocates
/// nothing. Events pop back in deterministic `(time, seq)` order.
/// Cancelled timers are *not* pruned from the queue — the node core's
/// slab generation filters the stale expiry when it pops.
pub(crate) struct VirtualTransport<A: Actor, D: DelayModel> {
    pub(crate) clocks: ClockAssignment,
    pub(crate) delays: D,
    /// The model's admissible delay interval, hoisted at construction.
    bounds: DelayBounds,
    pub(crate) queue: CalendarQueue<EvTag>,
    pub(crate) ops: Slab<A::Op>,
    pub(crate) msgs: Slab<MsgPayload<A::Msg>>,
    pub(crate) timer_payloads: Slab<(TimerId, A::Timer)>,
    pub(crate) seq: u64,
    pub(crate) now: SimTime,
    pair_seq: PairSeq,
    pub(crate) n: usize,
    pub(crate) next_msg_id: u64,
    /// Send metadata, recorded only while [`Self::log_messages`] — the
    /// log grows with every send, which checkers need and sweeps do not.
    pub(crate) msg_log: Vec<MsgEvent>,
    pub(crate) log_messages: bool,
}

impl<A: Actor, D: DelayModel> VirtualTransport<A, D> {
    pub(crate) fn new(clocks: ClockAssignment, delays: D, n: usize) -> Self {
        let bounds = delays.bounds();
        VirtualTransport {
            clocks,
            // Pre-size the hot collections: a typical grid cell
            // schedules a handful of events per process at any instant,
            // within one delay bound of now.
            queue: CalendarQueue::new(4 * n, bounds.max()),
            ops: Slab::with_capacity(4),
            // Sized like the old event heap (8n + 16): a broadcast keeps
            // n - 1 messages in flight per concurrent writer, and growth
            // past capacity is a realloc-copy on the hot path.
            msgs: Slab::with_capacity(8 * n + 16),
            timer_payloads: Slab::with_capacity(2 * n + 16),
            delays,
            bounds,
            seq: 0,
            now: SimTime::ZERO,
            pair_seq: PairSeq::new(n),
            n,
            next_msg_id: 0,
            msg_log: Vec::new(),
            log_messages: false,
        }
    }

    /// Turns on message-metadata logging, pre-sizing the log.
    pub(crate) fn enable_msg_log(&mut self) {
        self.log_messages = true;
        if self.msg_log.capacity() == 0 {
            // Every broadcast appends n − 1 entries.
            self.msg_log.reserve(16 * self.n);
        }
    }

    pub(crate) fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Takes the payload of a popped tag out of its slab.
    pub(crate) fn resolve(&mut self, tag: EvTag) -> EventKind<A> {
        match tag.kind {
            EvSlot::Invoke => EventKind::Invoke {
                op: self.ops.take(tag.slot),
            },
            EvSlot::Deliver => {
                let p = self.msgs.take(tag.slot);
                EventKind::Deliver {
                    from: p.from,
                    msg: p.msg,
                    msg_id: p.id,
                }
            }
            EvSlot::Timer => {
                let (id, timer) = self.timer_payloads.take(tag.slot);
                EventKind::Timer { id, timer }
            }
        }
    }

    /// Payloads currently live across all three event arenas. Every pop
    /// takes its payload out of the owning slab (stale timers included),
    /// so this must be zero whenever the event queue is empty — the
    /// end-of-run leak check the engine asserts and reports.
    pub(crate) fn live_payloads(&self) -> usize {
        self.ops.live_count() + self.msgs.live_count() + self.timer_payloads.live_count()
    }

    pub(crate) fn push_invoke(&mut self, pid: ProcessId, at: SimTime, op: A::Op) {
        let slot = self.ops.insert(op);
        let seq = self.bump_seq();
        self.queue.push(
            at,
            seq,
            EvTag {
                pid,
                kind: EvSlot::Invoke,
                slot,
            },
        );
    }
}

impl<A: Actor, D: DelayModel> Transport<A> for VirtualTransport<A, D> {
    fn send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: A::Msg,
    ) -> Result<MsgId, TransportError> {
        let pair_seq = self.pair_seq.next(from, to);
        let meta = MsgMeta {
            from,
            to,
            sent_at: self.now,
            pair_seq,
        };
        let delay = self.delays.delay(meta);
        // The bounds themselves are validated once at construction
        // (`DelayBounds::try_new` rejects u > d and d = 0); per-send
        // containment is checked in release builds too — an
        // inadmissible delay would silently void every bound the run
        // is supposed to witness, so it must never reach the queue.
        assert!(
            self.bounds.contains(delay),
            "delay model produced inadmissible delay {delay:?} for {from}->{to} \
             (bounds [{:?}, {:?}])",
            self.bounds.min(),
            self.bounds.max()
        );
        let recv_at = self.now + delay;
        let id = MsgId::new(self.next_msg_id);
        self.next_msg_id += 1;
        if self.log_messages {
            self.msg_log.push(MsgEvent {
                id,
                from,
                to,
                sent_at: self.now,
                delay,
                recv_at,
            });
        }
        let slot = self.msgs.insert(MsgPayload { from, id, msg });
        let seq = self.bump_seq();
        self.queue.push(
            recv_at,
            seq,
            EvTag {
                pid: to,
                kind: EvSlot::Deliver,
                slot,
            },
        );
        Ok(id)
    }

    fn set_timer(&mut self, pid: ProcessId, id: TimerId, delay: SimDuration, timer: A::Timer) {
        // Timer delays are in clock units; under drift (a non-unit
        // clock rate) convert to real time.
        let real_delay = self.clocks.clock_to_real(pid, delay);
        let slot = self.timer_payloads.insert((id, timer));
        let seq = self.bump_seq();
        self.queue.push(
            self.now + real_delay,
            seq,
            EvTag {
                pid,
                kind: EvSlot::Timer,
                slot,
            },
        );
    }
}

/// A timer armed by a real-thread worker's node, waiting for its
/// wall-clock deadline.
pub(crate) struct PendingTimer<T> {
    pub(crate) fire_at: Instant,
    pub(crate) id: TimerId,
    pub(crate) timer: T,
}

/// The real-thread runtime's [`Transport`]: a send goes straight into
/// the destination worker's inbox with a seeded random delivery instant
/// within the cluster bounds, and the receiver holds it until then;
/// timers wait in the worker's own pending list. Both deadlines count
/// from [`ChannelTransport::now`], the instant at which the activation
/// read its clock, so the delays a node asks for are measured from the
/// clock reading it acted on. Cancels prune the pending list eagerly so
/// shutdown never waits on a cancelled timer.
pub(crate) struct ChannelTransport<A: Actor> {
    /// Every worker's inbox, indexed by process.
    pub(crate) inboxes: Vec<Sender<Input<A>>>,
    pub(crate) rng: StdRng,
    pub(crate) bounds: DelayBounds,
    /// Global send-order message id allocator, shared with every other
    /// worker so trace `send`/`deliver` events pair by id cluster-wide.
    pub(crate) msg_ids: Arc<AtomicU64>,
    pub(crate) pending: Vec<PendingTimer<A::Timer>>,
    /// The instant of the activation in progress.
    pub(crate) now: Instant,
    /// Cluster-wide count of work not yet done: invocations and
    /// messages not yet handled plus timers armed and not yet fired or
    /// cancelled. An activation adds its follow-up work before its own
    /// unit is taken off, so once shutdown is requested the count
    /// reaching zero means no worker will ever be activated again.
    pub(crate) work: Arc<AtomicUsize>,
}

impl<A: Actor> ChannelTransport<A> {
    /// Pops the pending timer with the earliest `(deadline, id)` if it
    /// is due at `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<PendingTimer<A::Timer>> {
        let due = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, t)| t.fire_at <= now)
            .min_by_key(|(_, t)| (t.fire_at, t.id))
            .map(|(i, _)| i)?;
        Some(self.pending.swap_remove(due))
    }

    /// The earliest pending deadline, if any timers are armed.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().map(|t| t.fire_at).min()
    }
}

impl<A: Actor> Transport<A> for ChannelTransport<A> {
    fn send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: A::Msg,
    ) -> Result<MsgId, TransportError> {
        let ticks = self
            .rng
            .gen_range(self.bounds.min().as_ticks()..=self.bounds.max().as_ticks());
        let deliver_at = self.now + ticks_to_duration(SimDuration::from_ticks(ticks));
        let id = MsgId::new(self.msg_ids.fetch_add(1, Ordering::Relaxed));
        self.work.fetch_add(1, Ordering::AcqRel);
        // Inboxes stay open while any worker runs (every worker holds
        // them all), so this path stays infallible.
        let _ = self.inboxes[to.index()].send(Input::Deliver(Delivery {
            deliver_at,
            from,
            id,
            msg,
        }));
        Ok(id)
    }

    fn set_timer(&mut self, _pid: ProcessId, id: TimerId, delay: SimDuration, timer: A::Timer) {
        self.work.fetch_add(1, Ordering::AcqRel);
        self.pending.push(PendingTimer {
            fire_at: self.now + ticks_to_duration(delay),
            id,
            timer,
        });
    }

    fn cancel_timer(&mut self, _pid: ProcessId, id: TimerId) {
        let before = self.pending.len();
        self.pending.retain(|t| t.id != id);
        self.work
            .fetch_sub(before - self.pending.len(), Ordering::AcqRel);
    }
}

/// A worker thread's inbox message in the real-thread runtime.
pub(crate) enum Input<A: Actor> {
    /// Invoke an operation already recorded in the history as `OpId`.
    Invoke(OpId, A::Op),
    /// A message from another process, to be delivered at its
    /// `deliver_at`.
    Deliver(Delivery<A::Msg>),
    /// Finish the remaining work, then exit.
    Shutdown,
}

/// One message held by its receiving worker until its delivery instant.
/// Ordered so that a [`BinaryHeap`](std::collections::BinaryHeap) pops the earliest
/// `(deliver_at, id)` first; ids are global send order, so ties break
/// deterministically.
pub(crate) struct Delivery<M> {
    pub(crate) deliver_at: Instant,
    pub(crate) from: ProcessId,
    pub(crate) id: MsgId,
    pub(crate) msg: M,
}

impl<M> PartialEq for Delivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.id == other.id
    }
}
impl<M> Eq for Delivery<M> {}
impl<M> PartialOrd for Delivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delivery<M> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (other.deliver_at, other.id).cmp(&(self.deliver_at, self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Drives a seeded interleaved stream of ordered pairs through both
    /// `PairSeq` representations and asserts the counter sequences are
    /// identical draw-for-draw.
    fn assert_pair_seq_parity(n: usize, draws: usize, seed: u64) {
        let mut dense = PairSeq::Dense {
            counts: vec![0; n * n],
            n,
        };
        let mut sparse = PairSeq::Sparse(FxHashMap::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..draws {
            let from = ProcessId::new(rng.gen_range(0..n as u32));
            let to = ProcessId::new(rng.gen_range(0..n as u32));
            assert_eq!(
                dense.next(from, to),
                sparse.next(from, to),
                "pair ({from}, {to}) diverged (n = {n})"
            );
        }
    }

    #[test]
    fn pair_seq_parity_small_n() {
        assert_pair_seq_parity(8, 4_000, 11);
    }

    #[test]
    fn pair_seq_parity_at_dense_boundary() {
        // Exactly at the dense limit the constructor still picks Dense…
        assert!(matches!(
            PairSeq::new(DENSE_PAIR_LIMIT),
            PairSeq::Dense { .. }
        ));
        assert_pair_seq_parity(DENSE_PAIR_LIMIT, 2_000, 22);
    }

    #[test]
    fn pair_seq_parity_past_dense_boundary() {
        // …and one past it, Sparse. The counter sequences must agree on
        // both sides of the switch.
        assert!(matches!(
            PairSeq::new(DENSE_PAIR_LIMIT + 1),
            PairSeq::Sparse(_)
        ));
        assert_pair_seq_parity(DENSE_PAIR_LIMIT + 1, 2_000, 33);
    }

    #[test]
    fn pair_seq_post_increments_per_ordered_pair() {
        let mut seq = PairSeq::new(4);
        let (a, b) = (ProcessId::new(0), ProcessId::new(1));
        assert_eq!(seq.next(a, b), 0);
        assert_eq!(seq.next(a, b), 1);
        // The reverse direction is a different ordered pair.
        assert_eq!(seq.next(b, a), 0);
    }
}
