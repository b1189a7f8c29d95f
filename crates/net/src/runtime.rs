//! The typed layer over the socket mesh: frame encoding/decoding for
//! replica messages, the receiver-side delay hold, the server event
//! loop, and the blocking client.
//!
//! ## Serving
//!
//! [`run_server`] runs a [`Replica`] over [`Batch<S>`] and invokes
//! everything in its client queue as one Algorithm 1 op whenever no op
//! is pending: one timestamp and one broadcast for the whole queue, one
//! response frame per request. A request's latency bound is therefore
//! its batch's class bound — `d + ε` for a mixed batch.
//!
//! ## Timebase
//!
//! Every process of a run is handed the same *epoch* — a unix-µs
//! instant, picked once by whoever launches the run. A process's tick
//! counter is `unix_µs_now − epoch` sampled once at startup and then
//! advanced by a monotonic [`Instant`], so ticks are immune to wall
//! clock steps after startup but directly comparable across processes
//! on the same machine (one tick = one µs, exactly as in the
//! real-thread runtime).
//!
//! ## Delay injection
//!
//! A loopback TCP hop takes tens of µs; the model wants delays in
//! `[d − u, d]` ticks. As in the real-thread runtime the *sender* draws
//! a seeded delay — here from `[d − u, d − headroom]`, stamped into the
//! frame header — and the *receiver* holds the decoded batch until
//! `sent_at + delay` on the shared timebase. The headroom absorbs the
//! real wire-and-scheduling latency so total observed delay stays
//! within `[d − u, d]` even when a frame physically arrives late.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::io::{self, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skewbound_core::params::Params;
use skewbound_core::replica::{OpMsg, Replica, ReplicaTimer};
use skewbound_core::timestamp::Timestamp;
use skewbound_sim::history::History;
use skewbound_sim::ids::{MsgId, ProcessId, TimerId};
use skewbound_sim::node::{Activation, NodeCore, Stamp, TraceOutput};
use skewbound_sim::time::{ClockOffset, ClockTime, SimDuration, SimTime};
use skewbound_sim::trace::{TraceEvent, TraceEventKind, TraceSink};
use skewbound_sim::transport::{Transport, TransportError, WireTransport};
use skewbound_spec::combinators::Batch;
use skewbound_spec::seqspec::SequentialSpec;

use crate::tcp::{client_hello, read_frame, MeshListener, RawEvent, TcpMesh};
use crate::wire::{
    decode_batch, decode_frame, encode_batch, encode_frame, from_bytes, to_bytes, Decode, Encode,
    FrameHeader, FrameKind, WireError, HEADER_LEN, MAX_FRAME_LEN,
};

/// The shared run clock: ticks are µs since the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct TimeBase {
    start_instant: Instant,
    start_ticks: u64,
}

impl TimeBase {
    /// Anchors the timebase: samples the wall clock once against
    /// `epoch_micros` (unix µs) and advances monotonically from there.
    #[must_use]
    pub fn new(epoch_micros: u64) -> Self {
        let unix_now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock is before the unix epoch")
            .as_micros() as u64;
        TimeBase {
            start_instant: Instant::now(),
            start_ticks: unix_now.saturating_sub(epoch_micros),
        }
    }

    /// An epoch value for "now" — what a launcher passes to every
    /// process of a fresh run.
    #[must_use]
    pub fn epoch_now_micros() -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock is before the unix epoch")
            .as_micros() as u64
    }

    /// The current tick count (µs since the epoch).
    #[must_use]
    pub fn now_ticks(&self) -> u64 {
        self.start_ticks + self.start_instant.elapsed().as_micros() as u64
    }

    /// The [`Instant`] at which tick `t` is (or was) reached. Ticks
    /// before startup clamp to the start instant — they are already due.
    #[must_use]
    pub fn instant_for(&self, t: u64) -> Instant {
        self.start_instant + Duration::from_micros(t.saturating_sub(self.start_ticks))
    }
}

/// A timer armed by the server's node, waiting for its wall-clock
/// deadline (the socket backend's analogue of the real-thread runtime's
/// pending list).
struct Pending<T> {
    fire_at: Instant,
    id: TimerId,
    timer: T,
}

/// The typed [`Transport`] adapter over a byte-oriented
/// [`WireTransport`]: outgoing replica messages are encoded into one
/// frame per destination, stamped with a send tick and a seeded delay
/// draw; timers wait in a local pending list exactly as in the
/// real-thread runtime.
pub struct NetTransport<S: SequentialSpec> {
    wire: Box<dyn WireTransport>,
    base: TimeBase,
    rng: StdRng,
    /// Injected-delay draw bounds, in µs (`[d − u, d − headroom]`).
    delay_lo: u64,
    delay_hi: u64,
    /// High bits of every message id this process allocates; ids are
    /// `prefix | seq`, monotone per sender, disjoint across senders.
    msg_prefix: u64,
    next_seq: u64,
    pending: Vec<Pending<ReplicaTimer<S>>>,
}

impl<S: SequentialSpec> core::fmt::Debug for NetTransport<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetTransport")
            .field("delay_lo", &self.delay_lo)
            .field("delay_hi", &self.delay_hi)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<S: SequentialSpec> NetTransport<S> {
    /// Builds the adapter for one server process.
    #[must_use]
    pub fn new(wire: Box<dyn WireTransport>, cfg: &ServerConfig) -> Self {
        let (delay_lo, delay_hi) = cfg.delay_draw_bounds();
        NetTransport {
            wire,
            base: TimeBase::new(cfg.epoch_micros),
            rng: StdRng::seed_from_u64(cfg.seed ^ u64::from(cfg.pid.as_u32())),
            delay_lo,
            delay_hi,
            // +1 keeps process 0's ids out of the low range so a frame
            // id can never collide with a client request id.
            msg_prefix: (u64::from(cfg.pid.as_u32()) + 1) << 40,
            next_seq: 0,
            pending: Vec::new(),
        }
    }

    /// Pops the due pending timer with the earliest `(deadline, id)`,
    /// if any.
    fn pop_due(&mut self) -> Option<Pending<ReplicaTimer<S>>> {
        let now = Instant::now();
        let due = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, t)| t.fire_at <= now)
            .min_by_key(|(_, t)| (t.fire_at, t.id))
            .map(|(i, _)| i)?;
        Some(self.pending.swap_remove(due))
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().map(|t| t.fire_at).min()
    }

    fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }
}

impl<S> Transport<Replica<S>> for NetTransport<S>
where
    S: SequentialSpec,
    S::Op: Encode,
{
    fn send(
        &mut self,
        _from: ProcessId,
        to: ProcessId,
        msg: OpMsg<S>,
    ) -> Result<MsgId, TransportError> {
        let id = MsgId::new(self.msg_prefix | self.next_seq);
        self.next_seq += 1;
        let header = FrameHeader {
            kind: FrameKind::Peer,
            msg_id: id.as_u64(),
            sent_at_micros: self.base.now_ticks(),
            delay_micros: self.rng.gen_range(self.delay_lo..=self.delay_hi) as u32,
            batch: 1,
        };
        let frame = encode_frame(&header, &encode_batch(std::slice::from_ref(&msg)));
        self.wire.send_frame(to, &frame)?;
        Ok(id)
    }

    fn set_timer(
        &mut self,
        _pid: ProcessId,
        id: TimerId,
        delay: SimDuration,
        timer: ReplicaTimer<S>,
    ) {
        self.pending.push(Pending {
            fire_at: Instant::now() + Duration::from_micros(delay.as_ticks()),
            id,
            timer,
        });
    }

    fn cancel_timer(&mut self, _pid: ProcessId, id: TimerId) {
        self.pending.retain(|t| t.id != id);
    }
}

/// Everything a server process needs besides its object spec and its
/// mesh: identity, model parameters, determinism seed and the shared
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// This process's id.
    pub pid: ProcessId,
    /// Total number of replica processes.
    pub n: usize,
    /// The model parameters (`d`, `u`, `ε`, `X`) in µs-ticks.
    pub params: Params,
    /// Seed for the per-process delay draws.
    pub seed: u64,
    /// The run epoch, unix µs, shared by every process of the run.
    pub epoch_micros: u64,
    /// Headroom subtracted from `d` for the injected-delay ceiling, so
    /// injected delay plus real wire latency stays `≤ d`. Clamped to
    /// keep the draw interval non-empty.
    pub headroom_micros: u64,
}

impl ServerConfig {
    /// A config with the default headroom (`d / 8`, at least 500 µs).
    #[must_use]
    pub fn new(pid: ProcessId, n: usize, params: Params, seed: u64, epoch_micros: u64) -> Self {
        ServerConfig {
            pid,
            n,
            params,
            seed,
            epoch_micros,
            headroom_micros: (params.d().as_ticks() / 8).max(500),
        }
    }

    /// The injected-delay draw interval `[d − u, max(d − headroom, d − u)]`.
    #[must_use]
    pub fn delay_draw_bounds(&self) -> (u64, u64) {
        let d = self.params.d().as_ticks();
        let lo = d - self.params.u().as_ticks();
        let hi = d.saturating_sub(self.headroom_micros).max(lo);
        (lo, hi)
    }
}

/// Adapts an optional [`TraceSink`] to the node core's [`TraceOutput`]
/// at the grain of client requests. The node invokes and answers whole
/// batches, but a trace reader matches requests, so the adapter drops
/// the node's batch-level `invoke`/`respond` events and the serving
/// loop writes one per member instead ([`SinkOutput::members`]).
struct SinkOutput<'a> {
    pid: ProcessId,
    sink: Option<&'a mut dyn TraceSink>,
}

impl SinkOutput<'_> {
    /// Writes one `kind` event per member of a batch, in batch order,
    /// each carrying the member's `Debug` rendering.
    fn members<T: Debug>(
        &mut self,
        at: SimTime,
        members: &[T],
        kind: fn(String) -> TraceEventKind,
    ) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        for m in members {
            sink.event(&TraceEvent {
                at,
                clock: at.to_clock(ClockOffset::ZERO),
                pid: self.pid,
                kind: kind(format!("{m:?}")),
            });
        }
    }
}

impl TraceOutput for SinkOutput<'_> {
    fn active(&self) -> bool {
        self.sink.is_some()
    }

    fn emit(&mut self, event: TraceEvent) {
        if matches!(
            event.kind,
            TraceEventKind::Invoke { .. } | TraceEventKind::Respond { .. }
        ) {
            return;
        }
        if let Some(sink) = self.sink.as_mut() {
            sink.event(&event);
        }
    }
}

/// A decoded peer frame waiting out its injected delay. Its messages
/// carry the consecutive ids `first_id, first_id + 1, …`.
struct Held<S: SequentialSpec> {
    deliver_at: Instant,
    from: ProcessId,
    first_id: MsgId,
    msgs: Vec<OpMsg<S>>,
}

/// One queued client request; `len` is its encoded payload size.
struct ClientReq<O> {
    conn: u64,
    req_id: u64,
    op: O,
    len: usize,
}

/// Runs one replica server over `mesh` until it has been told to stop
/// (a [`FrameKind::Bye`] frame) *and* has drained: no held peer
/// frames, no queued or in-flight client operation, no armed timer,
/// and a full `2d` of quiet — by which point every frame another
/// replica sent before its own drain has long arrived. Returns the
/// server-side history, one record per batch.
///
/// ## Serving loop
///
/// The node is a [`Replica`] over [`Batch<S>`]: one Algorithm 1 op is a
/// `Vec` of client ops with one timestamp and one broadcast. Whenever
/// no op is pending and the client queue is non-empty, the whole queue
/// is invoked as the next batch, in FIFO order, and each request is
/// answered with its own element of the batch's response, one
/// `ClientResp` frame per request. A queue of one request is a batch of
/// one. There is no batch-size limit and no coalescing delay: a batch
/// holds what queued up while the previous one was pending, up to what
/// one peer frame ([`MAX_FRAME_LEN`]) can carry.
///
/// The batch's [`OpClass`](skewbound_spec::seqspec::OpClass) alone
/// picks its path, so a request's latency bound is its *batch's* class
/// bound: a batch of pure mutators responds at `ε + X`, a batch of pure
/// accessors at `d + ε − X`, and a mixed batch is an `Other` op that
/// responds within `d + ε` — also for the accessors and mutators in it.
///
/// Due timers and due held peer frames run in deadline order, and each
/// wake takes the arrivals already queued (up to a request that finds
/// no op pending, which is served at once), so the backlog after a
/// scheduling stall runs in the order the model would have run it.
///
/// With a trace sink, every request gets its own `invoke` and
/// `respond` event carrying the member op's and response's `Debug`
/// rendering, in queue order; sends, deliveries and timers are the
/// node's own.
///
/// # Panics
///
/// Panics on peer protocol violations (undecodable peer frames) and on
/// transport failures — for a replica process both are fatal. An
/// undecodable *client* request is not, nor one too large for a peer
/// frame: it is dropped, reported as the `net/dropped_client_reqs`
/// counter on `sink`, and serving goes on.
pub fn run_server<S>(
    spec: S,
    cfg: &ServerConfig,
    mesh: &TcpMesh,
    mut sink: Option<&mut dyn TraceSink>,
) -> History<Vec<S::Op>, Vec<S::Resp>>
where
    S: SequentialSpec,
    S::Op: Encode + Decode,
    S::Resp: Encode,
{
    let base = TimeBase::new(cfg.epoch_micros);
    let mut node = NodeCore::new(cfg.pid, cfg.n, Replica::new(Batch::new(spec), &cfg.params));
    let mut transport: NetTransport<Batch<S>> =
        NetTransport::new(Box::new(mesh.peer_sender()), cfg);
    let mut trace = SinkOutput {
        pid: cfg.pid,
        sink: sink.take().map(|s| s as &mut dyn TraceSink),
    };
    let mut history: History<Vec<S::Op>, Vec<S::Resp>> = History::new();
    let mut held: Vec<Held<Batch<S>>> = Vec::new();
    let mut client_q: VecDeque<ClientReq<S::Op>> = VecDeque::new();
    // The (connection, request id) of each member of the pending batch.
    let mut in_flight: Vec<(u64, u64)> = Vec::new();
    // A batch's peer frame body is this plus its members' payloads.
    let empty_batch: OpMsg<Batch<S>> = OpMsg {
        op: Vec::new(),
        ts: Timestamp::new(ClockTime::ZERO, cfg.pid),
    };
    let frame_overhead = HEADER_LEN + to_bytes(&empty_batch).len();
    let mut draining = false;
    let mut dropped_client_reqs: u64 = 0;
    let grace = Duration::from_micros(2 * cfg.params.d().as_ticks());
    let mut last_activity = Instant::now();

    let stamp_now = |base: &TimeBase| {
        let now = SimTime::from_ticks(base.now_ticks());
        Stamp {
            now,
            clock: now.to_clock(ClockOffset::ZERO),
        }
    };

    let start = stamp_now(&base);
    node.on_start(start, &mut transport, &mut trace, &mut history)
        .expect("transport failed during start");

    loop {
        // 1. Fire due timers and deliver due held frames, earliest
        // deadline first (a frame before a timer due at the same
        // instant). After a scheduling stall the backlog then runs in
        // the order the model would have run it: a timer must not fire
        // ahead of a frame that was due before it.
        loop {
            let now = Instant::now();
            let frame = held
                .iter()
                .enumerate()
                .filter(|(_, h)| h.deliver_at <= now)
                .min_by_key(|(_, h)| (h.deliver_at, h.first_id))
                .map(|(i, h)| (i, h.deliver_at));
            let timer_at = transport.next_deadline().filter(|&at| at <= now);
            let frame_first = match (frame, timer_at) {
                (None, None) => break,
                (Some((_, at)), Some(t)) => at <= t,
                (frame, _) => frame.is_some(),
            };
            last_activity = now;
            match frame {
                Some((i, _)) if frame_first => {
                    let h = held.swap_remove(i);
                    for (k, msg) in (0u64..).zip(h.msgs) {
                        let act = node
                            .on_message(
                                stamp_now(&base),
                                h.from,
                                MsgId::new(h.first_id.as_u64() + k),
                                msg,
                                &mut transport,
                                &mut trace,
                                &mut history,
                            )
                            .expect("transport failed during delivery");
                        reply_if_completed(act, &mut in_flight, &history, mesh, &mut trace);
                    }
                }
                _ => {
                    let t = transport.pop_due().expect("a timer is due");
                    let act = node
                        .on_timer(
                            stamp_now(&base),
                            t.id,
                            t.timer,
                            &mut transport,
                            &mut trace,
                            &mut history,
                        )
                        .expect("transport failed during timer");
                    reply_if_completed(act, &mut in_flight, &history, mesh, &mut trace);
                }
            }
        }

        // 2. Once the previous batch is done (the model's one pending
        // operation per process), invoke the queue as the next batch:
        // FIFO, as many requests as one peer frame can carry.
        if node.pending_op().is_none() && !client_q.is_empty() {
            last_activity = Instant::now();
            let mut body = frame_overhead;
            let take = client_q
                .iter()
                .take_while(|req| {
                    body += req.len;
                    body <= MAX_FRAME_LEN
                })
                .count();
            let ops: Vec<S::Op> = client_q
                .drain(..take)
                .map(|req| {
                    in_flight.push((req.conn, req.req_id));
                    req.op
                })
                .collect();
            let stamp = stamp_now(&base);
            trace.members(stamp.now, &ops, |op| TraceEventKind::Invoke { op });
            let act = node
                .on_invoke(stamp, ops, &mut transport, &mut trace, &mut history)
                .expect("transport failed during invoke");
            reply_if_completed(act, &mut in_flight, &history, mesh, &mut trace);
            continue; // the invoke may have armed immediately-due timers
        }

        // 3. Drained and quiet? Then stop.
        let idle = held.is_empty()
            && client_q.is_empty()
            && node.pending_op().is_none()
            && !transport.has_pending();
        if draining && idle && last_activity.elapsed() >= grace {
            break;
        }

        // 4. Sleep until the next deadline (timer or held frame), the
        // next mesh arrival, or a short poll; then take the arrivals
        // already queued behind it, so that step 1 sees the frames that
        // have reached this process.
        let now = Instant::now();
        let mut timeout = if draining && idle {
            grace.saturating_sub(last_activity.elapsed())
        } else {
            Duration::from_millis(10)
        };
        for deadline in transport
            .next_deadline()
            .into_iter()
            .chain(held.iter().map(|h| h.deliver_at))
        {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        let mut arrival = mesh.recv_timeout(timeout.max(Duration::from_micros(100)));
        while let Some(event) = arrival {
            last_activity = Instant::now();
            match event {
                RawEvent::Peer {
                    from,
                    header,
                    payload,
                } => {
                    let msgs: Vec<OpMsg<Batch<S>>> = decode_batch(&payload, header.batch as usize)
                        .expect("peer sent an undecodable message batch");
                    held.push(Held {
                        deliver_at: base
                            .instant_for(header.sent_at_micros + u64::from(header.delay_micros)),
                        from,
                        first_id: MsgId::new(header.msg_id),
                        msgs,
                    });
                }
                RawEvent::Client {
                    conn,
                    header,
                    payload,
                } => {
                    match header.kind {
                        FrameKind::ClientReq => {
                            // A request must fit a peer frame on its own.
                            let body = frame_overhead + payload.len();
                            let op = from_bytes::<S::Op>(&payload).and_then(|op| {
                                if body <= MAX_FRAME_LEN {
                                    Ok(op)
                                } else {
                                    Err(WireError::FrameTooLarge(body))
                                }
                            });
                            match op {
                                Ok(op) => client_q.push_back(ClientReq {
                                    conn,
                                    req_id: header.msg_id,
                                    op,
                                    len: payload.len(),
                                }),
                                // A client's garbage is its own problem: drop
                                // the request (the client never gets a
                                // response) and keep serving everyone else.
                                Err(e) => {
                                    dropped_client_reqs += 1;
                                    // Log at powers of two so a flood of garbage
                                    // cannot flood the log.
                                    if dropped_client_reqs.is_power_of_two() {
                                        eprintln!(
                                            "dropped {dropped_client_reqs} client request(s); \
                                         latest from client {conn}: {e}"
                                        );
                                    }
                                    if let Some(sink) = trace.sink.as_mut() {
                                        sink.counter("net", "dropped_client_reqs", 1);
                                    }
                                }
                            }
                        }
                        FrameKind::Bye => draining = true,
                        _ => {}
                    }
                }
                RawEvent::ClientGone { .. } => {}
            }
            // A request that finds no op pending is served at once, on
            // its own or with what queued before it: taking the requests
            // queued behind it as well measurably splits a closed loop
            // into two mixed (`d + ε`) batches per cycle instead of a
            // fast lone op and one mixed batch.
            arrival = if node.pending_op().is_none() && !client_q.is_empty() {
                None
            } else {
                mesh.recv_timeout(Duration::ZERO)
            };
        }
    }
    history
}

/// If the activation completed the pending batch, answers each member
/// request with its own response — one `ClientResp` frame per request,
/// in batch order — and writes their `respond` trace events.
fn reply_if_completed<O, R>(
    act: Activation,
    in_flight: &mut Vec<(u64, u64)>,
    history: &History<Vec<O>, Vec<R>>,
    mesh: &TcpMesh,
    trace: &mut SinkOutput<'_>,
) where
    R: Encode + Debug,
{
    let Activation::Completed(op_id) = act else {
        return;
    };
    let rec = history
        .get(op_id)
        .expect("completed batch is in the history");
    let (resps, at) = rec
        .response
        .as_ref()
        .expect("completed batch has a response");
    assert_eq!(resps.len(), in_flight.len(), "one response per member");
    trace.members(*at, resps, |resp| TraceEventKind::Respond { resp });
    for ((conn, req_id), resp) in in_flight.drain(..).zip(resps) {
        let frame = encode_frame(
            &FrameHeader {
                kind: FrameKind::ClientResp,
                msg_id: req_id,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            },
            &to_bytes(resp),
        );
        // A vanished client is not a server error; the operation still
        // executed and is in the history.
        let _ = mesh.send_to_client(conn, &frame);
    }
}

/// A blocking closed-loop client of one server: one operation in
/// flight at a time, matched to its response by request id.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
}

impl NetClient {
    /// Connects and identifies as a client session.
    ///
    /// # Errors
    ///
    /// Propagates connection and handshake I/O failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&client_hello())?;
        Ok(NetClient { stream, next_id: 1 })
    }

    /// Invokes one operation and blocks until its response arrives.
    ///
    /// # Errors
    ///
    /// Propagates socket failures; a server that closes the connection
    /// mid-operation surfaces as [`ErrorKind::UnexpectedEof`], an
    /// undecodable response as [`ErrorKind::InvalidData`].
    pub fn invoke<Op: Encode, Resp: Decode>(&mut self, op: &Op) -> io::Result<Resp> {
        let req_id = self.next_id;
        self.next_id += 1;
        let frame = encode_frame(
            &FrameHeader {
                kind: FrameKind::ClientReq,
                msg_id: req_id,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            },
            &to_bytes(op),
        );
        self.stream.write_all(&frame)?;
        loop {
            let Some(body) = read_frame(&mut self.stream)? else {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ));
            };
            let (header, payload) = decode_frame(&body)
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
            if header.kind == FrameKind::ClientResp && header.msg_id == req_id {
                return from_bytes(payload)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()));
            }
        }
    }

    /// Tells the server to drain and stop once quiet.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn bye(&mut self) -> io::Result<()> {
        let frame = encode_frame(
            &FrameHeader {
                kind: FrameKind::Bye,
                msg_id: 0,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            },
            &[],
        );
        self.stream.write_all(&frame)
    }
}

/// Runs a complete `n`-process workload over TCP loopback and returns
/// the *client-observed* history — the socket backend's analogue of the
/// engine's `run_history` and the real-thread runtime's
/// `run_history_rt`, for three-way parity testing.
///
/// One server and one closed-loop client per process; client `i` talks
/// only to server `i` (the model's "operation invoked at process `i`").
/// Invocation and response instants are client-side ticks on the shared
/// timebase, so the merged history reflects true real-time order across
/// processes.
///
/// # Panics
///
/// Panics on any socket, protocol or thread failure — in the parity
/// tests all of these are hard errors.
pub fn run_history_net<S, F, G>(
    make_spec: F,
    params: &Params,
    seed: u64,
    ops_per_process: usize,
    gen: G,
) -> History<S::Op, S::Resp>
where
    S: SequentialSpec + Send,
    S::State: Send,
    S::Op: Encode + Decode + Send + Sync,
    S::Resp: Encode + Decode + Send,
    F: Fn() -> S + Sync,
    G: Fn(ProcessId, usize) -> S::Op + Sync,
{
    let n = params.n();
    let epoch = TimeBase::epoch_now_micros();
    let base = TimeBase::new(epoch);

    // Bind first so every process can be told all addresses.
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for pid in 0..n {
        let l = MeshListener::bind(ProcessId::new(pid as u32), "127.0.0.1:0")
            .expect("bind loopback listener");
        addrs.push(l.local_addr().expect("query listener address"));
        listeners.push(l);
    }

    type Rec<S> = (
        ProcessId,
        <S as SequentialSpec>::Op,
        u64,
        <S as SequentialSpec>::Resp,
        u64,
    );
    let records: Mutex<Vec<Rec<S>>> = Mutex::new(Vec::with_capacity(n * ops_per_process));
    let all_done = Barrier::new(n);

    std::thread::scope(|scope| {
        for (pid, listener) in listeners.into_iter().enumerate() {
            let pid = ProcessId::new(pid as u32);
            let peers: Vec<_> = addrs
                .iter()
                .enumerate()
                .filter(|&(q, _)| q != pid.index())
                .map(|(q, &a)| (ProcessId::new(q as u32), a))
                .collect();
            let mut cfg = ServerConfig::new(pid, n, *params, seed, epoch);
            // The test mesh shares the host (often a single core) with
            // its own clients, so reserve most of u as scheduling-jitter
            // allowance: a delivery processed later than `d` after its
            // send breaks the partial-synchrony assumption Algorithm 1's
            // replica agreement rests on.
            cfg.headroom_micros = cfg.headroom_micros.max(params.u().as_ticks() * 7 / 8);
            let make_spec = &make_spec;
            scope.spawn(move || {
                let mesh = listener.start(&peers).expect("start mesh");
                run_server(make_spec(), &cfg, &mesh, None);
                mesh.shutdown();
            });
        }
        for pid in 0..n {
            let pid = ProcessId::new(pid as u32);
            let addr = addrs[pid.index()];
            let (gen, records, base, all_done) = (&gen, &records, &base, &all_done);
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect client");
                for k in 0..ops_per_process {
                    let op = gen(pid, k);
                    let invoked = base.now_ticks();
                    let resp: S::Resp = client.invoke(&op).expect("invoke over loopback");
                    let responded = base.now_ticks();
                    records
                        .lock()
                        .unwrap()
                        .push((pid, op, invoked, resp, responded));
                }
                // Every client must finish before any server is told to
                // drain, else a still-active client would block on a
                // server that has already exited.
                all_done.wait();
                client.bye().expect("send bye");
            });
        }
    });

    let mut records = records.into_inner().unwrap();
    records.sort_by_key(|&(pid, _, invoked, _, _)| (invoked, pid.as_u32()));
    let mut history = History::with_capacity(records.len());
    for (pid, op, invoked, resp, responded) in records {
        let id = history.record_invoke(pid, op, SimTime::from_ticks(invoked));
        history.record_response(id, resp, SimTime::from_ticks(responded));
    }
    history
}
