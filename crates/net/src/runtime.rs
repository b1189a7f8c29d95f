//! The typed layer over the socket mesh: frame encoding/decoding for
//! replica messages, the receiver-side delay hold, the server event
//! loop, and the blocking client.
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
use std::io::{self, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skewbound_core::params::Params;
use skewbound_core::replica::{OpMsg, Replica, ReplicaTimer};
use skewbound_sim::history::History;
use skewbound_sim::ids::{MsgId, ProcessId, TimerId};
use skewbound_sim::node::{Activation, NodeCore, Stamp, TraceOutput};
use skewbound_sim::time::{ClockOffset, SimDuration, SimTime};
use skewbound_sim::trace::{TraceEvent, TraceSink};
use skewbound_sim::transport::{Transport, TransportError, WireTransport};
use skewbound_spec::seqspec::SequentialSpec;

use crate::tcp::{client_hello, read_frame, MeshListener, RawEvent, TcpMesh};
use crate::wire::{
    decode_batch, decode_frame, encode_batch, encode_frame, from_bytes, to_bytes, Decode, Encode,
    FrameHeader, FrameKind,
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

    fn send_encoded(
        &mut self,
        to: ProcessId,
        payload: Vec<u8>,
        batch: u32,
    ) -> Result<MsgId, TransportError> {
        let first = MsgId::new(self.msg_prefix | self.next_seq);
        self.next_seq += u64::from(batch);
        let header = FrameHeader {
            kind: FrameKind::Peer,
            msg_id: first.as_u64(),
            sent_at_micros: self.base.now_ticks(),
            delay_micros: self.rng.gen_range(self.delay_lo..=self.delay_hi) as u32,
            batch,
        };
        let frame = encode_frame(&header, &payload);
        self.wire.send_frame(to, &frame)?;
        Ok(first)
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
        let payload = encode_batch(std::slice::from_ref(&msg));
        self.send_encoded(to, payload, 1)
    }

    fn send_batch(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msgs: Vec<OpMsg<S>>,
    ) -> Result<MsgId, TransportError> {
        assert!(!msgs.is_empty(), "empty delivery batch {from}->{to}");
        let payload = encode_batch(&msgs);
        let batch = u32::try_from(msgs.len()).expect("batch length fits u32");
        self.send_encoded(to, payload, batch)
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

/// Adapts an optional [`TraceSink`] to the node core's [`TraceOutput`].
struct SinkOutput<'a> {
    sink: Option<&'a mut dyn TraceSink>,
}

impl TraceOutput for SinkOutput<'_> {
    fn active(&self) -> bool {
        self.sink.is_some()
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.event(&event);
        }
    }
}

/// A decoded peer batch waiting out its injected delay.
struct Held<S: SequentialSpec> {
    deliver_at: Instant,
    from: ProcessId,
    first_id: MsgId,
    msgs: Vec<OpMsg<S>>,
}

/// One queued client request.
struct ClientReq<O> {
    conn: u64,
    req_id: u64,
    op: O,
}

/// Runs one replica server over `mesh` until it has been told to stop
/// (a [`FrameKind::Bye`] frame) *and* has drained: no held peer
/// batches, no queued or in-flight client operation, no armed timer,
/// and a full `2d` of quiet — by which point every frame another
/// replica sent before its own drain has long arrived. Returns the
/// server-side history.
///
/// # Panics
///
/// Panics on peer protocol violations (undecodable peer frames) and on
/// transport failures — for a replica process both are fatal. An
/// undecodable *client* request is not: it is dropped, reported as the
/// `net/dropped_client_reqs` counter on `sink`, and serving goes on.
pub fn run_server<S>(
    spec: S,
    cfg: &ServerConfig,
    mesh: &TcpMesh,
    mut sink: Option<&mut dyn TraceSink>,
) -> History<S::Op, S::Resp>
where
    S: SequentialSpec,
    S::Op: Encode + Decode,
    S::Resp: Encode,
{
    let base = TimeBase::new(cfg.epoch_micros);
    let mut node = NodeCore::new(cfg.pid, cfg.n, Replica::new(spec, &cfg.params));
    let mut transport: NetTransport<S> = NetTransport::new(Box::new(mesh.peer_sender()), cfg);
    let mut trace = SinkOutput {
        sink: sink.take().map(|s| s as &mut dyn TraceSink),
    };
    let mut history: History<S::Op, S::Resp> = History::new();
    let mut held: Vec<Held<S>> = Vec::new();
    let mut client_q: VecDeque<ClientReq<S::Op>> = VecDeque::new();
    // The (connection, request id) awaiting the pending op's response.
    let mut in_flight: Option<(u64, u64)> = None;
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
        // 1. Fire every due timer (earliest first).
        while let Some(t) = transport.pop_due() {
            last_activity = Instant::now();
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
            reply_if_completed::<S>(act, &mut in_flight, &history, mesh);
        }

        // 2. Deliver every held peer batch whose injected delay has
        // elapsed, in (deliver_at, first_id) order.
        loop {
            let now = Instant::now();
            let due = held
                .iter()
                .enumerate()
                .filter(|(_, h)| h.deliver_at <= now)
                .min_by_key(|(_, h)| (h.deliver_at, h.first_id))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let h = held.swap_remove(i);
            last_activity = Instant::now();
            let act = node
                .on_message_batch(
                    stamp_now(&base),
                    h.from,
                    h.first_id,
                    h.msgs,
                    &mut transport,
                    &mut trace,
                    &mut history,
                )
                .expect("transport failed during delivery");
            reply_if_completed::<S>(act, &mut in_flight, &history, mesh);
        }

        // 3. Start the next client operation once the previous one is
        // done (the model's one-pending-operation-per-process rule).
        if node.pending_op().is_none() {
            if let Some(req) = client_q.pop_front() {
                last_activity = Instant::now();
                in_flight = Some((req.conn, req.req_id));
                let act = node
                    .on_invoke(
                        stamp_now(&base),
                        req.op,
                        &mut transport,
                        &mut trace,
                        &mut history,
                    )
                    .expect("transport failed during invoke");
                reply_if_completed::<S>(act, &mut in_flight, &history, mesh);
                continue; // the invoke may have armed immediately-due timers
            }
        }

        // 4. Drained and quiet? Then stop.
        let idle = held.is_empty()
            && client_q.is_empty()
            && node.pending_op().is_none()
            && !transport.has_pending();
        if draining && idle && last_activity.elapsed() >= grace {
            break;
        }

        // 5. Sleep until the next deadline (timer or held batch), the
        // next mesh arrival, or a short poll.
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
        match mesh.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Some(RawEvent::Peer {
                from,
                header,
                payload,
            }) => {
                last_activity = Instant::now();
                let msgs: Vec<OpMsg<S>> = decode_batch(&payload, header.batch as usize)
                    .expect("peer sent an undecodable message batch");
                held.push(Held {
                    deliver_at: base
                        .instant_for(header.sent_at_micros + u64::from(header.delay_micros)),
                    from,
                    first_id: MsgId::new(header.msg_id),
                    msgs,
                });
            }
            Some(RawEvent::Client {
                conn,
                header,
                payload,
            }) => {
                last_activity = Instant::now();
                match header.kind {
                    FrameKind::ClientReq => match from_bytes::<S::Op>(&payload) {
                        Ok(op) => client_q.push_back(ClientReq {
                            conn,
                            req_id: header.msg_id,
                            op,
                        }),
                        // A client's garbage is its own problem: drop the
                        // request (the client never gets a response) and
                        // keep serving everyone else.
                        Err(e) => {
                            dropped_client_reqs += 1;
                            // Log at powers of two so a flood of garbage
                            // cannot flood the log.
                            if dropped_client_reqs.is_power_of_two() {
                                eprintln!(
                                    "dropped {dropped_client_reqs} undecodable client \
                                     request(s); latest from client {conn}: {e}"
                                );
                            }
                            if let Some(sink) = trace.sink.as_mut() {
                                sink.counter("net", "dropped_client_reqs", 1);
                            }
                        }
                    },
                    FrameKind::Bye => draining = true,
                    _ => {}
                }
            }
            Some(RawEvent::ClientGone { .. }) | None => {}
        }
    }
    history
}

/// If the activation completed the pending operation, encode its
/// response and push it to the waiting client connection.
fn reply_if_completed<S>(
    act: Activation,
    in_flight: &mut Option<(u64, u64)>,
    history: &History<S::Op, S::Resp>,
    mesh: &TcpMesh,
) where
    S: SequentialSpec,
    S::Resp: Encode,
{
    let Activation::Completed(op_id) = act else {
        return;
    };
    let Some((conn, req_id)) = in_flight.take() else {
        return;
    };
    let rec = history.get(op_id).expect("completed op is in the history");
    let (resp, _) = rec.response.as_ref().expect("completed op has a response");
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
