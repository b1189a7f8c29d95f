//! `net-queue-paced` and `net-queue-saturated`: a three-replica TCP
//! loopback mesh of `skewbound-serve --object queue` processes, driven
//! by a pipelined client.
//!
//! The client multiplexes its requests over at most `nproc` (and at most
//! two) connections, to replicas 0 and 1; replica 2 only replicates.
//! Requests carry ids, so any number may be outstanding per connection;
//! send and receive instants are stamped on the run's shared
//! [`TimeBase`], the same clock the servers stamp their traces with.
//!
//! Every key's client-observed history is checked for linearizability
//! against the inner queue spec after the run; checking is excluded from
//! the timed window.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use skewbound_core::params::Params;
use skewbound_core::replica::OpMsg;
use skewbound_core::timestamp::Timestamp;
use skewbound_lin::checker::{check_history_stats, CheckLimits};
use skewbound_lint::audit::{audit_events, AuditConfig};
use skewbound_lint::json::{self, Json};
use skewbound_net::runtime::TimeBase;
use skewbound_net::tcp::{client_hello, read_frame};
use skewbound_net::wire::{decode_frame, encode_batch, encode_frame, from_bytes, to_bytes};
use skewbound_net::wire::{FrameKind, HEADER_LEN};
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{ClockTime, SimDuration, SimTime};
use skewbound_spec::namespace::{Namespace, NsOp};
use skewbound_spec::queue::{Queue, QueueOp, QueueResp};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::gen::{paced_schedule, Sessions, PROBE_KEY_BASE};
use crate::probe::{codec, header, KeepAwake};
use crate::stats::{median, peak_rss_mb, quantile, Spread};
use crate::{class_bound_ms, ClassLatency, Outcome};

/// Replica processes in the mesh.
const REPLICAS: usize = 3;
/// Maximum message delay `d`, µs.
const D: u64 = 16_000;
/// Delay uncertainty `u`, µs: injected delays lie in `[d − u, d]`.
const U: u64 = 14_000;
/// Accessor/mutator trade-off `X`, µs: AOPs take `d + ε − X`, MOPs
/// `ε + X`. Splitting the difference keeps both well above the host's
/// wake-up jitter.
const X: u64 = 8_000;
/// Injected delays are drawn from `[d − u, d − HEADROOM]`, leaving
/// `HEADROOM` µs for loopback transit and scheduling before a delivery
/// would fall outside `[d − u, d]`.
const HEADROOM: u64 = 12_000;
/// Offered load of the paced workload, ops/s over all connections.
const PACED_RATE: f64 = 12.0;
/// Closed-loop sessions per connection in the saturated workload.
const SESSIONS_PER_CONN: usize = 8;
/// Quiet time after set-up, so every mesh link is dialled before the
/// measured window.
const SETTLE: Duration = Duration::from_millis(300);
/// Mesh launches per run (each spawns three processes); the median
/// set-up time is reported.
const SETUPS: usize = 9;
/// A request unanswered this long counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Paced,
    Saturated,
}

fn params() -> Params {
    Params::with_optimal_skew(
        REPLICAS,
        SimDuration::from_ticks(D),
        SimDuration::from_ticks(U),
        SimDuration::from_ticks(X),
    )
    .expect("fixed mesh parameters are valid")
}

/// One request as the client saw it. Ticks are µs on the shared
/// [`TimeBase`].
#[derive(Debug, Clone)]
struct Req {
    key: u64,
    op: QueueOp<i64>,
    /// When the request was due (open loop) or sent (closed loop).
    due: u64,
    sent: u64,
    recv: Option<u64>,
    resp: Option<QueueResp<i64>>,
}

impl Req {
    fn new(key: u64, op: QueueOp<i64>, due: u64) -> Self {
        Req {
            key,
            op,
            due,
            sent: due,
            recv: None,
            resp: None,
        }
    }

    fn class(&self) -> OpClass {
        Namespace::new(Queue::<i64>::new()).class(&NsOp::new(self.key, self.op.clone()))
    }
}

/// Request `j` on a connection carries id `j + 1`; `j = 0` is the
/// set-up probe.
fn request_frame(j: usize, req: &Req) -> Vec<u8> {
    encode_frame(
        &header(FrameKind::ClientReq, j as u64 + 1),
        &to_bytes(&NsOp::new(req.key, req.op.clone())),
    )
}

/// Reads the next response: its request index, receive tick and value.
fn read_response(
    stream: &mut TcpStream,
    base: &TimeBase,
) -> io::Result<(usize, u64, QueueResp<i64>)> {
    loop {
        let body = read_frame(stream)?.ok_or_else(|| {
            io::Error::new(ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let recv = base.now_ticks();
        let (h, payload) = decode_frame(&body)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        if h.kind != FrameKind::ClientResp || h.msg_id == 0 {
            continue;
        }
        let resp = from_bytes(payload)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        return Ok((h.msg_id as usize - 1, recv, resp));
    }
}

/// A running mesh: the server processes, one client stream per replica
/// (the first `conns` carry load, the rest only the final `Bye`).
struct Mesh {
    children: Vec<Child>,
    streams: Vec<TcpStream>,
    base: TimeBase,
    /// Per load connection, the set-up probe (request 0).
    probes: Vec<Req>,
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

impl Mesh {
    /// Spawns the replicas, connects, and answers one probe per load
    /// connection. Returns the mesh and the seconds from spawn to the
    /// last probe answer.
    fn launch(
        serve: &Path,
        seed: u64,
        conns: usize,
        traces: &[PathBuf],
    ) -> io::Result<(Self, f64)> {
        let addrs = free_addrs(REPLICAS)?;
        let epoch = TimeBase::epoch_now_micros();
        let base = TimeBase::new(epoch);
        let start = Instant::now();
        let mut mesh = Mesh {
            children: Vec::new(),
            streams: Vec::new(),
            base,
            probes: Vec::new(),
        };
        for (i, addr) in addrs.iter().enumerate() {
            let mut cmd = Command::new(serve);
            cmd.args(["--pid", &i.to_string(), "--listen", &addr.to_string()]);
            for (j, peer) in addrs.iter().enumerate().filter(|&(j, _)| j != i) {
                cmd.args(["--peer", &format!("{j}={peer}")]);
            }
            cmd.args([
                "--object",
                "queue",
                "--d",
                &D.to_string(),
                "--u",
                &U.to_string(),
            ])
            .args(["--x", &X.to_string()])
            .args([
                "--epoch-micros",
                &epoch.to_string(),
                "--seed",
                &seed.to_string(),
            ])
            .args(["--headroom", &HEADROOM.to_string()]);
            if let Some(path) = traces.get(i) {
                cmd.arg("--trace").arg(path);
            }
            mesh.children.push(cmd.stdout(Stdio::null()).spawn()?);
        }
        for (i, addr) in addrs.iter().enumerate() {
            // A replica's acceptor polls every 20 ms. A client that
            // connects before its first poll is served at once, one that
            // connects just after waits a whole poll; which of the two a
            // launch hits depends on start-up jitter, and made set-up
            // time bimodal (about 42 or 58 ms) from run to run. So wait
            // until the replica listens, let its first poll pass, and
            // only then connect the session: every launch then waits
            // for the second poll.
            loop {
                match TcpStream::connect(addr) {
                    Ok(_) => break,
                    Err(e) => {
                        if mesh.children[i].try_wait()?.is_some() || start.elapsed() > IO_TIMEOUT {
                            return Err(e);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.write_all(&client_hello())?;
            mesh.streams.push(stream);
        }
        for c in 0..conns {
            let mut probe = Req::new(PROBE_KEY_BASE + c as u64, QueueOp::Peek, base.now_ticks());
            mesh.streams[c].write_all(&request_frame(0, &probe))?;
            let (j, recv, resp) = read_response(&mut mesh.streams[c], &base)?;
            if j != 0 || resp != QueueResp::Value(None) {
                return Err(io::Error::new(ErrorKind::InvalidData, "wrong probe answer"));
            }
            probe.recv = Some(recv);
            probe.resp = Some(resp);
            mesh.probes.push(probe);
        }
        Ok((mesh, start.elapsed().as_secs_f64()))
    }

    /// Launches, retrying twice (a port picked free may be taken by the
    /// time a replica binds it).
    fn launch_retrying(serve: &Path, seed: u64, conns: usize, traces: &[PathBuf]) -> (Self, f64) {
        let mut last = None;
        for _ in 0..3 {
            match Mesh::launch(serve, seed, conns, traces) {
                Ok(m) => return m,
                Err(e) => last = Some(e),
            }
        }
        panic!("cannot launch the mesh: {last:?}");
    }

    /// The largest peak RSS over the replica processes, MiB.
    fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| peak_rss_mb(&c.id().to_string()))
            .fold(0.0, f64::max)
    }

    /// Tells every replica to drain and waits for each to exit.
    fn close(mut self) -> io::Result<()> {
        let bye = encode_frame(&header(FrameKind::Bye, 0), &[]);
        for s in &mut self.streams {
            s.write_all(&bye)?;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut self.children {
            loop {
                if let Some(status) = child.try_wait()? {
                    if !status.success() {
                        return Err(io::Error::other(format!("replica exited with {status}")));
                    }
                    break;
                }
                if Instant::now() > deadline {
                    return Err(io::Error::new(ErrorKind::TimedOut, "replica did not drain"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }
}

/// Waits up to `timeout` for `stream` to have bytes to read.
fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    stream.set_read_timeout(Some(timeout))?;
    let ready = match stream.peek(&mut [0u8; 1]) {
        Ok(0) => Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
        Ok(_) => Ok(true),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
        Err(e) => Err(e),
    };
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    ready
}

/// Open loop: one thread sends every arrival at its due tick, on the
/// connection with the fewest requests outstanding (ties rotate), while
/// one thread per connection collects responses.
fn paced(mesh: &Mesh, seed: u64, seconds: f64, conns: usize) -> Vec<Vec<Req>> {
    let schedule = paced_schedule(seed, PACED_RATE, (seconds * 1e6) as u64);
    let base = &mesh.base;
    let t0 = base.now_ticks() + 1_000;
    let outstanding: Vec<AtomicUsize> = (0..conns).map(|_| AtomicUsize::new(0)).collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let receivers: Vec<_> = (0..conns)
            .map(|c| {
                let mut rx = mesh.streams[c].try_clone().expect("clone client stream");
                let (outstanding, done) = (&outstanding[c], &done);
                scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut progress = Instant::now();
                    while !(done.load(Ordering::SeqCst) && outstanding.load(Ordering::SeqCst) == 0)
                    {
                        match readable(&rx, Duration::from_millis(20)) {
                            Ok(true) => {}
                            Ok(false) if progress.elapsed() < IO_TIMEOUT => continue,
                            _ => break,
                        }
                        match read_response(&mut rx, base) {
                            Ok(r) => got.push(r),
                            Err(_) => break,
                        }
                        outstanding.fetch_sub(1, Ordering::SeqCst);
                        progress = Instant::now();
                    }
                    got
                })
            })
            .collect();

        let mut tx: Vec<TcpStream> = mesh.streams[..conns]
            .iter()
            .map(|s| s.try_clone().expect("clone client stream"))
            .collect();
        let mut reqs: Vec<Vec<Req>> = mesh.probes.iter().map(|p| vec![p.clone()]).collect();
        for (i, a) in schedule.iter().enumerate() {
            let due = t0 + a.due_micros;
            std::thread::sleep(
                base.instant_for(due)
                    .saturating_duration_since(Instant::now()),
            );
            let c = (0..conns)
                .min_by_key(|&c| {
                    (
                        outstanding[c].load(Ordering::SeqCst),
                        (c + conns - i % conns) % conns,
                    )
                })
                .expect("at least one connection");
            let mut r = Req::new(a.key, a.op.clone(), due);
            let frame = request_frame(reqs[c].len(), &r);
            outstanding[c].fetch_add(1, Ordering::SeqCst);
            r.sent = base.now_ticks();
            if tx[c].write_all(&frame).is_err() {
                outstanding[c].fetch_sub(1, Ordering::SeqCst);
            }
            reqs[c].push(r);
        }
        done.store(true, Ordering::SeqCst);
        for (c, receiver) in receivers.into_iter().enumerate() {
            for (j, recv, resp) in receiver.join().expect("receiver thread") {
                if let Some(r) = reqs[c].get_mut(j) {
                    r.recv = Some(recv);
                    r.resp = Some(resp);
                }
            }
        }
        reqs
    })
}

/// Closed loop: each session keeps one request outstanding; a
/// connection's thread sends a session's next op as soon as its previous
/// response arrives, until the window ends.
fn saturated(mesh: &Mesh, seed: u64, seconds: f64, conns: usize) -> Vec<Vec<Req>> {
    let sessions = Sessions {
        seed,
        conns,
        per_conn: SESSIONS_PER_CONN,
    };
    let base = &mesh.base;
    let deadline = base.now_ticks() + (seconds * 1e6) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut stream = mesh.streams[c].try_clone().expect("clone client stream");
                let probe = mesh.probes[c].clone();
                scope.spawn(move || {
                    let mut reqs = vec![probe];
                    let mut owner = vec![usize::MAX];
                    let mut next_k = BTreeMap::new();
                    let mut send = |s: usize, reqs: &mut Vec<Req>, owner: &mut Vec<usize>| {
                        let k = next_k.entry(s).or_insert(0u64);
                        let (key, op) = sessions.op(s, *k);
                        *k += 1;
                        let mut r = Req::new(key, op, base.now_ticks());
                        let frame = request_frame(reqs.len(), &r);
                        r.sent = base.now_ticks();
                        r.due = r.sent;
                        reqs.push(r);
                        owner.push(s);
                        stream.write_all(&frame).is_ok()
                    };
                    let mine: Vec<usize> = (0..sessions.count())
                        .filter(|&s| sessions.conn(s) == c)
                        .collect();
                    let mut outstanding = 0usize;
                    for &s in &mine {
                        outstanding += usize::from(send(s, &mut reqs, &mut owner));
                    }
                    let mut rx = mesh.streams[c].try_clone().expect("clone client stream");
                    while outstanding > 0 {
                        let Ok((j, recv, resp)) = read_response(&mut rx, base) else {
                            break;
                        };
                        let Some(r) = reqs.get_mut(j) else { break };
                        r.recv = Some(recv);
                        r.resp = Some(resp);
                        if recv >= deadline || !send(owner[j], &mut reqs, &mut owner) {
                            outstanding -= 1;
                        }
                    }
                    reqs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    })
}

/// What the per-key linearizability check found.
#[derive(Default)]
struct Checked {
    failed: u64,
    keys: u64,
    nodes: u64,
    memo_hits: u64,
    check_secs: f64,
}

/// Checks every key's client-observed history against the queue spec.
/// An op fails if it got no answer; every op of a key fails if any of
/// its ops failed or its history is not linearizable.
fn check(conns: &[Vec<Req>]) -> Checked {
    let mut by_key: BTreeMap<u64, Vec<(usize, &Req)>> = BTreeMap::new();
    for (c, reqs) in conns.iter().enumerate() {
        for r in reqs.iter().skip(1) {
            by_key.entry(r.key).or_default().push((c, r));
        }
    }
    let start = Instant::now();
    let spec = Queue::<i64>::new();
    let mut out = Checked::default();
    for ops in by_key.values_mut() {
        out.keys += 1;
        let answered = ops.iter().all(|(_, r)| r.resp.is_some());
        let linearizable = answered && {
            ops.sort_by_key(|(c, r)| (r.sent, *c));
            let mut h = History::with_capacity(ops.len());
            for (c, r) in ops.iter() {
                let id = h.record_invoke(
                    ProcessId::new(*c as u32),
                    r.op.clone(),
                    SimTime::from_ticks(r.sent),
                );
                let (resp, recv) = (r.resp.clone().expect("answered"), r.recv.expect("answered"));
                h.record_response(id, resp, SimTime::from_ticks(recv));
            }
            let (outcome, stats) = check_history_stats(&spec, &h, CheckLimits::default());
            out.nodes += stats.nodes;
            out.memo_hits += stats.memo_hits;
            outcome.is_linearizable()
        };
        if !linearizable {
            out.failed += ops.len() as u64;
        }
    }
    out.check_secs = start.elapsed().as_secs_f64();
    out
}

/// One replica's trace events of interest, in file order.
#[derive(Default)]
struct ServerTrace {
    invokes: Vec<(u64, String)>,
    responds: Vec<u64>,
}

fn num(e: &Json, key: &str) -> u64 {
    e.get(key).and_then(Json::as_num).unwrap_or(0) as u64
}

/// Derives the per-layer metrics from the replicas' JSON-lines traces,
/// matched against the client's own stamps.
fn trace_layers(out: &mut Outcome, conns: &[Vec<Req>], traces: &[PathBuf], params: &Params) {
    let mut events: Vec<Json> = Vec::new();
    for path in traces {
        let text = std::fs::read_to_string(path).expect("read replica trace");
        events.extend(json::parse_lines(&text).expect("replica trace parses"));
        let _ = std::fs::remove_file(path);
    }
    events.sort_by_key(|e| num(e, "at"));

    let mut servers: Vec<ServerTrace> = (0..REPLICAS).map(|_| ServerTrace::default()).collect();
    let mut sends: BTreeMap<u64, u64> = BTreeMap::new();
    let mut delivers: Vec<(u64, u64)> = Vec::new();
    for e in &events {
        let (at, pid) = (num(e, "at"), num(e, "pid") as usize);
        match e.get("kind").and_then(Json::as_str) {
            Some("invoke") => {
                let op = e.get("op").and_then(Json::as_str).unwrap_or("").to_owned();
                servers[pid].invokes.push((at, op));
            }
            Some("respond") => servers[pid].responds.push(at),
            Some("send") => {
                sends.insert(num(e, "msg"), at);
            }
            Some("deliver") => delivers.push((num(e, "msg"), at)),
            _ => {}
        }
    }

    // Requests reach a replica's client queue in send order and leave it
    // FIFO, so the j-th invoke at replica c is request j of connection c.
    let d_ms = D as f64 / 1e3;
    let mut wait = Vec::new();
    let mut ret = Vec::new();
    let mut lat = Vec::new();
    let mut op_time = ClassLatency::default();
    let mut matched = 0u64;
    let mut mismatched = 0u64;
    for (c, reqs) in conns.iter().enumerate() {
        let s = &servers[c];
        for (j, r) in reqs.iter().enumerate().skip(1) {
            let (Some((inv, op)), Some(&resp), Some(recv)) =
                (s.invokes.get(j), s.responds.get(j), r.recv)
            else {
                continue;
            };
            if *op != format!("{:?}", NsOp::new(r.key, r.op.clone())) {
                mismatched += 1;
                continue;
            }
            matched += 1;
            let ms = |a: u64, b: u64| (a as f64 - b as f64) / 1e3;
            wait.push(ms(*inv, r.sent));
            ret.push(ms(recv, resp));
            lat.push(ms(recv, r.due));
            op_time.push(r.class(), ms(resp, *inv));
        }
    }
    out.note(format!(
        "trace: {} events, {matched} requests matched to replica invokes ({mismatched} mismatched)",
        events.len()
    ));
    let (wait, ret, lat) = (Spread::of(wait), Spread::of(ret), Spread::of(lat));
    out.note(format!(
        "queue wait p50 {:.4} ms p90 {:.4} ms; return p50 {:.4} ms; latency p50 {:.4} ms",
        wait.p50, wait.p90, ret.p50, lat.p50
    ));
    out.set("net.runtime.queue_wait_share.p50", wait.p50 / lat.p50);
    out.set("net.runtime.queue_wait_share.p90", wait.p90 / lat.p90);
    out.set("net.client.return_share.p50", ret.p50 / lat.p50);
    out.set("net.client.return_share.p90", ret.p90 / lat.p90);
    let classes = [
        ("aop", OpClass::PureAccessor, op_time.aop),
        ("mop", OpClass::PureMutator, op_time.mop),
        ("oop", OpClass::Other, op_time.oop),
    ];
    for (name, class, samples) in classes {
        let s = Spread::of(samples);
        let bound = class_bound_ms(class, params);
        out.note(format!(
            "replica {name} op time: n={} p50={:.4} ms p90={:.4} ms, bound {bound:.3} ms",
            s.n, s.p50, s.p90
        ));
        let (p50, p90) = match class {
            OpClass::PureAccessor => (
                "core.replica.op_bound_frac.aop.p50",
                "core.replica.op_bound_frac.aop.p90",
            ),
            OpClass::PureMutator => (
                "core.replica.op_bound_frac.mop.p50",
                "core.replica.op_bound_frac.mop.p90",
            ),
            OpClass::Other => (
                "core.replica.op_bound_frac.oop.p50",
                "core.replica.op_bound_frac.oop.p90",
            ),
        };
        out.set(p50, s.p50 / bound);
        out.set(p90, s.p90 / bound);
    }

    let deliver: Vec<f64> = delivers
        .iter()
        .filter_map(|(msg, at)| sends.get(msg).map(|s| (*at as f64 - *s as f64) / 1e3))
        .collect();
    let deliver = Spread::of(deliver);
    out.note(format!(
        "deliver - send: n={} p50={:.4} ms p90={:.4} ms (window [{:.3}, {:.3}] ms)",
        deliver.n,
        deliver.p50,
        deliver.p90,
        (D - U) as f64 / 1e3,
        d_ms
    ));
    out.set("net.deliver_d_frac.p50", deliver.p50 / d_ms);
    out.set("net.deliver_d_frac.p90", deliver.p90 / d_ms);
    let cfg = AuditConfig {
        window: Some((D as i64, U as i64)),
    };
    let (report, _) = audit_events(&events, &cfg);
    let late = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "SB101")
        .count();
    out.set("net.out_of_window", late as f64);

    let invokes: usize = servers.iter().map(|s| s.invokes.len()).sum();
    let frames_per_op = sends.len() as f64 / invokes.max(1) as f64;
    out.set("net.frames_per_op", frames_per_op);

    // The codec on this run's own frames: requests, responses, and the
    // replica-to-replica broadcast of each op.
    let ops: Vec<NsOp<QueueOp<i64>>> = conns
        .iter()
        .flat_map(|reqs| reqs.iter().map(|r| NsOp::new(r.key, r.op.clone())))
        .collect();
    let resps: Vec<QueueResp<i64>> = conns
        .iter()
        .flat_map(|reqs| reqs.iter().filter_map(|r| r.resp.clone()))
        .collect();
    let (req_c, resp_c) = (codec(&ops), codec(&resps));
    let peer_bytes = ops
        .iter()
        .map(|op| {
            let msg: OpMsg<Namespace<Queue<i64>>> = OpMsg {
                op: op.clone(),
                ts: Timestamp::new(ClockTime::from_ticks(0), ProcessId::new(0)),
            };
            4 + HEADER_LEN + encode_batch(std::slice::from_ref(&msg)).len()
        })
        .sum::<usize>() as f64
        / ops.len() as f64;
    out.set("net.wire.encode_ns", req_c.encode_ns);
    out.set("net.wire.decode_ns", req_c.decode_ns);
    out.set(
        "net.wire.bytes_per_op",
        req_c.bytes_per_frame + resp_c.bytes_per_frame + frames_per_op * peer_bytes,
    );
    let codec_ns = (req_c.encode_ns + req_c.decode_ns) * (2.0 + frames_per_op);
    out.set("net.wire.service_share", codec_ns / (lat.p50 * 1e6));
}

pub fn run(serve: &Path, mode: Mode, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let params = params();
    let run_dir = PathBuf::from(".bench_run");
    let traces: Vec<PathBuf> = if traced {
        std::fs::create_dir_all(&run_dir).expect("create the run directory");
        (0..REPLICAS)
            .map(|i| run_dir.join(format!("trace-{i}.jsonl")))
            .collect()
    } else {
        Vec::new()
    };

    let awake = KeepAwake::start();
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (mesh, secs) = Mesh::launch_retrying(serve, seed, conns, &[]);
        setups.push(secs);
        mesh.close().expect("set-up mesh shuts down");
    }
    let (mesh, secs) = Mesh::launch_retrying(serve, seed, conns, &traces);
    setups.push(secs);
    std::thread::sleep(SETTLE);

    let reqs = match mode {
        Mode::Paced => paced(&mesh, seed, seconds, conns),
        Mode::Saturated => saturated(&mesh, seed, seconds, conns),
    };
    let rss = mesh.peak_rss_mb();
    mesh.close().expect("replicas drain and exit");
    drop(awake);

    let load: Vec<&Req> = reqs.iter().flat_map(|c| c.iter().skip(1)).collect();
    let checked = check(&reqs);
    let unanswered = load.iter().filter(|r| r.recv.is_none()).count() as u64;
    let mut out = Outcome::new(load.len() as u64, checked.failed.max(unanswered));

    let mut latency = ClassLatency::default();
    for r in &load {
        if let Some(recv) = r.recv {
            latency.push(r.class(), (recv as f64 - r.due as f64) / 1e3);
        }
    }
    let first = load.iter().map(|r| r.sent).min().unwrap_or(0);
    let last = load
        .iter()
        .filter_map(|r| r.recv)
        .max()
        .unwrap_or(first + 1);
    let completed = load.len() as u64 - unanswered;
    let ops_per_sec = completed as f64 / ((last - first) as f64 * 1e-6);
    let all_p50 = median(latency.all());
    out.note(format!(
        "{} connections, {completed} ops over {:.3} s, {} keys checked in {:.3} s",
        conns,
        (last - first) as f64 * 1e-6,
        checked.keys,
        checked.check_secs
    ));
    out.set("setup_s", median(setups));
    out.set("ops_per_sec", ops_per_sec);
    out.cost = match mode {
        Mode::Paced => all_p50,
        Mode::Saturated => 1.0 / ops_per_sec,
    };
    let what = match mode {
        Mode::Paced => "client latency from due time",
        Mode::Saturated => "client latency from send",
    };
    out.latency(latency, &params, what);
    out.set("peak_rss_mb", rss);

    if traced {
        out.set("lin.nodes_per_op", checked.nodes as f64 / load.len() as f64);
        out.set(
            "lin.memo_hits_per_op",
            checked.memo_hits as f64 / load.len() as f64,
        );
        out.set(
            "lin.nodes_per_sec",
            checked.nodes as f64 / checked.check_secs,
        );
        if mode == Mode::Paced {
            let mut lag: Vec<f64> = load
                .iter()
                .map(|r| (r.sent as f64 - r.due as f64) / 1e3)
                .collect();
            out.set(
                "load.lag_d_frac.p90",
                quantile(&mut lag, 0.9) / (D as f64 / 1e3),
            );
        }
        trace_layers(&mut out, &reqs, &traces, &params);
        let _ = std::fs::remove_dir(&run_dir);
    }
    out
}
