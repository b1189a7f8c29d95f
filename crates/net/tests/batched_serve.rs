//! Client-queue batching over a real TCP mesh: requests that queue up
//! while an operation is pending are served as one Algorithm 1 batch,
//! each request still gets exactly one response, and a queue larger
//! than one peer frame is split across batches instead of crashing the
//! replica.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use skewbound_core::params::Params;
use skewbound_core::replica::OpMsg;
use skewbound_core::timestamp::Timestamp;
use skewbound_lin::checker::check_history;
use skewbound_net::runtime::{run_server, NetClient, ServerConfig, TimeBase};
use skewbound_net::tcp::{client_hello, read_frame, MeshListener};
use skewbound_net::wire::{
    decode_frame, encode_frame, from_bytes, to_bytes, Decode, Encode, FrameHeader, FrameKind,
    HEADER_LEN, MAX_FRAME_LEN,
};
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{ClockTime, SimDuration, SimTime};
use skewbound_spec::combinators::Batch;
use skewbound_spec::namespace::{Namespace, NsOp};
use skewbound_spec::queue::{Queue, QueueOp, QueueResp};
use skewbound_spec::register::{RegOp, RegResp, RwRegister};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

type ServerHistory<S> = History<Vec<<S as SequentialSpec>::Op>, Vec<<S as SequentialSpec>::Resp>>;

/// Starts an `n`-server mesh on loopback, one `run_server` thread per
/// process, and returns the addresses and the server threads.
fn start_mesh<S>(
    params: Params,
    make_spec: impl Fn() -> S,
) -> (Vec<SocketAddr>, Vec<JoinHandle<ServerHistory<S>>>)
where
    S: SequentialSpec + Send + 'static,
    S::Op: Encode + Decode + Send,
    S::Resp: Encode + Send,
{
    let n = params.n();
    let epoch = TimeBase::epoch_now_micros();
    let listeners: Vec<MeshListener> = (0..n)
        .map(|i| MeshListener::bind(ProcessId::new(i as u32), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let servers = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers: Vec<_> = addrs
                .iter()
                .enumerate()
                .filter(|&(q, _)| q != i)
                .map(|(q, &a)| (ProcessId::new(q as u32), a))
                .collect();
            let mut cfg = ServerConfig::new(ProcessId::new(i as u32), n, params, 7, epoch);
            // Leave most of u as scheduling-jitter allowance: the mesh
            // shares the host with its own client.
            cfg.headroom_micros = cfg.headroom_micros.max(params.u().as_ticks() * 7 / 8);
            let spec = make_spec();
            thread::spawn(move || {
                let mesh = listener.start(&peers).expect("start mesh");
                let history = run_server(spec, &cfg, &mesh, None);
                mesh.shutdown();
                history
            })
        })
        .collect();
    (addrs, servers)
}

/// Tells every server to drain, joins them, and returns their histories.
fn stop_mesh<H>(addrs: &[SocketAddr], servers: Vec<JoinHandle<H>>) -> Vec<H> {
    for addr in addrs {
        NetClient::connect(addr).unwrap().bye().unwrap();
    }
    servers
        .into_iter()
        .map(|s| s.join().expect("server thread panicked"))
        .collect()
}

/// A raw client connection that pipelines requests.
fn connect(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // A dead server fails the test by timeout instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(&client_hello()).unwrap();
    stream
}

/// Writes every request as one `ClientReq` frame, ids from `first_id`,
/// in a single write: nothing is read until all of them are sent.
fn pipeline<O: Encode>(stream: &mut TcpStream, first_id: u64, ops: &[O]) {
    let mut bytes = Vec::new();
    for (id, op) in (first_id..).zip(ops) {
        bytes.extend(encode_frame(
            &FrameHeader {
                kind: FrameKind::ClientReq,
                msg_id: id,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            },
            &to_bytes(op),
        ));
    }
    stream.write_all(&bytes).unwrap();
}

/// Reads `count` responses into `out` (request id → response and
/// receive tick), failing on a second response to any request.
fn read_responses<R: Decode>(
    stream: &mut TcpStream,
    count: usize,
    base: &TimeBase,
    out: &mut BTreeMap<u64, (R, u64)>,
) {
    for _ in 0..count {
        let body = read_frame(stream)
            .expect("read a response")
            .expect("server closed the connection early");
        let at = base.now_ticks();
        let (header, payload) = decode_frame(&body).unwrap();
        assert_eq!(header.kind, FrameKind::ClientResp);
        let resp = from_bytes(payload).expect("decodable response");
        assert!(
            out.insert(header.msg_id, (resp, at)).is_none(),
            "request {} answered twice",
            header.msg_id
        );
    }
}

/// After the servers are gone, the connection holds nothing but EOF.
fn assert_no_more_responses(stream: &mut TcpStream) {
    match read_frame(stream) {
        Ok(None) | Err(_) => {}
        Ok(Some(body)) => panic!("unexpected extra frame: {:?}", decode_frame(&body)),
    }
}

#[test]
fn queued_requests_are_served_as_batches_with_one_response_each() {
    let params = Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(20_000),
        SimDuration::from_ticks(8_000),
        SimDuration::from_ticks(2_000),
    )
    .unwrap();
    let (addrs, servers) = start_mesh(params, || Namespace::new(Queue::<i64>::new()));
    let base = TimeBase::new(TimeBase::epoch_now_micros());
    let mut stream = connect(addrs[0]);

    // An all-Enqueue burst over keys 1 and 2, then 30 requests mixing
    // the three classes over the same keys.
    let burst: Vec<NsOp<QueueOp<i64>>> = (0..12)
        .map(|i| NsOp::new(1 + i % 2, QueueOp::Enqueue(100 + i as i64)))
        .collect();
    let mixed: Vec<NsOp<QueueOp<i64>>> = (0..30)
        .map(|i| {
            let op = match i % 3 {
                0 => QueueOp::Enqueue(i as i64),
                1 => QueueOp::Peek,
                _ => QueueOp::Dequeue,
            };
            NsOp::new(1 + i % 2, op)
        })
        .collect();
    let mut sent: Vec<(u64, NsOp<QueueOp<i64>>, u64)> = Vec::new();
    let mut resps: BTreeMap<u64, (QueueResp<i64>, u64)> = BTreeMap::new();
    let mut next_id = 1;
    for phase in [&burst, &mixed] {
        let at = base.now_ticks();
        pipeline(&mut stream, next_id, phase);
        sent.extend(
            (next_id..)
                .zip(phase.iter().cloned())
                .map(|(id, op)| (id, op, at)),
        );
        read_responses(&mut stream, phase.len(), &base, &mut resps);
        next_id += phase.len() as u64;
    }

    let histories = stop_mesh(&addrs, servers);
    assert_no_more_responses(&mut stream);
    let ids: Vec<u64> = sent.iter().map(|&(id, _, _)| id).collect();
    assert_eq!(
        resps.keys().copied().collect::<Vec<_>>(),
        ids,
        "every request gets exactly one response"
    );

    let served = &histories[0];
    let requests: usize = served.records().iter().map(|rec| rec.op.len()).sum();
    assert_eq!(requests, sent.len(), "every request was invoked once");
    assert!(
        served.len() < sent.len(),
        "{} invocations for {} requests: nothing was coalesced",
        served.len(),
        sent.len()
    );
    let spec = Batch::new(Namespace::new(Queue::<i64>::new()));
    assert!(
        served.records().iter().any(|rec| rec.op.len() > 1
            && rec.op.iter().all(|op| matches!(op.op, QueueOp::Enqueue(_)))
            && spec.class(&rec.op) == OpClass::PureMutator),
        "the Enqueue burst did not run as a pure-mutator batch"
    );
    assert!(histories[1..].iter().all(History::is_empty));

    for key in [1, 2] {
        let mut h = History::new();
        for (id, op, invoked) in sent.iter().filter(|(_, op, _)| op.key == key) {
            let (resp, at) = &resps[id];
            let rec = h.record_invoke(
                ProcessId::new(0),
                op.op.clone(),
                SimTime::from_ticks(*invoked),
            );
            h.record_response(rec, resp.clone(), SimTime::from_ticks(*at));
        }
        assert!(
            check_history(&Queue::<i64>::new(), &h).is_linearizable(),
            "key {key}'s client history is not linearizable: {h:?}"
        );
    }
}

#[test]
fn a_queue_larger_than_one_peer_frame_is_split_across_batches() {
    let params = Params::with_optimal_skew(
        2,
        SimDuration::from_ticks(200_000),
        SimDuration::from_ticks(100_000),
        SimDuration::ZERO,
    )
    .unwrap();
    let (addrs, servers) = start_mesh(params, || RwRegister::new(String::new()));
    let base = TimeBase::new(TimeBase::epoch_now_micros());
    let mut stream = connect(addrs[0]);

    // 68 writes of 256 KiB each: 17 MiB of requests, more than one peer
    // frame can carry, then a read of the last value.
    let value = |i: u8| char::from(b'a' + i % 26).to_string().repeat(256 * 1024);
    let mut ops: Vec<RegOp<String>> = (0..68).map(|i| RegOp::Write(value(i))).collect();
    ops.push(RegOp::Read);
    let request_bytes: usize = ops.iter().map(|op| to_bytes(op).len()).sum();
    assert!(request_bytes > MAX_FRAME_LEN);
    pipeline(&mut stream, 1, &ops);
    let mut resps: BTreeMap<u64, (RegResp<String>, u64)> = BTreeMap::new();
    read_responses(&mut stream, ops.len(), &base, &mut resps);

    let histories = stop_mesh(&addrs, servers);
    assert_no_more_responses(&mut stream);
    assert_eq!(resps.len(), ops.len(), "every request gets one response");
    assert!(resps.values().take(68).all(|(r, _)| *r == RegResp::Ack));
    assert_eq!(resps[&69].0, RegResp::Value(value(67)));

    let served = &histories[0];
    let invoked: usize = served.records().iter().map(|rec| rec.op.len()).sum();
    assert_eq!(invoked, ops.len());
    for rec in served.records() {
        let msg: OpMsg<Batch<RwRegister<String>>> = OpMsg {
            op: rec.op.clone(),
            ts: Timestamp::new(ClockTime::ZERO, ProcessId::new(0)),
        };
        let body = HEADER_LEN + to_bytes(&msg).len();
        assert!(
            body <= MAX_FRAME_LEN,
            "a batch's peer frame is {body} bytes"
        );
    }
}
