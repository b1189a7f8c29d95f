//! A hostile or broken client cannot crash a replica: a `ClientReq`
//! frame whose payload does not decode is dropped and counted, and the
//! server keeps answering well-formed clients.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use skewbound_core::params::Params;
use skewbound_net::runtime::{run_server, NetClient, ServerConfig, TimeBase};
use skewbound_net::tcp::{client_hello, MeshListener};
use skewbound_net::wire::{encode_frame, FrameHeader, FrameKind};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimDuration;
use skewbound_sim::trace::{TraceEvent, TraceSink};
use skewbound_spec::register::{RmwOp, RmwRegister, RmwResp};

/// Records the counters a server reports and ignores its events.
#[derive(Default)]
struct Counters(Vec<(&'static str, &'static str, u64)>);

impl TraceSink for Counters {
    fn event(&mut self, _: &TraceEvent) {}

    fn counter(&mut self, stage: &'static str, name: &'static str, value: u64) {
        self.0.push((stage, name, value));
    }
}

fn client_req(payload: &[u8]) -> Vec<u8> {
    encode_frame(
        &FrameHeader {
            kind: FrameKind::ClientReq,
            msg_id: 1,
            sent_at_micros: 0,
            delay_micros: 0,
            batch: 0,
        },
        payload,
    )
}

#[test]
fn undecodable_client_request_is_dropped_and_the_server_keeps_serving() {
    let params = Params::with_optimal_skew(
        2,
        SimDuration::from_ticks(4_000),
        SimDuration::from_ticks(2_000),
        SimDuration::ZERO,
    )
    .unwrap();
    let epoch = TimeBase::epoch_now_micros();
    let listeners: Vec<MeshListener> = (0..2)
        .map(|i| MeshListener::bind(ProcessId::new(i), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let servers: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peer = 1 - i;
            let peers = vec![(ProcessId::new(peer as u32), addrs[peer])];
            let cfg = ServerConfig::new(ProcessId::new(i as u32), 2, params, 7, epoch);
            thread::spawn(move || {
                let mesh = listener.start(&peers).expect("start mesh");
                let mut counters = Counters::default();
                let history = run_server(RmwRegister::default(), &cfg, &mesh, Some(&mut counters));
                mesh.shutdown();
                (history, counters)
            })
        })
        .collect();

    // An RmwOp tag byte that names no variant, then trailing junk.
    let mut hostile = TcpStream::connect(addrs[0]).unwrap();
    hostile.write_all(&client_hello()).unwrap();
    hostile.write_all(&client_req(&[0xEE, 0xFF, 0xFF])).unwrap();
    // Let the server take the garbage frame before the good client.
    thread::sleep(Duration::from_millis(300));

    // The well-formed client runs on its own thread so that a dead
    // server fails the test by timeout instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let addr = addrs[0];
    thread::spawn(move || {
        let result = (|| -> io::Result<(RmwResp, RmwResp)> {
            let mut client = NetClient::connect(addr)?;
            let write = client.invoke(&RmwOp::Write(5))?;
            let read = client.invoke(&RmwOp::Read)?;
            Ok((write, read))
        })();
        let _ = tx.send(result);
    });
    let (write, read) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the server stopped answering after an undecodable request")
        .expect("the well-formed client's operations failed");
    assert_eq!(write, RmwResp::Ack);
    assert_eq!(read, RmwResp::Value(5));

    for addr in &addrs {
        NetClient::connect(addr).unwrap().bye().unwrap();
    }
    drop(hostile);
    let mut outcomes = servers
        .into_iter()
        .map(|s| s.join().expect("server thread panicked"));
    let (history, counters) = outcomes.next().unwrap();
    assert_eq!(
        history.len(),
        2,
        "only the two well-formed ops were invoked"
    );
    let dropped: u64 = counters
        .0
        .iter()
        .filter(|(stage, name, _)| (*stage, *name) == ("net", "dropped_client_reqs"))
        .map(|&(_, _, v)| v)
        .sum();
    assert_eq!(dropped, 1, "the garbage request is counted once");
    assert!(outcomes.all(|(h, _)| h.is_empty()));
}
