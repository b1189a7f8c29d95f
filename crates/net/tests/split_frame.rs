//! A frame whose bytes arrive on both sides of the server's read
//! timeout is reassembled: the bytes read before the timeout are kept,
//! the stream stays in sync, and the request is answered.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use skewbound_core::params::Params;
use skewbound_net::runtime::{run_server, NetClient, ServerConfig, TimeBase};
use skewbound_net::tcp::{client_hello, read_frame, MeshListener};
use skewbound_net::wire::{
    decode_frame, encode_frame, from_bytes, to_bytes, FrameHeader, FrameKind,
};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimDuration;
use skewbound_spec::register::{RmwOp, RmwRegister, RmwResp};

fn client_req(id: u64, op: &RmwOp) -> Vec<u8> {
    encode_frame(
        &FrameHeader {
            kind: FrameKind::ClientReq,
            msg_id: id,
            sent_at_micros: 0,
            delay_micros: 0,
            batch: 0,
        },
        &to_bytes(op),
    )
}

/// Sends `frame` in two writes, `split` bytes first, with a pause longer
/// than the server's 20 ms read timeout between them, and returns the
/// response.
fn invoke_split(stream: &mut TcpStream, id: u64, op: &RmwOp, split: usize) -> RmwResp {
    let frame = client_req(id, op);
    stream.write_all(&frame[..split]).unwrap();
    thread::sleep(Duration::from_millis(60));
    stream.write_all(&frame[split..]).unwrap();
    let body = read_frame(stream)
        .expect("the request straddling a read timeout was not answered")
        .expect("the server closed the connection");
    let (header, payload) = decode_frame(&body).unwrap();
    assert_eq!(header.kind, FrameKind::ClientResp);
    assert_eq!(header.msg_id, id);
    from_bytes(payload).expect("decodable response")
}

#[test]
fn frame_split_across_a_read_timeout_is_answered() {
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
                let history = run_server(RmwRegister::default(), &cfg, &mesh, None);
                mesh.shutdown();
                history
            })
        })
        .collect();

    let mut stream = TcpStream::connect(addrs[0]).unwrap();
    stream.set_nodelay(true).unwrap();
    // A lost request fails the test by timeout instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&client_hello()).unwrap();
    // Split inside the length prefix, then inside the body.
    assert_eq!(
        invoke_split(&mut stream, 1, &RmwOp::Write(5), 2),
        RmwResp::Ack
    );
    assert_eq!(
        invoke_split(&mut stream, 2, &RmwOp::Read, 9),
        RmwResp::Value(5)
    );

    for addr in &addrs {
        NetClient::connect(addr).unwrap().bye().unwrap();
    }
    drop(stream);
    let histories: Vec<_> = servers
        .into_iter()
        .map(|s| s.join().expect("server thread panicked"))
        .collect();
    assert_eq!(histories[0].len(), 2, "both split requests were invoked");
}
