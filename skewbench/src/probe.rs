//! Layer probes timed in isolation — the wire codec on a workload's own
//! operations, and a zero-delay frame round trip over an in-process
//! two-node socket mesh — and the CPU keep-awake the socket
//! measurements run under.

use std::hint::black_box;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use skewbound_net::tcp::{MeshListener, RawEvent, TcpMesh};
use skewbound_net::wire::{decode_frame, encode_frame, from_bytes, to_bytes, Decode, Encode};
use skewbound_net::wire::{FrameHeader, FrameKind};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::transport::WireTransport;

use crate::stats::Spread;

/// Keeps every CPU out of its idle state while alive: one spinner
/// process per CPU under the `SCHED_IDLE` policy, which runs only when
/// nothing else wants the CPU. On a virtual machine a halted vCPU is
/// woken through the hypervisor's scheduler, which on a shared host adds
/// milliseconds to the first wake-up after idle — far more than the
/// protocol's own work on a mostly idle mesh. Without `chrt` the mesh
/// runs without spinners.
pub struct KeepAwake(Vec<Child>);

impl KeepAwake {
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let Ok(exe) = std::env::current_exe() else {
            return KeepAwake(Vec::new());
        };
        let spinners = (0..cpus)
            .map_while(|_| {
                Command::new("chrt")
                    .args(["--idle", "0"])
                    .arg(&exe)
                    .arg(crate::KEEP_AWAKE_FLAG)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .ok()
            })
            .collect();
        KeepAwake(spinners)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Codec cost per frame, and the mean frame size.
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_frame: f64,
}

/// The header every probe frame carries.
pub fn header(kind: FrameKind, msg_id: u64) -> FrameHeader {
    FrameHeader {
        kind,
        msg_id,
        sent_at_micros: 0,
        delay_micros: 0,
        batch: 0,
    }
}

/// Encodes each value into a client-request frame and decodes it back,
/// in passes over all of `values` until at least 50 ms have been spent
/// on each side.
///
/// # Panics
///
/// Panics if a frame fails to decode to the value it was made from.
pub fn codec<T: Encode + Decode + PartialEq + std::fmt::Debug>(values: &[T]) -> Codec {
    assert!(!values.is_empty(), "codec probe needs values");
    let budget = Duration::from_millis(50);
    let encode = |v: &T| encode_frame(&header(FrameKind::ClientReq, 1), &to_bytes(v));
    let frames: Vec<Vec<u8>> = values.iter().map(encode).collect();
    for (v, f) in values.iter().zip(&frames) {
        let (_, payload) = decode_frame(&f[4..]).expect("probe frame decodes");
        assert_eq!(&from_bytes::<T>(payload).expect("probe payload decodes"), v);
    }

    let (mut enc_passes, start) = (0u64, Instant::now());
    while start.elapsed() < budget {
        for v in values {
            black_box(encode(black_box(v)));
        }
        enc_passes += 1;
    }
    let enc = start.elapsed();
    let (mut dec_passes, start) = (0u64, Instant::now());
    while start.elapsed() < budget {
        for f in &frames {
            let (_, payload) = decode_frame(&black_box(f)[4..]).expect("probe frame decodes");
            black_box(from_bytes::<T>(payload).expect("probe payload decodes"));
        }
        dec_passes += 1;
    }
    let dec = start.elapsed();
    let n = values.len() as f64;
    Codec {
        encode_ns: enc.as_nanos() as f64 / (enc_passes as f64 * n),
        decode_ns: dec.as_nanos() as f64 / (dec_passes as f64 * n),
        bytes_per_frame: frames.iter().map(Vec::len).sum::<usize>() as f64 / n,
    }
}

/// Round trips measured by [`tcp_hop`] after its warm-up.
const HOPS: u64 = 400;

fn peer_frame(msg_id: u64) -> Vec<u8> {
    encode_frame(&header(FrameKind::Peer, msg_id), &[])
}

/// Waits for the next peer frame, skipping other arrivals.
fn next_peer(mesh: &TcpMesh) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Some(RawEvent::Peer { header, .. }) = mesh.recv_timeout(Duration::from_secs(1)) {
            return header.msg_id;
        }
    }
    panic!("tcp hop probe: no frame within 10 s");
}

/// Zero-delay round trips over a two-node [`MeshListener`] pair on
/// loopback: node 0 sends a frame, node 1 echoes it, node 0 times the
/// return, with the CPUs kept awake. Percentiles are in µs.
pub fn tcp_hop() -> Spread {
    let _awake = KeepAwake::start();
    let bind = |pid| MeshListener::bind(ProcessId::new(pid), "127.0.0.1:0").expect("bind probe");
    let (l0, l1) = (bind(0), bind(1));
    let (a0, a1) = (
        l0.local_addr().expect("probe address"),
        l1.local_addr().expect("probe address"),
    );
    let m0 = l0
        .start(&[(ProcessId::new(1), a1)])
        .expect("start probe node");
    let m1 = l1
        .start(&[(ProcessId::new(0), a0)])
        .expect("start probe node");
    let echo = std::thread::spawn(move || {
        let mut tx = m1.peer_sender();
        for _ in 0..=HOPS {
            let id = next_peer(&m1);
            tx.send_frame(ProcessId::new(0), &peer_frame(id))
                .expect("echo frame");
        }
        m1
    });
    let mut tx = m0.peer_sender();
    let mut rtts = Vec::with_capacity(HOPS as usize);
    // Message ids rise strictly: the receiver drops anything at or below
    // its per-sender watermark. Id 1 warms the connections.
    for id in 1..=HOPS + 1 {
        let start = Instant::now();
        tx.send_frame(ProcessId::new(1), &peer_frame(id))
            .expect("probe frame");
        assert_eq!(next_peer(&m0), id, "probe frames came back out of order");
        if id > 1 {
            rtts.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    m0.shutdown();
    echo.join().expect("echo thread").shutdown();
    Spread::of(rtts)
}
