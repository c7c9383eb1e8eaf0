//! Adversarial partial-I/O tests for the framed codec and the live
//! front-end.
//!
//! A socket hands the wire over in whatever slices the kernel chooses:
//! frames torn at arbitrary byte boundaries, length prefixes split
//! across reads, pipelined bursts arriving in one slice. These tests
//! drive [`read_frame`] through randomized tearings with a reader that
//! returns torn slices, and the live server through a one-byte
//! trickle, and pin the 1 MiB cap at both edges.

use proptest::prelude::*;

use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hpceval_fleet::wire::{
    self, decode_envelope, encode_envelope, encode_frame, read_frame, write_frame, Request,
    MAX_FRAME,
};
use hpceval_fleet::{
    FaultPlan, Fleet, FleetClient, FleetConfig, FleetError, JobKind, PoolConfig, Registry,
    ShardPool,
};

fn arb_request() -> impl Strategy<Value = Request> {
    prop::sample::select(vec![
        Request::Ping,
        Request::Status { job: None },
        Request::Status { job: Some(7) },
        Request::Drain,
        Request::Ranking,
        Request::Shutdown,
        Request::Submit { jobs: vec![JobKind::Evaluate { server: "xeon-e5462".into(), seed: 3 }] },
        Request::Submit {
            jobs: vec![
                JobKind::Green500 { server: "xeon-4870".into() },
                JobKind::Specpower { server: "opteron-8347".into() },
            ],
        },
    ])
}

/// A reader that hands `bytes` back in slices of the sizes `cuts`
/// cycles through, as a socket may, then reports end of stream.
struct Torn<'a> {
    bytes: &'a [u8],
    cuts: &'a [usize],
    reads: usize,
}

impl<'a> Torn<'a> {
    fn new(bytes: &'a [u8], cuts: &'a [usize]) -> Torn<'a> {
        Torn { bytes, cuts, reads: 0 }
    }
}

impl Read for Torn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.cuts[self.reads % self.cuts.len()].min(self.bytes.len()).min(buf.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Every frame `r` yields up to a clean end of stream.
fn read_all(r: &mut impl Read) -> Vec<String> {
    std::iter::from_fn(|| read_frame(r).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the read-slice boundaries, the reader reproduces the
    /// exact request sequence and consumes the whole stream.
    #[test]
    fn frames_survive_arbitrary_tearing(
        reqs in prop::collection::vec(arb_request(), 1..12),
        cuts in prop::collection::vec(1usize..9, 1..64),
    ) {
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend(encode_frame(&r.to_json().unwrap()).unwrap());
        }
        let mut torn = Torn::new(&stream, &cuts);
        let out: Vec<Request> =
            read_all(&mut torn).iter().map(|f| Request::from_json(f).unwrap()).collect();
        prop_assert_eq!(out, reqs);
        prop_assert!(torn.bytes.is_empty());
    }

    /// A stream truncated mid-prefix or mid-payload yields exactly the
    /// complete frames; the torn tail never comes back as a frame. It
    /// reads as the end of the stream when the cut falls inside a
    /// length prefix, and as an error when it falls inside a payload.
    #[test]
    fn truncation_yields_the_complete_frames_and_no_torn_tail(
        reqs in prop::collection::vec(arb_request(), 1..6),
        dropped in 1usize..64,
        cuts in prop::collection::vec(1usize..9, 1..64),
    ) {
        let mut frames = Vec::new();
        let mut stream = Vec::new();
        for r in &reqs {
            let bytes = encode_frame(&r.to_json().unwrap()).unwrap();
            frames.push((stream.len(), bytes.len()));
            stream.extend(bytes);
        }
        let keep = stream.len().saturating_sub(dropped);
        // Exactly the frames that fit completely inside the kept prefix.
        let expect = frames.iter().take_while(|&&(start, len)| start + len <= keep).count();
        let mut torn = Torn::new(&stream[..keep], &cuts);
        for want in &reqs[..expect] {
            let frame = read_frame(&mut torn).unwrap().expect("a complete frame");
            prop_assert_eq!(&Request::from_json(&frame).unwrap(), want);
        }
        let tail = frames.get(expect).map_or(0, |&(start, _)| keep - start);
        match read_frame(&mut torn) {
            Ok(None) => prop_assert!(tail < 4, "a torn payload must not read as end of stream"),
            Err(_) => prop_assert!(tail >= 4, "a torn prefix reads as end of stream"),
            Ok(Some(frame)) => prop_assert!(false, "the torn tail came back as {frame:?}"),
        }
    }

    /// A length prefix beyond the cap is rejected as soon as its four
    /// bytes are in, before any payload is read or allocated: the
    /// stream below ends right after the prefix, so a reader that went
    /// on to the payload would report end of stream instead.
    #[test]
    fn oversize_prefix_is_rejected_at_the_fourth_byte(
        len in (MAX_FRAME as u64 + 1)..=u64::from(u32::MAX),
    ) {
        let prefix = (len as u32).to_be_bytes();
        let got = read_frame(&mut Torn::new(&prefix, &[1]));
        prop_assert!(matches!(got, Err(FleetError::Protocol(_))), "{got:?}");
    }

    /// Tagged v2 envelopes survive the same arbitrary read tearing as
    /// bare frames: whatever the slice boundaries, every `(id, request)`
    /// pair comes back intact and in order.
    #[test]
    fn tagged_envelopes_survive_arbitrary_tearing(
        reqs in prop::collection::vec(arb_request(), 1..12),
        ids in prop::collection::vec(0u64..=u64::MAX, 12),
        cuts in prop::collection::vec(1usize..9, 1..64),
    ) {
        let tagged: Vec<(u64, Request)> =
            ids.iter().copied().zip(reqs).collect();
        let mut stream = Vec::new();
        for (id, r) in &tagged {
            stream.extend(encode_frame(&encode_envelope(*id, r).unwrap()).unwrap());
        }
        let mut torn = Torn::new(&stream, &cuts);
        let out: Vec<(u64, Request)> = read_all(&mut torn)
            .iter()
            .map(|frame| {
                let (id, req) = decode_envelope(frame).unwrap();
                (id, req.unwrap())
            })
            .collect();
        prop_assert_eq!(out, tagged);
        prop_assert!(torn.bytes.is_empty());
    }
}

#[test]
fn the_cap_is_inclusive_below_and_exclusive_above() {
    let at_cap = "a".repeat(MAX_FRAME);
    let frame = encode_frame(&at_cap).unwrap();
    assert_eq!(read_frame(&mut Cursor::new(frame)).unwrap().unwrap().len(), MAX_FRAME);

    let over = "a".repeat(MAX_FRAME + 1);
    assert!(encode_frame(&over).is_err(), "writer side refuses");
    let prefix = ((MAX_FRAME + 1) as u32).to_be_bytes();
    assert!(
        matches!(read_frame(&mut Cursor::new(prefix)), Err(FleetError::Protocol(_))),
        "reader side refuses at the prefix"
    );
}

/// Drive the live server the nastiest way a client can:
/// three pipelined requests delivered one byte per write, then an
/// oversize prefix on a second connection, which must draw an error
/// response and a close without disturbing the daemon.
#[test]
fn readiness_server_survives_one_byte_trickle_and_bad_prefix() {
    let wal =
        std::env::temp_dir().join(format!("hpceval-fleet-trickle-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let config = FleetConfig { faults: FaultPlan::none(), ..FleetConfig::default() };
    let fleet = Fleet::open(config, Registry::with_presets(), &wal).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve = {
        let f = Arc::clone(&fleet);
        std::thread::spawn(move || f.serve(listener))
    };

    // One byte per segment: nodelay plus a scheduling pause per byte
    // forces the server to reassemble every frame from 1-byte reads.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut pipelined = Vec::new();
    write_frame(&mut pipelined, &encode_envelope(10, &Request::Ping).unwrap()).unwrap();
    write_frame(&mut pipelined, &encode_envelope(11, &Request::Status { job: None }).unwrap())
        .unwrap();
    write_frame(&mut pipelined, &encode_envelope(12, &Request::Ranking).unwrap()).unwrap();
    for &b in &pipelined {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let pong = read_frame(&mut stream).unwrap().unwrap();
    assert!(pong.contains("pong") && pong.contains("\"id\":10"), "{pong}");
    let status = read_frame(&mut stream).unwrap().unwrap();
    assert!(status.contains("\"jobs\"") && status.contains("\"id\":11"), "{status}");
    let ranking = read_frame(&mut stream).unwrap().unwrap();
    assert!(ranking.contains("\"ranking\"") && ranking.contains("\"id\":12"), "{ranking}");
    drop(stream);

    // An untagged v1 frame draws a version-mismatch error but does NOT
    // kill the connection — the stream itself is still framed.
    let mut v1 = TcpStream::connect(addr).unwrap();
    write_frame(&mut v1, &Request::Ping.to_json().unwrap()).unwrap();
    let err = read_frame(&mut v1).unwrap().unwrap();
    assert!(err.contains("\"ok\":false") && err.contains("v1"), "{err}");
    write_frame(&mut v1, &encode_envelope(0, &Request::Ping).unwrap()).unwrap();
    let pong = read_frame(&mut v1).unwrap().unwrap();
    assert!(pong.contains("pong"), "a proper envelope still works after the v1 slip: {pong}");
    drop(v1);

    let mut bad = TcpStream::connect(addr).unwrap();
    bad.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let err = read_frame(&mut bad).unwrap().unwrap();
    assert!(err.contains("\"ok\":false"), "{err}");
    assert_eq!(read_frame(&mut bad).unwrap(), None, "protocol error closes the connection");

    let mut client = FleetClient::connect(addr).unwrap();
    client.ping().expect("daemon unharmed by the bad prefix");
    client.shutdown().unwrap();
    serve.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&wal);
}

/// The pool reassembles replies delivered out of submission order:
/// request ids, not arrival order, route each response to its caller.
#[test]
fn pool_reassembles_out_of_order_replies_by_id() {
    const N: usize = 6;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut ids = Vec::new();
        while ids.len() < N {
            let frame = read_frame(&mut conn).unwrap().unwrap();
            let (id, req) = decode_envelope(&frame).unwrap();
            assert!(matches!(req.unwrap(), Request::Status { .. }));
            ids.push(id);
        }
        for &id in ids.iter().rev() {
            let body =
                wire::ok_response(vec![("echo".to_string(), serde::Value::UInt(id))]).unwrap();
            write_frame(&mut conn, &wire::attach_id(id, &body)).unwrap();
        }
        // Hold the socket open until the client hangs up.
        let _ = read_frame(&mut conn);
    });
    let pool = ShardPool::connect(addr, PoolConfig { sockets: 1, depth: N }).unwrap();
    let replies: Vec<_> = (0..N)
        .map(|i| pool.send(&Request::Status { job: Some(i as u64) }).unwrap())
        .collect();
    for (i, reply) in replies.into_iter().enumerate() {
        let v = reply.wait().unwrap();
        assert_eq!(
            v.get("echo").and_then(serde::Value::as_u64),
            Some(i as u64),
            "reply {i} must reach the caller that sent request id {i}"
        );
    }
    drop(pool);
    server.join().unwrap();
}

/// A reply carrying an id nothing waits on — a stray id or a duplicate
/// delivery — poisons the socket: every in-flight request fails with
/// the reason and later sends are refused.
#[test]
fn unknown_and_duplicate_reply_ids_kill_the_socket() {
    // Stray id: the in-flight request fails with the stray id named.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let frame = read_frame(&mut conn).unwrap().unwrap();
        let (id, _) = decode_envelope(&frame).unwrap();
        assert_eq!(id, 0, "lane ids start at zero");
        let body = wire::ok_response(Vec::new()).unwrap();
        write_frame(&mut conn, &wire::attach_id(999, &body)).unwrap();
        let _ = read_frame(&mut conn);
    });
    let pool = ShardPool::connect(addr, PoolConfig { sockets: 1, depth: 4 }).unwrap();
    let err = pool.call(&Request::Ping).unwrap_err();
    assert!(err.to_string().contains("unknown or duplicate request id 999"), "{err}");
    let refused = match pool.send(&Request::Ping) {
        Err(e) => e,
        Ok(_) => panic!("dead lane must refuse further sends"),
    };
    assert!(refused.to_string().contains("unknown or duplicate"), "dead lane refuses: {refused}");
    drop(pool);
    server.join().unwrap();

    // Duplicate id: the first delivery answers its caller; the replay
    // kills the socket, failing the other in-flight request.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let first = decode_envelope(&read_frame(&mut conn).unwrap().unwrap()).unwrap().0;
        let _second = decode_envelope(&read_frame(&mut conn).unwrap().unwrap()).unwrap().0;
        let body = wire::ok_response(Vec::new()).unwrap();
        write_frame(&mut conn, &wire::attach_id(first, &body)).unwrap();
        write_frame(&mut conn, &wire::attach_id(first, &body)).unwrap();
        let _ = read_frame(&mut conn);
    });
    let pool = ShardPool::connect(addr, PoolConfig { sockets: 1, depth: 4 }).unwrap();
    let a = pool.send(&Request::Ping).unwrap();
    let b = pool.send(&Request::Ping).unwrap();
    a.wait().expect("first delivery answers its caller normally");
    let err = b.wait().unwrap_err();
    assert!(err.to_string().contains("unknown or duplicate request id 0"), "{err}");
    drop(pool);
    server.join().unwrap();
}
