//! The blocking front-end over real sockets: a pending drain holds up
//! its own connection only, and `serve` stops promptly however the stop
//! arrives. Every wait has a deadline, so a regression fails instead of
//! hanging the suite.

use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hpceval_fleet::wire::{self, read_frame, write_frame, Request};
use hpceval_fleet::{
    Fleet, FleetClient, FleetConfig, FleetError, JobKind, PoolConfig, Registry, Router,
};

/// How long a test waits on a reply or on `serve` before it fails.
const DEADLINE: Duration = Duration::from_secs(30);

fn open(tag: &str) -> (Arc<Fleet>, PathBuf) {
    let wal =
        std::env::temp_dir().join(format!("hpceval-front-end-{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    (Fleet::open(FleetConfig::default(), Registry::with_presets(), &wal).unwrap(), wal)
}

/// Run a `serve` call on its own thread; its result arrives on the
/// receiver.
fn spawn(
    serve: impl FnOnce() -> Result<(), FleetError> + Send + 'static,
) -> mpsc::Receiver<Result<(), FleetError>> {
    let (tx, served) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(serve());
    });
    served
}

/// Serve `fleet` on `listener`.
fn serve(fleet: &Arc<Fleet>, listener: TcpListener) -> mpsc::Receiver<Result<(), FleetError>> {
    let fleet = Arc::clone(fleet);
    spawn(move || fleet.serve(listener))
}

fn listen() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    (listener, addr)
}

/// A wire drain through the router waits on a daemon whose scheduler
/// has not started, so it cannot finish. Statuses through the same
/// router still answer: a shard answers each connection's frames in
/// order, and the pool keeps reads off the lane the drain holds.
#[test]
fn statuses_answer_while_a_wire_drain_is_pending() {
    let (fleet, wal) = open("pending-drain");
    fleet
        .submit(vec![JobKind::Green500 { server: "xeon-4870".to_string() }])
        .unwrap();
    let (listener, shard_addr) = listen();
    let shard = serve(&fleet, listener);
    let pool = PoolConfig { sockets: 2, depth: 16 };
    let router = Router::connect_with(&[shard_addr.to_string()], pool).unwrap();
    let (listener, addr) = listen();
    let routed = spawn(move || router.serve(listener));

    let (drained_tx, drained) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = drained_tx.send(FleetClient::connect(addr).unwrap().drain());
    });
    // A daemon refuses submits once its drain has begun; naming an
    // unknown server keeps the probe from adding a job otherwise.
    let unknown = || vec![JobKind::Green500 { server: "no-such-server".to_string() }];
    let began = Instant::now();
    while !fleet.submit(unknown()).unwrap_err().to_string().contains("draining") {
        assert!(began.elapsed() < DEADLINE, "the drain never reached the daemon");
        std::thread::sleep(Duration::from_millis(1));
    }

    let (status_tx, statuses) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = FleetClient::connect(addr).unwrap();
        for _ in 0..2 {
            let _ = status_tx.send(client.status(None).map(|jobs| jobs.len()));
        }
    });
    for _ in 0..2 {
        let answered = statuses.recv_timeout(DEADLINE).expect("a status waited on the drain");
        assert_eq!(answered.unwrap(), 1);
    }
    assert!(drained.try_recv().is_err(), "the drain cannot have finished");

    // With the scheduler running, the job finishes and so does the
    // drain.
    let scheduler = fleet.start_scheduler();
    let jobs = drained.recv_timeout(DEADLINE).expect("the drain answers").unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].state, "Done");
    FleetClient::connect(addr).unwrap().shutdown().unwrap();
    routed.recv_timeout(DEADLINE).expect("the router's serve returns").unwrap();
    shard.recv_timeout(DEADLINE).expect("the shard's serve returns").unwrap();
    scheduler.join().unwrap();
    std::fs::remove_file(wal).unwrap();
}

#[test]
fn a_wire_shutdown_ends_serve_while_another_client_idles() {
    let (fleet, wal) = open("idle");
    let (listener, addr) = listen();
    let served = serve(&fleet, listener);
    let mut idle = std::net::TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(DEADLINE)).unwrap();
    write_frame(&mut idle, &wire::encode_envelope(0, &Request::Ping).unwrap()).unwrap();
    assert!(read_frame(&mut idle).unwrap().unwrap().contains("pong"));

    FleetClient::connect(addr).unwrap().shutdown().unwrap();
    served.recv_timeout(DEADLINE).expect("serve returns").unwrap();
    assert_eq!(read_frame(&mut idle).unwrap(), None, "the idle client reads end of stream");
    std::fs::remove_file(wal).unwrap();
}

/// A stop requested in process ends `serve` too, by connecting once to
/// its listener; bound to the unspecified address, through loopback.
#[test]
fn a_stop_requested_in_process_ends_serve() {
    let (fleet, wal) = open("in-process");
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let served = serve(&fleet, listener);
    // An answered ping shows `serve` is up, so the stop has an accept
    // to wake.
    FleetClient::connect((Ipv4Addr::LOCALHOST, port)).unwrap().ping().unwrap();
    fleet.request_shutdown();
    served.recv_timeout(DEADLINE).expect("serve returns").unwrap();
    std::fs::remove_file(wal).unwrap();
}
