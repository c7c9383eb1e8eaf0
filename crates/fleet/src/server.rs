//! The blocking TCP front-end shared by the daemon and the router: an
//! accept loop that hands each connection to a connection thread.
//!
//! # Shape
//!
//! A connection thread loops [`wire::read_frame`] →
//! [`Service::respond`] → [`wire::write_frame`], tagging each reply
//! with its request id ([`wire::attach_id`]). A request that takes a
//! while — a `drain` that ends only when the queue runs dry, a router
//! fan-out waiting on its shards — holds up later frames on its own
//! connection only; every other connection has a thread of its own.
//! That is why the router's pool keeps reads off the lane its drains
//! ride (see [`crate::pool`]).
//!
//! Connection threads are reused. An idle thread takes the next
//! accepted connection, and a new thread is spawned only when none is
//! idle, up to [`MAX_CONN_THREADS`]. A connection accepted beyond the
//! cap waits, accepted but unanswered, until a thread is free.
//!
//! # Stopping
//!
//! The thread that writes a `shutdown` reply then stops the service,
//! which sets its [`Stop`]. Setting the signal wakes the blocking
//! accept by connecting once to the listener, so a stop requested in
//! process ends [`serve`] as well. Before `serve` returns it shuts down
//! every live and waiting connection and joins every connection
//! thread.

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::error::FleetError;
use crate::wire::{self, Request};

/// Most connection threads one [`serve`] runs. Spawning a thread per
/// connection instead, with no reuse, measured 1.2–1.3× the readiness
/// loop's `fleet-status` p50 and 1.4–1.5× its tail (DESIGN §15).
const MAX_CONN_THREADS: usize = 32;

/// A protocol endpoint served by [`serve`].
pub(crate) trait Service: Sync {
    /// Answer one request with an untagged response body.
    fn respond(&self, req: Request) -> String;
    /// The signal that ends [`serve`].
    fn stop(&self) -> &Stop;
    /// Stop the service once its `shutdown` reply is out; sets
    /// [`Service::stop`].
    fn shut_down(&self);
}

/// A serve loop's stop signal; once set, it stays set.
#[derive(Default)]
pub(crate) struct Stop {
    set: AtomicBool,
    /// The address that reaches the listener of a running [`serve`].
    wake: Mutex<Option<SocketAddr>>,
}

impl Stop {
    /// Set the signal and wake a [`serve`] blocked in accept.
    pub(crate) fn set(&self) {
        self.set.store(true, Ordering::SeqCst);
        let wake = self.wake.lock().take();
        if let Some(addr) = wake {
            // The accept loop checks the signal after every accept and
            // drops this connection unanswered.
            let _ = TcpStream::connect(addr);
        }
    }

    /// True once the signal is set.
    pub(crate) fn is_set(&self) -> bool {
        self.set.load(Ordering::SeqCst)
    }
}

/// Serve `service` on `listener` until its [`Stop`] is set.
pub(crate) fn serve<S: Service>(service: &S, listener: TcpListener) -> Result<(), FleetError> {
    serve_capped(service, listener, MAX_CONN_THREADS)
}

/// [`serve`] with at most `cap` connection threads.
fn serve_capped<S: Service>(
    service: &S,
    listener: TcpListener,
    cap: usize,
) -> Result<(), FleetError> {
    let stop = service.stop();
    // Published before the first check, so a stop set at any moment
    // either is seen by that check or connects to wake the accept.
    *stop.wake.lock() = Some(wake_addr(listener.local_addr()?));
    let conns = Conns { state: Mutex::new(ConnState::default()), ready: Condvar::new() };
    let conns = &conns;
    let accepted = std::thread::scope(|scope| {
        let accepted = loop {
            if stop.is_set() {
                break Ok(());
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            if stop.is_set() {
                break Ok(());
            }
            // Small request/response frames: don't let Nagle batch.
            let _ = stream.set_nodelay(true);
            let mut st = conns.state.lock();
            st.waiting.push_back(stream);
            // Each idle thread takes one waiting connection; spawn only
            // for a connection that no idle thread will take.
            let slot = st.serving.len();
            if st.waiting.len() > st.idle && slot < cap {
                st.serving.push(None);
                scope.spawn(move || conn_thread(service, conns, slot));
            }
            drop(st);
            conns.ready.notify_one();
        };
        *stop.wake.lock() = None;
        let mut st = conns.state.lock();
        st.closing = true;
        st.waiting.clear();
        for stream in st.serving.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(st);
        conns.ready.notify_all();
        accepted
    });
    accepted.map_err(FleetError::from)
}

/// The address a stop connects to: the listener's own, with an
/// unspecified IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Connections waiting for a thread, and the ones [`serve`] must shut
/// down before it returns.
struct Conns {
    state: Mutex<ConnState>,
    /// Signals a waiting connection, or closing, to idle threads.
    ready: Condvar,
}

#[derive(Default)]
struct ConnState {
    waiting: VecDeque<TcpStream>,
    /// Threads parked for a connection.
    idle: usize,
    /// A handle to the connection each thread serves, by thread; one
    /// slot per thread spawned.
    serving: Vec<Option<TcpStream>>,
    closing: bool,
}

/// One connection thread: serve waiting connections one after another
/// until `serve` closes.
fn conn_thread(service: &impl Service, conns: &Conns, slot: usize) {
    loop {
        let stream = {
            let mut st = conns.state.lock();
            st.idle += 1;
            let stream = loop {
                if st.closing {
                    return;
                }
                if let Some(stream) = st.waiting.pop_front() {
                    break stream;
                }
                conns.ready.wait(&mut st);
            };
            st.idle -= 1;
            // Without a handle `serve` could not shut the connection
            // down, so one that cannot be cloned is dropped unanswered.
            let Ok(handle) = stream.try_clone() else { continue };
            st.serving[slot] = Some(handle);
            stream
        };
        serve_conn(service, &stream);
        conns.state.lock().serving[slot] = None;
    }
}

/// Answer `stream`'s frames in order until it closes, breaks the
/// framing, or carries a `shutdown`.
fn serve_conn(service: &impl Service, stream: &TcpStream) {
    // Buffered, a small frame costs one read instead of two (prefix,
    // then payload).
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match wire::read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Unframeable stream (oversize prefix, not UTF-8): reply,
            // then close — the byte stream cannot be resynced.
            Err(e @ FleetError::Protocol(_)) => {
                send(stream, &wire::error_to_response(&e));
                return;
            }
            Ok(None) | Err(_) => return,
        };
        let (reply, stopping) = match wire::decode_envelope(&frame) {
            Ok((id, Ok(req))) => {
                let stopping = req == Request::Shutdown;
                (wire::attach_id(id, &service.respond(req)), stopping)
            }
            // A malformed op in a well-formed envelope gets a tagged
            // error response; the connection survives.
            Ok((id, Err(e))) => (wire::attach_id(id, &wire::error_to_response(&e)), false),
            // Unroutable frame (bad JSON, version mismatch, no id): no
            // id to tag, so answer untagged; the connection survives —
            // the stream itself is still framed correctly.
            Err(e) => (wire::error_to_response(&e), false),
        };
        let open = send(stream, &reply);
        if stopping {
            service.shut_down();
        }
        if !open || stopping {
            return;
        }
    }
}

/// Write one response frame; false once the connection must close.
fn send(mut stream: &TcpStream, json: &str) -> bool {
    match wire::write_frame(&mut stream, json) {
        Ok(()) => true,
        // Too large to frame: report that instead of wedging the
        // client, then close.
        Err(e @ FleetError::Protocol(_)) => {
            let _ = wire::write_frame(&mut stream, &wire::error_to_response(&e));
            false
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    use crate::daemon::{Fleet, FleetConfig};
    use crate::registry::Registry;

    /// How long the test waits on a reply or on `serve` before it
    /// fails instead of hanging.
    const DEADLINE: Duration = Duration::from_secs(30);

    fn ping(stream: &mut TcpStream, id: u64) {
        wire::write_frame(stream, &wire::encode_envelope(id, &Request::Ping).unwrap()).unwrap();
    }

    fn pong(stream: &mut TcpStream) -> Result<Option<String>, FleetError> {
        wire::read_frame(stream)
    }

    fn connect_and_ping(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(DEADLINE)).unwrap();
        ping(&mut stream, 0);
        assert!(pong(&mut stream).unwrap().unwrap().contains("pong"));
        stream
    }

    #[test]
    fn a_connection_past_the_cap_waits_for_a_free_thread() {
        let wal =
            std::env::temp_dir().join(format!("hpceval-server-cap-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal);
        let fleet = Fleet::open(FleetConfig::default(), Registry::with_presets(), &wal).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, served) = mpsc::channel();
        let serving = std::sync::Arc::clone(&fleet);
        std::thread::spawn(move || {
            let _ = tx.send(serve_capped(&*serving, listener, 2));
        });

        let first = connect_and_ping(addr);
        let _second = connect_and_ping(addr);
        let mut third = TcpStream::connect(addr).unwrap();
        ping(&mut third, 0);
        // Both threads are held by open connections, so the third gets
        // no answer. Only a wait can show that; no event marks it.
        third.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let early = pong(&mut third);
        assert!(
            matches!(&early, Err(FleetError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
            "answered past the cap: {early:?}"
        );
        drop(first);
        third.set_read_timeout(Some(DEADLINE)).unwrap();
        let answer = pong(&mut third).unwrap().expect("answered once a thread is free");
        assert!(answer.contains("pong"), "{answer}");

        fleet.request_shutdown();
        served.recv_timeout(DEADLINE).expect("serve returns").unwrap();
        std::fs::remove_file(wal).unwrap();
    }
}
