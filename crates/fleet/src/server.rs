//! The readiness-loop TCP front-end shared by the daemon and the
//! router: one thread, non-blocking accept, and a per-connection
//! read/write state machine — no handler thread per connection.
//!
//! # Shape
//!
//! A [`Poller`] (vendored epoll on Linux, portable `poll` elsewhere)
//! watches the listener plus every live connection, each keyed by a
//! monotonically assigned `usize`. Each [`Conn`] carries the wire
//! state that a blocking handler kept implicitly on its stack:
//!
//! - an incremental [`FrameDecoder`] reassembling u32-BE
//!   length-prefixed frames across arbitrarily torn reads, and
//! - an outbox (`Vec<u8>` plus a flush cursor) carrying encoded
//!   response frames across partial writes.
//!
//! Write interest is registered only while the outbox is non-empty, so
//! an idle connection costs one registered fd and nothing else.
//!
//! # Services, tickets, and out-of-order replies
//!
//! The loop is generic over a [`Service`]: the daemon and the router
//! plug in request handling via [`Service::handle`], which returns an
//! [`Action`]. Responses the service cannot produce inline — a `drain`
//! that completes only when the queue runs dry, or a router fan-out
//! waiting on shard replies — come back as [`Action::Defer`] carrying a
//! service-chosen *ticket*; the loop re-asks
//! [`Service::poll_ticket`] for each outstanding ticket and releases
//! each response the moment it is ready. Since protocol v2 every
//! request carries an id and every response is tagged with it
//! ([`wire::attach_id`]), the loop keeps dispatching frames that arrive
//! while earlier responses are still pending: replies go out in
//! *completion* order, and the client's in-flight table reorders them.
//! `shutdown` replies first and stops the loop only after the response
//! is flushed.
//!
//! Services whose deferred completions land on background threads (the
//! router's connection pool) receive a [`Waker`] via
//! [`Service::attach_waker`] and nudge the poller when a completion
//! lands, so deferred latency is wake latency, not the 25 ms tick.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use polling::{Event, Interest, Poller};

use crate::error::FleetError;
use crate::wire::{self, FrameDecoder, Request};

/// How a [`Service`] disposes of one decoded request. Response bodies
/// are untagged; the loop attaches the request id.
pub(crate) enum Action {
    /// Send this response now.
    Reply(String),
    /// The response is not ready; poll [`Service::poll_ticket`] with
    /// the carried ticket until it yields the body.
    Defer(u64),
    /// Send this response, then stop the serve loop once it is flushed.
    ReplyThenShutdown(String),
}

/// Wakes a [`serve_readiness`] loop blocked in its poller — handed to
/// services so background completion threads can cut the poll tick
/// short.
#[derive(Clone)]
pub(crate) struct Waker(Arc<Poller>);

impl Waker {
    /// Wake the loop; wakes coalesce and never fail.
    pub(crate) fn wake(&self) {
        let _ = self.0.notify();
    }
}

/// A protocol endpoint served by [`serve_readiness`].
pub(crate) trait Service: Sync {
    /// Dispose of one request.
    fn handle(&self, req: Request) -> Action;
    /// Non-blocking completion check for a deferred response.
    fn poll_ticket(&self, ticket: u64) -> Option<String>;
    /// A flushed shutdown response commits the stop.
    fn begin_shutdown(&self);
    /// True once the loop should exit.
    fn shutting_down(&self) -> bool;
    /// Offered once at serve start; services with background
    /// completions keep it and wake the loop per completion.
    fn attach_waker(&self, _waker: Waker) {}
}

/// Poll tick: bounds shutdown/drain-completion latency.
const TICK: Duration = Duration::from_millis(25);
/// The listener's key; connection keys start above it.
const LISTENER_KEY: usize = 0;

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbox: Vec<u8>,
    sent: usize,
    interest: Interest,
    /// Outstanding deferred responses: `(service ticket, request id)`.
    /// Completions queue in whatever order [`Service::poll_ticket`]
    /// yields them — the id tag is what lets the client reassemble.
    pending: Vec<(u64, u64)>,
    /// Peer half-closed; reap once the outbox flushes.
    eof: bool,
    /// Protocol violation: finish flushing the error frame, then drop.
    close_after_flush: bool,
    /// Flushed response commits daemon shutdown.
    shutdown_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            outbox: Vec::new(),
            sent: 0,
            interest: Interest::READABLE,
            pending: Vec::new(),
            eof: false,
            close_after_flush: false,
            shutdown_after_flush: false,
            dead: false,
        }
    }

    /// Append one encoded response frame to the outbox.
    fn queue_response(&mut self, json: &str) {
        match wire::encode_frame(json) {
            Ok(frame) => self.outbox.extend_from_slice(&frame),
            Err(e) => {
                // Response too large to frame: report that instead of
                // wedging the connection, then drop it.
                let fallback = wire::error_to_response(&e);
                self.outbox.extend_from_slice(
                    &wire::encode_frame(&fallback).expect("error responses are small"),
                );
                self.close_after_flush = true;
            }
        }
    }

    /// Drain the socket's receive buffer into the decoder.
    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Decode and dispatch buffered frames. Deferred responses do not
    /// stall the stream: later frames keep dispatching, and each reply
    /// goes out tagged with its request id when it completes.
    fn dispatch(&mut self, service: &impl Service) {
        while !self.close_after_flush && !self.dead {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => match wire::decode_envelope(&frame) {
                    Ok((id, Ok(req))) => match service.handle(req) {
                        Action::Reply(r) => self.queue_response(&wire::attach_id(id, &r)),
                        Action::Defer(ticket) => self.pending.push((ticket, id)),
                        Action::ReplyThenShutdown(r) => {
                            self.queue_response(&wire::attach_id(id, &r));
                            self.shutdown_after_flush = true;
                        }
                    },
                    // A malformed op in a well-formed envelope gets a
                    // tagged error response; the connection survives.
                    Ok((id, Err(e))) => {
                        self.queue_response(&wire::attach_id(id, &wire::error_to_response(&e)))
                    }
                    // Unroutable frame (bad JSON, version mismatch, no
                    // id): no id to tag, so answer untagged; the
                    // connection survives — the stream itself is still
                    // framed correctly.
                    Err(e) => self.queue_response(&wire::error_to_response(&e)),
                },
                Ok(None) => break,
                Err(e) => {
                    // Unframeable stream (oversize/torn prefix): reply,
                    // then close — the byte stream cannot be resynced.
                    self.queue_response(&wire::error_to_response(&e));
                    self.close_after_flush = true;
                }
            }
        }
    }

    /// Queue every deferred response whose ticket has completed.
    fn release_completions(&mut self, service: &impl Service) {
        let mut i = 0;
        while i < self.pending.len() {
            let (ticket, id) = self.pending[i];
            match service.poll_ticket(ticket) {
                Some(body) => {
                    self.queue_response(&wire::attach_id(id, &body));
                    self.pending.swap_remove(i);
                }
                None => i += 1,
            }
        }
    }

    /// Push outbox bytes to the socket until done or it would block.
    fn flush(&mut self, service: &impl Service) {
        while self.sent < self.outbox.len() {
            match self.stream.write(&self.outbox[self.sent..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.outbox.clear();
        self.sent = 0;
        if self.shutdown_after_flush {
            service.begin_shutdown();
        }
        if self.close_after_flush {
            self.dead = true;
        }
    }

    fn wants_write(&self) -> bool {
        self.sent < self.outbox.len()
    }
}

/// Serve `service` on `listener` with a single-threaded readiness loop
/// until the service reports shutdown.
pub(crate) fn serve_readiness<S: Service>(
    service: &S,
    listener: TcpListener,
) -> Result<(), FleetError> {
    listener.set_nonblocking(true)?;
    let poller = Arc::new(Poller::new()?);
    service.attach_waker(Waker(Arc::clone(&poller)));
    poller.add(listener.as_raw_fd(), LISTENER_KEY, Interest::READABLE)?;
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = LISTENER_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    while !service.shutting_down() {
        poller.wait(&mut events, Some(TICK))?;
        for ev in &events {
            if ev.key == LISTENER_KEY {
                accept_ready(&listener, &poller, &mut conns, &mut next_key)?;
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else { continue };
            if ev.readable {
                conn.fill();
                conn.dispatch(service);
            }
            if ev.writable {
                conn.flush(service);
            }
        }
        // Wake/tick work: deferred completions, opportunistic flushes,
        // interest updates, and reaping.
        for (&key, conn) in conns.iter_mut() {
            if !conn.pending.is_empty() {
                conn.release_completions(service);
            }
            if conn.wants_write() && !conn.dead {
                conn.flush(service);
            }
            if conn.eof && !conn.wants_write() && conn.pending.is_empty() {
                conn.dead = true;
            }
            if conn.dead {
                let _ = poller.delete(conn.stream.as_raw_fd());
                continue;
            }
            let want = Interest { readable: true, writable: conn.wants_write() };
            if want != conn.interest {
                poller.modify(conn.stream.as_raw_fd(), key, want)?;
                conn.interest = want;
            }
        }
        conns.retain(|_, c| !c.dead);
    }
    Ok(())
}

fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) -> Result<(), FleetError> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(true)?;
                // Small request/response frames: don't let Nagle batch.
                let _ = stream.set_nodelay(true);
                let key = *next_key;
                *next_key += 1;
                poller.add(stream.as_raw_fd(), key, Interest::READABLE)?;
                conns.insert(key, Conn::new(stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
}
