//! Pipelined connection pool: the router's link to one shard daemon.
//!
//! # Shape
//!
//! A [`ShardPool`] owns one or more TCP sockets to a single shard
//! daemon. Each socket carries many in-flight v2 requests at once: a
//! sender assigns the next per-socket request id, registers a reply
//! slot in the socket's in-flight table, and writes the envelope; a
//! dedicated reader thread per socket decodes tagged responses as they
//! arrive — in whatever order the daemon completed them — and fills
//! the matching slot. Callers hold a [`PendingReply`] and block on it
//! ([`PendingReply::wait`]), so a router request can put one send in
//! flight per shard before it waits on any.
//!
//! # Backpressure
//!
//! Each socket caps its in-flight requests at [`PoolConfig::depth`];
//! a sender that would exceed the cap blocks until a reply frees a
//! slot. The cap bounds both daemon-side queue growth and the reply
//! reassembly table.
//!
//! # Determinism
//!
//! Request ids are a per-socket counter — assigned in send order under
//! the write lock, no clock or RNG — and *mutating* requests (submit,
//! drain, shutdown) all ride lane 0, so every shard observes a single
//! total order of admissions no matter how wide the pool is. That is
//! what keeps WAL replay and the bitwise-merged-ranking failover
//! contract (`tests/fleet_failover.rs`) intact: a replayed shard
//! assigns the same local ids because it saw the same submit order.
//! Read-only probes round-robin across the remaining lanes, so with two
//! or more lanes none waits behind a drain: a shard answers each
//! connection's frames in order, and a drain holds lane 0 until the
//! shard's queue runs dry.
//!
//! # Failure
//!
//! A socket that sees EOF, an I/O error, an unknown reply id, or a
//! duplicate reply id is dead: every outstanding request on it fails
//! with the same error, and later sends on it are refused. Other
//! sockets in the pool are unaffected.

use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use serde::Value;

use crate::error::FleetError;
use crate::wire::{self, Request};

/// Pool shape knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Sockets per shard (lanes). Lane 0 carries mutating requests;
    /// reads ride the others when there are any.
    pub sockets: usize,
    /// Max in-flight requests per socket before senders block.
    pub depth: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { sockets: 2, depth: 16 }
    }
}

/// A pipelined connection pool to one shard daemon.
pub struct ShardPool {
    lanes: Vec<Arc<Lane>>,
    next_lane: AtomicUsize,
    depth: usize,
}

/// One socket plus its pipelining state.
struct Lane {
    /// Write half: the stream and the send-order id counter, under one
    /// lock so ids hit the wire in assignment order.
    tx: Mutex<LaneTx>,
    /// In-flight table and liveness, shared with the reader thread.
    state: Mutex<LaneState>,
    /// Signals a freed in-flight slot to depth-capped senders.
    space: Condvar,
}

struct LaneTx {
    stream: TcpStream,
    next_id: u64,
}

struct LaneState {
    inflight: HashMap<u64, Arc<ReplySlot>>,
    /// Reserved in-flight slots (reservation happens before the write
    /// lock, so the cap cannot be overshot by racing senders).
    occupancy: usize,
    /// The error that killed the socket, once dead.
    dead: Option<String>,
}

/// A registered reply: filled exactly once by the reader thread.
struct ReplySlot {
    value: Mutex<Option<Result<Value, FleetError>>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> ReplySlot {
        ReplySlot { value: Mutex::new(None), ready: Condvar::new() }
    }

    fn fill(&self, result: Result<Value, FleetError>) {
        *self.value.lock() = Some(result);
        self.ready.notify_all();
    }
}

/// Handle to one in-flight request's eventual response.
pub struct PendingReply {
    slot: Arc<ReplySlot>,
}

impl PendingReply {
    /// Block until the response arrives.
    pub fn wait(self) -> Result<Value, FleetError> {
        let mut v = self.slot.value.lock();
        loop {
            match v.take() {
                Some(result) => return result,
                None => self.slot.ready.wait(&mut v),
            }
        }
    }
}

impl ShardPool {
    /// Connect `config.sockets` pipelined sockets to one shard daemon
    /// and start their reader threads.
    pub fn connect(addr: impl ToSocketAddrs, config: PoolConfig) -> Result<ShardPool, FleetError> {
        if config.sockets == 0 || config.depth == 0 {
            return Err(FleetError::Protocol("pool needs sockets, depth ≥ 1".to_string()));
        }
        let mut lanes = Vec::with_capacity(config.sockets);
        for _ in 0..config.sockets {
            let stream = TcpStream::connect(&addr)?;
            let _ = stream.set_nodelay(true);
            let reader = stream.try_clone()?;
            let lane = Arc::new(Lane {
                tx: Mutex::new(LaneTx { stream, next_id: 0 }),
                state: Mutex::new(LaneState { inflight: HashMap::new(), occupancy: 0, dead: None }),
                space: Condvar::new(),
            });
            let for_reader = Arc::clone(&lane);
            std::thread::spawn(move || for_reader.read_loop(reader));
            lanes.push(lane);
        }
        Ok(ShardPool { lanes, next_lane: AtomicUsize::new(0), depth: config.depth })
    }

    /// Send one request down the appropriate lane; blocks only on the
    /// per-socket depth cap.
    pub fn send(&self, req: &Request) -> Result<PendingReply, FleetError> {
        let n = self.lanes.len();
        let lane = match req {
            // One total order for everything that mutates shard state.
            Request::Submit { .. } | Request::Drain | Request::Shutdown => 0,
            // Reads keep off lane 0, where a drain may be waiting.
            _ if n > 1 => 1 + self.next_lane.fetch_add(1, Ordering::Relaxed) % (n - 1),
            _ => 0,
        };
        self.lanes[lane].send(req, self.depth)
    }

    /// Blocking convenience: send and wait.
    pub fn call(&self, req: &Request) -> Result<Value, FleetError> {
        self.send(req)?.wait()
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Unblock the reader threads; they fail any stragglers and exit.
        for lane in &self.lanes {
            let _ = lane.tx.lock().stream.shutdown(Shutdown::Both);
        }
    }
}

impl Lane {
    fn send(self: &Arc<Self>, req: &Request, depth: usize) -> Result<PendingReply, FleetError> {
        // Reserve an in-flight slot under the cap.
        {
            let mut st = self.state.lock();
            loop {
                if let Some(msg) = &st.dead {
                    return Err(FleetError::Protocol(msg.clone()));
                }
                if st.occupancy < depth {
                    st.occupancy += 1;
                    break;
                }
                self.space.wait(&mut st);
            }
        }
        let slot = Arc::new(ReplySlot::new());
        let sent: Result<(), FleetError> = (|| {
            let mut tx = self.tx.lock();
            let id = tx.next_id;
            tx.next_id += 1;
            let frame = wire::encode_envelope(id, req)?;
            self.state.lock().inflight.insert(id, Arc::clone(&slot));
            match wire::write_frame(&mut tx.stream, &frame) {
                Ok(()) => Ok(()),
                Err(e) => {
                    self.state.lock().inflight.remove(&id);
                    Err(e)
                }
            }
        })();
        if let Err(e) = sent {
            let mut st = self.state.lock();
            st.occupancy -= 1;
            self.space.notify_one();
            drop(st);
            return Err(e);
        }
        Ok(PendingReply { slot })
    }

    /// Reader thread: decode tagged replies and fill matching slots
    /// until the socket dies.
    fn read_loop(self: Arc<Self>, mut stream: TcpStream) {
        loop {
            let frame = match wire::read_frame(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => return self.fail_all("shard closed the connection"),
                Err(e) => return self.fail_all(&e.to_string()),
            };
            let (id, body) = match wire::decode_tagged_response(&frame) {
                Ok(decoded) => decoded,
                Err(e) => return self.fail_all(&format!("undecodable shard response: {e}")),
            };
            let Some(id) = id else {
                // An untagged reply is a transport-level shard error
                // (e.g. it thinks we speak the wrong version): fatal.
                let msg = match body {
                    Err(e) => format!("shard rejected the stream: {e}"),
                    Ok(_) => "shard sent an untagged success response".to_string(),
                };
                return self.fail_all(&msg);
            };
            let slot = {
                let mut st = self.state.lock();
                match st.inflight.remove(&id) {
                    Some(slot) => {
                        st.occupancy -= 1;
                        slot
                    }
                    // An id nothing is waiting on is either a duplicate
                    // delivery or corruption; the reply stream cannot
                    // be trusted either way.
                    None => {
                        drop(st);
                        return self.fail_all(&format!(
                            "shard reply carries unknown or duplicate request id {id}"
                        ));
                    }
                }
            };
            self.space.notify_one();
            slot.fill(body);
        }
    }

    /// Kill the socket: refuse future sends and fail every in-flight
    /// request with the reason.
    fn fail_all(&self, msg: &str) {
        let victims: Vec<Arc<ReplySlot>> = {
            let mut st = self.state.lock();
            st.dead = Some(format!("shard connection failed: {msg}"));
            st.occupancy = 0;
            st.inflight.drain().map(|(_, slot)| slot).collect()
        };
        self.space.notify_all();
        for slot in victims {
            slot.fill(Err(FleetError::Protocol(format!("shard connection failed: {msg}"))));
        }
    }
}
