//! The fan-out router: one wire-protocol endpoint federating N sharded
//! daemons, each owning a slice of the job-key space.
//!
//! # Sharding
//!
//! Every submitted job draws a monotonically increasing router key; the
//! owning shard is the range partition of `splitmix64(key)` — shard
//! `i` of `n` owns hashes in `[i·2⁶⁴/n, (i+1)·2⁶⁴/n)`. The hash whitens
//! the sequential keys so consecutive submits spread uniformly across
//! shards regardless of submission pattern.
//!
//! # Global ids
//!
//! Shards assign their own dense local ids, so the router interleaves:
//! global id = `local · n + shard`. The mapping is a bijection
//! (`shard = g mod n`, `local = g div n`), which lets `status` requests
//! for one job route straight to the owning shard with no id table —
//! the router holds **no job state** and can be restarted freely; all
//! durable state lives in the shards' WALs.
//!
//! # Pipelined fan-out
//!
//! Each shard sits behind a [`ShardPool`]: a few sockets, each
//! carrying many in-flight tagged requests. The router's readiness
//! loop never blocks on a shard — [`Service::handle`] issues the shard
//! requests and defers the client's response on a *ticket*; pool
//! reader threads fill reply slots as shards answer (in completion
//! order, reassembled by request id) and wake the loop, which
//! assembles and releases each finished response. Requests from many
//! client connections therefore overlap inside every shard instead of
//! serializing on one lock-step round-trip per shard.
//!
//! Submit order stays deterministic: router keys are drawn on the
//! single loop thread in request-arrival order, and the pool sends all
//! mutating requests down one lane per shard, so WAL replay and the
//! bitwise-merged-ranking failover contract still hold.
//!
//! # Failover
//!
//! A shard that dies takes nothing with it: its WAL holds every
//! accepted job and checkpoint. Kill-9-safe replay (`Fleet::open` on
//! the same WAL path) brings up a replacement that resumes mid-job,
//! and a router (re)connected to the replacement serves the same
//! global ids — the merged ranking after a crash is bitwise-identical
//! to an uninterrupted run (`tests/fleet_failover.rs` proves it).
//!
//! # Semantics at the edges
//!
//! - `submit` batches are atomic *per shard* (each shard's sub-batch
//!   is WAL-logged all-or-nothing) but best-effort across shards: if
//!   shard B pushes back after shard A accepted, the error propagates
//!   and A keeps its jobs. Single-job submits are fully atomic.
//! - A shard's error reply is relayed with the shard named
//!   (`shard 1: unknown server …`); a backlog push-back keeps its
//!   retry hint unchanged, so clients back off through the router.
//! - `drain` fans out concurrently and completes when every shard is
//!   dry; unlike the pre-pipelining router it no longer blocks the
//!   loop, so status probes keep being answered while a drain runs
//!   (shards reject new submits during their own drain regardless).

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Value;

use hpceval_trace::splitmix64;

use crate::error::FleetError;
use crate::job::{self, JobId, JobKind, JobStatus, RankedServer};
use crate::pool::{PendingReply, PoolConfig, ShardPool};
use crate::server::{self, Action, Service, Waker};
use crate::wire::{self, Request};

/// A running router over pipelined pools to the shard daemons.
pub struct Router {
    shards: Vec<ShardPool>,
    next_key: AtomicU64,
    next_ticket: AtomicU64,
    /// Deferred fan-outs by ticket, polled by the readiness loop.
    pending: Mutex<HashMap<u64, PendingOp>>,
    shutdown: AtomicBool,
}

/// One shard's share of a deferred fan-out.
struct Part {
    shard: usize,
    reply: PendingReply,
    done: Option<Result<Value, FleetError>>,
}

impl Part {
    fn poll(&mut self) -> bool {
        if self.done.is_none() {
            self.done = self.reply.try_take();
        }
        self.done.is_some()
    }
}

/// A deferred fan-out awaiting shard replies.
enum PendingOp {
    /// Per-shard sub-batches; `positions[i]` maps part `i`'s local ids
    /// back to submission order.
    Submit { parts: Vec<Part>, positions: Vec<Vec<usize>>, total: usize },
    /// Merged job snapshots (whole-fleet status, one-job status, drain).
    Jobs { parts: Vec<Part> },
    /// The merged §V ranking.
    Ranking { parts: Vec<Part> },
}

impl PendingOp {
    fn parts_mut(&mut self) -> &mut Vec<Part> {
        match self {
            PendingOp::Submit { parts, .. }
            | PendingOp::Jobs { parts }
            | PendingOp::Ranking { parts } => parts,
        }
    }

    /// True once every shard reply has arrived.
    fn ready(&mut self) -> bool {
        self.parts_mut().iter_mut().all(Part::poll)
    }
}

impl Router {
    /// Connect to every shard daemon with the default pool shape.
    /// Order matters: shard index is baked into global job ids, so a
    /// replacement daemon for shard `i` must appear at position `i`
    /// again.
    pub fn connect<A: AsRef<str>>(shard_addrs: &[A]) -> Result<Router, FleetError> {
        Self::connect_with(shard_addrs, PoolConfig::default())
    }

    /// Connect with an explicit pool shape (sockets per shard,
    /// pipeline depth).
    pub fn connect_with<A: AsRef<str>>(
        shard_addrs: &[A],
        pool: PoolConfig,
    ) -> Result<Router, FleetError> {
        if shard_addrs.is_empty() {
            return Err(FleetError::Protocol("router needs at least one shard".to_string()));
        }
        let shards = shard_addrs
            .iter()
            .map(|a| ShardPool::connect(a.as_ref(), pool))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Router {
            shards,
            next_key: AtomicU64::new(0),
            next_ticket: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Number of shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The owning shard for a router-assigned submit key.
    fn shard_of(&self, key: u64) -> usize {
        let n = self.shards.len() as u128;
        ((u128::from(splitmix64(key)) * n) >> 64) as usize
    }

    fn to_global(&self, shard: usize, local: JobId) -> JobId {
        local * self.shards.len() as u64 + shard as u64
    }

    /// Invert the global-id bijection: the `(shard, local)` pair a
    /// global id routes to. Public so in-process collectors (the tune
    /// sweep driver) can read full results straight from the shard
    /// daemons that the wire's status snapshots deliberately omit.
    pub fn split_global(&self, global: JobId) -> (usize, JobId) {
        let n = self.shards.len() as u64;
        ((global % n) as usize, global / n)
    }

    // --- fan-out construction -------------------------------------

    /// Partition a batch across shards and put every sub-batch in
    /// flight.
    fn start_submit(&self, jobs: Vec<JobKind>) -> Result<PendingOp, FleetError> {
        let total = jobs.len();
        let mut per_shard: Vec<Vec<(usize, JobKind)>> = vec![Vec::new(); self.shards.len()];
        for (pos, kind) in jobs.into_iter().enumerate() {
            let key = self.next_key.fetch_add(1, Ordering::Relaxed);
            per_shard[self.shard_of(key)].push((pos, kind));
        }
        let mut parts = Vec::new();
        let mut positions = Vec::new();
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (pos, kinds): (Vec<usize>, Vec<JobKind>) = batch.into_iter().unzip();
            let reply = self.shards[shard].send(&Request::Submit { jobs: kinds })?;
            parts.push(Part { shard, reply, done: None });
            positions.push(pos);
        }
        Ok(PendingOp::Submit { parts, positions, total })
    }

    /// Put one request in flight to every shard.
    fn start_fan(&self, req: &Request) -> Result<Vec<Part>, FleetError> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, pool)| Ok(Part { shard, reply: pool.send(req)?, done: None }))
            .collect()
    }

    fn start_status(&self, job: Option<JobId>) -> Result<PendingOp, FleetError> {
        let parts = match job {
            Some(global) => {
                let (shard, local) = self.split_global(global);
                let reply = self.shards[shard].send(&Request::Status { job: Some(local) })?;
                vec![Part { shard, reply, done: None }]
            }
            None => self.start_fan(&Request::Status { job: None })?,
        };
        Ok(PendingOp::Jobs { parts })
    }

    // --- assembly --------------------------------------------------

    fn assemble(&self, op: PendingOp) -> AssembledOp {
        match op {
            PendingOp::Submit { parts, positions, total } => {
                AssembledOp::Submit(self.assemble_submit(parts, positions, total))
            }
            PendingOp::Jobs { parts } => AssembledOp::Jobs(self.assemble_jobs(parts)),
            PendingOp::Ranking { parts } => AssembledOp::Ranking(assemble_ranking(parts)),
        }
    }

    fn assemble_submit(
        &self,
        parts: Vec<Part>,
        positions: Vec<Vec<usize>>,
        total: usize,
    ) -> Result<Vec<JobId>, FleetError> {
        let mut ids = vec![0u64; total];
        for (part, positions) in parts.into_iter().zip(positions) {
            let shard = part.shard;
            let locals = take_done(part, wire::decode_ids)?;
            if locals.len() != positions.len() {
                return Err(FleetError::Protocol(format!(
                    "shard {shard} returned a short id batch: {} ids for {} jobs",
                    locals.len(),
                    positions.len()
                )));
            }
            for (pos, local) in positions.into_iter().zip(locals) {
                ids[pos] = self.to_global(shard, local);
            }
        }
        Ok(ids)
    }

    fn assemble_jobs(&self, parts: Vec<Part>) -> Result<Vec<JobStatus>, FleetError> {
        let mut merged = Vec::new();
        for part in parts {
            let shard = part.shard;
            let jobs = take_done(part, wire::decode_jobs)?;
            merged.extend(
                jobs.into_iter()
                    .map(|job| JobStatus { id: self.to_global(shard, job.id), ..job }),
            );
        }
        merged.sort_by_key(|j| j.id);
        Ok(merged)
    }

    // --- blocking front doors (in-process callers and tests) -------

    /// Submit a batch, fanning each job out to its owning shard;
    /// returns global ids in submission order.
    pub fn submit(&self, jobs: Vec<JobKind>) -> Result<Vec<JobId>, FleetError> {
        match self.finish(self.start_submit(jobs)?) {
            AssembledOp::Submit(ids) => ids,
            _ => unreachable!("submit op assembles to ids"),
        }
    }

    /// Status snapshots with global ids: one job routes to its owning
    /// shard; a whole-fleet snapshot merges every shard's view.
    pub fn status(&self, job: Option<JobId>) -> Result<Vec<JobStatus>, FleetError> {
        match self.finish(self.start_status(job)?) {
            AssembledOp::Jobs(jobs) => jobs,
            _ => unreachable!("status op assembles to jobs"),
        }
    }

    /// Drain every shard (concurrently; completes when all queues are
    /// dry) and merge the final statuses.
    pub fn drain(&self) -> Result<Vec<JobStatus>, FleetError> {
        match self.finish(PendingOp::Jobs { parts: self.start_fan(&Request::Drain)? }) {
            AssembledOp::Jobs(jobs) => jobs,
            _ => unreachable!("drain op assembles to jobs"),
        }
    }

    /// The merged §V ranking: per-shard rankings concatenated and
    /// re-sorted by [`job::rank`], the comparator the daemon ranks with
    /// (best mean clean PPW first, name-tiebroken), so the merged order
    /// is identical to what one daemon owning every job would report.
    pub fn ranking(&self) -> Result<Vec<RankedServer>, FleetError> {
        match self.finish(PendingOp::Ranking { parts: self.start_fan(&Request::Ranking)? }) {
            AssembledOp::Ranking(rows) => rows,
            _ => unreachable!("ranking op assembles to rows"),
        }
    }

    /// Ask every shard daemon to stop (the router object survives).
    pub fn shutdown_shards(&self) -> Result<(), FleetError> {
        for pool in &self.shards {
            pool.call(&Request::Shutdown)?;
        }
        Ok(())
    }

    /// Wait out a fan-out's shard replies, then assemble.
    fn finish(&self, op: PendingOp) -> AssembledOp {
        let op = match op {
            PendingOp::Submit { parts, positions, total } => {
                PendingOp::Submit { parts: wait_parts(parts), positions, total }
            }
            PendingOp::Jobs { parts } => PendingOp::Jobs { parts: wait_parts(parts) },
            PendingOp::Ranking { parts } => PendingOp::Ranking { parts: wait_parts(parts) },
        };
        self.assemble(op)
    }

    /// Serve the wire protocol on `listener` via the readiness loop
    /// until a shutdown request arrives.
    pub fn serve(&self, listener: TcpListener) -> Result<(), FleetError> {
        server::serve_readiness(self, listener)
    }

    /// Stop a running [`Router::serve`] loop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Park a started fan-out under a fresh ticket for the readiness
    /// loop to poll, or answer the start-up error inline.
    fn defer(&self, op: Result<PendingOp, FleetError>) -> Action {
        match op {
            Ok(op) => {
                let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
                self.pending.lock().insert(ticket, op);
                Action::Defer(ticket)
            }
            Err(e) => Action::Reply(wire::error_to_response(&e)),
        }
    }
}

/// A completed fan-out in typed form, shared by the blocking front
/// doors and the deferred wire path.
enum AssembledOp {
    Submit(Result<Vec<JobId>, FleetError>),
    Jobs(Result<Vec<JobStatus>, FleetError>),
    Ranking(Result<Vec<RankedServer>, FleetError>),
}

impl AssembledOp {
    fn into_response(self) -> String {
        match self {
            AssembledOp::Submit(Ok(ids)) => wire::submit_response(&ids),
            AssembledOp::Jobs(Ok(jobs)) => wire::status_response(&jobs),
            AssembledOp::Ranking(Ok(rows)) => wire::ranking_response(&rows),
            AssembledOp::Submit(Err(e))
            | AssembledOp::Jobs(Err(e))
            | AssembledOp::Ranking(Err(e)) => wire::error_to_response(&e),
        }
    }
}

/// A part's reply, decoded; a shard-side or decode error names the
/// shard it came from.
fn take_done<T>(part: Part, decode: fn(&Value) -> Result<T, FleetError>) -> Result<T, FleetError> {
    let shard = part.shard;
    part.done
        .expect("part polled or waited to completion before assembly")
        .and_then(|v| decode(&v))
        .map_err(|e| match e {
            FleetError::Remote(msg) => FleetError::Remote(format!("shard {shard}: {msg}")),
            FleetError::Protocol(msg) => FleetError::Protocol(format!("shard {shard}: {msg}")),
            other => other,
        })
}

fn wait_parts(parts: Vec<Part>) -> Vec<Part> {
    parts
        .into_iter()
        .map(|p| Part { shard: p.shard, done: Some(p.reply.wait_ref()), reply: p.reply })
        .collect()
}

fn assemble_ranking(parts: Vec<Part>) -> Result<Vec<RankedServer>, FleetError> {
    let mut rows: Vec<RankedServer> = Vec::new();
    for part in parts {
        rows.extend(take_done(part, wire::decode_ranking)?);
    }
    job::rank(&mut rows);
    Ok(rows)
}

impl Service for Router {
    fn handle(&self, req: Request) -> Action {
        match req {
            Request::Ping => Action::Reply(
                wire::ok_response(vec![
                    ("pong".to_string(), Value::Str("hpceval-fleet-router".to_string())),
                    ("shards".to_string(), Value::UInt(self.shards.len() as u64)),
                ])
                .expect("static response encodes"),
            ),
            Request::Submit { jobs } => self.defer(self.start_submit(jobs)),
            Request::Status { job } => self.defer(self.start_status(job)),
            Request::Drain => {
                self.defer(self.start_fan(&Request::Drain).map(|parts| PendingOp::Jobs { parts }))
            }
            Request::Ranking => self
                .defer(self.start_fan(&Request::Ranking).map(|parts| PendingOp::Ranking { parts })),
            Request::Shutdown => {
                // Stop the shards first so their final states are
                // durable before the router acknowledges. Blocking the
                // loop here is fine: this request ends it.
                let response = match self.shutdown_shards() {
                    Ok(()) => wire::shutdown_response(),
                    Err(e) => wire::error_to_response(&e),
                };
                Action::ReplyThenShutdown(response)
            }
        }
    }

    fn poll_ticket(&self, ticket: u64) -> Option<String> {
        let op = {
            let mut pending = self.pending.lock();
            let ready = pending.get_mut(&ticket).is_some_and(PendingOp::ready);
            if !ready {
                return None;
            }
            pending.remove(&ticket).expect("ready ticket is present")
        };
        Some(self.assemble(op).into_response())
    }

    fn begin_shutdown(&self) {
        self.request_shutdown();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn attach_waker(&self, waker: Waker) {
        for pool in &self.shards {
            let waker = waker.clone();
            pool.set_notifier(Arc::new(move || waker.wake()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Fleet, FleetConfig};
    use crate::registry::Registry;

    fn router_with(n: usize) -> Router {
        // Build the shard table without live daemons: tests below only
        // use the pure id/shard arithmetic.
        Router {
            shards: (0..n).map(|_| unreachable_pool()).collect(),
            next_key: AtomicU64::new(0),
            next_ticket: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        }
    }

    fn unreachable_pool() -> ShardPool {
        // A listener that never accepts still completes the TCP
        // handshake (kernel backlog), giving a real connected pool.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        ShardPool::connect(listener.local_addr().unwrap(), PoolConfig::default()).unwrap()
    }

    #[test]
    fn global_ids_round_trip_for_any_shard_count() {
        for n in [1usize, 2, 3, 7] {
            let r = router_with(n);
            for shard in 0..n {
                for local in [0u64, 1, 5, 1000] {
                    let g = r.to_global(shard, local);
                    assert_eq!(r.split_global(g), (shard, local));
                }
            }
        }
    }

    #[test]
    fn sharding_covers_all_shards_roughly_uniformly() {
        let r = router_with(4);
        let mut counts = [0usize; 4];
        for key in 0..4096u64 {
            counts[r.shard_of(key)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1350).contains(&c),
                "shard {i} got {c} of 4096 keys — splitmix64 range partition should be near-uniform"
            );
        }
    }

    /// `n` shard daemons serving on ephemeral ports, each with its
    /// scheduler running.
    struct Shards {
        fleets: Vec<Arc<Fleet>>,
        addrs: Vec<String>,
        threads: Vec<std::thread::JoinHandle<Result<(), FleetError>>>,
        wals: Vec<std::path::PathBuf>,
    }

    impl Shards {
        fn serve(n: usize, tag: &str) -> Shards {
            let mut shards = Shards {
                fleets: Vec::new(),
                addrs: Vec::new(),
                threads: Vec::new(),
                wals: Vec::new(),
            };
            for s in 0..n {
                let wal = std::env::temp_dir()
                    .join(format!("hpceval-router-{tag}-{}-{s}.wal", std::process::id()));
                let _ = std::fs::remove_file(&wal);
                let fleet =
                    Fleet::open(FleetConfig::default(), Registry::with_presets(), &wal).unwrap();
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                shards.addrs.push(listener.local_addr().unwrap().to_string());
                let scheduler = fleet.start_scheduler();
                let serving = Arc::clone(&fleet);
                shards.threads.push(std::thread::spawn(move || {
                    let served = serving.serve(listener);
                    scheduler.join().unwrap();
                    served
                }));
                shards.fleets.push(fleet);
                shards.wals.push(wal);
            }
            shards
        }

        fn stop(self, router: &Router) {
            router.shutdown_shards().unwrap();
            for (thread, wal) in self.threads.into_iter().zip(self.wals) {
                thread.join().unwrap().unwrap();
                std::fs::remove_file(wal).unwrap();
            }
        }
    }

    #[test]
    fn a_relayed_shard_refusal_names_the_owning_shard() {
        let shards = Shards::serve(2, "refusal");
        let router = Router::connect(&shards.addrs).unwrap();
        // The first submit draws router key 0.
        let owner = router.shard_of(0);
        let job = JobKind::Green500 { server: "no-such-server".to_string() };
        let err = router.submit(vec![job]).unwrap_err();
        assert!(
            matches!(&err, FleetError::Remote(msg) if msg.starts_with(&format!("shard {owner}: "))),
            "the refusal must name shard {owner}: {err}"
        );
        shards.stop(&router);
    }

    /// DESIGN §15's promise: the router's merged ranking is, bit for bit,
    /// the ranking one daemon owning every job reports.
    #[test]
    fn a_sharded_ranking_equals_one_daemons_bitwise() {
        let jobs: Vec<JobKind> = ["xeon-e5462", "opteron-8347", "xeon-4870"]
            .iter()
            .flat_map(|server| {
                (1..=2).map(|seed| JobKind::Evaluate { server: server.to_string(), seed })
            })
            .collect();
        let bits = |rows: &[RankedServer]| -> Vec<(String, u64, bool)> {
            rows.iter().map(|r| (r.server.clone(), r.ppw.to_bits(), r.degraded)).collect()
        };

        let wal = std::env::temp_dir()
            .join(format!("hpceval-router-parity-{}-single.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal);
        let single = Fleet::open(FleetConfig::default(), Registry::with_presets(), &wal).unwrap();
        let scheduler = single.start_scheduler();
        single.submit(jobs.clone()).unwrap();
        single.drain();
        single.request_shutdown();
        scheduler.join().unwrap();
        std::fs::remove_file(wal).unwrap();
        let want = bits(&single.ranking());
        assert_eq!(want.len(), jobs.len(), "every evaluation is ranked");

        let shards = Shards::serve(3, "parity");
        let router = Router::connect(&shards.addrs).unwrap();
        router.submit(jobs).unwrap();
        router.drain().unwrap();
        let got = bits(&router.ranking().unwrap());
        // The set must be one that a router skipping the re-rank gets
        // wrong: the shards' own rankings, concatenated in shard order.
        let concatenated: Vec<RankedServer> =
            shards.fleets.iter().flat_map(|fleet| fleet.ranking()).collect();
        assert_ne!(bits(&concatenated), want, "the job set must straddle the shards");
        shards.stop(&router);
        assert_eq!(got, want, "the merged ranking must be one daemon's ranking");
    }

    #[test]
    fn shard_of_is_deterministic() {
        let a = router_with(3);
        let b = router_with(3);
        for key in 0..256u64 {
            assert_eq!(a.shard_of(key), b.shard_of(key));
        }
    }
}
