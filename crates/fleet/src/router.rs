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
//! carrying many in-flight tagged requests. A request puts every shard
//! request it needs in flight before it waits on any reply, so its
//! fan-out costs the slowest shard, not the sum. Each client connection
//! has its own thread in the front-end ([`Router::serve`]), and pool
//! reader threads route each shard reply to the request that sent it,
//! so requests from many client connections overlap inside every shard
//! instead of serializing on one lock-step round-trip per shard.
//!
//! The pool sends every mutating request (submit, drain, shutdown)
//! down one lane per shard, so each shard sees one total order of
//! admissions and WAL replay and the bitwise-merged-ranking failover
//! contract hold. Reads ride the other lanes, so a drain that waits for
//! a shard's queue to run dry never holds up a status.
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
//!   dry; status probes on other connections keep being answered while
//!   it runs (shards reject new submits during their own drain).

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Value;

use hpceval_trace::splitmix64;

use crate::error::FleetError;
use crate::job::{self, JobId, JobKind, JobStatus, RankedServer};
use crate::pool::{PendingReply, PoolConfig, ShardPool};
use crate::server::{self, Service, Stop};
use crate::wire::{self, Request};

/// A running router over pipelined pools to the shard daemons.
pub struct Router {
    shards: Vec<ShardPool>,
    next_key: AtomicU64,
    stop: Stop,
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
        Ok(Router { shards, next_key: AtomicU64::new(0), stop: Stop::default() })
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

    /// Submit a batch, fanning each job out to its owning shard;
    /// returns global ids in submission order.
    pub fn submit(&self, jobs: Vec<JobKind>) -> Result<Vec<JobId>, FleetError> {
        let total = jobs.len();
        let mut per_shard: Vec<Vec<(usize, JobKind)>> = vec![Vec::new(); self.shards.len()];
        for (pos, kind) in jobs.into_iter().enumerate() {
            let key = self.next_key.fetch_add(1, Ordering::Relaxed);
            per_shard[self.shard_of(key)].push((pos, kind));
        }
        let mut sent = Vec::new();
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let (positions, kinds): (Vec<usize>, Vec<JobKind>) = batch.into_iter().unzip();
            let reply = self.shards[shard].send(&Request::Submit { jobs: kinds })?;
            sent.push((shard, reply, positions));
        }
        let mut ids = vec![0u64; total];
        for (shard, reply, positions) in sent {
            let locals = take_reply(shard, reply, wire::decode_ids)?;
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

    /// Status snapshots with global ids: one job routes to its owning
    /// shard; a whole-fleet snapshot merges every shard's view.
    pub fn status(&self, job: Option<JobId>) -> Result<Vec<JobStatus>, FleetError> {
        let replies = match job {
            Some(global) => {
                let (shard, local) = self.split_global(global);
                vec![(shard, self.shards[shard].send(&Request::Status { job: Some(local) })?)]
            }
            None => self.fan_out(&Request::Status { job: None })?,
        };
        self.merge_jobs(replies)
    }

    /// Drain every shard (concurrently; completes when all queues are
    /// dry) and merge the final statuses.
    pub fn drain(&self) -> Result<Vec<JobStatus>, FleetError> {
        self.merge_jobs(self.fan_out(&Request::Drain)?)
    }

    /// The merged §V ranking: per-shard rankings concatenated and
    /// re-sorted by [`job::rank`], the comparator the daemon ranks with
    /// (best mean clean PPW first, name-tiebroken), so the merged order
    /// is identical to what one daemon owning every job would report.
    pub fn ranking(&self) -> Result<Vec<RankedServer>, FleetError> {
        let mut rows: Vec<RankedServer> = Vec::new();
        for (shard, reply) in self.fan_out(&Request::Ranking)? {
            rows.extend(take_reply(shard, reply, wire::decode_ranking)?);
        }
        job::rank(&mut rows);
        Ok(rows)
    }

    /// Ask every shard daemon to stop (the router object survives).
    pub fn shutdown_shards(&self) -> Result<(), FleetError> {
        for pool in &self.shards {
            pool.call(&Request::Shutdown)?;
        }
        Ok(())
    }

    /// Serve the wire protocol on `listener`, a thread per live
    /// connection, until a shutdown request arrives or
    /// [`Router::request_shutdown`] is called.
    pub fn serve(&self, listener: TcpListener) -> Result<(), FleetError> {
        server::serve(self, listener)
    }

    /// Stop a running [`Router::serve`] loop.
    pub fn request_shutdown(&self) {
        self.stop.set();
    }

    /// Put one request in flight to every shard.
    fn fan_out(&self, req: &Request) -> Result<Vec<(usize, PendingReply)>, FleetError> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, pool)| Ok((shard, pool.send(req)?)))
            .collect()
    }

    /// Wait out per-shard snapshot replies and merge them under global
    /// ids, in id order.
    fn merge_jobs(
        &self,
        replies: Vec<(usize, PendingReply)>,
    ) -> Result<Vec<JobStatus>, FleetError> {
        let mut merged = Vec::new();
        for (shard, reply) in replies {
            let jobs = take_reply(shard, reply, wire::decode_jobs)?;
            merged.extend(
                jobs.into_iter()
                    .map(|job| JobStatus { id: self.to_global(shard, job.id), ..job }),
            );
        }
        merged.sort_by_key(|j| j.id);
        Ok(merged)
    }
}

/// A shard's reply, awaited and decoded; a shard-side or decode error
/// names the shard it came from.
fn take_reply<T>(
    shard: usize,
    reply: PendingReply,
    decode: fn(&Value) -> Result<T, FleetError>,
) -> Result<T, FleetError> {
    reply.wait().and_then(|v| decode(&v)).map_err(|e| match e {
        FleetError::Remote(msg) => FleetError::Remote(format!("shard {shard}: {msg}")),
        FleetError::Protocol(msg) => FleetError::Protocol(format!("shard {shard}: {msg}")),
        other => other,
    })
}

/// The response body for `result`: `encode`d on success, its error
/// body otherwise.
fn body<T>(result: Result<T, FleetError>, encode: impl FnOnce(&T) -> String) -> String {
    result.map_or_else(|e| wire::error_to_response(&e), |v| encode(&v))
}

impl Service for Router {
    fn respond(&self, req: Request) -> String {
        match req {
            Request::Ping => wire::ok_response(vec![
                ("pong".to_string(), Value::Str("hpceval-fleet-router".to_string())),
                ("shards".to_string(), Value::UInt(self.shards.len() as u64)),
            ])
            .expect("static response encodes"),
            Request::Submit { jobs } => body(self.submit(jobs), |ids| wire::submit_response(ids)),
            Request::Status { job } => body(self.status(job), |jobs| wire::status_response(jobs)),
            Request::Drain => body(self.drain(), |jobs| wire::status_response(jobs)),
            Request::Ranking => body(self.ranking(), |rows| wire::ranking_response(rows)),
            // Stop the shards first so their final states are durable
            // before the router acknowledges.
            Request::Shutdown => body(self.shutdown_shards(), |()| wire::shutdown_response()),
        }
    }

    fn stop(&self) -> &Stop {
        &self.stop
    }

    fn shut_down(&self) {
        self.request_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::client::FleetClient;
    use crate::daemon::{Fleet, FleetConfig};
    use crate::registry::Registry;

    fn router_with(n: usize) -> Router {
        // Build the shard table without live daemons: tests below only
        // use the pure id/shard arithmetic.
        Router {
            shards: (0..n).map(|_| unreachable_pool()).collect(),
            next_key: AtomicU64::new(0),
            stop: Stop::default(),
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
            self.join();
        }

        /// Join the stopped shards and remove their WALs.
        fn join(self) {
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
        let job = || vec![JobKind::Green500 { server: "no-such-server".to_string() }];
        let err = router.submit(job()).unwrap_err();
        assert!(
            matches!(&err, FleetError::Remote(msg) if msg.starts_with(&format!("shard {owner}: "))),
            "the refusal must name shard {owner}: {err}"
        );

        // Relayed over TCP, it names the shard once and the daemon once.
        let router = Arc::new(router);
        let owner = router.shard_of(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serving = Arc::clone(&router);
        let serving = std::thread::spawn(move || serving.serve(listener));
        let mut client = FleetClient::connect(addr).unwrap();
        assert_eq!(
            client.submit(job()).unwrap_err().to_string(),
            format!("daemon error: shard {owner}: unknown server \"no-such-server\"")
        );
        client.shutdown().unwrap();
        serving.join().unwrap().unwrap();
        shards.join();
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
