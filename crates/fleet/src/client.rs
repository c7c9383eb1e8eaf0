//! TCP client for the fleet daemon's wire protocol: one blocking
//! socket, one request in flight. It frames requests and decodes the
//! replies with the same [`crate::wire`] codec the daemon and the
//! router use, and returns the shared record types of [`crate::job`].

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Value;

use crate::error::FleetError;
use crate::job::{JobId, JobKind, JobStatus, RankedServer};
use crate::wire::{self, Request};

/// A connected fleet client: one stream, lock-step v2 envelopes —
/// every request is tagged with the next request id and the reply's
/// tag is checked against it. For many requests in flight per socket,
/// use the router's [`crate::pool::ShardPool`] instead.
#[derive(Debug)]
pub struct FleetClient {
    stream: TcpStream,
    /// The next request id (per-connection, send order).
    next_id: u64,
    /// Per-connection salt decorrelating retry backoff across clients.
    jitter_salt: u64,
}

impl FleetClient {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, FleetError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response frames are small; don't let Nagle batch.
        let _ = stream.set_nodelay(true);
        // The ephemeral local port is unique per live connection on a
        // host, giving each client a deterministic-but-distinct salt
        // without consulting a clock or RNG.
        let salt = stream.local_addr().map(|a| u64::from(a.port())).unwrap_or(0);
        Ok(Self { stream, next_id: 0, jitter_salt: hpceval_trace::splitmix64(salt) })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Value, FleetError> {
        let id = self.next_id;
        self.next_id += 1;
        wire::write_frame(&mut self.stream, &wire::encode_envelope(id, req)?)?;
        match wire::read_frame(&mut self.stream)? {
            Some(frame) => match wire::decode_tagged_response(&frame)? {
                (Some(got), body) if got == id => body,
                // Untagged replies are transport-level errors the server
                // could not route to a request; pass the error through.
                (None, body) => body,
                (Some(got), _) => Err(FleetError::Protocol(format!(
                    "response id {got} does not match request id {id}"
                ))),
            },
            None => Err(FleetError::Protocol("daemon closed the connection".to_string())),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), FleetError> {
        self.roundtrip(&Request::Ping).map(|_| ())
    }

    /// Submit a batch of jobs; returns the assigned ids.
    pub fn submit(&mut self, jobs: Vec<JobKind>) -> Result<Vec<JobId>, FleetError> {
        wire::decode_ids(&self.roundtrip(&Request::Submit { jobs })?)
    }

    /// Submit a batch, retrying on backpressure with the daemon's own
    /// backoff hint plus deterministic jitter, up to `max_retries`.
    ///
    /// Without jitter, N clients bounced off the same full queue all
    /// sleep exactly `retry_after_ms` and stampede back in lockstep —
    /// the thundering herd refills the queue instantly and they all
    /// bounce again. The per-connection splitmix64 salt spreads the
    /// retries over `[hint, 1.5·hint]` while staying fully
    /// deterministic for a given connection (reproducible runs need no
    /// clock- or RNG-seeded randomness).
    pub fn submit_with_backoff(
        &mut self,
        jobs: Vec<JobKind>,
        max_retries: u32,
    ) -> Result<Vec<JobId>, FleetError> {
        let mut tries = 0;
        loop {
            match self.submit(jobs.clone()) {
                Err(FleetError::Backlog { retry_after_ms }) if tries < max_retries => {
                    tries += 1;
                    let ms = backoff_with_jitter(self.jitter_salt, tries, retry_after_ms);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                other => return other,
            }
        }
    }

    /// Status snapshots (all jobs, or one).
    pub fn status(&mut self, job: Option<JobId>) -> Result<Vec<JobStatus>, FleetError> {
        wire::decode_jobs(&self.roundtrip(&Request::Status { job })?)
    }

    /// Drain the daemon: blocks until its queue is dry, then returns
    /// the final statuses.
    pub fn drain(&mut self) -> Result<Vec<JobStatus>, FleetError> {
        wire::decode_jobs(&self.roundtrip(&Request::Drain)?)
    }

    /// The §V ranking over finished Evaluate jobs, best PPW first.
    pub fn ranking(&mut self) -> Result<Vec<RankedServer>, FleetError> {
        wire::decode_ranking(&self.roundtrip(&Request::Ranking)?)
    }

    /// Ask the daemon to stop.
    pub fn shutdown(&mut self) -> Result<(), FleetError> {
        self.roundtrip(&Request::Shutdown).map(|_| ())
    }
}

/// The jittered retry sleep: the daemon's hint, honored in full, plus
/// a hash-derived spread of up to half the hint. Deterministic in
/// `(salt, attempt)` so a given client's retry schedule is exactly
/// reproducible, while distinct clients (distinct salts) decorrelate.
pub(crate) fn backoff_with_jitter(salt: u64, attempt: u32, hint_ms: u64) -> u64 {
    let spread = hint_ms / 2 + 1;
    hint_ms + hpceval_trace::splitmix64(salt ^ u64::from(attempt)) % spread
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_decorrelated() {
        for salt in [1u64, 42, 0x9e3779b97f4a7c15] {
            for attempt in 1..=6 {
                let a = backoff_with_jitter(salt, attempt, 100);
                assert_eq!(a, backoff_with_jitter(salt, attempt, 100), "deterministic");
                assert!((100..=150).contains(&a), "honors the hint, spreads ≤ half: {a}");
            }
        }
        let schedule = |salt: u64| (1..=8).map(|t| backoff_with_jitter(salt, t, 100)).collect();
        let a: Vec<u64> = schedule(7);
        let b: Vec<u64> = schedule(8);
        assert_ne!(a, b, "distinct clients must not retry in lockstep");
    }
}
