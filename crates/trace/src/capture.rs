//! Deterministic full trace capture.
//!
//! ## Why chunk-keyed logs
//!
//! The kernels run their hot loops over *fixed-size chunks* whose
//! decomposition never depends on the worker count (that invariant is
//! what makes their floating-point results bitwise identical at any
//! `HPCEVAL_THREADS`). Capture rides the same invariant: each recorded
//! event carries the width-invariant id of the chunk that produced it,
//! events land in a per-chunk log owned by exactly one worker at a time,
//! and [`CaptureGuard::finish`] merges the logs in ascending chunk-id
//! order. The resulting byte stream is independent of thread count and
//! scheduling.
//!
//! ## Why every chunk
//!
//! A session records every chunk of its region. Keeping only a subset
//! of chunks was tried and removed: it lost the §VI R² ordering
//! (DESIGN §14).
//!
//! ## Chunk-scoped logs
//!
//! A kernel opens one [`ChunkLog`] per chunk with [`hooks::chunk`] and
//! records that chunk's bursts into it. Opening costs one relaxed
//! atomic load when no session is live, and one region check under the
//! `ACTIVE` read guard when one is. Recording is a push into a buffer
//! the thread reuses from log to log: no lock, atomic, hash or
//! allocation per event. Dropping the log commits the buffer into the
//! chunk's ring under a single shard lock.
//!
//! ## Bounded memory
//!
//! Each chunk's ring has a fixed capacity (the telemetry crate's ring
//! discipline): a chunk that overflows its ring drops its *oldest*
//! events and counts them, so a runaway kernel degrades the trace
//! instead of eating the heap. A [`ChunkLog`]'s buffer is bounded the
//! same way, so a committed ring holds exactly what per-event pushes
//! would have left in it. A chunk's ring is allocated at commit to fit
//! the events it holds, so a capture's footprint follows its events,
//! not its chunk count (CG opens tens of thousands of chunks of about a
//! dozen events).

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

use crate::event::{
    get_uvarint, put_uvarint, zigzag_decode, zigzag_encode, AccessKind, TraceEvent,
};
use crate::ring::TraceRing;

/// Whether a [`CaptureGuard`] records at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No capture; hooks cost one relaxed atomic load per chunk.
    #[default]
    Off,
    /// Record every chunk.
    Full,
}

/// The instrumented kernel a capture session targets. Hooks from other
/// regions are ignored while the session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// HPCC DGEMM (blocked matrix multiply).
    Dgemm,
    /// HPCC STREAM (copy/scale/add/triad).
    Stream,
    /// NPB CG (sparse matrix-vector conjugate gradient).
    Cg,
    /// NPB MG (multigrid V-cycles).
    Mg,
    /// NPB IS (integer bucket sort).
    Is,
    /// HPCC RandomAccess (GUPS table updates).
    RandomAccess,
    /// NPB FT (3-D FFT dimension passes).
    Ft,
    /// HPL blocked LU factorization (panel / U-row / trailing update).
    Hpl,
    /// NPB EP (Marsaglia polar Gaussian pairs).
    Ep,
    /// NPB SP (scalar-pentadiagonal ADI line solves).
    Sp,
    /// NPB BT (block-tridiagonal ADI line solves).
    Bt,
    /// NPB LU (SSOR lower/upper triangular sweeps).
    Lu,
}

impl Region {
    /// All instrumented regions, in wire-tag order.
    pub const ALL: [Region; 12] = [
        Region::Dgemm,
        Region::Stream,
        Region::Cg,
        Region::Mg,
        Region::Is,
        Region::RandomAccess,
        Region::Ft,
        Region::Hpl,
        Region::Ep,
        Region::Sp,
        Region::Bt,
        Region::Lu,
    ];

    /// Wire tag (stable across versions).
    pub fn tag(self) -> u8 {
        match self {
            Region::Dgemm => 1,
            Region::Stream => 2,
            Region::Cg => 3,
            Region::Mg => 4,
            Region::Is => 5,
            Region::RandomAccess => 6,
            Region::Ft => 7,
            Region::Hpl => 8,
            Region::Ep => 9,
            Region::Sp => 10,
            Region::Bt => 11,
            Region::Lu => 12,
        }
    }

    /// Inverse of [`Region::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Region::ALL.into_iter().find(|r| r.tag() == tag)
    }

    /// Kernel id as the CLI and benchmark suite spell it.
    pub fn name(self) -> &'static str {
        match self {
            Region::Dgemm => "dgemm",
            Region::Stream => "stream",
            Region::Cg => "cg",
            Region::Mg => "mg",
            Region::Is => "is",
            Region::RandomAccess => "randomaccess",
            Region::Ft => "ft",
            Region::Hpl => "hpl",
            Region::Ep => "ep",
            Region::Sp => "sp",
            Region::Bt => "bt",
            Region::Lu => "lu",
        }
    }

    /// Parse a kernel id (the [`Region::name`] vocabulary).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        Region::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// splitmix64: a cheap, well-mixed 64-bit hash. The chunk-log maps key
/// on it, and the fleet uses it to partition job keys across shards.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-chunk event-ring capacity (oldest events drop beyond it).
const CHUNK_CAPACITY: usize = 4096;

const SHARDS: usize = 64;

/// Hasher for the chunk-id keys of the per-shard logs: one
/// [`splitmix64`] of the id. Keys are trusted small integers, so
/// SipHash's flooding resistance buys nothing on this per-chunk path.
#[derive(Default)]
struct ChunkIdHasher(u64);

impl Hasher for ChunkIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = splitmix64(self.0 ^ id);
    }
}

/// One shard of chunk logs, keyed by stored chunk id.
type ChunkLogs = HashMap<u64, TraceRing<TraceEvent>, BuildHasherDefault<ChunkIdHasher>>;

/// Capture-session parameters. The default records every chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// [`TraceMode::Off`] yields no session.
    pub mode: TraceMode,
    /// Not a setting. Callers spell a config as
    /// `CaptureConfig { mode, ..CaptureConfig::default() }`; with `mode`
    /// as the only field, clippy's `needless_update` rejects that
    /// spelling.
    #[doc(hidden)]
    pub _reserved: (),
}

impl Default for CaptureConfig {
    fn default() -> Self {
        Self { mode: TraceMode::Full, _reserved: () }
    }
}

/// Bit position of the epoch counter inside a stored chunk id. Kernel
/// chunk ids must stay below `1 << EPOCH_SHIFT`; the largest in the
/// tree today is MG's `(edge << 32) | plane` (≈ 2^38).
const EPOCH_SHIFT: u32 = 44;

/// The state behind the global hooks while a session runs.
#[derive(Debug)]
struct ActiveCapture {
    region: Region,
    /// Pass counter ([`hooks::begin_epoch`]): kernels that run their
    /// traced loop more than once per capture (CG's per-iteration
    /// matvec, STREAM's repeated ops, MG's V-cycles) bump this at each
    /// serial entry so every pass gets distinct chunk ids. Without it,
    /// all passes of a chunk would share one ring and replay as a
    /// single burst — fabricating temporal locality the execution
    /// never had.
    epoch: AtomicU64,
    shards: Vec<Mutex<ChunkLogs>>,
}

impl ActiveCapture {
    /// The stored chunk id: epoch in the high bits, so ascending-id
    /// replay is execution order across passes.
    fn full_id(&self, chunk: u64) -> u64 {
        (self.epoch.load(Ordering::Relaxed) << EPOCH_SHIFT) | chunk
    }

    /// Commit one closed [`ChunkLog`]'s events: the chunk's first log
    /// becomes its ring as is; a later log of the same id (a second
    /// scope in the same epoch) appends to it.
    fn commit(&self, full_id: u64, events: TraceRing<TraceEvent>) {
        let shard = &self.shards[(full_id % SHARDS as u64) as usize];
        match shard.lock().entry(full_id) {
            Entry::Vacant(slot) => {
                slot.insert(events);
            }
            Entry::Occupied(mut slot) => slot.get_mut().append(events),
        }
    }
}

// The hook fast path: a single relaxed load. Set only while a session
// is live, so untraced runs never take the RwLock.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<ActiveCapture>>> = RwLock::new(None);
// Capture sessions are process-global (the hooks are); serialize them
// so concurrent tests queue instead of corrupting each other.
static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
    // A thread's log buffer, lent to each log it opens and returned
    // empty with its allocation kept, so recording stops reallocating
    // once the thread has seen its largest chunk.
    static SCRATCH: Cell<Option<TraceRing<TraceEvent>>> = const { Cell::new(None) };
}

/// Instrumentation hooks the kernel crates call. Everything here is a
/// no-op (one relaxed atomic load) unless a [`CaptureGuard`] is live.
pub mod hooks {
    use super::*;

    /// Fast check: is any capture session live? [`chunk`] and
    /// [`begin_epoch`] return on this before touching the session.
    #[inline(always)]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Open the log for `chunk` of `region`: `None` unless a session for
    /// `region` is live. Record the chunk's bursts with
    /// [`ChunkLog::record`]; dropping the log commits them. Every chunk
    /// is recorded, so the answer does not depend on the chunk id.
    ///
    /// The merged trace is width-invariant because of how kernels call
    /// this: each chunk is processed by exactly one worker at a time,
    /// and that worker records the chunk's bursts in program order, so
    /// every chunk's ring holds its events in emission order however the
    /// chunks were scheduled. A chunk id reopened in the same epoch
    /// appends to its ring. Keep a log's scope to its chunk's own serial
    /// work: open no other log, call no other hook and start no parallel
    /// section while it is open. The log holds the `ACTIVE` read guard,
    /// and a read taken while [`CaptureGuard::finish`] waits for the
    /// write side would deadlock.
    #[inline]
    pub fn chunk(region: Region, chunk: u64) -> Option<ChunkLog> {
        if !enabled() {
            return None;
        }
        ChunkLog::open(region, chunk)
    }

    /// Mark a serial point between traced passes (kernel entry, outer
    /// iteration boundary). Must be called from exactly one thread —
    /// outside any parallel section — so the epoch sequence is
    /// deterministic regardless of worker count. Kernels that run their
    /// traced loop once per capture may skip it.
    pub fn begin_epoch(region: Region) {
        if !enabled() {
            return;
        }
        if let Some(c) = &*ACTIVE.read() {
            if c.region == region {
                c.epoch.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One chunk's open event log, from [`hooks::chunk`]. Recording touches
/// only the log's bounded buffer, which its thread lends it; dropping
/// the log copies the buffer into the chunk's ring under one shard lock
/// and hands it back. The log borrows the session under the `ACTIVE`
/// read guard for its whole life, so [`CaptureGuard::finish`], which
/// takes the write side before it drains the rings, waits for every
/// open log and never misses a burst.
pub struct ChunkLog {
    active: RwLockReadGuard<'static, Option<Arc<ActiveCapture>>>,
    /// Stored chunk id, epoch included, read once at open.
    id: u64,
    events: TraceRing<TraceEvent>,
}

impl ChunkLog {
    /// The slow half of [`hooks::chunk`], past the idle check.
    fn open(region: Region, chunk: u64) -> Option<Self> {
        let active = ACTIVE.read();
        let id = active.as_deref().filter(|c| c.region == region)?.full_id(chunk);
        let events = SCRATCH.take().unwrap_or_else(|| TraceRing::new(CHUNK_CAPACITY));
        Some(ChunkLog { active, id, events })
    }

    /// Record one access burst. Empty bursts (`count == 0`) are skipped.
    #[inline]
    pub fn record(&mut self, kind: AccessKind, base: u64, stride: u32, count: u32) {
        if count != 0 {
            self.events.push(TraceEvent { kind, base, stride, count });
        }
    }
}

impl Drop for ChunkLog {
    fn drop(&mut self) {
        // A log that recorded nothing leaves no chunk behind, as a chunk
        // that never pushed an event did before.
        if !self.events.is_empty() {
            if let Some(c) = self.active.as_deref() {
                c.commit(self.id, self.events.take_exact());
            }
        }
        SCRATCH.set(Some(std::mem::replace(&mut self.events, TraceRing::new(0))));
    }
}

/// A live capture session. Created by [`CaptureGuard::start`]; run the
/// kernel while it is alive, then call [`CaptureGuard::finish`] to get
/// the merged [`Trace`]. Dropping without finishing discards the data
/// and re-disables the hooks.
pub struct CaptureGuard {
    _session: MutexGuard<'static, ()>,
    capture: Arc<ActiveCapture>,
}

impl CaptureGuard {
    /// Begin capturing `region` with `config`. Returns `None` when the
    /// mode is [`TraceMode::Off`]. Blocks until any other session in
    /// the process finishes (the hooks are global).
    pub fn start(region: Region, config: CaptureConfig) -> Option<Self> {
        if config.mode == TraceMode::Off {
            return None;
        }
        let session = SESSION.lock();
        let capture = Arc::new(ActiveCapture {
            region,
            epoch: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(ChunkLogs::default())).collect(),
        });
        *ACTIVE.write() = Some(Arc::clone(&capture));
        ENABLED.store(true, Ordering::Release);
        Some(Self { _session: session, capture })
    }

    /// Stop capturing and merge the per-chunk logs (ascending chunk id)
    /// into a [`Trace`].
    pub fn finish(self) -> Trace {
        ENABLED.store(false, Ordering::Release);
        *ACTIVE.write() = None;
        // Open chunk logs hold the read guard, so once the write lock has
        // been taken every log has committed and none can open; drain.
        let mut chunks: Vec<ChunkTrace> = Vec::new();
        let mut dropped = 0u64;
        for shard in &self.capture.shards {
            let mut map = shard.lock();
            for (id, ring) in map.drain() {
                dropped += ring.evicted();
                chunks.push(ChunkTrace { id, events: ring.into_vec() });
            }
        }
        chunks.sort_unstable_by_key(|c| c.id);
        Trace { region: self.capture.region, chunks, dropped }
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        // Idempotent teardown (finish() already did both stores when it
        // ran; an early drop must not leave the hooks live).
        ENABLED.store(false, Ordering::Release);
        *ACTIVE.write() = None;
    }
}

/// The events one chunk produced, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTrace {
    /// Width-invariant chunk id.
    pub id: u64,
    /// Recorded bursts, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A finished, merged capture: the unit the replay driver, the CLI and
/// the wire format all operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The instrumented kernel.
    pub region: Region,
    /// Per-chunk logs in ascending chunk-id order.
    pub chunks: Vec<ChunkTrace>,
    /// Events lost to per-chunk ring overflow.
    pub dropped: u64,
}

const MAGIC: &[u8; 4] = b"HPTR";
const VERSION: u8 = 1;

// The v1 header keeps three slots from a retired chunk sampler: a mode
// tag, a seed and a 1-in-k rate. Every stream carries the values a full
// capture always wrote there, so dropping the sampler left trace bytes
// unchanged; decode refuses any other mode tag.
const HEADER_MODE_TAG: u8 = 2;
const HEADER_SEED: u64 = 0x4850_4345_5641_4c31; // "HPCEVAL1"
const HEADER_RATE: u64 = 8;

/// Why a byte stream failed to decode as a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Too few bytes for the structure declared so far.
    Truncated,
    /// The stream does not start with `HPTR`.
    BadMagic,
    /// A newer (or corrupt) format version.
    BadVersion(u8),
    /// An unknown region, mode or kind tag.
    BadTag(u8),
    /// Trailing bytes after the declared structure.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace truncated"),
            DecodeError::BadMagic => write!(f, "not a trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after trace"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Trace {
    /// Number of recorded bursts.
    pub fn total_events(&self) -> u64 {
        self.chunks.iter().map(|c| c.events.len() as u64).sum()
    }

    /// Number of individual addresses the bursts expand to.
    pub fn total_accesses(&self) -> u64 {
        self.chunks.iter().flat_map(|c| &c.events).map(TraceEvent::len).sum()
    }

    /// `(read_accesses, write_accesses)` after expansion.
    pub fn access_split(&self) -> (u64, u64) {
        let mut reads = 0;
        let mut writes = 0;
        for e in self.chunks.iter().flat_map(|c| &c.events) {
            match e.kind {
                AccessKind::Read => reads += e.len(),
                AccessKind::Write => writes += e.len(),
            }
        }
        (reads, writes)
    }

    /// Serialize to the compact wire format: header, then per chunk a
    /// varint id delta and its events as (kind byte, zigzag base delta,
    /// stride, count) varints. Base deltas reset at chunk boundaries.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.chunks.len() * 16);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.region.tag());
        out.push(HEADER_MODE_TAG);
        out.extend_from_slice(&HEADER_SEED.to_le_bytes());
        put_uvarint(&mut out, HEADER_RATE);
        put_uvarint(&mut out, self.dropped);
        put_uvarint(&mut out, self.chunks.len() as u64);
        let mut prev_id = 0u64;
        for chunk in &self.chunks {
            // Chunk ids ascend, so the delta is non-negative — but the
            // first one is absolute, and zigzag keeps it general.
            put_uvarint(&mut out, zigzag_encode(chunk.id.wrapping_sub(prev_id) as i64));
            prev_id = chunk.id;
            put_uvarint(&mut out, chunk.events.len() as u64);
            let mut prev_base = 0u64;
            for e in &chunk.events {
                out.push(e.kind.tag());
                put_uvarint(&mut out, zigzag_encode(e.base.wrapping_sub(prev_base) as i64));
                prev_base = e.base;
                put_uvarint(&mut out, u64::from(e.stride));
                put_uvarint(&mut out, u64::from(e.count));
            }
        }
        out
    }

    /// Inverse of [`Trace::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        use DecodeError::*;
        if buf.len() < 4 {
            return Err(Truncated);
        }
        if &buf[..4] != MAGIC {
            return Err(BadMagic);
        }
        let mut pos = 4usize;
        let byte = |pos: &mut usize| -> Result<u8, DecodeError> {
            let b = *buf.get(*pos).ok_or(Truncated)?;
            *pos += 1;
            Ok(b)
        };
        let version = byte(&mut pos)?;
        if version != VERSION {
            return Err(BadVersion(version));
        }
        let rtag = byte(&mut pos)?;
        let region = Region::from_tag(rtag).ok_or(BadTag(rtag))?;
        let mtag = byte(&mut pos)?;
        if mtag != HEADER_MODE_TAG {
            return Err(BadTag(mtag));
        }
        // The seed and rate slots carry nothing; skip them.
        if pos + 8 > buf.len() {
            return Err(Truncated);
        }
        pos += 8;
        let varint = |pos: &mut usize| get_uvarint(buf, pos).ok_or(Truncated);
        varint(&mut pos)?;
        let dropped = varint(&mut pos)?;
        let chunk_count = varint(&mut pos)?;
        let mut chunks = Vec::new();
        let mut prev_id = 0u64;
        for _ in 0..chunk_count {
            let id = prev_id.wrapping_add(zigzag_decode(varint(&mut pos)?) as u64);
            prev_id = id;
            let event_count = varint(&mut pos)?;
            let mut events = Vec::with_capacity(event_count.min(4096) as usize);
            let mut prev_base = 0u64;
            for _ in 0..event_count {
                let ktag = byte(&mut pos)?;
                let kind = AccessKind::from_tag(ktag).ok_or(BadTag(ktag))?;
                let base = prev_base.wrapping_add(zigzag_decode(varint(&mut pos)?) as u64);
                prev_base = base;
                let stride = u32::try_from(varint(&mut pos)?).map_err(|_| Truncated)?;
                let count = u32::try_from(varint(&mut pos)?).map_err(|_| Truncated)?;
                events.push(TraceEvent { kind, base, stride, count });
            }
            chunks.push(ChunkTrace { id, events });
        }
        if pos != buf.len() {
            return Err(TrailingBytes);
        }
        Ok(Trace { region, chunks, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hooks are process-global, so a test that asserts on them
    /// while another test's session is live would race; every test that
    /// starts a session or checks hook state holds this.
    fn serial() -> MutexGuard<'static, ()> {
        static TESTS: Mutex<()> = Mutex::new(());
        TESTS.lock()
    }

    fn capture_eight_chunks() -> Trace {
        let guard =
            CaptureGuard::start(Region::Stream, CaptureConfig::default()).expect("default is Full");
        for chunk in 0..8u64 {
            let mut log = hooks::chunk(Region::Stream, chunk).expect("session is live");
            log.record(AccessKind::Read, chunk * 4096, 8, 64);
            log.record(AccessKind::Write, chunk * 4096 + 1024, 8, 64);
        }
        guard.finish()
    }

    #[test]
    fn off_mode_yields_no_session() {
        let _serial = serial();
        assert!(CaptureGuard::start(
            Region::Dgemm,
            CaptureConfig { mode: TraceMode::Off, ..CaptureConfig::default() }
        )
        .is_none());
        assert!(!hooks::enabled());
    }

    #[test]
    fn full_mode_keeps_every_chunk() {
        let _serial = serial();
        let t = capture_eight_chunks();
        assert_eq!(t.chunks.len(), 8);
        assert_eq!(t.total_events(), 16);
        assert_eq!(t.total_accesses(), 16 * 64);
        let ids: Vec<u64> = t.chunks.iter().map(|c| c.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "chunks sorted: {ids:?}");
    }

    #[test]
    fn hooks_ignore_other_regions() {
        let _serial = serial();
        assert!(hooks::chunk(Region::Cg, 0).is_none(), "no session, no log");
        let guard = CaptureGuard::start(Region::Cg, CaptureConfig::default()).unwrap();
        assert!(hooks::chunk(Region::Mg, 0).is_none());
        hooks::chunk(Region::Cg, 0)
            .expect("live region")
            .record(AccessKind::Read, 0, 8, 0);
        let t = guard.finish();
        assert_eq!(t.total_events(), 0, "an empty burst records nothing");
        assert!(t.chunks.is_empty(), "a log that recorded nothing leaves no chunk");
    }

    #[test]
    fn hooks_disabled_after_finish_and_after_drop() {
        let _serial = serial();
        let g = CaptureGuard::start(Region::Is, CaptureConfig::default()).unwrap();
        assert!(hooks::enabled());
        let _ = g.finish();
        assert!(!hooks::enabled());

        let g = CaptureGuard::start(Region::Is, CaptureConfig::default()).unwrap();
        assert!(hooks::enabled());
        drop(g); // early drop, no finish
        assert!(!hooks::enabled());
        assert!(hooks::chunk(Region::Is, 0).is_none());
    }

    /// Capture `scopes` logs on RandomAccess chunk 0, one after another,
    /// the `i`-th recording `scopes[i]` single-line bursts with bases
    /// numbered on from the previous scope's.
    fn capture_scopes(scopes: &[u64]) -> Trace {
        let guard = CaptureGuard::start(Region::RandomAccess, CaptureConfig::default()).unwrap();
        let mut i = 0u64;
        for &n in scopes {
            let mut log = hooks::chunk(Region::RandomAccess, 0).unwrap();
            for _ in 0..n {
                log.record(AccessKind::Read, i * 64, 0, 1);
                i += 1;
            }
        }
        guard.finish()
    }

    #[test]
    fn chunk_ring_drops_oldest_and_counts() {
        let _serial = serial();
        let cap = CHUNK_CAPACITY as u64;
        let total = cap + 6;
        // Overflow inside one log, and across two logs of one chunk id
        // with either log overflowing or neither alone doing so.
        for scopes in [vec![total], vec![6, cap], vec![cap + 3, 3], vec![cap / 2, cap / 2 + 6]] {
            let t = capture_scopes(&scopes);
            assert_eq!(t.dropped, 6, "{scopes:?}");
            assert_eq!(t.chunks.len(), 1);
            let events = &t.chunks[0].events;
            assert_eq!(events.len(), CHUNK_CAPACITY);
            // The newest events survive, in order.
            assert!(
                events.iter().zip(6..).all(|(e, i)| e.base == i * 64),
                "{scopes:?}: newest events out of order"
            );
        }
    }

    #[test]
    fn reopened_chunk_keeps_emission_order() {
        let _serial = serial();
        // SP's and BT's pattern: a read scope in the parallel solve, then
        // a serial write-back scope on the same chunk id in one epoch.
        let guard = CaptureGuard::start(Region::Sp, CaptureConfig::default()).unwrap();
        hooks::begin_epoch(Region::Sp);
        for line in 0..3u64 {
            let mut log = hooks::chunk(Region::Sp, line).unwrap();
            log.record(AccessKind::Read, line * 1000, 8, 5);
            log.record(AccessKind::Read, line * 1000 + 100, 8, 5);
        }
        for line in 0..3u64 {
            hooks::chunk(Region::Sp, line)
                .unwrap()
                .record(AccessKind::Write, line * 1000, 8, 5);
        }
        let t = guard.finish();
        assert_eq!(t.chunks.len(), 3);
        for (line, chunk) in (0..3u64).zip(&t.chunks) {
            assert_eq!(chunk.id, (1 << EPOCH_SHIFT) | line);
            let got: Vec<_> = chunk.events.iter().map(|e| (e.kind, e.base)).collect();
            let base = line * 1000;
            assert_eq!(
                got,
                [
                    (AccessKind::Read, base),
                    (AccessKind::Read, base + 100),
                    (AccessKind::Write, base)
                ]
            );
        }
    }

    #[test]
    fn finish_waits_for_a_log_open_on_another_thread() {
        let _serial = serial();
        let guard = CaptureGuard::start(Region::Lu, CaptureConfig::default()).unwrap();
        let (opened, wait_opened) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut log = hooks::chunk(Region::Lu, 7).unwrap();
            log.record(AccessKind::Read, 0, 8, 1);
            opened.send(()).unwrap();
            // `finish` clears the fast-path flag before it waits for the
            // write side; record more once it has begun.
            while hooks::enabled() {
                std::thread::yield_now();
            }
            log.record(AccessKind::Write, 64, 8, 1);
        });
        wait_opened.recv().unwrap();
        let t = guard.finish();
        worker.join().unwrap();
        assert_eq!(t.chunks.len(), 1);
        assert_eq!(t.chunks[0].id, 7);
        let kinds: Vec<_> = t.chunks[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [AccessKind::Read, AccessKind::Write]);
    }

    #[test]
    fn encode_decode_round_trips() {
        let _serial = serial();
        let t = capture_eight_chunks();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).expect("round trip");
        assert_eq!(t, back);
        // Compactness: two 17-byte descriptors per chunk shrink well.
        assert!(bytes.len() < 16 * 12 + 32, "{} bytes for 16 events is not compact", bytes.len());
    }

    #[test]
    fn decode_rejects_garbage() {
        let _serial = serial();
        assert_eq!(Trace::decode(b"HP"), Err(DecodeError::Truncated));
        assert_eq!(Trace::decode(b"NOPE\x01\x01\x01"), Err(DecodeError::BadMagic));
        let t = capture_eight_chunks();
        let mut bytes = t.encode();
        bytes[4] = 9; // version
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::BadVersion(9)));
        let mut bytes = t.encode();
        bytes[6] = 1; // mode tag of a sampled capture
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::BadTag(1)));
        let mut bytes = t.encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::Truncated));
        let mut bytes = t.encode();
        bytes.push(0);
        assert_eq!(Trace::decode(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn region_parses() {
        for r in Region::ALL {
            assert_eq!(Region::parse(r.name()), Some(r));
            assert_eq!(Region::from_tag(r.tag()), Some(r));
        }
        assert_eq!(Region::parse("ua"), None, "uninstrumented kernels stay unparseable");
    }
}
