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
//! and [`CaptureGuard::finish`] frames the chunks in ascending chunk-id
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
//! `ACTIVE` read guard when one is. Recording encodes the burst
//! straight into a byte buffer the thread reuses from log to log: no
//! lock, atomic, hash or allocation per event. Dropping the log appends
//! those bytes to the chunk's entry under a single shard lock.
//!
//! ## One form: the encoded bytes
//!
//! Events are held in the trace wire form from the moment they are
//! recorded; no decoded copy of a trace exists. [`CaptureGuard::finish`]
//! only frames the committed chunks, and [`Trace::events`] is the one
//! reader. The event and access counts are tallied as chunks commit, so
//! the statistics cost no pass over the bytes.
//!
//! ## Bounded memory
//!
//! Each chunk keeps its *first* 4096 events, across every scope that
//! opened it, and counts the rest in [`Trace::dropped`], so a runaway
//! kernel degrades the trace instead of eating the heap. A chunk's
//! bytes are allocated at commit to fit, so a capture's footprint
//! follows its events, not its chunk count (CG opens tens of thousands
//! of chunks of about a dozen events).

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

use crate::event::{
    get_event, get_uvarint, put_event, put_uvarint, uvarint_len, zigzag_decode, zigzag_encode,
    AccessKind, TraceEvent, MAX_EVENT_BYTES,
};

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

/// Events a chunk keeps; later ones are counted in [`Trace::dropped`].
const CHUNK_CAPACITY: usize = 4096;

/// Size of a [`ChunkLog`]'s buffer: room for a chunk's whole bound.
const LOG_BYTES: usize = CHUNK_CAPACITY * MAX_EVENT_BYTES;

const SHARDS: usize = 64;

/// Hasher for the chunk-id keys of the per-shard entries: one
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

/// One chunk's committed events in wire form, and what the next commit
/// of the chunk continues from.
#[derive(Debug, Default)]
struct ChunkEntry {
    /// Events kept (at most [`CHUNK_CAPACITY`]).
    events: usize,
    /// Base of the last kept event: the next commit's delta base.
    last_base: u64,
    /// The kept events in wire form.
    bytes: Vec<u8>,
}

/// One shard of a session's chunk entries, keyed by stored chunk id,
/// and the shard's share of the trace totals.
#[derive(Debug, Default)]
struct Shard {
    chunks: HashMap<u64, ChunkEntry, BuildHasherDefault<ChunkIdHasher>>,
    /// Events kept.
    events: u64,
    /// Read and write accesses the kept events expand to.
    accesses: [u64; 2],
    /// Events past a chunk's bound, counted and not kept.
    dropped: u64,
}

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
    /// all passes of a chunk would share one entry and replay as a
    /// single burst — fabricating temporal locality the execution
    /// never had.
    epoch: AtomicU64,
    shards: Vec<Mutex<Shard>>,
}

impl ActiveCapture {
    /// The stored chunk id: epoch in the high bits, so ascending-id
    /// replay is execution order across passes.
    fn full_id(&self, chunk: u64) -> u64 {
        (self.epoch.load(Ordering::Relaxed) << EPOCH_SHIFT) | chunk
    }

    /// Append one closed [`ChunkLog`] to its chunk's entry, keeping the
    /// chunk's first [`CHUNK_CAPACITY`] events. The log encoded its
    /// first base as a delta from 0; it is rebased onto the entry's last
    /// base, so a chunk committed in several scopes encodes exactly as
    /// if it had been recorded in one.
    fn commit(&self, id: u64, log: &ChunkLog) {
        let mut guard = self.shards[(id % SHARDS as u64) as usize].lock();
        let shard = &mut *guard;
        let entry = shard.chunks.entry(id).or_default();
        let keep = log.events.min(CHUNK_CAPACITY - entry.events);
        shard.dropped += log.dropped + (log.events - keep) as u64;
        if keep == 0 {
            return;
        }
        let bytes = &log.bytes[..log.len];
        let (mut end, mut last_base, mut accesses) = (bytes.len(), log.last_base, log.accesses);
        if keep < log.events {
            // Cut the log after its `keep`-th event, tallying what stays.
            (end, last_base, accesses) = (0, 0, [0; 2]);
            for _ in 0..keep {
                let e = get_event(bytes, &mut end, last_base).expect(WELL_FORMED);
                accesses[usize::from(e.kind.tag())] += e.len();
                last_base = e.base;
            }
        }
        // The first event is its kind byte, then its base as a delta from
        // 0; re-encode that delta from the entry's last base.
        let mut rest = 1;
        let first_base = zigzag_decode(get_uvarint(bytes, &mut rest).expect(WELL_FORMED)) as u64;
        let delta = zigzag_encode(first_base.wrapping_sub(entry.last_base) as i64);
        entry.bytes.reserve_exact(1 + uvarint_len(delta) + end - rest);
        entry.bytes.push(bytes[0]);
        put_uvarint(&mut entry.bytes, delta);
        entry.bytes.extend_from_slice(&bytes[rest..end]);
        entry.events += keep;
        entry.last_base = last_base;
        shard.events += keep as u64;
        shard.accesses[0] += accesses[0];
        shard.accesses[1] += accesses[1];
    }
}

/// Trace bytes are written only by this crate; a read that fails is a bug.
const WELL_FORMED: &str = "trace bytes are well formed";

// The hook fast path: a single relaxed load. Set only while a session
// is live, so untraced runs never take the RwLock.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<ActiveCapture>>> = RwLock::new(None);
// Capture sessions are process-global (the hooks are); serialize them
// so concurrent tests queue instead of corrupting each other.
static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
    // A thread's log buffer, allocated at `LOG_BYTES` by the first log
    // the thread opens and lent to each log after it.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
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
    /// every chunk's bytes hold its events in emission order however the
    /// chunks were scheduled. A chunk id reopened in the same epoch
    /// appends to its bytes. Keep a log's scope to its chunk's own serial
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

/// One chunk's open event log, from [`hooks::chunk`]. Recording encodes
/// into a buffer its thread lends it; dropping the log appends the
/// bytes to the chunk's entry under one shard lock and hands the buffer
/// back. The log borrows the session under the `ACTIVE` read guard for
/// its whole life, so [`CaptureGuard::finish`], which takes the write
/// side before it drains the entries, waits for every open log and
/// never misses a burst.
pub struct ChunkLog {
    active: RwLockReadGuard<'static, Option<Arc<ActiveCapture>>>,
    /// Stored chunk id, epoch included, read once at open.
    id: u64,
    /// This scope's bursts in wire form in `bytes[..len]`, the first
    /// base a delta from 0.
    bytes: Vec<u8>,
    len: usize,
    /// Bursts encoded (at most [`CHUNK_CAPACITY`]).
    events: usize,
    /// Read and write accesses the encoded bursts expand to.
    accesses: [u64; 2],
    /// Bursts past the bound, counted and not encoded.
    dropped: u64,
    /// Base of the last encoded burst: the next one's delta base.
    last_base: u64,
}

impl ChunkLog {
    /// The slow half of [`hooks::chunk`], past the idle check.
    fn open(region: Region, chunk: u64) -> Option<Self> {
        let active = ACTIVE.read();
        let id = active.as_deref().filter(|c| c.region == region)?.full_id(chunk);
        let mut bytes = SCRATCH.take();
        if bytes.is_empty() {
            bytes = vec![0; LOG_BYTES];
        }
        let (len, events, accesses, dropped, last_base) = (0, 0, [0; 2], 0, 0);
        Some(ChunkLog { active, id, bytes, len, events, accesses, dropped, last_base })
    }

    /// Record one access burst. Empty bursts (`count == 0`) are skipped.
    #[inline]
    pub fn record(&mut self, kind: AccessKind, base: u64, stride: u32, count: u32) {
        if count == 0 {
            return;
        }
        if self.events == CHUNK_CAPACITY {
            self.dropped += 1;
            return;
        }
        let e = TraceEvent { kind, base, stride, count };
        put_event(&mut self.bytes, &mut self.len, self.last_base, e);
        self.last_base = base;
        self.events += 1;
        self.accesses[usize::from(kind.tag())] += u64::from(count);
    }
}

impl Drop for ChunkLog {
    fn drop(&mut self) {
        // A log that recorded nothing leaves no chunk behind.
        if self.events != 0 {
            if let Some(c) = self.active.as_deref() {
                c.commit(self.id, self);
            }
        }
        SCRATCH.set(std::mem::take(&mut self.bytes));
    }
}

/// A live capture session. Created by [`CaptureGuard::start`]; run the
/// kernel while it is alive, then call [`CaptureGuard::finish`] to get
/// the finished [`Trace`]. Dropping without finishing discards the data
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
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        });
        *ACTIVE.write() = Some(Arc::clone(&capture));
        ENABLED.store(true, Ordering::Release);
        Some(Self { _session: session, capture })
    }

    /// Stop capturing and frame the committed chunks, in ascending chunk
    /// id, into a [`Trace`].
    pub fn finish(self) -> Trace {
        ENABLED.store(false, Ordering::Release);
        *ACTIVE.write() = None;
        // Open chunk logs hold the read guard, so once the write lock has
        // been taken every log has committed and none can open; drain.
        let mut chunks: Vec<(u64, ChunkEntry)> = Vec::new();
        let (mut events, mut accesses, mut dropped) = (0, [0, 0], 0);
        for shard in &self.capture.shards {
            let mut shard = shard.lock();
            events += shard.events;
            accesses = [accesses[0] + shard.accesses[0], accesses[1] + shard.accesses[1]];
            dropped += shard.dropped;
            chunks.extend(shard.chunks.drain());
        }
        chunks.sort_unstable_by_key(|&(id, _)| id);
        // Chunk ids ascend, so each delta is non-negative; the first is
        // absolute, and zigzag keeps it general.
        let id_delta = |id: u64, prev: u64| zigzag_encode(id.wrapping_sub(prev) as i64);
        let framed = chunks.iter().scan(0, |prev, (id, chunk)| {
            let delta = id_delta(*id, std::mem::replace(prev, *id));
            Some(uvarint_len(delta) + uvarint_len(chunk.events as u64) + chunk.bytes.len())
        });
        let header = HEADER_FIXED + uvarint_len(HEADER_RATE) + uvarint_len(dropped);
        let len = header + uvarint_len(chunks.len() as u64) + framed.sum::<usize>();
        let mut bytes = Vec::with_capacity(len);
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.push(self.capture.region.tag());
        bytes.push(HEADER_MODE_TAG);
        bytes.extend_from_slice(&HEADER_SEED.to_le_bytes());
        put_uvarint(&mut bytes, HEADER_RATE);
        put_uvarint(&mut bytes, dropped);
        put_uvarint(&mut bytes, chunks.len() as u64);
        let mut prev = 0;
        for (id, chunk) in chunks {
            put_uvarint(&mut bytes, id_delta(id, prev));
            put_uvarint(&mut bytes, chunk.events as u64);
            bytes.extend_from_slice(&chunk.bytes);
            prev = id;
        }
        debug_assert_eq!(bytes.len(), len);
        Trace { region: self.capture.region, dropped, events, accesses, bytes }
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

/// A finished capture: the unit the replay driver, the CLI and the
/// statistics operate on. It holds the trace only as its wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The instrumented kernel.
    pub region: Region,
    /// Events past a chunk's bound, counted and not kept.
    pub dropped: u64,
    /// Events kept, tallied as they were committed.
    events: u64,
    /// Read and write accesses the kept events expand to, tallied the
    /// same way, so the statistics need no pass over the bytes.
    accesses: [u64; 2],
    /// The v1 wire form: the header, then per chunk in ascending id a
    /// zigzag varint id delta, a varint event count and the events as
    /// [`put_event`](crate::event::put_event) writes them, base deltas
    /// restarting at each chunk.
    bytes: Vec<u8>,
}

const MAGIC: &[u8; 4] = b"HPTR";
const VERSION: u8 = 1;
/// Magic, version, region tag, mode tag and the 8-byte seed slot.
const HEADER_FIXED: usize = 4 + 1 + 1 + 1 + 8;

// The v1 header keeps three slots from a retired chunk sampler: a mode
// tag, a seed and a 1-in-k rate. Every stream carries the values a full
// capture always wrote there, so dropping the sampler left trace bytes
// unchanged.
const HEADER_MODE_TAG: u8 = 2;
const HEADER_SEED: u64 = 0x4850_4345_5641_4c31; // "HPCEVAL1"
const HEADER_RATE: u64 = 8;

impl Trace {
    /// The trace in its wire form.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Every recorded burst in replay order: chunks by ascending id,
    /// each chunk's events in emission order.
    pub fn events(&self) -> Events<'_> {
        let mut pos = HEADER_FIXED;
        let mut varint = || get_uvarint(&self.bytes, &mut pos).expect(WELL_FORMED);
        let (_rate, _dropped, chunks_left) = (varint(), varint(), varint());
        Events { bytes: &self.bytes, pos, chunks_left, events_left: 0, id: 0, base: 0 }
    }

    /// Number of chunks that recorded at least one event.
    pub fn chunk_count(&self) -> u64 {
        self.events().chunks_left
    }

    /// Number of recorded bursts.
    pub fn total_events(&self) -> u64 {
        self.events
    }

    /// Number of individual addresses the bursts expand to.
    pub fn total_accesses(&self) -> u64 {
        self.accesses[0] + self.accesses[1]
    }

    /// `(read_accesses, write_accesses)` after expansion.
    pub fn access_split(&self) -> (u64, u64) {
        (self.accesses[0], self.accesses[1])
    }
}

/// The reader over a [`Trace`]'s bytes, from [`Trace::events`].
#[derive(Debug, Clone)]
pub struct Events<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Chunks not yet entered.
    chunks_left: u64,
    /// Events left in the current chunk.
    events_left: u64,
    /// The current chunk's id.
    id: u64,
    /// The last event's base: the next one's delta base.
    base: u64,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        while self.events_left == 0 {
            if self.chunks_left == 0 {
                return None;
            }
            self.chunks_left -= 1;
            let delta = get_uvarint(self.bytes, &mut self.pos).expect(WELL_FORMED);
            self.id = self.id.wrapping_add(zigzag_decode(delta) as u64);
            self.events_left = get_uvarint(self.bytes, &mut self.pos).expect(WELL_FORMED);
            self.base = 0;
        }
        self.events_left -= 1;
        let e = get_event(self.bytes, &mut self.pos, self.base).expect(WELL_FORMED);
        self.base = e.base;
        Some(e)
    }
}

/// The hooks are process-global, so a test that asserts on them while
/// another test's session is live would race; every test in this crate
/// that starts a session or checks hook state holds this.
#[cfg(test)]
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    static TESTS: Mutex<()> = Mutex::new(());
    TESTS.lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(chunk id, events)` per chunk, read through [`Trace::events`].
    fn chunks(t: &Trace) -> Vec<(u64, Vec<TraceEvent>)> {
        let mut out: Vec<(u64, Vec<TraceEvent>)> = Vec::new();
        let mut events = t.events();
        while let Some(e) = events.next() {
            match out.last_mut() {
                Some((id, chunk)) if *id == events.id => chunk.push(e),
                _ => out.push((events.id, vec![e])),
            }
        }
        out
    }

    /// The commit-time tallies agree with a read of the bytes.
    fn assert_tallies_match_bytes(t: &Trace) {
        let mut split = [0u64; 2];
        for e in t.events() {
            split[usize::from(e.kind.tag())] += e.len();
        }
        assert_eq!(t.total_events(), t.events().count() as u64);
        assert_eq!(t.access_split(), (split[0], split[1]));
        assert_eq!(t.total_accesses(), split[0] + split[1]);
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
        assert_eq!(t.chunk_count(), 8);
        assert_eq!(t.total_events(), 16);
        assert_eq!(t.total_accesses(), 16 * 64);
        assert_eq!(t.access_split(), (8 * 64, 8 * 64));
        assert_tallies_match_bytes(&t);
        let ids: Vec<u64> = chunks(&t).iter().map(|c| c.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>(), "chunks sorted");
        // Compactness: two 17-byte descriptors per chunk shrink well.
        assert!(t.bytes().len() < 16 * 12 + 32, "{} bytes for 16 events", t.bytes().len());
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
        assert_eq!(t.chunk_count(), 0, "a log that recorded nothing leaves no chunk");
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

    /// Capture one log per slice on HPL chunk 3, each recording a read
    /// burst at every base of its slice.
    fn capture_scopes(scopes: &[&[u64]]) -> Trace {
        let guard = CaptureGuard::start(Region::Hpl, CaptureConfig::default()).unwrap();
        for bases in scopes {
            let mut log = hooks::chunk(Region::Hpl, 3).unwrap();
            for &base in *bases {
                log.record(AccessKind::Read, base, 8, 4);
            }
        }
        guard.finish()
    }

    #[test]
    fn chunk_keeps_its_first_events_and_counts_the_rest() {
        let _serial = serial();
        let cap = CHUNK_CAPACITY;
        let bases: Vec<u64> = (0..cap as u64 + 6).map(|i| i * 64).collect();
        // Overflow inside one log (an empty first scope leaves nothing),
        // and across two logs of one chunk id with either log
        // overflowing or neither alone doing so.
        for at in [0, 6, cap + 3, cap / 2] {
            let t = capture_scopes(&[&bases[..at], &bases[at..]]);
            assert_eq!(t.dropped, 6, "split at {at}");
            assert_tallies_match_bytes(&t);
            let chunks = chunks(&t);
            assert_eq!(chunks.len(), 1);
            // The first events survive, in order.
            let kept: Vec<u64> = chunks[0].1.iter().map(|e| e.base).collect();
            assert_eq!(kept, bases[..cap], "split at {at}");
        }
    }

    #[test]
    fn a_chunk_split_across_scopes_encodes_like_one_scope() {
        let _serial = serial();
        // Bases that move up and down, so the rebased first delta of a
        // later scope differs from the delta from 0 it was logged with.
        let bases = [9000u64, 64, 128, 70_000, 5, 4096, 8192, 1 << 40];
        let one = capture_scopes(&[&bases]);
        for at in 1..bases.len() {
            let split = capture_scopes(&[&bases[..at], &bases[at..]]);
            assert_eq!(split.bytes(), one.bytes(), "split at {at}");
        }
        let three = capture_scopes(&[&bases[..2], &bases[2..5], &bases[5..]]);
        assert_eq!(three.bytes(), one.bytes());
        assert_eq!(three.events().map(|e| e.base).collect::<Vec<_>>(), bases);
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
        let chunks = chunks(&t);
        assert_eq!(chunks.len(), 3);
        for (line, (id, events)) in (0..3u64).zip(&chunks) {
            assert_eq!(*id, (1 << EPOCH_SHIFT) | line);
            let got: Vec<_> = events.iter().map(|e| (e.kind, e.base)).collect();
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
        let chunks = chunks(&t);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].0, 7);
        let kinds: Vec<_> = chunks[0].1.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [AccessKind::Read, AccessKind::Write]);
    }

    #[test]
    fn region_parses() {
        for r in Region::ALL {
            assert_eq!(Region::parse(r.name()), Some(r));
        }
        assert_eq!(Region::parse("ua"), None, "uninstrumented kernels stay unparseable");
    }
}
