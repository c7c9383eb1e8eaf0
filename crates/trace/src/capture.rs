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
//! A session records every chunk of its region. The hot-loop cost is
//! one region check per chunk while a session is live and a single
//! relaxed atomic load when none is. Keeping only a subset of chunks
//! was tried and removed: it lost the §VI R² ordering (DESIGN §14).
//!
//! ## Bounded memory
//!
//! Each chunk log is a fixed-capacity ring (the PR-1 telemetry
//! discipline): a chunk that overflows its ring drops its *oldest*
//! events and counts them, so a runaway kernel degrades the trace
//! instead of eating the heap. Rings grow on demand up to that cap, so
//! a capture's footprint follows the events it holds, not its chunk
//! count (CG opens tens of thousands of chunks of about a dozen events).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

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
/// SipHash's flooding resistance buys nothing on this per-event path.
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

    fn push(&self, full_id: u64, event: TraceEvent) {
        let shard = &self.shards[(full_id % SHARDS as u64) as usize];
        let mut map = shard.lock();
        map.entry(full_id).or_insert_with(|| TraceRing::new(CHUNK_CAPACITY)).push(event);
    }
}

// The hook fast path: a single relaxed load. Set only while a session
// is live, so untraced runs never take the RwLock.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<ActiveCapture>>> = RwLock::new(None);
// Capture sessions are process-global (the hooks are); serialize them
// so concurrent tests queue instead of corrupting each other.
static SESSION: Mutex<()> = Mutex::new(());

/// Instrumentation hooks the kernel crates call. Everything here is a
/// no-op (one relaxed atomic load) unless a [`CaptureGuard`] is live.
pub mod hooks {
    use super::*;

    /// Fast check: is any capture session live? Kernels gate their
    /// per-chunk instrumentation block on this.
    #[inline(always)]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Full check: a live session for `region`. Call once per chunk,
    /// then emit events with [`record`]. Every chunk is recorded, so the
    /// answer does not depend on the chunk id.
    pub fn chunk_enabled(region: Region, _chunk: u64) -> bool {
        if !enabled() {
            return false;
        }
        ACTIVE.read().as_ref().is_some_and(|c| c.region == region)
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

    /// Record one access burst for `chunk`. The region is re-checked,
    /// so calling without [`chunk_enabled`] is safe, just slower.
    ///
    /// The merged trace is width-invariant because of how kernels call
    /// this: each chunk is processed by exactly one worker at a time,
    /// and that worker emits the chunk's bursts in program order, so
    /// every chunk's log holds its events in emission order however the
    /// chunks were scheduled. The session is borrowed under the
    /// `ACTIVE` read guard for the whole push, so
    /// [`CaptureGuard::finish`], which takes the write side before it
    /// drains the logs, never misses a burst still in flight.
    pub fn record(
        region: Region,
        chunk: u64,
        kind: AccessKind,
        base: u64,
        stride: u32,
        count: u32,
    ) {
        if !enabled() || count == 0 {
            return;
        }
        let active = ACTIVE.read();
        let Some(c) = active.as_deref() else { return };
        if c.region != region {
            return;
        }
        c.push(c.full_id(chunk), TraceEvent { kind, base, stride, count });
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
        // Hooks push under the read guard, so once the write lock has
        // been taken no push is in flight or can start; drain the logs.
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

    fn capture_eight_chunks() -> Trace {
        let guard =
            CaptureGuard::start(Region::Stream, CaptureConfig::default()).expect("default is Full");
        for chunk in 0..8u64 {
            if hooks::chunk_enabled(Region::Stream, chunk) {
                hooks::record(Region::Stream, chunk, AccessKind::Read, chunk * 4096, 8, 64);
                hooks::record(Region::Stream, chunk, AccessKind::Write, chunk * 4096 + 1024, 8, 64);
            }
        }
        guard.finish()
    }

    #[test]
    fn off_mode_yields_no_session() {
        assert!(CaptureGuard::start(
            Region::Dgemm,
            CaptureConfig { mode: TraceMode::Off, ..CaptureConfig::default() }
        )
        .is_none());
        assert!(!hooks::enabled());
    }

    #[test]
    fn full_mode_keeps_every_chunk() {
        let t = capture_eight_chunks();
        assert_eq!(t.chunks.len(), 8);
        assert_eq!(t.total_events(), 16);
        assert_eq!(t.total_accesses(), 16 * 64);
        let ids: Vec<u64> = t.chunks.iter().map(|c| c.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "chunks sorted: {ids:?}");
    }

    #[test]
    fn hooks_ignore_other_regions() {
        let guard = CaptureGuard::start(Region::Cg, CaptureConfig::default()).unwrap();
        hooks::record(Region::Mg, 0, AccessKind::Read, 0, 8, 4);
        assert!(!hooks::chunk_enabled(Region::Mg, 0));
        assert!(hooks::chunk_enabled(Region::Cg, 0));
        let t = guard.finish();
        assert_eq!(t.total_events(), 0);
    }

    #[test]
    fn hooks_disabled_after_finish_and_after_drop() {
        let g = CaptureGuard::start(Region::Is, CaptureConfig::default()).unwrap();
        assert!(hooks::enabled());
        let _ = g.finish();
        assert!(!hooks::enabled());

        let g = CaptureGuard::start(Region::Is, CaptureConfig::default()).unwrap();
        assert!(hooks::enabled());
        drop(g); // early drop, no finish
        assert!(!hooks::enabled());
        hooks::record(Region::Is, 0, AccessKind::Read, 0, 8, 4); // must not panic
    }

    #[test]
    fn chunk_ring_drops_oldest_and_counts() {
        let guard = CaptureGuard::start(Region::RandomAccess, CaptureConfig::default()).unwrap();
        let total = CHUNK_CAPACITY as u64 + 6;
        for i in 0..total {
            hooks::record(Region::RandomAccess, 0, AccessKind::Read, i * 64, 0, 1);
        }
        let t = guard.finish();
        assert_eq!(t.dropped, 6);
        let events = &t.chunks[0].events;
        assert_eq!(events.len(), CHUNK_CAPACITY);
        // The newest events survive, in order.
        assert_eq!(events[0].base, 6 * 64);
        assert_eq!(events[CHUNK_CAPACITY - 1].base, (total - 1) * 64);
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = capture_eight_chunks();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).expect("round trip");
        assert_eq!(t, back);
        // Compactness: two 17-byte descriptors per chunk shrink well.
        assert!(bytes.len() < 16 * 12 + 32, "{} bytes for 16 events is not compact", bytes.len());
    }

    #[test]
    fn decode_rejects_garbage() {
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
