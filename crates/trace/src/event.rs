//! Trace events and their compact integer encodings.
//!
//! Kernels access memory in short regular bursts (a row of a matrix
//! panel, a span of a stream array, a gather from an index list), so
//! the unit of recording is a *block descriptor* — base address, stride
//! and count — not a single address. One descriptor covers up to 2³²
//! addresses in 17 bytes before compression; after delta/varint
//! encoding a typical descriptor costs 4–8 bytes.

/// Whether the described accesses read or write memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load traffic.
    Read,
    /// Store traffic (marks lines dirty on replay).
    Write,
}

impl AccessKind {
    /// Wire tag (stable across versions).
    pub fn tag(self) -> u8 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }
    }

    /// Inverse of [`AccessKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(AccessKind::Read),
            1 => Some(AccessKind::Write),
            _ => None,
        }
    }
}

/// One recorded access burst: `count` accesses starting at logical byte
/// address `base`, `stride` bytes apart.
///
/// Addresses are *logical*: kernels compute them from loop indices and
/// fixed per-array bases, never from heap pointers, so a trace is
/// bitwise identical no matter where the allocator put the buffers or
/// how many worker threads ran the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Read or write.
    pub kind: AccessKind,
    /// First byte address of the burst.
    pub base: u64,
    /// Byte distance between consecutive accesses.
    pub stride: u32,
    /// Number of accesses (0 is legal and describes nothing).
    pub count: u32,
}

impl TraceEvent {
    /// A read burst.
    pub fn read(base: u64, stride: u32, count: u32) -> Self {
        Self { kind: AccessKind::Read, base, stride, count }
    }

    /// A write burst.
    pub fn write(base: u64, stride: u32, count: u32) -> Self {
        Self { kind: AccessKind::Write, base, stride, count }
    }

    /// The byte addresses the burst touches, in order.
    pub fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(move |i| self.base.wrapping_add(u64::from(i) * u64::from(self.stride)))
    }

    /// The burst as maximal runs of consecutive addresses that share a
    /// `line_bytes`-aligned line (`line_bytes` a power of two), as
    /// `(first address, run length)` pairs in order. The lengths sum to
    /// `count`; a stride of at least a line gives runs of one, a stride
    /// of zero a single run.
    pub fn line_runs(&self, line_bytes: u64) -> impl Iterator<Item = (u64, u64)> {
        debug_assert!(line_bytes.is_power_of_two());
        let stride = u64::from(self.stride);
        let mut addr = self.base;
        let mut left = u64::from(self.count);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let run = match stride {
                0 => left,
                // Every address up to the line's last byte is in the line.
                _ => ((line_bytes - 1 - (addr & (line_bytes - 1))) / stride + 1).min(left),
            };
            let first = addr;
            addr = addr.wrapping_add(run * stride);
            left -= run;
            Some((first, run))
        })
    }

    /// Number of accesses described.
    pub fn len(&self) -> u64 {
        u64::from(self.count)
    }

    /// True when the burst describes no accesses.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Append `v` as a LEB128-style varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a varint from `buf` at `*pos`, advancing it. `None` on
/// truncation or a value wider than 64 bits.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // overflow past 64 bits
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Bytes [`put_uvarint`] writes for `v`.
pub(crate) fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Most bytes [`put_event`] writes: the kind tag and three varints.
pub(crate) const MAX_EVENT_BYTES: usize = 1 + 10 + 5 + 5;

/// Write `e` in the trace wire form at `out[*pos..]`, advancing `*pos`:
/// its kind tag, then varints of the zigzag base delta from `prev_base`,
/// the stride and the count. Panics unless [`MAX_EVENT_BYTES`] fit.
///
/// It writes into a slice rather than pushing onto a `Vec`: the capture
/// recorder calls it once per burst, and byte-by-byte pushes made CG's
/// capture about a fifth slower.
#[inline]
pub(crate) fn put_event(out: &mut [u8], pos: &mut usize, prev_base: u64, e: TraceEvent) {
    let mut n = *pos;
    out[n] = e.kind.tag();
    n += 1;
    let base_delta = zigzag_encode(e.base.wrapping_sub(prev_base) as i64);
    for mut v in [base_delta, u64::from(e.stride), u64::from(e.count)] {
        while v >= 0x80 {
            out[n] = (v as u8) | 0x80;
            v >>= 7;
            n += 1;
        }
        out[n] = v as u8;
        n += 1;
    }
    *pos = n;
}

/// Read the event [`put_event`] wrote at `*pos` after `prev_base`,
/// advancing `*pos`. `None` on truncation or an unknown tag.
pub(crate) fn get_event(buf: &[u8], pos: &mut usize, prev_base: u64) -> Option<TraceEvent> {
    let kind = AccessKind::from_tag(*buf.get(*pos)?)?;
    *pos += 1;
    let base = prev_base.wrapping_add(zigzag_decode(get_uvarint(buf, pos)?) as u64);
    let stride = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    let count = u32::try_from(get_uvarint(buf, pos)?).ok()?;
    Some(TraceEvent { kind, base, stride, count })
}

/// Map a signed delta onto an unsigned varint-friendly integer
/// (0, -1, 1, -2, ... → 0, 1, 2, 3, ...).
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_walk_the_stride() {
        let e = TraceEvent::read(1000, 8, 4);
        assert_eq!(e.addresses().collect::<Vec<_>>(), vec![1000, 1008, 1016, 1024]);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert!(TraceEvent::write(0, 1, 0).is_empty());
    }

    #[test]
    fn line_runs_group_addresses_by_line() {
        let runs = |e: TraceEvent| e.line_runs(64).collect::<Vec<_>>();
        // 8-byte stride from a mid-line base: the partial first line,
        // then whole lines, then the tail.
        assert_eq!(runs(TraceEvent::read(48, 8, 12)), vec![(48, 2), (64, 8), (128, 2)]);
        // A stride that does not divide the line straddles boundaries.
        assert_eq!(runs(TraceEvent::read(0, 24, 6)), vec![(0, 3), (72, 3)]);
        assert_eq!(runs(TraceEvent::write(5, 0, 7)), vec![(5, 7)]);
        assert_eq!(runs(TraceEvent::read(0, 64, 3)), vec![(0, 1), (64, 1), (128, 1)]);
        assert_eq!(runs(TraceEvent::read(0, 8, 0)), vec![]);
        // Expanding the runs gives back the burst's addresses.
        let e = TraceEvent::read(u64::MAX - 100, 40, 9);
        let expanded: Vec<u64> = e
            .line_runs(64)
            .flat_map(|(a, n)| (0..n).map(move |i| a.wrapping_add(i * 40)))
            .collect();
        assert_eq!(expanded, e.addresses().collect::<Vec<_>>());
    }

    #[test]
    fn varint_round_trips() {
        let samples =
            [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX / 2, u64::MAX];
        for &v in &samples {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "value {v}");
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            TraceEvent::read(0, 8, 1),
            TraceEvent::write(u64::MAX - 3, 0, u32::MAX),
            TraceEvent::read(1 << 40, 4096, 300),
        ];
        let mut buf = [0u8; 3 * MAX_EVENT_BYTES];
        let (mut len, mut prev) = (0, 0);
        for e in events {
            put_event(&mut buf, &mut len, prev, e);
            prev = e.base;
        }
        let (mut pos, mut prev) = (0, 0);
        for e in events {
            assert_eq!(get_event(&buf[..len], &mut pos, prev), Some(e));
            prev = e.base;
        }
        assert_eq!(get_event(&buf[..len], &mut pos, prev), None, "past the end");
        assert_eq!(get_event(&[7, 0, 0, 0], &mut 0, 0), None, "unknown kind tag");
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(get_uvarint(&[0x80], &mut pos), None);
        // 11 continuation bytes: wider than u64.
        let too_wide = [0xffu8; 11];
        pos = 0;
        assert_eq!(get_uvarint(&too_wide, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 123_456_789, -987_654_321] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in [AccessKind::Read, AccessKind::Write] {
            assert_eq!(AccessKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(AccessKind::from_tag(7), None);
    }
}
