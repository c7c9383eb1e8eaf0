//! Bounded event storage for capture sessions.
//!
//! Mirrors the telemetry crate's ring-buffer semantics (O(1) append,
//! oldest-first eviction once full, lifetime eviction counter) without
//! depending on `hpceval-telemetry` — that crate sits *above* the
//! kernels in the dependency graph, and this one sits below them.

use std::collections::VecDeque;

/// Bounded FIFO over `T`: O(1) append with eviction once full.
///
/// Storage grows on demand up to the capacity, so an empty or short ring
/// costs only what it holds.
#[derive(Debug, Clone)]
pub struct TraceRing<T> {
    buf: VecDeque<T>,
    capacity: usize,
    evicted: u64,
}

impl<T> TraceRing<T> {
    /// A ring holding at most `capacity` items (at least 1). Nothing is
    /// allocated until the first push.
    pub fn new(capacity: usize) -> Self {
        Self { buf: VecDeque::new(), capacity: capacity.max(1), evicted: 0 }
    }

    /// Append, returning the evicted oldest item when full.
    pub fn push(&mut self, item: T) -> Option<T> {
        let evicted = if self.buf.len() == self.capacity {
            self.evicted += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(item);
        evicted
    }

    /// Push every item of `other`, oldest first, and add its evictions
    /// to this ring's. When `other`'s capacity is at most this ring's,
    /// the result is what pushing `other`'s whole history here would
    /// have left, evictions included.
    pub fn append(&mut self, other: TraceRing<T>) {
        self.evicted += other.evicted;
        for item in other.buf {
            self.push(item);
        }
    }

    /// Move the stored items and the eviction count into a new ring
    /// with the same capacity, allocated to fit exactly what is stored.
    /// This ring is left empty, keeping its allocation for reuse.
    pub fn take_exact(&mut self) -> TraceRing<T>
    where
        T: Copy,
    {
        let (front, back) = self.buf.as_slices();
        let mut items = Vec::with_capacity(front.len() + back.len());
        items.extend_from_slice(front);
        items.extend_from_slice(back);
        self.buf.clear();
        let evicted = std::mem::take(&mut self.evicted);
        TraceRing { buf: VecDeque::from(items), capacity: self.capacity, evicted }
    }

    /// Items currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items evicted over the ring's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Oldest-to-newest iteration.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Consume the ring, yielding stored items oldest first. A ring that
    /// never evicted hands over its buffer without copying.
    pub fn into_vec(self) -> Vec<T> {
        Vec::from(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_when_full() {
        let mut r = TraceRing::new(3);
        assert_eq!(r.push(1), None);
        assert_eq!(r.push(2), None);
        assert_eq!(r.push(3), None);
        assert_eq!(r.push(4), Some(1));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.evicted(), 1);
        assert_eq!(r.into_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn grown_ring_still_evicts_oldest_first() {
        // A roomy ring holding a handful of items reserves only what it
        // grows into; once it reaches capacity it evicts as before.
        let mut r = TraceRing::new(4096);
        for i in 0..5 {
            assert_eq!(r.push(i), None);
        }
        assert_eq!((r.len(), r.evicted()), (5, 0));
        for i in 5..4096 {
            assert_eq!(r.push(i), None);
        }
        assert_eq!(r.push(4096), Some(0));
        assert_eq!(r.push(4097), Some(1));
        assert_eq!((r.len(), r.capacity(), r.evicted()), (4096, 4096, 2));
        assert_eq!(r.iter().next(), Some(&2));
        assert_eq!(r.into_vec(), (2..4098).collect::<Vec<_>>());
    }

    #[test]
    fn append_matches_pushing_the_whole_history() {
        for (first, second) in [(2, 9), (5, 1), (0, 7), (6, 0)] {
            let mut pushed = TraceRing::new(4);
            let mut appended = TraceRing::new(4);
            let mut other = TraceRing::new(4);
            for i in 0..first {
                pushed.push(i);
                appended.push(i);
            }
            for i in first..first + second {
                pushed.push(i);
                other.push(i);
            }
            appended.append(other);
            assert_eq!(appended.evicted(), pushed.evicted(), "{first}+{second}");
            assert_eq!(appended.into_vec(), pushed.into_vec(), "{first}+{second}");
        }
    }

    #[test]
    fn take_exact_moves_items_and_evictions() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(i);
        }
        let taken = r.take_exact();
        assert_eq!((r.len(), r.evicted()), (0, 0));
        assert_eq!((taken.capacity(), taken.evicted()), (3, 2));
        assert_eq!(taken.into_vec(), vec![2, 3, 4]);
        r.push(7);
        assert_eq!(r.into_vec(), vec![7]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRing::new(0);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.push('a'), None);
        assert_eq!(r.push('b'), Some('a'));
    }
}
