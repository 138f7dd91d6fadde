//! The simulator's event queue: a monotone radix queue that owns its events.
//!
//! Discrete-event time never runs backwards: the engine only schedules at
//! `now + delay`, and `now` is the instant of the last event popped. The
//! queue exploits that. Its *floor* is the instant of the last pop, every
//! push must be at or above it (checked), and pops return events in
//! `(at, push order)` order — virtual time first, then scheduling order,
//! exactly the order a `BinaryHeap<Reverse<(at, seq)>>` yields.
//!
//! # Buckets
//!
//! * The **now bucket** holds the events at the floor, in push order.
//! * **Radix bucket `b`** (`0..64`) holds the events whose `at` first
//!   differs from the floor in bit `b` (counting from the least
//!   significant). Every event above the floor sits in exactly one of
//!   them, and bucket `b` only holds times below those of bucket `b + 1`.
//!   Each bucket tracks its minimum `at`, and one `u64` mask marks the
//!   non-empty ones, so [`EventQueue::peek`] is O(1).
//!
//! A pop takes the front of the now bucket. When that is empty, the lowest
//! non-empty radix bucket is *refilled* from: its minimum becomes the new
//! floor, its events at that instant move to the now bucket and the rest
//! fall into strictly lower buckets (they agree with the new floor on every
//! bit from `b` up). Each event moves at most 64 times and usually a few,
//! so pops are amortised O(1) and touch memory sequentially.
//!
//! # Order
//!
//! Radix buckets are unordered bags. Ties are ordered only in the now
//! bucket: it is sorted by push sequence number once per refill, and any
//! later push at the floor carries a larger sequence number than all of
//! them, so appending keeps it sorted. Times are ordered by the bucket
//! layout. Together that is the total `(at, seq)` order, independent of how
//! events travelled between buckets.
//!
//! # Memory
//!
//! Radix buckets store events in fixed-size chunks drawn from one free
//! list shared by all buckets, so the queue's capacity follows the number
//! of live events rather than the sum of each bucket's high-water mark.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Events per chunk of radix-bucket storage.
const CHUNK: usize = 256;

/// One queued event and the order it was pushed in.
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// A radix bucket: an unordered bag of chunks and its minimum time.
struct Bucket<T> {
    chunks: Vec<Vec<Entry<T>>>,
    min: u64,
}

impl<T> Bucket<T> {
    fn push(&mut self, entry: Entry<T>, pool: &mut Vec<Vec<Entry<T>>>) {
        self.min = self.min.min(entry.at);
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(entry),
            _ => {
                let mut chunk = pool.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
                chunk.push(entry);
                self.chunks.push(chunk);
            }
        }
    }
}

/// A monotone priority queue of `T`s keyed by [`SimTime`], popping in
/// `(at, push order)` order.
///
/// See the [module docs](self) for the layout and the order argument.
pub struct EventQueue<T> {
    /// Events at `floor`, ascending `seq`.
    now: VecDeque<Entry<T>>,
    buckets: [Bucket<T>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    nonempty: u64,
    /// Empty chunks, reused by every bucket.
    pool: Vec<Vec<Entry<T>>>,
    /// The instant of the last pop; no push may go below it.
    floor: u64,
    /// Sequence number of the next push.
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with its floor at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            now: VecDeque::new(),
            buckets: std::array::from_fn(|_| Bucket {
                chunks: Vec::new(),
                min: u64::MAX,
            }),
            nonempty: 0,
            pool: Vec::new(),
            floor: 0,
            seq: 0,
        }
    }

    /// Enqueues `item` at `at`. Among events at one instant, pops follow
    /// push order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is below the instant of the last pop: the event
    /// would have to be delivered in the past.
    pub fn push(&mut self, at: SimTime, item: T) {
        assert!(
            at.0 >= self.floor,
            "event at {}us scheduled below the queue floor {}us",
            at.0,
            self.floor
        );
        let entry = Entry {
            at: at.0,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        if entry.at == self.floor {
            self.now.push_back(entry);
        } else {
            self.file(entry);
        }
    }

    /// The instant of the next event, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<SimTime> {
        if !self.now.is_empty() {
            return Some(SimTime(self.floor));
        }
        if self.nonempty == 0 {
            return None;
        }
        let lowest = self.nonempty.trailing_zeros() as usize;
        Some(SimTime(self.buckets[lowest].min))
    }

    /// Removes and returns the next event if it is due by `deadline`
    /// (inclusive). Returns `None`, leaving the queue and its floor
    /// untouched, when the queue is empty or the next event is later.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if self.peek()? > deadline {
            return None;
        }
        if self.now.is_empty() {
            self.refill();
        }
        let entry = self.now.pop_front()?;
        Some((SimTime(entry.at), entry.item))
    }

    /// Files an event above the floor into its radix bucket.
    #[inline]
    fn file(&mut self, entry: Entry<T>) {
        let b = (63 - (entry.at ^ self.floor).leading_zeros()) as usize;
        self.nonempty |= 1 << b;
        self.buckets[b].push(entry, &mut self.pool);
    }

    /// Moves the floor up to the lowest radix bucket's minimum and
    /// redistributes that bucket. Only called with the now bucket empty and
    /// some radix bucket non-empty.
    fn refill(&mut self) {
        let lowest = self.nonempty.trailing_zeros() as usize;
        self.nonempty &= !(1 << lowest);
        let bucket = &mut self.buckets[lowest];
        self.floor = std::mem::replace(&mut bucket.min, u64::MAX);
        let mut chunks = std::mem::take(&mut bucket.chunks);
        while let Some(mut chunk) = chunks.pop() {
            while let Some(entry) = chunk.pop() {
                if entry.at == self.floor {
                    self.now.push_back(entry);
                } else {
                    // Agrees with the new floor from bit `lowest` up, so it
                    // lands in a lower bucket: bucket `lowest` stays empty
                    // until `chunks` goes back.
                    self.file(entry);
                }
            }
            self.pool.push(chunk);
        }
        // Keep the drained spine's allocation for the next fill.
        self.buckets[lowest].chunks = chunks;
        self.now.make_contiguous().sort_unstable_by_key(|e| e.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const END: SimTime = SimTime(u64::MAX);

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop_due(END))
            .map(|(at, item)| (at.0, item))
            .collect()
    }

    #[test]
    fn pops_in_time_then_push_order() {
        let mut q = EventQueue::new();
        for (at, item) in [(50, 0), (10, 1), (30, 2), (10, 3), (20, 4), (10, 5)] {
            q.push(SimTime(at), item);
        }
        assert_eq!(
            drain(&mut q),
            [(10, 1), (10, 3), (10, 5), (20, 4), (30, 2), (50, 0)]
        );
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn burst_of_ties_larger_than_a_chunk_pops_fifo() {
        // The burst spans two chunks and is refilled from a radix bucket,
        // so FIFO order rests on the refill's sequence sort.
        let mut q = EventQueue::new();
        let n = CHUNK as u32 + 44;
        for item in 0..n {
            q.push(SimTime(7), item);
        }
        let got = drain(&mut q);
        assert_eq!(got, (0..n).map(|i| (7, i)).collect::<Vec<_>>());
    }

    #[test]
    fn ties_redistributed_from_a_higher_bucket_keep_push_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(6), 0); // bucket 2 from floor 0
        q.push(SimTime(1), 1);
        assert_eq!(q.pop_due(END), Some((SimTime(1), 1)));
        q.push(SimTime(6), 2); // same instant, pushed after a refill
        q.push(SimTime(5), 3);
        q.push(SimTime(6), 4);
        assert_eq!(drain(&mut q), [(5, 3), (6, 0), (6, 2), (6, 4)]);
    }

    #[test]
    fn zero_delay_pushes_join_the_current_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime(4), 0);
        q.push(SimTime(4), 1);
        q.push(SimTime(9), 2);
        assert_eq!(q.pop_due(END), Some((SimTime(4), 0)));
        // At the floor while the now bucket still holds item 1 ...
        q.push(SimTime(4), 3);
        assert_eq!(q.pop_due(END), Some((SimTime(4), 1)));
        assert_eq!(q.pop_due(END), Some((SimTime(4), 3)));
        // ... and after it drained.
        q.push(SimTime(4), 4);
        assert_eq!(q.peek(), Some(SimTime(4)));
        assert_eq!(drain(&mut q), [(4, 4), (9, 2)]);
    }

    #[test]
    fn extreme_times() {
        let mut q = EventQueue::new();
        q.push(SimTime(u64::MAX), 0);
        q.push(SimTime::ZERO, 1);
        q.push(SimTime(u64::MAX), 2);
        q.push(SimTime(1 << 63), 3);
        assert_eq!(q.peek(), Some(SimTime::ZERO));
        assert_eq!(
            drain(&mut q),
            [(0, 1), (1 << 63, 3), (u64::MAX, 0), (u64::MAX, 2)]
        );
        q.push(SimTime(u64::MAX), 4);
        assert_eq!(drain(&mut q), [(u64::MAX, 4)]);
    }

    #[test]
    fn empty_refill_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop_due(END), None);
        for round in 0..3u32 {
            let base = u64::from(round) * 1_000;
            q.push(SimTime(base + 300), round * 10);
            q.push(SimTime(base + 100), round * 10 + 1);
            assert_eq!(
                drain(&mut q),
                [(base + 100, round * 10 + 1), (base + 300, round * 10)]
            );
            assert_eq!(q.peek(), None);
        }
    }

    #[test]
    fn pop_due_leaves_later_events_and_the_floor_alone() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 0);
        q.push(SimTime(40), 1);
        assert_eq!(q.pop_due(SimTime(5)), None);
        assert_eq!(q.pop_due(SimTime(10)), Some((SimTime(10), 0)));
        assert_eq!(q.pop_due(SimTime(39)), None);
        // The floor is still 10, so an event before 40 may yet be pushed.
        q.push(SimTime(20), 2);
        assert_eq!(q.peek(), Some(SimTime(20)));
        assert_eq!(drain(&mut q), [(20, 2), (40, 1)]);
    }

    #[test]
    #[should_panic(expected = "below the queue floor")]
    fn push_below_the_floor_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 0);
        assert_eq!(q.pop_due(END), Some((SimTime(10), 0)));
        q.push(SimTime(9), 1);
    }
}
