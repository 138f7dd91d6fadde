//! Sharded event queue: per-shard binary heaps with a deterministic merge.
//!
//! At million-actor scale a single global `BinaryHeap` becomes the
//! simulator's memory bottleneck: every push/pop churns one huge array
//! whose sift paths touch cold cache lines spread across the whole heap.
//! Sharding the queue by destination actor keeps each heap small (sift
//! depth `log(n/K)` over a hot, contiguous arena) while preserving the
//! engine's determinism guarantee *exactly*:
//!
//! # The merge rule
//!
//! Every event carries the globally monotonic sequence number assigned by
//! [`Simulation::schedule`](crate::engine::Simulation) at creation. The
//! queue's total order is `(at, seq)` — virtual time first, then creation
//! order. Because `seq` is unique across *all* shards, two events can never
//! tie, so the pop order is a strict total order that does not depend on
//! the shard count: popping the minimum `(at, seq)` across the shard heads
//! (scanned in fixed `Vec` index order — never hash order) yields exactly
//! the sequence a single global heap would. The shard index participates in
//! the scan, not in the ordering; `K = 1` *is* the single-heap engine, and
//! every other `K` is bit-identical to it. The parity tests in
//! `crates/sim/src/engine.rs` and `tests/property_invariants.rs` hold the
//! engine to that claim.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Total order of scheduled events: virtual time, then the globally unique
/// creation sequence number. `slot` (the event-slab index) rides along for
/// retrieval and never influences ordering because `seq` already breaks
/// every tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual delivery time.
    pub at: SimTime,
    /// Globally monotonic creation sequence number (unique across shards).
    pub seq: u64,
    /// Index into the engine's event slab.
    pub slot: usize,
}

/// A deterministic priority queue of [`EventKey`]s, sharded by destination
/// actor index.
///
/// See the [module docs](self) for the merge rule and why the pop order is
/// independent of the shard count.
#[derive(Debug)]
pub struct ShardedEventQueue {
    /// One min-heap per shard, scanned in index order on every peek/pop.
    shards: Vec<BinaryHeap<Reverse<EventKey>>>,
    len: usize,
}

/// Default shard count used by `Simulation::new`; small enough that the
/// linear merge scan stays negligible, large enough that each heap holds
/// `n/8` of the in-flight events.
pub const DEFAULT_EVENT_SHARDS: usize = 8;

impl ShardedEventQueue {
    /// Creates a queue with `shards` heaps (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedEventQueue {
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
            len: 0,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard responsible for events addressed to `actor`.
    #[inline]
    pub fn shard_of(&self, actor: usize) -> usize {
        actor % self.shards.len()
    }

    /// Total events queued across all shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `key` on the shard of destination `actor`.
    pub fn push(&mut self, actor: usize, key: EventKey) {
        let shard = self.shard_of(actor);
        self.shards[shard].push(Reverse(key));
        self.len += 1;
    }

    /// Index of the shard holding the globally minimal `(at, seq)`, or
    /// `None` when empty. Scans shard heads in `Vec` index order; `seq`
    /// uniqueness makes the winner independent of that scan order.
    #[inline]
    fn min_shard(&self) -> Option<usize> {
        let mut best: Option<(EventKey, usize)> = None;
        for (i, heap) in self.shards.iter().enumerate() {
            if let Some(&Reverse(head)) = heap.peek() {
                if best.is_none_or(|(b, _)| head < b) {
                    best = Some((head, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// The globally next event key, without removing it.
    pub fn peek(&self) -> Option<EventKey> {
        self.min_shard()
            .and_then(|s| self.shards[s].peek().map(|&Reverse(k)| k))
    }

    /// Removes and returns the globally next event key.
    pub fn pop(&mut self) -> Option<EventKey> {
        let s = self.min_shard()?;
        let Reverse(key) = self.shards[s].pop().expect("min shard non-empty");
        self.len -= 1;
        Some(key)
    }
}

impl FromIterator<(usize, EventKey)> for ShardedEventQueue {
    /// Builds a [`DEFAULT_EVENT_SHARDS`]-way queue from `(actor, key)`
    /// pairs. Pop order is the global `(at, seq)` order regardless of the
    /// iterator's order, so collecting into the queue launders any source
    /// order.
    fn from_iter<I: IntoIterator<Item = (usize, EventKey)>>(iter: I) -> Self {
        let mut q = ShardedEventQueue::new(DEFAULT_EVENT_SHARDS);
        for (actor, key) in iter {
            q.push(actor, key);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn key(micros: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::ZERO + Duration::from_micros(micros),
            seq,
            slot: seq as usize,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order_regardless_of_shard_count() {
        // A fixed event schedule with interleaved actors and tied times.
        let events: Vec<(usize, EventKey)> = vec![
            (3, key(50, 4)),
            (0, key(10, 0)),
            (7, key(10, 1)),
            (2, key(30, 3)),
            (0, key(10, 2)),
            (5, key(20, 5)),
        ];
        let reference: Vec<u64> = {
            let mut q = ShardedEventQueue::new(1);
            for &(a, k) in &events {
                q.push(a, k);
            }
            std::iter::from_fn(|| q.pop()).map(|k| k.seq).collect()
        };
        assert_eq!(reference, vec![0, 1, 2, 5, 3, 4], "(at, seq) order");
        for shards in [2, 3, 8, 64] {
            let mut q = ShardedEventQueue::new(shards);
            for &(a, k) in &events {
                q.push(a, k);
            }
            assert_eq!(q.len(), events.len());
            let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|k| k.seq).collect();
            assert_eq!(order, reference, "shards={shards}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = ShardedEventQueue::new(4);
        q.push(1, key(40, 1));
        q.push(2, key(20, 2));
        q.push(3, key(20, 0));
        while let Some(head) = q.peek() {
            assert_eq!(q.pop(), Some(head));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn zero_shards_clamped_to_one() {
        let q = ShardedEventQueue::new(0);
        assert_eq!(q.shard_count(), 1);
        assert_eq!(q.shard_of(17), 0);
    }

    #[test]
    fn from_iterator_pops_independent_of_push_order() {
        let events = [(9usize, key(30, 2)), (1, key(10, 0)), (4, key(10, 1))];
        let forward: ShardedEventQueue = events.iter().copied().collect();
        let reversed: ShardedEventQueue = events.iter().rev().copied().collect();
        assert_eq!(forward.shard_count(), DEFAULT_EVENT_SHARDS);
        let drain = |mut q: ShardedEventQueue| -> Vec<u64> {
            std::iter::from_fn(move || q.pop()).map(|k| k.seq).collect()
        };
        assert_eq!(drain(forward), vec![0, 1, 2]);
        assert_eq!(drain(reversed), vec![0, 1, 2]);
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut q = ShardedEventQueue::new(5);
        q.push(0, key(100, 0));
        q.push(1, key(50, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        q.push(2, key(70, 2));
        q.push(3, key(70, 3));
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 0);
    }
}
