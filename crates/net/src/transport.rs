//! Pluggable frame transports.
//!
//! A [`Transport`] moves opaque, already-encoded frames between numbered
//! endpoints. The runtime above it neither knows nor cares whether frames
//! cross a deterministic in-memory wire ([`InMemoryTransport`]) or a real
//! loopback UDP socket ([`crate::mux::MuxUdpTransport`]) — the same
//! protocol logic runs over both, which is the whole point of the layer.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use cam_sim::rng::SimRng;
use cam_sim::{LatencyModel, SimTime};

/// Traffic counters every transport maintains, in the same units for the
/// in-memory wire and the real sockets so runs are directly comparable
/// (and comparable with the simulator's `SimStats` byte counters when a
/// wire-cost function is installed there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Bytes handed to the wire, including frames later lost in transit.
    pub bytes_sent: u64,
    /// Bytes received from the wire, before decoding.
    pub bytes_received: u64,
    /// Frames successfully encoded and offered to the transport.
    pub frames_encoded: u64,
    /// Received frames that decoded cleanly.
    pub frames_decoded: u64,
    /// Received frames rejected as malformed: a payload that failed to
    /// decode, or a frame claiming a source endpoint that does not exist.
    /// Strictly a receive-side counter; local encode failures are counted
    /// in [`WireCounters::encode_oversize`].
    pub frames_rejected: u64,
    /// Locally-originated messages that were too large to encode into a
    /// single frame and were therefore never offered to the wire. A
    /// send-side counter — the peer never sees these.
    pub encode_oversize: u64,
    /// Frames genuinely lost in transit (in-memory loss injection, a
    /// socket send that *failed* — not one that would merely block — or a
    /// backpressure queue overflowing). Transient `WouldBlock` sends are
    /// counted in [`WireCounters::send_backpressure`] and retried, never
    /// here: conflating the two overstated real-wire loss.
    pub frames_dropped: u64,
    /// Sends deferred because the socket's buffer was momentarily full
    /// (`ErrorKind::WouldBlock`). These frames are queued and retried on
    /// writability — they are *not* losses.
    pub send_backpressure: u64,
    /// Retransmissions of unacknowledged frames.
    pub frames_retransmitted: u64,
    /// Internal invariant violations absorbed gracefully instead of
    /// panicking (an ack that failed to encode, a receive length out of
    /// range, a frame for an endpoint that was never bound). Nonzero
    /// values indicate a runtime bug — counted, never fatal.
    pub internal_errors: u64,
}

/// An encoded frame queued by the reactor core for a transport to ship:
/// `buf` travels from endpoint `from` to endpoint `to`.
///
/// Buffers are owned by the reactor's `FrameSink` pool: the transport
/// borrows them during [`Transport::send_batch`] and the sink recycles
/// them afterwards, so the steady-state send path allocates nothing.
#[derive(Debug)]
pub struct OutFrame {
    /// Source endpoint.
    pub from: usize,
    /// Destination endpoint.
    pub to: usize,
    /// The encoded frame bytes.
    pub buf: Vec<u8>,
}

/// A bidirectional frame mover between `endpoints()` numbered endpoints.
///
/// Contract:
///
/// * `send` never blocks and never fails visibly — an undeliverable frame
///   is counted in [`WireCounters::frames_dropped`] and forgotten, exactly
///   like a UDP datagram. Reliability is the caller's business (the
///   runtime's ack/retransmit machinery).
/// * `poll` returns at most one ready frame per call, as
///   `(destination endpoint, frame bytes)`, and never blocks.
/// * Virtual-time transports (`is_virtual() == true`) deliver a frame only
///   once `poll` is called with `now` at or past the frame's arrival
///   instant, and report the earliest such instant via `next_ready` so the
///   caller can advance its clock without busy-spinning. Real-time
///   transports return `None` from `next_ready` and ignore `now`.
pub trait Transport {
    /// Number of endpoints this transport connects.
    fn endpoints(&self) -> usize;

    /// Queues `frame` from endpoint `from` to endpoint `to` at time `now`.
    fn send(&mut self, now: SimTime, from: usize, to: usize, frame: &[u8]);

    /// Takes the next frame deliverable at or before `now`, if any.
    fn poll(&mut self, now: SimTime) -> Option<(usize, Vec<u8>)>;

    /// Earliest instant a queued frame becomes deliverable (virtual
    /// transports only).
    fn next_ready(&self) -> Option<SimTime>;

    /// Whether delivery timing follows the caller's virtual clock (`true`)
    /// or real wall-clock I/O (`false`).
    fn is_virtual(&self) -> bool;

    /// Snapshot of the traffic counters.
    fn counters(&self) -> WireCounters;

    /// Mutable counters, for the runtime to account frame encode/decode
    /// outcomes on the transport they belong to.
    fn counters_mut(&mut self) -> &mut WireCounters;

    /// Ships a batch of frames **in order**. Order matters: deterministic
    /// transports assign delivery sequence from send order, so a batch
    /// must land exactly as the same frames sent one by one would. A
    /// datagram transport may pack the batch into fewer datagrams as long
    /// as each destination still sees the frames in batch order —
    /// [`crate::mux::MuxUdpTransport`] sends one datagram per socket
    /// route. The default simply loops [`Transport::send`].
    fn send_batch(&mut self, now: SimTime, frames: &[OutFrame]) {
        for f in frames {
            self.send(now, f.from, f.to, &f.buf);
        }
    }

    /// Drains up to `max` ready frames into `out` in one call (batched
    /// recv). Returns how many were appended. The default loops
    /// [`Transport::poll`].
    fn poll_batch(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<(usize, Vec<u8>)>,
    ) -> usize {
        let mut n = 0;
        while n < max {
            match self.poll(now) {
                Some(frame) => {
                    out.push(frame);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Returns a receive buffer to the transport's pool once the runtime
    /// has consumed it. Default: drop it.
    fn recycle(&mut self, _buf: Vec<u8>) {}

    /// Parks the calling thread until a frame may be readable or `dur`
    /// elapses, returning `true` if woken by readiness. The wire loop
    /// parks for exactly `min(next timer, next RTO, deadline)`, so a real
    /// transport must wake early when a frame arrives; the default (a
    /// plain sleep) only suits transports that never park — virtual-time
    /// ones.
    fn wait(&mut self, dur: std::time::Duration) -> bool {
        std::thread::sleep(dur);
        false
    }

    /// Whether [`Transport::wait`] wakes early when a frame arrives.
    fn supports_readiness(&self) -> bool {
        false
    }

    /// Retries sends parked in the backpressure queue (if any). Returns
    /// whether any frame made progress.
    fn flush_backpressure(&mut self, _now: SimTime) -> bool {
        false
    }

    /// Whether sends are currently queued awaiting socket writability.
    fn has_backpressure(&self) -> bool {
        false
    }
}

/// Bound on a transport's pooled receive buffers (see
/// [`Transport::recycle`]): beyond it a recycled buffer is dropped, so a
/// burst does not pin its high-water mark forever.
pub(crate) const RECV_POOL_CAP: usize = 256;

/// A frame in flight on the in-memory wire.
#[derive(Debug)]
struct InFlight {
    at: SimTime,
    seq: u64,
    to: usize,
    frame: Vec<u8>,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic in-process wire: frames are delayed by a
/// [`LatencyModel`] (the same models the simulator uses) and optionally
/// lost with a configured probability, both driven by a seeded
/// [`SimRng`]. With equal seeds, two runs see identical delays and losses
/// — which is what lets the loss/retransmit integration tests assert exact
/// outcomes.
#[derive(Debug)]
pub struct InMemoryTransport {
    endpoints: usize,
    latency: LatencyModel,
    rng: SimRng,
    loss_probability: f64,
    /// Probability in `[0, 1]` that a frame is delivered twice (with an
    /// independent second latency draw) — lost-ack and routing-flap
    /// duplication, which the ack/retransmit layer must tolerate.
    duplicate_probability: f64,
    /// Directed endpoint pairs `(from, to)` whose frames are dropped —
    /// asymmetric partition injection. Ordered so fault state never
    /// perturbs the RNG stream or iteration order.
    blocked: BTreeSet<(usize, usize)>,
    seq: u64,
    queue: BinaryHeap<Reverse<InFlight>>,
    /// Delivered frames' buffers handed back through
    /// [`Transport::recycle`], reused for the next frames in flight.
    pool: Vec<Vec<u8>>,
    counters: WireCounters,
}

impl InMemoryTransport {
    /// A wire between `endpoints` endpoints with the given latency model,
    /// deterministic under `seed`.
    pub fn new(endpoints: usize, seed: u64, latency: LatencyModel) -> Self {
        InMemoryTransport {
            endpoints,
            latency,
            rng: SimRng::new(seed).split(0x11E7),
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            blocked: BTreeSet::new(),
            seq: 0,
            queue: BinaryHeap::new(),
            pool: Vec::new(),
            counters: WireCounters::default(),
        }
    }

    /// Sets the independent per-frame loss probability in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        self.loss_probability = p;
    }

    /// Sets the independent per-frame duplication probability in `[0, 1]`:
    /// a duplicated frame is enqueued twice, the copy with its own latency
    /// draw (so the two arrivals may reorder). The wire counts each copy's
    /// bytes as sent, like a real NIC would.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_duplicate_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability {p} out of range"
        );
        self.duplicate_probability = p;
    }

    /// Blocks (or unblocks) the directed link `from → to`: frames along it
    /// are dropped and counted in [`WireCounters::frames_dropped`].
    /// Blocking a single direction models an *asymmetric* partition.
    pub fn set_link_blocked(&mut self, from: usize, to: usize, blocked: bool) {
        if blocked {
            self.blocked.insert((from, to));
        } else {
            self.blocked.remove(&(from, to));
        }
    }

    /// Removes every link block (heals all partitions).
    pub fn clear_blocked_links(&mut self) {
        self.blocked.clear();
    }

    fn enqueue(&mut self, now: SimTime, from: usize, to: usize, frame: &[u8]) {
        let delay = self.latency.sample(from, to, &mut self.rng);
        let seq = self.seq;
        self.seq += 1;
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        self.queue.push(Reverse(InFlight {
            at: now + delay,
            seq,
            to,
            frame: buf,
        }));
    }
}

impl Transport for InMemoryTransport {
    fn endpoints(&self) -> usize {
        self.endpoints
    }

    fn send(&mut self, now: SimTime, from: usize, to: usize, frame: &[u8]) {
        assert!(from < self.endpoints && to < self.endpoints, "bad endpoint");
        self.counters.bytes_sent += frame.len() as u64;
        // Blocked links consume no randomness, so installing/healing a
        // partition never shifts the RNG stream of unaffected traffic.
        if !self.blocked.is_empty() && self.blocked.contains(&(from, to)) {
            self.counters.frames_dropped += 1;
            return;
        }
        if self.loss_probability > 0.0 && self.rng.unit() < self.loss_probability {
            self.counters.frames_dropped += 1;
            return;
        }
        self.enqueue(now, from, to, frame);
        if self.duplicate_probability > 0.0 && self.rng.unit() < self.duplicate_probability {
            self.counters.bytes_sent += frame.len() as u64;
            self.enqueue(now, from, to, frame);
        }
    }

    fn poll(&mut self, now: SimTime) -> Option<(usize, Vec<u8>)> {
        match self.queue.peek() {
            Some(Reverse(f)) if f.at <= now => {}
            _ => return None,
        }
        let Reverse(f) = self.queue.pop()?;
        self.counters.bytes_received += f.frame.len() as u64;
        Some((f.to, f.frame))
    }

    fn next_ready(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(f)| f.at)
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn counters(&self) -> WireCounters {
        self.counters
    }

    fn counters_mut(&mut self) -> &mut WireCounters {
        &mut self.counters
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.pool.len() < RECV_POOL_CAP {
            self.pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_sim::Duration;

    #[test]
    fn delivers_in_latency_order_deterministically() {
        let mk = || {
            let mut t = InMemoryTransport::new(
                3,
                7,
                LatencyModel::Uniform {
                    min: Duration::from_millis(5),
                    max: Duration::from_millis(50),
                },
            );
            t.send(SimTime::ZERO, 0, 1, b"a");
            t.send(SimTime::ZERO, 0, 2, b"bb");
            t.send(SimTime::ZERO, 1, 2, b"ccc");
            let mut order = Vec::new();
            while let Some((to, frame)) = t.poll(SimTime(u64::MAX / 2)) {
                order.push((to, frame.len()));
            }
            (order, t.counters())
        };
        let (o1, c1) = mk();
        let (o2, c2) = mk();
        assert_eq!(o1, o2, "same seed, same delivery order");
        assert_eq!(c1, c2);
        assert_eq!(c1.bytes_sent, 6);
        assert_eq!(c1.bytes_received, 6);
    }

    #[test]
    fn respects_virtual_clock() {
        let mut t =
            InMemoryTransport::new(2, 1, LatencyModel::Constant(Duration::from_millis(10)));
        t.send(SimTime::ZERO, 0, 1, b"x");
        assert!(t.poll(SimTime::ZERO + Duration::from_millis(9)).is_none());
        assert_eq!(
            t.next_ready(),
            Some(SimTime::ZERO + Duration::from_millis(10))
        );
        assert!(t.poll(SimTime::ZERO + Duration::from_millis(10)).is_some());
        assert!(t.next_ready().is_none());
    }

    #[test]
    fn recycled_receive_buffers_carry_the_next_frames() {
        let mut t =
            InMemoryTransport::new(2, 1, LatencyModel::Constant(Duration::from_millis(1)));
        let later = SimTime(u64::MAX / 2);
        t.send(SimTime::ZERO, 0, 1, &[7u8; 1200]);
        let (_, first) = t.poll(later).expect("delivered");
        let (ptr, cap) = (first.as_ptr(), first.capacity());
        t.recycle(first);
        t.send(SimTime::ZERO, 1, 0, b"short");
        let (to, second) = t.poll(later).expect("delivered");
        assert_eq!((to, second.as_slice()), (0, b"short".as_slice()));
        assert_eq!(
            (second.as_ptr(), second.capacity()),
            (ptr, cap),
            "the recycled buffer, not a fresh allocation, carried the second frame"
        );
        // The pool is bounded: a burst's buffers beyond the cap are dropped.
        for _ in 0..2 * RECV_POOL_CAP {
            t.recycle(Vec::with_capacity(8));
        }
        assert_eq!(t.pool.len(), RECV_POOL_CAP);
    }

    #[test]
    fn blocked_links_are_asymmetric_and_healable() {
        let mut t =
            InMemoryTransport::new(2, 3, LatencyModel::Constant(Duration::from_millis(1)));
        t.set_link_blocked(0, 1, true);
        t.send(SimTime::ZERO, 0, 1, b"cut");
        t.send(SimTime::ZERO, 1, 0, b"back");
        // Only the reverse direction gets through.
        let (to, frame) = t.poll(SimTime(u64::MAX / 2)).expect("reverse path open");
        assert_eq!((to, frame.as_slice()), (0, b"back".as_slice()));
        assert!(t.poll(SimTime(u64::MAX / 2)).is_none());
        assert_eq!(t.counters().frames_dropped, 1);
        t.clear_blocked_links();
        t.send(SimTime::ZERO, 0, 1, b"healed");
        assert!(t.poll(SimTime(u64::MAX / 2)).is_some());
    }

    #[test]
    fn duplication_delivers_twice_and_counts_bytes() {
        let mut t =
            InMemoryTransport::new(2, 4, LatencyModel::Constant(Duration::from_millis(1)));
        t.set_duplicate_probability(1.0);
        t.send(SimTime::ZERO, 0, 1, b"twin");
        assert!(t.poll(SimTime(u64::MAX / 2)).is_some());
        assert!(t.poll(SimTime(u64::MAX / 2)).is_some());
        assert!(t.poll(SimTime(u64::MAX / 2)).is_none());
        assert_eq!(t.counters().bytes_sent, 8, "both copies count as sent");
    }

    #[test]
    fn fault_free_stream_is_unperturbed_by_fault_surface() {
        // Installing and removing a block on an unused link must not shift
        // the RNG stream: delivery times stay bit-identical.
        let run = |touch_faults: bool| {
            let mut t = InMemoryTransport::new(
                3,
                9,
                LatencyModel::Uniform {
                    min: Duration::from_millis(5),
                    max: Duration::from_millis(50),
                },
            );
            if touch_faults {
                t.set_link_blocked(2, 0, true);
                t.clear_blocked_links();
            }
            for i in 0..8 {
                t.send(SimTime::ZERO, 0, 1, &[i]);
            }
            let mut got = Vec::new();
            while let Some((_, f)) = t.poll(SimTime(u64::MAX / 2)) {
                got.push(f);
            }
            got
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut t =
            InMemoryTransport::new(2, 2, LatencyModel::Constant(Duration::from_millis(1)));
        t.set_loss_probability(1.0);
        for _ in 0..10 {
            t.send(SimTime::ZERO, 0, 1, b"gone");
        }
        assert!(t.poll(SimTime(u64::MAX / 2)).is_none());
        assert_eq!(t.counters().frames_dropped, 10);
        assert_eq!(t.counters().bytes_sent, 40);
        assert_eq!(t.counters().bytes_received, 0);
    }
}
