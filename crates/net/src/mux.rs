//! Multiplexed UDP: hundreds of endpoints on **one** socket.
//!
//! [`MuxUdpTransport`] hosts all `endpoints` of a cluster on a single
//! non-blocking loopback socket. Each datagram carries a 4-byte
//! big-endian destination-endpoint envelope ahead of the codec frame —
//! a transport-level detail the wire codec never sees. Endpoint routes
//! default to the transport's own socket (the single-process mode that
//! runs hundreds of nodes on one thread); [`MuxUdpTransport::set_route`]
//! points an endpoint at another process's mux socket.
//!
//! One socket is what makes **readiness** expressible with std alone (the
//! crate forbids `unsafe`, so no raw `epoll` over a socket set):
//! [`Transport::wait`] flips the socket to blocking mode with a read
//! timeout equal to the requested park and issues one `recv` — the thread
//! sleeps *exactly* until a frame arrives or the deadline passes, and the
//! wire loop's idle wake-up rate collapses to one per timer. The frame
//! received during the park is stashed and handed to the next `poll`.
//!
//! **Backpressure, not loss**: a `send_to` returning
//! `ErrorKind::WouldBlock` means the socket's buffer is momentarily full,
//! not that the datagram died. Such frames go into a bounded retry queue
//! ([`WireCounters::send_backpressure`]) and are re-offered on
//! [`Transport::flush_backpressure`]; only a hard send error or the retry
//! queue overflowing counts as [`WireCounters::frames_dropped`].

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use cam_sim::SimTime;

use crate::codec::MAX_FRAME;
use crate::transport::{Transport, WireCounters, RECV_POOL_CAP};

/// Bound on frames parked awaiting socket writability before the oldest
/// is dropped for real (a slow receiver must not grow memory without
/// limit — at that point it *is* loss).
const MAX_BACKPRESSURE: usize = 8192;

/// Bytes of destination-endpoint envelope ahead of each codec frame.
const ENVELOPE_LEN: usize = 4;

/// A frame parked awaiting socket writability (`bytes` includes the
/// envelope; the route is resolved again at retry time).
#[derive(Debug)]
struct Queued {
    to: usize,
    bytes: Vec<u8>,
}

/// All cluster endpoints multiplexed onto one non-blocking UDP socket.
#[derive(Debug)]
pub struct MuxUdpTransport {
    socket: UdpSocket,
    local: SocketAddr,
    /// Destination socket per endpoint; defaults to `local` everywhere.
    routes: Vec<SocketAddr>,
    counters: WireCounters,
    /// Frames received during a blocking `wait`, awaiting `poll`.
    ready: VecDeque<(usize, Vec<u8>)>,
    /// Frames whose `send_to` would have blocked, awaiting retry.
    pending: VecDeque<Queued>,
    /// Recycled receive buffers.
    pool: Vec<Vec<u8>>,
    /// Send-side scratch: envelope + frame assembled here, no per-send
    /// allocation.
    scratch: Vec<u8>,
    buf: Box<[u8; ENVELOPE_LEN + MAX_FRAME]>,
}

impl MuxUdpTransport {
    /// Binds one non-blocking socket on `127.0.0.1:0` hosting `endpoints`
    /// endpoints, all initially routed back to itself (single-process
    /// loopback mode).
    pub fn bind(endpoints: usize) -> std::io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        let local = socket.local_addr()?;
        Ok(MuxUdpTransport {
            socket,
            local,
            routes: vec![local; endpoints],
            counters: WireCounters::default(),
            ready: VecDeque::new(),
            pending: VecDeque::new(),
            pool: Vec::new(),
            scratch: Vec::with_capacity(ENVELOPE_LEN + 1500),
            buf: Box::new([0u8; ENVELOPE_LEN + MAX_FRAME]),
        })
    }

    /// The socket address every locally-routed endpoint shares.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Routes `endpoint` to another mux socket (e.g. a different shard
    /// process). Returns `false` if `endpoint` is out of range.
    pub fn set_route(&mut self, endpoint: usize, addr: SocketAddr) -> bool {
        match self.routes.get_mut(endpoint) {
            Some(slot) => {
                *slot = addr;
                true
            }
            None => false,
        }
    }

    /// Frames currently parked awaiting socket writability.
    pub fn backpressured_frames(&self) -> usize {
        self.pending.len()
    }

    /// Queues an enveloped datagram for retry; the oldest parked frame
    /// makes room once the queue is full, and that one is lost for real.
    fn park(&mut self, to: usize, bytes: &[u8]) {
        self.counters.send_backpressure += 1;
        if self.pending.len() >= MAX_BACKPRESSURE {
            self.counters.frames_dropped += 1;
            self.pending.pop_front();
        }
        self.pending.push_back(Queued {
            to,
            bytes: bytes.to_vec(),
        });
    }

    /// One send attempt of an already-enveloped datagram. Returns whether
    /// the frame was consumed (sent, or counted as lost).
    fn offer(&mut self, to: usize, bytes: &[u8], queue_on_block: bool) -> bool {
        let Some(&dest) = self.routes.get(to) else {
            self.counters.internal_errors += 1;
            self.counters.frames_dropped += 1;
            return true;
        };
        match self.socket.send_to(bytes, dest) {
            Ok(_) => true,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if queue_on_block {
                    self.park(to, bytes);
                }
                false
            }
            Err(_) => {
                self.counters.frames_dropped += 1;
                true
            }
        }
    }

    /// One non-blocking receive, envelope parsed and stripped.
    fn recv_once(&mut self) -> Option<(usize, Vec<u8>)> {
        match self.socket.recv_from(self.buf.as_mut_slice()) {
            Ok((len, _peer)) => self.accept(len),
            Err(_) => None, // WouldBlock or transient error
        }
    }

    /// Validates and strips the envelope of the `len` bytes sitting in
    /// `self.buf`.
    fn accept(&mut self, len: usize) -> Option<(usize, Vec<u8>)> {
        let Some(datagram) = self.buf.get(..len) else {
            self.counters.internal_errors += 1;
            return None;
        };
        let (Some(header), Some(frame)) =
            (datagram.get(..ENVELOPE_LEN), datagram.get(ENVELOPE_LEN..))
        else {
            // Shorter than the envelope: a stray datagram from some other
            // process that found our ephemeral port. Reject, don't die.
            self.counters.frames_rejected += 1;
            return None;
        };
        let Ok(envelope) = <[u8; ENVELOPE_LEN]>::try_from(header) else {
            self.counters.internal_errors += 1; // get(..4) guarantees 4
            return None;
        };
        let to = u32::from_be_bytes(envelope) as usize;
        if to >= self.routes.len() {
            self.counters.frames_rejected += 1;
            return None;
        }
        self.counters.bytes_received += frame.len() as u64;
        let mut out = self.pool.pop().unwrap_or_default();
        out.clear();
        out.extend_from_slice(frame);
        Some((to, out))
    }
}

impl Transport for MuxUdpTransport {
    fn endpoints(&self) -> usize {
        self.routes.len()
    }

    fn send(&mut self, _now: SimTime, _from: usize, to: usize, frame: &[u8]) {
        // Count codec-frame bytes (envelope excluded) so real-socket and
        // in-memory runs stay byte-comparable.
        self.counters.bytes_sent += frame.len() as u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(&(to as u32).to_be_bytes());
        scratch.extend_from_slice(frame);
        if self.pending.is_empty() {
            self.offer(to, &scratch, true);
        } else {
            // Park behind the queue so per-link order survives
            // backpressure, then try to drain.
            self.park(to, &scratch);
            self.flush_backpressure(_now);
        }
        self.scratch = scratch;
    }

    fn poll(&mut self, now: SimTime) -> Option<(usize, Vec<u8>)> {
        if !self.pending.is_empty() {
            self.flush_backpressure(now);
        }
        if let Some(front) = self.ready.pop_front() {
            return Some(front);
        }
        self.recv_once()
    }

    fn poll_batch(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<(usize, Vec<u8>)>,
    ) -> usize {
        if !self.pending.is_empty() {
            self.flush_backpressure(now);
        }
        let mut got = 0;
        while got < max {
            let next = match self.ready.pop_front() {
                Some(front) => Some(front),
                None => self.recv_once(),
            };
            match next {
                Some(frame) => {
                    out.push(frame);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.pool.len() < RECV_POOL_CAP {
            self.pool.push(buf);
        }
    }

    fn wait(&mut self, dur: std::time::Duration) -> bool {
        if !self.ready.is_empty() {
            return true;
        }
        // `set_read_timeout(0)` is an error on std sockets; clamp up.
        let dur = dur.max(std::time::Duration::from_micros(1));
        if self.socket.set_nonblocking(false).is_err()
            || self.socket.set_read_timeout(Some(dur)).is_err()
        {
            // No blocking mode available: degrade to a plain sleep.
            std::thread::sleep(dur);
            return false;
        }
        let got = match self.socket.recv_from(self.buf.as_mut_slice()) {
            Ok((len, _peer)) => {
                if let Some(frame) = self.accept(len) {
                    self.ready.push_back(frame);
                    true
                } else {
                    // A stray/invalid datagram still ends the park: the
                    // loop re-evaluates deadlines and parks again.
                    false
                }
            }
            Err(_) => false, // timeout elapsed
        };
        if self.socket.set_nonblocking(true).is_err() {
            // A socket stuck in blocking mode would hang `poll`; count
            // the invariant breach — recv with the timeout still set
            // keeps the loop live, if degraded.
            self.counters.internal_errors += 1;
        }
        got
    }

    fn supports_readiness(&self) -> bool {
        true
    }

    fn flush_backpressure(&mut self, _now: SimTime) -> bool {
        let mut progressed = false;
        while let Some(q) = self.pending.pop_front() {
            if self.offer(q.to, &q.bytes, false) {
                progressed = true;
            } else {
                self.pending.push_front(q);
                break;
            }
        }
        progressed
    }

    fn has_backpressure(&self) -> bool {
        !self.pending.is_empty()
    }

    fn next_ready(&self) -> Option<SimTime> {
        None
    }

    fn is_virtual(&self) -> bool {
        false
    }

    fn counters(&self) -> WireCounters {
        self.counters
    }

    fn counters_mut(&mut self) -> &mut WireCounters {
        &mut self.counters
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "real-socket tests bound their receive loops by the wall clock"
)]
mod tests {
    use super::*;

    #[test]
    fn frames_route_between_endpoints_on_one_socket() {
        let mut t = MuxUdpTransport::bind(64).expect("bind mux");
        t.send(SimTime::ZERO, 0, 63, b"to the last endpoint");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = None;
        while got.is_none() && std::time::Instant::now() < deadline {
            got = t.poll(SimTime::ZERO);
            if got.is_none() {
                t.wait(std::time::Duration::from_millis(1));
            }
        }
        let (to, frame) = got.expect("frame arrives");
        assert_eq!(to, 63);
        assert_eq!(frame, b"to the last endpoint");
        assert_eq!(t.counters().bytes_sent, 20, "envelope bytes not counted");
        assert_eq!(t.counters().bytes_received, 20);
    }

    #[test]
    fn wait_wakes_on_readiness_not_timeout() {
        let mut t = MuxUdpTransport::bind(2).expect("bind mux");
        t.send(SimTime::ZERO, 0, 1, b"wake");
        // A long park must end early: the datagram is already in flight.
        let start = std::time::Instant::now();
        let woke = t.wait(std::time::Duration::from_secs(5));
        assert!(woke, "readiness ended the park");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "woke early, not at the timeout"
        );
        let (to, frame) = t.poll(SimTime::ZERO).expect("stashed frame");
        assert_eq!((to, frame.as_slice()), (1, b"wake".as_slice()));
    }

    #[test]
    fn wait_times_out_when_idle() {
        let mut t = MuxUdpTransport::bind(2).expect("bind mux");
        let start = std::time::Instant::now();
        let woke = t.wait(std::time::Duration::from_millis(20));
        assert!(!woke, "nothing arrived");
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(15),
            "park lasted roughly the requested time"
        );
        // The socket must be non-blocking again afterwards.
        assert!(t.poll(SimTime::ZERO).is_none());
    }

    #[test]
    fn stray_datagrams_are_rejected_not_fatal() {
        let mut t = MuxUdpTransport::bind(4).expect("bind mux");
        let stranger = UdpSocket::bind("127.0.0.1:0").expect("bind stranger");
        // Too short for an envelope.
        stranger.send_to(b"hi", t.local_addr()).expect("send short");
        // Valid envelope, endpoint out of range.
        let mut oob = 999u32.to_be_bytes().to_vec();
        oob.extend_from_slice(b"payload");
        stranger.send_to(&oob, t.local_addr()).expect("send oob");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while t.counters().frames_rejected < 2 && std::time::Instant::now() < deadline {
            let _ = t.poll(SimTime::ZERO);
            t.wait(std::time::Duration::from_millis(1));
        }
        assert_eq!(t.counters().frames_rejected, 2);
        assert_eq!(t.counters().internal_errors, 0);
    }

    #[test]
    fn routes_carry_frames_to_another_mux() {
        // Two mux sockets modeling two shard processes sharing an
        // endpoint namespace: endpoints 0..2 live on `a`, 2..4 on `b`.
        let mut a = MuxUdpTransport::bind(4).expect("bind a");
        let mut b = MuxUdpTransport::bind(4).expect("bind b");
        a.set_route(2, b.local_addr());
        a.set_route(3, b.local_addr());
        a.send(SimTime::ZERO, 0, 2, b"cross-shard");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = None;
        while got.is_none() && std::time::Instant::now() < deadline {
            got = b.poll(SimTime::ZERO);
            if got.is_none() {
                b.wait(std::time::Duration::from_millis(1));
            }
        }
        let (to, frame) = got.expect("frame crossed sockets");
        assert_eq!((to, frame.as_slice()), (2, b"cross-shard".as_slice()));
        assert!(a.poll(SimTime::ZERO).is_none(), "nothing looped back to a");
    }

    #[test]
    fn backpressure_queue_preserves_order_and_counts() {
        let mut t = MuxUdpTransport::bind(2).expect("bind mux");
        // Inject the state a WouldBlock send leaves behind.
        let mut enveloped = 1u32.to_be_bytes().to_vec();
        enveloped.extend_from_slice(b"first");
        t.pending.push_back(Queued {
            to: 1,
            bytes: enveloped,
        });
        t.counters.send_backpressure += 1;
        t.send(SimTime::ZERO, 0, 1, b"second");
        assert!(t.counters().send_backpressure >= 2);
        assert_eq!(t.counters().frames_dropped, 0, "backpressure is not loss");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut frames = Vec::new();
        while frames.len() < 2 && std::time::Instant::now() < deadline {
            match t.poll(SimTime::ZERO) {
                Some((_, f)) => frames.push(f),
                None => {
                    t.wait(std::time::Duration::from_millis(1));
                }
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], b"first");
        assert_eq!(frames[1], b"second");
    }
}
