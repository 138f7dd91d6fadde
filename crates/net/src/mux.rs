//! Multiplexed UDP: hundreds of endpoints on **one** socket.
//!
//! [`MuxUdpTransport`] hosts all `endpoints` of a cluster on a single
//! non-blocking loopback socket. Endpoint routes default to the
//! transport's own socket (the single-process mode that runs hundreds of
//! nodes on one thread); [`MuxUdpTransport::set_route`] points an
//! endpoint at another process's mux socket.
//!
//! **Records, not one frame per datagram.** A datagram is a run of
//! records, each `[dest u32 BE][len u16 BE][frame]`: the destination
//! endpoint, the codec frame's length, then the frame — a transport-level
//! wrapping the wire codec never sees. Every frame of one send call
//! ([`Transport::send_batch`]; [`Transport::send`] is a batch of one) that
//! resolves to the same socket route is packed, in order, into one
//! datagram of at most 65,507 bytes (the IPv4 UDP payload limit); a batch
//! over the cap continues in the next datagram, so order per route holds
//! across them. The wire loop hands the transport everything the core
//! produced for one drained receive batch, so on loopback a batch costs
//! one `send_to` instead of one per frame. On receive, a pure splitter
//! takes a datagram apart without indexing; a malformed record is counted
//! in [`WireCounters::frames_rejected`] and ends its datagram, while the
//! records before it are still delivered.
//!
//! One socket is what makes **readiness** expressible with std alone (the
//! crate forbids `unsafe`, so no raw `epoll` over a socket set):
//! [`Transport::wait`] flips the socket to blocking mode with a read
//! timeout equal to the requested park and issues one `recv` — the thread
//! sleeps *exactly* until a datagram arrives or the deadline passes, and
//! the wire loop's idle wake-up rate collapses to one per timer. The
//! frames received during the park are queued for the next `poll`.
//!
//! **Backpressure, not loss**: a `send_to` returning
//! `ErrorKind::WouldBlock` means the socket's buffer is momentarily full,
//! not that the datagram died. Such datagrams go whole into a bounded
//! retry queue and are re-offered on [`Transport::flush_backpressure`];
//! only a hard send error or the retry queue overflowing loses them. The
//! queue's bound (8,192) and both counters
//! ([`WireCounters::send_backpressure`], [`WireCounters::frames_dropped`])
//! count **frames**, not datagrams, so they read the same however frames
//! were packed.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use cam_sim::SimTime;

use crate::codec::MAX_FRAME;
use crate::transport::{OutFrame, Transport, WireCounters, RECV_POOL_CAP};

/// Bound on frames parked awaiting socket writability before the oldest
/// parked datagram is dropped for real (a slow receiver must not grow
/// memory without limit — at that point it *is* loss).
const MAX_BACKPRESSURE: usize = 8192;

/// Largest datagram the mux sends or expects: the IPv4 UDP payload limit.
const MAX_DATAGRAM: usize = 65_507;

/// Bytes of record header ahead of each codec frame: destination endpoint
/// (`u32`) and frame length (`u16`), both big-endian.
const RECORD_HEADER: usize = 6;

// A lone frame of the largest size the codec emits must fit one datagram,
// and its length must fit the record's `u16`.
const _: () =
    assert!(RECORD_HEADER + MAX_FRAME <= MAX_DATAGRAM && MAX_FRAME <= u16::MAX as usize);

/// Emptied datagram buffers kept for the next batch.
const SPARE_DATAGRAMS: usize = 4;

/// Datagrams the mux handed to the kernel and took back from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatagramCounters {
    /// Datagrams `send_to` accepted.
    pub sent: u64,
    /// Datagrams `recv_from` returned, well-formed or not.
    pub received: u64,
}

/// A record that does not parse: the rest of its datagram is discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Malformed;

/// Splits a received datagram into its records, `(endpoint, frame)`, in
/// order. Pure and index-free: a hostile datagram can only end the
/// iteration with one `Err(Malformed)` — an empty datagram, a header cut
/// short, a length running past the end, or an endpoint `>= endpoints`.
fn records(
    datagram: &[u8],
    endpoints: usize,
) -> impl Iterator<Item = Result<(usize, &[u8]), Malformed>> {
    let mut rest = Some(datagram);
    std::iter::from_fn(move || {
        let bytes = rest.take()?;
        let record = split_record(bytes, endpoints);
        if let Ok((_, _, tail)) = record {
            rest = (!tail.is_empty()).then_some(tail);
        }
        Some(record.map(|(to, frame, _)| (to, frame)))
    })
}

/// The first record of `bytes` and what follows it.
fn split_record(bytes: &[u8], endpoints: usize) -> Result<(usize, &[u8], &[u8]), Malformed> {
    let (dest, rest) = bytes.split_first_chunk::<4>().ok_or(Malformed)?;
    let (len, rest) = rest.split_first_chunk::<2>().ok_or(Malformed)?;
    let to = u32::from_be_bytes(*dest) as usize;
    if to >= endpoints {
        return Err(Malformed);
    }
    let (frame, tail) = rest
        .split_at_checked(usize::from(u16::from_be_bytes(*len)))
        .ok_or(Malformed)?;
    Ok((to, frame, tail))
}

/// Records bound for one socket route.
#[derive(Debug)]
struct Datagram {
    dest: SocketAddr,
    bytes: Vec<u8>,
    /// Records in `bytes`.
    frames: usize,
}

/// All cluster endpoints multiplexed onto one non-blocking UDP socket.
#[derive(Debug)]
pub struct MuxUdpTransport {
    socket: UdpSocket,
    local: SocketAddr,
    /// Destination socket per endpoint; defaults to `local` everywhere.
    routes: Vec<SocketAddr>,
    counters: WireCounters,
    datagrams: DatagramCounters,
    /// Frames received but not yet handed out by `poll`.
    ready: VecDeque<(usize, Vec<u8>)>,
    /// Datagrams being packed during one send call, one per route.
    open: Vec<Datagram>,
    /// Datagrams whose `send_to` would have blocked, awaiting retry.
    pending: VecDeque<Datagram>,
    /// Frames in `pending`.
    pending_frames: usize,
    /// Emptied datagram buffers, so packing allocates nothing per batch.
    spare: Vec<Vec<u8>>,
    /// Recycled receive buffers.
    pool: Vec<Vec<u8>>,
    buf: Box<[u8; MAX_DATAGRAM]>,
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
            datagrams: DatagramCounters::default(),
            ready: VecDeque::new(),
            open: Vec::new(),
            pending: VecDeque::new(),
            pending_frames: 0,
            spare: Vec::new(),
            pool: Vec::new(),
            buf: Box::new([0u8; MAX_DATAGRAM]),
        })
    }

    /// The socket address every locally-routed endpoint shares.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Routes `endpoint` to another mux socket (e.g. one in another
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
        self.pending_frames
    }

    /// Datagrams sent and received so far.
    pub fn datagrams(&self) -> DatagramCounters {
        self.datagrams
    }

    /// Packs each frame into its route's open datagram, then ships every
    /// open datagram — the one send path.
    fn send_frames<'a>(&mut self, frames: impl IntoIterator<Item = (usize, &'a [u8])>) {
        for (to, frame) in frames {
            self.pack(to, frame);
        }
        let mut open = std::mem::take(&mut self.open);
        for d in open.drain(..) {
            self.ship(d); // the batch's last datagram for its route
        }
        self.open = open;
    }

    /// Appends one record to the open datagram of `to`'s route, shipping
    /// that datagram first if the record would not fit.
    fn pack(&mut self, to: usize, frame: &[u8]) {
        // Count codec-frame bytes (record header excluded) so real-socket
        // and in-memory runs stay byte-comparable.
        self.counters.bytes_sent += frame.len() as u64;
        let Some(&dest) = self.routes.get(to) else {
            self.counters.internal_errors += 1;
            self.counters.frames_dropped += 1;
            return;
        };
        let len = match u16::try_from(frame.len()) {
            Ok(len) if frame.len() <= MAX_FRAME => len,
            _ => {
                // No datagram can carry it, exactly as `send_to` would fail.
                self.counters.frames_dropped += 1;
                return;
            }
        };
        let mut open = match self.open.iter().position(|d| d.dest == dest) {
            Some(at) => self.open.swap_remove(at),
            None => self.fresh(dest),
        };
        if open.bytes.len() + RECORD_HEADER + frame.len() > MAX_DATAGRAM {
            let next = self.fresh(dest);
            self.ship(std::mem::replace(&mut open, next));
        }
        open.bytes.extend_from_slice(&(to as u32).to_be_bytes());
        open.bytes.extend_from_slice(&len.to_be_bytes());
        open.bytes.extend_from_slice(frame);
        open.frames += 1;
        self.open.push(open);
    }

    /// An empty datagram for `dest`, on a spare buffer when there is one.
    fn fresh(&mut self, dest: SocketAddr) -> Datagram {
        Datagram {
            dest,
            bytes: self.spare.pop().unwrap_or_default(),
            frames: 0,
        }
    }

    /// Returns a shipped datagram's buffer to the spares.
    fn retire(&mut self, mut bytes: Vec<u8>) {
        if self.spare.len() < SPARE_DATAGRAMS {
            bytes.clear();
            self.spare.push(bytes);
        }
    }

    /// Sends `d` now, or parks it behind the queue so per-route order
    /// survives backpressure.
    fn ship(&mut self, d: Datagram) {
        if self.pending.is_empty() {
            if self.offer(&d) {
                self.retire(d.bytes);
            } else {
                self.park(d);
            }
        } else {
            self.park(d);
            self.drain_pending();
        }
    }

    /// One send attempt. Returns whether the datagram was consumed (sent,
    /// or counted as lost); `false` means the socket would block.
    fn offer(&mut self, d: &Datagram) -> bool {
        match self.socket.send_to(&d.bytes, d.dest) {
            Ok(_) => {
                self.datagrams.sent += 1;
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(_) => {
                self.counters.frames_dropped += d.frames as u64;
                true
            }
        }
    }

    /// Queues a datagram for retry; the oldest parked datagrams make room
    /// once the queue holds [`MAX_BACKPRESSURE`] frames, and those are
    /// lost for real.
    fn park(&mut self, d: Datagram) {
        self.counters.send_backpressure += d.frames as u64;
        while self.pending_frames + d.frames > MAX_BACKPRESSURE {
            let Some(oldest) = self.pending.pop_front() else {
                break;
            };
            self.pending_frames -= oldest.frames;
            self.counters.frames_dropped += oldest.frames as u64;
            self.retire(oldest.bytes);
        }
        self.pending_frames += d.frames;
        self.pending.push_back(d);
    }

    /// Re-offers parked datagrams in order until one would block.
    fn drain_pending(&mut self) -> bool {
        let mut progressed = false;
        while let Some(d) = self.pending.pop_front() {
            if !self.offer(&d) {
                self.pending.push_front(d);
                break;
            }
            self.pending_frames -= d.frames;
            self.retire(d.bytes);
            progressed = true;
        }
        progressed
    }

    /// The next received frame: a queued one, else the records of the
    /// next datagram the socket holds (skipping datagrams that carried
    /// none). `None` once the socket is drained.
    fn next_frame(&mut self) -> Option<(usize, Vec<u8>)> {
        loop {
            if let Some(front) = self.ready.pop_front() {
                return Some(front);
            }
            match self.socket.recv_from(self.buf.as_mut_slice()) {
                Ok((len, _peer)) => self.accept(len),
                Err(_) => return None, // WouldBlock or transient error
            }
        }
    }

    /// Queues the records of the `len`-byte datagram sitting in `self.buf`
    /// on `ready`.
    fn accept(&mut self, len: usize) {
        self.datagrams.received += 1;
        let Some(datagram) = self.buf.get(..len) else {
            self.counters.internal_errors += 1;
            return;
        };
        for record in records(datagram, self.routes.len()) {
            let Ok((to, frame)) = record else {
                // A stray datagram from some other process that found our
                // ephemeral port, or a damaged one. Reject, don't die.
                self.counters.frames_rejected += 1;
                break;
            };
            self.counters.bytes_received += frame.len() as u64;
            let mut out = self.pool.pop().unwrap_or_default();
            out.clear();
            out.extend_from_slice(frame);
            self.ready.push_back((to, out));
        }
    }
}

impl Transport for MuxUdpTransport {
    fn endpoints(&self) -> usize {
        self.routes.len()
    }

    fn send(&mut self, _now: SimTime, _from: usize, to: usize, frame: &[u8]) {
        self.send_frames([(to, frame)]);
    }

    /// Packs the whole batch: one datagram per route, more only past the
    /// 65,507-byte cap.
    fn send_batch(&mut self, _now: SimTime, frames: &[OutFrame]) {
        self.send_frames(frames.iter().map(|f| (f.to, f.buf.as_slice())));
    }

    fn poll(&mut self, now: SimTime) -> Option<(usize, Vec<u8>)> {
        if !self.pending.is_empty() {
            self.flush_backpressure(now);
        }
        self.next_frame()
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
            let Some(frame) = self.next_frame() else {
                break;
            };
            out.push(frame);
            got += 1;
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
        if self.socket.set_nonblocking(false).is_err() {
            // No blocking mode available: degrade to a plain sleep.
            std::thread::sleep(dur);
            return false;
        }
        if self.socket.set_read_timeout(Some(dur)).is_err() {
            // Blocking without a timeout would hang the next `poll`: put
            // the socket back, count the breach, and sleep instead.
            self.counters.internal_errors += 1;
            if self.socket.set_nonblocking(true).is_err() {
                self.counters.internal_errors += 1;
            }
            std::thread::sleep(dur);
            return false;
        }
        if let Ok((len, _peer)) = self.socket.recv_from(self.buf.as_mut_slice()) {
            // A stray/invalid datagram still ends the park: the loop
            // re-evaluates deadlines and parks again.
            self.accept(len);
        }
        if self.socket.set_nonblocking(true).is_err() {
            // A socket stuck in blocking mode would hang `poll`; count
            // the invariant breach — recv with the timeout still set
            // keeps the loop live, if degraded.
            self.counters.internal_errors += 1;
        }
        !self.ready.is_empty()
    }

    fn supports_readiness(&self) -> bool {
        true
    }

    fn flush_backpressure(&mut self, _now: SimTime) -> bool {
        self.drain_pending()
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

    /// One record in the wire layout.
    fn record(to: u32, frame: &[u8]) -> Vec<u8> {
        let mut out = to.to_be_bytes().to_vec();
        out.extend_from_slice(&(frame.len() as u16).to_be_bytes());
        out.extend_from_slice(frame);
        out
    }

    fn out_frame(to: usize, buf: &[u8]) -> OutFrame {
        OutFrame {
            from: 0,
            to,
            buf: buf.to_vec(),
        }
    }

    /// Polls `t` (parking between empty polls) until `n` frames arrived or
    /// two seconds passed.
    fn receive(t: &mut MuxUdpTransport, n: usize) -> Vec<(usize, Vec<u8>)> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = Vec::new();
        while got.len() < n && std::time::Instant::now() < deadline {
            match t.poll(SimTime::ZERO) {
                Some(frame) => got.push(frame),
                None => {
                    t.wait(std::time::Duration::from_millis(1));
                }
            }
        }
        got
    }

    /// Every datagram that reaches `sink` within `window`.
    fn datagrams_at(sink: &UdpSocket, window: std::time::Duration) -> Vec<Vec<u8>> {
        sink.set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .expect("read timeout");
        let deadline = std::time::Instant::now() + window;
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let mut got = Vec::new();
        while std::time::Instant::now() < deadline {
            if let Ok((len, _)) = sink.recv_from(&mut buf) {
                got.push(buf[..len].to_vec());
            }
        }
        got
    }

    #[test]
    fn splitter_yields_records_in_order() {
        let mut datagram = record(2, b"first");
        datagram.extend(record(0, b""));
        datagram.extend(record(3, b"third"));
        let got: Vec<_> = records(&datagram, 4).collect();
        assert_eq!(
            got,
            [
                Ok((2, b"first".as_slice())),
                Ok((0, b"".as_slice())),
                Ok((3, b"third".as_slice())),
            ]
        );
    }

    #[test]
    fn splitter_rejects_hostile_corpus() {
        let valid = record(1, b"ok");
        let mut past_end = record(1, b"cut short");
        past_end.pop();
        let mut then_garbage = valid.clone();
        then_garbage.extend(record(0, b"also ok"));
        then_garbage.extend_from_slice(b"\xff\xff");
        let mut then_oob = valid.clone();
        then_oob.extend(record(4, b"nobody"));
        let corpus: [(&str, &[u8], usize); 7] = [
            ("empty datagram", b"", 0),
            ("short dest", b"\x00\x00\x01", 0),
            ("short length", b"\x00\x00\x00\x01\x00", 0),
            ("length past the end", &past_end, 0),
            ("endpoint out of range", &record(4, b"x"), 0),
            ("valid records, then garbage", &then_garbage, 2),
            ("valid record, then endpoint out of range", &then_oob, 1),
        ];
        for (what, datagram, good) in corpus {
            let got: Vec<_> = records(datagram, 4).collect();
            assert_eq!(got.len(), good + 1, "{what}: ends right after the damage");
            assert!(
                got.iter().take(good).all(Result::is_ok),
                "{what}: records before the damage survive"
            );
            assert_eq!(got.last(), Some(&Err(Malformed)), "{what}");
        }
    }

    #[test]
    fn frames_route_between_endpoints_on_one_socket() {
        let mut t = MuxUdpTransport::bind(64).expect("bind mux");
        t.send(SimTime::ZERO, 0, 63, b"to the last endpoint");
        let got = receive(&mut t, 1);
        assert_eq!(got, [(63, b"to the last endpoint".to_vec())]);
        assert_eq!(t.counters().bytes_sent, 20, "header bytes not counted");
        assert_eq!(t.counters().bytes_received, 20);
    }

    #[test]
    fn batch_on_one_route_leaves_as_one_datagram() {
        let mut t = MuxUdpTransport::bind(4).expect("bind mux");
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
        for e in 0..4 {
            t.set_route(e, sink.local_addr().expect("sink addr"));
        }
        let batch: Vec<_> = (0..12)
            .map(|i| out_frame(i % 4, format!("frame {i}").as_bytes()))
            .collect();
        t.send_batch(SimTime::ZERO, &batch);
        let arrived = datagrams_at(&sink, std::time::Duration::from_millis(300));
        assert_eq!(arrived.len(), 1, "twelve frames, one route, one datagram");
        assert_eq!(t.datagrams().sent, 1);
        let unpacked: Vec<_> = records(&arrived[0], 4)
            .map(|r| r.map(|(to, f)| (to, f.to_vec())))
            .collect();
        let sent: Vec<_> = batch.iter().map(|f| Ok((f.to, f.buf.clone()))).collect();
        assert_eq!(unpacked, sent);
    }

    #[test]
    fn batch_over_the_cap_splits_in_order_losing_nothing() {
        let mut t = MuxUdpTransport::bind(2).expect("bind mux");
        // Three 20 kB records fit one datagram; the fourth starts the next.
        let batch: Vec<_> = (0..5u8).map(|i| out_frame(1, &[i; 20_000])).collect();
        t.send_batch(SimTime::ZERO, &batch);
        assert_eq!(t.datagrams().sent, 2);
        let got = receive(&mut t, 5);
        let firsts: Vec<_> = got.iter().map(|(to, f)| (*to, f.len(), f[0])).collect();
        assert_eq!(firsts, (0..5u8).map(|i| (1, 20_000, i)).collect::<Vec<_>>());
        assert_eq!(t.datagrams().received, 2);
        assert_eq!(t.counters().frames_dropped, 0);
    }

    #[test]
    fn lone_max_frame_round_trips() {
        let mut t = MuxUdpTransport::bind(2).expect("bind mux");
        let frame: Vec<u8> = (0..MAX_FRAME).map(|i| i as u8).collect();
        t.send(SimTime::ZERO, 0, 1, &frame);
        let got = receive(&mut t, 1);
        assert_eq!(got, [(1, frame)]);
        // One byte more does not fit any datagram: dropped, never sent.
        t.send(SimTime::ZERO, 0, 1, &vec![0u8; MAX_FRAME + 1]);
        assert_eq!(t.counters().frames_dropped, 1);
        assert_eq!(t.datagrams().sent, 1);
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
    fn hostile_datagrams_are_rejected_not_fatal() {
        let mut t = MuxUdpTransport::bind(4).expect("bind mux");
        let stranger = UdpSocket::bind("127.0.0.1:0").expect("bind stranger");
        let mut then_garbage = record(2, b"kept");
        then_garbage.extend_from_slice(b"\x00\x00");
        for datagram in [
            &b""[..],
            b"hi",
            &record(999, b"payload"),
            &record(1, b"cut")[..8],
            &then_garbage,
        ] {
            stranger
                .send_to(datagram, t.local_addr())
                .expect("send stray");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut kept = Vec::new();
        while t.counters().frames_rejected < 5 && std::time::Instant::now() < deadline {
            kept.extend(t.poll(SimTime::ZERO));
            t.wait(std::time::Duration::from_millis(1));
        }
        kept.extend(t.poll(SimTime::ZERO));
        assert_eq!(t.counters().frames_rejected, 5);
        assert_eq!(t.counters().internal_errors, 0);
        assert_eq!(t.datagrams().received, 5);
        assert_eq!(kept, [(2, b"kept".to_vec())], "records before the damage");
    }

    #[test]
    fn routes_carry_frames_to_another_mux() {
        // Two mux sockets modeling two processes sharing an
        // endpoint namespace: endpoints 0..2 live on `a`, 2..4 on `b`.
        let mut a = MuxUdpTransport::bind(4).expect("bind a");
        let mut b = MuxUdpTransport::bind(4).expect("bind b");
        a.set_route(2, b.local_addr());
        a.set_route(3, b.local_addr());
        a.send_batch(
            SimTime::ZERO,
            &[out_frame(2, b"cross-shard"), out_frame(1, b"stays home")],
        );
        assert_eq!(a.datagrams().sent, 2, "one datagram per route");
        assert_eq!(receive(&mut b, 1), [(2, b"cross-shard".to_vec())]);
        assert_eq!(receive(&mut a, 1), [(1, b"stays home".to_vec())]);
    }

    #[test]
    fn backpressure_queue_preserves_order_and_counts_frames() {
        let mut t = MuxUdpTransport::bind(2).expect("bind mux");
        // Inject the state a WouldBlock send of a two-frame datagram
        // leaves behind.
        let mut bytes = record(1, b"first");
        bytes.extend(record(0, b"second"));
        t.park(Datagram {
            dest: t.local_addr(),
            bytes,
            frames: 2,
        });
        assert_eq!(t.backpressured_frames(), 2);
        t.send(SimTime::ZERO, 0, 1, b"third");
        assert_eq!(t.counters().send_backpressure, 3, "frames, not datagrams");
        assert_eq!(t.backpressured_frames(), 0, "the queue drained");
        assert_eq!(t.counters().frames_dropped, 0, "backpressure is not loss");
        let got = receive(&mut t, 3);
        assert_eq!(
            got,
            [
                (1, b"first".to_vec()),
                (0, b"second".to_vec()),
                (1, b"third".to_vec())
            ]
        );
    }

    #[test]
    fn backpressure_bound_drops_whole_datagrams_counting_frames() {
        let mut t = MuxUdpTransport::bind(2).expect("bind mux");
        let parked = |frames| Datagram {
            dest: t.local_addr(),
            bytes: Vec::new(),
            frames,
        };
        let (big, small) = (parked(MAX_BACKPRESSURE - 2), parked(3));
        t.park(big);
        t.park(small);
        // 8,193 frames would be parked: the oldest datagram goes, whole.
        assert_eq!(t.counters().frames_dropped, (MAX_BACKPRESSURE - 2) as u64);
        assert_eq!(t.backpressured_frames(), 3);
        assert_eq!(t.counters().send_backpressure, MAX_BACKPRESSURE as u64 + 1);
    }
}
