//! A [`Transport`] that wraps another one for the traced pass: it puts a
//! span around every call the wire loop makes into the transport, counts
//! frames and batches, and keeps copies of the first frames it ships so the
//! codec can be replayed over real traffic afterwards.

use cam_net::codec::ACK_FRAME_LEN;
use cam_net::{OutFrame, Transport, WireCounters};
use cam_sim::SimTime;

use crate::spans::{Log, Name};

/// Frames copied for the codec replay; later frames are only counted.
const CAPTURE_CAP: usize = 20_000;

/// What the wrapper counted at the transport boundary.
#[derive(Debug, Default, Clone)]
pub struct TransportTally {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub acks_sent: u64,
    pub send_batches: u64,
    pub frames_polled: u64,
    /// `poll_batch` calls that returned at least one frame.
    pub poll_batches: u64,
    pub captured: Vec<Vec<u8>>,
}

pub struct TimedTransport<T: Transport> {
    inner: T,
    log: Log,
    pub tally: TransportTally,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T, log: Log) -> Self {
        TimedTransport {
            inner,
            log,
            tally: TransportTally::default(),
        }
    }

    fn note_sent(&mut self, frame: &[u8]) {
        self.tally.frames_sent += 1;
        self.tally.bytes_sent += frame.len() as u64;
        if frame.len() == ACK_FRAME_LEN {
            self.tally.acks_sent += 1;
        }
        if self.tally.captured.len() < CAPTURE_CAP {
            self.tally.captured.push(frame.to_vec());
        }
    }

    fn spanned<R>(&mut self, name: Name, f: impl FnOnce(&mut T) -> R) -> R {
        self.log.borrow_mut().enter(name);
        let out = f(&mut self.inner);
        self.log.borrow_mut().exit();
        out
    }
}

// Every method delegates, defaulted ones included: falling back to the
// trait's default would silently bypass the inner transport's batching,
// readiness and backpressure overrides.
impl<T: Transport> Transport for TimedTransport<T> {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }

    fn send(&mut self, now: SimTime, from: usize, to: usize, frame: &[u8]) {
        self.note_sent(frame);
        self.tally.send_batches += 1;
        self.spanned(Name::TransportSendBatch, |t| t.send(now, from, to, frame));
    }

    fn poll(&mut self, now: SimTime) -> Option<(usize, Vec<u8>)> {
        let got = self.spanned(Name::TransportPoll, |t| t.poll(now));
        if got.is_some() {
            self.tally.frames_polled += 1;
            self.tally.poll_batches += 1;
        }
        got
    }

    fn next_ready(&self) -> Option<SimTime> {
        self.inner.next_ready()
    }

    fn is_virtual(&self) -> bool {
        self.inner.is_virtual()
    }

    fn counters(&self) -> WireCounters {
        self.inner.counters()
    }

    fn counters_mut(&mut self) -> &mut WireCounters {
        self.inner.counters_mut()
    }

    fn send_batch(&mut self, now: SimTime, frames: &[OutFrame]) {
        for f in frames {
            self.note_sent(&f.buf);
        }
        self.tally.send_batches += 1;
        self.spanned(Name::TransportSendBatch, |t| t.send_batch(now, frames));
    }

    fn poll_batch(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<(usize, Vec<u8>)>,
    ) -> usize {
        let n = self.spanned(Name::TransportPollBatch, |t| t.poll_batch(now, max, out));
        if n > 0 {
            self.tally.frames_polled += n as u64;
            self.tally.poll_batches += 1;
        }
        n
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.inner.recycle(buf);
    }

    fn wait(&mut self, dur: std::time::Duration) -> bool {
        self.spanned(Name::TransportWait, |t| t.wait(dur))
    }

    fn supports_readiness(&self) -> bool {
        self.inner.supports_readiness()
    }

    fn flush_backpressure(&mut self, now: SimTime) -> bool {
        self.spanned(Name::TransportFlushBackpressure, |t| {
            t.flush_backpressure(now)
        })
    }

    fn has_backpressure(&self) -> bool {
        self.inner.has_backpressure()
    }
}
