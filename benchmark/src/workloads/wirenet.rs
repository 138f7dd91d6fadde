//! What the two wire workloads share: a cheap completion predicate over
//! `ReactorCore` nodes, the retransmit-buffer and timer-heap peaks, the
//! codec replay, and the transport-boundary metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cam_net::{decode_frame, encode_frame_into, ReactorCore, WireCounters};
use cam_overlay::dynamic::DhtProtocol;

use crate::harness::Checks;
use crate::spans::{span, Log, Name};
use crate::timed_transport::TransportTally;

/// Tracks one payload until every live node holds it.
///
/// `Cluster::delivery_ratio` walks all nodes on every call; evaluated on
/// every wire-loop step it cost 20–30 % of the pass. Receipt is monotone,
/// so a cursor that only moves past nodes holding the payload does the
/// whole job in one walk per round.
#[derive(Debug)]
pub struct NodeCursor {
    payload: u64,
    cursor: usize,
    pub hops_sum: u64,
}

impl NodeCursor {
    pub fn new(payload: u64) -> Self {
        NodeCursor {
            payload,
            cursor: 0,
            hops_sum: 0,
        }
    }

    pub fn advance<P: DhtProtocol>(&mut self, core: &ReactorCore<P>) -> bool {
        while self.cursor < core.len() {
            let node = core.node(self.cursor);
            if node.is_alive() {
                match node.actor().payload_hops(self.payload) {
                    Some(h) => self.hops_sum += u64::from(h),
                    None => return false,
                }
            }
            self.cursor += 1;
        }
        true
    }
}

/// Largest retransmit-buffer and timer-heap population seen at the round
/// boundaries it was sampled at.
#[derive(Debug, Default, Clone, Copy)]
pub struct Peaks {
    pub unacked: usize,
    pub armed_timers: usize,
}

impl Peaks {
    pub fn sample<P: DhtProtocol>(&mut self, core: &ReactorCore<P>) {
        let (mut unacked, mut timers) = (0, 0);
        for i in 0..core.len() {
            unacked += core.node(i).unacked_frames();
            timers += core.node(i).armed_timers();
        }
        self.unacked = self.unacked.max(unacked);
        self.armed_timers = self.armed_timers.max(timers);
    }
}

/// Replays the frames the wrapping transport captured through the codec:
/// decode each, encode each back, time both, and require the round trip to
/// reproduce the captured bytes.
pub fn codec_replay(
    captured: &[Vec<u8>],
    log: &Log,
    layer: &mut BTreeMap<&'static str, f64>,
    checks: &mut Checks,
) {
    if captured.is_empty() {
        return;
    }
    let n = captured.len() as f64;
    let t0 = Instant::now();
    let frames: Vec<_> = span(Some(log), Name::CodecDecode, || {
        captured.iter().map(|b| decode_frame(b)).collect()
    });
    let decode_ns = t0.elapsed().as_nanos() as f64;
    let undecodable = frames.iter().filter(|f| f.is_err()).count();
    checks.require(undecodable == 0, || {
        format!("{undecodable} captured frames failed to decode")
    });
    let frames: Vec<_> = frames.into_iter().flatten().collect();

    let mut buf = Vec::new();
    let t0 = Instant::now();
    span(Some(log), Name::CodecEncode, || {
        for f in &frames {
            buf.clear();
            black_box(encode_frame_into(f, &mut buf).is_ok());
        }
    });
    let encode_ns = t0.elapsed().as_nanos() as f64;

    let mismatched = frames
        .iter()
        .zip(captured)
        .filter(|(f, bytes)| {
            buf.clear();
            encode_frame_into(f, &mut buf).is_err() || buf != **bytes
        })
        .count();
    checks.require(mismatched == 0, || {
        format!("{mismatched} captured frames did not survive decode + encode unchanged")
    });
    let bytes: usize = captured.iter().map(Vec::len).sum();
    layer.insert("codec.decode_ns_per_frame", decode_ns / n);
    layer.insert("codec.encode_ns_per_frame", encode_ns / n);
    layer.insert("codec.bytes_per_frame_mean", bytes as f64 / n);
}

/// Metrics measured at the transport boundary by the wrapping transport.
pub fn transport_metrics(
    tally: &TransportTally,
    counters: WireCounters,
    ops: u64,
    log: &Log,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    let log = log.borrow();
    let sent = tally.frames_sent.max(1) as f64;
    let polled = tally.frames_polled.max(1) as f64;
    let poll_ns = log.aggregate(Name::TransportPoll).total_ns
        + log.aggregate(Name::TransportPollBatch).total_ns;
    layer.insert(
        "transport.send_ns_per_frame",
        log.aggregate(Name::TransportSendBatch).total_ns as f64 / sent,
    );
    layer.insert("transport.poll_ns_per_frame", poll_ns as f64 / polled);
    layer.insert(
        "transport.frames_per_send_batch",
        sent / tally.send_batches.max(1) as f64,
    );
    layer.insert(
        "transport.frames_per_poll_batch",
        polled / tally.poll_batches.max(1) as f64,
    );
    layer.insert(
        "transport.backpressure_events",
        counters.send_backpressure as f64,
    );
    layer.insert("transport.frames_dropped", counters.frames_dropped as f64);
    layer.insert("transport.frames_rejected", counters.frames_rejected as f64);
    layer.insert(
        "reactor.acks_per_op",
        tally.acks_sent as f64 / ops.max(1) as f64,
    );
}
