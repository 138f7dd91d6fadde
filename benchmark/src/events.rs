//! Counting what cam-trace's `RecordingTracer` recorded.
//!
//! The traced pass installs a `RecordingTracer` through the hosts' public
//! `set_tracer`, drains it at short intervals (take it out, count by kind,
//! install a fresh one) so its ring never overflows, and derives the
//! actor-level per-layer metrics from the counts.

use cam_trace::{EventKind, RecordingTracer, Tracer};

/// Ring capacity per drain interval; `trace.events_dropped` stays 0 as long
/// as one interval produces fewer events than this.
pub const RING_CAPACITY: usize = RecordingTracer::DEFAULT_CAPACITY;

pub fn fresh_tracer() -> Box<dyn Tracer> {
    Box::new(RecordingTracer::with_capacity(RING_CAPACITY))
}

/// Event counts by kind over a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventTally {
    pub forward: u64,
    pub receive: u64,
    pub duplicate: u64,
    pub neighbor_miss: u64,
    pub stabilize: u64,
    pub retransmit: u64,
    pub join_request: u64,
    pub recorded: u64,
    pub dropped: u64,
}

impl EventTally {
    /// Folds in everything `tracer` holds. A tracer that is not a
    /// `RecordingTracer` (none was installed) contributes nothing.
    pub fn absorb(&mut self, tracer: &dyn Tracer) {
        let Some(rec) = tracer.as_recording() else {
            return;
        };
        self.dropped += rec.dropped();
        for e in rec.events() {
            self.recorded += 1;
            match e.kind {
                EventKind::MulticastForward { .. } => self.forward += 1,
                EventKind::MulticastReceive { .. } => self.receive += 1,
                EventKind::DuplicateSuppress { .. } => self.duplicate += 1,
                EventKind::NeighborMiss { .. } => self.neighbor_miss += 1,
                EventKind::StabilizeRound { .. } => self.stabilize += 1,
                EventKind::Retransmit { .. } => self.retransmit += 1,
                EventKind::JoinRequest { .. } => self.join_request += 1,
                _ => {}
            }
        }
    }

    /// receives / (receives + suppressed duplicates): the share of payload
    /// arrivals that were not wasted work (flooding's cost).
    pub fn useful_delivery_ratio(&self) -> f64 {
        let arrivals = self.receive + self.duplicate;
        if arrivals == 0 {
            0.0
        } else {
            self.receive as f64 / arrivals as f64
        }
    }
}
