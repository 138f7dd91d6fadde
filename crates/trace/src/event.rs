//! The typed taxonomy of load-bearing protocol moments.

/// A multicast group (pub/sub session) identifier.
///
/// Defined here — at the bottom of the dependency graph — so every layer
/// (trace events, the wire protocol, the cam-pubsub service registry) can
/// share one type without new edges; cam-pubsub re-exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u64);

impl GroupId {
    /// The raw identifier value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One recorded event: an [`EventKind`] stamped with a clock reading and
/// the actor it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in microseconds. In-simulation this is the *virtual*
    /// clock (`SimTime`); in cam-net it is the runtime's wire clock
    /// (micros since cluster start). Never wall time.
    pub at_micros: u64,
    /// The actor (ring slot index) the event happened at. Runtime-level
    /// events (retransmits) use the local node's index.
    pub actor: u64,
    /// Monotonic sequence number assigned by the recording tracer; breaks
    /// ties between events sharing a timestamp and survives ring-buffer
    /// eviction (it keeps counting from where recording started).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// What happened, with the protocol context that makes a trace readable.
///
/// Segments are carried as plain `(lo, hi)` identifier pairs on the
/// multicast ring so this crate stays dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An actor forwarded a multicast payload to a child.
    MulticastForward {
        /// Payload identifier.
        payload: u64,
        /// Ring identifier of the child the payload went to.
        to: u64,
        /// Hop count the child will receive the payload at.
        hops: u32,
        /// The responsibility segment `(lo, hi)` delegated to the child
        /// when the protocol split its region (CAM-Chord); `None` for
        /// constrained-flooding edges (CAM-Koorde).
        segment: Option<(u64, u64)>,
        /// The pub/sub group this payload belongs to; `None` for
        /// single-group (session-less) multicasts.
        group: Option<GroupId>,
    },
    /// First receipt of a payload at this actor.
    MulticastReceive {
        /// Payload identifier.
        payload: u64,
        /// Hops from the source.
        hops: u32,
        /// The pub/sub group this payload belongs to; `None` for
        /// single-group multicasts.
        group: Option<GroupId>,
    },
    /// A payload arrived again and was suppressed as a duplicate.
    DuplicateSuppress {
        /// Payload identifier.
        payload: u64,
        /// Hop count of the suppressed (redundant) copy.
        hops: u32,
        /// The pub/sub group this payload belongs to; `None` for
        /// single-group multicasts.
        group: Option<GroupId>,
    },
    /// A CAM-Chord internal node split its multicast region among
    /// children (one event per split, alongside the per-child forwards).
    RegionSplit {
        /// Payload identifier.
        payload: u64,
        /// Number of children the region was split among.
        children: u32,
    },
    /// A lookup resolved and a neighbor (finger) was installed.
    NeighborResolve {
        /// The finger target identifier that was being resolved.
        target: u64,
        /// Ring identifier of the neighbor that now owns the slot.
        neighbor: u64,
    },
    /// A neighbor failed liveness probing and was evicted.
    NeighborMiss {
        /// Ring identifier of the evicted neighbor.
        neighbor: u64,
        /// Consecutive strikes at eviction time.
        strikes: u32,
    },
    /// One stabilization round ran at this actor.
    StabilizeRound {
        /// Successor-list length after the round.
        successors: u32,
    },
    /// The runtime retransmitted an unacked frame with backoff.
    Retransmit {
        /// Destination node index.
        to: u64,
        /// Wire sequence number of the retransmitted frame.
        wire_seq: u64,
        /// Attempt number (1 = first retransmit).
        attempt: u32,
        /// The backed-off retransmission timeout now armed, in micros.
        rto_micros: u64,
    },
    /// A join handshake request arrived at its bootstrap target.
    JoinRequest {
        /// Ring identifier of the joining member.
        joiner: u64,
    },
    /// A join handshake completed; the joiner is a member.
    JoinComplete {
        /// Ring identifier of the joined member.
        joiner: u64,
    },
    /// The actor crashed (killed without goodbye).
    Crash,
    /// The actor departed gracefully.
    Leave,
    /// A previously crashed actor was restarted with fresh (empty) state
    /// and is rejoining the overlay.
    Restart,
    /// An invariant oracle found a violation at this actor (recorded by
    /// the chaos harness so replay bundles carry the verdict in-band).
    OracleViolation {
        /// Stable name of the violated oracle.
        oracle: &'static str,
    },
    /// A Byzantine adversary (attached by the chaos harness) performed
    /// one of its scripted misbehaviors at this actor.
    AdversaryAct {
        /// Stable name of the behavior ("misroute", "selective_drop",
        /// "forge_capacity", "replay", "stale_incarnation").
        behavior: &'static str,
        /// Payload the act concerned; `0` when the act is not
        /// payload-scoped (e.g. a stale stabilize answer).
        payload: u64,
    },
    /// An honest node's built-in defense flagged suspected misbehavior
    /// and bumped the matching detection counter.
    AdversaryDetect {
        /// Stable name of the detection counter that fired
        /// ("region_violation", "capacity_forgery", "replay_suspect",
        /// "stale_claim", "repair_recovery").
        detector: &'static str,
        /// The peer the evidence points at: the sender's actor index for
        /// frame-level detections, a ring identifier for membership-level
        /// ones (stale claims), `0` when unattributable (repair
        /// recoveries).
        suspect: u64,
        /// Payload involved; `0` when the evidence is not payload-scoped.
        payload: u64,
    },
}

impl EventKind {
    /// Stable snake_case name of the event kind, used by both exporters
    /// and by tests counting events.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MulticastForward { .. } => "multicast_forward",
            EventKind::MulticastReceive { .. } => "multicast_receive",
            EventKind::DuplicateSuppress { .. } => "duplicate_suppress",
            EventKind::RegionSplit { .. } => "region_split",
            EventKind::NeighborResolve { .. } => "neighbor_resolve",
            EventKind::NeighborMiss { .. } => "neighbor_miss",
            EventKind::StabilizeRound { .. } => "stabilize_round",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::JoinRequest { .. } => "join_request",
            EventKind::JoinComplete { .. } => "join_complete",
            EventKind::Crash => "crash",
            EventKind::Leave => "leave",
            EventKind::Restart => "restart",
            EventKind::OracleViolation { .. } => "oracle_violation",
            EventKind::AdversaryAct { .. } => "adversary_act",
            EventKind::AdversaryDetect { .. } => "adversary_detect",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let kinds = [
            EventKind::MulticastForward {
                payload: 0,
                to: 0,
                hops: 0,
                segment: None,
                group: None,
            },
            EventKind::MulticastReceive {
                payload: 0,
                hops: 0,
                group: Some(GroupId(1)),
            },
            EventKind::DuplicateSuppress {
                payload: 0,
                hops: 0,
                group: None,
            },
            EventKind::RegionSplit {
                payload: 0,
                children: 0,
            },
            EventKind::NeighborResolve {
                target: 0,
                neighbor: 0,
            },
            EventKind::NeighborMiss {
                neighbor: 0,
                strikes: 0,
            },
            EventKind::StabilizeRound { successors: 0 },
            EventKind::Retransmit {
                to: 0,
                wire_seq: 0,
                attempt: 0,
                rto_micros: 0,
            },
            EventKind::JoinRequest { joiner: 0 },
            EventKind::JoinComplete { joiner: 0 },
            EventKind::Crash,
            EventKind::Leave,
            EventKind::Restart,
            EventKind::OracleViolation { oracle: "x" },
            EventKind::AdversaryAct {
                behavior: "x",
                payload: 0,
            },
            EventKind::AdversaryDetect {
                detector: "x",
                suspect: 0,
                payload: 0,
            },
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len(), "duplicate event name");
    }
}
