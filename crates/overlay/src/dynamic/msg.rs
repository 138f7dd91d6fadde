//! The messages [`DhtActor`](super::DhtActor)s exchange, and the
//! rendezvous hash that maps a pub/sub group onto the ring.

use cam_ring::{Id, IdSpace, Segment};
use cam_sim::engine::ActorId;

use crate::Member;

/// Wire messages exchanged by [`DhtActor`](super::DhtActor)s.
///
/// `PartialEq` exists so `cam-net`'s codec can assert
/// `decode(encode(m)) == m` in its round-trip tests.
#[derive(Debug, Clone, PartialEq)]
pub enum DhtMsg {
    /// Route a lookup for `key`; reply to `reply_to` with `LookupDone`.
    Lookup {
        /// Key being resolved.
        key: Id,
        /// Request correlation id.
        req_id: u64,
        /// Actor that receives the answer.
        reply_to: ActorId,
        /// Hops taken so far.
        hops: u32,
        /// Protocol routing state (see [`DhtProtocol::initial_state`](super::DhtProtocol::initial_state)).
        state: u64,
    },
    /// Answer to `Lookup`.
    LookupDone {
        /// Request correlation id.
        req_id: u64,
        /// The member believed responsible for the key.
        owner: Member,
        /// Total overlay hops the request traveled.
        hops: u32,
        /// The request hit its TTL and this answer is a best-effort guess;
        /// it must not be installed into routing tables.
        gave_up: bool,
    },
    /// "Who is your predecessor and successor list?" (stabilization).
    StabilizeQuery,
    /// Answer to `StabilizeQuery`.
    StabilizeReply {
        /// The replier's current predecessor, if known.
        predecessor: Option<Member>,
        /// The replier's successor list.
        successors: Vec<Member>,
    },
    /// "I believe I am your predecessor" (Chord's `notify`).
    Notify(Member),
    /// Liveness probe for a finger/neighbor.
    Ping {
        /// Correlation id.
        req_id: u64,
    },
    /// Liveness answer.
    Pong {
        /// Correlation id.
        req_id: u64,
        /// The responder's descriptor (refreshes stale capacity info).
        member: Member,
    },
    /// A multicast message: `(payload id, region this node must cover,
    /// application bytes)`. As in the paper (§4.3), duplicate suppression
    /// keys on the message header (the payload id) — the body rides along
    /// untouched and is handed to the application on first receipt.
    Multicast {
        /// Identifies the multicast session (for duplicate suppression).
        payload: u64,
        /// Region to cover (region-splitting protocols) or `None`
        /// (flooding).
        region: Option<Segment>,
        /// Hop count from the source.
        hops: u32,
        /// Application payload (cheaply reference-counted).
        data: bytes::Bytes,
    },
    /// Anti-entropy: "these are the multicast payloads I have" (sent
    /// periodically to the successor and a random finger when enabled).
    AntiEntropyDigest {
        /// Payload ids the sender has received.
        have: Vec<u64>,
    },
    /// Anti-entropy: "send me these payloads I am missing".
    PayloadPullReq {
        /// Payload ids requested.
        want: Vec<u64>,
    },
    /// Anti-entropy: one recovered payload (recorded locally, not
    /// re-flooded — the epidemic spreads through subsequent digests).
    PayloadPush {
        /// Payload id.
        payload: u64,
        /// Hop count to attribute (the recoverer's + 1).
        hops: u32,
        /// Application bytes.
        data: bytes::Bytes,
    },
    /// Ask a bootstrap node to find the joiner's successor.
    JoinRequest {
        /// The joining member.
        joiner: Member,
        /// Actor id of the joiner.
        joiner_actor: ActorId,
    },
    /// Tell the joiner its successor list (head = immediate successor;
    /// the rest seeds resilience so the joiner survives its successor
    /// crashing before the first stabilization round).
    JoinAnswer {
        /// The joiner's future successor list.
        successors: Vec<Member>,
    },
    /// A pub/sub publish for one group. Forwarded exactly like
    /// [`DhtMsg::Multicast`] — the per-group tree is *implicit*, sharing the
    /// one ring and neighbor table — but only subscribers of `group` deliver
    /// the payload to the application.
    GroupPublish {
        /// The group this payload belongs to.
        group: u64,
        /// Identifies the publish (for duplicate suppression).
        payload: u64,
        /// Region to cover (region-splitting protocols) or `None`
        /// (flooding).
        region: Option<Segment>,
        /// Hop count from the source.
        hops: u32,
        /// Application payload.
        data: bytes::Bytes,
    },
}

/// The fields [`DhtMsg::Multicast`] and [`DhtMsg::GroupPublish`] share.
pub(super) struct PayloadFrame {
    pub(super) payload: u64,
    pub(super) region: Option<Segment>,
    pub(super) hops: u32,
    pub(super) data: bytes::Bytes,
}

impl PayloadFrame {
    /// The wire message carrying this frame: a [`DhtMsg::GroupPublish`]
    /// for `Some(group)`, a [`DhtMsg::Multicast`] otherwise.
    pub(super) fn into_msg(self, group: Option<u64>) -> DhtMsg {
        let PayloadFrame {
            payload,
            region,
            hops,
            data,
        } = self;
        match group {
            None => DhtMsg::Multicast {
                payload,
                region,
                hops,
                data,
            },
            Some(group) => DhtMsg::GroupPublish {
                group,
                payload,
                region,
                hops,
                data,
            },
        }
    }
}

/// The rendezvous-root identifier for pub/sub group `group`: a
/// deterministic hash of the group id mapped into the ring's identifier
/// space. Its owner is where cam-pubsub's `GroupRegistry` roots the
/// group's tree; no node keeps any state for it.
///
/// The mix is SplitMix64's finalizer, so consecutive group ids scatter
/// uniformly instead of clustering on one arc of the ring.
pub fn group_root_id(space: IdSpace, group: u64) -> Id {
    let mut z = group.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Id(z & space.mask())
}
