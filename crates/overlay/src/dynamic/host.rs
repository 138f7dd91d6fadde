//! The rules every host of a [`DhtActor`] table shares, written once.
//!
//! Two hosts run the same actor — [`DynamicNetwork`](super::DynamicNetwork)
//! on the event simulator and cam-net's `ReactorCore` on a wire — and the
//! chaos harness drives both. What a host does *around* the actor is
//! protocol too: how a multicast or a publish originates, which peer
//! bootstraps a join, when maintenance first fires, how delivery and hops
//! are counted. Those rules live here as plain functions over members and
//! over the host's actor table, passed as an iterator of slots in table
//! order: `Some(actor)` for a live node, `None` for a dead one. A host
//! keeps only what is its own: how it stores actors and how it moves
//! messages and time.

use std::sync::Arc;

use cam_ring::{Id, IdMap, IdSpace, Segment};
use cam_sim::engine::ActorId;
use cam_sim::time::Duration;
use cam_trace::{DeliveryCensus, GroupDeliveryCensus};

use super::maintenance::{TIMER_ANTI_ENTROPY, TIMER_FIX_FINGERS, TIMER_STABILIZE};
use super::msg::PayloadFrame;
use super::{DhtActor, DhtMsg, DhtProtocol, SUCCESSOR_LIST_LEN};
use crate::Member;

/// The self-addressed message that starts a multicast (`group == None`) or
/// a pub/sub publish at `source`: hop count zero and, for region-splitting
/// protocols, the whole ring but the source as the region to cover.
pub fn origin_message(
    space: IdSpace,
    source: &Member,
    payload: u64,
    group: Option<u64>,
    region_split: bool,
    data: bytes::Bytes,
) -> DhtMsg {
    PayloadFrame {
        payload,
        region: region_split.then(|| Segment::all_but(space, source.id)),
        hops: 0,
        data,
    }
    .into_msg(group)
}

/// The request a joining (or restarted) node at table slot `joiner_actor`
/// sends to its bootstrap peer.
pub fn join_request(joiner: &Member, joiner_actor: ActorId) -> DhtMsg {
    DhtMsg::JoinRequest {
        joiner: *joiner,
        joiner_actor,
    }
}

/// First firing of the three maintenance timers for the node a converged
/// bootstrap seeds at table slot `slot`, as `(delay, timer tag)`:
/// stabilize, fix-fingers and anti-entropy start one, two and three base
/// periods in, each offset by a slot-derived jitter so the nodes' rounds
/// do not fire in lockstep.
pub fn maintenance_schedule(slot: usize) -> [(Duration, u64); 3] {
    let base = Duration::from_millis(500);
    let jitter = slot as u64 * 37;
    [
        (base + Duration::from_millis(jitter % 250), TIMER_STABILIZE),
        (
            base.saturating_mul(2) + Duration::from_millis(jitter % 333),
            TIMER_FIX_FINGERS,
        ),
        (
            base.saturating_mul(3) + Duration::from_millis(jitter % 451),
            TIMER_ANTI_ENTROPY,
        ),
    ]
}

/// The id → actor address book over `entries`, as the one shared
/// allocation a host installs on every actor
/// ([`DhtActor::set_directory`]): `O(n)` in total, not a copy per node.
pub fn shared_directory(
    entries: impl IntoIterator<Item = (Id, ActorId)>,
) -> Arc<IdMap<u64, ActorId>> {
    Arc::new(
        entries
            .into_iter()
            .map(|(id, actor)| (id.value(), actor))
            .collect(),
    )
}

/// The bootstrap peer for a member joining for the first time: the first
/// live slot.
pub fn join_bootstrap<'a, P: DhtProtocol + 'a>(
    mut slots: impl Iterator<Item = Option<&'a DhtActor<P>>>,
) -> Option<usize> {
    slots.position(|slot| slot.is_some())
}

/// The bootstrap peer for a restarted node or a retried join: the first
/// live slot whose own join has completed, never `joiner` itself.
pub fn rejoin_bootstrap<'a, P: DhtProtocol + 'a>(
    mut slots: impl Iterator<Item = Option<&'a DhtActor<P>>>,
    joiner: Id,
) -> Option<usize> {
    slots.position(|slot| slot.is_some_and(|a| a.is_joined() && a.member().id != joiner))
}

/// Every live slot whose join has not completed, paired with the
/// bootstrap slot its request should be re-sent to. Join traffic is
/// best-effort, so a joiner whose request was lost — or whose bootstrap
/// crashed before answering — stays stranded unless its host retries.
pub fn stalled_joins<'a, P: DhtProtocol + 'a>(
    slots: impl Iterator<Item = Option<&'a DhtActor<P>>> + Clone,
) -> Vec<(usize, usize)> {
    slots
        .clone()
        .enumerate()
        .filter_map(|(i, slot)| {
            let joiner = slot.filter(|a| !a.is_joined())?;
            let bootstrap = rejoin_bootstrap(slots.clone(), joiner.member().id)?;
            Some((i, bootstrap))
        })
        .collect()
}

/// Delivery of `payload` over the live slots. Dead nodes leave the census
/// entirely, even if they received the payload before dying.
pub fn delivery_census<'a, P: DhtProtocol + 'a>(
    slots: impl Iterator<Item = Option<&'a DhtActor<P>>>,
    payload: u64,
) -> DeliveryCensus {
    let mut census = DeliveryCensus::new();
    for slot in slots {
        census.observe(
            slot.is_some(),
            slot.is_some_and(|a| a.payload_hops(payload).is_some()),
        );
    }
    census
}

/// Mean and maximum hop count of `payload` over the live nodes that
/// received it — the same population as [`delivery_census`] — or
/// `(0.0, 0)` if none did.
pub fn hop_stats<'a, P: DhtProtocol + 'a>(
    slots: impl Iterator<Item = Option<&'a DhtActor<P>>>,
    payload: u64,
) -> (f64, u32) {
    let (mut total, mut count, mut max) = (0u64, 0u64, 0u32);
    for hops in slots.flatten().filter_map(|a| a.payload_hops(payload)) {
        total += u64::from(hops);
        count += 1;
        max = max.max(hops);
    }
    if count == 0 {
        (0.0, 0)
    } else {
        (total as f64 / count as f64, max)
    }
}

/// Folds the given `(group, payload)` publishes into a per-group census
/// over each group's live *subscribers*: a subscriber counts as delivered
/// iff the publish reached it.
pub fn group_delivery_census<'a, P: DhtProtocol + 'a>(
    slots: impl Iterator<Item = Option<&'a DhtActor<P>>>,
    publishes: &[(u64, u64)],
) -> GroupDeliveryCensus {
    let mut census = GroupDeliveryCensus::new();
    for actor in slots.flatten() {
        for &(group, payload) in publishes {
            if actor.is_subscribed(group) {
                census.observe(group, true, actor.has_group_payload(group, payload));
            }
        }
    }
    census
}

/// Yields the actors of a *converged* overlay over `members`, in ring
/// order: every actor starts with the successors, predecessor and fingers
/// that stabilization would eventually produce (resolved by an oracle over
/// the sorted membership), and all of them share one id → actor directory
/// in which the `i`-th actor yielded is `ActorId(i)` — one allocation, so
/// address books cost `O(n)` in total rather than `O(n²)`. Both hosts
/// ([`DynamicNetwork::converged`](super::DynamicNetwork::converged) and
/// cam-net's `ReactorCore::converged`) bootstrap from this; actors are
/// built lazily so a host can move each straight into its own table.
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn converged_actors<'a, P: DhtProtocol>(
    space: IdSpace,
    members: &[Member],
    protocol: &'a P,
) -> impl Iterator<Item = DhtActor<P>> + 'a {
    let mut sorted = members.to_vec();
    sorted.sort_by_key(|m| m.id);
    let n = sorted.len();
    assert!(n > 0, "empty network");

    let directory =
        shared_directory(sorted.iter().enumerate().map(|(i, m)| (m.id, ActorId(i))));
    // A dense id column: the oracle's binary searches touch 8 bytes per
    // probe instead of a whole `Member`.
    let ids: Vec<Id> = sorted.iter().map(|m| m.id).collect();
    (0..n).map(move |i| {
        let owner_of = |k: Id| -> Member {
            let j = ids.partition_point(|&x| x < k);
            sorted[if j == n { 0 } else { j }]
        };
        let me = sorted[i];
        let succs: Vec<Member> = (1..=SUCCESSOR_LIST_LEN.min(n.saturating_sub(1)).max(1))
            .map(|d| sorted[(i + d) % n])
            .collect();
        let pred = sorted[(i + n - 1) % n];
        let fingers: Vec<(Id, Member)> = protocol
            .neighbor_targets(space, &me)
            .into_iter()
            .map(|t| (t, owner_of(t)))
            .collect();
        let mut actor = DhtActor::new(space, me, protocol.clone());
        actor.seed_state(succs, pred, fingers);
        actor.set_directory(Arc::clone(&directory));
        actor
    })
}
