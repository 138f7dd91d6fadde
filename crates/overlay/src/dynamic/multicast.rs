//! The data plane: forwarding a payload down the implicit tree
//! (`MULTICAST(msg, k)` region splits for CAM-Chord, duplicate-suppressed
//! flooding for CAM-Koorde), a group publish's delivery filter (the node's
//! own subscriptions; no node tracks a group's membership), and the
//! anti-entropy repair that backs best-effort forwarding.

use std::collections::hash_map::Entry;

use cam_ring::{Id, IdSet};
use cam_sim::engine::{ActorId, Context};
use cam_trace::EventKind;

use super::actor::PayloadRecord;
use super::maintenance::TIMER_ANTI_ENTROPY;
use super::msg::PayloadFrame;
use super::{DhtActor, DhtMsg, DhtProtocol};

impl<P: DhtProtocol> DhtActor<P> {
    /// Handles [`DhtMsg::Multicast`] (`group == None`) and
    /// [`DhtMsg::GroupPublish`] (`group == Some(g)`) — one forwarding
    /// path: duplicate suppression, replay and region-violation detection,
    /// the region split over the shared neighbor table (a per-group tree
    /// is implicit) and the child fan-out. A grouped payload differs only
    /// in that non-subscribers relay it without delivering it to the
    /// application, every trace event carries the group, and the
    /// adversary hooks leave it alone.
    pub(super) fn handle_multicast(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        from: ActorId,
        group: Option<u64>,
        frame: PayloadFrame,
    ) {
        let PayloadFrame {
            payload,
            region,
            hops,
            ref data,
        } = frame;
        let trace_group = group.map(cam_trace::GroupId);
        let delivers = group.is_none_or(|g| self.subscriptions.contains(&g));
        match self.payloads.entry(payload) {
            Entry::Occupied(first) => {
                if region.is_some() && first.get().replayed_by(from) {
                    self.detections.replay_suspects += 1;
                    ctx.trace(EventKind::AdversaryDetect {
                        detector: "replay_suspect",
                        suspect: from.0 as u64,
                        payload,
                    });
                }
                ctx.trace(EventKind::DuplicateSuppress {
                    payload,
                    hops,
                    group: trace_group,
                });
                return; // duplicate
            }
            Entry::Vacant(slot) => {
                slot.insert(PayloadRecord {
                    data: delivers.then(|| data.clone()),
                    first_sender: from,
                    hops,
                    first_had_region: region.is_some(),
                });
            }
        }
        match group {
            None => self.received_log.push((payload, hops)),
            Some(g) => {
                self.group_of.insert(payload, g);
                if delivers {
                    self.group_received_log.push((g, payload, hops));
                }
            }
        }
        if delivers {
            ctx.trace(EventKind::MulticastReceive {
                payload,
                hops,
                group: trace_group,
            });
        }
        // Region honesty: CAM-Chord's split always delegates to child `c`
        // a segment beginning (exclusively) at `c` itself, and a source's
        // self-addressed frame carries `all_but(me)`, which also begins
        // at `me` — so on every honest region-carrying frame,
        // `region.from == me`. A frame violating that was misrouted:
        // deliver locally (the bytes are real) but do NOT forward, since
        // splitting someone else's segment would spray the wrong subtree.
        // Anti-entropy repairs the starved region.
        if let Some(r) = region {
            if r.from != self.me.id {
                self.detections.region_violations += 1;
                ctx.trace(EventKind::AdversaryDetect {
                    detector: "region_violation",
                    suspect: from.0 as u64,
                    payload,
                });
                return;
            }
        }
        let Some(succ) = self.successors.first().copied() else {
            return;
        };
        let mut children = self.protocol.multicast_children(
            self.space,
            &self.me,
            self.neighbor_members(),
            &succ,
            region,
        );
        if group.is_none() {
            self.tamper_with_children(ctx, &frame, &mut children);
        }
        if ctx.trace_enabled() {
            let split = children.iter().filter(|(_, r)| r.is_some()).count();
            if split > 0 {
                ctx.trace(EventKind::RegionSplit {
                    payload,
                    children: split as u32,
                });
            }
        }
        for (child, child_region) in children {
            if ctx.trace_enabled() {
                ctx.trace(EventKind::MulticastForward {
                    payload,
                    to: child.value(),
                    hops: hops + 1,
                    segment: child_region.map(|s| (s.from.value(), s.to.value())),
                    group: trace_group,
                });
            }
            let forwarded = PayloadFrame {
                payload,
                region: child_region,
                hops: hops + 1,
                data: data.clone(),
            };
            self.send_to_member(ctx, child, forwarded.into_msg(group));
        }
    }

    pub(super) fn handle_anti_entropy_timer(&mut self, ctx: &mut Context<'_, DhtMsg>) {
        if self.anti_entropy {
            // Group publishes are excluded: epidemic repair through
            // non-subscriber relays would deliver them without their group
            // attribution.
            #[expect(
                clippy::disallowed_methods,
                reason = "sorted right after the collect, so the digest (and the message \
                          order downstream of it) is identical across runs"
            )]
            let mut have: Vec<u64> = self
                .payloads
                .keys()
                .filter(|p| !self.group_of.contains_key(p))
                .copied()
                .collect();
            have.sort_unstable();
            let mut targets: Vec<Id> = Vec::new();
            if let Some(succ) = self.successors.first() {
                targets.push(succ.id);
            }
            let neighbors = self.neighbor_members();
            if !neighbors.is_empty() {
                let pick = ctx.rng().uniform_incl(0, neighbors.len() as u64 - 1) as usize;
                targets.push(neighbors[pick].id);
            }
            for t in targets {
                self.send_to_member(ctx, t, DhtMsg::AntiEntropyDigest { have: have.clone() });
            }
        }
        // Always re-arm so enabling anti-entropy later takes effect.
        ctx.set_timer(self.stabilize_every.saturating_mul(2), TIMER_ANTI_ENTROPY);
    }

    /// Handles [`DhtMsg::AntiEntropyDigest`]: pushes what the sender is
    /// missing and pulls what this node is missing.
    pub(super) fn on_digest(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        from: ActorId,
        have: Vec<u64>,
    ) {
        let their: IdSet<u64> = have.iter().copied().collect();
        // Push what they're missing… except group publishes, which the
        // digest leaves out on purpose (see `handle_anti_entropy_timer`):
        // "missing" from a digest says nothing about them.
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted right after the collect, before any payload is pushed"
        )]
        let mut missing: Vec<(u64, &PayloadRecord)> = self
            .payloads
            .iter()
            .filter(|(p, _)| !their.contains(p) && !self.group_of.contains_key(p))
            .map(|(&p, record)| (p, record))
            .collect();
        missing.sort_unstable_by_key(|&(p, _)| p);
        for (p, record) in missing {
            push_payload(ctx, from, p, record);
        }
        // …and pull what we're missing.
        let want: Vec<u64> = have
            .into_iter()
            .filter(|p| !self.payloads.contains_key(p))
            .collect();
        if !want.is_empty() {
            ctx.send(from, DhtMsg::PayloadPullReq { want });
        }
    }

    /// Handles [`DhtMsg::PayloadPullReq`].
    pub(super) fn on_pull_request(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        from: ActorId,
        want: Vec<u64>,
    ) {
        for p in want {
            if let Some(record) = self.payloads.get(&p) {
                push_payload(ctx, from, p, record);
            }
        }
    }

    /// Handles [`DhtMsg::PayloadPush`]: records a payload recovered by
    /// anti-entropy (not re-flooded).
    pub(super) fn on_payload_push(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        from: ActorId,
        payload: u64,
        hops: u32,
        data: bytes::Bytes,
    ) {
        if let Entry::Vacant(slot) = self.payloads.entry(payload) {
            slot.insert(PayloadRecord {
                data: Some(data),
                first_sender: from,
                hops,
                first_had_region: false,
            });
            self.received_log.push((payload, hops));
            // Tree delivery failed for this payload and epidemic repair
            // recovered it — the observable footprint of dropped/misrouted
            // forwards upstream. Unattributable to a specific peer, hence
            // suspect 0.
            self.detections.repair_recoveries += 1;
            ctx.trace(EventKind::AdversaryDetect {
                detector: "repair_recovery",
                suspect: 0,
                payload,
            });
        }
    }
}

/// Sends `to` the payload `record` describes, one hop on.
fn push_payload(
    ctx: &mut Context<'_, DhtMsg>,
    to: ActorId,
    payload: u64,
    record: &PayloadRecord,
) {
    ctx.send(
        to,
        DhtMsg::PayloadPush {
            payload,
            hops: record.hops + 1,
            data: record.data.clone().unwrap_or_default(),
        },
    );
}
