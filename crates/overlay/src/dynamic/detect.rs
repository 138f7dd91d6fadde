//! Honest-node defenses and the adversary's hook points, kept apart from
//! the protocol paths they guard: capacity vetting, the confirmed-dead
//! investigation (the morgue), and what a planned Byzantine node does
//! instead of the honest thing when it answers a stabilize query,
//! advertises itself, or forwards a payload.

use cam_ring::{Id, Segment};
use cam_sim::engine::Context;
use cam_trace::EventKind;

use super::msg::PayloadFrame;
use super::{DhtActor, DhtMsg, DhtProtocol, SUCCESSOR_LIST_LEN};
use crate::adversary::ByzantineBehavior;
use crate::Member;

/// Stabilize rounds a confirmed-dead verdict stays in force before it
/// lapses. Deliberately a round count, not wall time (determinism), and
/// long enough that a genuinely dead node is re-probed and re-confirmed
/// well before expiry, short enough that a live node falsely condemned by
/// a run of dropped probes becomes adoptable again within a few seconds.
const DEAD_VERDICT_ROUNDS: u8 = 8;

/// Consecutive unanswered investigation probes (one per stabilize round)
/// required to turn an eviction into a confirmed-dead verdict. Eviction
/// itself stays at the cheap two-strike threshold — it is self-healing —
/// but the verdict gates the stale-claim defense, so it demands evidence
/// a lossy wire almost never fabricates: at 12% frame loss a live member
/// fails four consecutive round-trips with probability ~0.3%.
const DEAD_VERDICT_STRIKES: u8 = 4;

/// Upper bound on simultaneous morgue investigations (deterministic cap;
/// overflow evictions simply go uninvestigated until a slot frees up).
const MORGUE_CAP: usize = 16;

impl<P: DhtProtocol> DhtActor<P> {
    /// Vets a member claim against the pinned capacity for its
    /// identifier. The first observation pins; a later claim that
    /// disagrees bumps `capacity_forgeries` and is *corrected* to the
    /// pinned value, so a forged `c_x` cannot steer this node's region
    /// partitioning. Capacity is immutable per member in this protocol
    /// (it survives crash/restart unchanged), so honest claims never
    /// conflict.
    pub(super) fn vet(&mut self, ctx: &mut Context<'_, DhtMsg>, mut m: Member) -> Member {
        match self.capacity_pins.entry(m.id.value()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(m.capacity);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != m.capacity {
                    self.detections.capacity_forgeries += 1;
                    ctx.trace(EventKind::AdversaryDetect {
                        detector: "capacity_forgery",
                        suspect: m.id.value(),
                        payload: 0,
                    });
                    m.capacity = *e.get();
                }
            }
        }
        m
    }

    /// Vets a member another node advertised in a stabilize reply: the
    /// incarnation-regression guard in front of [`DhtActor::vet`]. A member
    /// this node has itself confirmed dead is dropped (`None`) — adopting
    /// it would resurrect a stale incarnation into the ring — and
    /// re-probed: if the local eviction was wrong (probe losses, or the
    /// member crashed and has since rejoined), its Pong clears the
    /// blacklist and the next advertisement is adopted normally. A node
    /// mid-rejoin swallows pings until its join completes, so every
    /// flagged claim probes again — and if even the probes keep getting
    /// lost, the verdict's round budget ([`DEAD_VERDICT_ROUNDS`]) lapses
    /// as a backstop.
    pub(super) fn vet_advertised(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        m: Member,
    ) -> Option<Member> {
        if !self.confirmed_dead.contains_key(&m.id.value()) {
            return Some(self.vet(ctx, m));
        }
        self.detections.stale_claims += 1;
        ctx.trace(EventKind::AdversaryDetect {
            detector: "stale_claim",
            suspect: m.id.value(),
            payload: 0,
        });
        let req_id = self.fresh_req_id();
        self.send_to_member(ctx, m.id, DhtMsg::Ping { req_id });
        None
    }

    /// Evicts `member` after `strikes` consecutive unanswered probes: no
    /// finger points at it any more, so neither routing nor multicast
    /// forwards into the void, and an investigation decides whether it is
    /// confirmed dead. The caller repairs its successor list.
    pub(super) fn evict(&mut self, ctx: &mut Context<'_, DhtMsg>, member: Id, strikes: u8) {
        self.drop_finger_member(member);
        self.open_investigation(member);
        ctx.trace(EventKind::NeighborMiss {
            neighbor: member.value(),
            strikes: u32::from(strikes),
        });
    }

    /// The member descriptor this node advertises about itself. Honest
    /// nodes advertise the truth; a [`ByzantineBehavior::ForgeCapacity`]
    /// adversary inflates its capacity so peers' region partitions
    /// over-split around it.
    pub(super) fn advertised_self(&mut self, ctx: &mut Context<'_, DhtMsg>) -> Member {
        if let Some(adv) = self.adversary.as_deref_mut() {
            if adv.behavior == ByzantineBehavior::ForgeCapacity {
                let mut m = self.me;
                m.capacity = m.capacity.saturating_mul(4).max(m.capacity + 4);
                adv.acts += 1;
                ctx.trace(EventKind::AdversaryAct {
                    behavior: "forge_capacity",
                    payload: 0,
                });
                return m;
            }
        }
        self.me
    }

    /// Builds this node's [`DhtMsg::StabilizeReply`] — the adversary
    /// hook point. A stale-incarnation adversary answers with a snapshot
    /// frozen at its first query; a replay adversary piggybacks one
    /// remembered multicast frame to an RNG-chosen peer (piggybacked on
    /// the stabilize cadence so no extra timers are armed — the cleanup
    /// oracle audits the timer census); a capacity forger inflates the
    /// advertised head entry.
    pub(super) fn answer_stabilize(&mut self, ctx: &mut Context<'_, DhtMsg>) -> DhtMsg {
        let my_advert = self.advertised_self(ctx);
        let mut successors = Vec::with_capacity(SUCCESSOR_LIST_LEN);
        successors.push(my_advert);
        successors.extend(self.successors.iter().copied().take(SUCCESSOR_LIST_LEN - 1));
        let mut reply = (self.predecessor, successors);
        // Replay targets must be computed before borrowing the adversary
        // (`neighbor_members` re-borrows `self`).
        let replay_targets: Vec<Id> = if self
            .adversary
            .as_deref()
            .is_some_and(|a| a.behavior == ByzantineBehavior::Replay)
        {
            let mut t: Vec<Id> = self.successors.iter().map(|m| m.id).collect();
            for m in self.neighbor_members() {
                if !t.contains(&m.id) {
                    t.push(m.id);
                }
            }
            t
        } else {
            Vec::new()
        };
        let mut replayed: Option<(Id, u64, Option<Segment>, u32, bytes::Bytes)> = None;
        if let Some(adv) = self.adversary.as_deref_mut() {
            match adv.behavior {
                ByzantineBehavior::StaleIncarnation => {
                    let frozen = adv.frozen.get_or_insert_with(|| (reply.0, reply.1.clone()));
                    if *frozen != reply {
                        adv.acts += 1;
                        ctx.trace(EventKind::AdversaryAct {
                            behavior: "stale_incarnation",
                            payload: 0,
                        });
                    }
                    reply = frozen.clone();
                }
                ByzantineBehavior::Replay
                    if !adv.remembered.is_empty() && !replay_targets.is_empty() =>
                {
                    let f = adv.rng.uniform_incl(0, adv.remembered.len() as u64 - 1) as usize;
                    let t = adv.rng.uniform_incl(0, replay_targets.len() as u64 - 1) as usize;
                    let (payload, region, hops, data) = adv.remembered[f].clone();
                    replayed = Some((replay_targets[t], payload, region, hops, data));
                    adv.acts += 1;
                }
                _ => {}
            }
        }
        if let Some((to, payload, region, hops, data)) = replayed {
            // Deliberately NOT traced as a MulticastForward: the
            // forward-cycle oracle counts (actor, payload, child) edges,
            // and the adversary's re-send is an attack, not tree traffic.
            ctx.trace(EventKind::AdversaryAct {
                behavior: "replay",
                payload,
            });
            self.send_to_member(
                ctx,
                to,
                DhtMsg::Multicast {
                    payload,
                    region,
                    hops,
                    data,
                },
            );
        }
        DhtMsg::StabilizeReply {
            predecessor: reply.0,
            successors: reply.1,
        }
    }

    /// Marks `member` as provably alive: it just sent us something that
    /// only a live node originates. Closes any investigation and voids
    /// any standing verdict.
    pub(super) fn mark_alive(&mut self, member: Id) {
        self.confirmed_dead.remove(&member.value());
        self.succ_strikes.remove(&member.value());
        self.morgue.remove(&member.value());
        self.morgue_awaiting.remove(&member.value());
    }

    /// Opens (or continues) a post-eviction investigation of `member`.
    /// The stabilize timer pings every morgue entry once per round; only
    /// [`DEAD_VERDICT_STRIKES`] consecutive unanswered probes produce the
    /// confirmed-dead verdict, which in turn carries a round budget
    /// ([`DEAD_VERDICT_ROUNDS`]) and lapses unless re-earned.
    pub(super) fn open_investigation(&mut self, member: Id) {
        let id = member.value();
        if id == self.me.id.value() || self.confirmed_dead.contains_key(&id) {
            return;
        }
        if self.morgue.len() < MORGUE_CAP || self.morgue.contains_key(&id) {
            self.morgue.entry(id).or_insert(0);
        }
        self.succ_strikes.remove(&id);
    }

    /// The stabilize round's share of failure *confirmation*: ages the
    /// standing verdicts, scores last round's unanswered investigation
    /// probes and launches this round's.
    pub(super) fn run_investigations(&mut self, ctx: &mut Context<'_, DhtMsg>) {
        // Age out confirmed-dead verdicts: each round spends one unit of
        // a verdict's budget, and a verdict that is never re-earned (the
        // "dead" node was a false positive from probe loss) expires
        // instead of blacklisting a live node out of the ring forever.
        self.confirmed_dead.retain(|_, rounds| {
            *rounds -= 1;
            *rounds > 0
        });
        // Morgue investigations: probes launched last round that are
        // still unanswered count one strike; enough consecutive strikes
        // (see `DEAD_VERDICT_STRIKES`) convert the eviction into a
        // confirmed-dead verdict. A Pong in between closed the case via
        // `mark_alive`.
        for id in std::mem::take(&mut self.morgue_awaiting) {
            if let Some(strikes) = self.morgue.get_mut(&id) {
                *strikes += 1;
                if *strikes >= DEAD_VERDICT_STRIKES {
                    self.morgue.remove(&id);
                    self.confirmed_dead.insert(id, DEAD_VERDICT_ROUNDS);
                }
            }
        }
        // Every open case gets one probe per round (BTreeMap order keeps
        // the probe sequence deterministic).
        let open: Vec<u64> = self.morgue.keys().copied().collect();
        for id in open {
            let req_id = self.fresh_req_id();
            self.morgue_awaiting.insert(id);
            self.send_to_member(ctx, Id(id), DhtMsg::Ping { req_id });
        }
    }

    /// The adversary's hook on the forwarding path (the caller applies it
    /// to ungrouped payloads only): remembers the frame for later replay,
    /// rotates the children's regions, or drops children, per the attached
    /// behavior. All decisions draw from the adversary's own plan-seeded
    /// RNG, never from `ctx.rng()`, so chaos replays stay
    /// bit-identical.
    pub(super) fn tamper_with_children(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        frame: &PayloadFrame,
        children: &mut Vec<(Id, Option<Segment>)>,
    ) {
        let &PayloadFrame {
            payload,
            region,
            hops,
            ref data,
        } = frame;
        let Some(adv) = self.adversary.as_deref_mut() else {
            return;
        };
        match adv.behavior {
            ByzantineBehavior::Replay => {
                adv.remember(payload, region, hops, data.clone());
            }
            ByzantineBehavior::Misroute => {
                let regions: Vec<Option<Segment>> = children.iter().map(|&(_, r)| r).collect();
                let n = children.len();
                if n > 1 && regions.iter().any(Option::is_some) {
                    // Rotate the delegated sub-segments one child
                    // over: every child now gets a region starting at
                    // a *different* child's identifier.
                    for (i, (_, r)) in children.iter_mut().enumerate() {
                        *r = regions[(i + 1) % n];
                    }
                    adv.acts += 1;
                    ctx.trace(EventKind::AdversaryAct {
                        behavior: "misroute",
                        payload,
                    });
                } else if n == 1 && region.is_some() {
                    // Single child: hand it the parent's whole region,
                    // which starts at *me*, not at the child.
                    children[0].1 = region;
                    adv.acts += 1;
                    ctx.trace(EventKind::AdversaryAct {
                        behavior: "misroute",
                        payload,
                    });
                }
            }
            ByzantineBehavior::SelectiveDrop => {
                let mut kept = Vec::with_capacity(children.len());
                for c in children.drain(..) {
                    if adv.rng.uniform_incl(0, 99) < 45 {
                        adv.acts += 1;
                        ctx.trace(EventKind::AdversaryAct {
                            behavior: "selective_drop",
                            payload,
                        });
                    } else {
                        kept.push(c);
                    }
                }
                *children = kept;
            }
            ByzantineBehavior::ForgeCapacity | ByzantineBehavior::StaleIncarnation => {}
        }
    }
}
