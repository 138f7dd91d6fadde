//! Ring upkeep: the three periodic timers' stabilize and fix-finger
//! rounds, the liveness probes they launch, and the join handshake —
//! Chord's maintenance protocol, which the paper reuses for all four
//! systems (§3.3/§4.2).

use cam_ring::Id;
use cam_sim::engine::{ActorId, Context};
use cam_sim::time::Duration;
use cam_trace::EventKind;

use super::{DhtActor, DhtMsg, DhtProtocol, SUCCESSOR_LIST_LEN};
use crate::Member;

/// Timer tags.
pub(super) const TIMER_STABILIZE: u64 = 1;
pub(super) const TIMER_FIX_FINGERS: u64 = 2;
pub(super) const TIMER_ANTI_ENTROPY: u64 = 3;

impl<P: DhtProtocol> DhtActor<P> {
    pub(super) fn handle_stabilize_timer(&mut self, ctx: &mut Context<'_, DhtMsg>) {
        self.run_investigations(ctx);
        // Failure detection: the query sent at the previous tick went
        // unanswered — strike; two consecutive strikes declare the
        // successor dead and promote the next one (a single strike may be
        // plain message loss).
        if self.awaiting_stabilize {
            self.stabilize_strikes += 1;
            if self.stabilize_strikes >= 2 && self.successors.len() > 1 {
                let dead = self.successors.remove(0);
                self.evict(ctx, dead.id, self.stabilize_strikes);
                self.stabilize_strikes = 0;
            } else if self.stabilize_strikes >= 4 && self.successors.len() == 1 {
                // Last-resort escape: the only remaining successor is
                // dead, and the list can only be replenished by its
                // replies — which will never come. Reseed from the
                // nearest clockwise finger (extra strikes first, since
                // this jump may overshoot live nodes and stabilization
                // must walk it back).
                let dead = self.successors[0];
                let replacement = self
                    .neighbor_members()
                    .iter()
                    .filter(|m| m.id != dead.id)
                    .min_by_key(|m| self.space.seg_len(self.me.id, m.id))
                    .copied();
                if let Some(next) = replacement {
                    self.successors[0] = next;
                    self.evict(ctx, dead.id, self.stabilize_strikes);
                    self.stabilize_strikes = 0;
                }
            }
        } else {
            self.stabilize_strikes = 0;
        }
        ctx.trace(EventKind::StabilizeRound {
            successors: self.successors.len() as u32,
        });
        if let Some(succ) = self.successors.first().copied() {
            self.awaiting_stabilize = true;
            self.send_to_member(ctx, succ.id, DhtMsg::StabilizeQuery);
        }
        // Chord's check_predecessor: the probe from the previous tick went
        // unanswered — strike; two strikes clear the predecessor so a live
        // claimant's Notify can take the slot.
        if let Some((_, probed)) = self.pending_pred_ping.take() {
            if self.predecessor.map(|p| p.id) == Some(probed) {
                self.pred_strikes += 1;
                if self.pred_strikes >= 2 {
                    self.predecessor = None;
                    self.pred_strikes = 0;
                }
            } else {
                self.pred_strikes = 0;
            }
        }
        if let Some(pred) = self.predecessor {
            let req_id = self.fresh_req_id();
            self.pending_pred_ping = Some((req_id, pred.id));
            self.send_to_member(ctx, pred.id, DhtMsg::Ping { req_id });
        }
        // Deep successor-list liveness sweep. The head is vetted by the
        // stabilize query itself, but deeper entries are only ever
        // replaced wholesale by adopted lists — a dead deep entry could
        // survive indefinitely and be re-advertised to peers (exactly
        // what a stale-incarnation adversary exploits). Probe one
        // non-head entry per round, round-robin; two consecutive
        // unanswered probes evict it everywhere and record it as
        // confirmed dead, which is what lets the stale-claim detector
        // recognize its re-advertisement.
        if let Some((_, probed)) = self.pending_succ_ping.take() {
            if self.successors.iter().skip(1).any(|m| m.id == probed) {
                let strikes = self.succ_strikes.entry(probed.value()).or_insert(0);
                *strikes += 1;
                let strikes = *strikes;
                if strikes >= 2 {
                    if let Some(pos) = self.successors.iter().position(|m| m.id == probed) {
                        if pos > 0 {
                            self.successors.remove(pos);
                        }
                    }
                    self.evict(ctx, probed, strikes);
                }
            } else {
                self.succ_strikes.remove(&probed.value());
            }
        }
        if self.successors.len() > 1 {
            let idx = 1 + self.succ_probe_cursor % (self.successors.len() - 1);
            self.succ_probe_cursor = self.succ_probe_cursor.wrapping_add(1);
            let target = self.successors[idx];
            let req_id = self.fresh_req_id();
            self.pending_succ_ping = Some((req_id, target.id));
            self.send_to_member(ctx, target.id, DhtMsg::Ping { req_id });
        }
        ctx.set_timer(self.stabilize_every, TIMER_STABILIZE);
    }

    pub(super) fn handle_fix_fingers_timer(&mut self, ctx: &mut Context<'_, DhtMsg>) {
        // 1. Probes from the previous round that never came back: give the
        //    probed member a strike; two consecutive strikes (distinguishing
        //    death from a single lost Ping/Pong) evict every finger pointing
        //    at it, so neither routing nor multicast forwards into the void.
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted on the next line, before hash order can steer evictions"
        )]
        let mut timed_out: Vec<(u64, Id)> =
            self.pending_pings.drain().map(|(_, v)| v).collect();
        timed_out.sort_unstable();
        for (_, suspect) in timed_out {
            let strikes = self.ping_strikes.entry(suspect.value()).or_insert(0);
            *strikes += 1;
            let strikes = *strikes;
            if strikes >= 2 {
                self.ping_strikes.remove(&suspect.value());
                self.evict(ctx, suspect, strikes);
            }
        }
        // 2. Probe and refresh a window of finger slots, round-robin via a
        //    dedicated cursor (the cursor advances by exactly the window
        //    size, so every slot is visited every ⌈len/3⌉ rounds — indexing
        //    by request-id arithmetic would skip slots whenever the id
        //    stride shared a factor with the table length).
        let me_actor = ctx.me();
        if !self.targets.is_empty() {
            let len = self.targets.len();
            let window = 3.min(len);
            let mut probe_victims: Vec<(u64, Id)> = Vec::new();
            for i in 0..window {
                let idx = (self.fix_cursor + i) % len;
                let target = self.targets[idx];
                // Probe the current resident of the slot…
                if let Some(m) = self.finger(target.value()) {
                    probe_victims.push((target.value(), m.id));
                }
                // …and re-resolve the slot.
                let req_id = self.fresh_req_id();
                self.pending.insert(req_id, target);
                let state = self.protocol.initial_state(self.space, &self.me, target);
                self.handle_lookup(ctx, target, req_id, me_actor, 0, state);
            }
            self.fix_cursor = (self.fix_cursor + window) % len;
            for (target, member_id) in probe_victims {
                let req_id = self.fresh_req_id();
                self.pending_pings.insert(req_id, (target, member_id));
                self.send_to_member(ctx, member_id, DhtMsg::Ping { req_id });
            }
        }
        ctx.set_timer(self.stabilize_every.saturating_mul(2), TIMER_FIX_FINGERS);
    }

    /// Handles [`DhtMsg::StabilizeReply`]: vets the advertised members,
    /// runs Chord's stabilize step and notifies the (possibly new)
    /// successor.
    pub(super) fn on_stabilize_reply(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        predecessor: Option<Member>,
        successors: Vec<Member>,
    ) {
        self.awaiting_stabilize = false;
        let successors: Vec<Member> = successors
            .into_iter()
            .filter_map(|m| self.vet_advertised(ctx, m))
            .collect();
        let predecessor = predecessor.and_then(|p| self.vet_advertised(ctx, p));
        // Chord stabilize: if succ's predecessor is between me and succ, adopt
        // it as my successor.
        if let (Some(p), Some(succ)) = (predecessor, self.successors.first().copied()) {
            if p.id != self.me.id && self.space.in_segment(p.id, self.me.id, succ.id) {
                let mut list = vec![p];
                list.extend(self.successors.iter().copied());
                list.truncate(SUCCESSOR_LIST_LEN);
                self.successors = list;
            } else {
                // Adopt succ's list shifted behind succ.
                let mut list = vec![succ];
                list.extend(successors.into_iter().filter(|m| m.id != succ.id));
                list.truncate(SUCCESSOR_LIST_LEN);
                self.successors = list;
            }
        }
        if let Some(succ) = self.successors.first().copied() {
            let me = self.advertised_self(ctx);
            self.send_to_member(ctx, succ.id, DhtMsg::Notify(me));
        }
    }

    /// Handles [`DhtMsg::Notify`] (Chord's `notify`).
    pub(super) fn on_notify(&mut self, ctx: &mut Context<'_, DhtMsg>, candidate: Member) {
        // The candidate itself sent this — it is provably alive.
        self.mark_alive(candidate.id);
        let candidate = self.vet(ctx, candidate);
        let adopt = match &self.predecessor {
            None => true,
            Some(p) => self.space.in_segment(candidate.id, p.id, self.me.id),
        };
        if adopt && candidate.id != self.me.id {
            self.predecessor = Some(candidate);
        }
    }

    /// Handles [`DhtMsg::Pong`]: settles whichever probe `req_id` belongs
    /// to.
    pub(super) fn on_pong(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        req_id: u64,
        member: Member,
    ) {
        // Any Pong proves the member is alive right now.
        self.mark_alive(member.id);
        let member = self.vet(ctx, member);
        if self.pending_succ_ping.map(|(id, _)| id) == Some(req_id) {
            self.pending_succ_ping = None;
        } else if self.pending_pred_ping.map(|(id, _)| id) == Some(req_id) {
            self.pending_pred_ping = None;
            self.pred_strikes = 0;
        } else if let Some((target, probed)) = self.pending_pings.remove(&req_id) {
            if probed == member.id {
                // The member answered: clear any strike from a previously lost
                // probe. Refresh the entry only if the slot still points at it
                // — a concurrent fix-finger lookup may have re-resolved the
                // slot to a newer owner, and a late Pong from the old (alive
                // but no longer responsible) resident must not clobber that
                // resolution back to stale.
                self.ping_strikes.remove(&member.id.value());
                if self.finger(target).is_some_and(|m| m.id == probed) {
                    self.put_finger(target, member);
                }
            }
        }
    }

    /// Handles [`DhtMsg::JoinRequest`]: answers if the joiner lands in a
    /// segment this node can vouch for, otherwise forwards it clockwise.
    pub(super) fn on_join_request(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        joiner: Member,
        joiner_actor: ActorId,
    ) {
        // A rejoining member originated this request moments ago: clear any
        // confirmed-dead verdict so its fresh incarnation can be re-adopted.
        self.mark_alive(joiner.id);
        let joiner = self.vet(ctx, joiner);
        // Route a lookup for the joiner's id; when it completes we cannot
        // intercept here without more state, so answer directly if we already
        // know: simplest correct behaviour is to forward the request greedily
        // toward the owner.
        if let Some(pred) = self.predecessor {
            // `pred.id == joiner.id` is a *rejoin*: a node that crashed and
            // restarted while we still list it as predecessor (it keeps
            // answering pings, so failure detection never evicts it). The
            // segment check alone excludes that case — (pred, me] does not
            // contain pred — and the request would orbit forever.
            if pred.id == joiner.id || self.space.in_segment(joiner.id, pred.id, self.me.id) {
                ctx.trace(EventKind::JoinRequest {
                    joiner: joiner.id.value(),
                });
                let mut successors = vec![self.advertised_self(ctx)];
                successors.extend(self.successors.iter().copied());
                successors.truncate(SUCCESSOR_LIST_LEN);
                ctx.send(joiner_actor, DhtMsg::JoinAnswer { successors });
                return;
            }
        }
        if let Some(succ) = self.successors.first().copied() {
            if self.space.in_segment(joiner.id, self.me.id, succ.id) {
                ctx.trace(EventKind::JoinRequest {
                    joiner: joiner.id.value(),
                });
                // My own successor list *is* the joiner's future list (it
                // starts at succ).
                ctx.send(
                    joiner_actor,
                    DhtMsg::JoinAnswer {
                        successors: self.successors.clone(),
                    },
                );
                return;
            }
            let next = self.greedy_clockwise_toward(joiner.id, &succ);
            self.send_to_member(
                ctx,
                next,
                DhtMsg::JoinRequest {
                    joiner,
                    joiner_actor,
                },
            );
        }
    }

    /// One greedy clockwise hop of a join walk toward `joiner`: the known
    /// member (neighbor table or `succ`) farthest from `me` inside
    /// `(me, joiner)`, falling back to `succ`. The walk stops short of the
    /// joiner's own id: a table entry for its pre-crash incarnation is not
    /// a forwarding target.
    ///
    /// Deliberately NOT `protocol.next_hop`: the protocol's routing may
    /// thread per-request state across hops (Koorde's absorbed-bit chain
    /// rides in `Lookup.state`), and a JoinRequest has nowhere to carry it.
    /// Recomputing fresh state each hop makes de Bruijn hops jump without
    /// converging — the request can orbit the ring forever. Greedy
    /// clockwise progress is protocol-agnostic and terminates: the caller
    /// handles `joiner ∈ (me, succ]` first, so the successor is always a
    /// candidate and every hop strictly shrinks the distance to `joiner`.
    fn greedy_clockwise_toward(&self, joiner: Id, succ: &Member) -> Id {
        let next = self
            .neighbor_members()
            .iter()
            .chain(std::iter::once(succ))
            .filter(|m| self.space.in_segment(m.id, self.me.id, joiner) && m.id != joiner)
            .max_by_key(|m| self.space.seg_len(self.me.id, m.id))
            .map_or(succ.id, |m| m.id);
        if next == self.me.id {
            succ.id
        } else {
            next
        }
    }

    /// Handles [`DhtMsg::JoinAnswer`]: adopts the offered successor list
    /// and starts maintenance.
    pub(super) fn on_join_answer(
        &mut self,
        ctx: &mut Context<'_, DhtMsg>,
        successors: Vec<Member>,
    ) {
        // A rejoining node can be offered a list that still contains its own
        // pre-crash incarnation (its old successor answers with a list starting
        // at the joiner). Adopting ourselves as successor would wedge the ring.
        let mut successors: Vec<Member> = successors
            .into_iter()
            .filter(|m| m.id != self.me.id)
            .collect();
        for m in &mut successors {
            *m = self.vet(ctx, *m);
        }
        if !self.joined && !successors.is_empty() {
            ctx.trace(EventKind::JoinComplete {
                joiner: self.me.id.value(),
            });
            let head = successors[0];
            self.successors = successors;
            self.successors.truncate(SUCCESSOR_LIST_LEN);
            self.joined = true;
            let me = self.advertised_self(ctx);
            self.send_to_member(ctx, head.id, DhtMsg::Notify(me));
            ctx.set_timer(Duration::from_millis(50), TIMER_STABILIZE);
            ctx.set_timer(Duration::from_millis(100), TIMER_FIX_FINGERS);
            ctx.set_timer(Duration::from_millis(150), TIMER_ANTI_ENTROPY);
        }
    }
}
