//! Invariant oracles: pure predicates over a frozen snapshot of the run.
//!
//! Each oracle inspects [`NodeSnapshot`]s (and, when a recording tracer is
//! installed, the event log) and returns zero or more [`Violation`]s. They
//! never mutate anything and iterate in index order, so the violation list
//! is itself deterministic — which matters because it is folded into the
//! run fingerprint the shrinker compares across replays.
//!
//! The catalog (see DESIGN.md §3e):
//!
//! * `duplicate_suppression` — no payload delivered to the application
//!   twice (the CAM-Koorde flooding invariant).
//! * `forward_cycle` — no node forwards the same payload to the same
//!   child twice (trace-based; implies the dissemination graph is acyclic).
//! * `delivery` — every live joined node holds every required payload.
//! * `join_completion` — no node is still mid-join after settle.
//! * `ring_convergence` — successor/predecessor pointers match the ideal
//!   ring over live joined members.
//! * `neighbor_ideal` — every resolved capacity-derived neighbor entry
//!   points at the true owner of its target.
//! * `cleanup` — no leaked retransmit state or timers: dead nodes hold
//!   nothing, live nodes hold exactly the three maintenance timers.
//! * `cross_group_capacity` — the pub/sub ledger never charges a node
//!   more aggregate children (across all live groups) than its `c_x`.
//!
//! # Degraded catalog (Byzantine runs)
//!
//! Every oracle a lying node could trip takes `adversary:
//! Option<&AdversarySpec>`. With `None` it is the plain oracle above; with
//! the plan's [`AdversarySpec`] it states what must *still* hold with
//! `f = 1` planned Byzantine node — a strict weakening, never a different
//! predicate:
//!
//! * `duplicate_suppression` — **unconditional**. Suppression is local
//!   state; no remote liar can make a correct node deliver twice.
//! * `forward_cycle` — **unconditional**. Honest nodes forward each
//!   payload at most once per child regardless of what they were fed, and
//!   adversarial re-sends are traced as `adversary_act`, not forwards.
//! * `delivery` — every **honest** live joined node holds every required
//!   payload (anti-entropy repairs subtrees the adversary starved); the
//!   adversary itself may discard anything.
//! * `join_completion`, `ring_convergence`, `neighbor_ideal` — hold for
//!   every honest node. The adversary stays *on* the ideal ring (honest
//!   pointers at it are correct), but its own claimed pointers and
//!   neighbor entries are unchecked — it may report anything.
//! * `cleanup` — dead nodes leak nothing and honest timer discipline is
//!   **unconditional**; the adversary's unacked frames are unchecked (it
//!   wires frames to targets of its choosing), and under
//!   `StaleIncarnation` honest unacked counts are excused too, because a
//!   frozen snapshot that keeps advertising corpses keeps honest
//!   re-probes legitimately in flight.
//! * `cross_group_capacity` — **unconditional** for the ledger audit:
//!   charges are computed from pinned (vetted) capacities, so a forged
//!   `c_x` cannot overcommit honest nodes.

use std::collections::{BTreeMap, BTreeSet};

use cam_overlay::dynamic::{DhtActor, DhtProtocol};
use cam_overlay::{ByzantineBehavior, DetectionCounters, Member};
use cam_pubsub::CapacityLedger;
use cam_ring::Id;
use cam_trace::{EventKind, TraceEvent};

use crate::plan::AdversarySpec;

/// Frozen per-node state, extracted identically from either host.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// Node index in the harness table.
    pub index: usize,
    /// The member identity (id, capacity, bandwidth).
    pub member: Member,
    /// Whether the node is up.
    pub alive: bool,
    /// Whether its join has completed.
    pub joined: bool,
    /// Current successor pointer, if any.
    pub successor: Option<Id>,
    /// Current predecessor pointer, if any.
    pub predecessor: Option<Id>,
    /// Resolved neighbor (finger) entries: `(target, resolved id)`.
    pub fingers: Vec<(u64, Id)>,
    /// Application delivery log: `(payload, hops)` in arrival order.
    pub received: Vec<(u64, u32)>,
    /// Distinct payloads marked seen (duplicate-suppression state).
    pub seen: usize,
    /// Frames awaiting acknowledgement (0 on the pure-sim host).
    pub unacked: usize,
    /// Armed timers (0 on the pure-sim host, which models timers as
    /// self-rearming events outside the actor).
    pub armed_timers: usize,
    /// Detection counters this node accumulated (suspected misbehavior
    /// it flagged in *others*).
    pub detections: DetectionCounters,
    /// Misbehaviors this node itself performed — nonzero only on a
    /// planned adversary that actually activated.
    pub adversary_acts: u64,
}

impl NodeSnapshot {
    /// Freezes the node at table slot `index`. `state` is the actor whose
    /// routing tables and logs the snapshot carries: `None` leaves them
    /// empty (the sim host drops a dead actor's state; the wire host still
    /// holds it and passes it with `alive == false`).
    pub(crate) fn capture<P: DhtProtocol>(
        index: usize,
        member: Member,
        alive: bool,
        state: Option<&DhtActor<P>>,
        unacked: usize,
        armed_timers: usize,
    ) -> NodeSnapshot {
        let finger_ids = |a: &DhtActor<P>| -> Vec<(u64, Id)> {
            a.finger_entries().iter().map(|&(t, m)| (t, m.id)).collect()
        };
        NodeSnapshot {
            index,
            member,
            alive,
            joined: alive && state.is_some_and(DhtActor::is_joined),
            successor: state.and_then(|a| Some(a.successor()?.id)),
            predecessor: state.and_then(|a| Some(a.predecessor()?.id)),
            fingers: state.map(finger_ids).unwrap_or_default(),
            received: state.map(|a| a.received_log.clone()).unwrap_or_default(),
            seen: state.map_or(0, DhtActor::payloads_received),
            unacked,
            armed_timers,
            detections: state.map(DhtActor::detections).unwrap_or_default(),
            adversary_acts: state.and_then(DhtActor::adversary).map_or(0, |s| s.acts),
        }
    }
}

/// One oracle violation, with a deterministic human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable oracle name (matches the catalog above).
    pub oracle: &'static str,
    /// Offending node index, if the violation is node-scoped.
    pub node: Option<u64>,
    /// What exactly went wrong.
    pub detail: String,
}

fn violation(oracle: &'static str, node: usize, detail: String) -> Violation {
    Violation {
        oracle,
        node: Some(node as u64),
        detail,
    }
}

/// Delivery census for one payload over live joined nodes:
/// `(live, delivered)`.
pub fn census_of<'a>(
    snaps: impl IntoIterator<Item = &'a NodeSnapshot>,
    payload: u64,
) -> (u64, u64) {
    let mut live = 0;
    let mut delivered = 0;
    for s in snaps {
        if s.alive && s.joined {
            live += 1;
            if s.received.iter().any(|&(p, _)| p == payload) {
                delivered += 1;
            }
        }
    }
    (live, delivered)
}

/// No payload reaches the application twice — checks both the delivery
/// log for repeats and its agreement with the suppression table.
pub fn check_duplicate_suppression(snaps: &[NodeSnapshot]) -> Vec<Violation> {
    let mut out = Vec::new();
    for s in snaps {
        let mut seen = BTreeSet::new();
        for &(p, _) in &s.received {
            if !seen.insert(p) {
                out.push(violation(
                    "duplicate_suppression",
                    s.index,
                    format!("payload {p} delivered twice"),
                ));
            }
        }
        if s.received.len() > s.seen {
            out.push(violation(
                "duplicate_suppression",
                s.index,
                format!(
                    "delivery log has {} entries but only {} payloads marked seen",
                    s.received.len(),
                    s.seen
                ),
            ));
        }
    }
    out
}

/// Trace-based acyclicity: a node forwarding the same payload to the same
/// child twice means the dissemination graph revisited an edge.
pub fn check_forward_cycles(events: &[TraceEvent]) -> Vec<Violation> {
    let mut edges: BTreeMap<(u64, u64, u64), u32> = BTreeMap::new();
    for ev in events {
        if let EventKind::MulticastForward { payload, to, .. } = ev.kind {
            *edges.entry((ev.actor, payload, to)).or_insert(0) += 1;
        }
    }
    edges
        .iter()
        .filter(|(_, &n)| n > 1)
        .map(|(&(actor, payload, to), &n)| Violation {
            oracle: "forward_cycle",
            node: Some(actor),
            detail: format!("forwarded payload {payload} to {to} {n} times"),
        })
        .collect()
}

/// True when `s` is the planned adversary.
fn is_adversary(s: &NodeSnapshot, adversary: Option<&AdversarySpec>) -> bool {
    adversary.is_some_and(|a| s.index == a.node as usize)
}

/// Every **honest** live joined node holds every payload in `payloads`;
/// the adversary's own delivery log is its business.
pub fn check_delivery(
    snaps: &[NodeSnapshot],
    payloads: &[u64],
    adversary: Option<&AdversarySpec>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for &p in payloads {
        let honest = snaps.iter().filter(|s| !is_adversary(s, adversary));
        let (live, delivered) = census_of(honest, p);
        if delivered != live {
            out.push(Violation {
                oracle: "delivery",
                node: None,
                detail: format!("payload {p}: {delivered}/{live} live nodes hold it"),
            });
        }
    }
    out
}

/// After settle (with join retries), no honest node should still be
/// mid-join.
pub fn check_join_completion(
    snaps: &[NodeSnapshot],
    adversary: Option<&AdversarySpec>,
) -> Vec<Violation> {
    snaps
        .iter()
        .filter(|s| s.alive && !s.joined && !is_adversary(s, adversary))
        .map(|s| violation("join_completion", s.index, "alive but never joined".into()))
        .collect()
}

/// Ring ideal over live joined members, sorted by identifier.
fn ideal_ring(snaps: &[NodeSnapshot]) -> Vec<Member> {
    let mut ring: Vec<Member> = snaps
        .iter()
        .filter(|s| s.alive && s.joined)
        .map(|s| s.member)
        .collect();
    ring.sort_by_key(|m| m.id);
    ring
}

/// Live joined nodes whose own claims an oracle judges: every one but the
/// planned adversary, which may report anything.
fn judged<'a>(
    snaps: &'a [NodeSnapshot],
    adversary: Option<&'a AdversarySpec>,
) -> impl Iterator<Item = &'a NodeSnapshot> {
    snaps
        .iter()
        .filter(move |s| s.alive && s.joined && !is_adversary(s, adversary))
}

/// Successor and predecessor pointers match the ideal live ring. The ring
/// still *includes* the adversary (it is live and joined, and honest
/// pointers at it are correct); its own pointers are unchecked.
pub fn check_ring_convergence(
    snaps: &[NodeSnapshot],
    adversary: Option<&AdversarySpec>,
) -> Vec<Violation> {
    let ring = ideal_ring(snaps);
    if ring.len() < 2 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for s in judged(snaps, adversary) {
        let pos = ring
            .iter()
            .position(|m| m.id == s.member.id)
            .expect("live joined node is on the ideal ring");
        let want_succ = ring[(pos + 1) % ring.len()].id;
        let want_pred = ring[(pos + ring.len() - 1) % ring.len()].id;
        if s.successor != Some(want_succ) {
            out.push(violation(
                "ring_convergence",
                s.index,
                format!("successor {:?}, ideal {:?}", s.successor, want_succ),
            ));
        }
        if s.predecessor != Some(want_pred) {
            out.push(violation(
                "ring_convergence",
                s.index,
                format!("predecessor {:?}, ideal {:?}", s.predecessor, want_pred),
            ));
        }
    }
    out
}

/// Every resolved neighbor entry points at the true owner of its target
/// identifier on the ideal live ring — the capacity-derived neighbor
/// tables have converged to what the paper's overlay maintains. Ownership
/// is computed over the full live ring, adversary included; the
/// adversary's own table is unchecked.
///
/// Unresolved targets are not flagged here (a node whose neighbor table
/// is still filling is a liveness matter, covered by delivery); a
/// *wrongly* resolved one is a safety violation.
pub fn check_neighbor_ideal(
    snaps: &[NodeSnapshot],
    targets_of: &dyn Fn(&Member) -> Vec<Id>,
    adversary: Option<&AdversarySpec>,
) -> Vec<Violation> {
    let ring = ideal_ring(snaps);
    if ring.len() < 2 {
        return Vec::new();
    }
    let ids: Vec<Id> = ring.iter().map(|m| m.id).collect();
    let owner_of = |t: Id| -> Id {
        let i = ids.partition_point(|&x| x < t);
        ids[if i == ids.len() { 0 } else { i }]
    };
    let mut out = Vec::new();
    for s in judged(snaps, adversary) {
        for target in targets_of(&s.member) {
            let Some(&(_, resolved)) = s.fingers.iter().find(|(t, _)| *t == target.value())
            else {
                continue;
            };
            let want = owner_of(target);
            if resolved != want {
                out.push(violation(
                    "neighbor_ideal",
                    s.index,
                    format!(
                        "target {} resolved to {:?}, ideal owner {:?}",
                        target.value(),
                        resolved,
                        want
                    ),
                ));
            }
        }
    }
    out
}

/// Retransmit-state and timer hygiene. On the wire host a dead node must
/// hold nothing, and a live joined node at rest holds exactly the three
/// maintenance timers (stabilize, fix-fingers, anti-entropy) and no
/// unacknowledged frames. The pure-sim host has no frame layer; only the
/// dead-node check applies there.
///
/// Dead-node leaks and timer discipline are unconditional. Unacked frames
/// are excused on the adversary, which wires frames to targets of its
/// choosing, and on every node under
/// [`ByzantineBehavior::StaleIncarnation`]: a frozen snapshot that keeps
/// advertising corpses keeps honest re-probes legitimately in flight at
/// any quiescent point.
pub fn check_cleanup(
    snaps: &[NodeSnapshot],
    wire_host: bool,
    adversary: Option<&AdversarySpec>,
) -> Vec<Violation> {
    let stale = adversary.is_some_and(|a| a.behavior == ByzantineBehavior::StaleIncarnation);
    let mut out = Vec::new();
    for s in snaps {
        if !s.alive {
            if s.unacked != 0 || s.armed_timers != 0 {
                out.push(violation(
                    "cleanup",
                    s.index,
                    format!(
                        "dead node leaks state: {} unacked frames, {} timers",
                        s.unacked, s.armed_timers
                    ),
                ));
            }
            continue;
        }
        if !wire_host {
            continue;
        }
        if s.unacked != 0 && !stale && !is_adversary(s, adversary) {
            out.push(violation(
                "cleanup",
                s.index,
                format!("{} unacked frames after quiescence", s.unacked),
            ));
        }
        if s.joined && s.armed_timers != 3 {
            out.push(violation(
                "cleanup",
                s.index,
                format!(
                    "{} maintenance timers armed, want exactly 3",
                    s.armed_timers
                ),
            ));
        }
    }
    out
}

/// The pub/sub capacity ledger never overcommits: summed across every
/// live group, a node's charged child count stays within its declared
/// `c_x`. [`CapacityLedger::verify`] reports the lowest-indexed
/// offender, which keeps the violation list deterministic.
pub fn check_cross_group_capacity(ledger: &CapacityLedger) -> Vec<Violation> {
    match ledger.verify() {
        Ok(()) => Vec::new(),
        Err(over) => vec![violation(
            "cross_group_capacity",
            over.node,
            format!(
                "charged {} children across groups, capacity {}",
                over.charged, over.capacity
            ),
        )],
    }
}

/// Sums detection counters across nodes, excluding the adversary's own
/// (a Byzantine node's self-reported suspicions are not evidence).
pub fn sum_detections(
    snaps: &[NodeSnapshot],
    adversary: Option<&AdversarySpec>,
) -> DetectionCounters {
    let mut total = DetectionCounters::default();
    for s in snaps {
        if !is_adversary(s, adversary) {
            total.add(&s.detections);
        }
    }
    total
}

/// Total misbehaviors the planned adversary actually performed.
pub fn sum_adversary_acts(snaps: &[NodeSnapshot]) -> u64 {
    snaps.iter().map(|s| s.adversary_acts).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_ring::Id;

    fn snap(index: usize, id: u64) -> NodeSnapshot {
        NodeSnapshot {
            index,
            member: Member::with_capacity(Id(id), 4),
            alive: true,
            joined: true,
            successor: None,
            predecessor: None,
            fingers: Vec::new(),
            received: Vec::new(),
            seen: 0,
            unacked: 0,
            armed_timers: 3,
            detections: DetectionCounters::default(),
            adversary_acts: 0,
        }
    }

    fn spec(node: u32, behavior: ByzantineBehavior) -> AdversarySpec {
        AdversarySpec {
            node,
            behavior,
            seed: 1,
        }
    }

    #[test]
    fn duplicate_suppression_flags_repeats_and_log_drift() {
        let mut a = snap(0, 10);
        a.received = vec![(1, 0), (1, 2)];
        a.seen = 2;
        let mut b = snap(1, 20);
        b.received = vec![(1, 0), (2, 1)];
        b.seen = 1;
        let v = check_duplicate_suppression(&[a, b]);
        assert_eq!(v.len(), 2);
        assert!(v[0].detail.contains("delivered twice"));
        assert!(v[1].detail.contains("marked seen"));
    }

    #[test]
    fn delivery_census_counts_live_joined_only() {
        let mut a = snap(0, 10);
        a.received = vec![(7, 0)];
        a.seen = 1;
        let mut dead = snap(1, 20);
        dead.alive = false;
        let snaps = [a, dead, snap(2, 30)];
        assert_eq!(census_of(&snaps, 7), (2, 1));
        let v = check_delivery(&snaps, &[7], None);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("1/2"));
    }

    #[test]
    fn ring_convergence_checks_both_pointers() {
        let mut a = snap(0, 10);
        let mut b = snap(1, 20);
        a.successor = Some(Id(20));
        a.predecessor = Some(Id(20));
        b.successor = Some(Id(10));
        b.predecessor = Some(Id(99)); // wrong
        let v = check_ring_convergence(&[a, b], None);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "ring_convergence");
        assert_eq!(v[0].node, Some(1));
    }

    #[test]
    fn neighbor_ideal_flags_stale_entries() {
        let mut a = snap(0, 10);
        let b = snap(1, 100);
        // Target 50 is owned by 100; a stale entry says 10.
        a.fingers = vec![(50, Id(10))];
        let v = check_neighbor_ideal(&[a, b], &|_m| vec![Id(50)], None);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("ideal owner"));
    }

    #[test]
    fn cleanup_demands_exactly_three_timers_on_wire_host() {
        let mut a = snap(0, 10);
        a.armed_timers = 6;
        let mut dead = snap(1, 20);
        dead.alive = false;
        dead.unacked = 2;
        dead.armed_timers = 0;
        let v = check_cleanup(&[a.clone(), dead.clone()], true, None);
        assert_eq!(v.len(), 2);
        // Pure-sim host: only the dead-node leak check applies.
        let v = check_cleanup(&[a, dead], false, None);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn cross_group_capacity_flags_ledger_overcommit() {
        let mut ledger = CapacityLedger::new(vec![3, 3]);
        ledger.commit(1, vec![(0, 2), (1, 3)]);
        assert!(check_cross_group_capacity(&ledger).is_empty());
        ledger.commit(2, vec![(1, 1)]);
        let v = check_cross_group_capacity(&ledger);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "cross_group_capacity");
        assert_eq!(v[0].node, Some(1));
        assert!(v[0].detail.contains("charged 4"));
    }

    #[test]
    fn forward_cycles_found_in_trace() {
        let mk = |seq, actor, to| TraceEvent {
            at_micros: seq,
            seq,
            actor,
            kind: EventKind::MulticastForward {
                payload: 5,
                to,
                hops: 1,
                segment: None,
                group: None,
            },
        };
        let v = check_forward_cycles(&[mk(0, 1, 2), mk(1, 1, 2), mk(2, 1, 3)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "forward_cycle");
    }

    #[test]
    fn degraded_delivery_excuses_only_the_adversary() {
        let mut a = snap(0, 10);
        a.received = vec![(7, 0)];
        a.seen = 1;
        let b = snap(1, 20); // starved
        let snaps = [a, b];
        // Flagged without an adversary; excused with node 1 as adversary.
        assert_eq!(check_delivery(&snaps, &[7], None).len(), 1);
        let s = spec(1, ByzantineBehavior::SelectiveDrop);
        assert!(check_delivery(&snaps, &[7], Some(&s)).is_empty());
        // An honest miss still counts with the adversary elsewhere.
        let s = spec(0, ByzantineBehavior::SelectiveDrop);
        assert_eq!(check_delivery(&snaps, &[7], Some(&s)).len(), 1);
    }

    #[test]
    fn degraded_ring_keeps_adversary_on_the_ideal_ring() {
        let mut a = snap(0, 10);
        let mut b = snap(1, 20);
        let mut c = snap(2, 30);
        a.successor = Some(Id(20));
        a.predecessor = Some(Id(30));
        b.successor = Some(Id(99)); // adversary lies about its own succ
        b.predecessor = Some(Id(10));
        c.successor = Some(Id(10));
        c.predecessor = Some(Id(20));
        let snaps = [a, b, c];
        let s = spec(1, ByzantineBehavior::StaleIncarnation);
        // Honest pointers AT node 20 are demanded; node 20's own are not.
        assert!(check_ring_convergence(&snaps, Some(&s)).is_empty());
        assert_eq!(check_ring_convergence(&snaps, None).len(), 1);
    }

    #[test]
    fn degraded_cleanup_excuses_unacked_but_not_timers_or_leaks() {
        let mut adv = snap(0, 10);
        adv.unacked = 2;
        let mut honest = snap(1, 20);
        honest.unacked = 1;
        let mut bad_timers = snap(2, 30);
        bad_timers.armed_timers = 7;
        let mut dead = snap(3, 40);
        dead.alive = false;
        dead.armed_timers = 1;
        let snaps = [adv, honest, bad_timers, dead];
        let flagged = |adversary: Option<&AdversarySpec>| -> Vec<Option<u64>> {
            check_cleanup(&snaps, true, adversary)
                .iter()
                .map(|v| v.node)
                .collect()
        };
        // No adversary: both unacked counts, the timers and the leak.
        assert_eq!(flagged(None), [Some(0), Some(1), Some(2), Some(3)]);
        // Stale adversary: both unacked counts excused; timer-discipline
        // and dead-leak violations survive.
        let s = spec(0, ByzantineBehavior::StaleIncarnation);
        assert_eq!(flagged(Some(&s)), [Some(2), Some(3)]);
        // Non-stale adversary: only the adversary's unacked is excused.
        let s = spec(0, ByzantineBehavior::Replay);
        assert_eq!(flagged(Some(&s)), [Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn detection_sums_skip_the_adversary_itself() {
        let mut a = snap(0, 10);
        a.detections.region_violations = 3;
        let mut b = snap(1, 20);
        b.detections.replay_suspects = 2;
        b.adversary_acts = 9;
        let snaps = [a, b];
        let s = spec(1, ByzantineBehavior::Replay);
        let d = sum_detections(&snaps, Some(&s));
        assert_eq!(d.region_violations, 3);
        assert_eq!(d.replay_suspects, 0);
        assert_eq!(sum_detections(&snaps, None).total(), 5);
        assert_eq!(sum_adversary_acts(&snaps), 9);
    }
}
