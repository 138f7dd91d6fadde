//! Message-level tests of the dynamic DHT machinery: stabilization rules,
//! failure detection, finger pruning, lookup TTLs — exercised through a
//! minimal ring protocol so the actor logic is tested independently of the
//! CAM routing algorithms.

use std::collections::HashMap;

use cam_overlay::dynamic::{host, DhtActor, DhtDriver, DhtMsg, DhtProtocol, DynamicNetwork};
use cam_overlay::Member;
use cam_ring::{Id, IdSpace, Segment};
use cam_sim::engine::{ActorId, Simulation};
use cam_sim::time::Duration;
use cam_sim::LatencyModel;

/// A bare-bones protocol: a handful of evenly spaced fingers, greedy
/// preceding-neighbor routing, region-splitting multicast across resolved
/// fingers.
#[derive(Debug, Clone, Copy)]
struct MiniRing;

impl DhtProtocol for MiniRing {
    fn neighbor_targets(&self, space: IdSpace, me: &Member) -> Vec<Id> {
        (1..=4u64)
            .map(|i| space.add(me.id, i * space.size() / 5))
            .collect()
    }

    fn next_hop(
        &self,
        space: IdSpace,
        me: &Member,
        neighbors: &[Member],
        successor: &Member,
        _predecessor: Option<&Member>,
        key: Id,
        _state: &mut u64,
    ) -> Option<Id> {
        if space.in_segment(key, me.id, successor.id) {
            return None;
        }
        neighbors
            .iter()
            .filter(|m| space.in_segment(m.id, me.id, key))
            .max_by_key(|m| space.seg_len(me.id, m.id))
            .map(|m| m.id)
    }

    fn multicast_children(
        &self,
        space: IdSpace,
        me: &Member,
        neighbors: &[Member],
        successor: &Member,
        region: Option<Segment>,
    ) -> Vec<(Id, Option<Segment>)> {
        let region = region.unwrap_or_else(|| Segment::all_but(space, me.id));
        let mut cuts: Vec<Id> = neighbors
            .iter()
            .map(|m| m.id)
            .chain([successor.id])
            .filter(|&id| region.contains(space, id))
            .collect();
        cuts.sort_by_key(|&id| space.seg_len(me.id, id));
        cuts.dedup();
        let mut out = Vec::new();
        for (i, &c) in cuts.iter().enumerate() {
            let end = cuts
                .get(i + 1)
                .map(|&n| space.sub(n, 1))
                .unwrap_or(region.to);
            out.push((c, Some(Segment::new(c, end))));
        }
        out
    }
}

const SPACE: IdSpace = IdSpace::new(16);

fn members(n: u64) -> Vec<Member> {
    (0..n)
        .map(|i| Member::with_capacity(Id(i * (SPACE.size() / n) + 3), 6))
        .collect()
}

fn wan() -> LatencyModel {
    LatencyModel::Constant(Duration::from_millis(10))
}

#[test]
fn converged_ring_pointers_are_correct() {
    let m = members(32);
    let net = DynamicNetwork::converged(SPACE, &m, MiniRing, 1, wan());
    for (i, (member, actor)) in net.actors().iter().enumerate() {
        let a = net.sim.actor(*actor).unwrap();
        assert_eq!(a.member().id, member.id);
        let expected_succ = m[(i + 1) % m.len()].id;
        assert_eq!(a.successor().unwrap().id, expected_succ);
        let expected_pred = m[(i + m.len() - 1) % m.len()].id;
        assert_eq!(a.predecessor().unwrap().id, expected_pred);
        assert!(a.is_joined());
        assert!(!a.neighbor_members().is_empty());
    }
}

#[test]
fn stabilization_is_quiet_on_a_healthy_ring() {
    // On an already-converged ring, maintenance must not churn pointers.
    let m = members(16);
    let mut net = DynamicNetwork::converged(SPACE, &m, MiniRing, 2, wan());
    net.sim.run_until(net.sim.now() + Duration::from_secs(30));
    for (i, (_, actor)) in net.actors().iter().enumerate() {
        let a = net.sim.actor(*actor).unwrap();
        assert_eq!(a.successor().unwrap().id, m[(i + 1) % m.len()].id);
        assert_eq!(
            a.predecessor().unwrap().id,
            m[(i + m.len() - 1) % m.len()].id
        );
    }
}

#[test]
fn successor_failure_detected_and_promoted() {
    let m = members(16);
    let mut net = DynamicNetwork::converged(SPACE, &m, MiniRing, 3, wan());
    // Kill member 5 (successor of member 4).
    let victim = net.actors()[5];
    let observer = net.actors()[4].1;
    net.sim.kill(victim.1);
    net.sim.run_until(net.sim.now() + Duration::from_secs(10));
    let a = net.sim.actor(observer).unwrap();
    assert_eq!(
        a.successor().unwrap().id,
        m[6].id,
        "successor should skip the dead node"
    );
    // The dead node's successor clears its stale predecessor and adopts
    // the observer via notify.
    let after = net.sim.actor(net.actors()[6].1).unwrap();
    assert_eq!(after.predecessor().unwrap().id, m[4].id);
}

#[test]
fn fingers_pointing_at_dead_nodes_get_pruned() {
    let m = members(40);
    let mut net = DynamicNetwork::converged(SPACE, &m, MiniRing, 4, wan());
    // Kill a quarter of the ring.
    let victims: Vec<ActorId> = net
        .actors()
        .iter()
        .skip(2)
        .step_by(4)
        .map(|(_, a)| *a)
        .collect();
    for v in &victims {
        net.sim.kill(*v);
    }
    net.sim.run_until(net.sim.now() + Duration::from_secs(60));
    let live: std::collections::HashSet<u64> =
        net.live_members().iter().map(|mm| mm.id.value()).collect();
    let mut stale = 0;
    let mut total = 0;
    for (_, a) in net.actors() {
        if let Some(actor) = net.sim.actor(*a) {
            for nb in actor.neighbor_members() {
                total += 1;
                if !live.contains(&nb.id.value()) {
                    stale += 1;
                }
            }
        }
    }
    assert!(
        stale * 10 <= total,
        "more than 10% stale fingers after repair: {stale}/{total}"
    );
}

#[test]
fn multicast_covers_converged_miniring() {
    let m = members(64);
    let mut net = DynamicNetwork::converged(SPACE, &m, MiniRing, 5, wan());
    let source = net.actors()[7].1;
    let payload = net.start_multicast(source, true);
    net.sim.run_until(net.sim.now() + Duration::from_secs(10));
    assert_eq!(net.delivery_ratio(payload), 1.0);
    // Duplicate suppression: nobody logged the payload twice.
    for (_, a) in net.actors() {
        let actor = net.sim.actor(*a).unwrap();
        let copies = actor
            .received_log
            .iter()
            .filter(|(p, _)| *p == payload)
            .count();
        assert!(copies <= 1, "member received payload {copies} times");
    }
}

#[test]
fn lookup_done_resolves_fingers_via_messages() {
    // Drive a DhtActor directly: its fix-finger lookups must converge to
    // the oracle owners once the network answers.
    let m = members(24);
    let mut net = DynamicNetwork::converged(SPACE, &m, MiniRing, 6, wan());
    net.sim.run_until(net.sim.now() + Duration::from_secs(45));
    // After many fix-finger rounds, resolved fingers match the oracle.
    let sorted: Vec<Id> = m.iter().map(|mm| mm.id).collect();
    let owner_of = |k: Id| -> Id {
        let i = sorted.partition_point(|&x| x < k);
        sorted[if i == sorted.len() { 0 } else { i }]
    };
    for (member, actor) in net.actors() {
        let a = net.sim.actor(*actor).unwrap();
        for target in MiniRing.neighbor_targets(SPACE, member) {
            let resolved = a
                .neighbor_members()
                .iter()
                .map(|nb| nb.id)
                .min_by_key(|&nb| SPACE.seg_len(target, nb))
                .unwrap();
            // The resolved member nearest the target must be its owner.
            assert_eq!(
                resolved,
                owner_of(target),
                "member {} target {target}",
                member.id
            );
        }
    }
}

#[test]
fn remove_member_and_reject_duplicate_join() {
    let m = members(12);
    let mut net = DynamicNetwork::converged(SPACE, &m, MiniRing, 7, wan());
    assert!(net.remove_member(m[3].id));
    assert!(!net.remove_member(m[3].id), "second removal is a no-op");
    assert!(!net.remove_member(Id(1)), "unknown id is a no-op");
    assert!(
        net.inject_join(m[4], MiniRing).is_none(),
        "existing identifier rejected"
    );
    let fresh = Member::with_capacity(Id(1), 6);
    assert!(net.inject_join(fresh, MiniRing).is_some());
    net.sim.run_until(net.sim.now() + Duration::from_secs(30));
    let joined = net.actor_of(Id(1)).unwrap();
    assert!(net.sim.actor(joined).unwrap().is_joined());
}

#[test]
fn seeded_actor_state_accessors() {
    let mut sim: Simulation<DhtActor<MiniRing>> = Simulation::new(8, wan());
    let me = Member::with_capacity(Id(100), 6);
    let succ = Member::with_capacity(Id(200), 6);
    let pred = Member::with_capacity(Id(50), 6);
    let mut actor = DhtActor::new(SPACE, me, MiniRing);
    assert!(!actor.is_joined());
    assert!(actor.successor().is_none());
    actor.seed_state(vec![succ], pred, vec![(Id(300), succ)]);
    actor.set_directory(HashMap::new());
    assert!(actor.is_joined());
    assert_eq!(actor.successor().unwrap().id, Id(200));
    assert_eq!(actor.predecessor().unwrap().id, Id(50));
    assert_eq!(actor.neighbor_members().len(), 1);
    assert_eq!(actor.payloads_received(), 0);
    assert_eq!(actor.payload_hops(1), None);
    let id = sim.add_actor(actor);
    // A multicast payload delivered directly is recorded once.
    sim.post(
        id,
        id,
        DhtMsg::Multicast {
            payload: 42,
            region: None,
            hops: 3,
            data: bytes::Bytes::from_static(b"hello group"),
        },
    );
    sim.run_to_completion();
    let a = sim.actor(id).unwrap();
    assert_eq!(a.payload_hops(42), Some(3));
    assert_eq!(a.payloads_received(), 1);
    assert_eq!(a.payload_data(42).unwrap().as_ref(), b"hello group");
    assert!(a.payload_data(99).is_none());
}

/// A host that records what one actor sends and ignores its timers, so a
/// test can hand-deliver every reply.
#[derive(Default)]
struct Recorder {
    sent: Vec<(ActorId, DhtMsg)>,
}

impl DhtDriver for Recorder {
    fn me(&self) -> ActorId {
        ActorId(0)
    }
    fn send(&mut self, to: ActorId, msg: DhtMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _: Duration, _: u64) {}
    fn random_index(&mut self, _: usize) -> usize {
        0
    }
}

impl Recorder {
    /// `(key, req_id)` of every lookup sent since the last drain, and the
    /// `req_id` of every ping, both in send order.
    fn drain(&mut self) -> (Vec<(Id, u64)>, Vec<u64>) {
        let (mut lookups, mut pings) = (Vec::new(), Vec::new());
        for (_, msg) in self.sent.drain(..) {
            match msg {
                DhtMsg::Lookup { key, req_id, .. } => lookups.push((key, req_id)),
                DhtMsg::Ping { req_id } => pings.push(req_id),
                _ => {}
            }
        }
        (lookups, pings)
    }
}

/// Checks the maintained neighbor table against the rule, recomputed from
/// scratch (release builds have no `debug_assert!` to do it), and against
/// the ids the test expects.
#[track_caller]
fn assert_table(a: &DhtActor<MiniRing>, targets: &[u64], expect: &[Id]) {
    let entries = a.finger_entries();
    assert_eq!(
        entries.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        targets,
        "finger slots, ascending by target"
    );
    let mut rule: Vec<Member> = Vec::new();
    for &(_, m) in entries {
        if m.id != a.member().id && !rule.iter().any(|o| o.id == m.id) {
            rule.push(m);
        }
    }
    assert_eq!(
        a.neighbor_members(),
        rule.as_slice(),
        "table equals the rule"
    );
    let ids: Vec<Id> = rule.iter().map(|m| m.id).collect();
    assert_eq!(ids, expect);
}

/// The neighbor table is maintained on write, not derived on read: drive
/// one actor through every kind of finger write and check the table still
/// equals the rule (ascending target, first slot wins, never `me`) after
/// each. A write that skips the rebuild fails here — and, in the debug
/// profile, at the `debug_assert!` inside `neighbor_members`.
#[test]
fn neighbor_table_equals_the_rule_after_every_kind_of_write() {
    let [(_, stabilize), (_, fix_fingers), _] = host::maintenance_schedule(0);
    let me = Member::with_capacity(Id(100), 6);
    let succ = Member::with_capacity(Id(200), 6);
    let pred = Member::with_capacity(Id(50), 6);
    let [a_, b_, c_] = [13_300, 26_400, 39_500].map(|id| Member::with_capacity(Id(id), 6));
    let t: Vec<Id> = MiniRing.neighbor_targets(SPACE, &me);
    let tv: Vec<u64> = t.iter().map(|t| t.value()).collect();
    let extra = 65_000;

    let mut actor = DhtActor::new(SPACE, me, MiniRing);
    // A repeated target keeps the last member; a slot resolved to `me`
    // never makes the table.
    actor.seed_state(
        vec![succ],
        pred,
        vec![
            (t[0], a_),
            (t[1], b_),
            (t[1], c_),
            (t[2], c_),
            (t[3], succ),
            (Id(extra), me),
        ],
    );
    let directory: HashMap<u64, ActorId> = [me, a_, b_, c_, succ, pred]
        .iter()
        .enumerate()
        .map(|(i, m)| (m.id.value(), ActorId(i)))
        .collect();
    actor.set_directory(directory);
    let mut all = tv.clone();
    all.push(extra);
    assert_table(&actor, &all, &[a_.id, c_.id, succ.id]);

    // Fix-finger round 1 re-resolves slots t0..t2 and probes their
    // residents (a, c, c).
    let mut drv = Recorder::default();
    actor.deliver_timer(&mut drv, fix_fingers);
    let (lookups, pings) = drv.drain();
    let req = |slot: Id| lookups.iter().find(|&&(k, _)| k == slot).unwrap().1;
    let done = |req_id, owner, gave_up| DhtMsg::LookupDone {
        req_id,
        owner,
        hops: 1,
        gave_up,
    };
    assert_eq!(pings.len(), 3);

    // LookupDone to the slot's current member: no change.
    actor.deliver(&mut drv, ActorId(3), done(req(t[2]), c_, false));
    assert_table(&actor, &all, &[a_.id, c_.id, succ.id]);
    // A lookup that gave up writes nothing.
    actor.deliver(&mut drv, ActorId(2), done(req(t[1]), b_, true));
    assert_table(&actor, &all, &[a_.id, c_.id, succ.id]);
    // LookupDone to a new member: slot t0 moves from a to b.
    actor.deliver(&mut drv, ActorId(2), done(req(t[0]), b_, false));
    assert_table(&actor, &all, &[b_.id, c_.id, succ.id]);

    // Pong refresh: c answers the t1 probe with a new descriptor, which
    // replaces slot t1's — and, t1 being c's first slot, the table's.
    let fresh_c = Member {
        upload_kbps: c_.upload_kbps + 1.0,
        ..c_
    };
    actor.deliver(
        &mut drv,
        ActorId(3),
        DhtMsg::Pong {
            req_id: pings[1],
            member: fresh_c,
        },
    );
    assert_table(&actor, &all, &[b_.id, c_.id, succ.id]);
    assert_eq!(actor.neighbor_members()[1], fresh_c);
    // A late Pong from a, whose slot t0 was re-resolved to b meanwhile,
    // must not clobber it.
    actor.deliver(
        &mut drv,
        ActorId(1),
        DhtMsg::Pong {
            req_id: pings[0],
            member: a_,
        },
    );
    assert_table(&actor, &all, &[b_.id, c_.id, succ.id]);

    // c never answers its t2 probe (strike 1), nor the t1 probe of round
    // 2 (strike 2): round 3 evicts c from both its slots.
    actor.deliver_timer(&mut drv, fix_fingers);
    actor.deliver_timer(&mut drv, fix_fingers);
    assert_table(&actor, &[tv[0], tv[3], extra], &[b_.id, succ.id]);

    // The only successor stays silent: the fourth strike reseeds it from
    // the nearest clockwise neighbor and evicts it from its slot.
    for _ in 0..5 {
        actor.deliver_timer(&mut drv, stabilize);
    }
    assert_eq!(actor.successor(), Some(&b_));
    assert_table(&actor, &[tv[0], extra], &[b_.id]);
}
