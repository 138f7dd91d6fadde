//! Multi-group pub/sub end-to-end: the sim and wire hosts replay the same
//! seeded workload and must produce *bit-identical* per-group delivery
//! censuses; the service-layer registry scales the global capacity bound
//! to 1,000 groups over a 10,000-node universe.

use bytes::Bytes;
use cam::net::runtime::{Cluster, RetransmitPolicy};
use cam::net::transport::InMemoryTransport;
use cam::overlay::dynamic::{DhtActor, DynamicNetwork};
use cam::prelude::*;
use cam::pubsub::GroupRegistry;
use cam::sim::time::Duration;
use cam::sim::LatencyModel;
use cam::trace::GroupDeliveryCensus;
use cam::workload::{GroupOp, MultiGroupScenario};

const N: usize = 32;
const SEED: u64 = 91;

fn members() -> Vec<Member> {
    Scenario::paper_default(SEED)
        .with_n(N)
        .members()
        .iter()
        .collect()
}

/// One seeded Zipf workload, replayed on the event-sim host and the wire
/// host: subscriptions land on the same members, publishes traverse each
/// host's own transport, and the per-group censuses come out equal —
/// field for field, group for group.
#[test]
fn sim_and_wire_hosts_agree_on_per_group_census() {
    let members = members();
    let mut ring_order = members.clone();
    ring_order.sort_by_key(|m| m.id);

    let mut net = DynamicNetwork::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        SEED,
        LatencyModel::default_wan(),
    );
    let mut cluster = Cluster::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        SEED,
        InMemoryTransport::new(N, SEED, LatencyModel::default_wan()),
        RetransmitPolicy::default(),
    );

    // Cluster node order is ring order; resolve the same identity on the
    // sim host by member id.
    let sim_actor = |net: &DynamicNetwork<CamChordProtocol>, node: usize| {
        net.actors()
            .iter()
            .find(|(m, _)| m.id == ring_order[node].id)
            .expect("member exists on both hosts")
            .1
    };

    let ops = MultiGroupScenario::new(N, 8, SEED).zipf_subscriptions(96);
    let mut groups: Vec<u64> = Vec::new();
    let mut subscribers: std::collections::BTreeMap<u64, std::collections::BTreeSet<usize>> =
        std::collections::BTreeMap::new();
    for op in &ops {
        match *op {
            GroupOp::Create { group } => groups.push(group),
            GroupOp::Subscribe { group, node } => {
                let actor = sim_actor(&net, node);
                net.sim.actor_mut(actor).expect("alive").subscribe(group);
                cluster.actor_mut(node).expect("alive").subscribe(group);
                subscribers.entry(group).or_default().insert(node);
            }
            GroupOp::Unsubscribe { group, node } => {
                let actor = sim_actor(&net, node);
                net.sim.actor_mut(actor).expect("alive").unsubscribe(group);
                cluster.actor_mut(node).expect("alive").unsubscribe(group);
                subscribers.entry(group).or_default().remove(&node);
            }
            GroupOp::Publish { .. } => {}
        }
    }

    // One publish per group, from the same node-0 source on both hosts.
    let mut sim_pubs: Vec<(u64, u64)> = Vec::new();
    let mut wire_pubs: Vec<(u64, u64)> = Vec::new();
    for &g in &groups {
        let src = sim_actor(&net, 0);
        sim_pubs.push((g, net.start_group_publish(src, g, true)));
        wire_pubs.push((g, cluster.start_group_publish(0, g, true, Bytes::new())));
    }
    net.sim.run_until(net.sim.now() + Duration::from_secs(10));
    cluster.run_for(Duration::from_secs(10));

    let sim_census = net.group_delivery_census(&sim_pubs);
    let wire_census = cluster.group_delivery_census(&wire_pubs);

    // Every subscribed group fully delivered on both hosts (a group the
    // Zipf tail left empty is observed by nobody), and the censuses are
    // structurally identical — same groups, same live counts, same
    // delivered counts.
    let populated: Vec<u64> = subscribers
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(&g, _)| g)
        .collect();
    assert!(populated.len() >= 4, "workload too sparse to mean anything");
    for &g in &populated {
        assert_eq!(sim_census.ratio(g), 1.0, "sim group {g} incomplete");
        assert_eq!(
            sim_census.group(g).expect("observed").live(),
            subscribers[&g].len() as u64,
            "group {g} census covers exactly its subscribers"
        );
    }
    assert_eq!(sim_census, wire_census);
    assert_eq!(sim_census.len(), populated.len());
}

/// The operations the merged-forwarding-path tests below need from a host,
/// with nodes addressed by ring position on both.
trait Host {
    fn settle(&mut self, span: Duration);
    /// Plain region-split multicast from `source`; returns the payload id.
    fn multicast(&mut self, source: usize) -> u64;
    /// Region-split publish to `group` from `source`; returns the payload id.
    fn publish(&mut self, source: usize, group: u64) -> u64;
    fn actor(&self, node: usize) -> &DhtActor<CamChordProtocol>;
    fn actor_mut(&mut self, node: usize) -> &mut DhtActor<CamChordProtocol>;
}

impl Host for DynamicNetwork<CamChordProtocol> {
    fn settle(&mut self, span: Duration) {
        self.sim.run_until(self.sim.now() + span);
    }
    fn multicast(&mut self, source: usize) -> u64 {
        let actor = self.actors()[source].1;
        self.start_multicast(actor, true)
    }
    fn publish(&mut self, source: usize, group: u64) -> u64 {
        let actor = self.actors()[source].1;
        self.start_group_publish(actor, group, true)
    }
    fn actor(&self, node: usize) -> &DhtActor<CamChordProtocol> {
        self.sim
            .actor(self.actors()[node].1)
            .expect("node is alive")
    }
    fn actor_mut(&mut self, node: usize) -> &mut DhtActor<CamChordProtocol> {
        let actor = self.actors()[node].1;
        self.sim.actor_mut(actor).expect("node is alive")
    }
}

impl Host for Cluster<CamChordProtocol, InMemoryTransport> {
    fn settle(&mut self, span: Duration) {
        self.run_for(span);
    }
    fn multicast(&mut self, source: usize) -> u64 {
        self.start_multicast(source, true, Bytes::new())
    }
    fn publish(&mut self, source: usize, group: u64) -> u64 {
        self.start_group_publish(source, group, true, Bytes::new())
    }
    fn actor(&self, node: usize) -> &DhtActor<CamChordProtocol> {
        self.node(node).actor()
    }
    fn actor_mut(&mut self, node: usize) -> &mut DhtActor<CamChordProtocol> {
        Cluster::actor_mut(self, node).expect("node is alive")
    }
}

/// A converged CAM-Chord ring on each host, nodes in ring order.
fn both_hosts() -> [Box<dyn Host>; 2] {
    let members = members();
    [
        Box::new(DynamicNetwork::converged(
            IdSpace::PAPER,
            &members,
            CamChordProtocol,
            SEED,
            LatencyModel::default_wan(),
        )),
        Box::new(Cluster::converged(
            IdSpace::PAPER,
            &members,
            CamChordProtocol,
            SEED,
            InMemoryTransport::new(N, SEED, LatencyModel::default_wan()),
            RetransmitPolicy::default(),
        )),
    ]
}

/// A plain multicast from node 0, run to quiescence; returns every node's
/// arrival hop count.
fn plain_multicast_hops(host: &mut dyn Host) -> Vec<u32> {
    let payload = host.multicast(0);
    host.settle(Duration::from_secs(10));
    (0..N)
        .map(|i| {
            host.actor(i)
                .payload_hops(payload)
                .expect("plain multicast reaches every node")
        })
        .collect()
}

/// Grouped and ungrouped payloads share one forwarding routine: a group
/// that *every* node subscribes to must reach each node with exactly the
/// hop count of a plain multicast from the same source on the same ring.
#[test]
fn all_subscriber_group_matches_plain_multicast_hop_for_hop() {
    const GROUP: u64 = 7;
    for mut host in both_hosts() {
        let host = host.as_mut();
        let plain = plain_multicast_hops(host);
        assert!(
            plain.iter().any(|&h| h >= 2),
            "tree too shallow to mean anything"
        );

        for node in 0..N {
            host.actor_mut(node).subscribe(GROUP);
        }
        let publish = host.publish(0, GROUP);
        host.settle(Duration::from_secs(10));

        for (node, &hops) in plain.iter().enumerate() {
            let actor = host.actor(node);
            assert_eq!(actor.payload_hops(publish), Some(hops), "node {node}");
            assert!(
                actor.group_received_log.contains(&(GROUP, publish, hops)),
                "node {node} is a subscriber and must deliver"
            );
        }
    }
}

/// Only the deepest node of the tree subscribes, so every forwarder on its
/// path is a non-subscriber: each must relay the publish (the subscriber
/// receives it, at its plain-multicast depth) without recording a
/// delivery of its own.
#[test]
fn non_subscribers_relay_a_publish_without_delivering_it() {
    const GROUP: u64 = 11;
    for mut host in both_hosts() {
        let host = host.as_mut();
        let plain = plain_multicast_hops(host);
        let (subscriber, &depth) = plain
            .iter()
            .enumerate()
            .max_by_key(|&(_, &h)| h)
            .expect("ring is non-empty");
        assert!(
            depth >= 2,
            "no interior forwarder between source and subscriber"
        );

        host.actor_mut(subscriber).subscribe(GROUP);
        let publish = host.publish(0, GROUP);
        host.settle(Duration::from_secs(10));

        for (node, &hops) in plain.iter().enumerate() {
            let actor = host.actor(node);
            assert_eq!(
                actor.payload_hops(publish),
                Some(hops),
                "node {node} relays on the plain-multicast tree"
            );
            assert_eq!(
                actor.has_group_payload(GROUP, publish),
                node == subscriber,
                "node {node}: only the subscriber delivers"
            );
            assert_eq!(actor.payload_data(publish).is_some(), node == subscriber);
            assert_eq!(
                actor.received_log.len(),
                1,
                "only the plain multicast is logged"
            );
        }
    }
}

/// A subscription is the node's own delivery filter and nothing more:
/// setting or clearing it sends no message on the sim host and encodes no
/// frame on the wire host, takes effect at once (no event has to run),
/// and works on a node whose join has not completed — joining the ring
/// and joining a group are separate.
#[test]
fn a_subscription_is_local_and_immediate() {
    const GROUP: u64 = 5;
    let members = members();
    let (&joiner, ring) = members.split_last().expect("ring is non-empty");
    let flip = |actor: &mut DhtActor<CamChordProtocol>| {
        assert!(!actor.is_subscribed(GROUP));
        actor.subscribe(GROUP);
        assert!(actor.is_subscribed(GROUP));
        actor.unsubscribe(GROUP);
        assert!(!actor.is_subscribed(GROUP));
        actor.subscribe(GROUP);
        assert!(actor.is_subscribed(GROUP));
    };

    let mut net = DynamicNetwork::converged(
        IdSpace::PAPER,
        ring,
        CamChordProtocol,
        SEED,
        LatencyModel::default_wan(),
    );
    let fresh = net.inject_join(joiner, CamChordProtocol).expect("fresh id");
    let sent = net.sim.stats().sent;
    for actor in [net.actors()[0].1, fresh] {
        flip(net.sim.actor_mut(actor).expect("alive"));
    }
    assert!(!net.sim.actor(fresh).expect("alive").is_joined());
    assert_eq!(net.sim.stats().sent, sent, "the sim host sent nothing");

    let mut cluster = Cluster::converged(
        IdSpace::PAPER,
        ring,
        CamChordProtocol,
        SEED,
        InMemoryTransport::new(N, SEED, LatencyModel::default_wan()),
        RetransmitPolicy::default(),
    );
    let fresh = cluster.join(joiner).expect("a free endpoint");
    let counters = cluster.counters();
    for node in [0, fresh] {
        flip(cluster.actor_mut(node).expect("alive"));
    }
    assert!(!cluster.node(fresh).actor().is_joined());
    assert_eq!(
        cluster.counters(),
        counters,
        "the wire host encoded nothing"
    );
}

/// Anti-entropy digests leave group publishes out, so a digest partner
/// must not read their absence as "missing" and push them back. On a
/// 16-node ring with anti-entropy on, 20 publishes nobody subscribes to
/// cost exactly their forwarding frames — the self-addressed origin plus
/// one frame per other node, each — over 20 s of digest rounds, and no
/// node logs one as an ungrouped delivery.
#[test]
fn anti_entropy_adds_no_traffic_for_group_publishes() {
    const NODES: usize = 16;
    const PUBLISHES: u64 = 20;
    let frames_sent = |publishes: u64| -> u64 {
        let members: Vec<Member> = Scenario::paper_default(SEED)
            .with_n(NODES)
            .members()
            .iter()
            .collect();
        let mut net = DynamicNetwork::converged(
            IdSpace::PAPER,
            &members,
            CamChordProtocol,
            SEED,
            LatencyModel::default_wan(),
        );
        net.enable_anti_entropy();
        let source = net.actors()[0].1;
        let plain = net.start_multicast(source, true);
        for _ in 0..publishes {
            net.start_group_publish(source, 99, true);
        }
        net.sim.run_until(net.sim.now() + Duration::from_secs(20));
        for &(_, a) in net.actors() {
            let actor = net.sim.actor(a).expect("no node dies");
            assert_eq!(
                actor.received_log,
                [(plain, actor.payload_hops(plain).unwrap())]
            );
        }
        net.sim.stats().sent
    };
    let quiet = frames_sent(0);
    assert_eq!(frames_sent(PUBLISHES) - quiet, PUBLISHES * NODES as u64);
}

/// Acceptance smoke: 1,000 groups over a 10,000-node universe through the
/// service-layer registry. Every group the registry holds publishes to
/// 100% of its subscribers, and no node's aggregate child count across
/// all 1,000 trees exceeds its declared capacity.
///
/// Release-mode only (`cargo test --release --test pubsub_multigroup --
/// --ignored pubsub_smoke`); the CI `pubsub-smoke` job runs exactly that.
#[test]
#[ignore = "release-scale smoke; run explicitly"]
fn pubsub_smoke_thousand_groups_ten_thousand_nodes() {
    let members: Vec<Member> = Scenario::paper_default(SEED)
        .with_n(10_000)
        .members()
        .iter()
        .collect();
    let universe = MemberSet::new(IdSpace::PAPER, members).expect("scenario members are valid");
    let mut reg = GroupRegistry::new(universe);

    let ops = MultiGroupScenario::new(10_000, 1_000, SEED).zipf_subscriptions(25_000);
    let mut census = GroupDeliveryCensus::new();
    let mut publishes = 0usize;
    for op in ops {
        match op {
            GroupOp::Create { group } => reg.create_group(group).expect("fresh id"),
            GroupOp::Subscribe { group, node } => {
                // A rejection leaves the group consistent; the census
                // below still must read 1.0 over the admitted members.
                let _ = reg.subscribe(group, node);
            }
            GroupOp::Unsubscribe { group, node } => {
                let _ = reg.unsubscribe(group, node);
            }
            GroupOp::Publish { group } => {
                reg.publish_census(group, &mut census)
                    .expect("group exists");
                publishes += 1;
            }
        }
    }

    assert_eq!(publishes, 1_000);
    // The Zipf tail leaves a handful of groups empty (an empty group's
    // publish observes nobody); the overwhelming majority must appear.
    assert!(
        census.len() > 900,
        "only {} of 1000 groups populated",
        census.len()
    );
    for (g, c) in census.iter() {
        assert_eq!(
            c.ratio(),
            1.0,
            "group {g}: {}/{} subscribers reached",
            c.delivered(),
            c.live()
        );
    }
    // The global bound: summed over all 1,000 trees, nobody forwards to
    // more children than its declared capacity.
    reg.ledger().verify().expect("no node overcommitted");
}
