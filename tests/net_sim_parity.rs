//! Sim and wire report traffic in the same units: installing the codec's
//! wire-cost function makes `SimStats` byte counters mean "bytes of
//! encoded frames", directly comparable with a real transport's counters.

use bytes::Bytes;
use cam::net::codec::{wire_cost, DATA_HEADER_LEN};
use cam::net::runtime::{Cluster, RetransmitPolicy};
use cam::net::transport::InMemoryTransport;
use cam::overlay::dynamic::DynamicNetwork;
use cam::prelude::*;
use cam::sim::time::Duration;
use cam::sim::LatencyModel;

const N: usize = 32;
const SEED: u64 = 77;

fn members() -> Vec<Member> {
    Scenario::paper_default(SEED)
        .with_n(N)
        .members()
        .iter()
        .collect()
}

#[test]
fn sim_byte_counters_follow_the_codec() {
    let members = members();
    let mut net = DynamicNetwork::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        SEED,
        LatencyModel::default_wan(),
    );
    net.sim.set_wire_cost(wire_cost);
    let source = net.actors()[0].1;
    let payload = net.start_multicast(source, true);
    net.sim.run_until(net.sim.now() + Duration::from_secs(10));

    let stats = net.sim.stats();
    assert_eq!(net.delivery_ratio(payload), 1.0);
    assert!(stats.bytes_sent > 0, "wire cost must be charged");
    assert!(stats.bytes_received <= stats.bytes_sent);
    // Every charged message costs at least a frame header, so the total
    // must dominate header-size × message-count.
    assert!(stats.bytes_sent >= stats.delivered * DATA_HEADER_LEN as u64);
}

#[test]
fn sim_and_wire_report_the_same_units() {
    let members = members();

    let mut net = DynamicNetwork::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        SEED,
        LatencyModel::default_wan(),
    );
    net.sim.set_wire_cost(wire_cost);
    let source = net.actors()[0].1;
    let sim_payload = net.start_multicast(source, true);
    net.sim.run_until(net.sim.now() + Duration::from_secs(5));

    let mut cluster = Cluster::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        SEED,
        InMemoryTransport::new(N, SEED, LatencyModel::default_wan()),
        RetransmitPolicy::default(),
    );
    let wire_payload = cluster.start_multicast(0, true, Bytes::new());
    cluster.run_for(Duration::from_secs(5));

    assert_eq!(net.delivery_ratio(sim_payload), 1.0);
    assert_eq!(cluster.delivery_ratio(wire_payload), 1.0);

    // Same protocol, same group, same clock span: the two accountings must
    // land in the same regime (the wire additionally carries acks and its
    // own maintenance chatter, so demand only order-of-magnitude parity).
    let sim_bytes = net.sim.stats().bytes_sent as f64;
    let wire_bytes = cluster.counters().bytes_sent as f64;
    assert!(sim_bytes > 0.0 && wire_bytes > 0.0);
    let ratio = sim_bytes / wire_bytes;
    assert!(
        (0.1..=10.0).contains(&ratio),
        "sim {sim_bytes} B vs wire {wire_bytes} B — not comparable units?"
    );
}

/// Both hosts now compute `delivery_ratio` through the one shared
/// [`cam::trace::DeliveryCensus`], so the same membership state yields the
/// *identical* number — including the rule that dead nodes are ignored
/// entirely, even when they received the payload before dying.
#[test]
fn delivery_ratio_follows_shared_census_rules_on_both_hosts() {
    let members = members();

    let mut net = DynamicNetwork::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        SEED,
        LatencyModel::default_wan(),
    );
    let source = net.actors()[0].1;
    let sim_payload = net.start_multicast(source, true);
    net.sim.run_until(net.sim.now() + Duration::from_secs(5));

    let mut cluster = Cluster::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        SEED,
        InMemoryTransport::new(N, SEED, LatencyModel::default_wan()),
        RetransmitPolicy::default(),
    );
    let wire_payload = cluster.start_multicast(0, true, Bytes::new());
    cluster.run_for(Duration::from_secs(5));

    // Full delivery on both hosts; an unknown payload reads 0 on both.
    assert_eq!(net.delivery_ratio(sim_payload), 1.0);
    assert_eq!(cluster.delivery_ratio(wire_payload), 1.0);
    assert_eq!(
        net.delivery_ratio(u64::MAX),
        cluster.delivery_ratio(u64::MAX)
    );

    // Kill the same three members on both hosts. Every victim already
    // holds the payload; the census excludes dead nodes from numerator
    // *and* denominator, so both ratios stay exactly 1.0.
    let mut sorted = members.clone();
    sorted.sort_by_key(|m| m.id);
    for &i in &[5usize, 12, 20] {
        assert!(net.remove_member(sorted[i].id), "victim must be live");
        cluster.kill(i); // cluster node order is ring order
    }
    assert_eq!(net.delivery_ratio(sim_payload), 1.0);
    assert_eq!(
        net.delivery_ratio(sim_payload),
        cluster.delivery_ratio(wire_payload)
    );

    // And each host's number is exactly what a census over its own actor
    // states says — no host-private denominator rules left.
    let mut census = cam::trace::DeliveryCensus::new();
    for i in 0..cluster.len() {
        let nd = cluster.node(i);
        census.observe(
            nd.is_alive(),
            nd.actor().payload_hops(wire_payload).is_some(),
        );
    }
    assert_eq!(census.ratio(), cluster.delivery_ratio(wire_payload));

    // The hop fold follows the same rule on both hosts: the victims leave
    // `mean_hops` (and the wire host's `max_hops`) with their copies of the
    // payload, exactly as they left the delivery ratio.
    let mean =
        |hops: &[u32]| hops.iter().map(|&h| f64::from(h)).sum::<f64>() / hops.len() as f64;
    let sim_live: Vec<u32> = net
        .actors()
        .iter()
        .filter_map(|&(_, a)| net.sim.actor(a)?.payload_hops(sim_payload))
        .collect();
    let wire_hops = |with_dead: bool| -> Vec<u32> {
        (0..cluster.len())
            .map(|i| cluster.node(i))
            .filter(|nd| with_dead || nd.is_alive())
            .filter_map(|nd| nd.actor().payload_hops(wire_payload))
            .collect()
    };
    let (wire_live, wire_all) = (wire_hops(false), wire_hops(true));
    assert_eq!((wire_live.len(), wire_all.len()), (N - 3, N));
    assert_ne!(
        mean(&wire_live),
        mean(&wire_all),
        "victims must move the mean"
    );
    assert_eq!(net.mean_hops(sim_payload), mean(&sim_live));
    assert_eq!(cluster.mean_hops(wire_payload), mean(&wire_live));
    assert_eq!(
        Some(cluster.max_hops(wire_payload)),
        wire_live.iter().copied().max()
    );
}
