//! Integration tests for the live (discrete-event) overlay: convergence,
//! joins, failure repair, and multicast under churn.

use cam::overlay::dynamic::{DhtActor, DhtMsg, DynamicNetwork};
use cam::prelude::*;
use cam::ring::{IdMap, IdSet};
use cam::sim::time::Duration;
use cam::sim::LatencyModel;

fn members(n: usize, seed: u64) -> Vec<Member> {
    Scenario::paper_default(seed)
        .with_n(n)
        .members()
        .iter()
        .collect()
}

fn wan() -> LatencyModel {
    LatencyModel::Uniform {
        min: Duration::from_millis(20),
        max: Duration::from_millis(80),
    }
}

#[test]
fn converged_network_multicasts_completely() {
    for region_split in [true, false] {
        let m = members(300, 1);
        let mut net = if region_split {
            run_multicast(
                DynamicNetwork::converged(IdSpace::PAPER, &m, CamChordProtocol, 1, wan()),
                true,
            )
        } else {
            run_multicast(
                DynamicNetwork::converged(IdSpace::PAPER, &m, CamKoordeProtocol, 1, wan()),
                false,
            )
        };
        let (ratio, hops) = net.pop().unwrap();
        assert!(ratio > 0.999, "region_split={region_split}: {ratio}");
        assert!(hops > 0.0 && hops < 15.0, "mean hops {hops}");
    }
}

fn run_multicast<P: cam::overlay::dynamic::DhtProtocol>(
    mut net: DynamicNetwork<P>,
    region_split: bool,
) -> Vec<(f64, f64)> {
    let source = net.actors()[0].1;
    let payload = net.start_multicast(source, region_split);
    net.sim.run_until(net.sim.now() + Duration::from_secs(20));
    vec![(net.delivery_ratio(payload), net.mean_hops(payload))]
}

#[test]
fn ring_self_heals_after_crashes() {
    let m = members(400, 2);
    let mut net = DynamicNetwork::converged(IdSpace::PAPER, &m, CamChordProtocol, 2, wan());
    let source = net.actors()[0].1;
    let killed = net.kill_random(60, source, 0xF00D);
    assert_eq!(killed, 60);

    // Let maintenance repair successors, predecessors, and fingers.
    net.sim.run_until(net.sim.now() + Duration::from_secs(120));

    // Every live node's successor must be live, and multicast is complete.
    let live: IdSet<u64> = net.live_members().iter().map(|m| m.id.value()).collect();
    for (_, a) in net.actors() {
        if let Some(actor) = net.sim.actor(*a) {
            let succ = actor.successor().expect("successor after repair");
            assert!(
                live.contains(&succ.id.value()),
                "stale successor {} survived repair",
                succ.id
            );
        }
    }
    let payload = net.start_multicast(source, true);
    net.sim.run_until(net.sim.now() + Duration::from_secs(20));
    assert!(
        net.delivery_ratio(payload) > 0.99,
        "post-repair delivery {:.3}",
        net.delivery_ratio(payload)
    );
}

#[test]
fn flooding_survives_crashes_without_repair() {
    let m = members(400, 3);
    let mut net = DynamicNetwork::converged(IdSpace::PAPER, &m, CamKoordeProtocol, 3, wan());
    let source = net.actors()[0].1;
    net.kill_random(60, source, 0xBEEF); // 15%
    let payload = net.start_multicast(source, false);
    net.sim.run_until(net.sim.now() + Duration::from_secs(20));
    assert!(
        net.delivery_ratio(payload) > 0.80,
        "flooding should route around crashes: {:.3}",
        net.delivery_ratio(payload)
    );
}

#[test]
fn node_join_integrates_into_ring() {
    let m = members(100, 4);
    let space = IdSpace::PAPER;
    let mut net = DynamicNetwork::converged(space, &m, CamChordProtocol, 4, wan());

    // A brand-new member joins through a bootstrap node.
    let newcomer = Member {
        id: Id(424_242 % space.size()),
        capacity: 6,
        upload_kbps: 800.0,
    };
    assert!(
        !m.iter().any(|x| x.id == newcomer.id),
        "fresh identifier required"
    );
    let actor = DhtActor::new(space, newcomer, CamChordProtocol);
    let new_actor_id = net.sim.add_actor(actor);
    // Everyone learns the newcomer's address (directory = address book).
    let pairs: Vec<_> = net.actors().to_vec();
    for (_, a) in &pairs {
        if let Some(existing) = net.sim.actor_mut(*a) {
            existing.add_directory_entry(newcomer.id, new_actor_id);
        }
    }
    // Newcomer needs the full directory too.
    let directory: IdMap<u64, cam::sim::engine::ActorId> = pairs
        .iter()
        .map(|(m, a)| (m.id.value(), *a))
        .chain([(newcomer.id.value(), new_actor_id)])
        .collect();
    net.sim
        .actor_mut(new_actor_id)
        .unwrap()
        .set_directory(directory);

    // Kick off the join via a bootstrap member.
    let bootstrap = pairs[0].1;
    net.sim.post(
        new_actor_id,
        bootstrap,
        DhtMsg::JoinRequest {
            joiner: newcomer,
            joiner_actor: new_actor_id,
        },
    );
    net.sim.run_until(net.sim.now() + Duration::from_secs(60));

    let joined = net.sim.actor(new_actor_id).unwrap();
    assert!(joined.is_joined(), "join never completed");
    let succ = joined.successor().expect("has a successor");
    // The successor must be the ring-correct one.
    let mut ids: Vec<u64> = m.iter().map(|x| x.id.value()).collect();
    ids.sort_unstable();
    let expected = ids
        .iter()
        .copied()
        .find(|&v| v > newcomer.id.value())
        .unwrap_or(ids[0]);
    assert_eq!(succ.id.value(), expected, "joined at the wrong position");

    // And the predecessor-side link forms via notify/stabilize, so the
    // newcomer receives multicasts.
    let source = pairs[1].1;
    let payload = net.start_multicast(source, true);
    net.sim.run_until(net.sim.now() + Duration::from_secs(30));
    assert!(
        net.sim
            .actor(new_actor_id)
            .unwrap()
            .payload_hops(payload)
            .is_some(),
        "newcomer missed the multicast"
    );
}

#[test]
fn deterministic_dynamic_runs() {
    let run = |seed: u64| {
        let m = members(150, seed);
        let mut net =
            DynamicNetwork::converged(IdSpace::PAPER, &m, CamChordProtocol, seed, wan());
        let source = net.actors()[0].1;
        net.kill_random(20, source, seed);
        let payload = net.start_multicast(source, true);
        net.sim.run_until(net.sim.now() + Duration::from_secs(30));
        (
            net.delivery_ratio(payload),
            net.sim.stats().sent,
            net.sim.stats().delivered,
        )
    };
    assert_eq!(run(9), run(9), "same seed, same trace");
}

#[test]
fn payload_bytes_arrive_intact_everywhere() {
    // End-to-end integrity: application bytes delivered by the live
    // overlay hash identically at every member (header/body separation of
    // §4.3: duplicate suppression keys on the header only).
    let m = members(200, 11);
    let mut net = DynamicNetwork::converged(IdSpace::PAPER, &m, CamChordProtocol, 11, wan());
    let source = net.actors()[0].1;
    let body: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let digest = cam::ring::sha1::Sha1::digest(&body);
    let payload = net.start_multicast_with_data(source, true, bytes::Bytes::from(body));
    net.sim.run_until(net.sim.now() + Duration::from_secs(20));
    assert!(net.delivery_ratio(payload) > 0.999);
    for (_, a) in net.actors() {
        let actor = net.sim.actor(*a).unwrap();
        let data = actor.payload_data(payload).expect("delivered everywhere");
        assert_eq!(cam::ring::sha1::Sha1::digest(data), digest, "corrupt body");
    }
}

#[test]
fn anti_entropy_repairs_lossy_multicast() {
    // 15% message loss cripples region-split multicast; anti-entropy pull
    // gossip converges delivery back to 100% (the pbcast pattern).
    let m = members(250, 13);
    let mut net = DynamicNetwork::converged(IdSpace::PAPER, &m, CamChordProtocol, 13, wan());
    net.sim.set_loss_probability(0.15);
    let source = net.actors()[0].1;

    // Without repair: losses cut whole subtrees.
    let lossy = net.start_multicast(source, true);
    net.sim.run_until(net.sim.now() + Duration::from_secs(15));
    let before = net.delivery_ratio(lossy);
    assert!(before < 0.999, "loss should visibly hurt: {before:.3}");

    // Enable anti-entropy and let the epidemic close the gaps.
    net.enable_anti_entropy();
    net.sim.run_until(net.sim.now() + Duration::from_secs(90));
    let after = net.delivery_ratio(lossy);
    assert!(
        after > 0.999,
        "anti-entropy should converge to full delivery: {before:.3} → {after:.3}"
    );
}
