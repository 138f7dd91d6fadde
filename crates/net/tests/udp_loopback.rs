//! End-to-end integration over real loopback UDP: a 32-node CAM-Chord
//! cluster (24 bootstrap-seeded, 8 joining over the wire) on one
//! multiplexed socket converges and a multicast reaches every live node as
//! real kernel datagrams, several frames to a datagram.
//!
//! Real sockets and real time, so the test uses generous internal
//! deadlines but normally finishes in a few wall-clock seconds.

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_net::mux::MuxUdpTransport;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_overlay::Member;
use cam_ring::{Id, IdSet, IdSpace};
use cam_sim::rng::SimRng;
use cam_sim::Duration;

const SPACE: IdSpace = IdSpace::PAPER;
const TOTAL: usize = 32;
const SEEDED: usize = 24;

fn members(n: usize, seed: u64) -> Vec<Member> {
    let mut rng = SimRng::new(seed).split(0xD06);
    let mut ids = IdSet::default();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = rng.uniform_incl(0, SPACE.size() - 1);
        if ids.insert(id) {
            out.push(Member::with_capacity(
                Id(id),
                rng.uniform_incl(2, 10) as u32,
            ));
        }
    }
    out
}

#[test]
fn thirty_two_nodes_bootstrap_join_and_multicast_over_loopback_udp() {
    let all = members(TOTAL, 2005);
    let transport = MuxUdpTransport::bind(TOTAL).expect("bind the loopback socket");
    let mut cluster = Cluster::converged(
        SPACE,
        &all[..SEEDED],
        CamChordProtocol,
        2005,
        transport,
        RetransmitPolicy::default(),
    );
    // Fast maintenance so convergence takes wall-clock seconds.
    cluster.set_maintenance_period(Duration::from_millis(50));

    // Let the seeded core exchange a couple of stabilization rounds.
    cluster.run_for(Duration::from_millis(300));

    // Join the remaining 8 over the wire, through the live protocol.
    for m in &all[SEEDED..] {
        assert!(
            cluster.join_and_wait(*m, Duration::from_millis(250), Duration::from_secs(10)),
            "join of {:?} did not complete over UDP",
            m.id
        );
    }
    assert_eq!(cluster.len(), TOTAL);
    for i in 0..TOTAL {
        assert!(
            cluster.node(i).actor().is_joined(),
            "node {i} not joined after bootstrap"
        );
    }

    // Let stabilization absorb the joiners into rings and fingers.
    cluster.run_for(Duration::from_secs(2));

    // One multicast from a seeded node must reach all 32 live nodes.
    let payload = cluster.start_multicast(0, true, Bytes::from(vec![0x42u8; 512]));
    let done = cluster.run_until(Duration::from_secs(20), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    assert!(
        done,
        "delivery over UDP stalled at {:.3}",
        cluster.delivery_ratio(payload)
    );
    assert_eq!(cluster.delivery_ratio(payload), 1.0);
    assert!(cluster.max_hops(payload) >= 1);

    let c = cluster.counters();
    assert!(c.bytes_sent > 0 && c.bytes_received > 0);
    assert!(c.frames_decoded > 0);
    assert_eq!(
        c.frames_rejected + c.encode_oversize,
        0,
        "every datagram on the wire is one of ours and well-formed"
    );
    // The wire loop ships what one drained batch produced as one datagram,
    // so datagrams carry many frames: ~14 here. Packing only what a single
    // handled frame or timer pass produced (a per-frame flush) reads < 2,
    // and one frame per datagram reads 1.
    let d = cluster.transport().datagrams();
    let per_datagram = c.frames_decoded as f64 / d.received.max(1) as f64;
    assert!(
        per_datagram > 4.0,
        "{} frames in {} datagrams: the wire loop stopped coalescing",
        c.frames_decoded,
        d.received
    );
}
