//! Dynamic membership: crashes, repair, and multicast resilience.
//!
//! Runs a live CAM-Chord and CAM-Koorde overlay as a `Cluster` on the
//! virtual-time in-memory wire (acked, retransmitted payload frames, the
//! host a deployment runs), crash-kills 15% of the nodes, and multicasts
//! twice — once immediately (stale routing tables) and once after
//! stabilization has repaired the ring — printing delivery ratios. This is
//! the "resilient" part of the paper's title made observable.
//!
//! ```text
//! cargo run --release --example dynamic_membership
//! ```

use cam::net::{Cluster, InMemoryTransport, RetransmitPolicy};
use cam::overlay::dynamic::DhtProtocol;
use cam::prelude::*;
use cam::sim::time::Duration;
use cam::sim::LatencyModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let n = 800;
    let members: Vec<Member> = Scenario::paper_default(21)
        .with_n(n)
        .members()
        .iter()
        .collect();

    println!("{n}-member overlays; crashing 15% of nodes, then repairing\n");
    run_protocol("CAM-Chord (region trees)", CamChordProtocol, &members, true);
    run_protocol("CAM-Koorde (flooding)", CamKoordeProtocol, &members, false);
}

fn run_protocol<P: DhtProtocol>(
    label: &str,
    protocol: P,
    members: &[Member],
    region_split: bool,
) {
    let latency = LatencyModel::Uniform {
        min: Duration::from_millis(20),
        max: Duration::from_millis(80),
    };
    let wire = InMemoryTransport::new(members.len(), 5, latency);
    let mut cluster = Cluster::converged(
        IdSpace::PAPER,
        members,
        protocol,
        5,
        wire,
        RetransmitPolicy::default(),
    );
    let source = 0;
    let total = cluster.len();

    // Healthy multicast.
    let healthy = cluster.start_multicast(source, region_split, bytes::Bytes::new());
    cluster.run_for(Duration::from_secs(15));
    println!(
        "{label}: healthy delivery {:.1}% (mean {:.2} hops)",
        cluster.delivery_ratio(healthy) * 100.0,
        cluster.mean_hops(healthy)
    );

    // Crash 15% of the nodes (never the source) and multicast before
    // anything is repaired.
    let mut victims: Vec<usize> = (0..total).filter(|&i| i != source).collect();
    victims.shuffle(&mut rand::rngs::StdRng::seed_from_u64(0xBAD));
    victims.truncate(total * 15 / 100);
    for &v in &victims {
        cluster.kill(v);
    }
    let degraded = cluster.start_multicast(source, region_split, bytes::Bytes::new());
    cluster.run_for(Duration::from_secs(15));
    println!(
        "{label}: after {} crashes, immediate delivery {:.1}%",
        victims.len(),
        cluster.delivery_ratio(degraded) * 100.0
    );

    // Let periodic stabilization repair successors and fingers.
    cluster.run_for(Duration::from_secs(90));
    let repaired = cluster.start_multicast(source, region_split, bytes::Bytes::new());
    cluster.run_for(Duration::from_secs(15));
    let wire = cluster.counters();
    println!(
        "{label}: after repair, delivery {:.1}%  (wire: {} frames sent, {} retransmitted)\n",
        cluster.delivery_ratio(repaired) * 100.0,
        wire.frames_encoded,
        wire.frames_retransmitted
    );
}
