//! Distributing a file to a live overlay with integrity checking.
//!
//! Shows the application-payload path end to end: a 48 KiB blob rides a
//! CAM-Chord region multicast across a `Cluster` on the virtual-time
//! in-memory wire (20–80 ms links); every member verifies the SHA-1 of
//! what it received; then 10% of the swarm crashes and the
//! re-distribution still completes after self-healing.
//!
//! The blob travels in one frame, and a frame holds at most
//! [`MAX_FRAME`](cam::net::MAX_FRAME) = 60 KiB, header included: a larger
//! payload is counted as `encode_oversize` and never sent. 48 KiB leaves
//! the multicast header ample room.
//!
//! ```text
//! cargo run --release --example file_distribution
//! ```

use cam::net::{Cluster, InMemoryTransport, RetransmitPolicy, Transport};
use cam::overlay::dynamic::DhtProtocol;
use cam::prelude::*;
use cam::ring::sha1::Sha1;
use cam::sim::time::Duration;
use cam::sim::LatencyModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const BLOB_BYTES: u32 = 48 * 1024;

fn main() {
    let n = 500;
    let members: Vec<Member> = Scenario::paper_default(77)
        .with_n(n)
        .members()
        .iter()
        .collect();
    let wire = InMemoryTransport::new(
        n,
        77,
        LatencyModel::Uniform {
            min: Duration::from_millis(20),
            max: Duration::from_millis(80),
        },
    );
    let mut cluster = Cluster::converged(
        IdSpace::PAPER,
        &members,
        CamChordProtocol,
        77,
        wire,
        RetransmitPolicy::default(),
    );

    // The "file": structured bytes, hashed for verification.
    let blob: Vec<u8> = (0..BLOB_BYTES)
        .map(|i| (i.wrapping_mul(31) % 256) as u8)
        .collect();
    let digest = Sha1::digest(&blob);
    println!(
        "distributing {} KiB blob (sha1 {}) to {n} members",
        BLOB_BYTES / 1024,
        Sha1::to_hex(&digest)
    );

    let source = 0;
    let payload = cluster.start_multicast(source, true, bytes::Bytes::from(blob.clone()));
    cluster.run_for(Duration::from_secs(15));

    let verified = count_verified(&cluster, payload, &digest);
    println!(
        "round 1: delivered {:.1}%, {verified}/{n} members verified the hash",
        cluster.delivery_ratio(payload) * 100.0
    );
    assert_eq!(verified, n, "every member must hold an intact copy");

    // Crash 10% of the swarm (never the source), let maintenance repair,
    // redistribute.
    let mut victims: Vec<usize> = (0..n).filter(|&i| i != source).collect();
    victims.shuffle(&mut rand::rngs::StdRng::seed_from_u64(0xD15C));
    victims.truncate(n / 10);
    for &v in &victims {
        cluster.kill(v);
    }
    println!("crashed {} members; repairing…", victims.len());
    cluster.run_for(Duration::from_secs(120));

    let payload2 = cluster.start_multicast(source, true, bytes::Bytes::from(blob));
    cluster.run_for(Duration::from_secs(15));
    let live = cluster.core().live_nodes();
    let verified2 = count_verified(&cluster, payload2, &digest);
    println!(
        "round 2: delivered {:.1}% of {live} survivors, {verified2} verified",
        cluster.delivery_ratio(payload2) * 100.0
    );
}

fn count_verified<P: DhtProtocol, T: Transport>(
    cluster: &Cluster<P, T>,
    payload: u64,
    digest: &[u8; 20],
) -> usize {
    (0..cluster.len())
        .map(|i| cluster.node(i))
        .filter(|node| node.is_alive())
        .filter(|node| {
            node.actor()
                .payload_data(payload)
                .is_some_and(|data| &Sha1::digest(data) == digest)
        })
        .count()
}
