//! Integration tests for the node runtime over the deterministic
//! in-memory transport: multicast delivery with and without frame loss,
//! join over the wire, and bit-for-bit reproducibility under a fixed seed.

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_core::cam_koorde::CamKoordeProtocol;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_net::transport::InMemoryTransport;
use cam_overlay::dynamic::DhtProtocol;
use cam_overlay::Member;
use cam_ring::{Id, IdSet, IdSpace};
use cam_sim::rng::SimRng;
use cam_sim::{Duration, LatencyModel};
use cam_trace::{EventKind, RecordingTracer};

const SPACE: IdSpace = IdSpace::PAPER;

/// Deterministic unique members with the paper's capacity range.
fn members(n: usize, seed: u64) -> Vec<Member> {
    let mut rng = SimRng::new(seed).split(0x7E57);
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

fn wan_transport(endpoints: usize, seed: u64, loss: f64) -> InMemoryTransport {
    let mut t = InMemoryTransport::new(endpoints, seed, LatencyModel::default_wan());
    t.set_loss_probability(loss);
    t
}

fn converged<P: DhtProtocol>(
    n: usize,
    protocol: P,
    seed: u64,
    loss: f64,
) -> Cluster<P, InMemoryTransport> {
    Cluster::converged(
        SPACE,
        &members(n, seed),
        protocol,
        seed,
        wan_transport(n, seed, loss),
        RetransmitPolicy::default(),
    )
}

#[test]
fn chord_multicast_reaches_every_node_without_loss() {
    let mut cluster = converged(32, CamChordProtocol, 11, 0.0);
    cluster.run_for(Duration::from_secs(2)); // a few maintenance rounds
    let payload = cluster.start_multicast(0, true, Bytes::from(vec![1u8; 512]));
    let done = cluster.run_until(Duration::from_secs(10), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    assert!(
        done,
        "delivery stalled at {}",
        cluster.delivery_ratio(payload)
    );
    assert!(cluster.mean_hops(payload) >= 1.0);
    let c = cluster.counters();
    assert!(c.frames_decoded > 0);
    assert_eq!(c.frames_rejected, 0, "no malformed frames on a clean wire");
    assert_eq!(c.encode_oversize, 0, "every message fits one frame");
    assert_eq!(c.frames_dropped, 0);
    // Maintenance chatter is perpetual, so some frames are always still in
    // flight — but a lossless wire never loses bytes, only delays them.
    assert!(c.bytes_received <= c.bytes_sent);
    assert!(c.bytes_received > 0);
}

/// The headline resilience property: with 20% of frames lost, the
/// ack/retransmit layer still gets the multicast to every node — and the
/// whole run is deterministic under a fixed seed.
#[test]
fn koorde_multicast_survives_twenty_percent_loss_deterministically() {
    let run = || {
        let mut cluster = converged(32, CamKoordeProtocol, 97, 0.2);
        cluster.run_for(Duration::from_secs(1));
        let payload = cluster.start_multicast(3, false, Bytes::from(vec![9u8; 256]));
        let done = cluster.run_until(Duration::from_secs(60), |c| {
            c.delivery_ratio(payload) >= 1.0
        });
        assert!(
            done,
            "delivery stalled at {} despite retransmits",
            cluster.delivery_ratio(payload)
        );
        // Settle in-flight retransmissions/acks for stable counters.
        cluster.run_for(Duration::from_secs(5));
        let hops: Vec<Option<u32>> = (0..cluster.len())
            .map(|i| cluster.node(i).actor().payload_hops(payload))
            .collect();
        (cluster.now(), cluster.counters(), hops)
    };
    let (t1, c1, h1) = run();
    assert!(c1.frames_dropped > 0, "the lossy wire must actually drop");
    assert!(
        c1.frames_retransmitted > 0,
        "recovery must come from retransmission"
    );
    let (t2, c2, h2) = run();
    assert_eq!(t1, t2, "same seed, same virtual timeline");
    assert_eq!(c1, c2, "same seed, same wire counters");
    assert_eq!(h1, h2, "same seed, same per-node hop counts");
}

/// The tracing acceptance scenario: a 32-node cluster on a 20%-lossy wire
/// with a [`RecordingTracer`] installed yields a Chrome-trace export that
/// shows the resilience machinery working — retransmissions on the wire
/// and duplicate suppression in the actors — plus unified wire counters.
#[test]
fn lossy_run_records_retransmits_and_duplicate_suppression() {
    let mut cluster = converged(32, CamKoordeProtocol, 97, 0.2);
    cluster.set_tracer(Box::new(RecordingTracer::new()));
    cluster.run_for(Duration::from_secs(1));
    let payload = cluster.start_multicast(3, false, Bytes::from(vec![9u8; 256]));
    let done = cluster.run_until(Duration::from_secs(60), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    assert!(done, "delivery stalled despite retransmits");
    cluster.run_for(Duration::from_secs(5));
    cluster.kill(7);
    cluster.export_telemetry();

    let counters = cluster.counters();
    let boxed = cluster.take_tracer();
    let rec = boxed.as_recording().expect("recording tracer installed");
    assert!(rec.count("retransmit") > 0, "lossy wire must retransmit");
    assert!(
        rec.count("duplicate_suppress") > 0,
        "constrained flooding + redelivery must hit duplicate suppression"
    );
    assert!(
        rec.count("multicast_receive") >= 31,
        "every non-source node receives once"
    );
    assert_eq!(rec.count("crash"), 1);
    assert_eq!(rec.dropped(), 0, "default capacity must hold this run");

    // The registry snapshot mirrors the transport's counters exactly.
    assert_eq!(
        rec.registry().counter("wire.frames_retransmitted"),
        counters.frames_retransmitted
    );
    assert_eq!(rec.registry().gauge("cluster.live_nodes"), Some(31));

    // Both exports carry the events a human would go looking for.
    let json = rec.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"retransmit\""));
    assert!(json.contains("\"duplicate_suppress\""));
    let report = rec.text_report();
    assert!(report.contains("retransmit"));
    assert!(report.contains("wire.frames_retransmitted"));
}

/// Tracing must not disturb the protocol: the same seeded run with and
/// without a recording tracer produces the identical virtual timeline and
/// wire counters.
#[test]
fn recording_tracer_does_not_perturb_the_run() {
    let run = |trace: bool| {
        let mut cluster = converged(16, CamChordProtocol, 41, 0.1);
        if trace {
            cluster.set_tracer(Box::new(RecordingTracer::new()));
        }
        cluster.run_for(Duration::from_secs(1));
        let payload = cluster.start_multicast(0, true, Bytes::from(vec![4u8; 64]));
        cluster.run_until(Duration::from_secs(30), |c| {
            c.delivery_ratio(payload) >= 1.0
        });
        (cluster.now(), cluster.counters())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn total_loss_defeats_even_retransmission() {
    let mut cluster = converged(16, CamChordProtocol, 5, 1.0);
    let payload = cluster.start_multicast(0, true, Bytes::from(vec![2u8; 64]));
    cluster.run_for(Duration::from_secs(30));
    let ratio = cluster.delivery_ratio(payload);
    assert!(
        ratio <= 1.0 / 16.0 + 1e-9,
        "only the source can hold the payload, got {ratio}"
    );
    let c = cluster.counters();
    assert!(c.frames_retransmitted > 0, "the sender kept trying");
    assert_eq!(c.bytes_received, 0, "nothing crosses a fully lossy wire");
    // Retransmission gives up after max_attempts: no unacked frame lives on.
    assert_eq!(cluster.node(0).unacked_frames(), 0);
}

#[test]
fn nodes_join_over_the_wire_and_receive_multicasts() {
    let mut cluster = Cluster::converged(
        SPACE,
        &members(8, 23),
        CamChordProtocol,
        23,
        wan_transport(12, 23, 0.0),
        RetransmitPolicy::default(),
    );
    cluster.run_for(Duration::from_secs(1));

    let joiners = [
        Member::with_capacity(Id(123_456), 4),
        Member::with_capacity(Id(404_321), 6),
    ];
    for m in joiners {
        assert!(
            cluster.join_and_wait(m, Duration::from_millis(500), Duration::from_secs(20)),
            "join of {:?} must complete",
            m.id
        );
    }
    assert_eq!(cluster.len(), 10);
    // Let stabilization weave the joiners into the ring and fingers.
    cluster.run_for(Duration::from_secs(30));

    let payload = cluster.start_multicast(9, true, Bytes::from(vec![7u8; 128]));
    let done = cluster.run_until(Duration::from_secs(20), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    assert!(
        done,
        "multicast from a joined node stalled at {}",
        cluster.delivery_ratio(payload)
    );
}

#[test]
fn killed_nodes_do_not_count_against_delivery() {
    let mut cluster = converged(16, CamChordProtocol, 31, 0.0);
    cluster.set_tracer(Box::new(RecordingTracer::new()));
    cluster.run_for(Duration::from_secs(2));
    assert!(cluster.kill(5));
    assert!(cluster.kill(11));
    assert!(!cluster.kill(5), "a dead node cannot be killed again");
    // Let failure detection notice before multicasting.
    cluster.run_for(Duration::from_secs(15));
    let payload = cluster.start_multicast(0, true, Bytes::from(vec![3u8; 32]));
    let done = cluster.run_until(Duration::from_secs(30), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    assert!(
        done,
        "live nodes stalled at {}",
        cluster.delivery_ratio(payload)
    );
    assert!(cluster.node(5).actor().payload_hops(payload).is_none());
    let trace = cluster.take_tracer();
    assert_eq!(trace.as_recording().unwrap().count("crash"), 2);
}

#[test]
#[should_panic(expected = "source must be alive")]
fn a_dead_node_cannot_originate() {
    let mut cluster = converged(8, CamChordProtocol, 3, 0.0);
    cluster.kill(2);
    cluster.start_multicast(2, true, Bytes::new());
}

/// `join_and_wait` holds its timeout to the cluster clock even when the
/// timeout is not a multiple of the retry period: on a wire that loses
/// everything the join cannot complete, and the call returns after
/// exactly `timeout` — not after the next whole retry slice.
#[test]
fn join_and_wait_gives_up_exactly_at_its_timeout() {
    let mut cluster = Cluster::converged(
        SPACE,
        &members(4, 13),
        CamChordProtocol,
        13,
        wan_transport(5, 13, 1.0),
        RetransmitPolicy::default(),
    );
    cluster.run_for(Duration::from_millis(250));
    let start = cluster.now();
    let joined = cluster.join_and_wait(
        Member::with_capacity(Id(777_777), 4),
        Duration::from_millis(400),
        Duration::from_secs(1),
    );
    assert!(!joined, "nothing crosses a fully lossy wire");
    assert_eq!(cluster.now().since(start), Duration::from_secs(1));
}

/// One run through every way a node's next deadline moves — timers,
/// acks before and after their RTO, backoff and abandonment, a kill with
/// frames in flight, a restart, a join past the seeded table. Debug
/// builds check the deadline index at every step; in any build the run
/// must deliver, and repeat bit for bit.
#[test]
fn deadline_index_survives_every_way_a_deadline_moves() {
    let run = || {
        let mut cluster = Cluster::converged(
            SPACE,
            &members(8, 61),
            CamChordProtocol,
            61,
            wan_transport(9, 61, 0.1),
            RetransmitPolicy {
                max_attempts: 4,
                ..RetransmitPolicy::default()
            },
        );
        cluster.set_tracer(Box::new(RecordingTracer::new()));
        cluster.run_for(Duration::from_secs(1));

        // Kill the source while its payload frames await their acks.
        cluster.start_multicast(2, true, Bytes::from(vec![5u8; 300]));
        assert!(cluster.node(2).unacked_frames() > 0);
        cluster.kill(2);
        assert_eq!(cluster.node(2).unacked_frames(), 0);
        // A partitioned receiver: frames to it back off and are abandoned.
        for from in 0..8 {
            cluster.transport_mut().set_link_blocked(from, 5, true);
        }
        cluster.start_multicast(0, true, Bytes::from(vec![6u8; 300]));
        cluster.run_for(Duration::from_secs(20));
        cluster.transport_mut().clear_blocked_links();

        assert!(cluster.restart(2));
        assert!(
            cluster.join_and_wait(
                Member::with_capacity(Id(271_828), 5),
                Duration::from_millis(500),
                Duration::from_secs(30),
            ),
            "the ninth node joins past the end of the seeded table"
        );
        // Lossless from here: what the ring must do now is heal and deliver.
        cluster.transport_mut().set_loss_probability(0.0);
        cluster.run_for(Duration::from_secs(60));
        assert!(
            cluster.node(2).actor().is_joined(),
            "the restarted node rejoined"
        );

        let payload = cluster.start_multicast(8, true, Bytes::from(vec![7u8; 300]));
        let done = cluster.run_until(Duration::from_secs(60), |c| {
            c.delivery_ratio(payload) >= 1.0
        });
        assert!(done, "stalled at {}", cluster.delivery_ratio(payload));
        cluster.run_for(Duration::from_secs(10));
        for i in 0..cluster.len() {
            assert_eq!(cluster.node(i).unacked_frames(), 0, "node {i} at rest");
        }

        let counters = cluster.counters();
        let boxed = cluster.take_tracer();
        let rec = boxed.as_recording().expect("recording tracer installed");
        let attempts: Vec<u32> = rec
            .events()
            .filter_map(|ev| match ev.kind {
                EventKind::Retransmit { attempt, .. } => Some(attempt),
                _ => None,
            })
            .collect();
        assert!(attempts.contains(&1), "a first RTO fired");
        assert!(
            attempts.contains(&3),
            "an RTO backed off to the last attempt"
        );
        (cluster.now(), counters, attempts)
    };
    let first = run();
    assert!(first.1.frames_dropped > 0, "the wire lost frames");
    assert_eq!(first, run(), "same seed, same run");
}
