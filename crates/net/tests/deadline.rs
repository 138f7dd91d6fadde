//! Wall-clock scheduling regression tests: the wire loop must sleep to
//! *computed* deadlines — `min(next timer, next RTO, socket readable)` —
//! instead of spinning on a fixed 500 µs grid the way the pre-reactor
//! loop did. Two observable consequences are pinned here:
//!
//! 1. An armed RTO fires when scheduled (firing error far below the old
//!    polling tick), because the loop parks *exactly* until it.
//! 2. An otherwise idle cluster takes a bounded number of wakeups — one
//!    per due event plus one per inbound datagram — not two thousand
//!    per second of busy-polling.

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_net::mux::MuxUdpTransport;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_overlay::Member;
use cam_ring::{Id, IdSet, IdSpace};
use cam_sim::rng::SimRng;
use cam_sim::Duration;
use cam_trace::{EventKind, RecordingTracer};

const SPACE: IdSpace = IdSpace::PAPER;

/// The period of a fixed-tick polling loop, the design these tests rule
/// out: sleeping a flat 500 µs between polls, *every* deadline could fire
/// up to one tick late, and the loop would wake 2000 times a second to
/// achieve even that.
const POLL_TICK_MICROS: u64 = 500;

/// Both tests here measure wall-clock timing; running them concurrently
/// makes each other's CPU use look like scheduler latency. Serialize.
static WALL_CLOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

fn mux_cluster(
    n: usize,
    seed: u64,
    policy: RetransmitPolicy,
) -> Cluster<CamChordProtocol, MuxUdpTransport> {
    let transport = MuxUdpTransport::bind(n).expect("bind loopback mux socket");
    Cluster::converged(
        SPACE,
        &members(n, seed),
        CamChordProtocol,
        seed,
        transport,
        policy,
    )
}

/// Black-hole one node's wire route, multicast so a payload frame goes
/// unacked, and check the retransmission schedule against the tracer's
/// timestamps. Each retransmit re-arms the frame `armed_rto` past the
/// instant it fired, so the gap to the next one is the armed RTO plus
/// however late the loop woke. Two properties are pinned:
///
/// * a retransmit never fires *early* (beyond one tick of rounding) — the
///   loop parks until the deadline, not until "about then";
/// * the *median* lateness stays within 10 ticks (5 ms), an order of
///   magnitude tighter than the intervals being measured. The median, not
///   every gap: on a busy single-core host one descheduling of the
///   sleeping thread makes one gap late by a scheduler quantum, which says
///   nothing about where the loop computed its deadline — whereas a loop
///   that does not sleep to the computed deadline is late on every gap.
#[test]
fn rto_fires_on_the_computed_deadline() {
    let _serial = WALL_CLOCK.lock().expect("serialize timing tests");
    let policy = RetransmitPolicy {
        initial_rto: Duration::from_millis(60),
        max_rto: Duration::from_millis(480),
        max_attempts: 6,
    };
    let mut cluster = mux_cluster(4, 77, policy);
    cluster.set_tracer(Box::new(RecordingTracer::with_capacity(1 << 12)));
    cluster.set_maintenance_period(Duration::from_millis(100));
    cluster.run_for(Duration::from_millis(300));

    // Unreachable receiver: reroute node 3's endpoint to a socket nobody
    // reads. Every payload frame sent its way vanishes on the wire (no
    // frame-layer ack), so the sender must retransmit on the armed
    // schedule — the same failure a crashed remote host produces.
    let blackhole = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind blackhole");
    let sunk = blackhole.local_addr().expect("blackhole addr");
    assert!(cluster.transport_mut().set_route(3, sunk));
    cluster.start_multicast(0, true, Bytes::from(vec![0x42u8; 200]));
    cluster.run_for(Duration::from_millis(700));

    let boxed = cluster.take_tracer();
    let rec = boxed.as_recording().expect("recording tracer installed");
    // Group retransmit events per in-flight frame (sender, seq); each
    // group's inter-event gaps must match the RTO armed by the previous
    // event in the group.
    let mut by_frame: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for ev in rec.events() {
        if let EventKind::Retransmit {
            wire_seq,
            rto_micros,
            ..
        } = ev.kind
        {
            by_frame
                .entry((ev.actor, wire_seq))
                .or_default()
                .push((ev.at_micros, rto_micros));
        }
    }
    let mut lateness: Vec<u64> = Vec::new();
    for ((actor, seq), events) in &by_frame {
        for pair in events.windows(2) {
            let (t1, armed_rto) = pair[0];
            let (t2, _) = pair[1];
            let gap = t2 - t1;
            assert!(
                gap + POLL_TICK_MICROS >= armed_rto,
                "node {actor} frame {seq}: retransmit fired {gap} µs after the previous \
                 attempt, before the armed {armed_rto} µs RTO had elapsed"
            );
            lateness.push(gap.saturating_sub(armed_rto));
        }
    }
    assert!(
        lateness.len() >= 2,
        "expected at least two back-to-back retransmissions to measure, saw {} \
         (frames: {by_frame:?})",
        lateness.len()
    );
    lateness.sort_unstable();
    let median = lateness[(lateness.len() - 1) / 2];
    assert!(
        median <= 10 * POLL_TICK_MICROS,
        "median retransmit lateness {median} µs (all gaps: {lateness:?}) — the loop is not \
         sleeping to the computed deadline"
    );
}

/// An idle cluster's wakeup budget: over half a second with only
/// maintenance timers due, the loop must wake roughly once per due event
/// — well below a 500 µs polling grid's 1000 wakeups — and the
/// time it didn't spend working must have been spent in computed-deadline
/// sleeps.
#[test]
fn idle_cluster_wakeups_are_deadline_bound() {
    let _serial = WALL_CLOCK.lock().expect("serialize timing tests");
    let mut cluster = mux_cluster(8, 99, RetransmitPolicy::default());
    cluster.set_maintenance_period(Duration::from_millis(100));
    cluster.run_for(Duration::from_millis(400));

    cluster.reset_loop_stats();
    cluster.run_for(Duration::from_millis(500));
    let stats = cluster.loop_stats();

    // A polling grid's budget for the same window: 500 ms / 500 µs = 1000
    // wakeups, zero deadline sleeps. 8 nodes × 3 maintenance timers × ~5
    // rounds plus their ping traffic is a few hundred events at the very
    // most.
    assert!(
        stats.wakeups < 800,
        "idle loop woke {} times in 500 ms — that is a polling grid, not a scheduler",
        stats.wakeups
    );
    assert!(
        stats.sleeps > 0 && stats.slept_micros > 100_000,
        "idle time must be spent in computed sleeps, got {stats:?}"
    );
    assert!(
        stats.io_wakes <= stats.wakeups,
        "io wake accounting out of range: {stats:?}"
    );
}
