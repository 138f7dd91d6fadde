//! Wire-loop parity: over the deterministic in-memory wire the sans-I/O
//! [`Cluster`] must keep reproducing a committed golden table — the same
//! virtual timeline, wire counters, per-node hop counts, delivery
//! outcomes and trace stream — across 20 seeds and both protocols.
//!
//! The table was recorded from the pre-reactor event loop at the last
//! commit that carried it (where the reactor matched it bit for bit), so
//! it pins the protocol's observable behaviour independently of the
//! reactor's own code. A deliberate protocol change re-pins it: the
//! failure message prints the observed table in source form.
//!
//! Also hosts the 32-node multiplexed-UDP loopback throughput smoke.

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_core::cam_koorde::CamKoordeProtocol;
use cam_net::mux::MuxUdpTransport;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_net::transport::{InMemoryTransport, WireCounters};
use cam_overlay::dynamic::DhtProtocol;
use cam_overlay::{ByzantineBehavior, DetectionCounters, Member};
use cam_ring::sha1::Sha1;
use cam_ring::{Id, IdSet, IdSpace};
use cam_sim::rng::SimRng;
use cam_sim::{Duration, LatencyModel, SimTime};
use cam_trace::{EventKind, RecordingTracer};

const SPACE: IdSpace = IdSpace::PAPER;
const NODES: usize = 12;
const LOSS: f64 = 0.12;

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

fn wan_transport(seed: u64) -> InMemoryTransport {
    let mut t = InMemoryTransport::new(NODES, seed, LatencyModel::default_wan());
    t.set_loss_probability(LOSS);
    t
}

/// Everything observable about a run: if two runs agree on all of this,
/// they took the same decisions at the same (virtual) instants.
#[derive(Debug, PartialEq)]
struct Census {
    now: SimTime,
    counters: WireCounters,
    hops: Vec<Option<u32>>,
    first_done: bool,
    second_done: bool,
    trace: String,
    trace_events: usize,
}

/// `WireCounters` as one golden-row field, in declaration order. The
/// destructuring is exhaustive on purpose: a new counter must be added
/// to the row (and the table re-pinned) before this compiles again.
fn wire_field(c: &WireCounters) -> String {
    let WireCounters {
        bytes_sent,
        bytes_received,
        frames_encoded,
        frames_decoded,
        frames_rejected,
        encode_oversize,
        frames_dropped,
        send_backpressure,
        frames_retransmitted,
        internal_errors,
    } = *c;
    format!(
        "wire={bytes_sent},{bytes_received},{frames_encoded},{frames_decoded},\
         {frames_rejected},{encode_oversize},{frames_dropped},{send_backpressure},\
         {frames_retransmitted},{internal_errors}"
    )
}

/// The Chrome-trace JSON as one golden-row field: its SHA-1, so the table
/// pins every event's stamp, actor and payload without committing ~100 KB
/// of JSON per seed.
fn trace_field(trace: &str) -> String {
    format!("trace={}", Sha1::to_hex(&Sha1::digest(trace.as_bytes())))
}

impl Census {
    /// This run as one line of [`GOLDEN`].
    fn row(&self) -> String {
        let hops: Vec<String> = self
            .hops
            .iter()
            .map(|h| h.map_or_else(|| "-".to_owned(), |h| h.to_string()))
            .collect();
        format!(
            "now={} {} hops={} done={},{} events={} {}",
            self.now.micros(),
            wire_field(&self.counters),
            hops.join(","),
            self.first_done,
            self.second_done,
            self.trace_events,
            trace_field(&self.trace)
        )
    }
}

/// The scenario: converge, stabilize, multicast, kill a node, multicast
/// again, settle.
fn run_scenario<P: DhtProtocol>(mut cluster: Cluster<P, InMemoryTransport>) -> Census {
    cluster.set_tracer(Box::new(RecordingTracer::with_capacity(1 << 14)));
    cluster.run_for(Duration::from_secs(1));
    let first = cluster.start_multicast(0, true, Bytes::from(vec![0xA5u8; 384]));
    let first_done =
        cluster.run_until(Duration::from_secs(45), |c| c.delivery_ratio(first) >= 1.0);
    cluster.kill(NODES / 2);
    // Several stabilization rounds (500 ms default period) so the
    // survivors purge the dead node before the second multicast.
    cluster.run_for(Duration::from_secs(5));
    let second = cluster.start_multicast(1, false, Bytes::from(vec![0x5Au8; 128]));
    let second_done =
        cluster.run_until(Duration::from_secs(45), |c| c.delivery_ratio(second) >= 1.0);
    cluster.run_for(Duration::from_secs(2)); // settle in-flight acks
    let hops: Vec<Option<u32>> = (0..cluster.len())
        .map(|i| cluster.node(i).actor().payload_hops(second))
        .collect();
    let boxed = cluster.take_tracer();
    let rec = boxed.as_recording().expect("recording tracer installed");
    Census {
        now: cluster.now(),
        counters: cluster.counters(),
        hops,
        first_done,
        second_done,
        trace: rec.chrome_trace_json(),
        trace_events: rec.len(),
    }
}

fn converged<P: DhtProtocol>(
    m: &[Member],
    protocol: P,
    seed: u64,
) -> Cluster<P, InMemoryTransport> {
    Cluster::converged(
        SPACE,
        m,
        protocol,
        seed,
        wan_transport(seed),
        RetransmitPolicy::default(),
    )
}

fn reactor_census(seed: u64, koorde: bool) -> Census {
    let m = members(NODES, seed);
    if koorde {
        run_scenario(converged(&m, CamKoordeProtocol, seed))
    } else {
        run_scenario(converged(&m, CamChordProtocol, seed))
    }
}

/// Golden row `i` ran with this seed on this protocol (Koorde on odd `i`).
fn golden_case(i: usize) -> (u64, bool) {
    (i as u64 * 31 + 7, i % 2 == 1)
}

/// What the pre-reactor event loop produced for [`golden_case`]`(0..20)`
/// (12 nodes, 12 % loss, mid-run crash), one [`Census::row`] per seed.
const GOLDEN: [&str; 20] = [
    "now=54163952 wire=678557,591891,11556,10134,0,0,1404,0,12,0 hops=2,0,1,2,1,1,-,-,1,2,1,2 done=true,false events=2860 trace=197a17d4761c4fcfa1067548d5f0fde492bbbd5a",
    "now=53551672 wire=777734,683682,13323,11723,0,0,1612,0,21,0 hops=1,0,1,1,2,1,-,1,2,-,3,2 done=true,false events=2635 trace=f945b3145599efd6a4a14c9ee676b5f156ae396b",
    "now=53120498 wire=636950,563376,10781,9518,0,0,1248,0,6,0 hops=1,0,1,1,2,2,-,-,1,1,-,1 done=true,false events=2827 trace=ea36ce122f5e905e55e98eb304a81507662707b6",
    "now=8389213 wire=155752,136018,2270,1994,0,0,305,0,31,0 hops=1,0,1,1,2,2,-,2,3,1,2,3 done=true,true events=618 trace=d7c42de2647df6d5dd9c57d3c566dab41e55ee20",
    "now=8841143 wire=110756,97957,1811,1617,0,0,201,0,7,0 hops=1,0,1,1,1,2,-,2,1,2,2,3 done=true,true events=507 trace=dd714fc2c2bfcaa5dd15d729959b4e96aadeeb8d",
    "now=8596851 wire=154393,135513,2338,2067,0,0,271,0,16,0 hops=3,0,1,2,3,4,-,3,4,1,2,3 done=true,true events=553 trace=30f891923af0bac7c73189367e9c2259f184d483",
    "now=8355559 wire=106723,95084,1779,1578,0,0,199,0,3,0 hops=3,0,1,1,2,1,-,2,3,3,2,3 done=true,true events=477 trace=9b74d5379a6b02875e1e33691e78deb6cdaf9f38",
    "now=8582884 wire=136941,119291,2061,1813,0,0,251,0,17,0 hops=1,0,1,2,3,1,-,2,4,5,6,2 done=true,true events=519 trace=49c1d3d9d6e3e4bff692902eb1a659d398017989",
    "now=8480803 wire=105871,92341,1742,1524,0,0,221,0,3,0 hops=3,0,1,1,2,1,-,2,2,2,2,3 done=true,true events=470 trace=4cbd5fff417b308e33ed90c8642ecb9d47f320e7",
    "now=8465802 wire=148517,131680,2208,1983,0,0,244,0,19,0 hops=2,0,1,2,3,3,-,1,2,2,3,4 done=true,true events=571 trace=22c0498d9493526205051f846d4903a2baaad921",
    "now=8442738 wire=107539,96484,1807,1609,0,0,202,0,4,0 hops=3,0,1,1,1,1,-,1,2,2,3,2 done=true,true events=489 trace=cc9d8c454e935b0802bc6e9e35ea613887d61916",
    "now=8373452 wire=153843,138245,2218,1983,0,0,253,0,25,0 hops=2,0,2,3,3,2,-,3,1,2,2,3 done=true,true events=618 trace=2b43eba4d4fca1c85e852c28ec1c37c8e9ae1487",
    "now=8397178 wire=101503,90235,1658,1469,0,0,190,0,3,0 hops=2,0,1,1,1,2,-,2,1,2,3,3 done=true,true events=492 trace=91e8ead8533dc601e0c5d81b9eed47ae993598c9",
    "now=8319703 wire=153364,132701,2222,1961,0,0,275,0,28,0 hops=2,0,1,1,2,2,-,3,1,3,2,3 done=true,true events=610 trace=35de7b2dc3f3380e2c137c0cc4265379baf1fd33",
    "now=8429320 wire=111513,98440,1839,1619,0,0,226,0,6,0 hops=3,0,1,1,2,1,-,2,1,2,2,2 done=true,true events=476 trace=6bda3643238b533bec70fb2768c10ffa5429eb30",
    "now=8341395 wire=159508,141745,2331,2073,0,0,272,0,23,0 hops=3,0,2,3,4,3,-,1,2,2,3,2 done=true,true events=616 trace=e7452f023466c8e17ab9990999f9e9c17e7f2d00",
    "now=8434354 wire=110274,97173,1778,1577,0,0,208,0,7,0 hops=2,0,1,1,2,2,-,3,1,1,2,1 done=true,true events=492 trace=875785638a334359ee113ce0069bb99bfe039b92",
    "now=8314635 wire=144621,125108,2134,1893,0,0,264,0,33,0 hops=1,0,1,2,3,4,-,1,2,2,2,3 done=true,true events=568 trace=4c7f2b41359b7b4e65e18bc7a67727604bfe37a2",
    "now=53288845 wire=649085,569273,10978,9642,0,0,1336,0,7,0 hops=-,0,1,1,1,2,-,-,-,-,-,- done=true,false events=2800 trace=aba91f69aea433f4e6dd0b9359aee8f7d67aefb1",
    "now=53158039 wire=777345,676591,13231,11560,0,0,1668,0,23,0 hops=5,0,1,2,2,-,-,3,1,2,2,4 done=true,false events=2671 trace=c436c680b29f5e1f9cf78213e1135d5d35e9c6e0",
];

/// [`GOLDEN`]'s counterpart for the replay-attack scenario (seed 1337).
const GOLDEN_REPLAY: &str = "now=11357652 wire=162062,145268,2668,2383,0,0,287,0,5,0 acts=17 detect=0,0,4,0,0 suppressed=18 trace=78250c443acafdd48dcef43412145fb93bf82a2b";

/// The headline parity claim: across 20 seeds (half Chord, half Koorde,
/// all on a lossy wire with a mid-run crash), the reactor reproduces the
/// golden timeline, counters, delivery census and full trace stream.
#[test]
fn reactor_matches_golden_table_across_twenty_seeds() {
    let censuses: Vec<Census> = (0..GOLDEN.len())
        .map(|i| {
            let (seed, koorde) = golden_case(i);
            reactor_census(seed, koorde)
        })
        .collect();
    let observed: Vec<String> = censuses.iter().map(Census::row).collect();
    let diverged: Vec<usize> = (0..GOLDEN.len())
        .filter(|&i| observed[i] != GOLDEN[i])
        .collect();
    assert!(
        diverged.is_empty(),
        "rows {diverged:?} diverged from GOLDEN; first: expected\n    {:?}\nobserved\n    {:?}\n\
         If the protocol change is deliberate, re-pin GOLDEN to the observed table:\n{}",
        GOLDEN[diverged[0]],
        observed[diverged[0]],
        observed
            .iter()
            .map(|row| format!("    {row:?},\n"))
            .collect::<String>()
    );
    // Parity over trivially-failing runs would prove nothing.
    let delivered = censuses
        .iter()
        .filter(|c| c.first_done && c.second_done)
        .count();
    assert!(
        delivered >= 15,
        "only {delivered}/20 seeds delivered both multicasts — scenario too hostile to be meaningful"
    );
}

/// The fingerprint must be able to fail: every golden row (and every
/// trace digest on its own) is distinct from every other, and a run one
/// seed over does not reproduce its neighbour's row. A `row()` that went
/// blind — a tracer that records nothing, a field dropped from the format
/// — trips this instead of silently matching forever.
#[test]
fn golden_rows_discriminate_between_runs() {
    let digest = |row: &'static str| row.rsplit(' ').next().expect("row has fields");
    for (i, a) in GOLDEN.iter().enumerate() {
        for b in &GOLDEN[i + 1..] {
            assert_ne!(a, b, "two golden rows are identical");
            assert_ne!(digest(a), digest(b), "two golden trace digests collide");
        }
    }
    for i in [0, 1] {
        let (seed, koorde) = golden_case(i);
        assert_ne!(
            reactor_census(seed + 1, koorde).row(),
            GOLDEN[i],
            "seed {} reproduced seed {seed}'s golden row",
            seed + 1
        );
    }
}

/// Identical seeds through the reactor twice must also be identical —
/// the cheap sanity floor under the golden-table claim.
#[test]
fn reactor_is_self_deterministic() {
    let a = reactor_census(4242, false);
    let b = reactor_census(4242, false);
    assert_eq!(a, b, "same seed, same reactor, different run");
}

/// Everything observable about a replay-attack run.
#[derive(Debug, PartialEq)]
struct ReplayCensus {
    now: SimTime,
    counters: WireCounters,
    acts: u64,
    detections: DetectionCounters,
    suppressed_replays: usize,
    trace: String,
}

impl ReplayCensus {
    /// This run in the form of [`GOLDEN_REPLAY`]; `detect=` lists the
    /// detection counters in declaration order (exhaustively, as in
    /// [`wire_field`]).
    fn row(&self) -> String {
        let DetectionCounters {
            region_violations,
            capacity_forgeries,
            replay_suspects,
            stale_claims,
            repair_recoveries,
        } = self.detections;
        format!(
            "now={} {} acts={} detect={region_violations},{capacity_forgeries},\
             {replay_suspects},{stale_claims},{repair_recoveries} suppressed={} {}",
            self.now.micros(),
            wire_field(&self.counters),
            self.acts,
            self.suppressed_replays,
            trace_field(&self.trace)
        )
    }
}

/// The replay-attack scenario: attach a [`ByzantineBehavior::Replay`]
/// adversary, deliver one region-split multicast everywhere, then give
/// the adversary ~20 stabilize rounds to re-send remembered frames over
/// the lossy acked wire. Asserts inline that after full delivery no
/// honest node forwards (or first-receives) the payload again — every
/// replayed copy dies in duplicate suppression.
fn run_replay_attack(
    mut cluster: Cluster<CamChordProtocol, InMemoryTransport>,
    seed: u64,
) -> ReplayCensus {
    const ADVERSARY: usize = 3;
    cluster.set_tracer(Box::new(RecordingTracer::with_capacity(1 << 14)));
    cluster
        .node_mut(ADVERSARY)
        .actor_mut()
        .attach_adversary(ByzantineBehavior::Replay, seed);
    cluster.run_for(Duration::from_secs(1));
    let payload = cluster.start_multicast(0, true, Bytes::from(vec![0xC3u8; 256]));
    let done = cluster.run_until(Duration::from_secs(45), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    assert!(done, "multicast must deliver before the replay phase");
    let delivered_at = cluster.now().micros();
    // ~20 stabilize periods (500 ms default): each round the adversary
    // may re-send a remembered frame to a random neighbor; loss on the
    // wire is recovered by the ack/retransmit layer, so replayed
    // frames do arrive.
    cluster.run_for(Duration::from_secs(10));

    let acts = cluster
        .node(ADVERSARY)
        .actor()
        .adversary()
        .map_or(0, |s| s.acts);
    let mut detections = DetectionCounters::default();
    for i in 0..cluster.len() {
        if i != ADVERSARY {
            detections.add(&cluster.node(i).actor().detections());
        }
    }
    let boxed = cluster.take_tracer();
    let rec = boxed.as_recording().expect("recording tracer installed");
    let mut suppressed_replays = 0usize;
    for e in rec.events() {
        if e.actor == ADVERSARY as u64 || e.at_micros <= delivered_at {
            continue;
        }
        match e.kind {
            // A forward or first receipt of the payload after everyone
            // already has it would mean a replayed frame re-entered
            // the dissemination tree instead of being suppressed.
            EventKind::MulticastForward { payload: p, .. }
            | EventKind::MulticastReceive { payload: p, .. }
                if p == payload =>
            {
                panic!(
                    "honest node {} re-propagated replayed payload at t={}us: {:?}",
                    e.actor, e.at_micros, e.kind
                );
            }
            EventKind::DuplicateSuppress { payload: p, .. } if p == payload => {
                suppressed_replays += 1;
            }
            _ => {}
        }
    }
    ReplayCensus {
        now: cluster.now(),
        counters: cluster.counters(),
        acts,
        detections,
        suppressed_replays,
        trace: rec.chrome_trace_json(),
    }
}

/// Replay-attack × ack/retransmit: a Byzantine node re-sending remembered
/// multicast frames hits duplicate suppression (never a re-forward) and
/// is flagged as a replay suspect by honest receivers — and the whole run
/// matches the golden replay row.
#[test]
fn replayed_frames_hit_suppression() {
    let seed = 1337u64;
    let m = members(NODES, seed);
    let new = run_replay_attack(converged(&m, CamChordProtocol, seed), seed);

    assert!(new.acts > 0, "adversary never replayed anything: {new:?}");
    assert!(
        new.suppressed_replays > 0,
        "no replayed frame was suppressed — did none arrive? {new:?}"
    );
    assert!(
        new.detections.replay_suspects > 0,
        "honest nodes never flagged the replays: {:?}",
        new.detections
    );
    // Replay is the only misbehavior, so no *frame-level* accusation
    // besides replay_suspects may fire. stale_claims is exempt here: at
    // 12% sustained loss a run of dropped probes can transiently confirm
    // a live node dead, after which honest stabilize replies advertising
    // it are flagged — the documented false-positive mode of loss-only
    // detection (the chaos harness's honest baseline is lossless).
    assert_eq!(
        (
            new.detections.region_violations,
            new.detections.capacity_forgeries
        ),
        (0, 0),
        "unrelated frame-level accusations on an honest-except-replay run: {:?}",
        new.detections
    );
    assert_eq!(
        new.row(),
        GOLDEN_REPLAY,
        "replay-attack run diverged from GOLDEN_REPLAY (re-pin to the observed row if deliberate)"
    );
}

/// 32 nodes multiplexed on one real UDP socket: a multicast round
/// completes, nothing is counted as a genuine drop (loopback does not
/// lose frames — transient `WouldBlock` must land in `send_backpressure`
/// instead), and the wire loop actually slept on deadlines rather than
/// busy-polling.
#[test]
fn mux_udp_loopback_throughput_smoke() {
    let seed = 2026;
    let n = 32;
    let transport = match MuxUdpTransport::bind(n) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("skipping: cannot bind loopback UDP ({e})");
            return;
        }
    };
    let mut cluster = Cluster::converged(
        SPACE,
        &members(n, seed),
        CamChordProtocol,
        seed,
        transport,
        RetransmitPolicy::default(),
    );
    cluster.set_maintenance_period(Duration::from_millis(100));
    cluster.run_for(Duration::from_millis(600));
    cluster.reset_loop_stats();

    let rounds = 4;
    let mut done_rounds = 0;
    for round in 0..rounds {
        let payload = cluster.start_multicast(round % n, true, Bytes::from(vec![0xEEu8; 256]));
        if cluster.run_until(Duration::from_secs(10), |c| {
            c.delivery_ratio(payload) >= 1.0
        }) {
            done_rounds += 1;
        }
    }
    assert_eq!(done_rounds, rounds, "multicasts must complete on loopback");
    // An idle stretch: with no frames in flight the loop must park on
    // computed deadlines (maintenance timers), not spin.
    cluster.run_for(Duration::from_millis(150));

    let c = cluster.counters();
    let stats = cluster.loop_stats();
    assert_eq!(
        c.frames_dropped, 0,
        "loopback UDP never genuinely drops; WouldBlock must be backpressure, got {c:?}"
    );
    assert!(c.frames_decoded > 0, "frames actually moved");
    assert!(stats.wakeups > 0, "loop accounting is live");
    assert!(
        stats.sleeps > 0 && stats.slept_micros > 0,
        "the loop must park on computed deadlines, not busy-poll: {stats:?}"
    );
}
