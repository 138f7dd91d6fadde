//! The live extension experiments: Ext-A (crashes), Ext-F (churn) and
//! Ext-H (loss), plus the traced Ext-A run behind `repro --trace-out`.
//!
//! Each runs `DhtActor`s on the host a deployment runs: a converged
//! [`Cluster`] over the virtual-time [`InMemoryTransport`], so payload
//! frames are acknowledged and retransmitted and runs stay deterministic
//! under a fixed seed. Every cluster comes from one private builder, and
//! each experiment has one driver, generic over the protocol.

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_core::cam_koorde::CamKoordeProtocol;
use cam_net::{Cluster, InMemoryTransport, RetransmitPolicy};
use cam_overlay::dynamic::DhtProtocol;
use cam_overlay::Member;
use cam_ring::{IdSet, IdSpace};
use cam_sim::time::{Duration, SimTime};
use cam_sim::LatencyModel;
use cam_workload::{ChurnKind, ChurnTrace, Scenario};

use crate::runner::{parallel_sweep, Options};
use crate::DataTable;

/// The cluster every live experiment runs on: `members` converged under
/// `protocol` on the in-memory wire, with 20–80 ms uniform latency, the
/// default retransmit policy, `spare` free endpoints for joins, and each
/// frame lost with probability `loss` once the cluster is built.
fn converged<P: DhtProtocol>(
    protocol: P,
    members: &[Member],
    seed: u64,
    spare: usize,
    loss: f64,
) -> Cluster<P, InMemoryTransport> {
    let latency = LatencyModel::Uniform {
        min: Duration::from_millis(20),
        max: Duration::from_millis(80),
    };
    let wire = InMemoryTransport::new(members.len() + spare, seed, latency);
    let policy = RetransmitPolicy::default();
    let mut cluster = Cluster::converged(IdSpace::PAPER, members, protocol, seed, wire, policy);
    cluster.transport_mut().set_loss_probability(loss);
    cluster
}

/// The paper's default workload at `n` members, in ring order.
fn paper_members(n: usize, seed: u64) -> Vec<Member> {
    Scenario::paper_default(seed)
        .with_n(n)
        .members()
        .iter()
        .collect()
}

/// Ext-A: delivery ratio of a multicast started immediately after a crash
/// of `f%` of the nodes, before stabilization has repaired anything, and
/// again after letting maintenance run.
///
/// CAM-Chord's region-splitting trees lose whole subtree regions with each
/// crashed internal node, while CAM-Koorde's flooding routes around
/// failures — the redundancy/maintenance trade-off the paper discusses in
/// Section 2 ("CAM-Koorde works better with relatively large frequency of
/// membership change"). Acknowledgements do not change this: a crashed
/// child never acks, and its retransmissions reach no one.
pub fn resilience(opts: &Options) -> DataTable {
    let n = opts.n.min(1_500); // every frame is an event: keep it tractable
    let fractions = [0.0f64, 0.05, 0.10, 0.20, 0.30];
    let mut table = DataTable::new(
        "Ext-A: delivery ratio after crashing f of the nodes",
        "crash_fraction",
    );

    // One sweep item per run, not per row: each run costs seconds, and
    // finer items keep every worker busy to the end.
    let runs = fractions.iter().flat_map(|&f| [(f, true), (f, false)]);
    let results = parallel_sweep(runs.collect(), |&(f, chord)| {
        let seed = opts.sub_seed((f * 100.0) as u64);
        match chord {
            true => crash_run(CamChordProtocol, true, n, f, seed),
            false => crash_run(CamKoordeProtocol, false, n, f, seed + 1),
        }
    });
    let rows = fractions.iter().zip(results.chunks_exact(2));
    table.push_rows(
        [
            "CAM-Chord (no repair)",
            "CAM-Chord (after repair)",
            "CAM-Koorde (no repair)",
            "CAM-Koorde (after repair)",
        ],
        rows.map(|(&f, r)| (f, [r[0].0, r[0].1, r[1].0, r[1].1])),
    );
    table
}

/// One Ext-A point: `n` paper-workload members under `protocol`.
fn crash_run<P: DhtProtocol>(
    protocol: P,
    region_split: bool,
    n: usize,
    fraction: f64,
    seed: u64,
) -> (f64, f64) {
    let mut cluster = converged(protocol, &paper_members(n, seed), seed, 0, 0.0);
    crash_multicast(&mut cluster, fraction, region_split, seed)
}

/// Crashes `fraction` of the nodes other than the source (node 0), then
/// multicasts before and after repair; the two delivery ratios.
///
/// # Panics
///
/// Panics if the crash step leaves any drawn victim alive.
fn crash_multicast<P: DhtProtocol>(
    cluster: &mut Cluster<P, InMemoryTransport>,
    fraction: f64,
    region_split: bool,
    seed: u64,
) -> (f64, f64) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let total = cluster.len();
    let victims = ((total - 1) as f64 * fraction).round() as usize;
    let mut candidates: Vec<usize> = (1..total).collect();
    candidates.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xDEAD));
    for &v in &candidates[..victims] {
        cluster.kill(v);
    }
    assert_eq!(
        cluster.core().live_nodes(),
        total - victims,
        "Ext-A: {victims} of {total} nodes drawn to crash"
    );

    // Multicast immediately: routing tables still contain the dead.
    let payload1 = cluster.start_multicast(0, region_split, Bytes::new());
    cluster.run_for(Duration::from_secs(20));
    let before = cluster.delivery_ratio(payload1);

    // Let stabilization repair rings and fingers, then multicast again.
    // (~240 stabilize rounds: enough to drain even a 30%-crash backlog.)
    cluster.run_for(Duration::from_secs(120));
    let payload2 = cluster.start_multicast(0, region_split, Bytes::new());
    cluster.run_for(Duration::from_secs(20));
    let after = cluster.delivery_ratio(payload2);
    (before, after)
}

/// One Ext-A-style resilience run (20% crashes, multicast before and
/// after stabilization repair) captured as a full event trace — the run
/// behind `repro --trace-out`. Returns the tracer holding the recorded
/// events, the cluster's `wire.*`/`cluster.*` telemetry
/// ([`Cluster::export_telemetry`]) and the two delivery ratios.
pub fn resilience_trace(opts: &Options) -> cam_trace::RecordingTracer {
    let n = opts.n.min(600);
    let seed = opts.sub_seed(0xEA);
    let mut cluster = converged(CamChordProtocol, &paper_members(n, seed), seed, 0, 0.0);
    cluster.set_tracer(Box::new(cam_trace::RecordingTracer::new()));
    let (before, after) = crash_multicast(&mut cluster, 0.20, true, seed);

    cluster.export_telemetry();
    let tracer = cluster.tracer_mut();
    // Delivery ratios as per-mille gauges (the registry is integral).
    tracer.gauge_set("ext.delivery_before_permille", (before * 1000.0) as i64);
    tracer.gauge_set("ext.delivery_after_permille", (after * 1000.0) as i64);
    cluster
        .take_tracer()
        .as_recording()
        .cloned()
        .expect("a recording tracer was installed above")
}

/// Ext-F: multicast delivery while a Poisson churn trace (joins, leaves,
/// crashes) plays against the live overlay — the "highly dynamic
/// membership" setting of the paper's introduction.
pub fn churn(opts: &Options) -> DataTable {
    let n = opts.n.min(600);
    let mut table = DataTable::new(
        "Ext-F: delivery ratio under live churn (snapshot after each 10% of the trace)",
        "trace_progress",
    );
    let runs = parallel_sweep(vec![true, false], |&chord| match chord {
        true => churn_run(CamChordProtocol, true, n, opts.sub_seed(0xF1)),
        false => churn_run(CamKoordeProtocol, false, n, opts.sub_seed(0xF2)),
    });
    let rows = runs[0].iter().zip(&runs[1]).enumerate();
    table.push_rows(
        ["CAM-Chord", "CAM-Koorde"],
        rows.map(|(i, (&c, &k))| ((i + 1) as f64 * 10.0, [c, k])),
    );
    table
}

/// Plays one churn trace against `n` paper-workload members under
/// `protocol`; the delivery ratio after each tenth of the trace.
///
/// # Panics
///
/// Panics if the cluster's live nodes after the trace are not the ones
/// the trace leaves ([`live_after`]).
fn churn_run<P: DhtProtocol>(protocol: P, region_split: bool, n: usize, seed: u64) -> Vec<f64> {
    let scenario = Scenario::paper_default(seed).with_n(n);
    let members: Vec<_> = scenario.members().iter().collect();
    // Joining members draw from the scenario's configured workload,
    // so churn cannot silently skew bandwidths or capacities.
    let trace = ChurnTrace::generate_with(
        IdSpace::PAPER,
        &members,
        120,
        400_000.0,
        0.5,
        seed ^ 0xF,
        &scenario.bandwidth,
        &scenario.capacity,
    );
    let mut cluster = converged(protocol, &members, seed, trace.joins(), 0.0);
    let chunk = trace.events.len() / 10;
    let mut deliveries = Vec::new();
    for (i, event) in trace.events.iter().enumerate() {
        let at = SimTime(event.at_micros);
        if at > cluster.now() {
            cluster.run_for(at.since(cluster.now()));
        }
        match event.kind {
            ChurnKind::Join(member) => {
                let _ = cluster.join(member);
            }
            ChurnKind::Leave(id) | ChurnKind::Crash(id) => {
                let node =
                    (0..cluster.len()).find(|&i| cluster.node(i).actor().member().id == id);
                if let Some(node) = node {
                    cluster.kill(node);
                }
            }
        }
        if chunk > 0 && (i + 1) % chunk == 0 {
            // Let maintenance breathe briefly, then snapshot delivery from
            // the first live node.
            cluster.run_for(Duration::from_secs(5));
            let source = (0..cluster.len())
                .find(|&i| cluster.node(i).is_alive())
                .expect("some member survives");
            let payload = cluster.start_multicast(source, region_split, Bytes::new());
            cluster.run_for(Duration::from_secs(10));
            deliveries.push(cluster.delivery_ratio(payload));
        }
    }
    assert_eq!(
        cluster.core().live_nodes(),
        live_after(&members, &trace),
        "Ext-F: live nodes after {} churn events",
        trace.events.len()
    );
    deliveries
}

/// The number of live nodes a cluster of `initial` holds once `trace` has
/// played on it. Every join and every departure counts, except that the
/// cluster refuses a join under an identifier it has seen (the trace
/// re-issues departed ones), so that member's later departure is a no-op.
fn live_after(initial: &[Member], trace: &ChurnTrace) -> usize {
    let mut seen: IdSet<u64> = initial.iter().map(|m| m.id.value()).collect();
    let mut live = seen.clone();
    for event in &trace.events {
        match event.kind {
            ChurnKind::Join(m) if seen.insert(m.id.value()) => live.insert(m.id.value()),
            ChurnKind::Join(_) => false,
            ChurnKind::Leave(id) | ChurnKind::Crash(id) => live.remove(&id.value()),
        };
    }
    live.len()
}

/// Ext-H: multicast delivery under random per-frame loss — the "reliable
/// delivery" concern of Section 1. The wire acknowledges and retransmits
/// payload frames, so loss reaches delivery only through the unacked
/// control plane: missed probes evict live neighbors, and a stale routing
/// table can hand a region to a node that never gets it. Flooding's
/// redundant edges mask that too; anti-entropy pull gossip (pbcast-style,
/// see `DhtActor::set_anti_entropy`) converges either system back to full
/// delivery.
pub fn loss(opts: &Options) -> DataTable {
    let n = opts.n.min(1_000);
    let rates = [0.0f64, 0.01, 0.02, 0.05, 0.10];
    let mut table = DataTable::new(
        "Ext-H: delivery ratio vs per-message loss probability",
        "loss_probability",
    );
    // One sweep item per cell, as in Ext-A: column 0 is region trees,
    // 1 flooding, 2 region trees with anti-entropy.
    let cells = rates
        .iter()
        .flat_map(|&rate| (0..3).map(move |col| (rate, col)));
    let results = parallel_sweep(cells.collect(), |&(rate, col)| {
        let seed = opts.sub_seed((rate * 1000.0) as u64);
        let members = paper_members(n, seed);
        match col {
            1 => loss_run(CamKoordeProtocol, false, &members, seed, rate, false),
            _ => loss_run(CamChordProtocol, true, &members, seed, rate, col == 2),
        }
    });
    let rows = rates.iter().zip(results.chunks_exact(3));
    table.push_rows(
        [
            "CAM-Chord (region trees)",
            "CAM-Koorde (flooding)",
            "CAM-Chord + anti-entropy",
        ],
        rows.map(|(&rate, r)| (rate, [r[0], r[1], r[2]])),
    );
    table
}

/// One Ext-H cell: the mean delivery of three multicasts from node 0 on a
/// cluster losing each frame with probability `rate`, with anti-entropy
/// (and a longer wait) when `repair` is set.
///
/// # Panics
///
/// Panics if a positive `rate` dropped no frame.
fn loss_run<P: DhtProtocol>(
    protocol: P,
    region_split: bool,
    members: &[Member],
    seed: u64,
    rate: f64,
    repair: bool,
) -> f64 {
    let mut cluster = converged(protocol, members, seed, 0, rate);
    if repair {
        for i in 0..cluster.len() {
            if let Some(actor) = cluster.actor_mut(i) {
                actor.set_anti_entropy(true);
            }
        }
    }
    let wait = Duration::from_secs(if repair { 60 } else { 15 });
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let payload = cluster.start_multicast(0, region_split, Bytes::new());
            cluster.run_for(wait);
            cluster.delivery_ratio(payload)
        })
        .collect();
    assert!(
        rate == 0.0 || cluster.counters().frames_dropped > 0,
        "Ext-H: a {rate} loss rate dropped no frame"
    );
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_flooding_beats_region_split_under_crashes() {
        let mut opts = Options::quick();
        opts.n = 300;
        let table = resilience(&opts);
        let chord = table.series_named("CAM-Chord (no repair)").unwrap();
        let koorde = table.series_named("CAM-Koorde (no repair)").unwrap();
        // With no failures both deliver everywhere.
        assert!(chord.y_near(0.0).unwrap() > 0.999);
        assert!(koorde.y_near(0.0).unwrap() > 0.999);
        // At 20% crashes, flooding shows more redundancy than region trees.
        let c20 = chord.y_near(0.2).unwrap();
        let k20 = koorde.y_near(0.2).unwrap();
        assert!(
            k20 >= c20,
            "flooding ({k20:.3}) should be at least as robust as region trees ({c20:.3})"
        );
        // Repair brings CAM-Chord back up.
        let repaired = table.series_named("CAM-Chord (after repair)").unwrap();
        assert!(repaired.y_near(0.2).unwrap() >= c20);
    }

    #[test]
    fn churn_keeps_delivery_high() {
        let mut opts = Options::quick();
        opts.n = 250;
        let table = churn(&opts);
        for name in ["CAM-Chord", "CAM-Koorde"] {
            let s = table.series_named(name).unwrap();
            assert!(!s.points.is_empty());
            let mean: f64 =
                s.points.iter().map(|&(_, y)| y).sum::<f64>() / s.points.len() as f64;
            assert!(mean > 0.80, "{name}: mean delivery {mean:.3} under churn");
        }
    }

    #[test]
    fn loss_flooding_degrades_gracefully() {
        let mut opts = Options::quick();
        opts.n = 250;
        let table = loss(&opts);
        let chord = table.series_named("CAM-Chord (region trees)").unwrap();
        let koorde = table.series_named("CAM-Koorde (flooding)").unwrap();
        // No loss → full delivery for both.
        assert!(chord.y_near(0.0).unwrap() > 0.999);
        assert!(koorde.y_near(0.0).unwrap() > 0.999);
        // At 5% loss flooding holds up better than region trees.
        let c = chord.y_near(0.05).unwrap();
        let k = koorde.y_near(0.05).unwrap();
        assert!(k >= c, "flooding {k:.3} should be ≥ region trees {c:.3}");
        assert!(k > 0.9, "flooding should mask 5% loss: {k:.3}");
        // Anti-entropy converges region trees back to ~full delivery even
        // at 10% loss.
        let repaired = table.series_named("CAM-Chord + anti-entropy").unwrap();
        let r = repaired.y_near(0.10).unwrap();
        assert!(r > 0.99, "anti-entropy should repair losses: {r:.3}");
    }
}
