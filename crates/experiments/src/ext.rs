//! Extension experiments beyond the paper's figures (DESIGN.md Ext-A–L):
//! resilience under crashes, churn and loss, maintenance overhead,
//! design-choice ablations, lookup-hop scaling, shared-tree load,
//! proximity, the theorems against measurements, heavy-tailed bandwidth,
//! tree stability and multi-group pub/sub.

use cam_core::cam_chord::{CamChordProtocol, ChildSelection, ProximityCamChord};
use cam_core::cam_koorde::multicast::FloodEdges;
use cam_core::cam_koorde::CamKoordeProtocol;
use cam_core::SharedTree;
use cam_core::{CamChord, CamKoorde};
use cam_overlay::dynamic::{DhtProtocol, DynamicNetwork};
use cam_overlay::StaticOverlay;
use cam_sim::time::Duration;
use cam_sim::LatencyModel;
use cam_trace::Summary;
use cam_workload::{CapacityAssignment, Scenario};

use crate::runner::{parallel_sweep, sample_trees, Options};
use crate::{DataSeries, DataTable};

/// Ext-A: delivery ratio of a multicast started immediately after a crash
/// of `f%` of the nodes, before stabilization has repaired anything, and
/// again after letting maintenance run.
///
/// CAM-Chord's region-splitting trees lose whole subtree regions with each
/// crashed internal node, while CAM-Koorde's flooding routes around
/// failures — the redundancy/maintenance trade-off the paper discusses in
/// Section 2 ("CAM-Koorde works better with relatively large frequency of
/// membership change").
pub fn resilience(opts: &Options) -> DataTable {
    let n = opts.n.min(1_500); // event-level simulation: keep it tractable
    let fractions = [0.0f64, 0.05, 0.10, 0.20, 0.30];
    let mut table = DataTable::new(
        "Ext-A: delivery ratio after crashing f of the nodes",
        "crash_fraction",
    );

    let run_one = |region_split: bool, fraction: f64, seed: u64| -> (f64, f64) {
        let members = Scenario::paper_default(seed).with_n(n).members();
        let member_vec: Vec<_> = members.iter().collect();
        let latency = LatencyModel::Uniform {
            min: Duration::from_millis(20),
            max: Duration::from_millis(80),
        };
        let (before, after) = if region_split {
            let mut net = DynamicNetwork::converged(
                members.space(),
                &member_vec,
                CamChordProtocol,
                seed,
                latency,
            );
            run_crash_multicast(&mut net, fraction, true, seed)
        } else {
            let mut net = DynamicNetwork::converged(
                members.space(),
                &member_vec,
                CamKoordeProtocol,
                seed,
                latency,
            );
            run_crash_multicast(&mut net, fraction, false, seed)
        };
        (before, after)
    };

    let results = parallel_sweep(fractions.to_vec(), |&f| {
        let seed = opts.sub_seed((f * 100.0) as u64);
        (run_one(true, f, seed), run_one(false, f, seed + 1))
    });

    let mut chord_before = DataSeries::new("CAM-Chord (no repair)");
    let mut chord_after = DataSeries::new("CAM-Chord (after repair)");
    let mut koorde_before = DataSeries::new("CAM-Koorde (no repair)");
    let mut koorde_after = DataSeries::new("CAM-Koorde (after repair)");
    for (&f, ((cb, ca), (kb, ka))) in fractions.iter().zip(results) {
        chord_before.push(f, cb);
        chord_after.push(f, ca);
        koorde_before.push(f, kb);
        koorde_after.push(f, ka);
    }
    table.push(chord_before);
    table.push(chord_after);
    table.push(koorde_before);
    table.push(koorde_after);
    table
}

fn run_crash_multicast<P: DhtProtocol>(
    net: &mut DynamicNetwork<P>,
    fraction: f64,
    region_split: bool,
    seed: u64,
) -> (f64, f64) {
    let total = net.actors().len();
    let source = net.actors()[0].1;
    let victims = ((total - 1) as f64 * fraction).round() as usize;
    net.kill_random(victims, source, seed ^ 0xDEAD);

    // Multicast immediately: routing tables still contain the dead.
    let payload1 = net.start_multicast(source, region_split);
    net.sim.run_until(net.sim.now() + Duration::from_secs(20));
    let before = net.delivery_ratio(payload1);

    // Let stabilization repair rings and fingers, then multicast again.
    // (~240 stabilize rounds: enough to drain even a 30%-crash backlog.)
    net.sim.run_until(net.sim.now() + Duration::from_secs(120));
    let payload2 = net.start_multicast(source, region_split);
    net.sim.run_until(net.sim.now() + Duration::from_secs(20));
    let after = net.delivery_ratio(payload2);
    (before, after)
}

/// One Ext-A-style resilience run (20% crashes, multicast before and
/// after stabilization repair) captured as a full event trace — the run
/// behind `repro --trace-out`. Returns the tracer holding the recorded
/// events plus a telemetry snapshot of the simulator's counters.
pub fn resilience_trace(opts: &Options) -> cam_trace::RecordingTracer {
    let n = opts.n.min(600);
    let seed = opts.sub_seed(0xEA);
    let members: Vec<_> = Scenario::paper_default(seed)
        .with_n(n)
        .members()
        .iter()
        .collect();
    let latency = LatencyModel::Uniform {
        min: Duration::from_millis(20),
        max: Duration::from_millis(80),
    };
    let mut net = DynamicNetwork::converged(
        cam_ring::IdSpace::PAPER,
        &members,
        CamChordProtocol,
        seed,
        latency,
    );
    net.sim
        .set_tracer(Box::new(cam_trace::RecordingTracer::new()));
    let (before, after) = run_crash_multicast(&mut net, 0.20, true, seed);

    let stats = net.sim.stats();
    let tracer = net.sim.tracer_mut();
    tracer.counter_add("sim.messages_sent", stats.sent);
    tracer.counter_add("sim.messages_delivered", stats.delivered);
    tracer.counter_add("sim.messages_dropped", stats.dropped);
    tracer.counter_add("sim.timer_firings", stats.timers);
    tracer.counter_add("sim.events", stats.events);
    // Delivery ratios as per-mille gauges (the registry is integral).
    tracer.gauge_set("sim.delivery_before_permille", (before * 1000.0) as i64);
    tracer.gauge_set("sim.delivery_after_permille", (after * 1000.0) as i64);
    net.sim
        .take_tracer()
        .as_recording()
        .cloned()
        .expect("a recording tracer was installed above")
}

/// Ext-B: maintenance overhead — distinct overlay neighbors per node as
/// capacity grows. CAM-Chord pays `O(c · log n / log c)`; CAM-Koorde pays
/// exactly `c` slots (fewer after deduplication).
pub fn overhead(opts: &Options) -> DataTable {
    let mut table = DataTable::new("Ext-B: routing-table size vs node capacity", "capacity");
    let capacities: Vec<u32> = vec![4, 8, 16, 32, 64, 100];
    let results = parallel_sweep(capacities.clone(), |&c| {
        let group = Scenario::paper_default(opts.sub_seed(u64::from(c)))
            .with_n(opts.n)
            .with_capacity(CapacityAssignment::Constant(c))
            .members();
        let chord = CamChord::new(group.clone());
        let koorde = CamKoorde::new(group);
        let sample = 200.min(chord.members().len());
        let mut sc = Summary::new();
        let mut sk = Summary::new();
        for m in 0..sample {
            sc.record(chord.neighbor_count(m) as f64);
            sk.record(koorde.neighbor_count(m) as f64);
        }
        (sc.mean(), sk.mean())
    });
    let mut chord = DataSeries::new("CAM-Chord neighbors");
    let mut koorde = DataSeries::new("CAM-Koorde neighbors");
    for (&c, (nc, nk)) in capacities.iter().zip(results) {
        chord.push(f64::from(c), nc);
        koorde.push(f64::from(c), nk);
    }
    table.push(chord);
    table.push(koorde);
    table
}

/// Ext-C: ablations of the two interpretation choices documented in
/// DESIGN.md — `ceil` vs `floor` child selection in CAM-Chord, and
/// out-only vs bidirectional flooding in CAM-Koorde.
pub fn ablation(opts: &Options) -> DataTable {
    let mut table = DataTable::new("Ext-C: ablations (avg path length per variant)", "variant");
    let group = Scenario::paper_default(opts.sub_seed(7))
        .with_n(opts.n)
        .members();

    let avg_path = |overlay: &dyn StaticOverlay, tag: u64| {
        sample_trees(overlay, opts.sources, opts.sub_seed(tag))
            .avg_path_len
            .mean()
    };
    let chord = |selection| CamChord::new(group.clone()).with_selection(selection);
    let koorde = |edges| CamKoorde::with_edges(group.clone(), edges);
    let variants: Vec<(&str, f64)> = vec![
        ("CAM-Chord ceil", avg_path(&chord(ChildSelection::Ceil), 1)),
        (
            "CAM-Chord floor",
            avg_path(&chord(ChildSelection::Floor), 1),
        ),
        (
            "CAM-Koorde out-edges",
            avg_path(&koorde(FloodEdges::Out), 2),
        ),
        (
            "CAM-Koorde bidirectional",
            avg_path(&koorde(FloodEdges::Bidirectional), 2),
        ),
    ];
    let mut s = DataSeries::new("avg_path_len");
    for (i, (_, v)) in variants.iter().enumerate() {
        s.push(i as f64, *v);
    }
    // Keep the variant names visible in the title for the text rendering.
    table.title = format!(
        "Ext-C ablations: {}",
        variants
            .iter()
            .enumerate()
            .map(|(i, (name, _))| format!("{i}={name}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    table.push(s);
    table
}

/// Ext-D: average lookup hops vs. group size for all four systems —
/// the shape check for Theorems 1–2 (CAM-Chord `O(log n / log c)`) and
/// 5–6 (CAM-Koorde `O(log n / E(log c))`).
pub fn lookup_hops(opts: &Options) -> DataTable {
    use rand::{Rng, SeedableRng};
    let sizes: Vec<usize> = if opts.n >= 50_000 {
        vec![1_000, 3_000, 10_000, 30_000, 100_000]
    } else {
        vec![250, 500, 1_000, 2_000, opts.n.max(3_000)]
    };
    let mut table = DataTable::new("Ext-D: average lookup hops vs group size", "n");
    let trials = 300usize;
    let results = parallel_sweep(sizes.clone(), |&n| {
        let group = Scenario::paper_default(opts.sub_seed(n as u64))
            .with_n(n)
            .members();
        let overlays: Vec<Box<dyn StaticOverlay>> = vec![
            Box::new(CamChord::new(group.clone())),
            Box::new(CamKoorde::new(group.clone())),
            Box::new(chord_overlay::Chord::new(group.clone(), 2)),
            Box::new(koorde_overlay::Koorde::new(group.clone(), 8)),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(opts.sub_seed(n as u64 + 1));
        let mut means = Vec::new();
        for o in &overlays {
            let mut sum = 0u64;
            for _ in 0..trials {
                let origin = rng.gen_range(0..n);
                let key = cam_ring::Id(rng.gen_range(0..group.space().size()));
                sum += u64::from(o.lookup(origin, key).hops());
            }
            means.push(sum as f64 / trials as f64);
        }
        means
    });
    let names = ["CAM-Chord", "CAM-Koorde", "Chord (base 2)", "Koorde (k=8)"];
    for (i, name) in names.iter().enumerate() {
        let mut s = DataSeries::new(*name);
        for (&n, means) in sizes.iter().zip(&results) {
            s.push(n as f64, means[i]);
        }
        table.push(s);
    }
    table
}

/// Ext-E: per-node forwarding load — one shared tree per group (§5.1
/// tree-building) vs. the CAMs' per-source implicit trees (flooding
/// approach), for an `M`-message any-source session.
///
/// The paper's analysis: with a shared tree, internal nodes forward
/// `O(k·M)` copies and the majority (leaves) forward none; with per-source
/// implicit trees everyone forwards `O(M)`. The series report the load
/// distribution percentiles (copies forwarded per message).
pub fn load_balance(opts: &Options) -> DataTable {
    use rand::{Rng, SeedableRng};
    let n = opts.n.min(20_000);
    let group = Scenario::paper_default(opts.sub_seed(0xE5))
        .with_n(n)
        .members();
    let overlay = CamChord::new(group.clone());
    let messages = 60usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.sub_seed(0xE6));
    let sources: Vec<usize> = (0..messages).map(|_| rng.gen_range(0..n)).collect();

    // Shared tree (tree-building approach).
    let shared = SharedTree::build(&overlay, cam_ring::Id(0));
    let mut shared_load = vec![0u64; n];
    for &s in &sources {
        shared.accumulate_load(s, &mut shared_load);
    }

    // Per-source implicit trees (the CAM/flooding approach): a node's
    // forwarding load for one message is its fan-out in that source's tree.
    let mut cam_load = vec![0u64; n];
    for &s in &sources {
        let tree = overlay.multicast_tree(s);
        for (m, l) in cam_load.iter_mut().enumerate() {
            *l += tree.fanout(m) as u64;
        }
    }

    let percentiles = [0.0f64, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];
    let stat = |loads: &mut Vec<u64>| -> Vec<f64> {
        loads.sort_unstable();
        percentiles
            .iter()
            .map(|&p| {
                let idx = ((p / 100.0) * (loads.len() - 1) as f64).round() as usize;
                loads[idx] as f64 / messages as f64
            })
            .collect()
    };
    let shared_stats = stat(&mut shared_load.clone());
    let cam_stats = stat(&mut cam_load.clone());

    let gini_shared =
        crate::fairness::gini(&shared_load.iter().map(|&l| l as f64).collect::<Vec<_>>());
    let gini_cam =
        crate::fairness::gini(&cam_load.iter().map(|&l| l as f64).collect::<Vec<_>>());
    let mut table = DataTable::new(
        format!(
            "Ext-E: forwarding load per message — shared tree (gini {gini_shared:.2}) vs per-source trees (gini {gini_cam:.2})"
        ),
        "percentile",
    );
    let mut shared_series = DataSeries::new("shared tree (§5.1 tree-building)");
    let mut cam_series = DataSeries::new("per-source trees (CAM)");
    for ((&p, s), c) in percentiles.iter().zip(shared_stats).zip(cam_stats) {
        shared_series.push(p, s);
        cam_series.push(p, c);
    }
    table.push(shared_series);
    table.push(cam_series);
    table
}

/// Ext-F: multicast delivery while a Poisson churn trace (joins, leaves,
/// crashes) plays against the live overlay — the "highly dynamic
/// membership" setting of the paper's introduction.
pub fn churn(opts: &Options) -> DataTable {
    use cam_workload::ChurnTrace;
    let n = opts.n.min(600);
    let mut table = DataTable::new(
        "Ext-F: delivery ratio under live churn (snapshot after each 10% of the trace)",
        "trace_progress",
    );

    let run = |region_split: bool, seed: u64| -> Vec<(f64, f64)> {
        let scenario = Scenario::paper_default(seed).with_n(n);
        let members: Vec<_> = scenario.members().iter().collect();
        let space = cam_ring::IdSpace::PAPER;
        let latency = LatencyModel::Uniform {
            min: Duration::from_millis(20),
            max: Duration::from_millis(80),
        };
        // Joining members draw from the scenario's configured workload,
        // so churn cannot silently skew bandwidths or capacities.
        let trace = ChurnTrace::generate_with(
            space,
            &members,
            120,
            400_000.0,
            0.5,
            seed ^ 0xF,
            &scenario.bandwidth,
            &scenario.capacity,
        );
        let mut deliveries = Vec::new();
        if region_split {
            let mut net = DynamicNetwork::converged(
                space,
                &members,
                CamChordProtocol,
                seed,
                latency.clone(),
            );
            play_trace(&mut net, &trace, true, &mut deliveries, CamChordProtocol);
        } else {
            let mut net = DynamicNetwork::converged(
                space,
                &members,
                CamKoordeProtocol,
                seed,
                latency.clone(),
            );
            play_trace(&mut net, &trace, false, &mut deliveries, CamKoordeProtocol);
        }
        deliveries
            .iter()
            .enumerate()
            .map(|(i, ratio)| ((i + 1) as f64 * 10.0, *ratio))
            .collect()
    };

    let mut chord = DataSeries::new("CAM-Chord");
    for (x, y) in run(true, opts.sub_seed(0xF1)) {
        chord.push(x, y);
    }
    let mut koorde = DataSeries::new("CAM-Koorde");
    for (x, y) in run(false, opts.sub_seed(0xF2)) {
        koorde.push(x, y);
    }
    table.push(chord);
    table.push(koorde);
    table
}

fn play_trace<P: DhtProtocol>(
    net: &mut DynamicNetwork<P>,
    trace: &cam_workload::ChurnTrace,
    region_split: bool,
    deliveries: &mut Vec<f64>,
    protocol: P,
) {
    use cam_workload::ChurnKind;
    let chunk = trace.events.len() / 10;
    for (i, event) in trace.events.iter().enumerate() {
        let at = cam_sim::time::SimTime(event.at_micros);
        if at > net.sim.now() {
            net.sim.run_until(at);
        }
        match event.kind {
            ChurnKind::Join(member) => {
                let _ = net.inject_join(member, protocol.clone());
            }
            ChurnKind::Leave(id) | ChurnKind::Crash(id) => {
                let _ = net.remove_member(id);
            }
        }
        if chunk > 0 && (i + 1) % chunk == 0 {
            // Let maintenance breathe briefly, then snapshot delivery from
            // a random live source.
            net.sim.run_until(net.sim.now() + Duration::from_secs(5));
            let source = net
                .actors()
                .iter()
                .map(|(_, a)| *a)
                .find(|a| net.sim.is_alive(*a))
                .expect("some member survives");
            let payload = net.start_multicast(source, region_split);
            net.sim.run_until(net.sim.now() + Duration::from_secs(10));
            deliveries.push(net.delivery_ratio(payload));
        }
    }
}

/// Ext-H: multicast delivery under random per-message loss — the
/// "reliable delivery" concern of Section 1. Region-splitting trees lose
/// an entire subtree per dropped control message; flooding's redundant
/// edges mask most losses; anti-entropy pull gossip (pbcast-style, see
/// `DhtActor::set_anti_entropy`) converges either system back to full
/// delivery.
pub fn loss(opts: &Options) -> DataTable {
    let n = opts.n.min(1_000);
    let rates = [0.0f64, 0.01, 0.02, 0.05, 0.10];
    let mut table = DataTable::new(
        "Ext-H: delivery ratio vs per-message loss probability",
        "loss_probability",
    );
    let results = parallel_sweep(rates.to_vec(), |&rate| {
        let seed = opts.sub_seed((rate * 1000.0) as u64);
        let members: Vec<_> = Scenario::paper_default(seed)
            .with_n(n)
            .members()
            .iter()
            .collect();
        let latency = LatencyModel::Uniform {
            min: Duration::from_millis(20),
            max: Duration::from_millis(80),
        };
        let space = cam_ring::IdSpace::PAPER;
        let run = |region_split: bool, repair: bool| -> f64 {
            let mut ratios = Vec::new();
            if region_split {
                let mut net = DynamicNetwork::converged(
                    space,
                    &members,
                    CamChordProtocol,
                    seed,
                    latency.clone(),
                );
                net.sim.set_loss_probability(rate);
                if repair {
                    net.enable_anti_entropy();
                }
                measure_loss(&mut net, true, repair, &mut ratios);
            } else {
                let mut net = DynamicNetwork::converged(
                    space,
                    &members,
                    CamKoordeProtocol,
                    seed,
                    latency.clone(),
                );
                net.sim.set_loss_probability(rate);
                if repair {
                    net.enable_anti_entropy();
                }
                measure_loss(&mut net, false, repair, &mut ratios);
            }
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        (run(true, false), run(false, false), run(true, true))
    });
    let mut chord = DataSeries::new("CAM-Chord (region trees)");
    let mut koorde = DataSeries::new("CAM-Koorde (flooding)");
    let mut repaired = DataSeries::new("CAM-Chord + anti-entropy");
    for (&rate, (c, k, r)) in rates.iter().zip(results) {
        chord.push(rate, c);
        koorde.push(rate, k);
        repaired.push(rate, r);
    }
    table.push(chord);
    table.push(koorde);
    table.push(repaired);
    table
}

fn measure_loss<P: DhtProtocol>(
    net: &mut DynamicNetwork<P>,
    region_split: bool,
    repair_window: bool,
    ratios: &mut Vec<f64>,
) {
    let source = net.actors()[0].1;
    for _ in 0..3 {
        let payload = net.start_multicast(source, region_split);
        let wait = if repair_window { 60 } else { 15 };
        net.sim.run_until(net.sim.now() + Duration::from_secs(wait));
        ratios.push(net.delivery_ratio(payload));
    }
}

/// Ext-I: the paper's Theorems 1–6 as curves next to measurements — the
/// analytic expected path lengths vs the simulated averages across
/// capacities (the quantitative backing for Figure 11's reference line).
pub fn theory(opts: &Options) -> DataTable {
    use cam_core::theory;
    let mut table = DataTable::new(
        "Ext-I: theorem formulas vs measured average multicast path lengths",
        "avg_capacity",
    );
    let capacities: Vec<u32> = vec![4, 6, 8, 12, 20, 40, 80];
    let n = opts.n;
    let results = parallel_sweep(capacities.clone(), |&mean_c| {
        let hi = if mean_c <= 4 { 4 } else { 2 * mean_c - 4 };
        let group = Scenario::paper_default(opts.sub_seed(u64::from(mean_c) + 0x71))
            .with_n(n)
            .with_capacity(CapacityAssignment::Uniform { lo: 4, hi })
            .members();
        let caps: Vec<u32> = group.iter().map(|m| m.capacity).collect();
        let chord = sample_trees(
            &CamChord::new(group.clone()),
            opts.sources,
            opts.sub_seed(1),
        )
        .avg_path_len
        .mean();
        let koorde = sample_trees(&CamKoorde::new(group), opts.sources, opts.sub_seed(2))
            .avg_path_len
            .mean();
        let t_chord = theory::expected_cam_chord_path(n, &caps);
        let t_koorde = theory::expected_cam_koorde_path((n as f64).log2(), &caps);
        (chord, t_chord, koorde, t_koorde)
    });
    let mut mc = DataSeries::new("CAM-Chord measured");
    let mut tc = DataSeries::new("CAM-Chord theory (Thm 3)");
    let mut mk = DataSeries::new("CAM-Koorde measured");
    let mut tk = DataSeries::new("CAM-Koorde theory (Thm 5)");
    for (&c, (m1, t1, m2, t2)) in capacities.iter().zip(results) {
        mc.push(f64::from(c), m1);
        tc.push(f64::from(c), t1);
        mk.push(f64::from(c), m2);
        tk.push(f64::from(c), t2);
    }
    table.push(mc);
    table.push(tc);
    table.push(mk);
    table.push(tk);
    table
}

/// Ext-K: how *local* the implicit trees' adaptation to membership change
/// is — the paper's "dynamic membership" claim made quantitative. One
/// member joins (or leaves); the implicit tree from the same source is
/// recomputed; we count how many of the surviving members changed parent.
pub fn tree_stability(opts: &Options) -> DataTable {
    use rand::{Rng, SeedableRng};
    let n = opts.n.min(20_000);
    let trials = 20usize;
    let mut table = DataTable::new(
        format!("Ext-K: members (of {n}) whose tree parent changes after one join/leave"),
        "trial",
    );
    let base = Scenario::paper_default(opts.sub_seed(0xB1))
        .with_n(n)
        .members();
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.sub_seed(0xB2));

    let mut chord_join = DataSeries::new("CAM-Chord join");
    let mut chord_leave = DataSeries::new("CAM-Chord leave");
    let mut koorde_join = DataSeries::new("CAM-Koorde join");
    let mut koorde_leave = DataSeries::new("CAM-Koorde leave");

    for t in 0..trials {
        let source_id = base.member(rng.gen_range(0..base.len())).id;
        // Join: a fresh random member.
        let newcomer = loop {
            let id = cam_ring::Id(rng.gen_range(0..base.space().size()));
            if base.index_of(id).is_none() {
                break cam_overlay::Member {
                    id,
                    capacity: rng.gen_range(4..=10),
                    upload_kbps: rng.gen_range(400.0..=1000.0),
                };
            }
        };
        let joined = base.inserted(newcomer).expect("fresh id");
        // Leave: a random member other than the source.
        let leaver = loop {
            let m = base.member(rng.gen_range(0..base.len())).id;
            if m != source_id {
                break m;
            }
        };
        let left = base.removed(leaver).expect("non-empty");

        chord_join.push(
            t as f64,
            parent_churn(CamChord::new, &base, &joined, source_id),
        );
        chord_leave.push(
            t as f64,
            parent_churn(CamChord::new, &base, &left, source_id),
        );
        koorde_join.push(
            t as f64,
            parent_churn(CamKoorde::new, &base, &joined, source_id),
        );
        koorde_leave.push(
            t as f64,
            parent_churn(CamKoorde::new, &base, &left, source_id),
        );
    }
    table.push(chord_join);
    table.push(chord_leave);
    table.push(koorde_join);
    table.push(koorde_leave);
    table
}

/// Number of members present in both groups whose tree parent (by
/// identifier) differs between the two groups' trees from `source_id`.
fn parent_churn<O: StaticOverlay>(
    make: impl Fn(cam_overlay::MemberSet) -> O,
    g1: &cam_overlay::MemberSet,
    g2: &cam_overlay::MemberSet,
    source_id: cam_ring::Id,
) -> f64 {
    let tree_of = |g: &cam_overlay::MemberSet| {
        make(g.clone()).multicast_tree(g.index_of(source_id).expect("source present"))
    };
    let (t1, t2) = (tree_of(g1), tree_of(g2));
    let mut changed = 0usize;
    for i1 in 0..g1.len() {
        let id = g1.member(i1).id;
        let Some(i2) = g2.index_of(id) else { continue };
        let p1 = t1.parent_of(i1).map(|p| g1.member(p).id);
        let p2 = t2.parent_of(i2).map(|p| g2.member(p).id);
        if p1 != p2 {
            changed += 1;
        }
    }
    changed as f64
}

/// Ext-J: capacity-awareness under *realistic* (heavy-tailed) bandwidth
/// heterogeneity. The paper sweeps uniform ranges (Figure 7); measurement
/// studies report Pareto upload capacities, where the mean/minimum gap —
/// and hence CAM's advantage — is far larger.
pub fn heterogeneity(opts: &Options) -> DataTable {
    use cam_workload::BandwidthDist;
    let mean = 700.0;
    let cases: Vec<(&str, BandwidthDist)> = vec![
        ("uniform [400,1000]", BandwidthDist::PAPER),
        ("pareto alpha=3", BandwidthDist::pareto_with_mean(mean, 3.0)),
        ("pareto alpha=2", BandwidthDist::pareto_with_mean(mean, 2.0)),
        (
            "pareto alpha=1.5",
            BandwidthDist::pareto_with_mean(mean, 1.5),
        ),
    ];
    let mut table = DataTable::new(
        "Ext-J: CAM-Chord throughput improvement under heavy-tailed bandwidths",
        "case_index",
    );
    let results = parallel_sweep(cases.clone(), |(_, dist)| {
        let seed = opts.sub_seed(dist.mean() as u64 ^ 0x7A);
        // Degree 20 keeps even the slowest Pareto hosts above the c ≥ 4
        // clamp (p = 35 kbps), so the heterogeneity effect is not capped.
        let degree = 20u32;
        let aware = Scenario::paper_default(seed)
            .with_n(opts.n)
            .with_bandwidth(*dist)
            .with_capacity(CapacityAssignment::PerLink {
                p: dist.mean() / f64::from(degree),
                min: 4,
                max: 4096,
            })
            .members();
        let oblivious = Scenario::paper_default(seed)
            .with_n(opts.n)
            .with_bandwidth(*dist)
            .with_capacity(CapacityAssignment::Constant(degree))
            .members();
        let a = sample_trees(&CamChord::new(aware), opts.sources, seed ^ 1)
            .throughput_kbps
            .mean();
        let o = sample_trees(&CamChord::new(oblivious), opts.sources, seed ^ 2)
            .throughput_kbps
            .mean();
        (a, o)
    });
    let mut aware_s = DataSeries::new("capacity-aware (kbps)");
    let mut obliv_s = DataSeries::new("capacity-oblivious (kbps)");
    let mut ratio_s = DataSeries::new("improvement ratio");
    for (i, (a, o)) in results.into_iter().enumerate() {
        aware_s.push(i as f64, a);
        obliv_s.push(i as f64, o);
        ratio_s.push(i as f64, a / o);
    }
    table.title = format!(
        "Ext-J heterogeneity: {}",
        cases
            .iter()
            .enumerate()
            .map(|(i, (name, _))| format!("{i}={name}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    table.push(aware_s);
    table.push(obliv_s);
    table.push(ratio_s);
    table
}

/// Ext-G: what §5.2's Proximity Neighbor Selection buys — mean multicast
/// path *delay* (planar-coordinate latency model) with and without
/// least-delay-first neighbor choice, at equal hop counts.
pub fn proximity(opts: &Options) -> DataTable {
    use rand::{Rng, SeedableRng};
    let n = opts.n.min(10_000);
    let group = Scenario::paper_default(opts.sub_seed(0xA1))
        .with_n(n)
        .members();
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.sub_seed(0xA2));
    let coords: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
    let delay = move |a: usize, b: usize| {
        let (xa, ya) = coords[a];
        let (xb, yb) = coords[b];
        5.0 + 100.0 * ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt()
    };

    let prox = ProximityCamChord::new(group.clone(), &delay);
    let plain = CamChord::new(group.clone());

    let mut table = DataTable::new(
        "Ext-G: proximity neighbor selection — mean path delay and hops per source",
        "source_index",
    );
    let mut plain_ms = DataSeries::new("plain delay (ms)");
    let mut prox_ms = DataSeries::new("proximity delay (ms)");
    let mut plain_hops = DataSeries::new("plain hops");
    let mut prox_hops = DataSeries::new("proximity hops");
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(opts.sub_seed(0xA3));
    for i in 0..opts.sources.max(3) {
        let src = rng2.gen_range(0..n);
        let pt = prox.multicast_tree(src);
        let bt = plain.multicast_tree(src);
        debug_assert!(pt.is_complete() && bt.is_complete());
        prox_ms.push(i as f64, prox.mean_path_delay_ms(&pt));
        plain_ms.push(i as f64, prox.mean_path_delay_ms(&bt));
        prox_hops.push(i as f64, pt.stats().avg_path_len);
        plain_hops.push(i as f64, bt.stats().avg_path_len);
    }
    table.push(plain_ms);
    table.push(prox_ms);
    table.push(plain_hops);
    table.push(prox_hops);
    table
}

/// Ext-L: multi-group pub/sub — delivery and capacity fairness as the
/// group count scales over one shared universe (DESIGN.md §3g).
///
/// A seeded Zipf workload (`MultiGroupScenario::zipf_subscriptions`)
/// creates the groups and drives subscriptions through the
/// [`GroupRegistry`](cam_pubsub::GroupRegistry)'s admission control;
/// every publish is then folded into a per-group delivery census. Three
/// measurements per group count: mean per-group delivery ratio, the
/// admitted fraction of subscription attempts, and Jain's index over the
/// per-node aggregate child load (1.0 = perfectly even forwarding load
/// across the universe). The global invariant — no node's total children
/// across all groups exceeds its `c_x` — is asserted, not measured.
pub fn multigroup(opts: &Options) -> DataTable {
    use cam_pubsub::GroupRegistry;
    use cam_trace::GroupDeliveryCensus;
    use cam_workload::{GroupOp, MultiGroupScenario};

    let n = opts.n.min(10_000);
    let group_counts = [8usize, 32, 128, 512];
    let mut table = DataTable::new(
        format!("Ext-L: multi-group pub/sub over a shared {n}-node universe"),
        "groups",
    );
    let mut delivery = DataSeries::new("mean per-group delivery ratio");
    let mut admitted_frac = DataSeries::new("admitted subscription fraction");
    let mut jain_load = DataSeries::new("jain index of per-node child load");
    for &groups in &group_counts {
        let universe = Scenario::paper_default(opts.sub_seed(0xF1))
            .with_n(n)
            .members();
        let mut reg = GroupRegistry::new(universe);
        let subscriptions = (groups * 25).min(2 * n);
        let ops = MultiGroupScenario::new(n, groups, opts.sub_seed(0xF2))
            .zipf_subscriptions(subscriptions);
        let (mut attempts, mut admitted) = (0u64, 0u64);
        let mut census = GroupDeliveryCensus::default();
        for op in ops {
            match op {
                GroupOp::Create { group } => {
                    reg.create_group(group).expect("generator emits fresh ids");
                }
                GroupOp::Subscribe { group, node } => {
                    attempts += 1;
                    let a = reg.subscribe(group, node).expect("group was created");
                    admitted += u64::from(a.is_admitted());
                }
                GroupOp::Unsubscribe { group, node } => {
                    reg.unsubscribe(group, node).expect("group was created");
                }
                GroupOp::Publish { group } => {
                    reg.publish_census(group, &mut census)
                        .expect("group was created");
                }
            }
        }
        reg.ledger()
            .verify()
            .expect("no node past its global capacity");
        let ratios = census.ratios();
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let load: Vec<f64> = (0..n).map(|i| f64::from(reg.ledger().charged(i))).collect();
        delivery.push(groups as f64, mean_ratio);
        admitted_frac.push(groups as f64, admitted as f64 / attempts.max(1) as f64);
        jain_load.push(groups as f64, crate::fairness::jain(&load));
    }
    table.push(delivery);
    table.push(admitted_frac);
    table.push(jain_load);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Options {
        let mut o = Options::quick();
        o.n = 400;
        o.sources = 2;
        o
    }

    #[test]
    fn resilience_flooding_beats_region_split_under_crashes() {
        let mut opts = tiny();
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
    fn overhead_chord_exceeds_koorde() {
        let mut opts = tiny();
        opts.n = 800;
        let table = overhead(&opts);
        let chord = table.series_named("CAM-Chord neighbors").unwrap();
        let koorde = table.series_named("CAM-Koorde neighbors").unwrap();
        // At small capacity the log n / log c factor dominates.
        assert!(chord.y_near(4.0).unwrap() > koorde.y_near(4.0).unwrap());
        // CAM-Koorde neighbor count is bounded by c.
        for &(c, count) in &koorde.points {
            assert!(count <= c, "koorde neighbors {count} exceed capacity {c}");
        }
    }

    #[test]
    fn ablation_runs() {
        let table = ablation(&tiny());
        assert_eq!(table.series[0].points.len(), 4);
        for &(_, v) in &table.series[0].points {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn load_balance_shared_tree_concentrates() {
        let mut opts = tiny();
        opts.n = 1_000;
        let table = load_balance(&opts);
        let shared = table
            .series_named("shared tree (§5.1 tree-building)")
            .unwrap();
        let cam = table.series_named("per-source trees (CAM)").unwrap();
        // Median member: shared tree ≈ 0 (leaves are the majority), CAM > 0.
        let median_shared = shared.y_near(50.0).unwrap();
        let median_cam = cam.y_near(50.0).unwrap();
        assert!(
            median_shared <= median_cam,
            "shared {median_shared} vs cam {median_cam}"
        );
        // Max load: shared tree's hottest node far above the CAM's.
        assert!(shared.y_near(100.0).unwrap() > cam.y_near(100.0).unwrap());
    }

    #[test]
    fn churn_keeps_delivery_high() {
        let mut opts = tiny();
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
    fn proximity_cuts_delay_not_hops() {
        let mut opts = tiny();
        opts.n = 800;
        let table = proximity(&opts);
        let plain = table.series_named("plain delay (ms)").unwrap();
        let prox = table.series_named("proximity delay (ms)").unwrap();
        let mean = |s: &crate::DataSeries| {
            s.points.iter().map(|&(_, y)| y).sum::<f64>() / s.points.len() as f64
        };
        assert!(
            mean(prox) < mean(plain),
            "proximity {:.1}ms should beat plain {:.1}ms",
            mean(prox),
            mean(plain)
        );
    }

    #[test]
    fn implicit_trees_adapt_locally() {
        let mut opts = tiny();
        opts.n = 2_000;
        let table = tree_stability(&opts);
        for name in ["CAM-Chord join", "CAM-Chord leave"] {
            let s = table.series_named(name).unwrap();
            let mean: f64 =
                s.points.iter().map(|&(_, y)| y).sum::<f64>() / s.points.len() as f64;
            // A single membership change rewires O(c) parents, not O(n).
            assert!(
                mean < 30.0,
                "{name}: a single membership change rewired {mean:.1} parents"
            );
        }
    }

    #[test]
    fn heavy_tails_widen_cam_advantage() {
        let mut opts = tiny();
        opts.n = 2_000;
        opts.sources = 2;
        let table = heterogeneity(&opts);
        let ratio = table.series_named("improvement ratio").unwrap();
        let uniform = ratio.y_near(0.0).unwrap();
        let heavy = ratio.y_near(3.0).unwrap();
        assert!(uniform > 1.2, "uniform case should already favor CAM");
        assert!(
            heavy > uniform,
            "heavier tail should widen the gap: {heavy:.2} vs {uniform:.2}"
        );
    }

    #[test]
    fn loss_flooding_degrades_gracefully() {
        let mut opts = tiny();
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

    #[test]
    fn theory_tracks_measurement_shape() {
        let mut opts = tiny();
        opts.n = 2_000;
        opts.sources = 2;
        let table = theory(&opts);
        // Measured and theoretical curves are both decreasing and within a
        // small constant factor of each other.
        for (measured, predicted) in [
            ("CAM-Chord measured", "CAM-Chord theory (Thm 3)"),
            ("CAM-Koorde measured", "CAM-Koorde theory (Thm 5)"),
        ] {
            let m = table.series_named(measured).unwrap();
            let t = table.series_named(predicted).unwrap();
            assert!(m.points.first().unwrap().1 > m.points.last().unwrap().1);
            for (&(c, mv), &(_, tv)) in m.points.iter().zip(&t.points) {
                let ratio = mv / tv;
                assert!(
                    (0.2..5.0).contains(&ratio),
                    "{measured} at c={c}: measured {mv:.2} vs theory {tv:.2}"
                );
            }
        }
    }

    #[test]
    fn multigroup_sweep_is_sound() {
        let mut opts = tiny();
        opts.n = 600;
        let table = multigroup(&opts);
        let delivery = table.series_named("mean per-group delivery ratio").unwrap();
        let admitted = table
            .series_named("admitted subscription fraction")
            .unwrap();
        let jain = table
            .series_named("jain index of per-node child load")
            .unwrap();
        for s in [delivery, admitted, jain] {
            assert_eq!(s.points.len(), 4, "{}", s.name);
            for &(g, y) in &s.points {
                assert!((0.0..=1.0).contains(&y), "{} at {g} groups: {y}", s.name);
            }
        }
        // With capacity to spare the workload should be overwhelmingly
        // admitted and delivered.
        assert!(admitted.points[0].1 > 0.9, "{:?}", admitted.points);
        assert!(delivery.points[0].1 > 0.9, "{:?}", delivery.points);
    }

    #[test]
    fn lookup_hops_scale_sublinearly() {
        let mut opts = tiny();
        opts.n = 2_000;
        let table = lookup_hops(&opts);
        for s in &table.series {
            let (n0, h0) = s.points[0];
            let (n1, h1) = *s.points.last().unwrap();
            assert!(
                h1 < h0 * (n1 / n0).sqrt().max(2.0) + 8.0,
                "{}: hops grew too fast ({h0} @ {n0} → {h1} @ {n1})",
                s.name
            );
        }
    }
}
