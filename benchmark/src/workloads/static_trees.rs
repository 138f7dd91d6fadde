//! `static_trees`: analytic multicast trees and lookups at the paper's
//! n = 100,000.
//!
//! All work is in cam-ring resolution, cam-overlay's member set and tree,
//! and cam-core child selection. The actor, the simulator and the wire do
//! nothing, so a wire or actor optimisation must show no change here.
//!
//! Closed loop, one client. One batch is [`TREES_PER_BATCH`] CAM-Chord
//! trees, as many CAM-Koorde trees (each summarised with `stats()` and
//! `bottleneck_throughput_kbps`), and [`LOOKUPS_PER_BATCH`] lookups per
//! protocol. An op is one tree; `msgs` are the tree's edges (one message
//! per member reached).

use std::hint::black_box;
use std::time::Instant;

use cam_core::{CamChord, CamKoorde};
use cam_overlay::{MemberSet, MulticastTree, StaticOverlay};
use cam_ring::Id;
use cam_workload::Scenario;

use crate::harness::{
    cpu_ns, mix64, Batch, Checks, Config, Outcome, Pass, RepBudget, Reps, DEFAULT_SEED,
    REFERENCE_SHARE,
};
use crate::spans::{span, Log, Name, SpanLog};

const N: usize = 100_000;
const TREES_PER_BATCH: usize = 10;
const LOOKUPS_PER_BATCH: usize = 40_000;
/// Discarded before timing: the first hundred trees run a quarter slower
/// than steady state (page faults in the tree scratch, cold caches).
const WARMUP_TREES: usize = 100;
/// Ops after which `peak_rss_mb` is read (see `Pass::checkpoint_rss`).
const RSS_CHECKPOINT_OPS: u64 = 100;
const SETUP_REPEATS: usize = 3;
/// Lookups timed in the traced pass's `owner_idx` probe.
const OWNER_IDX_PROBE: usize = 2_000_000;

/// First CAM-Chord and CAM-Koorde tree of the default seed:
/// `(avg_path_len, bottleneck_kbps)`, taken from the code at the commit
/// that defined the benchmark.
const PINNED_FIRST_CHORD: (f64, f64) = (6.633886338863388, 40.11645708292673);
const PINNED_FIRST_KOORDE: (f64, f64) = (8.765687656876569, 41.353212683769286);

struct World {
    group: MemberSet,
    chord: CamChord,
    koorde: CamKoorde,
    seed: u64,
}

impl World {
    fn build(seed: u64, log: Option<&Log>) -> World {
        let group = span(log, Name::WorkloadScenarioMembers, || {
            Scenario::paper_default(seed).with_n(N).members()
        });
        let chord = CamChord::new(group.clone());
        let koorde = CamKoorde::new(group.clone());
        let world = World {
            group,
            chord,
            koorde,
            seed,
        };
        for i in 0..WARMUP_TREES / 2 {
            let src = world.source(u64::MAX - i as u64);
            black_box(world.chord.multicast_tree(src).stats());
            black_box(world.koorde.multicast_tree(src).stats());
        }
        world
    }

    /// The `i`-th sampled source. Sources are distinct with overwhelming
    /// probability (a few thousand draws from 100,000); a repeat would only
    /// rebuild the same tree.
    fn source(&self, i: u64) -> usize {
        (mix64(self.seed ^ mix64(i)) % N as u64) as usize
    }

    fn pass(&self, reps: Reps, log: Option<&Log>, checks: &mut Checks) -> Pass {
        let mut pass = Pass::default();
        let mut budget = RepBudget::new(reps);
        let mask = self.group.space().size() - 1;
        let (mut tput_sum, mut lookup_hops, mut lookups) = (0.0f64, 0u64, 0u64);
        let (mut chord_lookup_ns, mut koorde_lookup_ns) = (0u64, 0u64);
        let mut tree_no = 0u64;
        while budget.more() {
            let mut wall_ns = 0u64;
            let cpu0 = cpu_ns();
            let mut sampled: Option<(MulticastTree, &'static str)> = None;
            for protocol in [Protocol::Chord, Protocol::Koorde] {
                for k in 0..TREES_PER_BATCH {
                    let src = self.source(tree_no);
                    if let Some(l) = log {
                        l.borrow_mut().set_op(tree_no);
                    }
                    let t0 = Instant::now();
                    let (tree, stats, tput) = span(log, Name::Op, || {
                        let tree = match protocol {
                            Protocol::Chord => span(log, Name::CoreChordTree, || {
                                self.chord.multicast_tree(src)
                            }),
                            Protocol::Koorde => span(log, Name::CoreKoordeTree, || {
                                self.koorde.multicast_tree(src)
                            }),
                        };
                        let (stats, tput) = span(log, Name::OverlayTreeStats, || {
                            (tree.stats(), tree.bottleneck_throughput_kbps(&self.group))
                        });
                        (tree, stats, tput)
                    });
                    let op_ns = t0.elapsed().as_nanos() as u64;
                    pass.driver.clock_reads += 2;
                    wall_ns += op_ns;
                    pass.op_wall_ns.push(op_ns as f64);
                    pass.attempted += 1;
                    if !tree.is_complete() || stats.delivered != N {
                        pass.failed += 1;
                    }
                    pass.hops_sum += stats.avg_path_len;
                    pass.hops_count += 1.0;
                    tput_sum += tput;
                    if budget.done() == 0 && k == 0 && self.seed == DEFAULT_SEED {
                        let (pinned, what) = match protocol {
                            Protocol::Chord => (PINNED_FIRST_CHORD, "CAM-Chord"),
                            Protocol::Koorde => (PINNED_FIRST_KOORDE, "CAM-Koorde"),
                        };
                        checks.require((stats.avg_path_len, tput) == pinned, || {
                            format!(
                                "first {what} tree of the default seed: path length {:?} and bottleneck {:?} kbps differ from the pinned {pinned:?}",
                                stats.avg_path_len, tput
                            )
                        });
                    }
                    tree_no += 1;
                    sampled = Some((tree, protocol.name()));
                }
                // Lookups: same count for both protocols, keys and origins
                // drawn from the seed.
                let base = budget.done() * LOOKUPS_PER_BATCH as u64;
                let t0 = Instant::now();
                let hops = span(log, protocol.lookup_span(), || {
                    let mut hops = 0u64;
                    for j in 0..LOOKUPS_PER_BATCH as u64 {
                        let r = mix64(self.seed.rotate_left(17) ^ (base + j));
                        let origin = (r % N as u64) as usize;
                        let key = Id((r >> 20) & mask);
                        let found = match protocol {
                            Protocol::Chord => self.chord.lookup(origin, key),
                            Protocol::Koorde => self.koorde.lookup(origin, key),
                        };
                        hops += u64::from(found.hops());
                    }
                    hops
                });
                let ns = t0.elapsed().as_nanos() as u64;
                pass.driver.clock_reads += 2;
                wall_ns += ns;
                match protocol {
                    Protocol::Chord => chord_lookup_ns += ns,
                    Protocol::Koorde => koorde_lookup_ns += ns,
                }
                lookup_hops += hops;
                lookups += LOOKUPS_PER_BATCH as u64;
            }
            pass.batches.push(Batch {
                ops: 2 * TREES_PER_BATCH as u64,
                msgs: 2 * TREES_PER_BATCH as u64 * (N as u64 - 1),
                wall_ns,
                cpu_ns: cpu_ns() - cpu0,
            });
            // Structural check on the batch's last tree (every member
            // reached once, hop counts consistent, nobody over `c_x`
            // children), outside the timed walls and the CPU reading.
            if let Some((tree, name)) = sampled {
                let verdict = tree.check_invariants(&self.group);
                checks.require(verdict.is_ok(), || {
                    format!("{name} tree violates an invariant: {verdict:?}")
                });
            }
            pass.checkpoint_rss(RSS_CHECKPOINT_OPS);
            budget.tick();
        }
        let trees = pass.attempted as f64;
        let per_protocol = (lookups / 2).max(1) as f64;
        pass.set_exact("path_len_mean", pass.path_len_mean().to_bits());
        pass.set_exact("bottleneck_kbps_mean", (tput_sum / trees).to_bits());
        pass.set_exact("lookup_hops", lookup_hops);
        pass.layer
            .insert("user.bottleneck_kbps_mean", tput_sum / trees);
        pass.layer.insert(
            "core.chord_lookup_ns",
            chord_lookup_ns as f64 / per_protocol,
        );
        pass.layer.insert(
            "core.koorde_lookup_ns",
            koorde_lookup_ns as f64 / per_protocol,
        );
        pass.layer.insert(
            "core.lookup_hops_mean",
            lookup_hops as f64 / lookups.max(1) as f64,
        );
        pass
    }

    /// Per-layer numbers that need the spans of the traced pass, plus the
    /// probes the end-to-end pass has no reason to run.
    fn layer_probes(&self, log: &Log, traced: &mut Pass) {
        let trees_per_protocol = (traced.attempted / 2).max(1) as f64;
        let per_member = |name: Name| {
            log.borrow().aggregate(name).total_ns as f64 / trees_per_protocol / N as f64
        };
        traced.layer.insert(
            "core.chord_tree_ns_per_member",
            per_member(Name::CoreChordTree),
        );
        traced.layer.insert(
            "core.koorde_tree_ns_per_member",
            per_member(Name::CoreKoordeTree),
        );
        traced.layer.insert(
            "overlay.tree_stats_ns_per_member",
            per_member(Name::OverlayTreeStats) / 2.0,
        );

        let mask = self.group.space().size() - 1;
        let t0 = Instant::now();
        span(Some(log), Name::RingOwnerIdx, || {
            let mut acc = 0usize;
            for i in 0..OWNER_IDX_PROBE as u64 {
                acc = acc.wrapping_add(self.group.owner_idx(Id(mix64(self.seed ^ i) & mask)));
            }
            black_box(acc);
        });
        traced.layer.insert(
            "ring.owner_idx_ns",
            t0.elapsed().as_nanos() as f64 / OWNER_IDX_PROBE as f64,
        );

        let members: Vec<_> = self.group.iter().collect();
        let space = self.group.space();
        let t0 = Instant::now();
        let rebuilt = span(Some(log), Name::OverlayMembersetBuild, || {
            MemberSet::new(space, members)
        });
        traced.layer.insert(
            "overlay.memberset_build_ms",
            t0.elapsed().as_secs_f64() * 1e3,
        );
        black_box(rebuilt.map(|g| g.len()).unwrap_or(0));
        traced.layer.insert(
            "workload.scenario_members_ms",
            log.borrow()
                .aggregate(Name::WorkloadScenarioMembers)
                .mean_ns()
                / 1e6,
        );
    }
}

#[derive(Clone, Copy)]
enum Protocol {
    Chord,
    Koorde,
}

impl Protocol {
    fn name(self) -> &'static str {
        match self {
            Protocol::Chord => "CAM-Chord",
            Protocol::Koorde => "CAM-Koorde",
        }
    }

    fn lookup_span(self) -> Name {
        match self {
            Protocol::Chord => Name::CoreChordLookup,
            Protocol::Koorde => Name::CoreKoordeLookup,
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    if cfg.trace {
        let t0 = Instant::now();
        let world = World::build(cfg.seed, None);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.pass = world.pass(
            Reps::For(cfg.seconds * REFERENCE_SHARE),
            None,
            &mut out.checks,
        );
        drop(world);
        let log = SpanLog::shared();
        let world = World::build(cfg.seed, Some(&log));
        let mut traced = world.pass(
            Reps::Exactly(out.pass.batches.len() as u64),
            Some(&log),
            &mut out.checks,
        );
        world.layer_probes(&log, &mut traced);
        out.traced = Some(traced);
        out.log = Some(log);
    } else {
        let mut world = None;
        for _ in 0..SETUP_REPEATS {
            drop(world.take());
            let t0 = Instant::now();
            world = Some(World::build(cfg.seed, None));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let world = world.expect("SETUP_REPEATS > 0");
        out.pass = world.pass(Reps::For(cfg.seconds), None, &mut out.checks);
    }
    out
}
