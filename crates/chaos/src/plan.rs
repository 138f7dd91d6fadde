//! Fault plans: a complete fault schedule derived deterministically from
//! one seed.
//!
//! A [`FaultPlan`] is the unit of reproduction: it carries everything a
//! run needs (topology size, protocol, fault events with virtual-time
//! stamps) and nothing it doesn't. Two plans with the same fields drive
//! bit-identical runs, which is what lets the shrinker edit the event list
//! and still trust re-execution.
//!
//! The generator models cluster membership while it emits events — it
//! tracks which node indices are alive, never targets the multicast anchor
//! (index 0), caps the dead fraction so the ring stays repairable, and
//! splices join/leave waves from [`ChurnTrace`] so churn storms exercise
//! the same identifier-release machinery the workload crate ships.

use std::collections::BTreeSet;

use cam_overlay::{ByzantineBehavior, Member};
use cam_ring::IdSpace;
use cam_sim::rng::SimRng;
use cam_workload::{BandwidthDist, CapacityAssignment, ChurnKind, ChurnTrace, Scenario};

/// Which DHT protocol the plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// CAM-Chord with region-split multicast (duplicate-free by design).
    Chord,
    /// CAM-Koorde with constrained flooding (duplicate suppression is
    /// load-bearing, which makes it the interesting mutation target).
    Koorde,
}

/// One scheduled fault (or workload action) at a virtual-time instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time of the event, microseconds since run start.
    pub at_micros: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The fault taxonomy. `node` fields are indices into the harness's node
/// table: initial members in ring order, then joiners in event order —
/// identical on both hosts, which is what makes plans host-portable.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Hard-kill a node: state, timers, and retransmit tracking vanish.
    Crash {
        /// Victim index.
        node: u32,
    },
    /// Restart a previously crashed node with fresh (empty) state; it
    /// rejoins through the first live bootstrap.
    Restart {
        /// Index of the node to revive.
        node: u32,
    },
    /// Graceful-ish departure (same wire semantics as a crash — the paper's
    /// overlays treat silence as failure — but traced distinctly).
    Leave {
        /// Victim index.
        node: u32,
    },
    /// A brand-new member joins through a live bootstrap.
    Join {
        /// The joining member (identifier, capacity, bandwidth).
        member: Member,
    },
    /// Install a set of *directed* blocked links (asymmetric partition:
    /// `(a, b)` blocks frames from `a` to `b` only).
    PartitionStart {
        /// Directed node-index pairs to block.
        cut: Vec<(u32, u32)>,
    },
    /// Remove every blocked link installed so far.
    PartitionHeal,
    /// Raise message loss to `per_mille`/1000 (on top of nothing — bursts
    /// replace, not stack).
    LossBurst {
        /// Loss rate in per-mille during the burst.
        per_mille: u16,
    },
    /// Restore message loss to the plan's base rate.
    LossRestore,
    /// Set frame duplication to `per_mille`/1000. Wire-level fault: the
    /// in-memory transport delivers a second copy with an independent
    /// latency draw; the pure sim has no frame layer and ignores it.
    Duplicate {
        /// Duplication rate in per-mille (0 restores).
        per_mille: u16,
    },
    /// Start a multicast from the anchor node (index 0).
    Multicast,
    /// Register a pub/sub group in the harness's shadow
    /// [`GroupRegistry`](cam_pubsub::GroupRegistry). Group events are
    /// service-level: both hosts share one registry evolution, so they
    /// never perturb wire traffic or host parity, but every quiescent
    /// point checks the `cross_group_capacity` oracle against the
    /// registry's ledger.
    GroupCreate {
        /// Group id.
        group: u64,
    },
    /// Subscribe an *initial* node (index < plan.nodes) to a group in
    /// the shadow registry, under admission control.
    GroupSubscribe {
        /// Group id.
        group: u64,
        /// Subscriber index into the initial member table.
        node: u32,
    },
    /// Drop a shadow-registry subscription.
    GroupUnsubscribe {
        /// Group id.
        group: u64,
        /// Subscriber index into the initial member table.
        node: u32,
    },
    /// Destroy a shadow-registry group, releasing its capacity charges
    /// and rebalancing the survivors.
    GroupDestroy {
        /// Group id.
        group: u64,
    },
    /// Quiescent checkpoint: drain retransmit state, run the always-on
    /// oracles, and re-kick any stalled joins.
    Quiesce,
}

/// A fully materialized fault schedule plus the run parameters it assumes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was generated from; also seeds both hosts' RNGs.
    pub seed: u64,
    /// Preset name (`small` / `default` / `torture` / `colossal` /
    /// `custom`).
    pub preset: String,
    /// Initial cluster size.
    pub nodes: usize,
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Whether multicast uses region splitting (Chord) or flooding.
    pub region_split: bool,
    /// Whether anti-entropy payload repair runs. When on, the delivery
    /// oracle demands completeness for *every* payload; when off, only for
    /// the final post-heal multicast.
    pub anti_entropy: bool,
    /// Base message-loss rate in per-mille, active outside bursts.
    pub loss_base_per_mille: u16,
    /// Post-schedule settle time (seconds) before the final multicast.
    pub settle_secs: u64,
    /// Time allowed for the final multicast to complete (seconds).
    pub final_wait_secs: u64,
    /// A planned Byzantine node, or `None` for the crash-only fault
    /// model. When set, the harness attaches the behavior before the run
    /// starts and judges the run with the degraded-oracle catalog.
    pub adversary: Option<AdversarySpec>,
    /// The schedule, non-decreasing in `at_micros`.
    pub events: Vec<FaultEvent>,
}

/// A planned Byzantine adversary: which node misbehaves, how, and the
/// seed of its private decision stream. `Copy`, so plans stay cheap to
/// shrink (`FaultPlan::with_events` copies it along unchanged — the
/// shrinker edits schedules, never the threat model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarySpec {
    /// Index of the Byzantine node in the initial member table (ring
    /// order). Never 0 — the anchor must stay honest so multicasts
    /// originate from a trustworthy source.
    pub node: u32,
    /// The scripted misbehavior.
    pub behavior: ByzantineBehavior,
    /// Seed for the adversary's private RNG stream (decisions must come
    /// from the plan, not from ambient host randomness).
    pub seed: u64,
}

/// Knobs for the plan generator; the presets are fixed instances of this.
struct PresetCfg {
    name: &'static str,
    nodes: usize,
    events: usize,
    mean_gap_micros: f64,
    loss_base_per_mille: u16,
    anti_entropy: bool,
    settle_secs: u64,
    final_wait_secs: u64,
    /// Cumulative-ish weights out of 100 for each event class, in order:
    /// crash, restart, churn storm, partition, loss burst, duplication,
    /// multicast; the remainder (after `group_weight`) is quiesce.
    weights: [u32; 7],
    /// Weight for multi-group pub/sub actions against the shadow
    /// registry (create/subscribe/unsubscribe/destroy).
    group_weight: u32,
    /// Whether to allow partitions / loss bursts / duplication at all
    /// (torture mirrors the legacy suite, which had none).
    wire_faults: bool,
}

const SMALL: PresetCfg = PresetCfg {
    name: "small",
    nodes: 16,
    events: 10,
    mean_gap_micros: 800_000.0,
    loss_base_per_mille: 0,
    anti_entropy: true,
    settle_secs: 60,
    final_wait_secs: 15,
    weights: [20, 10, 12, 13, 10, 10, 20],
    group_weight: 0,
    wire_faults: true,
};

const DEFAULT: PresetCfg = PresetCfg {
    name: "default",
    nodes: 24,
    events: 18,
    mean_gap_micros: 1_200_000.0,
    loss_base_per_mille: 10,
    anti_entropy: true,
    settle_secs: 90,
    final_wait_secs: 20,
    weights: [18, 9, 12, 12, 9, 7, 18],
    group_weight: 10,
    wire_faults: true,
};

const TORTURE: PresetCfg = PresetCfg {
    name: "torture",
    nodes: 220,
    events: 14,
    mean_gap_micros: 2_500_000.0,
    loss_base_per_mille: 0,
    anti_entropy: true,
    settle_secs: 150,
    final_wait_secs: 20,
    weights: [30, 10, 25, 0, 0, 0, 30],
    group_weight: 0,
    wire_faults: false,
};

/// The scale stressor: a 100,000-node plan with sharply reduced event
/// density (a couple of crashes and multicasts, no churn storms, joins,
/// restarts, or wire faults) — the point is the *size* of the converged
/// network, the shared `O(n)` directory, and the simulator's event queue
/// under six-figure actor counts, not fault coverage. Anti-entropy stays
/// on (the digest is O(#payloads) per node per tick, affordable even
/// here): with ~30 finger-fix rounds needed to purge a crashed node from
/// 100,000 routing tables, a multicast tree built inside the settle
/// window can orphan a subtree, and epidemic pull repair is what closes
/// it — exactly the paper's resilience story. Run in release mode; the
/// pinned seed lives in `tests/torture.rs` behind `#[ignore]` with a
/// dedicated CI step.
const COLOSSAL: PresetCfg = PresetCfg {
    name: "colossal",
    nodes: 100_000,
    events: 6,
    mean_gap_micros: 1_500_000.0,
    loss_base_per_mille: 0,
    anti_entropy: true,
    settle_secs: 20,
    final_wait_secs: 20,
    weights: [30, 0, 0, 0, 0, 0, 40],
    group_weight: 0,
    wire_faults: false,
};

impl FaultPlan {
    /// Small preset: 16 nodes, short schedule — the CI smoke target.
    pub fn small(seed: u64) -> FaultPlan {
        generate(seed, &SMALL)
    }

    /// Default preset: 24 nodes, the full fault taxonomy, long settle.
    pub fn default_plan(seed: u64) -> FaultPlan {
        generate(seed, &DEFAULT)
    }

    /// Torture preset: 220 nodes, crash/churn/multicast only — the chaos
    /// promotion of the legacy `tests/torture.rs` suite. Always CAM-Chord
    /// with region splitting, like the original.
    pub fn torture(seed: u64) -> FaultPlan {
        generate(seed, &TORTURE)
    }

    /// Colossal preset: 100,000 nodes, crash/multicast only — the
    /// million-node-track scale stressor (see [`COLOSSAL`]). Always
    /// CAM-Chord with region splitting.
    pub fn colossal(seed: u64) -> FaultPlan {
        generate(seed, &COLOSSAL)
    }

    /// Adversary preset: a small, otherwise-quiet plan with exactly one
    /// planned Byzantine node. 16 nodes, always CAM-Chord with region
    /// splitting (the region invariant is what most behaviors attack),
    /// lossless wire so every detection is attributable to the adversary,
    /// and three anchor multicasts so the adversary sees enough traffic
    /// to act on. For [`ByzantineBehavior::StaleIncarnation`] the plan
    /// also crashes the adversary's two ring neighbors between the first
    /// and second multicast, so the frozen stabilize snapshot keeps
    /// advertising genuinely dead members.
    pub fn adversary_plan(seed: u64, behavior: ByzantineBehavior) -> FaultPlan {
        // Node 1..=13 of 16: never the anchor (0), and the two slots
        // above the adversary stay in range for the stale-incarnation
        // neighbor crashes below.
        let node = 1 + (seed % 13) as u32;
        let mut events = vec![
            FaultEvent {
                at_micros: 2_000_000,
                kind: FaultKind::Multicast,
            },
            FaultEvent {
                at_micros: 6_000_000,
                kind: FaultKind::Multicast,
            },
            FaultEvent {
                at_micros: 10_000_000,
                kind: FaultKind::Multicast,
            },
        ];
        if behavior == ByzantineBehavior::StaleIncarnation {
            events.push(FaultEvent {
                at_micros: 3_600_000,
                kind: FaultKind::Crash { node: node + 1 },
            });
            events.push(FaultEvent {
                at_micros: 4_100_000,
                kind: FaultKind::Crash { node: node + 2 },
            });
            events.sort_by_key(|e| e.at_micros);
        }
        FaultPlan {
            seed,
            preset: "adversary".to_string(),
            nodes: 16,
            protocol: ProtocolChoice::Chord,
            region_split: true,
            anti_entropy: true,
            loss_base_per_mille: 0,
            settle_secs: 45,
            final_wait_secs: 15,
            adversary: Some(AdversarySpec {
                node,
                behavior,
                // Private decision stream, derived from the plan seed via
                // an independent split so it never aliases host RNGs.
                seed: SimRng::new(seed).split(0xADE5).seed(),
            }),
            events,
        }
    }

    /// Look up a preset constructor by name
    /// (`small`/`default`/`torture`/`colossal`).
    pub fn by_preset(name: &str, seed: u64) -> Option<FaultPlan> {
        match name {
            "small" => Some(FaultPlan::small(seed)),
            "default" => Some(FaultPlan::default_plan(seed)),
            "torture" => Some(FaultPlan::torture(seed)),
            "colossal" => Some(FaultPlan::colossal(seed)),
            _ => None,
        }
    }

    /// The initial member set the harness builds the converged cluster
    /// from — a pure function of `seed` and `nodes`.
    pub fn initial_members(&self) -> Vec<Member> {
        Scenario::paper_default(self.seed)
            .with_n(self.nodes)
            .members()
            .iter()
            .collect()
    }

    /// How many `Join` events the schedule carries (the harness sizes the
    /// transport's endpoint table by `nodes + join_count`).
    pub fn join_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Join { .. }))
            .count()
    }

    /// Same plan, different schedule — the shrinker's edit primitive.
    pub fn with_events(&self, events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan {
            events,
            preset: self.preset.clone(),
            ..*self
        }
    }
}

/// Generator state: a model of cluster membership as the schedule unfolds.
struct Model {
    /// Every member ever present, by node index (grows with joins).
    all: Vec<Member>,
    /// Indices currently alive.
    present: BTreeSet<u32>,
    /// Indices currently dead (crash or leave) and eligible for restart.
    dead: BTreeSet<u32>,
}

impl Model {
    fn pick_present_victim(&self, rng: &mut SimRng, floor: usize) -> Option<u32> {
        // Never the anchor, and never below the repairability floor.
        if self.present.len() <= floor {
            return None;
        }
        let candidates: Vec<u32> = self.present.iter().copied().filter(|&i| i != 0).collect();
        if candidates.is_empty() {
            return None;
        }
        let k = rng.uniform_incl(0, candidates.len() as u64 - 1) as usize;
        Some(candidates[k])
    }

    fn pick_dead(&self, rng: &mut SimRng) -> Option<u32> {
        if self.dead.is_empty() {
            return None;
        }
        let k = rng.uniform_incl(0, self.dead.len() as u64 - 1) as usize;
        self.dead.iter().copied().nth(k)
    }
}

fn generate(seed: u64, cfg: &PresetCfg) -> FaultPlan {
    let mut rng = SimRng::new(seed).split(0xCA05);
    let protocol = if cfg.name == "torture" || cfg.name == "colossal" || seed.is_multiple_of(2)
    {
        ProtocolChoice::Chord
    } else {
        ProtocolChoice::Koorde
    };
    let plan_shell = FaultPlan {
        seed,
        preset: cfg.name.to_string(),
        nodes: cfg.nodes,
        protocol,
        region_split: protocol == ProtocolChoice::Chord,
        anti_entropy: cfg.anti_entropy,
        loss_base_per_mille: cfg.loss_base_per_mille,
        settle_secs: cfg.settle_secs,
        final_wait_secs: cfg.final_wait_secs,
        adversary: None,
        events: Vec::new(),
    };

    let space = IdSpace::PAPER;
    let initial = plan_shell.initial_members();
    let mut model = Model {
        all: initial.clone(),
        present: (0..cfg.nodes as u32).collect(),
        dead: BTreeSet::new(),
    };
    // Keep at least 2/3 of the initial population alive so the ring's
    // 8-deep successor lists can always repair around the dead.
    let floor = (cfg.nodes * 2 / 3).max(4);

    let mut events: Vec<FaultEvent> = Vec::new();
    let mut deferred: Vec<FaultEvent> = Vec::new();
    let mut t: u64 = 0;
    let mut partition_active = false;
    let mut loss_active = false;
    let mut dup_active = false;
    // Shadow-registry group model: live group ids and the next fresh one.
    let mut groups: Vec<u64> = Vec::new();
    let mut next_group: u64 = 1;

    for _ in 0..cfg.events {
        t += rng.exp_micros(cfg.mean_gap_micros).max(50_000);
        // Release any deferred heal/restore whose time has come, in order.
        deferred.sort_by_key(|e| e.at_micros);
        while deferred.first().is_some_and(|e| e.at_micros <= t) {
            let e = deferred.remove(0);
            match e.kind {
                FaultKind::PartitionHeal => partition_active = false,
                FaultKind::LossRestore => loss_active = false,
                FaultKind::Duplicate { per_mille: 0 } => dup_active = false,
                _ => {}
            }
            events.push(e);
        }

        let roll = rng.uniform_incl(1, 100) as u32;
        let w = &cfg.weights;
        let (c1, c2, c3, c4, c5, c6, c7) = (
            w[0],
            w[0] + w[1],
            w[0] + w[1] + w[2],
            w[0] + w[1] + w[2] + w[3],
            w[0] + w[1] + w[2] + w[3] + w[4],
            w[0] + w[1] + w[2] + w[3] + w[4] + w[5],
            w[0] + w[1] + w[2] + w[3] + w[4] + w[5] + w[6],
        );
        if roll <= c1 {
            // Crash.
            if let Some(v) = model.pick_present_victim(&mut rng, floor) {
                model.present.remove(&v);
                model.dead.insert(v);
                events.push(FaultEvent {
                    at_micros: t,
                    kind: FaultKind::Crash { node: v },
                });
            }
        } else if roll <= c2 {
            // Restart.
            if let Some(v) = model.pick_dead(&mut rng) {
                model.dead.remove(&v);
                model.present.insert(v);
                events.push(FaultEvent {
                    at_micros: t,
                    kind: FaultKind::Restart { node: v },
                });
            }
        } else if roll <= c3 {
            // Churn storm: splice a short join/leave wave from ChurnTrace.
            let k = rng.uniform_incl(2, 5) as usize;
            let storm_seed = rng.uniform_incl(0, u64::from(u32::MAX));
            let present_members: Vec<Member> = model
                .present
                .iter()
                .map(|&i| model.all[i as usize])
                .collect();
            let storm = ChurnTrace::generate_with(
                space,
                &present_members,
                k,
                250_000.0,
                0.5,
                storm_seed,
                &BandwidthDist::PAPER,
                &CapacityAssignment::PAPER,
            );
            for (j, ev) in storm.events.iter().enumerate() {
                let at = t + (j as u64 + 1) * 300_000;
                match ev.kind {
                    ChurnKind::Join(m) => {
                        // Identifier reuse across a dead node would make
                        // the join a no-op on both hosts; keep plans clean.
                        if model.all.iter().any(|x| x.id == m.id) {
                            continue;
                        }
                        let idx = model.all.len() as u32;
                        model.all.push(m);
                        model.present.insert(idx);
                        events.push(FaultEvent {
                            at_micros: at,
                            kind: FaultKind::Join { member: m },
                        });
                    }
                    ChurnKind::Leave(id) | ChurnKind::Crash(id) => {
                        let Some(idx) = model.all.iter().position(|x| x.id == id) else {
                            continue;
                        };
                        let idx = idx as u32;
                        if idx == 0
                            || !model.present.contains(&idx)
                            || model.present.len() <= floor
                        {
                            continue;
                        }
                        model.present.remove(&idx);
                        model.dead.insert(idx);
                        let kind = if matches!(ev.kind, ChurnKind::Leave(_)) {
                            FaultKind::Leave { node: idx }
                        } else {
                            FaultKind::Crash { node: idx }
                        };
                        events.push(FaultEvent {
                            at_micros: at,
                            kind,
                        });
                    }
                }
                t = at;
            }
        } else if roll <= c4 && cfg.wire_faults {
            // Asymmetric partition, healed after 2–6 s.
            if !partition_active {
                let mut cut = Vec::new();
                let a_size = rng.uniform_incl(1, 2) as usize;
                let b_size = rng.uniform_incl(1, 2) as usize;
                let live: Vec<u32> = model.present.iter().copied().collect();
                let mut side_a = BTreeSet::new();
                let mut side_b = BTreeSet::new();
                for _ in 0..a_size {
                    side_a.insert(live[rng.uniform_incl(0, live.len() as u64 - 1) as usize]);
                }
                for _ in 0..b_size {
                    let x = live[rng.uniform_incl(0, live.len() as u64 - 1) as usize];
                    if !side_a.contains(&x) {
                        side_b.insert(x);
                    }
                }
                let symmetric = rng.unit() < 0.5;
                for &a in &side_a {
                    for &b in &side_b {
                        cut.push((a, b));
                        if symmetric {
                            cut.push((b, a));
                        }
                    }
                }
                if !cut.is_empty() {
                    partition_active = true;
                    events.push(FaultEvent {
                        at_micros: t,
                        kind: FaultKind::PartitionStart { cut },
                    });
                    let heal_at = t + rng.uniform_incl(2_000_000, 6_000_000);
                    deferred.push(FaultEvent {
                        at_micros: heal_at,
                        kind: FaultKind::PartitionHeal,
                    });
                }
            }
        } else if roll <= c5 && cfg.wire_faults {
            // Loss burst, restored after 1–4 s.
            if !loss_active {
                loss_active = true;
                let per_mille = rng.uniform_incl(100, 350) as u16;
                events.push(FaultEvent {
                    at_micros: t,
                    kind: FaultKind::LossBurst { per_mille },
                });
                deferred.push(FaultEvent {
                    at_micros: t + rng.uniform_incl(1_000_000, 4_000_000),
                    kind: FaultKind::LossRestore,
                });
            }
        } else if roll <= c6 && cfg.wire_faults {
            // Frame duplication window, switched off after 1–4 s.
            if !dup_active {
                dup_active = true;
                let per_mille = rng.uniform_incl(50, 200) as u16;
                events.push(FaultEvent {
                    at_micros: t,
                    kind: FaultKind::Duplicate { per_mille },
                });
                deferred.push(FaultEvent {
                    at_micros: t + rng.uniform_incl(1_000_000, 4_000_000),
                    kind: FaultKind::Duplicate { per_mille: 0 },
                });
            }
        } else if roll <= c7 {
            events.push(FaultEvent {
                at_micros: t,
                kind: FaultKind::Multicast,
            });
        } else if roll <= c7 + cfg.group_weight {
            // Multi-group pub/sub action against the shadow registry:
            // mostly subscriptions (they exercise admission control),
            // some creates, a few unsubscribes and destroys.
            let action = rng.uniform_incl(0, 99);
            if groups.is_empty() || action < 20 {
                events.push(FaultEvent {
                    at_micros: t,
                    kind: FaultKind::GroupCreate { group: next_group },
                });
                groups.push(next_group);
                next_group += 1;
            } else {
                let g = groups[rng.uniform_incl(0, groups.len() as u64 - 1) as usize];
                let node = rng.uniform_incl(0, cfg.nodes as u64 - 1) as u32;
                let kind = if action < 70 {
                    FaultKind::GroupSubscribe { group: g, node }
                } else if action < 90 {
                    FaultKind::GroupUnsubscribe { group: g, node }
                } else {
                    groups.retain(|&x| x != g);
                    FaultKind::GroupDestroy { group: g }
                };
                events.push(FaultEvent { at_micros: t, kind });
            }
        } else {
            events.push(FaultEvent {
                at_micros: t,
                kind: FaultKind::Quiesce,
            });
        }
    }

    // Flush remaining heals/restores past the last event.
    deferred.sort_by_key(|e| e.at_micros);
    for e in deferred {
        let at = e.at_micros.max(t);
        t = at;
        events.push(FaultEvent { at_micros: at, ..e });
    }
    // Churn-storm splices can advance time past a deferred heal released
    // on the next iteration; a stable sort restores global time order
    // (only heals/restores relocate, which never touch membership).
    events.sort_by_key(|e| e.at_micros);

    FaultPlan {
        events,
        ..plan_shell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [1, 2, 77] {
            assert_eq!(FaultPlan::default_plan(seed), FaultPlan::default_plan(seed));
            assert_eq!(FaultPlan::small(seed), FaultPlan::small(seed));
        }
        assert_ne!(
            FaultPlan::default_plan(1).events,
            FaultPlan::default_plan(2).events
        );
    }

    #[test]
    fn schedule_is_time_ordered_and_never_targets_the_anchor() {
        for seed in 1..=20 {
            let plan = FaultPlan::default_plan(seed);
            let mut last = 0;
            for e in &plan.events {
                assert!(e.at_micros >= last, "out of order at {e:?}");
                last = e.at_micros;
                match &e.kind {
                    FaultKind::Crash { node } | FaultKind::Leave { node } => {
                        assert_ne!(*node, 0, "anchor node crashed by plan {seed}");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn protocol_alternates_by_seed_parity() {
        assert_eq!(FaultPlan::small(2).protocol, ProtocolChoice::Chord);
        assert_eq!(FaultPlan::small(3).protocol, ProtocolChoice::Koorde);
        assert_eq!(FaultPlan::torture(3).protocol, ProtocolChoice::Chord);
    }

    #[test]
    fn colossal_preset_is_scale_only() {
        let plan = FaultPlan::colossal(0xC010);
        assert_eq!(plan.nodes, 100_000);
        assert_eq!(plan.protocol, ProtocolChoice::Chord);
        assert!(
            plan.anti_entropy,
            "colossal relies on epidemic repair: stale fingers at 100k \
             nodes outlive the settle window"
        );
        // Only crashes, multicasts, and quiesces: joins/restarts would
        // retrigger directory rebuilds and churn storms would dominate the
        // runtime — the preset stresses scale, not the fault taxonomy.
        for e in &plan.events {
            assert!(
                matches!(
                    e.kind,
                    FaultKind::Crash { .. } | FaultKind::Multicast | FaultKind::Quiesce
                ),
                "unexpected event in colossal plan: {e:?}"
            );
        }
        assert_eq!(
            plan,
            FaultPlan::colossal(0xC010),
            "generation deterministic"
        );
        assert_eq!(FaultPlan::by_preset("colossal", 1).unwrap().nodes, 100_000);
    }

    #[test]
    fn default_preset_carries_group_events_and_others_do_not() {
        let mut any = false;
        for seed in 1..=10 {
            let plan = FaultPlan::default_plan(seed);
            let mut live: BTreeSet<u64> = BTreeSet::new();
            for e in &plan.events {
                match e.kind {
                    FaultKind::GroupCreate { group } => {
                        any = true;
                        assert!(live.insert(group), "group {group} created twice");
                    }
                    FaultKind::GroupSubscribe { group, node }
                    | FaultKind::GroupUnsubscribe { group, node } => {
                        any = true;
                        assert!(live.contains(&group), "op on unknown group {group}");
                        assert!((node as usize) < plan.nodes, "node {node} not initial");
                    }
                    FaultKind::GroupDestroy { group } => {
                        any = true;
                        assert!(live.remove(&group), "destroyed unknown group {group}");
                    }
                    _ => {}
                }
            }
        }
        assert!(any, "default preset should schedule group events");
        for seed in 1..=5 {
            for name in ["small", "torture"] {
                let plan = FaultPlan::by_preset(name, seed).unwrap();
                assert!(
                    plan.events.iter().all(|e| !matches!(
                        e.kind,
                        FaultKind::GroupCreate { .. }
                            | FaultKind::GroupSubscribe { .. }
                            | FaultKind::GroupUnsubscribe { .. }
                            | FaultKind::GroupDestroy { .. }
                    )),
                    "{name} preset must stay group-free"
                );
            }
        }
    }

    #[test]
    fn torture_preset_has_no_wire_faults() {
        for seed in 1..=4 {
            let plan = FaultPlan::torture(seed);
            assert!(plan.events.iter().all(|e| !matches!(
                e.kind,
                FaultKind::PartitionStart { .. }
                    | FaultKind::LossBurst { .. }
                    | FaultKind::Duplicate { .. }
            )));
        }
    }
}
