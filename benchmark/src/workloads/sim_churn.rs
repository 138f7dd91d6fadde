//! `sim_churn`: joins, leaves and crashes on a simulated CAM-Chord ring.
//!
//! The same host as `sim_multicast`, used differently: this is the actor's
//! write path — join handshakes, stabilization, neighbor eviction, and the
//! O(n) directory reshare on every join — so a forwarding speed-up that
//! slows maintenance shows here.
//!
//! n = 4,000, `LatencyModel::default_wan()`. A Poisson churn trace (20 ms
//! mean gap, half of departures are crashes) is played through
//! `inject_join` / `revive` / `remove_member` in chunks of
//! [`PROBE_EVERY`] events; after each chunk a probe multicast starts from
//! a sampled joined member and is audited [`PROBE_SETTLE`] later. When the
//! churn stops, the ring is run (with `retry_stalled_joins` every 500 ms)
//! until every live node's `successor()` is its true ring successor.
//!
//! Open loop in virtual time, one client. An op is one membership event;
//! its wall time covers advancing the simulation to the event's instant
//! and applying it. `msgs` are simulator events. The end-to-end rates
//! cover the churn phase; the convergence phase is checked and reported
//! per layer (`user.converge_virt_s`).

use std::time::Instant;

use cam_core::cam_chord::CamChordProtocol;
use cam_overlay::dynamic::DynamicNetwork;
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::{Duration, SimTime};
use cam_workload::{ChurnKind, ChurnTrace};

use super::scenario_members;
use super::simnet::{advance, build_net, drain, layer_metrics, Tracing};
use crate::harness::{
    cpu_ns, mean, mix64, Batch, Checks, Config, Outcome, Pass, RepBudget, Reps, DEFAULT_SEED,
    REFERENCE_SHARE,
};
use crate::spans::{span, Name, SpanLog};

type Net = DynamicNetwork<CamChordProtocol>;

const N: usize = 4_000;
/// Membership events generated; a pass plays as many chunks as fit its
/// time box, and this is several times what the reference box gets through.
const EVENTS_GENERATED: usize = 12_000;
const MEAN_GAP_MICROS: f64 = 20_000.0;
const CRASH_FRACTION: f64 = 0.5;
const PROBE_EVERY: usize = 150;
const PROBE_SETTLE: Duration = Duration(2_000_000);
const CONVERGE_STEP: Duration = Duration(500_000);
/// The ring must be consistent within this many steps (600 s virtual; the
/// slowest node decides, and 15 to 30 s is typical).
const CONVERGE_STEPS_MAX: u64 = 1_200;
/// Ops after which `peak_rss_mb` is read (see `Pass::checkpoint_rss`).
const RSS_CHECKPOINT_OPS: u64 = 1_500;
const SETUP_REPEATS: usize = 5;

/// Default seed, first probe: `(delivery ratio, mean hops)` at its audit.
const PINNED_FIRST_PROBE: (f64, f64) = (0.9336327345309381, 6.340994120791021);

struct Inputs {
    members: Vec<Member>,
    trace: ChurnTrace,
    seed: u64,
}

struct Probe {
    payload: u64,
    due: SimTime,
}

impl Inputs {
    fn generate(seed: u64, tracing: &Tracing) -> Inputs {
        let log = tracing.log();
        let members = span(log, Name::WorkloadScenarioMembers, || {
            scenario_members(N, seed)
        });
        let trace = span(log, Name::WorkloadChurnGenerate, || {
            ChurnTrace::generate(
                IdSpace::PAPER,
                &members,
                EVENTS_GENERATED,
                MEAN_GAP_MICROS,
                CRASH_FRACTION,
                seed ^ 0xC4_0C4A,
            )
        });
        Inputs {
            members,
            trace,
            seed,
        }
    }

    fn build(&self, tracing: &Tracing) -> Net {
        build_net(&self.members, CamChordProtocol, self.seed, tracing)
    }

    /// Plays churn chunks for `reps`, then runs the ring to consistency.
    /// Returns the pass and how many of its events were joins.
    fn pass(
        &self,
        mut net: Net,
        reps: Reps,
        tracing: &mut Tracing,
        checks: &mut Checks,
    ) -> (Pass, u64) {
        let log = tracing.log().cloned();
        let log = log.as_ref();
        let mut pass = Pass::default();
        let mut budget = RepBudget::new(reps);
        let mut clock = net.sim.now();
        let mut probe: Option<Probe> = None;
        let (mut ratios, mut probe_hops) = (Vec::new(), Vec::new());
        let mut joins = 0u64;
        let mut chunks = self.trace.events.chunks_exact(PROBE_EVERY);

        while budget.more() {
            let Some(chunk) = chunks.next() else {
                break;
            };
            let events0 = net.sim.stats().events;
            let (mut wall_ns, mut cpu_audit_ns) = (0u64, 0u64);
            let cpu0 = cpu_ns();
            for (i, event) in chunk.iter().enumerate() {
                if let Some(l) = log {
                    l.borrow_mut()
                        .set_op(budget.done() * PROBE_EVERY as u64 + i as u64);
                }
                let at = SimTime(event.at_micros);
                let mut audit_ns = 0u64;
                let t0 = Instant::now();
                if let Some(p) = probe.take_if(|p| p.due <= at) {
                    let by = p.due.since(clock);
                    advance(&mut net, &mut clock, by, tracing);
                    let (a0, c0) = (Instant::now(), cpu_ns());
                    let (ratio, hops) = audit(&net, p.payload);
                    ratios.push(ratio);
                    probe_hops.push(hops);
                    audit_ns = a0.elapsed().as_nanos() as u64;
                    cpu_audit_ns += cpu_ns() - c0;
                }
                let by = at.since(clock);
                advance(&mut net, &mut clock, by, tracing);
                let ok = match event.kind {
                    ChurnKind::Join(member) => {
                        joins += 1;
                        span(log, Name::ActorInjectJoin, || {
                            // The trace hands a departed member's id out
                            // again; the network keeps dead actors on its
                            // books, so that join is a restart.
                            if net.actor_of(member.id).is_some() {
                                net.revive(member.id, CamChordProtocol).is_some()
                            } else {
                                net.inject_join(member, CamChordProtocol).is_some()
                            }
                        })
                    }
                    ChurnKind::Leave(id) | ChurnKind::Crash(id) => {
                        span(log, Name::ActorRemoveMember, || net.remove_member(id))
                    }
                };
                let op_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(audit_ns);
                pass.driver.clock_reads += 2;
                wall_ns += op_ns;
                pass.op_wall_ns.push(op_ns as f64);
                pass.attempted += 1;
                pass.failed += u64::from(!ok);
            }
            pass.batches.push(Batch {
                ops: PROBE_EVERY as u64,
                msgs: net.sim.stats().events - events0,
                wall_ns,
                cpu_ns: (cpu_ns() - cpu0).saturating_sub(cpu_audit_ns),
            });
            // A different joined member each time: path length depends on
            // the source's capacity.
            let actors = net.actors();
            let from = (mix64(self.seed ^ mix64(budget.done())) % actors.len() as u64) as usize;
            let source = actors[from..]
                .iter()
                .chain(&actors[..from])
                .map(|(_, a)| *a)
                .find(|a| net.sim.actor(*a).is_some_and(|x| x.is_joined()));
            if let Some(source) = source {
                let payload = span(log, Name::ActorStartMulticast, || {
                    net.start_multicast(source, true)
                });
                probe = Some(Probe {
                    payload,
                    due: clock + PROBE_SETTLE,
                });
            }
            pass.checkpoint_rss(RSS_CHECKPOINT_OPS);
            budget.tick();
        }
        pass.set_exact("sim_stats_churn", net.sim.stats());

        // Convergence: untimed by the end-to-end rates, but it must happen.
        let mut steps = 0u64;
        let mut consistent = ring_consistent(&net);
        while !consistent && steps < CONVERGE_STEPS_MAX {
            advance(&mut net, &mut clock, CONVERGE_STEP, tracing);
            span(log, Name::ActorRetryStalledJoins, || {
                net.retry_stalled_joins()
            });
            steps += 1;
            if let Some(p) = probe.take_if(|p| p.due <= clock) {
                let (ratio, hops) = audit(&net, p.payload);
                ratios.push(ratio);
                probe_hops.push(hops);
            }
            consistent = ring_consistent(&net);
        }
        checks.require(consistent, || {
            format!(
                "ring still inconsistent {} virtual seconds after the last churn event",
                steps as f64 * CONVERGE_STEP.as_secs_f64()
            )
        });
        drain(&mut net, tracing);
        // With a single chunk the first probe is audited on a ring that has
        // stopped churning, which is another value.
        if self.seed == DEFAULT_SEED && budget.done() >= 2 {
            let first = (
                ratios.first().copied().unwrap_or(0.0),
                probe_hops.first().copied().unwrap_or(0.0),
            );
            checks.require(first == PINNED_FIRST_PROBE, || {
                format!(
                    "first probe of the default seed: {first:?} differs from the pinned {PINNED_FIRST_PROBE:?}"
                )
            });
        }

        let converge_virt_s = steps as f64 * CONVERGE_STEP.as_secs_f64();
        pass.hops_sum = probe_hops.iter().sum();
        pass.hops_count = probe_hops.len() as f64;
        pass.layer.insert("user.converge_virt_s", converge_virt_s);
        pass.layer
            .insert("user.probe_delivery_ratio", mean(&ratios));
        pass.set_exact("sim_stats_end", net.sim.stats());
        pass.set_exact("converge_steps", steps);
        pass.set_exact(
            "probes",
            ratios
                .iter()
                .chain(&probe_hops)
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        (pass, joins)
    }
}

/// `(share of live members holding the payload, their mean hop count)`.
fn audit(net: &Net, payload: u64) -> (f64, f64) {
    (net.delivery_ratio(payload), net.mean_hops(payload))
}

/// Whether every live node's first successor is the next live node on the
/// ring.
fn ring_consistent(net: &Net) -> bool {
    let mut live: Vec<(u64, Option<u64>)> = net
        .actors()
        .iter()
        .filter_map(|(m, a)| {
            net.sim
                .actor(*a)
                .map(|actor| (m.id.value(), actor.successor().map(|s| s.id.value())))
        })
        .collect();
    live.sort_unstable();
    (0..live.len()).all(|i| live[i].1 == Some(live[(i + 1) % live.len()].0))
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracing::off();
    if cfg.trace {
        let t0 = Instant::now();
        let inputs = Inputs::generate(cfg.seed, &off);
        let net = inputs.build(&off);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        (out.pass, _) = inputs.pass(
            net,
            Reps::For(cfg.seconds * REFERENCE_SHARE),
            &mut off,
            &mut out.checks,
        );

        let log = SpanLog::shared();
        let mut tracing = Tracing::on(&log);
        let inputs = Inputs::generate(cfg.seed, &tracing);
        let net = inputs.build(&tracing);
        let (mut traced, joins) = inputs.pass(
            net,
            Reps::Exactly(out.pass.batches.len() as u64),
            &mut tracing,
            &mut out.checks,
        );
        layer_metrics(
            &mut traced,
            &out.pass,
            &tracing,
            &log,
            N,
            cfg.seed,
            &mut out.checks,
        );
        let per_call_us = |name: Name| log.borrow().aggregate(name).mean_ns() / 1e3;
        let l = &mut traced.layer;
        l.insert(
            "workload.churn_generate_ms",
            per_call_us(Name::WorkloadChurnGenerate) / 1e3,
        );
        l.insert("actor.inject_join_us", per_call_us(Name::ActorInjectJoin));
        l.insert(
            "actor.remove_member_us",
            per_call_us(Name::ActorRemoveMember),
        );
        l.insert(
            "actor.join_msgs_per_join",
            tracing.tally.join_request as f64 / joins.max(1) as f64,
        );
        out.traced = Some(traced);
        out.log = Some(log);
    } else {
        let mut world = None;
        for _ in 0..SETUP_REPEATS {
            drop(world.take());
            let t0 = Instant::now();
            let inputs = Inputs::generate(cfg.seed, &off);
            let net = inputs.build(&off);
            out.setup_s.push(t0.elapsed().as_secs_f64());
            world = Some((inputs, net));
        }
        let (inputs, net) = world.expect("SETUP_REPEATS > 0");
        (out.pass, _) = inputs.pass(net, Reps::For(cfg.seconds), &mut off, &mut out.checks);
    }
    out
}
