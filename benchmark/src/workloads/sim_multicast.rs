//! `sim_multicast`: payload streams on a stable simulated ring.
//!
//! `DhtActor` forwarding and the cam-sim engine do the work — the read
//! path. The codec and the transports are bypassed (messages travel as
//! values inside the simulator).
//!
//! n = 8,000, `LatencyModel::default_wan()`, maintenance on. One repetition
//! is a pair of streams on freshly converged networks: a region-split
//! CAM-Chord stream and a flooding CAM-Koorde stream, each
//! [`PAYLOADS_PER_STREAM`] payloads of 64 B at 20 ms virtual spacing, the
//! sender changing to another sampled member every [`PAYLOADS_PER_SOURCE`]
//! payloads (path length depends on the source's capacity; one source per
//! stream made `path_len_mean` swing by 6 % between seeds) — the paper's streaming use, where forwarding
//! events and maintenance events are about equally many. A single
//! multicast per stabilize window would measure stabilization instead.
//!
//! Open loop in virtual time (the source sends on schedule), one client.
//! An op is one payload; its wall time runs from `start_multicast` to the
//! 5 ms virtual slice in which the last live member holds it. `msgs` are
//! simulator events (messages and timers).

use std::collections::VecDeque;
use std::time::Instant;

use cam_core::cam_chord::CamChordProtocol;
use cam_core::cam_koorde::CamKoordeProtocol;
use cam_overlay::dynamic::{DhtProtocol, DynamicNetwork};
use cam_overlay::Member;
use cam_sim::engine::SimStats;
use cam_sim::{Duration, SimTime};

use super::scenario_members;
use super::simnet::{advance, build_net, drain, layer_metrics, Completion, Tracing, SLICE};
use crate::harness::{
    cpu_ns, median, mix64, quantile, Batch, Checks, Config, Outcome, Pass, RepBudget, Reps,
    DEFAULT_SEED, REFERENCE_SHARE,
};
use crate::spans::{span, Log, Name, SpanLog};

const N: usize = 8_000;
const PAYLOADS_PER_STREAM: usize = 25;
const PAYLOADS_PER_SOURCE: usize = 5;
const PAYLOAD_BYTES: usize = 64;
const SLICES_PER_SEND: usize = 4; // 4 × 5 ms = the 20 ms send spacing
/// A payload not everywhere this long (virtual) after the last send failed.
const DRAIN_DEADLINE: Duration = Duration(5_000_000);
/// Ops after which `peak_rss_mb` is read (see `Pass::checkpoint_rss`).
const RSS_CHECKPOINT_OPS: u64 = 100; // two stream pairs
const SETUP_REPEATS: usize = 3;

/// First CAM-Chord stream of the default seed: `(mean hops over its
/// deliveries, virtual ms its first completed payload took)`.
const PINNED_FIRST_PAYLOAD: (f64, u64) = (7.584948118514815, 680);

#[derive(Default)]
struct StreamResult {
    wall_ns: u64,
    events: u64,
    stats: SimStats,
    op_wall_ns: Vec<f64>,
    deliver_virt_ms: Vec<f64>,
    hops_sum: u64,
    receivers: u64,
    failed: u64,
    cpu_ns: u64,
}

/// Retires every in-flight payload that has reached all live members.
fn check<P: DhtProtocol>(
    net: &DynamicNetwork<P>,
    clock: SimTime,
    flying: &mut VecDeque<Completion>,
    res: &mut StreamResult,
    pass: &mut Pass,
    log: Option<&Log>,
) {
    span(log, Name::DriverCheck, || {
        pass.driver.book(|| {
            flying.retain_mut(|c| {
                if !c.advance(net) {
                    return true;
                }
                res.op_wall_ns.push(c.sent_wall.elapsed().as_nanos() as f64);
                res.deliver_virt_ms
                    .push(clock.since(c.sent_virt).micros() as f64 / 1e3);
                res.hops_sum += c.hops_sum;
                // The source holds the payload at hop 0 and is not a
                // receiver.
                res.receivers += c.receivers - 1;
                false
            });
        });
    });
}

fn stream<P: DhtProtocol>(
    net: &mut DynamicNetwork<P>,
    region_split: bool,
    sources: &[usize],
    first_op: u64,
    pass: &mut Pass,
    tracing: &mut Tracing,
) -> StreamResult {
    let mut res = StreamResult::default();
    let data = bytes::Bytes::from(vec![0xC4u8; PAYLOAD_BYTES]);
    let mut clock = net.sim.now();
    let mut flying: VecDeque<Completion> = VecDeque::new();
    let events0 = net.sim.stats().events;
    let cpu0 = cpu_ns();
    let wall0 = Instant::now();

    let log = tracing.log().cloned();
    let log = log.as_ref();

    for i in 0..PAYLOADS_PER_STREAM {
        if let Some(l) = log {
            l.borrow_mut().set_op(first_op + i as u64);
        }
        let source = net.actors()[sources[i / PAYLOADS_PER_SOURCE]].1;
        let payload = span(log, Name::ActorStartMulticast, || {
            net.start_multicast_with_data(source, region_split, data.clone())
        });
        flying.push_back(Completion::new(payload, clock));
        for _ in 0..SLICES_PER_SEND {
            advance(net, &mut clock, SLICE, tracing);
            check(net, clock, &mut flying, &mut res, pass, log);
        }
    }
    let deadline = clock + DRAIN_DEADLINE;
    while !flying.is_empty() && clock < deadline {
        advance(net, &mut clock, SLICE, tracing);
        check(net, clock, &mut flying, &mut res, pass, log);
    }
    res.wall_ns = wall0.elapsed().as_nanos() as u64;
    res.cpu_ns = cpu_ns() - cpu0;
    res.events = net.sim.stats().events - events0;
    res.stats = net.sim.stats();
    // Whatever is still flying missed the deadline: it counts as failed
    // and as the deadline in the per-op wall times.
    res.failed = flying.len() as u64;
    for c in &flying {
        res.op_wall_ns.push(c.sent_wall.elapsed().as_nanos() as f64);
    }
    drain(net, tracing);
    res
}

struct Inputs {
    members: Vec<Member>,
    seed: u64,
    members_s: f64,
}

impl Inputs {
    fn generate(seed: u64, tracing: &Tracing) -> Inputs {
        let t0 = Instant::now();
        let members = span(tracing.log(), Name::WorkloadScenarioMembers, || {
            scenario_members(N, seed)
        });
        Inputs {
            members,
            seed,
            members_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The senders of repetition `rep`'s two streams, in order.
    fn sources(&self, rep: u64) -> Vec<usize> {
        (0..PAYLOADS_PER_STREAM.div_ceil(PAYLOADS_PER_SOURCE) as u64)
            .map(|k| (mix64(self.seed ^ mix64(rep << 8 | k)) % N as u64) as usize)
            .collect()
    }

    /// Runs stream pairs; every pair starts from two fresh networks, whose
    /// construction is one more set-up sample.
    fn pass(
        &self,
        reps: Reps,
        tracing: &mut Tracing,
        setup_s: &mut Vec<f64>,
        checks: &mut Checks,
    ) -> Pass {
        let mut pass = Pass::default();
        let mut budget = RepBudget::new(reps);
        let mut pair_p50_ns = Vec::new();
        let mut deliver_virt = Vec::new();
        let (mut hops, mut receivers) = (0u64, 0u64);
        let mut stats = Vec::new();
        while budget.more() {
            let rep = budget.done();
            let sources = self.sources(rep);
            let first_op = rep * 2 * PAYLOADS_PER_STREAM as u64;

            let t0 = Instant::now();
            let mut net = build_net(&self.members, CamChordProtocol, self.seed, tracing);
            let build_chord = t0.elapsed().as_secs_f64();
            let chord = stream(&mut net, true, &sources, first_op, &mut pass, tracing);
            drop(net);

            let t0 = Instant::now();
            let mut net = build_net(&self.members, CamKoordeProtocol, self.seed, tracing);
            let build_koorde = t0.elapsed().as_secs_f64();
            let koorde = stream(
                &mut net,
                false,
                &sources,
                first_op + PAYLOADS_PER_STREAM as u64,
                &mut pass,
                tracing,
            );
            drop(net);
            setup_s.push(self.members_s + build_chord + build_koorde);

            if rep == 0 && self.seed == DEFAULT_SEED {
                let first = (
                    chord.hops_sum as f64 / chord.receivers.max(1) as f64,
                    chord.deliver_virt_ms.first().map_or(0, |ms| *ms as u64),
                );
                checks.require(first == PINNED_FIRST_PAYLOAD, || {
                    format!(
                        "first CAM-Chord stream of the default seed: {first:?} differs from the pinned {PINNED_FIRST_PAYLOAD:?}"
                    )
                });
            }
            pass.batches.push(Batch {
                ops: 2 * PAYLOADS_PER_STREAM as u64,
                msgs: chord.events + koorde.events,
                wall_ns: chord.wall_ns + koorde.wall_ns,
                cpu_ns: chord.cpu_ns + koorde.cpu_ns,
            });
            pass.attempted += 2 * PAYLOADS_PER_STREAM as u64;
            pass.failed += chord.failed + koorde.failed;
            for r in [&chord, &koorde] {
                deliver_virt.extend_from_slice(&r.deliver_virt_ms);
                pass.op_wall_ns.extend_from_slice(&r.op_wall_ns);
                hops += r.hops_sum;
                receivers += r.receivers;
                stats.push(r.stats);
            }
            // The two protocols' latencies form two modes; the median of
            // their union would sit in the gap between them.
            pair_p50_ns.push((median(&chord.op_wall_ns) + median(&koorde.op_wall_ns)) / 2.0);
            pass.checkpoint_rss(RSS_CHECKPOINT_OPS);
            budget.tick();
        }
        pass.op_wall_p50_ns = Some(median(&pair_p50_ns));
        pass.hops_sum = hops as f64;
        pass.hops_count = receivers as f64;
        let p50 = median(&deliver_virt);
        let p95 = quantile(&deliver_virt, 0.95);
        pass.layer.insert("user.deliver_virt_p50_ms", p50);
        pass.layer.insert("user.deliver_virt_p95_ms", p95);
        pass.layer.insert("sim.events_total", pass.msgs() as f64);
        pass.set_exact("sim_stats", &stats);
        pass.set_exact("deliver_virt_ms", (p50.to_bits(), p95.to_bits()));
        pass.set_exact("hops", (hops, receivers));
        pass.set_exact("msgs_per_op", pass.msgs_per_op().to_bits());
        pass
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracing::off();
    if cfg.trace {
        let inputs = Inputs::generate(cfg.seed, &off);
        out.pass = inputs.pass(
            Reps::For(cfg.seconds * REFERENCE_SHARE),
            &mut off,
            &mut out.setup_s,
            &mut out.checks,
        );

        let log = SpanLog::shared();
        let mut tracing = Tracing::on(&log);
        let inputs = Inputs::generate(cfg.seed, &tracing);
        let mut traced = inputs.pass(
            Reps::Exactly(out.pass.batches.len() as u64),
            &mut tracing,
            &mut Vec::new(),
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
        out.traced = Some(traced);
        out.log = Some(log);
    } else {
        let mut inputs = Inputs::generate(cfg.seed, &off);
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            inputs = Inputs::generate(cfg.seed, &off);
            drop(build_net(&inputs.members, CamChordProtocol, cfg.seed, &off));
            drop(build_net(
                &inputs.members,
                CamKoordeProtocol,
                cfg.seed,
                &off,
            ));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        out.pass = inputs.pass(
            Reps::For(cfg.seconds),
            &mut off,
            &mut out.setup_s,
            &mut out.checks,
        );
    }
    out
}
