//! `wire_udp`: multicast rounds over real UDP on the host's loopback
//! interface.
//!
//! The same reactor as `wire_mem`, but here syscalls, batching and the
//! deadline sleeps dominate. Traffic never leaves the host: one
//! `MuxUdpTransport` socket on 127.0.0.1 carries all 64 nodes.
//!
//! 64 nodes, CAM-Chord region multicast, 100 ms maintenance period,
//! 600 ms warm-up. The end-to-end pass sends 64 B payloads — the smallest
//! frame, where per-packet cost is everything. The `--trace 1` run adds a
//! 1,024 B phase (per-byte cost, `user.goodput_mbps`) and a capped probe at
//! 4,096 B, where delivery collapses into RTO-paced recovery; payloads
//! above 1 KiB are too erratic to gate on.
//!
//! Closed loop, one client. An op is one round: `start_multicast`, then
//! `Cluster::run_until` every node holds the payload. `msgs` are decoded
//! frames. Counts here depend on the wall clock (maintenance fires in real
//! time), so this workload has no bit-exact replay check.
//!
//! Real datagrams get lost: about once in 400,000 rounds a burst overruns
//! the socket buffer, a control frame goes missing, a neighbor is struck
//! off for a few stabilize periods, and the region split skips a node for
//! good — region multicast has no repair without anti-entropy, whose
//! digests outgrow a frame after a few thousand payloads. The client does
//! what a client does: a round stalled for [`ATTEMPT_TIMEOUT`] is sent
//! again, up to [`ATTEMPTS`] times; the op fails only if every attempt
//! stalls, and the stall counts in its wall time.

use std::time::Instant;

use cam_core::cam_chord::CamChordProtocol;
use cam_net::{Cluster, MuxUdpTransport, RetransmitPolicy, Transport};
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::Duration;

use super::scenario_members;
use super::wirenet::{codec_replay, transport_metrics, NodeCursor};
use crate::events::{fresh_tracer, EventTally};
use crate::harness::{
    cpu_ns, Batch, Checks, Config, Outcome, Pass, RepBudget, Reps, TimeBox, REFERENCE_SHARE,
};
use crate::spans::{span, Log, Name, SpanLog};
use crate::timed_transport::TimedTransport;

const NODES: usize = 64;
const SMALL_PAYLOAD: usize = 64;
const LARGE_PAYLOAD: usize = 1_024;
const CLIFF_PAYLOAD: usize = 4_096;
const MAINTENANCE: Duration = Duration(100_000);
const WARMUP: Duration = Duration(600_000);
const ATTEMPT_TIMEOUT: Duration = Duration(1_000_000);
const ATTEMPTS: usize = 3;
const ROUNDS_PER_BATCH: u64 = 128;
/// Ops after which `peak_rss_mb` is read (see `Pass::checkpoint_rss`).
const RSS_CHECKPOINT_OPS: u64 = 4_096;
const SETUP_REPEATS: usize = 3;
/// Share of a `--trace 1` pass spent on the 64 B phase; the rest goes to
/// the 1,024 B phase.
const SMALL_PHASE_SHARE: f64 = 0.6;
/// Wall seconds the 4,096 B probe may take.
const CLIFF_PROBE_SECONDS: f64 = 2.0;

type Net<T> = Cluster<CamChordProtocol, T>;

fn converge<T: Transport>(
    members: &[Member],
    seed: u64,
    transport: T,
    log: Option<&Log>,
) -> Net<T> {
    let mut cluster = span(log, Name::ReactorConvergedBuild, || {
        Cluster::converged(
            IdSpace::PAPER,
            members,
            CamChordProtocol,
            seed,
            transport,
            RetransmitPolicy::default(),
        )
    });
    cluster.set_maintenance_period(MAINTENANCE);
    cluster.run_for(WARMUP);
    cluster.reset_loop_stats();
    cluster
}

fn bind(checks: &mut Checks) -> Option<MuxUdpTransport> {
    let bound = MuxUdpTransport::bind(NODES);
    checks.require(bound.is_ok(), || {
        format!(
            "could not bind a loopback UDP socket: {:?}",
            bound.as_ref().err()
        )
    });
    bound.ok()
}

/// Runs `reps` batches of rounds carrying `payload_bytes` each.
fn phase<T: Transport>(
    cluster: &mut Net<T>,
    payload_bytes: usize,
    reps: Reps,
    first_round: u64,
    log: Option<&Log>,
    mut between_batches: impl FnMut(&mut Net<T>),
) -> Pass {
    let data = bytes::Bytes::from(vec![0xB0u8; payload_bytes]);
    let mut pass = Pass::default();
    let mut budget = RepBudget::new(reps);
    let mut number = first_round;
    let retransmitted0 = cluster.counters().frames_retransmitted;
    let mut retries = 0u64;
    while budget.more() {
        let before = cluster.counters();
        let mut wall_ns = 0u64;
        let cpu0 = cpu_ns();
        for _ in 0..ROUNDS_PER_BATCH {
            if let Some(l) = log {
                l.borrow_mut().set_op(number);
            }
            let t0 = Instant::now();
            let (delivered, hops) = span(log, Name::Op, || {
                let driver = &mut pass.driver;
                let mut hops = 0;
                let delivered = (0..ATTEMPTS).any(|_| {
                    let payload =
                        cluster.start_multicast(number as usize % NODES, true, data.clone());
                    let mut cursor = NodeCursor::new(payload);
                    let delivered = span(log, Name::RuntimeRunUntil, || {
                        cluster.run_until(ATTEMPT_TIMEOUT, |c| {
                            span(log, Name::DriverCheck, || {
                                driver.book(|| cursor.advance(c.core()))
                            })
                        })
                    });
                    retries += u64::from(!delivered);
                    hops = cursor.hops_sum;
                    delivered
                });
                (delivered, hops)
            });
            let op_ns = t0.elapsed().as_nanos() as u64;
            pass.driver.clock_reads += 2;
            number += 1;
            wall_ns += op_ns;
            pass.op_wall_ns.push(op_ns as f64);
            pass.attempted += 1;
            pass.failed += u64::from(!delivered);
            pass.hops_sum += hops as f64 / (NODES - 1) as f64;
            pass.hops_count += 1.0;
        }
        pass.batches.push(Batch {
            ops: ROUNDS_PER_BATCH,
            msgs: cluster.counters().frames_decoded - before.frames_decoded,
            wall_ns,
            cpu_ns: cpu_ns() - cpu0,
        });
        between_batches(cluster);
        pass.checkpoint_rss(RSS_CHECKPOINT_OPS);
        budget.tick();
    }
    pass.layer.insert("runtime.round_retries", retries as f64);
    pass.layer.insert(
        "reactor.retransmits_per_op",
        (cluster.counters().frames_retransmitted - retransmitted0) as f64
            / pass.ops().max(1) as f64,
    );
    pass
}

fn require_clean<T: Transport>(cluster: &Net<T>, checks: &mut Checks) {
    let c = cluster.counters();
    checks.require(c.frames_rejected == 0 && c.internal_errors == 0, || {
        format!(
            "{} frames rejected, {} internal errors on loopback",
            c.frames_rejected, c.internal_errors
        )
    });
}

/// Payload bits delivered to members per wall second, in Mbit/s; headers,
/// acks and retransmissions are not payload.
fn goodput_mbps(pass: &Pass, payload_bytes: usize) -> f64 {
    let delivered_rounds = pass.attempted - pass.failed;
    let bits = delivered_rounds as f64 * (NODES - 1) as f64 * payload_bytes as f64 * 8.0;
    bits / (pass.wall_ns().max(1) as f64 / 1e9) / 1e6
}

/// Rounds per second at 4,096 B, where frames overrun the socket buffer and
/// every loss waits out an RTO. Capped in wall time, not in rounds.
fn cliff_probe(members: &[Member], seed: u64, checks: &mut Checks) -> f64 {
    let Some(transport) = bind(checks) else {
        return 0.0;
    };
    let mut cluster = converge(members, seed, transport, None);
    let data = bytes::Bytes::from(vec![0xB0u8; CLIFF_PAYLOAD]);
    let clock = TimeBox::new(CLIFF_PROBE_SECONDS);
    let t0 = Instant::now();
    let (mut round, mut delivered) = (0usize, 0u64);
    while !clock.expired() {
        let payload = cluster.start_multicast(round % NODES, true, data.clone());
        let mut cursor = NodeCursor::new(payload);
        delivered +=
            u64::from(cluster.run_until(ATTEMPT_TIMEOUT, |c| cursor.advance(c.core())));
        round += 1;
    }
    delivered as f64 / t0.elapsed().as_secs_f64()
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let members = scenario_members(NODES, cfg.seed);
    if cfg.trace {
        let box_s = cfg.seconds * REFERENCE_SHARE;
        let t0 = Instant::now();
        let Some(transport) = bind(&mut out.checks) else {
            return out;
        };
        let mut cluster = converge(&members, cfg.seed, transport, None);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.pass = phase(
            &mut cluster,
            SMALL_PAYLOAD,
            Reps::For(box_s * SMALL_PHASE_SHARE),
            0,
            None,
            |_| {},
        );
        let large = phase(
            &mut cluster,
            LARGE_PAYLOAD,
            Reps::For(box_s * (1.0 - SMALL_PHASE_SHARE)),
            out.pass.attempted,
            None,
            |_| {},
        );
        require_clean(&cluster, &mut out.checks);
        drop(cluster);

        let log = SpanLog::shared();
        let Some(transport) = bind(&mut out.checks) else {
            return out;
        };
        let mut cluster = converge(
            &members,
            cfg.seed,
            TimedTransport::new(transport, log.clone()),
            Some(&log),
        );
        cluster.set_tracer(fresh_tracer());
        let mut tally = EventTally::default();
        let mut drain = |c: &mut Net<TimedTransport<MuxUdpTransport>>| {
            tally.absorb(c.take_tracer().as_ref());
            c.set_tracer(fresh_tracer());
        };
        let mut traced = phase(
            &mut cluster,
            SMALL_PAYLOAD,
            Reps::Exactly(out.pass.batches.len() as u64),
            0,
            Some(&log),
            &mut drain,
        );
        let stats = cluster.loop_stats();
        let small_wall_us = traced.wall_ns() as f64 / 1e3;
        phase(
            &mut cluster,
            LARGE_PAYLOAD,
            Reps::Exactly(large.batches.len() as u64),
            traced.attempted,
            Some(&log),
            &mut drain,
        );
        require_clean(&cluster, &mut out.checks);
        out.checks.require(large.failed == 0, || {
            format!(
                "{} of {} rounds at 1,024 B failed",
                large.failed, large.attempted
            )
        });

        let ops = traced.ops().max(1) as f64;
        let counters = cluster.counters();
        let captured = std::mem::take(&mut cluster.transport_mut().tally.captured);
        codec_replay(&captured, &log, &mut traced.layer, &mut out.checks);
        transport_metrics(
            &cluster.transport().tally,
            counters,
            traced.ops() + large.ops(),
            &log,
            &mut traced.layer,
        );
        let agg = |name: Name| log.borrow().aggregate(name);
        let l = &mut traced.layer;
        l.insert("user.goodput_mbps", goodput_mbps(&large, LARGE_PAYLOAD));
        l.insert(
            "reactor.converged_build_ms",
            agg(Name::ReactorConvergedBuild).total_ns as f64 / 1e6,
        );
        // Everything `run_until` did that was not a transport call or the
        // completion predicate is the reactor core: handle_frame, poll,
        // next_wake and the loop around them.
        l.insert(
            "reactor.handle_frame_ns",
            agg(Name::RuntimeRunUntil).self_ns as f64
                / cluster.transport().tally.frames_polled.max(1) as f64,
        );
        l.insert("runtime.wakeups_per_op", stats.wakeups as f64 / ops);
        l.insert(
            "runtime.io_wake_share",
            stats.io_wakes as f64 / stats.sleeps.max(1) as f64,
        );
        l.insert(
            "runtime.slept_share",
            stats.slept_micros as f64 / small_wall_us.max(1.0),
        );
        l.insert("trace.events_recorded", tally.recorded as f64);
        l.insert("trace.events_dropped", tally.dropped as f64);
        out.checks.require(tally.dropped == 0, || {
            format!("the RecordingTracer ring dropped {} events", tally.dropped)
        });
        drop(cluster);
        let cliff = cliff_probe(&members, cfg.seed, &mut out.checks);
        traced.layer.insert("transport.udp_4k_rounds_per_s", cliff);
        out.traced = Some(traced);
        out.log = Some(log);
    } else {
        let mut cluster = None;
        for _ in 0..SETUP_REPEATS {
            drop(cluster.take());
            let t0 = Instant::now();
            let Some(transport) = bind(&mut out.checks) else {
                return out;
            };
            cluster = Some(converge(&members, cfg.seed, transport, None));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut cluster = cluster.expect("SETUP_REPEATS > 0");
        out.pass = phase(
            &mut cluster,
            SMALL_PAYLOAD,
            Reps::For(cfg.seconds),
            0,
            None,
            |_| {},
        );
        require_clean(&cluster, &mut out.checks);
    }
    out
}
