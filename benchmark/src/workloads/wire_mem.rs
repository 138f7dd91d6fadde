//! `wire_mem`: multicast rounds over the virtual-time in-memory wire.
//!
//! The codec, `ReactorCore::{handle_frame, poll, next_wake}` and the
//! retransmit timers do the work, CPU-bound in virtual time with exactly
//! repeatable counts. Syscalls are bypassed.
//!
//! 256 nodes, `LatencyModel::default_wan()`, CAM-Chord region multicast,
//! 64 B payloads from rotating sources. The wire loses nothing, yet the
//! retransmit path is busy: the 150 ms initial RTO is under the 160 ms
//! worst round trip, so a few frames per round are re-sent spuriously. (At
//! 2 % loss some rounds never complete because evicted neighbors leave
//! holes in the region split; a benchmark op must not fail, so loss is a
//! capped per-layer probe, `reactor.lossy_*`, rather than the workload.)
//!
//! Closed loop, one client. An op is one round: `start_multicast`, then
//! 5 ms virtual slices until every node holds the payload. `msgs` are
//! decoded frames (data, acks, maintenance).
//!
//! The end-to-end pass drives `Cluster`. The traced pass drives the same
//! `ReactorCore` through a benchmark-owned copy of `Cluster`'s virtual-time
//! loop, so each `handle_frame`, `poll`, `next_wake` and transport call can
//! carry a span; the wire counters and delivery times of the two must match
//! bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use cam_core::cam_chord::CamChordProtocol;
use cam_net::{
    Cluster, FrameSink, InMemoryTransport, ReactorCore, RetransmitPolicy, Transport,
    WireCounters,
};
use cam_overlay::Member;
use cam_ring::IdSpace;
use cam_sim::{Duration, LatencyModel, SimTime};

use super::scenario_members;
use super::wirenet::{codec_replay, transport_metrics, NodeCursor, Peaks};
use crate::events::{fresh_tracer, EventTally};
use crate::harness::{
    cpu_ns, median, quantile, Batch, Checks, Config, Outcome, Pass, RepBudget, Reps,
    DEFAULT_SEED, REFERENCE_SHARE,
};
use crate::spans::{span, Log, Name, SpanLog};
use crate::timed_transport::TimedTransport;

const NODES: usize = 256;
const PAYLOAD_BYTES: usize = 64;
const SLICE: Duration = Duration(5_000);
/// A round not everywhere after this much virtual time failed.
const ROUND_DEADLINE: Duration = Duration(5_000_000);
const ROUNDS_PER_BATCH: u64 = 16;
const WARMUP_ROUNDS: u64 = 16;
/// Ops after which `peak_rss_mb` is read (see `Pass::checkpoint_rss`).
const RSS_CHECKPOINT_OPS: u64 = 160;
const SETUP_REPEATS: usize = 5;
const LOSSY_PROBE_ROUNDS: u64 = 48;
const LOSSY_PROBE_LOSS: f64 = 0.02;

/// Default seed, first measured round: `(mean hops, virtual ms)`.
const PINNED_FIRST_ROUND: (f64, u64) = (3.450980392156863, 370);

/// The two hosts of the reactor core a round can run on.
trait Host {
    fn now(&self) -> SimTime;
    fn start_multicast(&mut self, source: usize, data: bytes::Bytes) -> u64;
    fn run_slice(&mut self);
    fn core(&self) -> &ReactorCore<CamChordProtocol>;
    fn counters(&self) -> WireCounters;
    /// Called between rounds; the traced host drains its tracer here.
    fn round_done(&mut self) {}
}

impl Host for Cluster<CamChordProtocol, InMemoryTransport> {
    fn now(&self) -> SimTime {
        Cluster::now(self)
    }
    fn start_multicast(&mut self, source: usize, data: bytes::Bytes) -> u64 {
        Cluster::start_multicast(self, source, true, data)
    }
    fn run_slice(&mut self) {
        self.run_for(SLICE);
    }
    fn core(&self) -> &ReactorCore<CamChordProtocol> {
        Cluster::core(self)
    }
    fn counters(&self) -> WireCounters {
        Cluster::counters(self)
    }
}

fn transport(seed: u64, loss: f64) -> InMemoryTransport {
    let mut t = InMemoryTransport::new(NODES, seed, LatencyModel::default_wan());
    t.set_loss_probability(loss);
    t
}

fn cluster(
    members: &[Member],
    seed: u64,
    loss: f64,
) -> Cluster<CamChordProtocol, InMemoryTransport> {
    Cluster::converged(
        IdSpace::PAPER,
        members,
        CamChordProtocol,
        seed,
        transport(seed, loss),
        RetransmitPolicy::default(),
    )
}

/// `Cluster`'s virtual-time loop, copied so every call into a layer can be
/// wrapped in a span. Must stay step-for-step identical to
/// `Cluster::step_virtual`; the run checks that it is.
struct SpannedLoop {
    core: ReactorCore<CamChordProtocol>,
    transport: TimedTransport<InMemoryTransport>,
    sink: FrameSink,
    now: SimTime,
    log: Log,
    tally: EventTally,
    peaks: Peaks,
}

impl SpannedLoop {
    fn converged(members: &[Member], seed: u64, log: &Log) -> SpannedLoop {
        let mut transport = TimedTransport::new(transport(seed, 0.0), log.clone());
        let mut sink = FrameSink::new();
        let mut core = span(Some(log), Name::ReactorConvergedBuild, || {
            ReactorCore::converged(
                IdSpace::PAPER,
                members,
                CamChordProtocol,
                seed,
                transport.endpoints(),
                RetransmitPolicy::default(),
                &mut sink,
                transport.counters_mut(),
            )
        });
        core.set_tracer(fresh_tracer());
        let mut host = SpannedLoop {
            core,
            transport,
            sink,
            now: SimTime::ZERO,
            log: log.clone(),
            tally: EventTally::default(),
            peaks: Peaks::default(),
        };
        host.flush();
        host
    }

    fn flush(&mut self) {
        if self.sink.is_empty() {
            return;
        }
        self.transport.send_batch(self.now, self.sink.frames());
        self.sink.recycle_all();
    }

    fn step(&mut self, deadline: SimTime) -> bool {
        let log = self.log.clone();
        let log = Some(&log);
        let next = span(log, Name::ReactorNextWake, || {
            match (self.transport.next_ready(), self.core.next_wake()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        });
        match next {
            Some(t) if t <= deadline => {
                self.now = self.now.max(t);
                while let Some((to, bytes)) = self.transport.poll(self.now) {
                    span(log, Name::ReactorHandleFrame, || {
                        self.core.handle_frame(
                            self.now,
                            to,
                            &bytes,
                            &mut self.sink,
                            self.transport.counters_mut(),
                        );
                    });
                    self.flush();
                    self.transport.recycle(bytes);
                }
                span(log, Name::ReactorPoll, || {
                    self.core
                        .poll(self.now, &mut self.sink, self.transport.counters_mut())
                });
                self.flush();
                true
            }
            _ => {
                self.now = deadline;
                false
            }
        }
    }
}

impl Host for SpannedLoop {
    fn now(&self) -> SimTime {
        self.now
    }
    fn start_multicast(&mut self, source: usize, data: bytes::Bytes) -> u64 {
        let log = self.log.clone();
        let payload = span(Some(&log), Name::ReactorStartMulticast, || {
            self.core.start_multicast(
                self.now,
                source,
                true,
                data,
                &mut self.sink,
                self.transport.counters_mut(),
            )
        });
        self.flush();
        payload
    }
    fn run_slice(&mut self) {
        let deadline = self.now + SLICE;
        while self.step(deadline) {}
    }
    fn core(&self) -> &ReactorCore<CamChordProtocol> {
        &self.core
    }
    fn counters(&self) -> WireCounters {
        self.transport.counters()
    }
    fn round_done(&mut self) {
        let full = self.core.take_tracer();
        self.tally.absorb(full.as_ref());
        self.core.set_tracer(fresh_tracer());
        self.peaks.sample(&self.core);
    }
}

struct Round {
    wall_ns: u64,
    virt_ms: f64,
    hops_mean: f64,
    delivered: bool,
}

fn round<H: Host>(
    host: &mut H,
    number: u64,
    data: &bytes::Bytes,
    pass: &mut Pass,
    log: Option<&Log>,
) -> Round {
    if let Some(l) = log {
        l.borrow_mut().set_op(number);
    }
    let t0 = Instant::now();
    let start = host.now();
    let (delivered, cursor) = span(log, Name::Op, || {
        let payload = host.start_multicast(number as usize % NODES, data.clone());
        let mut cursor = NodeCursor::new(payload);
        loop {
            host.run_slice();
            let done = span(log, Name::DriverCheck, || {
                pass.driver.book(|| cursor.advance(host.core()))
            });
            if done {
                break (true, cursor);
            }
            if host.now().since(start) >= ROUND_DEADLINE {
                break (false, cursor);
            }
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    pass.driver.clock_reads += 2;
    host.round_done();
    Round {
        wall_ns,
        virt_ms: host.now().since(start).micros() as f64 / 1e3,
        hops_mean: cursor.hops_sum as f64 / (NODES - 1) as f64,
        delivered,
    }
}

fn warm_up<H: Host>(host: &mut H, data: &bytes::Bytes, log: Option<&Log>) {
    let mut scratch = Pass::default();
    for r in 0..WARMUP_ROUNDS {
        round(host, r, data, &mut scratch, log);
    }
}

fn pass<H: Host>(
    host: &mut H,
    reps: Reps,
    seed: u64,
    log: Option<&Log>,
    checks: &mut Checks,
) -> Pass {
    let data = bytes::Bytes::from(vec![0xB0u8; PAYLOAD_BYTES]);
    let mut pass = Pass::default();
    let mut budget = RepBudget::new(reps);
    let mut virt_ms = Vec::new();
    let mut number = WARMUP_ROUNDS;
    let retransmitted0 = host.counters().frames_retransmitted;
    while budget.more() {
        let before = host.counters();
        let cpu0 = cpu_ns();
        let mut wall_ns = 0u64;
        for _ in 0..ROUNDS_PER_BATCH {
            let r = round(host, number, &data, &mut pass, log);
            if number == WARMUP_ROUNDS && seed == DEFAULT_SEED {
                let first = (r.hops_mean, r.virt_ms as u64);
                checks.require(first == PINNED_FIRST_ROUND, || {
                    format!(
                        "first round of the default seed: {first:?} differs from the pinned {PINNED_FIRST_ROUND:?}"
                    )
                });
            }
            number += 1;
            wall_ns += r.wall_ns;
            pass.op_wall_ns.push(r.wall_ns as f64);
            pass.attempted += 1;
            pass.failed += u64::from(!r.delivered);
            pass.hops_sum += r.hops_mean;
            pass.hops_count += 1.0;
            virt_ms.push(r.virt_ms);
        }
        pass.batches.push(Batch {
            ops: ROUNDS_PER_BATCH,
            msgs: host.counters().frames_decoded - before.frames_decoded,
            wall_ns,
            cpu_ns: cpu_ns() - cpu0,
        });
        pass.checkpoint_rss(RSS_CHECKPOINT_OPS);
        budget.tick();
    }
    let c = host.counters();
    checks.require(c.frames_rejected == 0 && c.internal_errors == 0, || {
        format!(
            "{} frames rejected, {} internal errors",
            c.frames_rejected, c.internal_errors
        )
    });
    let (p50, p95) = (median(&virt_ms), quantile(&virt_ms, 0.95));
    pass.layer.insert("user.deliver_virt_p50_ms", p50);
    pass.layer.insert("user.deliver_virt_p95_ms", p95);
    pass.layer.insert(
        "reactor.retransmits_per_op",
        (c.frames_retransmitted - retransmitted0) as f64 / pass.ops().max(1) as f64,
    );
    pass.set_exact("wire_counters", c);
    pass.set_exact(
        "deliver_virt_ms",
        virt_ms.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    pass.set_exact("path_len_mean", pass.path_len_mean().to_bits());
    pass.set_exact("msgs_per_op", pass.msgs_per_op().to_bits());
    pass
}

/// A capped look at the lossy wire: rounds that miss the deadline and
/// retransmissions per round at 2 % frame loss.
fn lossy_probe(members: &[Member], seed: u64, layer: &mut BTreeMap<&'static str, f64>) {
    let data = bytes::Bytes::from(vec![0xB0u8; PAYLOAD_BYTES]);
    let mut host = cluster(members, seed, LOSSY_PROBE_LOSS);
    let mut scratch = Pass::default();
    let before = host.counters();
    let missed = (0..LOSSY_PROBE_ROUNDS)
        .filter(|&r| !round(&mut host, r, &data, &mut scratch, None).delivered)
        .count();
    let retransmits = host.counters().frames_retransmitted - before.frames_retransmitted;
    layer.insert(
        "reactor.lossy_failed_share",
        missed as f64 / LOSSY_PROBE_ROUNDS as f64,
    );
    layer.insert(
        "reactor.lossy_retransmits_per_op",
        retransmits as f64 / LOSSY_PROBE_ROUNDS as f64,
    );
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let data = bytes::Bytes::from(vec![0xB0u8; PAYLOAD_BYTES]);
    let build = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let members = scenario_members(NODES, cfg.seed);
        let mut host = cluster(&members, cfg.seed, 0.0);
        warm_up(&mut host, &data, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        (members, host)
    };
    if cfg.trace {
        let (members, mut host) = build(&mut out.setup_s);
        out.pass = pass(
            &mut host,
            Reps::For(cfg.seconds * REFERENCE_SHARE),
            cfg.seed,
            None,
            &mut out.checks,
        );
        drop(host);

        let log = SpanLog::shared();
        let mut host = SpannedLoop::converged(&members, cfg.seed, &log);
        warm_up(&mut host, &data, Some(&log));
        let mut traced = pass(
            &mut host,
            Reps::Exactly(out.pass.batches.len() as u64),
            cfg.seed,
            Some(&log),
            &mut out.checks,
        );
        let ops = traced.ops();
        let counters = host.counters();
        let agg = |name: Name| log.borrow().aggregate(name);
        let per_call = |name: Name| agg(name).mean_ns();
        let frames = agg(Name::ReactorHandleFrame).calls.max(1) as f64;
        codec_replay(
            &host.transport.tally.captured,
            &log,
            &mut traced.layer,
            &mut out.checks,
        );
        transport_metrics(
            &host.transport.tally,
            counters,
            ops,
            &log,
            &mut traced.layer,
        );
        let l = &mut traced.layer;
        let handle_ns = per_call(Name::ReactorHandleFrame);
        // What handle_frame spends outside the codec: one decode per frame
        // plus an encode for every frame it emitted in response.
        let codec_ns = l.get("codec.decode_ns_per_frame").copied().unwrap_or(0.0)
            + l.get("codec.encode_ns_per_frame").copied().unwrap_or(0.0)
                * (counters.frames_encoded as f64 / counters.frames_decoded.max(1) as f64);
        l.insert(
            "reactor.converged_build_ms",
            per_call(Name::ReactorConvergedBuild) / 1e6,
        );
        l.insert("reactor.handle_frame_ns", handle_ns);
        l.insert("reactor.poll_ns_per_call", per_call(Name::ReactorPoll));
        l.insert(
            "reactor.poll_calls_per_frame",
            agg(Name::ReactorPoll).calls as f64 / frames,
        );
        l.insert("reactor.next_wake_ns", per_call(Name::ReactorNextWake));
        l.insert(
            "reactor.actor_share",
            (1.0 - codec_ns / handle_ns.max(1.0)).max(0.0),
        );
        l.insert("reactor.unacked_peak", host.peaks.unacked as f64);
        l.insert("reactor.armed_timers_peak", host.peaks.armed_timers as f64);
        l.insert("trace.events_recorded", host.tally.recorded as f64);
        l.insert("trace.events_dropped", host.tally.dropped as f64);
        out.checks.require(host.tally.dropped == 0, || {
            format!(
                "the RecordingTracer ring dropped {} events",
                host.tally.dropped
            )
        });
        lossy_probe(&members, cfg.seed, &mut traced.layer);
        out.traced = Some(traced);
        out.log = Some(log);
    } else {
        let mut world = None;
        for _ in 0..SETUP_REPEATS {
            drop(world.take());
            world = Some(build(&mut out.setup_s));
        }
        let (_, mut host) = world.expect("SETUP_REPEATS > 0");
        out.pass = pass(
            &mut host,
            Reps::For(cfg.seconds),
            cfg.seed,
            None,
            &mut out.checks,
        );
    }
    out
}
