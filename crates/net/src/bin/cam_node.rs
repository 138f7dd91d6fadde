//! `cam-node` — stand up a real N-node CAM overlay and push one multicast
//! through it.
//!
//! Every node is a full `DhtActor` (the same protocol logic the simulator
//! and the paper experiments use) hosted by the `cam-net` reactor, either
//! over real UDP on `127.0.0.1` (all nodes multiplexed on one non-blocking
//! socket) or over the deterministic in-memory wire (`--mem`), which also
//! supports seeded frame-loss injection (`--loss`). The tool bootstraps the
//! cluster, lets stabilization run, multicasts a payload from node 0, and
//! reports delivery ratio, hop counts, and wire-level byte/frame counters.
//!
//! ```text
//! cam-node [N] [--koorde] [--payload BYTES] [--seed SEED]
//!          [--mem] [--loss P] [--trace-out FILE]
//! ```
//!
//! `--trace-out FILE` installs a recording tracer and writes the run's
//! events as Chrome Trace Event Format JSON (open in `chrome://tracing`
//! or Perfetto); a text summary goes to stdout.

use std::process::ExitCode;

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_core::cam_koorde::CamKoordeProtocol;
use cam_net::codec::{wire_cost, MAX_FRAME};
use cam_net::mux::MuxUdpTransport;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_net::transport::{InMemoryTransport, Transport, WireCounters};
use cam_overlay::dynamic::{DhtMsg, DhtProtocol};
use cam_overlay::Member;
use cam_ring::{Id, IdSet, IdSpace, Segment};
use cam_sim::rng::SimRng;
use cam_sim::{Duration, LatencyModel};
use cam_trace::RecordingTracer;

struct Options {
    n: usize,
    koorde: bool,
    payload: usize,
    seed: u64,
    mem: bool,
    loss: f64,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: cam-node [N] [--koorde] [--payload BYTES] [--seed SEED] \
     [--mem] [--loss P] [--trace-out FILE]";

/// The largest `--payload` one [`MAX_FRAME`] data frame can carry: what the
/// frame header and the multicast message's own fields leave over (the
/// region bounds are on the wire only when the protocol splits regions).
fn max_payload(region_split: bool) -> usize {
    let empty = DhtMsg::Multicast {
        payload: 0,
        region: region_split.then(|| Segment::new(Id(0), Id(0))),
        hops: 0,
        data: Bytes::new(),
    };
    MAX_FRAME - wire_cost(&empty)
}

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        n: 16,
        koorde: false,
        payload: 256,
        seed: 42,
        mem: false,
        loss: 0.0,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    let mut saw_n = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--koorde" => opts.koorde = true,
            "--chord" => opts.koorde = false,
            "--mem" => opts.mem = true,
            "--payload" => {
                let v = args.next().ok_or("--payload needs a byte count")?;
                opts.payload = v.parse().map_err(|_| format!("bad --payload {v:?}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--loss" => {
                let v = args.next().ok_or("--loss needs a probability")?;
                opts.loss = v.parse().map_err(|_| format!("bad --loss {v:?}"))?;
                if !(0.0..=1.0).contains(&opts.loss) {
                    return Err(format!("--loss {} out of [0, 1]", opts.loss));
                }
            }
            "--trace-out" => {
                let v = args.next().ok_or("--trace-out needs a file path")?;
                opts.trace_out = Some(v);
            }
            "--help" | "-h" => return Ok(None),
            other if !saw_n => {
                opts.n = other
                    .parse()
                    .map_err(|_| format!("bad node count {other:?}"))?;
                saw_n = true;
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if opts.n < 2 {
        return Err("need at least 2 nodes".to_string());
    }
    if opts.loss > 0.0 && !opts.mem {
        return Err("--loss needs --mem (loss injection is in-memory only)".to_string());
    }
    let cap = max_payload(!opts.koorde);
    if opts.payload > cap {
        return Err(format!(
            "--payload {} does not fit one {MAX_FRAME}-byte frame; the most this protocol \
             can carry is {cap}",
            opts.payload
        ));
    }
    Ok(Some(opts))
}

/// Random unique members with capacities in the paper's 2..=10 range.
fn make_members(space: IdSpace, n: usize, seed: u64) -> Vec<Member> {
    let mut rng = SimRng::new(seed).split(0xCA4);
    let mut ids = IdSet::default();
    let mut members = Vec::with_capacity(n);
    while members.len() < n {
        let id = rng.uniform_incl(0, space.size() - 1);
        if ids.insert(id) {
            let capacity = rng.uniform_incl(2, 10) as u32;
            members.push(Member::with_capacity(Id(id), capacity));
        }
    }
    members
}

/// Prints the mux's datagram counters: how many frames each datagram
/// carried on average, receive side.
fn report_datagrams(t: &MuxUdpTransport, c: WireCounters) {
    let d = t.datagrams();
    println!(
        "datagrams: {} sent / {} received ({:.2} frames per datagram)",
        d.sent,
        d.received,
        c.frames_decoded as f64 / d.received.max(1) as f64,
    );
}

/// Runs the cluster over `transport`; `report` prints what only that
/// transport knows, after the wire counters.
fn run<P: DhtProtocol, T: Transport>(
    opts: &Options,
    protocol: P,
    region_split: bool,
    transport: T,
    report: fn(&T, WireCounters),
) -> ExitCode {
    let space = IdSpace::PAPER;
    let members = make_members(space, opts.n, opts.seed);
    let mut cluster = Cluster::converged(
        space,
        &members,
        protocol,
        opts.seed,
        transport,
        RetransmitPolicy::default(),
    );
    if let Some(path) = &opts.trace_out {
        println!("tracing to {path}");
        cluster.set_tracer(Box::new(RecordingTracer::new()));
    }
    if !opts.mem {
        // Real time: compress maintenance so convergence takes wall-clock
        // seconds. Virtual time (--mem) keeps the protocol's own period —
        // a 100ms ping cycle under heavy loss would strike out live
        // neighbors faster than stabilization can re-learn them.
        cluster.set_maintenance_period(Duration::from_millis(100));
    }

    // Let a few stabilization rounds run over the wire.
    cluster.run_for(Duration::from_millis(800));

    let data = Bytes::from(vec![0xCAu8; opts.payload]);
    let payload = cluster.start_multicast(0, region_split, data);
    // A lossy wire needs retransmission backoff room to converge.
    let deadline = if opts.loss > 0.0 { 60 } else { 10 };
    let done = cluster.run_until(Duration::from_secs(deadline), |c| {
        c.delivery_ratio(payload) >= 1.0
    });
    // Let straggler acks drain so the counters are settled.
    cluster.run_for(Duration::from_millis(50));

    let ratio = cluster.delivery_ratio(payload);
    let c = cluster.counters();
    println!(
        "multicast payload {payload}: delivery {:.3} ({} bytes/node), hops mean {:.2} max {}",
        ratio,
        opts.payload,
        cluster.mean_hops(payload),
        cluster.max_hops(payload),
    );
    println!(
        "wire: {} B sent / {} B received; frames {} encoded, {} decoded, {} rejected, {} oversize, {} dropped, {} retransmitted, {} backpressured",
        c.bytes_sent,
        c.bytes_received,
        c.frames_encoded,
        c.frames_decoded,
        c.frames_rejected,
        c.encode_oversize,
        c.frames_dropped,
        c.frames_retransmitted,
        c.send_backpressure,
    );
    report(cluster.transport(), c);
    let stats = cluster.loop_stats();
    println!(
        "loop: {} wakeups, {} deadline sleeps ({} ms slept), {} io wakes",
        stats.wakeups,
        stats.sleeps,
        stats.slept_micros / 1000,
        stats.io_wakes,
    );
    if let Some(path) = &opts.trace_out {
        cluster.export_telemetry();
        let boxed = cluster.take_tracer();
        let rec = boxed.as_recording().expect("recording tracer installed");
        print!("{}", rec.text_report());
        if let Err(e) = std::fs::write(path, rec.chrome_trace_json()) {
            eprintln!("cam-node: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} ({} events)", rec.len());
    }
    if done && ratio >= 1.0 {
        println!("ok: every live node received the payload");
        ExitCode::SUCCESS
    } else {
        eprintln!("cam-node: incomplete delivery ({ratio:.3}) within the deadline");
        ExitCode::FAILURE
    }
}

fn run_with_transport<P: DhtProtocol>(
    opts: &Options,
    protocol: P,
    region_split: bool,
) -> ExitCode {
    let name = if opts.koorde {
        "CAM-Koorde"
    } else {
        "CAM-Chord"
    };
    if opts.mem {
        let mut t = InMemoryTransport::new(opts.n, opts.seed, LatencyModel::default_wan());
        t.set_loss_probability(opts.loss);
        println!(
            "cam-node: {} nodes ({name}) on the in-memory wire, loss {:.0}%, seed {}",
            opts.n,
            opts.loss * 100.0,
            opts.seed,
        );
        run(opts, protocol, region_split, t, |_, _| {})
    } else {
        let t = match MuxUdpTransport::bind(opts.n) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cam-node: cannot bind the loopback socket: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "cam-node: {} nodes ({name}) multiplexed on one socket at {}",
            opts.n,
            t.local_addr(),
        );
        run(opts, protocol, region_split, t, report_datagrams)
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.koorde {
        run_with_transport(&opts, CamKoordeProtocol, false)
    } else {
        run_with_transport(&opts, CamChordProtocol, true)
    }
}
