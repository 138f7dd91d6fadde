#![forbid(unsafe_code)]

//! The repo benchmark: six workloads, end-to-end and per-layer metrics,
//! and a traced run. See `README.md` beside this package for the metric
//! glossary and `BENCHMARK.json` at the repository root for the contract.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Without `--workload` every workload runs in turn. With `--trace 0` the
//! run prints the end-to-end metrics, with `--trace 1` the per-layer ones
//! (and writes `benchmark/out/trace-<workload>.json`). The last line of
//! standard output of each workload is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero if any
//! output check failed.

mod catalogue;
mod events;
mod harness;
mod spans;
mod timed_transport;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use catalogue::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use harness::{clock_cost_ns, median, Config, Outcome, Pass, DEFAULT_SEED};
use spans::Name;

/// The driver may not eat more than this share of a timed region.
const DRIVER_OVERHEAD_LIMIT: f64 = 0.05;

struct Args {
    workload: Option<String>,
    cfg: Config,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: Config {
            seed: DEFAULT_SEED,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
        },
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            args.manifest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(name, _)| *name == value) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(bad(&format!("one of {}", known.join(", "))));
                }
                args.workload = Some(value);
            }
            "--seed" => args.cfg.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                args.cfg.seconds = s;
            }
            "--trace" => {
                args.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &Config) -> Outcome {
    match name {
        "static_trees" => workloads::static_trees::run(cfg),
        "sim_multicast" => workloads::sim_multicast::run(cfg),
        "sim_churn" => workloads::sim_churn::run(cfg),
        "wire_mem" => workloads::wire_mem::run(cfg),
        "wire_udp" => workloads::wire_udp::run(cfg),
        "pubsub_mix" => workloads::pubsub_mix::run(cfg),
        other => unreachable!("parse_args admits only catalogue names, got {other}"),
    }
}

/// The eight end-to-end metrics of one untraced pass.
fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let p = &out.pass;
    BTreeMap::from([
        ("setup_s", median(&out.setup_s)),
        ("ops_per_s", p.ops_per_s()),
        ("op_wall_p50_us", p.op_wall_p50_us()),
        ("cpu_us_per_op", p.cpu_us_per_op()),
        ("msgs_per_s", p.msgs_per_s()),
        ("msgs_per_op", p.msgs_per_op()),
        ("path_len_mean", p.path_len_mean()),
        ("peak_rss_mb", p.peak_rss_mb()),
    ])
}

/// Self time (span minus child spans) summed per layer group, in ms.
fn self_times(log: &spans::SpanLog) -> [(&'static str, f64); 7] {
    use Name::*;
    let sum = |names: &[Name]| {
        names.iter().map(|&n| log.aggregate(n).self_ns).sum::<u64>() as f64 / 1e6
    };
    [
        (
            "self.ring_overlay_core_ms",
            sum(&[
                RingOwnerIdx,
                OverlayMembersetBuild,
                OverlayTreeStats,
                CoreChordTree,
                CoreKoordeTree,
                CoreChordLookup,
                CoreKoordeLookup,
            ]),
        ),
        (
            "self.sim_actor_ms",
            sum(&[
                SimConvergedBuild,
                SimRunUntil,
                SimNullActorRun,
                ActorStartMulticast,
                ActorInjectJoin,
                ActorRemoveMember,
                ActorRetryStalledJoins,
            ]),
        ),
        (
            "self.reactor_ms",
            sum(&[
                ReactorConvergedBuild,
                ReactorStartMulticast,
                ReactorHandleFrame,
                ReactorPoll,
                ReactorNextWake,
                RuntimeRunUntil,
            ]),
        ),
        (
            "self.transport_ms",
            sum(&[
                TransportSendBatch,
                TransportPoll,
                TransportPollBatch,
                TransportWait,
                TransportFlushBackpressure,
            ]),
        ),
        ("self.codec_ms", sum(&[CodecDecode, CodecEncode])),
        (
            "self.pubsub_ms",
            sum(&[
                PubsubSubscribe,
                PubsubUnsubscribe,
                PubsubPublish,
                LedgerVerify,
            ]),
        ),
        ("self.driver_ms", sum(&[Op, DriverCheck])),
    ]
}

/// Wall nanoseconds per op of a pass (total, not median of batches: the
/// two passes being compared ran the same ops).
fn wall_per_op(p: &Pass) -> f64 {
    p.wall_ns() as f64 / p.ops().max(1) as f64
}

/// Every per-layer metric of a `--trace 1` run: what the passes recorded,
/// plus the numbers about the measurement itself.
fn per_layer(out: &Outcome, clock_ns: f64) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let reference = &out.pass;
    if let Some(traced) = &out.traced {
        m.extend(traced.layer.iter().map(|(k, v)| (*k, *v)));
        m.insert(
            "trace.recording_overhead_share",
            wall_per_op(traced) / wall_per_op(reference) - 1.0,
        );
        m.insert("trace.ops_traced", traced.ops() as f64);
        m.insert("driver.ops_per_s_traced", traced.ops_per_s());
    }
    // Where both passes measured the same quantity, the untraced one counts.
    m.extend(reference.layer.iter().map(|(k, v)| (*k, *v)));
    if let Some(log) = &out.log {
        let log = log.borrow();
        m.insert("trace.spans_recorded", log.recorded() as f64);
        m.insert("trace.spans_dropped", log.dropped() as f64);
        m.extend(self_times(&log));
    }
    m.insert("trace.ops_reference", reference.ops() as f64);
    m.insert("driver.ops_per_s_reference", reference.ops_per_s());
    m.insert(
        "driver.overhead_share",
        reference.driver.share(reference.wall_ns(), clock_ns),
    );
    m.insert("driver.op_wall_p99_us", reference.op_wall_p99_us());
    m.insert("driver.setup_ms", median(&out.setup_s) * 1e3);
    m.insert(
        "driver.nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    m
}

/// Where the span file goes: `benchmark/out/` when run from the repository
/// root (the contract's working directory), `out/` from inside the package.
fn out_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

fn write_trace(workload: &str, out: &mut Outcome) {
    let Some(log) = &out.log else {
        return;
    };
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, log.borrow().chrome_trace_json(workload)));
    out.checks.require(written.is_ok(), || {
        format!("could not write {}: {written:?}", path.display())
    });
    eprintln!("spans written to {}", path.display());
}

/// Runs one workload, prints its metrics and result line, and returns
/// whether every check passed.
fn report(workload: &str, cfg: &Config, clock_ns: f64) -> bool {
    let mut out = run_workload(workload, cfg);
    out.require_identical_passes();
    let driver_share = out.pass.driver.share(out.pass.wall_ns(), clock_ns);
    out.checks
        .require(driver_share < DRIVER_OVERHEAD_LIMIT, || {
            format!(
            "driver overhead {driver_share:.4} of the timed wall exceeds {DRIVER_OVERHEAD_LIMIT}"
        )
        });
    out.checks.require(out.pass.failed == 0, || {
        format!(
            "{} of {} operations failed",
            out.pass.failed, out.pass.attempted
        )
    });

    let (values, units): (BTreeMap<&str, f64>, Vec<(&str, &str)>) = if cfg.trace {
        write_trace(workload, &mut out);
        (
            per_layer(&out, clock_ns),
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect(),
        )
    } else {
        (
            end_to_end(&out),
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        )
    };

    let mut json = String::new();
    println!(
        "# {workload} seed={} seconds={} trace={} ops={} driver_overhead={driver_share:.5}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        out.pass.ops()
    );
    for (i, (name, unit)) in units.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(f64::NAN);
        out.checks.require(value.is_finite(), || {
            format!("metric {name} is not a finite number: {value}")
        });
        if !cfg.trace {
            out.checks.require(value > 0.0, || {
                format!("end-to-end metric {name} must be positive, got {value}")
            });
        }
        println!("{name:<36} {value:>18.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for failure in &out.checks.failures {
        eprintln!("CHECK FAILED [{workload}]: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.checks.ok(),
        out.pass.attempted.max(1),
        out.pass.failed
    );
    out.checks.ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cam-benchmark: {e}");
            eprintln!(
                "usage: cam-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--manifest]"
            );
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", catalogue::manifest());
        return ExitCode::SUCCESS;
    }
    let clock_ns = clock_cost_ns();
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut ok = true;
    for name in names {
        // Several workloads in one process: make each RSS reading its own.
        harness::reset_peak_rss();
        ok &= report(name, &args.cfg, clock_ns);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
