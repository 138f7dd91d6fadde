//! cam-chaos CLI: run seeded fault plans, shrink failures, emit and
//! replay bundles.
//!
//! ```text
//! cam-chaos [--preset small|default|torture] [--seeds N] [--start-seed S]
//!           [--host net|sim|both] [--bundle-dir DIR] [--no-shrink]
//! cam-chaos --adversary [--seeds N] [--start-seed S] [--report FILE]
//! cam-chaos --replay FILE
//! ```
//!
//! Exit code 0 = every seed passed every oracle; 1 = at least one
//! violation (for `--replay`, 1 means the bundle reproduced its failure,
//! which is the expected outcome when investigating). `--adversary`
//! additionally fails if any behavior's detection rate falls below the
//! 90% bar among seeds where it activated.

use std::process::ExitCode;

use cam_chaos::{robustness_report, run_plan, shrink_plan, FaultPlan, HostKind, ReplayBundle};

struct Args {
    preset: String,
    seeds: u64,
    start_seed: u64,
    hosts: Vec<HostKind>,
    bundle_dir: String,
    shrink: bool,
    dump: bool,
    replay: Option<String>,
    adversary: bool,
    report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        preset: "small".to_string(),
        seeds: 25,
        start_seed: 1,
        hosts: vec![HostKind::Net],
        bundle_dir: "chaos-bundles".to_string(),
        shrink: true,
        dump: false,
        replay: None,
        adversary: false,
        report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--preset" => args.preset = value("--preset")?,
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|_| "--seeds wants a number".to_string())?;
            }
            "--start-seed" => {
                args.start_seed = value("--start-seed")?
                    .parse()
                    .map_err(|_| "--start-seed wants a number".to_string())?;
            }
            "--host" => {
                args.hosts = match value("--host")?.as_str() {
                    "net" => vec![HostKind::Net],
                    "sim" => vec![HostKind::Sim],
                    "both" => vec![HostKind::Net, HostKind::Sim],
                    other => return Err(format!("unknown host `{other}`")),
                };
            }
            "--bundle-dir" => args.bundle_dir = value("--bundle-dir")?,
            "--no-shrink" => args.shrink = false,
            "--dump" => args.dump = true,
            "--replay" => args.replay = Some(value("--replay")?),
            "--adversary" => args.adversary = true,
            "--report" => args.report = Some(value("--report")?),
            "--help" | "-h" => {
                println!(
                    "usage: cam-chaos [--preset small|default|torture] [--seeds N] \
                     [--start-seed S] [--host net|sim|both] [--bundle-dir DIR] \
                     [--no-shrink] | --adversary [--seeds N] [--start-seed S] \
                     [--report FILE] | --replay FILE"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn replay(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bundle = ReplayBundle::from_text(&text)?;
    let report = run_plan(&bundle.plan, bundle.host, false);
    println!(
        "replay {path}: seed {} preset {} host {} -> fingerprint {:016x}, {} violation(s)",
        bundle.plan.seed,
        bundle.plan.preset,
        bundle.host.name(),
        report.fingerprint,
        report.violations.len()
    );
    for v in &report.violations {
        println!(
            "  [{}] node {}: {}",
            v.oracle,
            v.node.map_or("-".to_string(), |n| n.to_string()),
            v.detail
        );
    }
    Ok(!report.passed())
}

/// `--adversary`: sweep every Byzantine behavior over the seed range,
/// print one summary line per behavior, optionally write the markdown
/// robustness report. Fails on any degraded-oracle violation or any
/// behavior detected in fewer than 90% of its activated seeds.
fn adversary_sweep(args: &Args) -> ExitCode {
    let (markdown, rows) = robustness_report(args.start_seed, args.seeds as usize);
    let mut ok = true;
    for r in &rows {
        let bar = r.detection_rate_ok();
        let oracles_ok = r.failed_seeds == 0;
        ok &= bar && oracles_ok;
        println!(
            "{:<17} activated {:>2}/{} detected {:>2}/{} hits {:>5} oracles {} detection-bar {}",
            r.behavior.name(),
            r.activated,
            r.seeds,
            r.detected,
            r.activated,
            r.detections_total,
            if oracles_ok {
                "pass".to_string()
            } else {
                format!("FAIL({} seeds)", r.failed_seeds)
            },
            if bar { "pass" } else { "FAIL" },
        );
    }
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &markdown) {
            eprintln!("cam-chaos: could not write report {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("robustness report: {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("adversary sweep FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cam-chaos: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.adversary {
        return adversary_sweep(&args);
    }

    if let Some(path) = &args.replay {
        return match replay(path) {
            Ok(reproduced) => {
                if reproduced {
                    println!("violation reproduced");
                    ExitCode::FAILURE
                } else {
                    println!("no violation — bundle did not reproduce");
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("cam-chaos: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut failures = 0u64;
    for seed in args.start_seed..args.start_seed + args.seeds {
        let Some(plan) = FaultPlan::by_preset(&args.preset, seed) else {
            eprintln!("cam-chaos: unknown preset `{}`", args.preset);
            return ExitCode::FAILURE;
        };
        for &host in &args.hosts {
            let report = run_plan(&plan, host, false);
            println!("{}", report.summary(&plan));
            if report.passed() {
                continue;
            }
            failures += 1;
            let shown = if args.dump { usize::MAX } else { 8 };
            for v in report.violations.iter().take(shown) {
                println!(
                    "  [{}] node {}: {}",
                    v.oracle,
                    v.node.map_or("-".to_string(), |n| n.to_string()),
                    v.detail
                );
            }
            if args.dump {
                println!("  plan events:");
                for ev in &plan.events {
                    println!("    {:>10}us {:?}", ev.at_micros, ev.kind);
                }
                println!("  final node states:");
                let flagged: Vec<u64> =
                    report.violations.iter().filter_map(|v| v.node).collect();
                for s in &report.snapshots {
                    if flagged.contains(&(s.index as u64)) {
                        println!("    node {:>2} finger table:", s.index);
                        for (t, id) in &s.fingers {
                            println!("      target {:>8} -> {}", t, id.value());
                        }
                    }
                }
                for s in &report.snapshots {
                    println!(
                        "    node {:>2} id {:>7} alive={} joined={} succ={:?} pred={:?} fingers={} seen={}",
                        s.index,
                        s.member.id.value(),
                        s.alive,
                        s.joined,
                        s.successor.map(|i| i.value()),
                        s.predecessor.map(|i| i.value()),
                        s.fingers.len(),
                        s.seen
                    );
                }
            }
            if !args.shrink {
                continue;
            }
            match shrink_plan(&plan, |p| run_plan(p, host, false)) {
                Some(out) => {
                    println!(
                        "  shrunk {} -> {} events in {} runs (bit-identical: {})",
                        plan.events.len(),
                        out.minimized.events.len(),
                        out.runs,
                        out.bit_identical
                    );
                    // Re-run the minimized plan with tracing for the bundle.
                    let traced = run_plan(&out.minimized, host, true);
                    let bundle = ReplayBundle {
                        plan: out.minimized,
                        host,
                        trace_json: traced.trace_json,
                    };
                    let dir = &args.bundle_dir;
                    let path = format!(
                        "{dir}/chaos-{}-{}-{}.bundle",
                        args.preset,
                        host.name(),
                        seed
                    );
                    if let Err(e) = std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, bundle.to_text()))
                    {
                        eprintln!("  could not write bundle {path}: {e}");
                    } else {
                        println!("  replay bundle: {path}");
                    }
                }
                None => println!("  shrink could not reproduce the failure (flaky oracle?)"),
            }
        }
    }

    if failures > 0 {
        println!("{failures} failing run(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
