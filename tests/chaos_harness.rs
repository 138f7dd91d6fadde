//! End-to-end exercises of the cam-chaos harness: seeded fault plans
//! pass the full oracle catalog on both hosts, a forced violation
//! shrinks to a minimal plan that reproduces bit-identically from its
//! replay bundle, and the same plan drives the wire runtime and the pure
//! simulator to the same delivery census.

use cam::chaos::{run_plan, shrink_plan, FaultPlan, HostKind, ReplayBundle};

#[test]
fn small_preset_seeds_pass_all_oracles_on_net() {
    for seed in 1..=3 {
        let plan = FaultPlan::small(seed);
        let report = run_plan(&plan, HostKind::Net, false);
        assert!(
            report.passed(),
            "seed {seed}: {:?}",
            report.violations.first()
        );
    }
}

#[test]
fn default_preset_seed_passes_on_both_hosts() {
    let plan = FaultPlan::default_plan(1);
    for host in [HostKind::Net, HostKind::Sim] {
        let report = run_plan(&plan, host, false);
        assert!(
            report.passed(),
            "host {}: {:?}",
            host.name(),
            report.violations.first()
        );
    }
}

/// The oracle-parity satellite: a fault plan whose faults cannot change
/// the delivered-payload sets (duplication only — no loss, no partitions
/// outlasting the heal) must produce the exact same per-payload census
/// over the wire runtime as over the pure simulator, bit for bit.
#[test]
fn census_parity_between_net_and_sim() {
    for seed in [1, 2] {
        let plan = FaultPlan::small(seed);
        let net = run_plan(&plan, HostKind::Net, false);
        let sim = run_plan(&plan, HostKind::Sim, false);
        assert!(
            net.passed(),
            "net seed {seed}: {:?}",
            net.violations.first()
        );
        assert!(
            sim.passed(),
            "sim seed {seed}: {:?}",
            sim.violations.first()
        );
        assert_eq!(
            net.census, sim.census,
            "seed {seed}: delivery census diverged between hosts"
        );
        assert_eq!(net.final_payload, sim.final_payload);
    }
}

/// Forces a violation (a settle window far too short for convergence),
/// shrinks it, and proves the whole failure-capture pipeline: the
/// minimized plan still fails, reproduces bit-identically, survives a
/// bundle round-trip, and replays from the parsed bundle to the exact
/// same fingerprint and violations.
#[test]
fn forced_violation_shrinks_and_replays_bit_identically() {
    let mut plan = FaultPlan::small(6);
    plan.settle_secs = 2;
    plan.final_wait_secs = 2;

    let report = run_plan(&plan, HostKind::Net, false);
    assert!(
        !report.passed(),
        "a 2s settle after churn should not converge"
    );

    let out = shrink_plan(&plan, |p| run_plan(p, HostKind::Net, false))
        .expect("failure reproduces during shrinking");
    assert!(out.bit_identical, "minimized failure must be deterministic");
    assert!(out.minimized.events.len() <= plan.events.len());
    assert!(!out.report.passed());

    let bundle = ReplayBundle {
        plan: out.minimized.clone(),
        host: HostKind::Net,
        trace_json: None,
    };
    let parsed = ReplayBundle::from_text(&bundle.to_text()).expect("bundle parses");
    assert_eq!(parsed.plan, out.minimized);
    assert_eq!(parsed.host, HostKind::Net);

    let replayed = run_plan(&parsed.plan, parsed.host, false);
    assert_eq!(replayed.fingerprint, out.report.fingerprint);
    assert_eq!(replayed.violations, out.report.violations);
}
