//! Randomized torture test: an arbitrary interleaving of crashes, joins,
//! and multicasts must always leave the overlay able to self-heal back to
//! complete delivery once churn stops.
//!
//! Since the cam-chaos harness landed, torture is a *preset* of the
//! seeded fault-plan generator rather than ad-hoc RNG driving: the same
//! pinned seeds now run the full oracle catalog (delivery, duplicate
//! suppression, ring convergence, neighbor-table ideal, cleanup) at the
//! quiescent point, and a failure here shrinks and replays through
//! `cam-chaos --replay` instead of bisecting by hand.

use cam::chaos::{run_plan, FaultPlan, HostKind};

/// Runs `plan` on the simulator host and checks its outcome, then its
/// fingerprint (the FNV-1a fold of every observable end state,
/// `ChaosReport::fingerprint`). The pinned value holds the simulator to one
/// delivery order: a change that reorders events, even harmlessly for the
/// oracles, fails by name.
fn check(plan: &FaultPlan, fingerprint: u64) {
    let name = format!("{} seed {}", plan.preset, plan.seed);
    let report = run_plan(plan, HostKind::Sim, false);
    assert!(
        report.passed(),
        "{name}: {} oracle violation(s), first: {:?}",
        report.violations.len(),
        report.violations.first()
    );
    // The quiescent-point multicast must have reached every live member.
    let (payload, live, delivered) = *report.census.last().expect("final multicast ran");
    assert_eq!(
        delivered, live,
        "{name}: payload {payload} delivered to {delivered}/{live}"
    );
    assert_eq!(
        report.fingerprint, fingerprint,
        "{name}: fingerprint {:016x}, pinned {fingerprint:016x}",
        report.fingerprint
    );
}

fn torture(seed: u64, fingerprint: u64) {
    check(&FaultPlan::torture(seed), fingerprint);
}

#[test]
fn torture_seed_1() {
    torture(1, 0xfda8_56c4_2055_c154);
}

#[test]
fn torture_seed_2() {
    torture(2, 0x155b_764f_7ec2_d3d1);
}

#[test]
fn torture_seed_3() {
    torture(3, 0x4803_69c1_672d_eda7);
}

#[test]
fn torture_seed_4() {
    torture(4, 0x34cd_1ce6_6b74_0a2b);
}

/// The colossal preset: a 100,000-node converged network with a couple of
/// crashes and multicasts — the scale stressor for the shared `O(n)`
/// directory, struct-of-arrays membership, and the simulator's event queue.
///
/// `#[ignore]`d because it needs release-mode optimization to finish in
/// reasonable time; CI runs it explicitly with
/// `cargo test --release --test torture -- --ignored colossal`.
#[test]
#[ignore = "release-mode scale run; see the chaos-colossal CI step"]
fn colossal_seed_1() {
    let plan = FaultPlan::colossal(1);
    assert_eq!(plan.nodes, 100_000);
    check(&plan, 0x32ba_fa75_c912_38ad);
}
