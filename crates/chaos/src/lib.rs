//! cam-chaos: deterministic simulation testing for the CAM overlays.
//!
//! One seed derives an entire fault schedule — crashes, restarts,
//! asymmetric partitions, loss bursts, frame duplication, churn storms —
//! interleaved with multicast workload ([`plan`]). The harness ([`harness`])
//! replays that schedule against either host (the in-memory wire runtime
//! from cam-net, or the pure event simulation from cam-sim) and checks a
//! catalog of invariant oracles ([`oracle`]) at quiescent points and at the
//! end of the run. When an oracle fires, the failing schedule is shrunk to
//! a minimal prefix that still reproduces the violation bit-identically
//! ([`shrink`]) and packaged as a self-contained replay bundle ([`bundle`]).
//!
//! Everything here is a pure function of the [`plan::FaultPlan`]: no wall
//! clock, no ambient randomness, no iteration-order dependence. Running the
//! same plan twice produces the same [`harness::ChaosReport`], fingerprint
//! included — that property is what makes shrinking and replay trustworthy,
//! and it is enforced by the determinism lints (`crates/clippy.toml`).

#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod bundle;
pub mod harness;
pub mod oracle;
pub mod plan;
pub mod report;
pub mod shrink;

pub use bundle::ReplayBundle;
pub use harness::{run_plan, ChaosReport, HostKind};
pub use oracle::{NodeSnapshot, Violation};
pub use plan::{AdversarySpec, FaultEvent, FaultKind, FaultPlan, ProtocolChoice};
pub use report::{robustness_report, RobustnessRow};
pub use shrink::{shrink_plan, ShrinkOutcome};
