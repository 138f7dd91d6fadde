#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! Workload and scenario generation for the CAM experiments.
//!
//! The paper's evaluation (Section 6) fixes an identifier space of `2^19`,
//! a default group size of 100,000, node capacities uniform in `[4..10]`,
//! and upload bandwidths uniform in `[400..1000]` kbps, with
//! `c_x = ⌊B_x/p⌋` tying capacity to bandwidth through the per-link target
//! `p`. [`Scenario`] captures one such configuration; [`Scenario::members`]
//! deterministically generates the group for a seed.
//!
//! [`churn`] generates Poisson join/leave traces for the dynamic
//! (resilience) experiments; [`multigroup`] generates deterministic
//! multi-group pub/sub operation sequences (Zipf popularity, flash
//! crowds, hotspots, subscription churn).

pub mod churn;
pub mod multigroup;
pub mod scenario;

pub use churn::{ChurnEvent, ChurnKind, ChurnTrace};
pub use multigroup::{GroupOp, MultiGroupScenario};
pub use scenario::{BandwidthDist, CapacityAssignment, Scenario};
