#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # cam — Resilient Capacity-Aware Multicast on Structured Overlays
//!
//! A faithful, production-quality reproduction of *Zhang, Chen, Ling,
//! Chow: "Resilient Capacity-Aware Multicast Based on Overlay Networks"
//! (ICDCS 2005)*, as a Rust workspace. This facade crate re-exports every
//! sub-crate under one roof; the runnable examples and the cross-crate
//! integration tests live here.
//!
//! ## The systems
//!
//! * [`core::cam_chord::CamChord`] — CAM-Chord: Chord with
//!   capacity-dependent neighbor tables and a region-splitting multicast
//!   routine that embeds an implicit, balanced, degree-bounded tree per
//!   source.
//! * [`core::cam_koorde::CamKoorde`] — CAM-Koorde: a de Bruijn overlay
//!   whose `c_x` neighbors are spread evenly around the ring, with
//!   constrained-flooding multicast.
//! * [`chord::Chord`] / [`koorde::Koorde`] — the capacity-oblivious
//!   baselines the paper compares against.
//!
//! ## Quickstart
//!
//! ```
//! use cam::overlay::StaticOverlay;
//! use cam::prelude::*;
//!
//! // A 1,000-member group with the paper's default workload.
//! let group = Scenario::paper_default(42).with_n(1_000).members();
//! let overlay = CamChord::new(group);
//!
//! // Any member can multicast; the implicit tree reaches everyone exactly
//! // once and respects every node's capacity.
//! let tree = overlay.multicast_tree(0);
//! assert!(tree.is_complete());
//! tree.check_invariants(overlay.members()).unwrap();
//!
//! // Sustainable session throughput under the paper's model:
//! let kbps = tree.bottleneck_throughput_kbps(overlay.members());
//! assert!(kbps > 0.0);
//! ```
//!
//! See `examples/` for end-to-end scenarios (video streaming session,
//! dynamic membership with crash failures, capacity tuning) and the
//! `cam-experiments` crate for the figure-by-figure reproduction of the
//! paper's evaluation.

pub use cam_chaos as chaos;
pub use cam_core as core;
pub use cam_net as net;
pub use cam_overlay as overlay;
pub use cam_pubsub as pubsub;
pub use cam_ring as ring;
pub use cam_sim as sim;
pub use cam_trace as trace;
pub use cam_workload as workload;
pub use chord_overlay as chord;
pub use koorde_overlay as koorde;

/// The convenient flat imports most programs want.
pub mod prelude {
    pub use cam_core::cam_chord::{CamChord, CamChordProtocol, ChildSelection};
    pub use cam_core::cam_koorde::{CamKoorde, CamKoordeProtocol};
    pub use cam_overlay::{Member, MemberSet, MulticastTree, StaticOverlay, TreeStats};
    pub use cam_ring::{Id, IdSpace, Segment};
    pub use cam_workload::{BandwidthDist, CapacityAssignment, Scenario};
}
