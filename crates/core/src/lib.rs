#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! CAM-Chord and CAM-Koorde: resilient capacity-aware multicast.
//!
//! This crate is the reproduction of the primary contribution of
//! *Zhang, Chen, Ling, Chow — "Resilient Capacity-Aware Multicast Based on
//! Overlay Networks" (ICDCS 2005)*: two structured-overlay multicast
//! systems in which each node's number of multicast children is bounded by
//! its declared **capacity** `c_x` (roughly proportional to upload
//! bandwidth: the paper's `c_x = ⌊B_x / p⌋`, which
//! `cam_workload::CapacityAssignment::PerLink` assigns), so that slow nodes
//! are never overloaded and fast nodes are never under-used.
//!
//! * [`cam_chord`] — extends Chord: node `x` keeps `O(c_x · log n / log c_x)`
//!   neighbors at identifiers `(x + j·c_x^i) mod N`, and the recursive
//!   `MULTICAST` routine splits the responsibility region `(x, k]` among up
//!   to `c_x` children as evenly as possible, embedding an implicit,
//!   roughly balanced multicast tree per source.
//! * [`cam_koorde`] — extends Koorde: node `x` keeps exactly `c_x`
//!   neighbors derived by *right*-shifting `x` and replacing high-order
//!   bits (three neighbor groups), which spreads neighbors evenly around
//!   the ring; multicast is constrained flooding with duplicate
//!   suppression.
//! * [`tree_building`] — the Section 5.1 *tree-building* alternative (one
//!   shared, capacity-bounded tree per group on a global overlay), built
//!   to quantify the forwarding-load comparison the paper argues from.
//!
//! Both systems implement [`cam_overlay::StaticOverlay`] for the
//! 100,000-node experiments and [`cam_overlay::dynamic::DhtProtocol`] for
//! live churn simulations.
//!
//! # Quickstart
//!
//! ```
//! use cam_core::cam_chord::CamChord;
//! use cam_overlay::{Member, MemberSet, StaticOverlay};
//! use cam_ring::{Id, IdSpace};
//!
//! // The paper's Figure 2 group: 8 nodes on a 32-identifier ring, c = 3.
//! let space = IdSpace::new(5);
//! let members: Vec<Member> = [0u64, 4, 8, 13, 18, 21, 26, 29]
//!     .iter()
//!     .map(|&v| Member::with_capacity(Id(v), 3))
//!     .collect();
//! let overlay = CamChord::new(MemberSet::new(space, members)?);
//!
//! // Multicast from node 0 reaches every member exactly once...
//! let tree = overlay.multicast_tree(0);
//! assert!(tree.is_complete());
//! // ...and no node exceeds its capacity.
//! tree.check_invariants(overlay.members()).unwrap();
//! # Ok::<(), cam_overlay::peer::BuildMemberSetError>(())
//! ```

pub mod cam_chord;
pub mod cam_koorde;
pub mod theory;
pub mod tree_building;

pub use cam_chord::CamChord;
pub use cam_koorde::CamKoorde;
pub use tree_building::SharedTree;
