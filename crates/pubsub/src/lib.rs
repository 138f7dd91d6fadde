#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! cam-pubsub: multi-group publish/subscribe with global capacity
//! accounting.
//!
//! The paper's MULTICAST bounds a node's children by its capacity `c_x`
//! *within one group*. A real deployment hosts many groups on the same
//! overlay, and the resource the bound protects — the node's uplink — is
//! shared by all of them. This crate adds the service layer that makes
//! the bound global:
//!
//! * [`CapacityLedger`] — per-node aggregate child counts across every
//!   live group, so a tree build for one group spends only the
//!   *residual* capacity the other groups left behind;
//! * [`GroupRegistry`] — create/subscribe/unsubscribe/publish with
//!   admission control ([`Admission::Rejected`] naming the first
//!   forwarder, in walk order, with no capacity left,
//!   [`Admission::AdmittedDegraded`] when the tree fits but only on
//!   residual capacity) and deterministic rebalancing when capacity
//!   frees up.
//!
//! Each group's tree is the paper's implicit capacity-aware tree over
//! the sub-[`MemberSet`](cam_overlay::MemberSet) of its subscribers,
//! built by [`cam_core::cam_chord::multicast::multicast_into_capped`]
//! with per-node caps from the ledger; per-group delivery is observed
//! through [`cam_trace::GroupDeliveryCensus`].
//!
//! The wire counterpart (DhtMsg `GroupPublish` on the dynamic overlay
//! and cam-net clusters) shares the ring and neighbor tables and checks
//! *delivery*: a node delivers a publish iff its own subscription filter
//! (`DhtActor::subscribe`) holds the group. This crate owns the
//! *membership* and the *accounting* story. The chaos `cross_group_capacity` oracle
//! checks [`CapacityLedger::verify`] at every quiescent point.
//!
//! # Quickstart
//!
//! ```
//! use cam_overlay::{Member, MemberSet};
//! use cam_pubsub::GroupRegistry;
//! use cam_ring::{Id, IdSpace};
//! use cam_trace::GroupDeliveryCensus;
//!
//! let space = IdSpace::new(10);
//! let members: Vec<Member> = (0..64u64)
//!     .map(|i| Member::with_capacity(Id(i * 16), 4))
//!     .collect();
//! let mut reg = GroupRegistry::new(MemberSet::new(space, members)?);
//!
//! // Two groups share the same 64 nodes — and the same capacity pool.
//! // Disjoint subscriber sets, so both admit at full capacity.
//! reg.create_group(1)?;
//! reg.create_group(2)?;
//! for node in 0..64 {
//!     let g = 1 + (node as u64 % 2);
//!     assert!(reg.subscribe(g, node)?.is_admitted());
//! }
//! let mut census = GroupDeliveryCensus::new();
//! reg.publish_census(1, &mut census)?;
//! reg.publish_census(2, &mut census)?;
//! assert_eq!(census.ratios(), vec![1.0, 1.0]);
//! assert!(reg.ledger().verify().is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ledger;
pub mod registry;

pub use cam_trace::GroupId;
pub use ledger::{CapacityLedger, Overcommit};
pub use registry::{Admission, GroupRegistry, PubSubError, PublishStats};
