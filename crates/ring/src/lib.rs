#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![deny(missing_docs)]

//! Identifier-ring arithmetic for capacity-aware multicast overlays.
//!
//! Every overlay in this workspace (Chord, Koorde, CAM-Chord, CAM-Koorde)
//! operates on a circular identifier space `[0, N)` with `N = 2^b`. Members
//! are mapped onto the ring by hashing; routing and multicast are defined in
//! terms of clockwise *segments* `(x, k]` of the ring and of distances
//! between identifiers.
//!
//! This crate provides:
//!
//! * [`IdSpace`] — the ring itself (modular add/sub, segment sizes,
//!   distances, successor-oriented helpers);
//! * [`Id`] — a newtype identifier, always interpreted relative to an
//!   [`IdSpace`];
//! * [`Segment`] — the paper's half-open clockwise segment `(from, to]`;
//! * [`math`] — integer base-`c` logarithms and saturating powers used by
//!   CAM-Chord's neighbor/level computations;
//! * [`sha1`] — a from-scratch SHA-1 implementation used to map member
//!   names/addresses onto the ring (the paper specifies SHA-1);
//! * [`IdMap`] / [`IdSet`] — `HashMap` / `HashSet` over [`IdBuild`], the
//!   keyed integer hasher every id-keyed table in the workspace uses.
//!
//! # Example
//!
//! ```
//! use cam_ring::{Id, IdSpace};
//!
//! let space = IdSpace::new(19); // the paper's identifier space [0, 2^19)
//! let x = Id(12);
//! let k = space.add(x, 25);
//! // the clockwise segment (x, k] has 25 identifiers
//! assert_eq!(space.seg_len(x, k), 25);
//! assert!(space.in_segment(space.add(x, 1), x, k));
//! assert!(!space.in_segment(x, x, k));
//! ```

pub mod math;
pub mod segment;
pub mod sha1;

mod hash;
mod id;

pub use hash::{IdBuild, IdHasher, IdMap, IdSet};
pub use id::{Id, IdSpace};
pub use segment::Segment;
