//! CAM-Chord: the capacity-aware Chord extension (paper, Section 3).
//!
//! A CAM-Chord node `x` with capacity `c_x` tracks neighbors responsible
//! for the identifiers `(x + j·c_x^i) mod N` for `j ∈ [1..c_x−1]` and all
//! levels `i` with `c_x^i < N` — `O(c_x · log n / log c_x)` neighbors in
//! total. Lookups make greedy base-`c_x` progress (expected
//! `O(log n / log c)` hops, Theorems 1–2); the multicast routine splits a
//! node's responsibility region among up to `c_x` children as evenly as
//! possible (Theorems 3–4), so the implicit tree is roughly balanced and
//! never exceeds any node's capacity.
//!
//! Modules:
//!
//! * [`neighbors`] — neighbor-identifier arithmetic (levels, sequences)
//!   and the distinct-neighbor count;
//! * [`lookup`] — the `LOOKUP` routine of §3.2, generic over the per-hop
//!   base (the Chord baseline runs it, and the neighbor rule, at a fixed
//!   base `k`);
//! * [`multicast`] — the `MULTICAST` child-selection of §3.4 (with the
//!   `ceil`/`floor` interpretation switch, see `ChildSelection`);
//! * [`overlay`] — [`CamChord`], the resolved overlay implementing
//!   [`cam_overlay::StaticOverlay`];
//! * [`protocol`] — [`CamChordProtocol`], the plug-in for live
//!   dynamic-membership simulation;
//! * [`proximity`] — [`ProximityCamChord`], the §5.2 least-delay-first
//!   neighbor selection variant.

pub mod lookup;
pub mod multicast;
pub mod neighbors;
pub mod overlay;
pub mod protocol;
pub mod proximity;

pub use multicast::ChildSelection;
pub use overlay::CamChord;
pub use protocol::CamChordProtocol;
pub use proximity::ProximityCamChord;
