//! Dynamic-membership DHT nodes on the discrete-event simulator.
//!
//! The static overlays answer the paper's performance questions at
//! 100,000-node scale; this module answers the *resilience* questions: what
//! happens while members join, leave, and crash. A [`DhtActor`] is a live
//! node holding its own routing state, kept fresh by Chord-style periodic
//! stabilization (the paper reuses Chord's maintenance protocols for all
//! four systems, §3.3/§4.2). Protocols plug in through [`DhtProtocol`],
//! which supplies the two protocol-specific ingredients:
//!
//! * which *identifier targets* a node of a given capacity tracks as
//!   neighbors, and
//! * the greedy next-hop choice given the node's current neighbor table.
//!
//! Multicast over the live overlay is CAM-Koorde-style constrained flooding
//! (forward to all resolved neighbors, duplicate-suppressed) or CAM-Chord
//! region splitting, chosen by the protocol's
//! [`DhtProtocol::multicast_children`] implementation.
//!
//! The module is split along the protocol's seams; every public item is
//! re-exported here, so callers keep writing `dynamic::DhtActor`:
//!
//! * `msg` — [`DhtMsg`], the wire enum, and [`group_root_id`];
//! * `actor` — [`DhtProtocol`], the [`DhtActor`] state, lookup routing and
//!   the message and timer dispatch (its `Actor` impl, driven by every
//!   host through a `cam_sim::engine::Context`);
//! * `maintenance` — stabilization, finger fixing, liveness probes, joins;
//! * `multicast` — payload forwarding, group membership, anti-entropy;
//! * `detect` — the honest-node defenses and the adversary's hook points;
//! * [`host`] — the rules every host of an actor table shares (origin
//!   messages, censuses, bootstrap choice, the maintenance schedule);
//! * `network` — [`DynamicNetwork`], the simulator host.

mod actor;
mod detect;
pub mod host;
mod maintenance;
mod msg;
mod multicast;
mod network;

pub use actor::{DhtActor, DhtProtocol};
pub use host::converged_actors;
pub use msg::{group_root_id, DhtMsg};
pub use network::DynamicNetwork;

/// Number of successors each node tracks for ring resilience. Chord
/// recommends O(log n); 8 keeps the probability of a full-list wipeout
/// negligible up to ~30% simultaneous crashes (0.3^8 ≈ 7·10⁻⁵).
pub const SUCCESSOR_LIST_LEN: usize = 8;
