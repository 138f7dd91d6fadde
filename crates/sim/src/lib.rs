#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! A deterministic discrete-event simulator for overlay networks.
//!
//! The paper evaluates CAM-Chord and CAM-Koorde purely in simulation; this
//! crate is the substrate that plays the role of the authors' (unreleased)
//! simulator. It provides:
//!
//! * [`engine`] — a message-passing actor engine with a virtual clock,
//!   per-message network latency, timers, and failure injection (killing an
//!   actor silently drops traffic to it, like UDP to a crashed host);
//! * [`queue`] — the engine's monotone radix event queue;
//! * [`time`] — virtual time ([`SimTime`]) and durations;
//! * [`latency`] — pluggable latency models (constant, uniform jitter, and a
//!   synthetic planar-coordinate model standing in for Internet topologies);
//! * [`bandwidth`] — a packet-level streaming simulation used to *validate*
//!   the analytic throughput model (`min_x B_x / d_x`) the experiments use;
//! * [`rng`] — seedable, splittable deterministic randomness so that every
//!   simulation run is exactly reproducible.
//!
//! Determinism: given the same seed and the same sequence of API calls, the
//! engine delivers events in an identical order (ties on the virtual clock
//! are broken by a monotonically increasing sequence number).
//!
//! # Example
//!
//! ```
//! use cam_sim::engine::{Actor, ActorId, Context, Simulation};
//! use cam_sim::latency::LatencyModel;
//! use cam_sim::time::Duration;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u32;
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ActorId, msg: u32) {
//!         if msg > 0 {
//!             ctx.send(from, msg - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(7, LatencyModel::Constant(Duration::from_millis(10)));
//! let a = sim.add_actor(Echo);
//! let b = sim.add_actor(Echo);
//! sim.post(a, b, 5); // a sends 5 to b; they ping-pong until 0
//! sim.run_to_completion();
//! assert_eq!(sim.stats().delivered, 6);
//! ```

pub mod bandwidth;
pub mod engine;
pub mod latency;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{Actor, ActorId, Context, Simulation};
pub use latency::LatencyModel;
pub use time::{Duration, SimTime};
