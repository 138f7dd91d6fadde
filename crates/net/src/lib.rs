#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
// Everything in this library runs under a hostile or lossy wire, so outside
// tests it may not panic a live node: return a typed error or count and
// drop (`WireCounters`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

//! Networking for the CAM overlays: a versioned wire codec, pluggable
//! transports, and a sans-I/O reactor core that takes the *same*
//! `DhtActor` the simulator drives and runs it over a real (or
//! realistically faulty) wire.
//!
//! The crate is layered bottom-up:
//!
//! * [`codec`] — a length-prefixed, versioned binary frame format for
//!   `DhtMsg`, with strict rejection of malformed input and a
//!   buffer-reusing [`codec::encode_frame_into`] for the pooled hot
//!   path.
//! * [`transport`] — the [`transport::Transport`] trait (batched
//!   send/recv, readiness waits, backpressure flushing) plus
//!   [`transport::InMemoryTransport`], a deterministic in-process wire
//!   with injectable loss and the simulator's latency models.
//! * [`mux`] — [`mux::MuxUdpTransport`], the real-socket transport:
//!   hundreds of nodes multiplexed onto *one* non-blocking UDP socket,
//!   each send batch packed into one datagram per route as
//!   `[dest][len][frame]` records, queue-and-retry send backpressure,
//!   readiness waits, and endpoints routable to another process's socket.
//! * [`reactor`] — [`reactor::ReactorCore`], the pure poll-style
//!   protocol state machine: `handle_frame(now, ..)` / `poll(now, ..)`
//!   / `next_wake()`, with every I/O effect emitted through a
//!   [`reactor::FrameSink`]. Sim, chaos, and net all drive this one
//!   core; nothing in it sleeps, reads a clock, or touches a socket.
//! * [`runtime`] — [`runtime::Cluster`], the thin wire loop around the
//!   core: batched recv draining, deadline-computed sleeps (wake exactly
//!   at `min(next timer, next RTO, socket readable)`), and scheduler
//!   accounting in [`runtime::LoopStats`].
//!
//! The `cam-node` binary (in `src/bin/`) stands up an N-node loopback
//! UDP cluster and runs a real multicast through it.

#![warn(missing_docs)]

pub mod codec;
pub mod mux;
pub mod reactor;
pub mod runtime;
pub mod transport;

pub use codec::{
    decode_frame, encode_frame, encode_frame_into, wire_cost, Frame, WireError, MAX_FRAME,
    WIRE_VERSION,
};
pub use mux::MuxUdpTransport;
pub use reactor::{FrameSink, ReactorCore};
pub use runtime::{Cluster, LoopStats, NodeRuntime, RetransmitPolicy};
pub use transport::{InMemoryTransport, OutFrame, Transport, WireCounters};
