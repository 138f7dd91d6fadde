#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! Deterministic structured-event tracing and runtime telemetry for the
//! CAM overlays.
//!
//! The paper's resilience story (§2, §5) is about *why* a multicast stalls
//! or recovers — which subtree a crashed CAM-Chord internal node took down,
//! which flooding edge routed around it. End-of-run scalars cannot answer
//! that; per-event visibility can. This crate provides it without
//! compromising the workspace's determinism guarantees:
//!
//! * [`Tracer`] — the recording interface. Every method has a no-op
//!   default, so the zero-sized [`NopTracer`] costs one predictable branch
//!   per hook site and nothing else.
//! * [`RecordingTracer`] — a bounded ring buffer of [`TraceEvent`]s plus a
//!   [`TelemetryRegistry`] of counters / gauges / histograms. When the ring
//!   is full the *oldest* event is evicted (and counted in
//!   [`RecordingTracer::dropped`]), so memory stays bounded on arbitrarily
//!   long runs while the most recent — usually most interesting — window
//!   survives.
//! * [`EventKind`] — the typed taxonomy of load-bearing protocol moments:
//!   multicast forward / receive / duplicate-suppress, region split,
//!   neighbor resolve / miss, stabilization rounds, retransmit / backoff,
//!   join handshakes, crash / leave / restart, oracle violations and
//!   adversary acts and detections.
//! * [`export`] — Chrome Trace Event Format JSON (open it in
//!   `chrome://tracing` or Perfetto) and a compact text report.
//! * [`Histogram`] / [`Summary`] — the workspace's measurement primitives.
//! * [`DeliveryCensus`] — the one shared delivery-ratio implementation
//!   used by both the simulator's `DynamicNetwork` and the net `Cluster`.
//!
//! # Clock domains
//!
//! The tracer never reads a clock. Callers stamp every event with
//! microseconds from *their* clock domain: the simulator passes its
//! virtual `SimTime`, the net runtime passes its wire clock (micros since
//! cluster start). No `Instant` / `SystemTime` appears anywhere in this
//! crate — it is under the same determinism lints (`crates/clippy.toml`)
//! as the protocol crates it serves.
//!
//! # Example
//!
//! ```
//! use cam_trace::{EventKind, RecordingTracer, Tracer};
//!
//! let mut t = RecordingTracer::with_capacity(128);
//! t.record(10, 3, EventKind::MulticastReceive { payload: 7, hops: 2, group: None });
//! t.record(15, 3, EventKind::DuplicateSuppress { payload: 7, hops: 4, group: None });
//! t.counter_add("frames_decoded", 2);
//! assert_eq!(t.len(), 2);
//! assert_eq!(t.count("duplicate_suppress"), 1);
//! assert!(t.chrome_trace_json().contains("\"traceEvents\""));
//! ```

pub mod census;
pub mod event;
pub mod export;
pub mod histogram;
pub mod registry;
pub mod tracer;

pub use census::{DeliveryCensus, GroupDeliveryCensus};
pub use event::{EventKind, GroupId, TraceEvent};
pub use histogram::{Histogram, Summary};
pub use registry::TelemetryRegistry;
pub use tracer::{NopTracer, RecordingTracer, Tracer};
