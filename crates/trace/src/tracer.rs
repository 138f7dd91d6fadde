//! The [`Tracer`] trait and its two implementations.

use std::collections::VecDeque;

use crate::event::{EventKind, TraceEvent};
use crate::export;
use crate::registry::TelemetryRegistry;

/// The recording interface threaded through the sim engine, `DhtActor`,
/// and the net runtime.
///
/// Every method has a no-op default so [`NopTracer`] — the default
/// everywhere — compiles to an empty virtual call, and hook sites that
/// would do real work to *build* an event can gate on
/// [`Tracer::enabled`] first.
///
/// The tracer never reads a clock: callers pass `at_micros` from their own
/// clock domain (virtual sim time, or the runtime's wire clock).
pub trait Tracer {
    /// True when events are actually being kept; lets hot paths skip
    /// event construction entirely when tracing is off.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event at `at_micros` (caller's clock domain) at actor
    /// `actor` (ring slot index).
    fn record(&mut self, at_micros: u64, actor: u64, kind: EventKind) {
        let _ = (at_micros, actor, kind);
    }

    /// Adds `delta` to a named monotonic counter.
    fn counter_add(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets a named gauge (last write wins).
    fn gauge_set(&mut self, name: &'static str, value: i64) {
        let _ = (name, value);
    }

    /// Records `value` into a named histogram.
    fn observe(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Downcast hook: the recording tracer returns itself so hosts that
    /// own a `Box<dyn Tracer>` can hand the recorded data back for export
    /// without `Any` machinery.
    fn as_recording(&self) -> Option<&RecordingTracer> {
        None
    }
}

/// The zero-overhead default: keeps nothing, reports `enabled() == false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopTracer;

impl Tracer for NopTracer {}

/// A bounded ring buffer of [`TraceEvent`]s plus a [`TelemetryRegistry`].
///
/// When the buffer is full the *oldest* event is evicted and counted in
/// [`RecordingTracer::dropped`], so memory stays bounded on arbitrarily
/// long runs while the most recent window — where a stall or recovery is
/// usually visible — survives. Events carry a monotonic sequence number
/// that keeps counting across evictions, so a reader can tell exactly how
/// much history scrolled away.
///
/// # Example
///
/// ```
/// use cam_trace::{EventKind, RecordingTracer, Tracer};
///
/// let mut t = RecordingTracer::with_capacity(2);
/// t.record(1, 0, EventKind::Crash);
/// t.record(2, 1, EventKind::Leave);
/// t.record(3, 2, EventKind::Crash); // evicts the first event
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.dropped(), 1);
/// assert_eq!(t.events().next().unwrap().at_micros, 2);
/// ```
#[derive(Debug, Clone)]
pub struct RecordingTracer {
    cap: usize,
    ring: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
    registry: TelemetryRegistry,
}

impl RecordingTracer {
    /// Default ring capacity: enough for the full event stream of the
    /// 32-node loss-injection cluster runs with plenty of headroom.
    pub const DEFAULT_CAPACITY: usize = 1 << 17;

    /// A tracer with [`RecordingTracer::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        RecordingTracer::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A tracer keeping at most `cap` events (clamped to ≥ 1).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        RecordingTracer {
            cap,
            ring: VecDeque::with_capacity(cap),
            next_seq: 0,
            dropped: 0,
            registry: TelemetryRegistry::new(),
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no event is held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of held events whose kind name equals `name`
    /// (see [`EventKind::name`]).
    pub fn count(&self, name: &str) -> usize {
        self.ring.iter().filter(|e| e.kind.name() == name).count()
    }

    /// The telemetry registry.
    pub fn registry(&self) -> &TelemetryRegistry {
        &self.registry
    }

    /// Serializes the held events as Chrome Trace Event Format JSON
    /// (open in `chrome://tracing` or Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(self)
    }

    /// A compact, deterministic plain-text report: event counts by kind,
    /// registry contents, and drop statistics.
    pub fn text_report(&self) -> String {
        export::text_report(self)
    }
}

impl Default for RecordingTracer {
    fn default() -> Self {
        RecordingTracer::new()
    }
}

impl Tracer for RecordingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at_micros: u64, actor: u64, kind: EventKind) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push_back(TraceEvent {
            at_micros,
            actor,
            seq,
            kind,
        });
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    fn gauge_set(&mut self, name: &'static str, value: i64) {
        self.registry.gauge_set(name, value);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.registry.observe(name, value);
    }

    fn as_recording(&self) -> Option<&RecordingTracer> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_tracer_is_disabled_and_silent() {
        let mut t = NopTracer;
        assert!(!t.enabled());
        t.record(1, 2, EventKind::Crash);
        t.counter_add("x", 1);
        assert!(t.as_recording().is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = RecordingTracer::with_capacity(3);
        for i in 0..10u64 {
            t.record(i, 0, EventKind::Leave);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let times: Vec<u64> = t.events().map(|e| e.at_micros).collect();
        assert_eq!(times, vec![7, 8, 9]);
        // Sequence numbers keep counting across evictions.
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut t = RecordingTracer::with_capacity(0);
        assert_eq!(t.capacity(), 1);
        t.record(1, 0, EventKind::Crash);
        t.record(2, 0, EventKind::Leave);
        assert_eq!(t.len(), 1);
        assert_eq!(t.events().next().unwrap().kind.name(), "leave");
    }

    #[test]
    fn count_filters_by_kind_name() {
        let mut t = RecordingTracer::new();
        t.record(1, 0, EventKind::Crash);
        t.record(2, 0, EventKind::Crash);
        t.record(3, 0, EventKind::Leave);
        assert_eq!(t.count("crash"), 2);
        assert_eq!(t.count("leave"), 1);
        assert_eq!(t.count("retransmit"), 0);
    }

    #[test]
    fn dyn_dispatch_round_trips_through_as_recording() {
        let mut boxed: Box<dyn Tracer> = Box::new(RecordingTracer::new());
        boxed.record(5, 7, EventKind::JoinRequest { joiner: 42 });
        boxed.counter_add("joins", 1);
        let rec = boxed.as_recording().expect("recording tracer");
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.registry().counter("joins"), 1);
    }
}
