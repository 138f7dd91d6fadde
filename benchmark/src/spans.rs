//! Benchmark-side spans around every call into a layer.
//!
//! A span is `(name, start, end, parent, op)`. Spans are kept in memory and
//! written once, at exit, as Chrome Trace Event JSON (the format cam-trace
//! exports). Every span also feeds a per-name aggregate — calls, total
//! time, self time (duration minus the part child spans cover) — which is
//! what the per-layer timing metrics are computed from. Individual spans
//! are kept up to a cap so the file stays loadable; the aggregates cover
//! every call regardless, and both land in the file.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Individual spans kept per traced pass. Beyond it spans still count in
/// the aggregates and in `trace.spans_dropped`.
const SPAN_CAP: usize = 250_000;

/// Declares [`Name`] and the label each variant is written to the span
/// file under, side by side so the two cannot drift apart.
macro_rules! span_names {
    ($($variant:ident => $label:literal,)+) => {
        /// The calls the benchmark wraps in spans, one variant per layer
        /// entry point it times from outside.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Name {
            $($variant,)+
        }

        const LABELS: &[&str] = &[$($label,)+];
    };
}

span_names! {
    Op => "op",
    RingOwnerIdx => "ring.owner_idx",
    OverlayMembersetBuild => "overlay.memberset_build",
    OverlayTreeStats => "overlay.tree_stats",
    CoreChordTree => "core.chord_multicast_tree",
    CoreKoordeTree => "core.koorde_multicast_tree",
    CoreChordLookup => "core.chord_lookup",
    CoreKoordeLookup => "core.koorde_lookup",
    WorkloadScenarioMembers => "workload.scenario_members",
    WorkloadChurnGenerate => "workload.churn_generate",
    WorkloadSubscriptionChurn => "workload.subscription_churn",
    SimConvergedBuild => "sim.converged_build",
    SimRunUntil => "sim.run_until",
    SimNullActorRun => "sim.null_actor_run",
    ActorStartMulticast => "actor.start_multicast",
    ActorInjectJoin => "actor.inject_join",
    ActorRemoveMember => "actor.remove_member",
    ActorRetryStalledJoins => "actor.retry_stalled_joins",
    ReactorConvergedBuild => "reactor.converged_build",
    ReactorStartMulticast => "reactor.start_multicast",
    ReactorHandleFrame => "reactor.handle_frame",
    ReactorPoll => "reactor.poll",
    ReactorNextWake => "reactor.next_wake",
    RuntimeRunUntil => "runtime.run_until",
    TransportSendBatch => "transport.send_batch",
    TransportPoll => "transport.poll",
    TransportPollBatch => "transport.poll_batch",
    TransportWait => "transport.wait",
    TransportFlushBackpressure => "transport.flush_backpressure",
    CodecDecode => "codec.decode_frame",
    CodecEncode => "codec.encode_frame_into",
    PubsubSubscribe => "pubsub.subscribe",
    PubsubUnsubscribe => "pubsub.unsubscribe",
    PubsubPublish => "pubsub.publish_into",
    LedgerVerify => "ledger.verify",
    DriverCheck => "driver.completion_check",
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    op: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Per-name totals over every span, kept or dropped.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean duration of one call in nanoseconds; 0 when never called.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

#[derive(Debug)]
struct Open {
    name: u16,
    start_ns: u64,
    index: u32,
    child_ns: u64,
}

const NO_SPAN: u32 = u32::MAX;

/// The in-memory span store of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    aggregates: Vec<Aggregate>,
    spans: Vec<Span>,
    stack: Vec<Open>,
    op: u64,
    dropped: u64,
}

/// Shared handle: the wrapping transport lives inside the cluster while the
/// workload loop records its own spans into the same log.
pub type Log = Rc<RefCell<SpanLog>>;

impl SpanLog {
    pub fn shared() -> Log {
        Rc::new(RefCell::new(SpanLog {
            epoch: Instant::now(),
            aggregates: vec![Aggregate::default(); LABELS.len()],
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            dropped: 0,
        }))
    }

    /// Sets the operation id stamped on spans opened from now on (payload
    /// id, round number, op index).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: Name) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let index = if self.spans.len() < SPAN_CAP {
            let parent = self.stack.last().map_or(NO_SPAN, |o| o.index);
            self.spans.push(Span {
                name: name as u16,
                parent,
                op: self.op,
                start_ns,
                dur_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_SPAN
        };
        self.stack.push(Open {
            name: name as u16,
            start_ns,
            index,
            child_ns: 0,
        });
    }

    pub fn exit(&mut self) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = (self.epoch.elapsed().as_nanos() as u64).saturating_sub(open.start_ns);
        let agg = &mut self.aggregates[usize::from(open.name)];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(span) = self.spans.get_mut(open.index as usize) {
            span.dur_ns = dur;
        }
    }

    pub fn aggregate(&self, name: Name) -> Aggregate {
        self.aggregates[name as usize]
    }

    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome Trace Event JSON: one complete (`"ph":"X"`) event per kept
    /// span with its id, parent id and op in `args`, plus the per-name
    /// aggregates over all spans under `camBenchAggregates`.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 112);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":0,\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                LABELS[usize::from(s.name)],
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                i,
                if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) },
                s.op
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"camBenchWorkload\":\"{workload}\",\"camBenchSpansDropped\":{},\"camBenchAggregates\":{{",
            self.dropped
        );
        for (i, (name, a)) in LABELS.iter().zip(&self.aggregates).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.calls, a.total_ns, a.self_ns
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `f` inside a span when tracing is on; just runs it otherwise.
pub fn span<T>(log: Option<&Log>, name: Name, f: impl FnOnce() -> T) -> T {
    match log {
        None => f(),
        Some(log) => {
            log.borrow_mut().enter(name);
            let out = f();
            log.borrow_mut().exit();
            out
        }
    }
}
