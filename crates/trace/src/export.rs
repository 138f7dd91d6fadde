//! Exporters: Chrome Trace Event Format JSON and a compact text report.
//!
//! Both outputs are deterministic functions of the tracer's contents —
//! events in ring order, registry entries in name order — so two runs with
//! the same seed produce byte-identical artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};
use crate::tracer::RecordingTracer;

/// Serializes the tracer's events as Chrome Trace Event Format JSON.
///
/// Every event is an instant (`"ph":"i"`) with thread scope. `pid` is
/// always 0; `tid` is the actor index, so each actor gets its own track in
/// the viewer. Timestamps are already in microseconds, the format's native
/// unit.
pub fn chrome_trace_json(tracer: &RecordingTracer) -> String {
    let mut out = String::with_capacity(64 + tracer.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in tracer.events().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_event(&mut out, ev);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"");
    let _ = write!(out, ",\"camTraceDropped\":{}", tracer.dropped());
    out.push('}');
    out
}

fn push_event(out: &mut String, ev: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"",
        ev.kind.name(),
        ev.at_micros,
        ev.actor
    );
    out.push_str(",\"args\":{");
    let _ = write!(out, "\"seq\":{}", ev.seq);
    push_args(out, &ev.kind);
    out.push_str("}}");
}

fn push_args(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::MulticastForward {
            payload,
            to,
            hops,
            segment,
            group,
        } => {
            let _ = write!(out, ",\"payload\":{payload},\"to\":{to},\"hops\":{hops}");
            if let Some((lo, hi)) = segment {
                let _ = write!(out, ",\"segment_lo\":{lo},\"segment_hi\":{hi}");
            }
            if let Some(g) = group {
                let _ = write!(out, ",\"group\":{}", g.value());
            }
        }
        EventKind::MulticastReceive {
            payload,
            hops,
            group,
        }
        | EventKind::DuplicateSuppress {
            payload,
            hops,
            group,
        } => {
            let _ = write!(out, ",\"payload\":{payload},\"hops\":{hops}");
            if let Some(g) = group {
                let _ = write!(out, ",\"group\":{}", g.value());
            }
        }
        EventKind::RegionSplit { payload, children } => {
            let _ = write!(out, ",\"payload\":{payload},\"children\":{children}");
        }
        EventKind::NeighborResolve { target, neighbor } => {
            let _ = write!(out, ",\"target\":{target},\"neighbor\":{neighbor}");
        }
        EventKind::NeighborMiss { neighbor, strikes } => {
            let _ = write!(out, ",\"neighbor\":{neighbor},\"strikes\":{strikes}");
        }
        EventKind::StabilizeRound { successors } => {
            let _ = write!(out, ",\"successors\":{successors}");
        }
        EventKind::Retransmit {
            to,
            wire_seq,
            attempt,
            rto_micros,
        } => {
            let _ = write!(
                out,
                ",\"to\":{to},\"wire_seq\":{wire_seq},\"attempt\":{attempt},\"rto_micros\":{rto_micros}"
            );
        }
        EventKind::JoinRequest { joiner } | EventKind::JoinComplete { joiner } => {
            let _ = write!(out, ",\"joiner\":{joiner}");
        }
        EventKind::OracleViolation { oracle } => {
            let _ = write!(out, ",\"oracle\":\"{oracle}\"");
        }
        EventKind::AdversaryAct { behavior, payload } => {
            let _ = write!(out, ",\"behavior\":\"{behavior}\",\"payload\":{payload}");
        }
        EventKind::AdversaryDetect {
            detector,
            suspect,
            payload,
        } => {
            let _ = write!(
                out,
                ",\"detector\":\"{detector}\",\"suspect\":{suspect},\"payload\":{payload}"
            );
        }
        EventKind::Crash | EventKind::Leave | EventKind::Restart => {}
    }
}

/// Renders a compact, deterministic plain-text report: event counts by
/// kind, registry contents, and drop statistics.
pub fn text_report(tracer: &RecordingTracer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cam-trace report: {} events held (capacity {}, {} dropped)",
        tracer.len(),
        tracer.capacity(),
        tracer.dropped()
    );

    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Multicast traffic (forward/receive/suppress) attributed per pub/sub
    // group; the `None` key collects single-group (session-less) events.
    let mut by_group: BTreeMap<Option<u64>, u64> = BTreeMap::new();
    let mut span = (u64::MAX, 0u64);
    for ev in tracer.events() {
        *by_kind.entry(ev.kind.name()).or_insert(0) += 1;
        match &ev.kind {
            EventKind::MulticastForward { group, .. }
            | EventKind::MulticastReceive { group, .. }
            | EventKind::DuplicateSuppress { group, .. } => {
                *by_group.entry(group.map(|g| g.value())).or_insert(0) += 1;
            }
            _ => {}
        }
        span.0 = span.0.min(ev.at_micros);
        span.1 = span.1.max(ev.at_micros);
    }
    if !tracer.is_empty() {
        let _ = writeln!(out, "time span: {} us .. {} us", span.0, span.1);
    }
    if !by_kind.is_empty() {
        out.push_str("events by kind:\n");
        for (name, n) in &by_kind {
            let _ = writeln!(out, "  {name:<20} {n}");
        }
    }
    // Only worth a section when at least one event was group-attributed.
    if by_group.keys().any(Option::is_some) {
        out.push_str("multicast events by group:\n");
        for (group, n) in &by_group {
            match group {
                Some(g) => {
                    let _ = writeln!(out, "  group {g:<14} {n}");
                }
                None => {
                    let _ = writeln!(out, "  (ungrouped)      {n}");
                }
            }
        }
    }

    let reg = tracer.registry();
    if reg.counters().next().is_some() {
        out.push_str("counters:\n");
        for (name, v) in reg.counters() {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
    }
    if reg.gauges().next().is_some() {
        out.push_str("gauges:\n");
        for (name, v) in reg.gauges() {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
    }
    if reg.histograms().next().is_some() {
        out.push_str("histograms:\n");
        for (name, h) in reg.histograms() {
            let _ = writeln!(
                out,
                "  {name:<24} count={} mean={:.3} p50={} max={}",
                h.count(),
                h.mean(),
                if h.count() > 0 { h.percentile(50.0) } else { 0 },
                h.max()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn sample() -> RecordingTracer {
        let mut t = RecordingTracer::with_capacity(64);
        t.record(
            100,
            0,
            EventKind::MulticastForward {
                payload: 1,
                to: 9,
                hops: 1,
                segment: Some((10, 99)),
                group: None,
            },
        );
        t.record(
            150,
            9,
            EventKind::MulticastReceive {
                payload: 1,
                hops: 1,
                group: Some(crate::event::GroupId(42)),
            },
        );
        t.record(
            160,
            9,
            EventKind::DuplicateSuppress {
                payload: 1,
                hops: 3,
                group: None,
            },
        );
        t.record(
            200,
            2,
            EventKind::Retransmit {
                to: 5,
                wire_seq: 77,
                attempt: 2,
                rto_micros: 400_000,
            },
        );
        t.counter_add("frames_decoded", 12);
        t.gauge_set("live_nodes", 32);
        t.observe("hops", 1);
        t
    }

    #[test]
    fn chrome_json_has_expected_shape() {
        let json = sample().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"name\":\"multicast_forward\""));
        assert!(json.contains("\"segment_lo\":10"));
        assert!(json.contains("\"segment_hi\":99"));
        assert!(json.contains("\"name\":\"retransmit\""));
        assert!(json.contains("\"rto_micros\":400000"));
        // Every event is an instant with thread scope.
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 4);
        assert_eq!(json.matches("\"s\":\"t\"").count(), 4);
        assert!(json.contains("\"ph\":\"i\",\"ts\":150,\"pid\":0,\"tid\":9,\"s\":\"t\""));
        // Balanced braces and brackets — cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_json_of_empty_tracer_is_valid() {
        let t = RecordingTracer::with_capacity(4);
        let json = t.chrome_trace_json();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn text_report_lists_kinds_and_registry() {
        let report = sample().text_report();
        assert!(report.contains("4 events held"));
        assert!(report.contains("duplicate_suppress"));
        assert!(report.contains("frames_decoded"));
        assert!(report.contains("live_nodes"));
        assert!(report.contains("hops"));
        assert!(report.contains("time span: 100 us .. 200 us"));
    }

    #[test]
    fn group_attribution_reaches_both_exporters() {
        let json = sample().chrome_trace_json();
        assert!(json.contains("\"group\":42"));
        let report = sample().text_report();
        assert!(report.contains("multicast events by group:"));
        assert!(report.contains("group 42"));
        assert!(report.contains("(ungrouped)"));
    }

    #[test]
    fn ungrouped_runs_omit_the_group_section() {
        let mut t = RecordingTracer::with_capacity(8);
        t.record(
            1,
            0,
            EventKind::MulticastReceive {
                payload: 1,
                hops: 1,
                group: None,
            },
        );
        let report = t.text_report();
        assert!(!report.contains("multicast events by group:"));
        assert!(!t.chrome_trace_json().contains("\"group\""));
    }

    #[test]
    fn exports_are_deterministic() {
        assert_eq!(sample().chrome_trace_json(), sample().chrome_trace_json());
        assert_eq!(sample().text_report(), sample().text_report());
    }
}
