//! The metric and workload catalogue. `BENCHMARK.json` at the repository
//! root is this file printed by `--manifest`; a test keeps the two equal.

/// `(name, why)` for each workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "static_trees",
        "n=100k analytic trees and lookups: only cam-ring, cam-overlay and cam-core work; actor, sim and wire are bypassed",
    ),
    (
        "sim_multicast",
        "streams on a stable 8k-node simulated ring: DhtActor forwarding and the cam-sim engine (read path); codec and transport bypassed",
    ),
    (
        "sim_churn",
        "joins, leaves and crashes on a 4k-node simulated ring: the same actor's write path (join, stabilize, eviction, directory reshare)",
    ),
    (
        "wire_mem",
        "256-node cluster on the virtual-time in-memory wire: codec, ReactorCore and retransmit timers, CPU-bound and exactly repeatable; syscalls bypassed",
    ),
    (
        "wire_udp",
        "64-node cluster on real loopback UDP, 64 B frames: the same reactor, but syscalls, batching and deadline sleeps dominate",
    ),
    (
        "pubsub_mix",
        "subscribe/unsubscribe/publish mix on a 16k-node registry: tree rebuilds and ledger writes beside publish reads on one layer",
    ),
];

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 10;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen: about
    /// three times the widest interquartile spread BASELINE.md shows on any
    /// workload, capped at the contract's 0.25. Wall-clock and CPU metrics
    /// sit at the cap because the reference box itself drifts by several
    /// percent between identical runs.
    pub bound: f64,
}

/// What a user of the system sees, reported by every workload (the
/// per-workload meaning of `msgs` and `ops` is in README.md).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_wall_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "path_len_mean",
        unit: "hops",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

/// `(name, unit, better)` of every per-layer metric. A workload reports 0
/// for a layer it bypasses — that row is the "no change expected" side of
/// a later optimisation's claim. Timings carry a per-unit-of-work unit.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // User-visible metrics that exist on some workloads only, so they
    // cannot sit in END_TO_END (every workload reports all of those).
    ("user.deliver_virt_p50_ms", "virt_ms", "lower"),
    ("user.deliver_virt_p95_ms", "virt_ms", "lower"),
    ("user.bottleneck_kbps_mean", "kbps", "higher"),
    ("user.goodput_mbps", "Mbit/s", "higher"),
    ("user.converge_virt_s", "virt_s", "lower"),
    ("user.probe_delivery_ratio", "ratio", "higher"),
    // cam-ring / cam-overlay / cam-core
    ("ring.owner_idx_ns", "ns/call", "lower"),
    ("overlay.memberset_build_ms", "ms/call", "lower"),
    ("overlay.tree_stats_ns_per_member", "ns/member", "lower"),
    ("core.chord_tree_ns_per_member", "ns/member", "lower"),
    ("core.koorde_tree_ns_per_member", "ns/member", "lower"),
    ("core.chord_lookup_ns", "ns/call", "lower"),
    ("core.koorde_lookup_ns", "ns/call", "lower"),
    ("core.lookup_hops_mean", "hops", "lower"),
    // set-up pieces
    ("workload.scenario_members_ms", "ms/call", "lower"),
    ("workload.churn_generate_ms", "ms/call", "lower"),
    ("sim.converged_build_ms", "ms/call", "lower"),
    ("reactor.converged_build_ms", "ms/call", "lower"),
    // cam-sim engine
    ("sim.engine_ns_per_event", "ns/event", "lower"),
    ("sim.events_total", "count", "lower"),
    ("sim.pending_peak", "count", "lower"),
    // DhtActor
    ("actor.ns_per_event", "ns/event", "lower"),
    ("actor.forward_events_per_op", "count", "lower"),
    ("actor.useful_delivery_ratio", "ratio", "higher"),
    ("actor.maintenance_event_share", "ratio", "lower"),
    ("actor.neighbor_miss_per_op", "count", "lower"),
    ("actor.stabilize_rounds", "count", "lower"),
    ("actor.join_msgs_per_join", "count", "lower"),
    ("actor.inject_join_us", "us/call", "lower"),
    ("actor.remove_member_us", "us/call", "lower"),
    // codec
    ("codec.encode_ns_per_frame", "ns/frame", "lower"),
    ("codec.decode_ns_per_frame", "ns/frame", "lower"),
    ("codec.bytes_per_frame_mean", "B/frame", "lower"),
    // ReactorCore
    ("reactor.handle_frame_ns", "ns/frame", "lower"),
    ("reactor.poll_ns_per_call", "ns/call", "lower"),
    ("reactor.poll_calls_per_frame", "ratio", "lower"),
    ("reactor.next_wake_ns", "ns/call", "lower"),
    ("reactor.actor_share", "ratio", "lower"),
    ("reactor.retransmits_per_op", "count", "lower"),
    ("reactor.acks_per_op", "count", "lower"),
    ("reactor.unacked_peak", "count", "lower"),
    ("reactor.armed_timers_peak", "count", "lower"),
    ("reactor.lossy_failed_share", "ratio", "lower"),
    ("reactor.lossy_retransmits_per_op", "count", "lower"),
    // transport
    ("transport.send_ns_per_frame", "ns/frame", "lower"),
    ("transport.poll_ns_per_frame", "ns/frame", "lower"),
    ("transport.frames_per_send_batch", "ratio", "higher"),
    ("transport.frames_per_poll_batch", "ratio", "higher"),
    ("transport.backpressure_events", "count", "lower"),
    ("transport.frames_dropped", "count", "lower"),
    ("transport.frames_rejected", "count", "lower"),
    ("transport.udp_4k_rounds_per_s", "rounds/s", "higher"),
    // wire loop scheduler
    ("runtime.wakeups_per_op", "count", "lower"),
    ("runtime.io_wake_share", "ratio", "higher"),
    ("runtime.slept_share", "ratio", "lower"),
    ("runtime.round_retries", "count", "lower"),
    // cam-pubsub
    ("pubsub.subscribe_us", "us/call", "lower"),
    ("pubsub.unsubscribe_us", "us/call", "lower"),
    ("pubsub.publish_us", "us/call", "lower"),
    ("pubsub.admitted_share", "ratio", "higher"),
    ("pubsub.reached_per_publish", "count", "higher"),
    ("ledger.verify_ms", "ms/call", "lower"),
    // self time per layer over the traced pass (span minus child spans)
    ("self.ring_overlay_core_ms", "ms/pass", "lower"),
    ("self.sim_actor_ms", "ms/pass", "lower"),
    ("self.reactor_ms", "ms/pass", "lower"),
    ("self.transport_ms", "ms/pass", "lower"),
    ("self.codec_ms", "ms/pass", "lower"),
    ("self.pubsub_ms", "ms/pass", "lower"),
    ("self.driver_ms", "ms/pass", "lower"),
    // the measurement itself
    ("trace.recording_overhead_share", "ratio", "lower"),
    ("trace.events_recorded", "count", "lower"),
    ("trace.events_dropped", "count", "lower"),
    ("trace.spans_recorded", "count", "lower"),
    ("trace.spans_dropped", "count", "lower"),
    ("trace.ops_traced", "count", "higher"),
    ("trace.ops_reference", "count", "higher"),
    ("driver.overhead_share", "ratio", "lower"),
    ("driver.op_wall_p99_us", "us", "lower"),
    ("driver.ops_per_s_reference", "1/s", "higher"),
    ("driver.ops_per_s_traced", "1/s", "higher"),
    ("driver.setup_ms", "ms/call", "lower"),
    ("driver.nproc", "count", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --release -- --manifest`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for (_, unit, _) in PER_LAYER {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200, "{why}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
