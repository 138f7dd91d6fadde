//! Robustness report: seed-swept Byzantine runs summarized as markdown.
//!
//! [`robustness_report`] runs every [`ByzantineBehavior`] across a seed
//! range on the sim host (with recording, so detection latency can be
//! read off the trace), judges each run with the degraded-oracle catalog,
//! and renders one markdown table row per behavior: activation and
//! detection rates, mean detection latency, honest delivery ratio, and
//! degraded-oracle outcomes.
//!
//! The report is a pure function of `(start_seed, seeds)` — no wall
//! clock, no hostnames — so regenerating it from the same sweep produces
//! a byte-identical file, and CI can diff it like any other artifact.

use std::fmt::Write as _;

use cam_overlay::ByzantineBehavior;

use crate::harness::{run_plan, HostKind};
use crate::oracle::{sum_adversary_acts, sum_detections};
use crate::plan::FaultPlan;

/// Aggregated sweep results for one behavior kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobustnessRow {
    /// The behavior swept.
    pub behavior: ByzantineBehavior,
    /// Seeds run.
    pub seeds: usize,
    /// Seeds where the adversary actually misbehaved (`acts > 0`).
    pub activated: usize,
    /// Activated seeds where the behavior's mapped detection counter
    /// fired on at least one honest node.
    pub detected: usize,
    /// Seeds with at least one degraded-oracle violation.
    pub failed_seeds: usize,
    /// Sum of first-detection latencies (micros since the first act),
    /// over `latency_samples` seeds where both events were traced.
    pub latency_sum_micros: u64,
    /// Seeds contributing to `latency_sum_micros`.
    pub latency_samples: usize,
    /// Honest live-node × payload deliveries observed, summed over seeds.
    pub delivered: u64,
    /// Honest live-node × payload deliveries required, summed over seeds.
    pub required: u64,
    /// Total mapped detection-counter hits across all seeds.
    pub detections_total: u64,
}

impl RobustnessRow {
    /// Detection-rate acceptance bar: the behavior was detected in at
    /// least 90% of the seeds where it activated (vacuously true when it
    /// never activated).
    pub fn detection_rate_ok(&self) -> bool {
        self.detected * 10 >= self.activated * 9
    }

    /// Mean first-detection latency in micros, if any seed produced one.
    pub fn mean_latency_micros(&self) -> Option<u64> {
        (self.latency_samples > 0)
            .then(|| self.latency_sum_micros / self.latency_samples as u64)
    }
}

/// Sweeps one behavior over `seeds` seeds starting at `start_seed`.
pub fn sweep_behavior(
    behavior: ByzantineBehavior,
    start_seed: u64,
    seeds: usize,
) -> RobustnessRow {
    let mut row = RobustnessRow {
        behavior,
        seeds,
        activated: 0,
        detected: 0,
        failed_seeds: 0,
        latency_sum_micros: 0,
        latency_samples: 0,
        delivered: 0,
        required: 0,
        detections_total: 0,
    };
    for seed in start_seed..start_seed + seeds as u64 {
        let plan = FaultPlan::adversary_plan(seed, behavior);
        let report = run_plan(&plan, HostKind::Sim, true);
        let adv = plan.adversary.as_ref();
        let adv_idx = adv.map(|a| a.node as usize);

        if !report.passed() {
            row.failed_seeds += 1;
        }
        let acts = sum_adversary_acts(&report.snapshots);
        let hits = sum_detections(&report.snapshots, adv).for_behavior(behavior);
        row.detections_total += hits;
        if acts > 0 {
            row.activated += 1;
            if hits > 0 {
                row.detected += 1;
            }
        }

        // Honest delivery census: every payload of the run, over live
        // joined nodes other than the adversary.
        for &(payload, _, _) in &report.census {
            for s in &report.snapshots {
                if Some(s.index) == adv_idx || !s.alive || !s.joined {
                    continue;
                }
                row.required += 1;
                if s.received.iter().any(|&(p, _)| p == payload) {
                    row.delivered += 1;
                }
            }
        }

        // First-detection latency: the first mapped detector event at or
        // after the first act.
        let first_act = report
            .adversary_events
            .iter()
            .find(|&&(_, detect, _)| !detect)
            .map(|&(at, _, _)| at);
        if let Some(act_at) = first_act {
            let detect_at = report
                .adversary_events
                .iter()
                .find(|&&(at, detect, label)| {
                    detect && label == behavior.detector() && at >= act_at
                })
                .map(|&(at, _, _)| at);
            if let Some(d) = detect_at {
                row.latency_sum_micros += d - act_at;
                row.latency_samples += 1;
            }
        }
    }
    row
}

/// Runs the full sweep: every behavior × `seeds` seeds from `start_seed`.
pub fn sweep_all(start_seed: u64, seeds: usize) -> Vec<RobustnessRow> {
    ByzantineBehavior::ALL
        .into_iter()
        .map(|b| sweep_behavior(b, start_seed, seeds))
        .collect()
}

/// Renders sweep rows as the markdown robustness report.
pub fn render_report(rows: &[RobustnessRow], start_seed: u64, seeds: usize) -> String {
    let mut out = String::new();
    out.push_str("# Robustness under planned Byzantine behavior\n\n");
    let _ = writeln!(
        out,
        "One Byzantine node per run (`FaultPlan::adversary_plan`), sim host, \
         judged by the degraded-oracle catalog (oracle.rs module docs). \
         Sweep: seeds {}..={} ({} per behavior).",
        start_seed,
        start_seed + seeds as u64 - 1,
        seeds
    );
    out.push('\n');
    out.push_str(
        "| Behavior | Activated | Detected | Detection hits | Mean detection latency | \
         Honest delivery | Degraded oracles |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in rows {
        let latency = match r.mean_latency_micros() {
            Some(us) => format!("{} ms", us / 1000),
            None => "n/a".to_string(),
        };
        // Integer-math ratio so the rendering is bit-stable.
        let delivery = match (r.delivered * 1_000_000).checked_div(r.required) {
            Some(ppm) => format!("{}.{:06}", ppm / 1_000_000, ppm % 1_000_000),
            None => "n/a".to_string(),
        };
        let oracles = if r.failed_seeds == 0 {
            format!("pass ({}/{})", r.seeds, r.seeds)
        } else {
            format!("FAIL ({} of {} seeds)", r.failed_seeds, r.seeds)
        };
        let _ = writeln!(
            out,
            "| {} | {}/{} | {}/{} | {} | {} | {} | {} |",
            r.behavior.name(),
            r.activated,
            r.seeds,
            r.detected,
            r.activated,
            r.detections_total,
            latency,
            delivery,
            oracles
        );
    }
    out.push('\n');
    out.push_str(
        "Detected = seeds where the behavior's mapped counter fired on an honest \
         node, out of seeds where the adversary actually acted. Honest delivery = \
         payload deliveries on live honest nodes over deliveries required. \
         Latency = first mapped detection after the first misbehavior, averaged \
         over seeds that produced both.\n",
    );
    out
}

/// The full pipeline: sweep every behavior and render the markdown.
pub fn robustness_report(start_seed: u64, seeds: usize) -> (String, Vec<RobustnessRow>) {
    let rows = sweep_all(start_seed, seeds);
    (render_report(&rows, start_seed, seeds), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_rate_bar_is_90_percent() {
        let mut r = RobustnessRow {
            behavior: ByzantineBehavior::Misroute,
            seeds: 10,
            activated: 10,
            detected: 9,
            failed_seeds: 0,
            latency_sum_micros: 0,
            latency_samples: 0,
            delivered: 0,
            required: 0,
            detections_total: 0,
        };
        assert!(r.detection_rate_ok());
        r.detected = 8;
        assert!(!r.detection_rate_ok());
        r.activated = 0;
        r.detected = 0;
        assert!(r.detection_rate_ok(), "vacuous when never activated");
    }

    #[test]
    fn render_is_deterministic_and_tabular() {
        let rows = vec![RobustnessRow {
            behavior: ByzantineBehavior::Replay,
            seeds: 5,
            activated: 4,
            detected: 4,
            failed_seeds: 0,
            latency_sum_micros: 1_500_000,
            latency_samples: 3,
            delivered: 299,
            required: 300,
            detections_total: 17,
        }];
        let a = render_report(&rows, 1, 5);
        let b = render_report(&rows, 1, 5);
        assert_eq!(a, b);
        assert!(a.contains("| replay | 4/5 | 4/4 | 17 | 500 ms | 0.996666 | pass (5/5) |"));
    }
}
