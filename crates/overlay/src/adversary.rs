//! Byzantine adversary models and honest-node detection counters.
//!
//! The paper's resilience analysis assumes nodes fail *silently*; the
//! region-partition math that makes CAM capacity-aware is breakable by a
//! node that *lies*. This module defines the misbehaviors a planned
//! adversary can perform ([`ByzantineBehavior`]), the per-node state that
//! drives them deterministically from a seed ([`AdversaryState`]), and the
//! counters honest nodes bump when their built-in defenses flag suspected
//! misbehavior ([`DetectionCounters`]).
//!
//! Everything here is seed-driven: adversary decisions draw only from the
//! adversary's own [`SimRng`] stream, never from ambient host randomness,
//! so chaos-plan shrinking and replay bundles stay bit-identical.

use cam_ring::Segment;
use cam_sim::rng::SimRng;

use crate::Member;

/// The catalog of scripted misbehaviors a Byzantine node can perform.
///
/// Each behavior targets a different trust assumption of the protocol:
/// routing honesty (`Misroute`), forwarding completeness (`SelectiveDrop`),
/// capacity truthfulness (`ForgeCapacity`), at-most-once origination
/// (`Replay`), and membership-view freshness (`StaleIncarnation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByzantineBehavior {
    /// Forward multicast frames with rotated (wrong) sub-segments, so
    /// children receive responsibility regions that do not start at their
    /// own identifier.
    Misroute,
    /// Silently drop some child forwards, chosen per-child by the
    /// adversary's RNG, starving the corresponding subtrees.
    SelectiveDrop,
    /// Advertise a forged (inflated) capacity `c_x` so region partitioning
    /// over-splits around the adversary.
    ForgeCapacity,
    /// Re-send previously-seen multicast frames to random neighbors long
    /// after first delivery.
    Replay,
    /// Answer stabilize queries with a frozen (stale) snapshot of
    /// predecessor/successor state, advertising dead nodes as live.
    StaleIncarnation,
}

impl ByzantineBehavior {
    /// Every behavior kind, in canonical report order.
    pub const ALL: [ByzantineBehavior; 5] = [
        ByzantineBehavior::Misroute,
        ByzantineBehavior::SelectiveDrop,
        ByzantineBehavior::ForgeCapacity,
        ByzantineBehavior::Replay,
        ByzantineBehavior::StaleIncarnation,
    ];

    /// Stable snake_case name, used by trace events, bundles, and reports.
    pub fn name(self) -> &'static str {
        match self {
            ByzantineBehavior::Misroute => "misroute",
            ByzantineBehavior::SelectiveDrop => "selective_drop",
            ByzantineBehavior::ForgeCapacity => "forge_capacity",
            ByzantineBehavior::Replay => "replay",
            ByzantineBehavior::StaleIncarnation => "stale_incarnation",
        }
    }

    /// Parses a [`ByzantineBehavior::name`] back to the behavior.
    pub fn from_name(name: &str) -> Option<ByzantineBehavior> {
        ByzantineBehavior::ALL
            .into_iter()
            .find(|b| b.name() == name)
    }

    /// The detector (trace `adversary_detect` label and
    /// [`DetectionCounters`] field) this behavior is expected to trip.
    pub fn detector(self) -> &'static str {
        match self {
            ByzantineBehavior::Misroute => "region_violation",
            ByzantineBehavior::SelectiveDrop => "repair_recovery",
            ByzantineBehavior::ForgeCapacity => "capacity_forgery",
            ByzantineBehavior::Replay => "replay_suspect",
            ByzantineBehavior::StaleIncarnation => "stale_claim",
        }
    }
}

/// Counters honest nodes bump when their defenses flag suspected
/// misbehavior. Summed across a run they are the harness's evidence that
/// an adversary was *detected*, not merely tolerated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionCounters {
    /// Region-carrying multicast frames whose delegated segment did not
    /// start at this node's own identifier (misrouted forwards).
    pub region_violations: u64,
    /// Capacity claims that contradicted the first-observed (pinned)
    /// capacity for the same identifier.
    pub capacity_forgeries: u64,
    /// Duplicate region-carrying frames arriving from a sender other than
    /// the first-seen sender (replayed frames).
    pub replay_suspects: u64,
    /// Stabilize replies advertising members this node has itself
    /// confirmed dead (stale incarnations).
    pub stale_claims: u64,
    /// Payloads recovered via epidemic repair after the dissemination tree
    /// failed to deliver them (the observable footprint of dropped
    /// forwards). Unlike the other counters this is not an accusation:
    /// a repair can also win a benign race against a still-propagating
    /// multicast, so its honest baseline is near-zero, not zero.
    pub repair_recoveries: u64,
}

impl DetectionCounters {
    /// Sum of the *accusatory* counters — the ones that imply a specific
    /// peer lied. Exactly zero on any honest run over a lossless wire
    /// (the chaos harness's honest baseline); sustained packet loss can
    /// fabricate a confirmed-dead verdict for a live node, whose later
    /// honest sightings then count as stale claims.
    /// [`Self::repair_recoveries`] is excluded because benign repair
    /// races keep its honest baseline merely near-zero even without loss.
    pub fn suspicions(&self) -> u64 {
        self.region_violations
            + self.capacity_forgeries
            + self.replay_suspects
            + self.stale_claims
    }

    /// Sum of all counters — nonzero means *something* was flagged.
    pub fn total(&self) -> u64 {
        self.region_violations
            + self.capacity_forgeries
            + self.replay_suspects
            + self.stale_claims
            + self.repair_recoveries
    }

    /// The counter a given behavior is expected to trip — the canonical
    /// behavior→detector mapping used by regression tests and the
    /// robustness report.
    pub fn for_behavior(&self, behavior: ByzantineBehavior) -> u64 {
        match behavior {
            ByzantineBehavior::Misroute => self.region_violations,
            ByzantineBehavior::SelectiveDrop => self.repair_recoveries,
            ByzantineBehavior::ForgeCapacity => self.capacity_forgeries,
            ByzantineBehavior::Replay => self.replay_suspects,
            ByzantineBehavior::StaleIncarnation => self.stale_claims,
        }
    }

    /// Accumulates `other` into `self` (per-field saturating add).
    pub fn add(&mut self, other: &DetectionCounters) {
        self.region_violations = self
            .region_violations
            .saturating_add(other.region_violations);
        self.capacity_forgeries = self
            .capacity_forgeries
            .saturating_add(other.capacity_forgeries);
        self.replay_suspects = self.replay_suspects.saturating_add(other.replay_suspects);
        self.stale_claims = self.stale_claims.saturating_add(other.stale_claims);
        self.repair_recoveries = self
            .repair_recoveries
            .saturating_add(other.repair_recoveries);
    }
}

/// Upper bound on remembered frames for [`ByzantineBehavior::Replay`] —
/// enough variety to replay from, small enough to keep snapshots cheap.
const REPLAY_MEMORY: usize = 32;

/// Per-node adversary state: the scripted behavior plus the deterministic
/// RNG stream driving every decision it makes.
///
/// The state is attached to a [`crate::dynamic::DhtActor`] by the chaos
/// harness; the actor consults it at each decision point (multicast
/// forwarding, stabilize answering, capacity advertising). All randomness
/// comes from the embedded [`SimRng`], seeded by the fault plan, so a
/// replayed plan takes bit-identical adversarial decisions.
#[derive(Debug, Clone)]
pub struct AdversaryState {
    /// Which misbehavior this node performs.
    pub behavior: ByzantineBehavior,
    /// The adversary's private decision stream (from the plan seed).
    pub rng: SimRng,
    /// Frames seen by a [`ByzantineBehavior::Replay`] adversary, kept for
    /// later re-sending: `(payload, region, hops, data)`.
    pub remembered: Vec<(u64, Option<Segment>, u32, bytes::Bytes)>,
    /// The frozen `(predecessor, successors)` snapshot a
    /// [`ByzantineBehavior::StaleIncarnation`] adversary keeps answering
    /// with; captured lazily at its first stabilize query.
    pub frozen: Option<(Option<Member>, Vec<Member>)>,
    /// Number of misbehaviors actually performed (acts that differed from
    /// honest behavior) — the denominator for detection-rate accounting.
    pub acts: u64,
}

impl AdversaryState {
    /// Creates adversary state for `behavior`, seeding the private RNG
    /// stream from `seed` (derived by the chaos plan).
    pub fn new(behavior: ByzantineBehavior, seed: u64) -> Self {
        AdversaryState {
            behavior,
            rng: SimRng::new(seed).split(0xBAD),
            remembered: Vec::new(),
            frozen: None,
            acts: 0,
        }
    }

    /// Records a frame for later replay (keeps at most `REPLAY_MEMORY`).
    pub fn remember(
        &mut self,
        payload: u64,
        region: Option<Segment>,
        hops: u32,
        data: bytes::Bytes,
    ) {
        if self.remembered.len() < REPLAY_MEMORY {
            self.remembered.push((payload, region, hops, data));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_names_round_trip() {
        for b in ByzantineBehavior::ALL {
            assert_eq!(ByzantineBehavior::from_name(b.name()), Some(b));
        }
        assert_eq!(ByzantineBehavior::from_name("honest"), None);
    }

    #[test]
    fn counters_total_and_add() {
        let mut a = DetectionCounters {
            region_violations: 1,
            capacity_forgeries: 2,
            replay_suspects: 3,
            stale_claims: 4,
            repair_recoveries: 5,
        };
        assert_eq!(a.total(), 15);
        let b = a;
        a.add(&b);
        assert_eq!(a.total(), 30);
        assert_eq!(a.region_violations, 2);
    }

    #[test]
    fn adversary_rng_is_seed_deterministic() {
        let mut a = AdversaryState::new(ByzantineBehavior::Misroute, 7);
        let mut b = AdversaryState::new(ByzantineBehavior::Misroute, 7);
        for _ in 0..16 {
            assert_eq!(a.rng.uniform_incl(0, 1000), b.rng.uniform_incl(0, 1000));
        }
        let mut c = AdversaryState::new(ByzantineBehavior::Misroute, 8);
        let same: Vec<u64> = (0..16).map(|_| c.rng.uniform_incl(0, 1000)).collect();
        let fresh: Vec<u64> = {
            let mut d = AdversaryState::new(ByzantineBehavior::Misroute, 7);
            (0..16).map(|_| d.rng.uniform_incl(0, 1000)).collect()
        };
        assert_ne!(same, fresh, "different seeds must diverge");
    }

    #[test]
    fn replay_memory_is_bounded() {
        let mut a = AdversaryState::new(ByzantineBehavior::Replay, 1);
        for p in 0..100u64 {
            a.remember(p, None, 1, bytes::Bytes::from_static(b"x"));
        }
        assert_eq!(a.remembered.len(), REPLAY_MEMORY);
    }
}
