//! Scenario configuration and deterministic member generation.

use cam_overlay::{Member, MemberSet};
use cam_ring::{Id, IdSpace};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Distribution of upload bandwidths `B_x` (kbps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BandwidthDist {
    /// Uniform in `[lo, hi]` kbps — the paper's model (default
    /// `[400, 1000]`).
    Uniform {
        /// Lower bound (kbps).
        lo: f64,
        /// Upper bound (kbps).
        hi: f64,
    },
    /// Every host has the same bandwidth.
    Constant(f64),
    /// Pareto (heavy-tailed) with minimum `scale` and shape `alpha > 1` —
    /// the shape measurement studies report for real P2P upload capacity.
    /// Samples are capped at `cap` to keep capacities finite.
    Pareto {
        /// Minimum bandwidth (kbps); also the Pareto scale parameter.
        scale: f64,
        /// Tail exponent (must exceed 1 for a finite mean).
        alpha: f64,
        /// Upper cap on samples (kbps).
        cap: f64,
    },
}

impl BandwidthDist {
    /// The paper's default range `[400, 1000]` kbps.
    pub const PAPER: BandwidthDist = BandwidthDist::Uniform {
        lo: 400.0,
        hi: 1000.0,
    };

    /// Draws one bandwidth; shared by member generation and churn traces
    /// so joining members follow the same distribution as the initial
    /// population.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> f64 {
        match *self {
            BandwidthDist::Uniform { lo, hi } => {
                debug_assert!(lo <= hi);
                rng.gen_range(lo..=hi)
            }
            BandwidthDist::Constant(b) => b,
            BandwidthDist::Pareto { scale, alpha, cap } => {
                debug_assert!(alpha > 1.0 && scale > 0.0 && cap >= scale);
                let u: f64 = 1.0 - rng.gen::<f64>(); // in (0, 1]
                (scale / u.powf(1.0 / alpha)).min(cap)
            }
        }
    }

    /// Mean of the distribution (ignoring the Pareto cap, which only
    /// trims the extreme tail).
    pub fn mean(&self) -> f64 {
        match *self {
            BandwidthDist::Uniform { lo, hi } => (lo + hi) / 2.0,
            BandwidthDist::Constant(b) => b,
            BandwidthDist::Pareto { scale, alpha, .. } => alpha * scale / (alpha - 1.0),
        }
    }

    /// A Pareto distribution with the given tail exponent whose
    /// (uncapped) mean equals `mean` kbps; samples capped at `20 × mean`.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 1` and `mean > 0`.
    pub fn pareto_with_mean(mean: f64, alpha: f64) -> Self {
        assert!(alpha > 1.0, "alpha must exceed 1 for a finite mean");
        assert!(mean > 0.0, "mean must be positive");
        BandwidthDist::Pareto {
            scale: mean * (alpha - 1.0) / alpha,
            alpha,
            cap: mean * 20.0,
        }
    }
}

/// How a node's capacity `c_x` is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CapacityAssignment {
    /// The paper's bandwidth-proportional rule `c_x = ⌊B_x / p⌋`, clamped
    /// to `[min, max]` (use `min = 4` when CAM-Koorde participates).
    PerLink {
        /// Desired bandwidth per multicast link, kbps.
        p: f64,
        /// Lower clamp (≥ 2).
        min: u32,
        /// Upper clamp.
        max: u32,
    },
    /// Capacity uniform in `[lo, hi]` regardless of bandwidth — used by the
    /// path-length experiments (Figures 9–11).
    Uniform {
        /// Lower bound (inclusive).
        lo: u32,
        /// Upper bound (inclusive).
        hi: u32,
    },
    /// The capacity-oblivious baselines: every node gets the same `c`.
    Constant(u32),
}

impl CapacityAssignment {
    /// The paper's default `[4..10]` uniform range.
    pub const PAPER: CapacityAssignment = CapacityAssignment::Uniform { lo: 4, hi: 10 };

    /// Assigns one capacity from a sampled bandwidth; shared by member
    /// generation and churn traces.
    pub(crate) fn assign(&self, bandwidth_kbps: f64, rng: &mut impl Rng) -> u32 {
        match *self {
            CapacityAssignment::PerLink { p, min, max } => {
                debug_assert!(p > 0.0);
                let raw = (bandwidth_kbps / p).floor().max(0.0) as u32;
                raw.clamp(min.max(2), max)
            }
            CapacityAssignment::Uniform { lo, hi } => {
                debug_assert!(2 <= lo && lo <= hi);
                rng.gen_range(lo..=hi)
            }
            CapacityAssignment::Constant(c) => c.max(2),
        }
    }

    /// Expected capacity under this assignment given a bandwidth mean.
    pub fn expected(&self, bandwidth_mean: f64) -> f64 {
        match *self {
            CapacityAssignment::PerLink { p, min, max } => {
                (bandwidth_mean / p).clamp(f64::from(min), f64::from(max))
            }
            CapacityAssignment::Uniform { lo, hi } => f64::from(lo + hi) / 2.0,
            CapacityAssignment::Constant(c) => f64::from(c),
        }
    }
}

/// One experiment configuration.
///
/// # Example
///
/// ```
/// use cam_workload::Scenario;
///
/// // The paper's default setup, scaled down for a quick run.
/// let group = Scenario::paper_default(42).with_n(1_000).members();
/// assert_eq!(group.len(), 1_000);
/// assert!(group.iter().all(|m| (4..=10).contains(&m.capacity)));
/// assert!(group
///     .iter()
///     .all(|m| (400.0..=1000.0).contains(&m.upload_kbps)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Group size (the paper's default: 100,000).
    pub n: usize,
    /// Identifier-space bits (the paper: 19).
    pub bits: u32,
    /// Seed for deterministic generation.
    pub seed: u64,
    /// Upload-bandwidth distribution.
    pub bandwidth: BandwidthDist,
    /// Capacity rule.
    pub capacity: CapacityAssignment,
}

impl Scenario {
    /// The paper's defaults: `n = 100,000`, `N = 2^19`, `B ∈ U[400,1000]`,
    /// `c ∈ U[4..10]`.
    pub fn paper_default(seed: u64) -> Self {
        Scenario {
            n: 100_000,
            bits: 19,
            seed,
            bandwidth: BandwidthDist::PAPER,
            capacity: CapacityAssignment::PAPER,
        }
    }

    /// Returns the scenario with a different group size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds half the identifier space (the
    /// generator needs distinct identifiers with room to spare).
    pub fn with_n(mut self, n: usize) -> Self {
        assert!(n > 0, "empty group");
        assert!(
            (n as u64) <= (1u64 << self.bits) / 2,
            "group too large for identifier space"
        );
        self.n = n;
        self
    }

    /// Returns the scenario with a different identifier-space width.
    ///
    /// The paper's `2^19` space caps groups at 262,144 members; the
    /// million-member scale tier uses 24 bits. Set the width *before*
    /// [`with_n`](Self::with_n) so the size check runs against the
    /// intended space.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero, exceeds 63, or makes the current group
    /// size invalid.
    pub fn with_bits(mut self, bits: u32) -> Self {
        assert!(bits > 0 && bits < 64, "bits must be in 1..=63");
        assert!(
            (self.n as u64) <= (1u64 << bits) / 2,
            "group too large for identifier space"
        );
        self.bits = bits;
        self
    }

    /// Returns the scenario with a different capacity rule.
    pub fn with_capacity(mut self, capacity: CapacityAssignment) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns the scenario with a different bandwidth distribution.
    pub fn with_bandwidth(mut self, bandwidth: BandwidthDist) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Deterministically generates the member set: distinct random
    /// identifiers (SHA-1-style uniform spread is modelled by the seeded
    /// RNG), bandwidths, and capacities.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates the invariants documented on
    /// [`Scenario::with_n`].
    pub fn members(&self) -> MemberSet {
        let space = IdSpace::new(self.bits);
        assert!(
            (self.n as u64) <= space.size() / 2,
            "group too large for identifier space"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < self.n {
            ids.insert(rng.gen_range(0..space.size()));
        }
        let members = ids
            .into_iter()
            .map(|v| {
                let upload_kbps = self.bandwidth.sample(&mut rng);
                let capacity = self.capacity.assign(upload_kbps, &mut rng);
                Member {
                    id: Id(v),
                    capacity,
                    upload_kbps,
                }
            })
            .collect();
        MemberSet::new(space, members).expect("generator produces valid groups")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = Scenario::paper_default(7).with_n(500).members();
        let b = Scenario::paper_default(7).with_n(500).members();
        for i in 0..a.len() {
            assert_eq!(a.member(i), b.member(i));
        }
        let c = Scenario::paper_default(8).with_n(500).members();
        assert_ne!(a.member(0).id, c.member(0).id, "different seed differs");
    }

    #[test]
    fn per_link_capacity_tracks_bandwidth() {
        let s = Scenario::paper_default(3).with_n(2_000).with_capacity(
            CapacityAssignment::PerLink {
                p: 100.0,
                min: 2,
                max: 1_000,
            },
        );
        let g = s.members();
        for m in g.iter() {
            assert_eq!(m.capacity, (m.upload_kbps / 100.0).floor() as u32);
        }
        // Mean capacity ≈ 700/100 = 7 (floor pulls it to ≈ 6.5).
        let mean = g.mean_capacity();
        assert!((6.0..7.2).contains(&mean), "mean capacity {mean}");
    }

    #[test]
    fn uniform_capacity_in_range() {
        let g = Scenario::paper_default(9)
            .with_n(1_000)
            .with_capacity(CapacityAssignment::Uniform { lo: 4, hi: 200 })
            .members();
        assert!(g.iter().all(|m| (4..=200).contains(&m.capacity)));
        let mean = g.mean_capacity();
        assert!((90.0..110.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn constant_assignment() {
        let g = Scenario::paper_default(1)
            .with_n(64)
            .with_capacity(CapacityAssignment::Constant(8))
            .with_bandwidth(BandwidthDist::Constant(640.0))
            .members();
        assert!(g.iter().all(|m| m.capacity == 8));
        assert!(g.iter().all(|m| m.upload_kbps == 640.0));
    }

    #[test]
    fn pareto_shape() {
        let dist = BandwidthDist::pareto_with_mean(700.0, 2.0);
        assert!((dist.mean() - 700.0).abs() < 1e-9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let observed = samples.iter().sum::<f64>() / n as f64;
        assert!(
            (observed - 700.0).abs() < 40.0,
            "observed mean {observed} (cap trims a little)"
        );
        // All samples at or above the scale (= 350 for alpha 2, mean 700).
        assert!(samples.iter().all(|&b| b >= 349.9));
        // Heavy tail: some samples far above the mean.
        assert!(samples.iter().any(|&b| b > 3_000.0));
    }

    #[test]
    fn expected_capacity_helper() {
        assert_eq!(CapacityAssignment::PAPER.expected(700.0), 7.0);
        let per_link = CapacityAssignment::PerLink {
            p: 70.0,
            min: 2,
            max: 100,
        };
        assert_eq!(per_link.expected(700.0), 10.0);
        assert_eq!(CapacityAssignment::Constant(5).expected(999.0), 5.0);
    }

    #[test]
    fn widened_space_admits_million_member_groups() {
        // Too slow to generate 1M members in a debug-mode unit test; the
        // builder's validation is what matters here (the scale bench
        // exercises the full generation in release mode).
        let s = Scenario::paper_default(1).with_bits(24).with_n(1_000_000);
        assert_eq!(s.bits, 24);
        assert_eq!(s.n, 1_000_000);
        let g = Scenario::paper_default(1)
            .with_bits(24)
            .with_n(3_000)
            .members();
        assert_eq!(g.space().bits(), 24);
        assert_eq!(g.len(), 3_000);
    }

    #[test]
    #[should_panic(expected = "group too large")]
    fn narrowed_space_rejects_current_group() {
        let _ = Scenario::paper_default(0).with_bits(10);
    }

    #[test]
    #[should_panic(expected = "group too large")]
    fn oversized_group_rejected() {
        let mut s = Scenario::paper_default(0);
        s.bits = 10;
        s.n = 1000; // > 2^10 / 2
        s.members();
    }

    #[test]
    #[should_panic(expected = "group too large")]
    fn with_n_validates_against_space() {
        let mut s = Scenario::paper_default(0);
        s.bits = 10;
        let _ = s.with_n(1000);
    }
}
