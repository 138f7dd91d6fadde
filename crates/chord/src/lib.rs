#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! Chord baseline: the capacity-*oblivious* overlay the paper compares
//! CAM-Chord against.
//!
//! This crate implements Chord (Stoica et al., SIGCOMM'01) generalized to
//! base-`k` fingers — node `x` tracks the owners of `(x + j·k^i) mod N`
//! for `j ∈ [1..k−1]` — so the baseline's average out-degree can be swept
//! like the paper's Figure 6 does. `k = 2` is exactly classic Chord
//! (fingers at `x + 2^i`). Those fingers and the greedy lookup are
//! CAM-Chord's neighbor and `LOOKUP` rules (`cam_core::cam_chord`) with
//! every node's capacity fixed at `k`; the only rule of this crate's own is
//! the broadcast child selection below.
//!
//! Multicast is the El-Ansary et al. broadcast (IPTPS'03) the paper cites
//! as the state of the art for Chord: a node responsible for the segment
//! `(x, limit]` forwards the message to **every** finger inside the
//! segment, handing each the sub-segment up to the next finger. Node
//! degree in the broadcast tree therefore varies with position — from 1 to
//! `(k−1)·log_k n` at the root — *independent of node capacity*, which is
//! precisely the throughput weakness CAM-Chord fixes (paper §3.4).
//!
//! # Example
//!
//! ```
//! use chord_overlay::Chord;
//! use cam_overlay::{Member, MemberSet, StaticOverlay};
//! use cam_ring::{Id, IdSpace};
//!
//! let members: Vec<Member> = (0..64u64)
//!     .map(|i| Member::with_capacity(Id(i * 8 + 1), 8))
//!     .collect();
//! let chord = Chord::new(MemberSet::new(IdSpace::new(9), members)?, 2);
//! let tree = chord.multicast_tree(0);
//! assert!(tree.is_complete());
//! # Ok::<(), cam_overlay::peer::BuildMemberSetError>(())
//! ```

use cam_core::cam_chord::lookup::lookup;
use cam_core::cam_chord::neighbors::{distinct_neighbor_count, neighbor_targets};
use cam_overlay::stream::{adopt_owner, region_walk, RegionChild};
use cam_overlay::{DeliverySink, LookupResult, MemberSet, StaticOverlay};
use cam_ring::Id;

/// A resolved base-`k` Chord overlay (capacity-oblivious baseline).
#[derive(Debug, Clone)]
pub struct Chord {
    group: MemberSet,
    base: u32,
}

impl Chord {
    /// Wraps a group as a base-`k` Chord overlay. `base == 2` is classic
    /// Chord.
    ///
    /// Member capacities are ignored by construction — that is the point of
    /// the baseline — but they are still used by throughput *accounting*
    /// (a node's children count is compared against its bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    pub fn new(group: MemberSet, base: u32) -> Self {
        assert!(base >= 2, "Chord base must be >= 2, got {base}");
        Chord { group, base }
    }

    /// The finger base `k`.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Finger target identifiers of node `x`: `(x + j·k^i) mod N` for
    /// `j ∈ [1..k−1]`, `j·k^i < N`, in increasing clockwise offset —
    /// CAM-Chord's neighbor identifiers at capacity `k`.
    pub fn finger_targets(&self, x: Id) -> Vec<Id> {
        neighbor_targets(self.group.space(), x, self.base)
    }

    /// El-Ansary broadcast children of `x_idx` for segment `(x, limit]`,
    /// appended to `out`: every distinct finger owner inside the segment,
    /// paired with the end of the sub-segment it becomes responsible for.
    pub fn broadcast_children(&self, x_idx: usize, limit: Id, out: &mut Vec<RegionChild>) {
        let space = self.group.space();
        let x = self.group.member(x_idx).id;
        if space.seg_len(x, limit) == 0 {
            return;
        }
        let mut k_prime = limit;
        // Walk fingers from the farthest clockwise down to the successor;
        // each accepted child covers (child, k'] and k' then retreats to
        // just below the finger target.
        for target in self.finger_targets(x).into_iter().rev() {
            if space.seg_len(x, target) > space.seg_len(x, k_prime) {
                continue; // finger beyond the remaining segment
            }
            adopt_owner(&self.group, x, target, &mut k_prime, out);
            if k_prime == x {
                break;
            }
        }
    }
}

impl StaticOverlay for Chord {
    fn members(&self) -> &MemberSet {
        &self.group
    }

    /// Chord's greedy closest-preceding-finger lookup: CAM-Chord's
    /// `LOOKUP` with every member's base fixed at `k`.
    fn lookup(&self, origin: usize, key: Id) -> LookupResult {
        lookup(&self.group, origin, key, |_| self.base)
    }

    fn multicast_into(&self, source: usize, sink: &mut dyn DeliverySink) {
        region_walk(&self.group, source, sink, |node, limit, picks| {
            self.broadcast_children(node, limit, picks)
        });
    }

    fn neighbor_count(&self, member: usize) -> usize {
        distinct_neighbor_count(&self.group, member, self.base)
    }

    fn name(&self) -> &'static str {
        "Chord"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;
    use cam_ring::IdSpace;
    use rand::{Rng, SeedableRng};

    fn random_group(n: usize, bits: u32, seed: u64) -> MemberSet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let space = IdSpace::new(bits);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < n {
            ids.insert(rng.gen_range(0..space.size()));
        }
        MemberSet::new(
            space,
            ids.iter()
                .map(|&v| Member::with_capacity(Id(v), 8))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn binary_fingers_are_powers_of_two() {
        let g = random_group(32, 10, 1);
        let chord = Chord::new(g, 2);
        let f = chord.finger_targets(Id(0));
        assert_eq!(
            f.iter().map(|t| t.value()).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        );
    }

    #[test]
    fn lookup_matches_oracle_binary_and_base16() {
        let g = random_group(150, 12, 2);
        for base in [2u32, 16] {
            let chord = Chord::new(g.clone(), base);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            for _ in 0..300 {
                let origin = rng.gen_range(0..g.len());
                let key = Id(rng.gen_range(0..g.space().size()));
                let r = chord.lookup(origin, key);
                assert_eq!(r.owner, g.owner_idx(key), "base {base}");
            }
        }
    }

    #[test]
    fn lookup_hops_logarithmic() {
        let g = random_group(2000, 19, 4);
        let chord = Chord::new(g.clone(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut total = 0u64;
        for _ in 0..200 {
            let origin = rng.gen_range(0..g.len());
            let key = Id(rng.gen_range(0..g.space().size()));
            total += u64::from(chord.lookup(origin, key).hops());
        }
        let avg = total as f64 / 200.0;
        // log2(2000) ≈ 11; expected ≈ half of that.
        assert!(avg < 13.0, "avg hops {avg}");
        assert!(avg > 2.0, "avg hops {avg} suspiciously low");
    }

    #[test]
    fn broadcast_reaches_everyone_exactly_once() {
        for n in [1usize, 2, 3, 10, 100, 500] {
            let g = random_group(n, 12, n as u64);
            let chord = Chord::new(g.clone(), 2);
            for src in [0, n / 2, n - 1] {
                let t = chord.multicast_tree(src);
                assert!(t.is_complete(), "n={n} src={src}");
            }
        }
    }

    #[test]
    fn broadcast_root_degree_is_log_n() {
        let g = random_group(1000, 19, 7);
        let chord = Chord::new(g.clone(), 2);
        let t = chord.multicast_tree(0);
        // Root forwards to one finger owner per populated level:
        // ≈ log2(1000) ≈ 10 (distinct owners may be fewer).
        let d = t.fanout(0);
        assert!((6..=19).contains(&d), "root degree {d}");
        // Node degree varies — the tree is unbalanced (paper's critique).
        let depths = t.stats();
        assert!(depths.max_fanout >= d);
    }

    #[test]
    fn base_k_increases_degree_reduces_depth() {
        let g = random_group(2000, 19, 8);
        let narrow = Chord::new(g.clone(), 2).multicast_tree(0);
        let wide = Chord::new(g.clone(), 16).multicast_tree(0);
        assert!(wide.stats().depth < narrow.stats().depth);
        assert!(
            wide.stats().avg_children_per_internal > narrow.stats().avg_children_per_internal
        );
    }

    #[test]
    fn capacity_is_ignored_by_construction() {
        // Two groups identical except for capacities: same trees.
        let space = IdSpace::new(10);
        let make = |cap: u32| {
            MemberSet::new(
                space,
                (0..50u64)
                    .map(|i| Member::with_capacity(Id(i * 20 + 3), cap))
                    .collect(),
            )
            .unwrap()
        };
        let a = Chord::new(make(2), 2).multicast_tree(5);
        let b = Chord::new(make(50), 2).multicast_tree(5);
        for m in 0..50 {
            assert_eq!(a.children_of(m), b.children_of(m));
        }
    }

    #[test]
    #[should_panic(expected = "base must be >= 2")]
    fn base_one_rejected() {
        let g = random_group(4, 8, 9);
        Chord::new(g, 1);
    }
}
