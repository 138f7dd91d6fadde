#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! Koorde baseline: the capacity-*oblivious* de Bruijn overlay the paper
//! compares CAM-Koorde against.
//!
//! Koorde (Kaashoek & Karger, IPTPS'03) embeds a degree-`k` de Bruijn graph
//! in the Chord identifier ring: node `x`'s de Bruijn neighbors are the
//! owners of `(k·x + j) mod N` for digits `j ∈ [0..k)` — identifiers
//! obtained by shifting `x` one digit to the **left** and replacing the
//! lowest digit. As the CAM paper points out (§4), these `k` identifiers
//! differ only in the last digit, so they cluster on the ring and often
//! resolve to the *same* physical node — one of the two deficiencies
//! CAM-Koorde fixes (the other being the uniform, capacity-blind degree).
//!
//! This implementation generalizes to any power-of-two degree `k = 2^s`
//! (digit = `s` bits). Lookup uses Koorde's imaginary-node routing: walk
//! successors until the imaginary identifier lies between the current node
//! and its successor, then take the de Bruijn edge, shifting the next `s`
//! key bits in from the right. Broadcast is constrained flooding over the
//! neighbor set (successor, predecessor, and the de Bruijn owners), the
//! same mechanism CAM-Koorde uses, so the two systems differ only in
//! topology.
//!
//! # Example
//!
//! ```
//! use koorde_overlay::Koorde;
//! use cam_overlay::{Member, MemberSet, StaticOverlay};
//! use cam_ring::{Id, IdSpace};
//!
//! let members: Vec<Member> = (0..64u64)
//!     .map(|i| Member::with_capacity(Id(i * 8 + 1), 8))
//!     .collect();
//! let koorde = Koorde::new(MemberSet::new(IdSpace::new(9), members)?, 4);
//! assert!(koorde.multicast_tree(7).is_complete());
//! # Ok::<(), cam_overlay::peer::BuildMemberSetError>(())
//! ```

use cam_overlay::stream::flood_walk;
use cam_overlay::{DeliverySink, LookupResult, MemberSet, StaticOverlay};
use cam_ring::{Id, IdSpace};

/// A resolved degree-`k` Koorde overlay (capacity-oblivious baseline).
#[derive(Debug, Clone)]
pub struct Koorde {
    group: MemberSet,
    /// Digit width in bits (`k = 2^s`).
    digit_bits: u32,
    /// Flooding adjacency, resolved at construction.
    adj: Vec<Vec<usize>>,
}

impl Koorde {
    /// Wraps a group as a degree-`k` Koorde overlay.
    ///
    /// # Panics
    ///
    /// Panics unless `degree` is a power of two with `2 ≤ degree < N`.
    pub fn new(group: MemberSet, degree: u32) -> Self {
        assert!(
            degree >= 2 && degree.is_power_of_two(),
            "Koorde degree must be a power of two >= 2, got {degree}"
        );
        assert!(
            u64::from(degree) < group.space().size(),
            "degree must be below the identifier-space size"
        );
        let digit_bits = degree.trailing_zeros();
        let adj = (0..group.len())
            .map(|i| Self::neighbor_indices(&group, digit_bits, i))
            .collect();
        Koorde {
            group,
            digit_bits,
            adj,
        }
    }

    /// The de Bruijn degree `k`.
    pub fn degree(&self) -> u32 {
        1 << self.digit_bits
    }

    /// De Bruijn neighbor identifiers of `x`: `(x·k + j) mod N`, `j < k`.
    /// Note how they differ only in the low digit — the clustering the CAM
    /// paper criticizes.
    pub fn debruijn_targets(space: IdSpace, digit_bits: u32, x: Id) -> Vec<Id> {
        let k = 1u64 << digit_bits;
        (0..k)
            .map(|j| space.reduce((x.value() << digit_bits) | j))
            .collect()
    }

    fn neighbor_indices(group: &MemberSet, digit_bits: u32, idx: usize) -> Vec<usize> {
        let x = group.member(idx).id;
        let mut out = vec![group.prev_idx(idx), group.next_idx(idx)];
        out.extend(
            Self::debruijn_targets(group.space(), digit_bits, x)
                .into_iter()
                .map(|t| group.owner_idx(t)),
        );
        out.sort_unstable();
        out.dedup();
        out.retain(|&n| n != idx);
        out
    }
}

impl StaticOverlay for Koorde {
    fn members(&self) -> &MemberSet {
        &self.group
    }

    /// Koorde's imaginary-node lookup: successor-walk until the imaginary
    /// identifier is in `(x, successor]`, then take the de Bruijn edge —
    /// which points at the node *preceding* `k·x`, so the walk always stays
    /// behind the imaginary and catches up along successors — shifting the
    /// next key digit (MSB first) into the imaginary.
    fn lookup(&self, origin: usize, key: Id) -> LookupResult {
        let space = self.group.space();
        let b = space.bits();
        let s = self.digit_bits;
        let mut cur = origin;
        let mut path = vec![origin];
        // Imaginary identifier starts at the origin; `injected` counts how
        // many key bits have been shifted in.
        let mut imaginary = self.group.member(origin).id;
        let mut injected = 0u32;

        loop {
            if let Some(owner) = self.group.local_owner(cur, key) {
                return LookupResult { owner, path };
            }
            let x = self.group.id_at(cur);
            let succ_idx = self.group.next_idx(cur);
            let succ = self.group.id_at(succ_idx);

            let next =
                if injected < b && (imaginary == x || space.in_segment(imaginary, x, succ)) {
                    // De Bruijn hop: shift the next digit of the key into the
                    // imaginary node and follow the real de Bruijn pointer (the
                    // node preceding k·x).
                    let width = s.min(b - injected);
                    let digit = (key.value() >> (b - injected - width)) & ((1u64 << width) - 1);
                    imaginary = space.reduce((imaginary.value() << width) | digit);
                    injected += width;
                    // Degree-k Koorde keeps pointers to the k consecutive nodes
                    // starting at pred(k·x) precisely so this hop can land on
                    // the node whose segment contains the new imaginary
                    // (imaginary ∈ (k·x, k·succ + k] is spanned by those k
                    // pointers); jump straight to it.
                    let idx = self.group.predecessor_idx(imaginary);
                    if idx == cur {
                        succ_idx
                    } else {
                        idx
                    }
                } else {
                    // Walk the ring: either catching up to the imaginary or,
                    // once all bits are injected (imaginary == key), homing in
                    // on the owner.
                    succ_idx
                };
            cur = next;
            path.push(cur);
            debug_assert!(
                path.len() <= 2 * self.group.len() + 4 * b as usize,
                "Koorde lookup exceeded every bound"
            );
        }
    }

    fn multicast_into(&self, source: usize, sink: &mut dyn DeliverySink) {
        flood_walk(self.group.len(), source, sink, |m| &self.adj[m]);
    }

    fn neighbor_count(&self, member: usize) -> usize {
        self.adj[member].len()
    }

    fn name(&self) -> &'static str {
        "Koorde"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;
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
    fn debruijn_targets_cluster() {
        // The k targets of one node are consecutive identifiers — the
        // clustering the CAM paper contrasts with its spread-out neighbors.
        let space = IdSpace::new(10);
        let t = Koorde::debruijn_targets(space, 2, Id(37));
        assert_eq!(
            t.iter().map(|i| i.value()).collect::<Vec<_>>(),
            vec![148, 149, 150, 151]
        );
    }

    #[test]
    fn lookup_matches_oracle() {
        let g = random_group(150, 12, 2);
        for degree in [2u32, 4, 16] {
            let koorde = Koorde::new(g.clone(), degree);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            for _ in 0..300 {
                let origin = rng.gen_range(0..g.len());
                let key = Id(rng.gen_range(0..g.space().size()));
                let r = koorde.lookup(origin, key);
                assert_eq!(r.owner, g.owner_idx(key), "degree {degree}");
            }
        }
    }

    #[test]
    fn lookup_hops_reasonable() {
        let g = random_group(2000, 19, 4);
        let koorde = Koorde::new(g.clone(), 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut total = 0u64;
        for _ in 0..200 {
            let origin = rng.gen_range(0..g.len());
            let key = Id(rng.gen_range(0..g.space().size()));
            total += u64::from(koorde.lookup(origin, key).hops());
        }
        let avg = total as f64 / 200.0;
        // ⌈19/3⌉ = 7 de Bruijn hops plus ring walks.
        assert!(avg < 25.0, "avg hops {avg}");
    }

    #[test]
    fn flooding_reaches_everyone() {
        for n in [1usize, 2, 5, 50, 400] {
            let g = random_group(n, 12, n as u64 + 17);
            let koorde = Koorde::new(g.clone(), 4);
            for src in [0, n - 1] {
                let t = koorde.multicast_tree(src);
                assert!(t.is_complete(), "n={n} src={src}");
            }
        }
    }

    #[test]
    fn uniform_degree_bounded_by_k_plus_ring() {
        let g = random_group(500, 16, 6);
        let koorde = Koorde::new(g.clone(), 8);
        for m in 0..g.len() {
            // pred + succ + ≤ k de Bruijn owners.
            assert!(koorde.neighbor_count(m) <= 10);
        }
    }

    #[test]
    fn effective_degree_shrinks_from_clustering() {
        // With n ≪ N the k clustered targets usually share one owner, so
        // the average neighbor count sits well below 2 + k.
        let g = random_group(200, 19, 8);
        let koorde = Koorde::new(g.clone(), 16);
        let avg: f64 = (0..g.len())
            .map(|m| koorde.neighbor_count(m) as f64)
            .sum::<f64>()
            / g.len() as f64;
        assert!(avg < 6.0, "clustering should collapse owners, avg {avg}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Koorde::new(random_group(4, 8, 9), 3);
    }
}
