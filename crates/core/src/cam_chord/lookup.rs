//! The CAM-Chord `LOOKUP` routine (paper, Section 3.2).
//!
//! ```text
//! x.LOOKUP(k)
//!   if k ∈ (x, successor(x)]  → successor(x)
//!   i ← ⌊log(k−x)/log c_x⌋ ; j ← ⌊(k−x)/c_x^i⌋
//!   if k ∈ (x, x̂_{i,j}]       → x̂_{i,j}
//!   else                       → forward to x̂_{i,j}
//! ```
//!
//! One case the pseudo-code leaves implicit: when `k` falls in
//! `(predecessor(x), x]`, `x` itself is responsible (this arises whenever a
//! greedy hop lands exactly on the owner), so the routine answers `x`
//! before computing levels — otherwise `k − x = 0` has no level.

use cam_overlay::{LookupResult, MemberSet};
use cam_ring::Id;

use super::neighbors::level_of;

/// Routes a CAM-Chord lookup for `key` starting at member `origin`, where
/// member `i` takes its level and sequence number from base `base(i)`.
///
/// CAM-Chord passes each member's capacity `c_x`; the capacity-oblivious
/// Chord baseline is the same routine at a fixed base `k`. Every hop is a
/// member that processed the request; the returned owner is the member
/// responsible for `key` (verified against the ring oracle in tests).
///
/// # Panics
///
/// Panics if `origin` is out of range, if a base is below 2, or if routing
/// fails to make progress (which would indicate a broken neighbor table —
/// impossible for a resolved [`MemberSet`]).
pub fn lookup<F: Fn(usize) -> u32>(
    group: &MemberSet,
    origin: usize,
    key: Id,
    base: F,
) -> LookupResult {
    let space = group.space();
    let mut cur = origin;
    let mut path = vec![origin];
    // Greedy progress strictly decreases (key − x) mod N, so n hops bound.
    let hop_limit = group.len() + 1;

    loop {
        assert!(
            path.len() <= hop_limit,
            "Chord lookup exceeded {hop_limit} hops — routing loop"
        );
        // k ∈ (predecessor(x), x] → x is responsible; line 1:
        // k ∈ (x, successor(x)] → successor.
        if let Some(owner) = group.local_owner(cur, key) {
            return LookupResult { owner, path };
        }
        let x = group.id_at(cur);
        let c = base(cur);
        // Lines 4–5: level and sequence number of k w.r.t. x.
        let level = level_of(space, x, c, key);
        let target = space.add(x, level.j * level.pow);
        let nb_idx = group.owner_idx(target);
        let nb = group.member(nb_idx).id;
        // Lines 6–7: x̂_{i,j} is responsible for k.
        if space.in_segment(key, x, nb) {
            return LookupResult {
                owner: nb_idx,
                path,
            };
        }
        // Line 9: greedy forward.
        debug_assert!(
            space.seg_len(nb, key) < space.seg_len(x, key),
            "no progress: {x} → {nb} toward {key}"
        );
        cur = nb_idx;
        path.push(cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;
    use cam_ring::IdSpace;

    fn cam_lookup(g: &MemberSet, origin: usize, key: Id) -> LookupResult {
        lookup(g, origin, key, |i| g.capacity_at(i))
    }

    fn fig2_group() -> MemberSet {
        MemberSet::new(
            IdSpace::new(5),
            [0u64, 4, 8, 13, 18, 21, 26, 29]
                .iter()
                .map(|&v| Member::with_capacity(Id(v), 3))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn paper_section_3_2_example() {
        // x = 0 looks up identifier 25: level/seq 2,2 → forwards to node 18
        // (owner of x_{2,2} = 18); node 18 answers node 26 because
        // 25 ∈ (18, 26] with (x+18)_{1,2} = 24 resolving to 26.
        let g = fig2_group();
        let r = cam_lookup(&g, 0, Id(25));
        assert_eq!(g.member(r.owner).id, Id(26));
        let path_ids: Vec<u64> = r.path.iter().map(|&i| g.member(i).id.value()).collect();
        assert_eq!(path_ids, vec![0, 18]);
        assert_eq!(r.hops(), 1);
    }

    #[test]
    fn all_pairs_agree_with_oracle() {
        let g = fig2_group();
        for origin in 0..g.len() {
            for k in 0..32u64 {
                let r = cam_lookup(&g, origin, Id(k));
                assert_eq!(
                    r.owner,
                    g.owner_idx(Id(k)),
                    "origin {origin} key {k}: wrong owner"
                );
            }
        }
    }

    #[test]
    fn self_lookup_is_local() {
        let g = fig2_group();
        let r = cam_lookup(&g, 3, Id(13));
        assert_eq!(r.owner, 3);
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn single_member_owns_everything() {
        let g = MemberSet::new(IdSpace::new(5), vec![Member::with_capacity(Id(9), 3)]).unwrap();
        for k in 0..32u64 {
            let r = cam_lookup(&g, 0, Id(k));
            assert_eq!(r.owner, 0);
            assert_eq!(r.hops(), 0);
        }
    }

    #[test]
    fn heterogeneous_capacities_route_correctly() {
        let g = MemberSet::new(
            IdSpace::new(8),
            (0..40u64)
                .map(|i| Member::with_capacity(Id(i * 6 + 1), 2 + (i % 7) as u32))
                .collect(),
        )
        .unwrap();
        for origin in 0..g.len() {
            for k in (0..256u64).step_by(3) {
                let r = cam_lookup(&g, origin, Id(k));
                assert_eq!(r.owner, g.owner_idx(Id(k)), "origin {origin} key {k}");
            }
        }
    }
}
