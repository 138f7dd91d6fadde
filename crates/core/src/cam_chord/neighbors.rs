//! CAM-Chord neighbor-identifier arithmetic (paper, Section 3.1).
//!
//! Node `x` with capacity `c` has neighbor identifiers
//! `x_{i,j} = (x + j·c^i) mod N` for sequence numbers `j ∈ [1..c−1]` and
//! levels `i ≥ 0` with `j·c^i < N`. The *level* and *sequence number* of an
//! arbitrary identifier `k` with respect to `x` (equations (1)–(2)) are
//! `i = ⌊log(k−x)/log c⌋`, `j = ⌊(k−x)/c^i⌋`, which make `x_{i,j}` the
//! neighbor identifier counter-clockwise closest to `k`.

use cam_overlay::MemberSet;
use cam_ring::math::{level, Level};
use cam_ring::{Id, IdSpace};

/// All neighbor identifiers of `x` (in increasing clockwise offset), given
/// capacity `c`.
///
/// The list contains every `x + j·c^i` with `j ∈ [1..c−1]`, `j·c^i < N`.
/// Several identifiers usually resolve (via `owner`) to the same physical
/// node — that is the disparity between the `O(c·log N/log c)` identifier
/// count and the `O(c·log n/log c)` neighbor count the paper footnotes.
///
/// # Panics
///
/// Panics if `c < 2`.
///
/// # Example
///
/// ```
/// use cam_core::cam_chord::neighbors::neighbor_targets;
/// use cam_ring::{Id, IdSpace};
///
/// // Paper Figure 2: x = 0, c = 3, N = 32 → offsets 1,2,3,6,9,18,27.
/// let targets = neighbor_targets(IdSpace::new(5), Id(0), 3);
/// let offsets: Vec<u64> = targets.iter().map(|t| t.value()).collect();
/// assert_eq!(offsets, vec![1, 2, 3, 6, 9, 18, 27]);
/// ```
pub fn neighbor_targets(space: IdSpace, x: Id, c: u32) -> Vec<Id> {
    let mut out = Vec::new();
    for_each_neighbor_target(space, x, c, |t| out.push(t));
    out
}

/// Visits every neighbor identifier of `x` in increasing clockwise offset,
/// without allocating — the iteration underlying [`neighbor_targets`].
///
/// The visit order (offsets `j·c^i` strictly increasing) is what lets
/// callers deduplicate resolved owners by comparing adjacent visits only:
/// walking clockwise from `x`, each member owns one consecutive run of
/// targets.
///
/// # Panics
///
/// Panics if `c < 2`.
pub fn for_each_neighbor_target(space: IdSpace, x: Id, c: u32, mut visit: impl FnMut(Id)) {
    assert!(c >= 2, "CAM-Chord capacity must be >= 2, got {c}");
    let c = u64::from(c);
    let n = space.size();
    let mut stride = 1u64; // c^i
    while stride < n {
        for j in 1..c {
            let off = match j.checked_mul(stride) {
                Some(o) if o < n => o,
                _ => break,
            };
            visit(space.add(x, off));
        }
        stride = match stride.checked_mul(c) {
            Some(s) => s,
            None => break,
        };
    }
}

/// The number of distinct members, other than `member` itself, that own
/// `member`'s neighbor identifiers at base `c`: its neighbor-table size.
///
/// Targets are visited in increasing clockwise offset, so owner resolution
/// walks the ring monotonically and each distinct owner occupies one
/// consecutive run of visits: counting changes between adjacent visits
/// deduplicates without a sort.
///
/// # Panics
///
/// Panics if `member` is out of range or `c < 2`.
pub fn distinct_neighbor_count(group: &MemberSet, member: usize, c: u32) -> usize {
    let mut count = 0usize;
    let mut prev = usize::MAX;
    for_each_neighbor_target(group.space(), group.id_at(member), c, |t| {
        let idx = group.owner_idx(t);
        if idx != prev {
            prev = idx;
            if idx != member {
                count += 1;
            }
        }
    });
    count
}

/// The level and sequence number of identifier `k` with respect to node `x`
/// of capacity `c` (paper equations (1)–(2)), with the level's neighbor
/// spacings `c^i` and `c^(i−1)`.
///
/// # Panics
///
/// Panics if `k == x` (the empty segment has no level) or `c < 2`.
pub fn level_of(space: IdSpace, x: Id, c: u32, k: Id) -> Level {
    level(space.seg_len(x, k), u64::from(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    const S32: IdSpace = IdSpace::PAPER;

    #[test]
    fn paper_fig2_offsets() {
        let space = IdSpace::new(5);
        let t = neighbor_targets(space, Id(0), 3);
        assert_eq!(
            t.iter().map(|i| i.value()).collect::<Vec<_>>(),
            vec![1, 2, 3, 6, 9, 18, 27]
        );
        // Anchored at a non-zero node the offsets wrap.
        let t = neighbor_targets(space, Id(29), 3);
        assert_eq!(
            t.iter().map(|i| i.value()).collect::<Vec<_>>(),
            vec![30, 31, 0, 3, 6, 15, 24]
        );
    }

    #[test]
    fn binary_capacity_degenerates_to_chord() {
        // c = 2 gives exactly the Chord finger offsets 1, 2, 4, 8, 16.
        let t = neighbor_targets(IdSpace::new(5), Id(0), 2);
        assert_eq!(
            t.iter().map(|i| i.value()).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16]
        );
    }

    #[test]
    fn count_matches_formula() {
        // For c dividing the space evenly: (c−1) per level, ⌈b/log2 c⌉
        // levels truncated to offsets < N.
        for c in [2u32, 4, 8, 16] {
            let t = neighbor_targets(S32, Id(123), c);
            let per_level = (c - 1) as usize;
            let levels = (19.0 / (c as f64).log2()).ceil() as usize;
            // Last level may be partial; bound from both sides.
            assert!(t.len() <= per_level * levels, "c={c}: {} targets", t.len());
            assert!(
                t.len() > per_level * (levels - 1),
                "c={c}: {} targets",
                t.len()
            );
        }
    }

    #[test]
    fn offsets_unique_and_in_space() {
        let t = neighbor_targets(S32, Id(7), 10);
        let mut seen = cam_ring::IdSet::default();
        for id in &t {
            assert!(S32.contains(*id));
            assert!(seen.insert(id.value()), "duplicate target {id}");
        }
    }

    #[test]
    fn level_seq_matches_paper_lookup_example() {
        let space = IdSpace::new(5);
        // §3.2: identifier x+25 w.r.t. x (c=3) has level 2, seq 2.
        let l = level_of(space, Id(0), 3, Id(25));
        assert_eq!((l.i, l.j, l.pow), (2, 2, 9));
        // w.r.t. node x+18, k−x = 7 → level 1, seq 2.
        let l = level_of(space, Id(18), 3, Id(25));
        assert_eq!((l.i, l.j, l.pow), (1, 2, 3));
        // §3.4: x−1 = 31 w.r.t. x → level 3, seq 1.
        let l = level_of(space, Id(0), 3, Id(31));
        assert_eq!((l.i, l.j, l.pow_below), (3, 1, 9));
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 2")]
    fn capacity_one_rejected() {
        neighbor_targets(S32, Id(0), 1);
    }
}
