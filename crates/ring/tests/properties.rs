//! Property-based tests for ring arithmetic and segments.

use cam_ring::math::{ceil_log, floor_log, level, pow_saturating, Level};
use cam_ring::{Id, IdSpace, Segment};
use proptest::prelude::*;

fn space_and_ids() -> impl Strategy<Value = (IdSpace, u64, u64, u64)> {
    (1u32..=62).prop_flat_map(|bits| {
        let n = 1u64 << bits;
        (Just(IdSpace::new(bits)), 0..n, 0..n, 0..n)
    })
}

proptest! {
    /// add and sub are inverses.
    #[test]
    fn add_sub_roundtrip((space, x, d, _) in space_and_ids()) {
        let id = Id(x);
        prop_assert_eq!(space.sub(space.add(id, d), d), id);
        prop_assert_eq!(space.add(space.sub(id, d), d), id);
    }

    /// seg_len(x, y) + seg_len(y, x) == N whenever x != y.
    #[test]
    fn seg_len_complement((space, x, y, _) in space_and_ids()) {
        let (x, y) = (Id(x), Id(y));
        if x == y {
            prop_assert_eq!(space.seg_len(x, y), 0);
        } else {
            prop_assert_eq!(space.seg_len(x, y) + space.seg_len(y, x), space.size());
        }
    }

    /// Distance is symmetric and at most N/2.
    #[test]
    fn distance_symmetric_bounded((space, x, y, _) in space_and_ids()) {
        let (x, y) = (Id(x), Id(y));
        prop_assert_eq!(space.distance(x, y), space.distance(y, x));
        prop_assert!(space.distance(x, y) <= space.size() / 2);
    }

    /// Every identifier is in exactly one of (x, y] and (y, x] when x != y,
    /// except the endpoints which belong to their respective segments.
    #[test]
    fn segments_partition((space, x, y, z) in space_and_ids()) {
        let (x, y, z) = (Id(x), Id(y), Id(z));
        prop_assume!(x != y);
        let in_xy = space.in_segment(z, x, y);
        let in_yx = space.in_segment(z, y, x);
        // z is in exactly one segment, unless it equals one of the endpoints,
        // in which case it is in the segment that *ends* at it.
        prop_assert!(in_xy ^ in_yx || z == x || z == y);
        if z == y {
            prop_assert!(in_xy && !in_yx);
        }
        if z == x {
            prop_assert!(in_yx && !in_xy);
        }
    }

    /// Splitting (x, k] at an interior cut m yields two disjoint segments
    /// covering it: (x, m] ∪ (m, k].
    #[test]
    fn segment_split((space, x, k, m) in space_and_ids()) {
        let (x, k, m) = (Id(x), Id(k), Id(m));
        prop_assume!(space.in_segment(m, x, k));
        let whole = Segment::new(x, k);
        let left = Segment::new(x, m);
        let right = Segment::new(m, k);
        prop_assert_eq!(left.len(space) + right.len(space), whole.len(space));
        // Membership agrees (checked against a sampled id).
        let probe = Id(space.add(x, whole.len(space) / 2).value());
        let in_whole = whole.contains(space, probe);
        let in_parts = left.contains(space, probe) || right.contains(space, probe);
        prop_assert_eq!(in_whole, in_parts);
    }

    /// floor_log/ceil_log/pow are mutually consistent.
    #[test]
    fn log_pow_consistent(value in 1u64..u64::MAX, base in 2u64..64) {
        let f = floor_log(value, base);
        prop_assert!(pow_saturating(base, f) <= value);
        prop_assert!(pow_saturating(base, f + 1) > value);
        let c = ceil_log(value, base);
        prop_assert!(pow_saturating(base, c) >= value);
        prop_assert!(c == 0 || pow_saturating(base, c - 1) < value);
    }

    /// `level` recovers dist within one c^i stride.
    #[test]
    fn level_seq_recovers(dist in 1u64..u64::MAX / 2, c in 2u64..200) {
        let Level { i, j, pow: ci, .. } = level(dist, c);
        prop_assert_eq!(ci, pow_saturating(c, i));
        prop_assert!(j >= 1 && j < c);
        prop_assert!(j * ci <= dist);
        prop_assert!(dist - j * ci < ci);
    }

    /// `(x, x]` is always empty: zero length, contains nothing — not even
    /// its own anchor — and iterates zero identifiers.
    #[test]
    fn empty_segment_contains_nothing((space, x, z, _) in space_and_ids()) {
        let seg = Segment::empty(Id(x));
        prop_assert!(seg.is_empty());
        prop_assert_eq!(seg.len(space), 0);
        prop_assert!(!seg.contains(space, Id(z)));
        prop_assert!(!seg.contains(space, Id(x)));
    }

    /// `all_but(x)` = `(x, x − 1]` is the complement of the anchor: length
    /// N − 1, containing every identifier except `x` itself.
    #[test]
    fn all_but_is_anchor_complement((space, x, z, _) in space_and_ids()) {
        let seg = Segment::all_but(space, Id(x));
        prop_assert_eq!(seg.len(space), space.size() - 1);
        prop_assert!(!seg.contains(space, Id(x)));
        prop_assert_eq!(seg.contains(space, Id(z)), z != x);
    }

    /// `(x − 1, x]` is the single-point segment: exactly `{x}`.
    #[test]
    fn single_point_segment((space, x, z, _) in space_and_ids()) {
        let seg = Segment::new(space.sub(Id(x), 1), Id(x));
        prop_assert_eq!(seg.len(space), 1);
        prop_assert!(seg.contains(space, Id(x)));
        prop_assert_eq!(seg.contains(space, Id(z)), z == x);
        prop_assert_eq!(seg.iter(space).collect::<Vec<_>>(), vec![Id(x)]);
    }

    /// Cutting a parent region at `c_x` interior points (the multicast
    /// child-region split, wrap-around included) yields child segments that
    /// sum exactly to the parent — no gap, no overlap — and whose membership
    /// union is the parent's.
    #[test]
    fn child_regions_partition_parent(
        (space, x, k, _) in space_and_ids(),
        raw_cuts in prop::collection::vec(0u64..u64::MAX, 0..6),
        probe in 0u64..u64::MAX,
    ) {
        let (x, k) = (Id(x), Id(k));
        prop_assume!(x != k);
        let parent = Segment::new(x, k);
        // Map arbitrary u64s to distinct cut points inside (x, k], sorted
        // clockwise from x; the split walks cut→cut with the last child
        // running to the parent's end — exactly the multicast assignment.
        let mut offsets: Vec<u64> = raw_cuts.iter()
            .map(|&r| 1 + r % parent.len(space))
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        let cuts: Vec<Id> = offsets.iter().map(|&d| space.add(x, d)).collect();
        let mut children = Vec::new();
        let mut from = x;
        for &cut in &cuts {
            children.push(Segment::new(from, cut));
            from = cut;
        }
        children.push(Segment::new(from, k));
        // Lengths sum exactly (the final segment may be empty when the
        // last cut is k itself — still length 0, no overlap).
        let total: u64 = children.iter().map(|c| c.len(space)).sum();
        prop_assert_eq!(total, parent.len(space));
        // Membership: every probe id is in the parent iff it is in exactly
        // one child.
        let p = space.reduce(probe);
        let owners = children.iter().filter(|c| c.contains(space, p)).count();
        prop_assert_eq!(owners, usize::from(parent.contains(space, p)));
    }

    /// Segment iteration matches membership on small rings.
    #[test]
    fn iter_matches_contains(bits in 1u32..=8, x in 0u64..256, k in 0u64..256) {
        let space = IdSpace::new(bits);
        let x = space.reduce(x);
        let k = space.reduce(k);
        let seg = Segment::new(x, k);
        let members: Vec<Id> = seg.iter(space).collect();
        prop_assert_eq!(members.len() as u64, seg.len(space));
        for v in 0..space.size() {
            let id = Id(v);
            prop_assert_eq!(members.contains(&id), seg.contains(space, id));
        }
    }
}

#[test]
fn hash_spread_is_roughly_uniform() {
    // 4096 hashed ids over a 2^19 ring should occupy distinct positions and
    // cover all four quadrants — a sanity check, not a statistical test.
    let space = IdSpace::PAPER;
    let mut quadrant = [0usize; 4];
    let mut seen = cam_ring::IdSet::default();
    for i in 0..4096u32 {
        let id = space.hash_to_id(format!("member-{i}").as_bytes());
        seen.insert(id);
        quadrant[(id.value() * 4 / space.size()) as usize] += 1;
    }
    assert!(seen.len() > 4000, "almost no collisions expected");
    for (q, &count) in quadrant.iter().enumerate() {
        assert!(count > 512, "quadrant {q} suspiciously empty: {count}");
    }
}
