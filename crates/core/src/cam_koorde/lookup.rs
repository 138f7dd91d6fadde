//! The CAM-Koorde `LOOKUP` routine (paper, Section 4.2).
//!
//! Routing follows chains of neighbors whose identifiers share
//! progressively more **ps-common bits** with the key — Definition 1: `x`
//! and `k` share `l` ps-common bits when an `l`-bit *prefix* of `x` equals
//! the `l`-bit *suffix* of `k`. Each hop substitutes the next few bits of
//! `k` into the top of the identifier (a right shift), preferring the
//! third neighbor group (widest shift), then the second, then the basic
//! group (one bit).
//!
//! ## Sparse rings and the chain identifier
//!
//! With `n ≪ N` the *actual* node reached at each hop is the owner
//! (successor) of the computed neighbor identifier, and its low-order bits
//! differ from the ideal chain. The paper handles this by keeping the
//! *chain of neighbor identifiers* exact: "we still calculate the chain of
//! neighbor identifiers in the above way, which essentially transforms
//! identifier `x` to identifier `k` in a series of steps … once the next
//! neighbor identifier `y` on the chain is calculated, the request is
//! forwarded to `ŷ`, which in turn calculates its neighbor identifier that
//! should be the next on the forwarding path". The implementation
//! therefore threads the exact chain identifier (and how many key bits it
//! has absorbed) through the route — the right-shift analogue of Koorde's
//! imaginary node — and forwards each step to the owner of the real node's
//! corresponding derived neighbor. Once all `b` bits are absorbed the
//! chain identifier *is* `k` and the current node is (almost always) at
//! the owner; any residual displacement is closed by predecessor/successor
//! steps (the paper's lines 10–13).

use cam_overlay::{LookupResult, MemberSet};
use cam_ring::math::floor_log;
use cam_ring::{Id, IdSpace};

/// Number of ps-common bits shared by `x` and `k` (Definition 1): the
/// largest `l` such that the `l`-bit prefix of `x` equals the `l`-bit
/// suffix of `k`.
///
/// # Example
///
/// ```
/// use cam_core::cam_koorde::lookup::ps_common_bits;
/// use cam_ring::{Id, IdSpace};
///
/// let space = IdSpace::new(6);
/// // x = 100100₂, k = ...100₂: prefix "100" == suffix "100" → 3 bits.
/// assert_eq!(ps_common_bits(space, Id(0b100100), Id(0b000100)), 3);
/// // Identical identifiers share all b bits.
/// assert_eq!(ps_common_bits(space, Id(17), Id(17)), 6);
/// ```
pub fn ps_common_bits(space: IdSpace, x: Id, k: Id) -> u32 {
    let b = space.bits();
    for l in (1..=b).rev() {
        let prefix = x.value() >> (b - l);
        let suffix = k.value() & ((1u64 << l) - 1);
        if prefix == suffix {
            return l;
        }
    }
    0
}

/// The de Bruijn step a node of capacity `c` takes toward `key` when `l`
/// key bits are already absorbed: `(shift width, substituted bits i)`.
///
/// Prefers the third group (`s+1`-bit shift, available only when the
/// needed `i` is within the group's budget `t'`), then the second group
/// (`s`-bit shift, all `2^s` values present), then the basic group (1 bit,
/// always present). Mirrors the group preference of §4.2. The shift never
/// exceeds `max_width` — the key bits still missing — otherwise the final
/// hop would overshoot and leave the identifier misaligned by a shift.
pub(crate) fn debruijn_step(c: u32, key: Id, l: u32, max_width: u32) -> (u32, u64) {
    debug_assert!(max_width >= 1);
    let remaining = u64::from(c.max(4)) - 4;
    let next_bits = |width: u32| (key.value() >> l) & ((1u64 << width) - 1);
    if remaining > 0 {
        let s = floor_log(remaining, 2);
        let t: u64 = if s > 1 { 1 << s } else { 0 };
        let t_prime = remaining - t;
        let s_prime = s + 1;
        if t_prime > 0 && s_prime <= max_width {
            let i = next_bits(s_prime);
            if i < t_prime {
                return (s_prime, i);
            }
        }
        if t > 0 && s <= max_width {
            let i = next_bits(s);
            debug_assert!(i < t);
            return (s, i);
        }
    }
    (1, next_bits(1))
}

/// Routes a CAM-Koorde lookup for `key` starting at member `origin`.
///
/// Correctness is unconditional (the answer always matches the ring
/// oracle): after the chain identifier has absorbed all `b` key bits the
/// route degrades to a monotone ring walk toward the key, which always
/// terminates — and almost always after O(1) extra hops, because the chain
/// lands next to the owner.
///
/// # Panics
///
/// Panics if `origin` is out of range.
pub fn lookup(group: &MemberSet, origin: usize, key: Id) -> LookupResult {
    let space = group.space();
    let b = space.bits();
    let mut cur = origin;
    let mut path = vec![origin];
    // How many key bits the chain identifier has absorbed so far (the
    // chain itself need not be materialized: the substituted bits are the
    // same for the chain and for the real node's derived neighbor).
    let mut absorbed = ps_common_bits(space, group.member(origin).id, key);
    // Owner resolution occasionally carries into the matched prefix and
    // destroys it (a big gap right at a bit boundary). The paper's routine
    // is stateless — every node recomputes its ps-common bits (line 5) —
    // so it self-heals by simply starting a fresh chain; we allow a few
    // such restarts before falling back to a pure ring walk.
    let mut restarts = 0u32;
    let spacing = (space.size() / group.len() as u64).max(1);

    loop {
        // Line 1: k ∈ (predecessor(x), x] → x; line 3:
        // k ∈ (x, successor(x)] → successor.
        if let Some(owner) = group.local_owner(cur, key) {
            return LookupResult { owner, path };
        }
        let x = group.id_at(cur);

        // Chain exhausted but the walk landed far from the key: the match
        // was destroyed mid-chain; restart it from this node's genuine
        // ps-common bits (bounded times).
        if absorbed >= b && restarts < 4 && space.distance(x, key) > 8 * spacing {
            absorbed = ps_common_bits(space, x, key);
            restarts += 1;
        }

        let next = if absorbed < b {
            // De Bruijn hop: substitute the next key bits into the top of
            // both the chain identifier and the real node's identifier; the
            // forwarded-to node is the owner of the real derived neighbor.
            let (shift, bits) =
                debruijn_step(group.member(cur).capacity, key, absorbed, b - absorbed);
            let target = Id((bits << (b - shift)) | (x.value() >> shift));
            absorbed = (absorbed + shift).min(b);
            let idx = group.owner_idx(target);
            if idx == cur {
                ring_step(group, cur, key)
            } else {
                idx
            }
        } else {
            // Chain exhausted: the current node is adjacent to the owner
            // whp; close the gap along the ring (paper lines 10–13).
            ring_step(group, cur, key)
        };
        cur = next;
        path.push(cur);
        debug_assert!(
            path.len() <= group.len() + 6 * b as usize + 16,
            "CAM-Koorde lookup exceeded every bound"
        );
    }
}

/// The predecessor or successor of `cur`, whichever is ring-closer to the
/// key (paper lines 10–13).
fn ring_step(group: &MemberSet, cur: usize, key: Id) -> usize {
    let space = group.space();
    let pred_idx = group.prev_idx(cur);
    let succ_idx = group.next_idx(cur);
    let dp = space.distance(key, group.member(pred_idx).id);
    let ds = space.distance(key, group.member(succ_idx).id);
    if dp < ds {
        pred_idx
    } else {
        succ_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;

    fn fig4_group() -> MemberSet {
        // The paper's Figure 4 topology: 16 nodes on a 64-identifier ring.
        MemberSet::new(
            IdSpace::new(6),
            [
                1u64, 4, 9, 12, 18, 21, 25, 30, 35, 36, 37, 41, 46, 50, 57, 61,
            ]
            .iter()
            .map(|&v| Member::with_capacity(Id(v), 10))
            .collect(),
        )
        .unwrap()
    }

    /// Lines 10–13 step to whichever neighbor is ring-closer to the key.
    /// An exact tie goes to the successor. That choice is a convention,
    /// pinned here because hop counts depend on it: from member 8 toward
    /// key 24 below, the successor's walk is 8 → 16 → 20 and the
    /// predecessor's 8 → 0.
    #[test]
    fn ring_step_breaks_a_distance_tie_toward_the_successor() {
        let ids = [0u64, 8, 16, 20];
        let group = MemberSet::new(
            IdSpace::new(5),
            ids.iter()
                .map(|&v| Member::with_capacity(Id(v), 4))
                .collect(),
        )
        .unwrap();
        // Key 24 is 8 away from both of member 8's neighbors, 0 and 16.
        assert_eq!(ids[ring_step(&group, 1, Id(24))], 16);
        // Off the tie the closer neighbor wins.
        assert_eq!(ids[ring_step(&group, 1, Id(25))], 0);
        assert_eq!(ids[ring_step(&group, 1, Id(23))], 16);
    }

    #[test]
    fn ps_common_basics() {
        let space = IdSpace::new(6);
        assert_eq!(ps_common_bits(space, Id(0b100100), Id(0b100100)), 6);
        assert_eq!(ps_common_bits(space, Id(0b100000), Id(0b111101)), 1);
        // Prefix 10 == suffix 10 of ...10.
        assert_eq!(ps_common_bits(space, Id(0b101111), Id(0b000010)), 2);
        // l = 0 when even the first bit mismatches (prefix 1, suffix 0).
        assert_eq!(ps_common_bits(space, Id(0b100000), Id(0b000000)), 0);
    }

    #[test]
    fn debruijn_step_group_preference() {
        // c = 10: remaining 6, s = 2, t = 4, t' = 2, s' = 3.
        // key bits 0b001 → i = 1 < t' = 2: third group, 3-bit shift.
        assert_eq!(debruijn_step(10, Id(0b001), 0, 19), (3, 1));
        // key bits 0b111 → i = 7 ≥ t': fall back to second group (2 bits).
        assert_eq!(debruijn_step(10, Id(0b111), 0, 19), (2, 3));
        // c = 4: no optional groups → basic, 1 bit.
        assert_eq!(debruijn_step(4, Id(0b1), 0, 19), (1, 1));
        assert_eq!(debruijn_step(4, Id(0b0), 0, 19), (1, 0));
        // c = 6: s = 1 → no second group; s' = 2, t' = 2.
        assert_eq!(debruijn_step(6, Id(0b01), 0, 19), (2, 1));
        assert_eq!(
            debruijn_step(6, Id(0b11), 0, 19),
            (1, 1),
            "i=3 ≥ t'=2 → basic"
        );
        // Offset l: bits are taken above the already-absorbed suffix.
        assert_eq!(debruijn_step(4, Id(0b10), 1, 18), (1, 1));
        // One bit left to absorb: even a capacity-10 node must take a
        // 1-bit basic-group step instead of overshooting.
        assert_eq!(debruijn_step(10, Id(1 << 18), 18, 1), (1, 1));
        assert_eq!(debruijn_step(10, Id(0), 18, 1), (1, 0));
    }

    #[test]
    fn all_pairs_agree_with_oracle() {
        let g = fig4_group();
        for origin in 0..g.len() {
            for k in 0..64u64 {
                let r = lookup(&g, origin, Id(k));
                assert_eq!(
                    r.owner,
                    g.owner_idx(Id(k)),
                    "origin {origin} key {k}: wrong owner"
                );
            }
        }
    }

    #[test]
    fn local_and_successor_shortcuts() {
        let g = fig4_group();
        let i36 = g.index_of(Id(36)).unwrap();
        // 36 owns (35, 36].
        assert_eq!(lookup(&g, i36, Id(36)).hops(), 0);
        // 37 = successor of 36 owns (36, 37].
        let r = lookup(&g, i36, Id(37));
        assert_eq!(g.member(r.owner).id, Id(37));
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn random_networks_route_correctly() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..8 {
            let space = IdSpace::new(12);
            let mut ids = std::collections::BTreeSet::new();
            while ids.len() < 200 {
                ids.insert(rng.gen_range(0..space.size()));
            }
            let g = MemberSet::new(
                space,
                ids.iter()
                    .map(|&v| Member::with_capacity(Id(v), 4 + (v % 9) as u32))
                    .collect(),
            )
            .unwrap();
            for _ in 0..50 {
                let origin = rng.gen_range(0..g.len());
                let key = Id(rng.gen_range(0..space.size()));
                let r = lookup(&g, origin, key);
                assert_eq!(r.owner, g.owner_idx(key), "trial {trial}");
            }
        }
    }

    #[test]
    fn hops_scale_with_bits_over_log_capacity() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let space = IdSpace::new(19);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < 4000 {
            ids.insert(rng.gen_range(0..space.size()));
        }
        let g = MemberSet::new(
            space,
            ids.iter()
                .map(|&v| Member::with_capacity(Id(v), 8))
                .collect(),
        )
        .unwrap();
        let mut total = 0u64;
        let trials = 200;
        for _ in 0..trials {
            let origin = rng.gen_range(0..g.len());
            let key = Id(rng.gen_range(0..space.size()));
            total += u64::from(lookup(&g, origin, key).hops());
        }
        let avg = total as f64 / trials as f64;
        // c = 8 shifts ~2 bits/hop over b = 19 bits → ≈ 10 de Bruijn hops
        // plus a short ring walk; insist on well under 2× that.
        assert!(avg < 18.0, "average hops {avg} too high");
        assert!(avg > 3.0, "suspiciously short paths: {avg}");
    }
}
