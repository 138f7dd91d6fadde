//! Proximity Neighbor Selection for CAM-Chord (paper, Section 5.2).
//!
//! The paper observes that CAM-Chord inherits Chord's neighbor-selection
//! freedom: "a node x can choose any node whose identifier belongs to the
//! segment `[x + j·c_x^i, x + (j+1)·c_x^i)` as the neighbor `x_{i,j}`.
//! Given this freedom, some heuristics (e.g. least delay first) may be
//! used to choose neighbors to promote geographic clustering", and that
//! the lookup and multicast routines "need to be modified superficially".
//!
//! [`ProximityCamChord`] implements exactly that: every `(i, j)` slot is
//! filled with the *lowest-latency* member whose identifier falls in the
//! slot's interval (falling back to the interval's owner when it is
//! empty), under a pluggable [`DelayFn`]. Lookup becomes greedy over the
//! chosen table (progress is still guaranteed: any chosen neighbor in
//! `(x, k)` strictly advances), and multicast splits the region across the
//! chosen cut points exactly like the base routine.
//!
//! The Ext-G experiment measures what this buys: same hop counts, a
//! sizeable reduction in *weighted* (delay) path length.

use cam_overlay::stream::region_walk;
use cam_overlay::{DeliverySink, LookupResult, MemberSet, MulticastTree, StaticOverlay};
use cam_ring::Id;

use super::multicast::split_at_cuts;

/// Pairwise one-way delay between member *indices*, in milliseconds.
pub type DelayFn<'a> = dyn Fn(usize, usize) -> f64 + Sync + 'a;

/// CAM-Chord with least-delay-first neighbor selection (paper §5.2).
pub struct ProximityCamChord<'a> {
    group: MemberSet,
    delay: &'a DelayFn<'a>,
    /// Per member: chosen neighbors as (clockwise offset of slot start,
    /// member index), ascending by offset, deduplicated by member.
    table: Vec<Vec<(u64, usize)>>,
}

impl<'a> ProximityCamChord<'a> {
    /// Resolves the proximity-aware neighbor tables.
    ///
    /// For each slot `[x + j·c^i, x + (j+1)·c^i)` the chosen neighbor is
    /// the member inside the interval with the least `delay(x, ·)`; empty
    /// intervals keep the plain CAM-Chord choice (the owner of the
    /// interval start, who may live outside it).
    pub fn new(group: MemberSet, delay: &'a DelayFn<'a>) -> Self {
        let space = group.space();
        let n_space = space.size();
        let mut table = Vec::with_capacity(group.len());
        for x_idx in 0..group.len() {
            let m = group.member(x_idx);
            let c = u64::from(m.capacity);
            let mut entries: Vec<(u64, usize)> = Vec::new();
            let mut stride = 1u64;
            while stride < n_space {
                for j in 1..c {
                    let lo = match j.checked_mul(stride) {
                        Some(o) if o < n_space => o,
                        _ => break,
                    };
                    let hi = (lo + stride).min(n_space); // [x+lo, x+hi)
                    let start = space.add(m.id, lo);
                    // Scan members inside [start, start+len) for min delay.
                    let len = hi - lo;
                    let mut best: Option<(f64, usize)> = None;
                    let mut idx = group.owner_idx(start);
                    loop {
                        let cand = group.member(idx);
                        if space.seg_len(start, cand.id) >= len {
                            break; // left the interval
                        }
                        if idx != x_idx {
                            let d = (self_delay(delay, x_idx, idx), idx);
                            if best.is_none_or(|b| d < b) {
                                best = Some(d);
                            }
                        }
                        let next = group.next_idx(idx);
                        if next == idx || next == group.owner_idx(start) {
                            break; // wrapped around a tiny group
                        }
                        idx = next;
                    }
                    let chosen = match best {
                        Some((_, idx)) => idx,
                        None => group.owner_idx(start), // empty interval
                    };
                    if chosen != x_idx {
                        entries.push((lo, chosen));
                    }
                }
                stride = match stride.checked_mul(c) {
                    Some(s) => s,
                    None => break,
                };
            }
            entries.sort_unstable();
            table.push(entries);
        }
        ProximityCamChord {
            group,
            delay,
            table,
        }
    }

    /// Total one-way delay along the tree path from the source to
    /// `member`, in milliseconds (`None` if unreached).
    pub fn path_delay_ms(&self, tree: &MulticastTree, member: usize) -> Option<f64> {
        let mut total = 0.0;
        let mut cur = member;
        while let Some(parent) = tree.parent_of(cur) {
            total += (self.delay)(parent, cur);
            cur = parent;
        }
        tree.hops_to(member).map(|_| total)
    }

    /// Mean tree-path delay over all receivers, in milliseconds.
    pub fn mean_path_delay_ms(&self, tree: &MulticastTree) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for m in 0..tree.len() {
            if m != tree.source() {
                if let Some(d) = self.path_delay_ms(tree, m) {
                    total += d;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

fn self_delay(delay: &DelayFn<'_>, a: usize, b: usize) -> f64 {
    let d = delay(a, b);
    debug_assert!(d.is_finite() && d >= 0.0, "invalid delay {d}");
    d
}

impl StaticOverlay for ProximityCamChord<'_> {
    fn members(&self) -> &MemberSet {
        &self.group
    }

    /// Greedy lookup over the chosen table: hop to the chosen neighbor
    /// counter-clockwise closest to the key (the "superficial
    /// modification" of footnote 5).
    fn lookup(&self, origin: usize, key: Id) -> LookupResult {
        let space = self.group.space();
        let mut cur = origin;
        let mut path = vec![origin];
        loop {
            assert!(
                path.len() <= self.group.len() + 1,
                "proximity lookup exceeded n hops"
            );
            if let Some(owner) = self.group.local_owner(cur, key) {
                return LookupResult { owner, path };
            }
            let x = self.group.id_at(cur);
            // Furthest chosen neighbor that still precedes the key.
            let dist = space.seg_len(x, key);
            let next = self.table[cur]
                .iter()
                .rev()
                .map(|&(_, idx)| idx)
                .find(|&idx| {
                    let off = space.seg_len(x, self.group.member(idx).id);
                    off >= 1 && off < dist
                })
                .unwrap_or_else(|| self.group.next_idx(cur));
            debug_assert_ne!(next, cur);
            cur = next;
            path.push(cur);
        }
    }

    /// Region-splitting multicast across the chosen cut points (the same
    /// disjoint-partition scheme as the base routine, but each cut is the
    /// proximity-chosen member of its slot).
    fn multicast_into(&self, source: usize, sink: &mut dyn DeliverySink) {
        let space = self.group.space();
        let mut cuts: Vec<usize> = Vec::new();
        region_walk(&self.group, source, sink, |node, k, picks| {
            let x = self.group.id_at(node);
            // Candidate cuts: chosen neighbors inside (x, k], plus the
            // successor.
            cuts.clear();
            cuts.extend(
                self.table[node]
                    .iter()
                    .map(|&(_, idx)| idx)
                    .chain(std::iter::once(self.group.next_idx(node)))
                    .filter(|&idx| {
                        idx != node && space.in_segment(self.group.id_at(idx), x, k)
                    }),
            );
            split_at_cuts(
                space,
                x,
                k,
                self.group.capacity_at(node) as usize,
                &mut cuts,
                |idx| self.group.id_at(idx),
                |child, end| picks.push((child, end)),
            );
        });
    }

    fn neighbor_count(&self, member: usize) -> usize {
        let mut ids: Vec<usize> = self.table[member].iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    fn name(&self) -> &'static str {
        "CAM-Chord (proximity)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_overlay::Member;
    use cam_ring::math::pow_saturating;
    use cam_ring::IdSpace;
    use rand::{Rng, SeedableRng};

    fn group(n: usize, seed: u64) -> MemberSet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let space = IdSpace::new(14);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < n {
            ids.insert(rng.gen_range(0..space.size()));
        }
        MemberSet::new(
            space,
            ids.iter()
                .map(|&v| Member::with_capacity(Id(v), 4 + (v % 6) as u32))
                .collect(),
        )
        .unwrap()
    }

    fn coords(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn planar_delay(coords: &[(f64, f64)]) -> impl Fn(usize, usize) -> f64 + Sync + '_ {
        move |a, b| {
            let (xa, ya) = coords[a];
            let (xb, yb) = coords[b];
            5.0 + 100.0 * ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt()
        }
    }

    #[test]
    fn multicast_complete_and_capacity_bounded() {
        let g = group(300, 1);
        let pos = coords(g.len(), 2);
        let delay = planar_delay(&pos);
        let overlay = ProximityCamChord::new(g.clone(), &delay);
        for src in [0usize, 100, 299] {
            let tree = overlay.multicast_tree(src);
            assert!(tree.is_complete(), "src {src}");
            tree.check_invariants(&g).unwrap();
        }
    }

    #[test]
    fn lookup_matches_oracle() {
        let g = group(200, 3);
        let pos = coords(g.len(), 4);
        let delay = planar_delay(&pos);
        let overlay = ProximityCamChord::new(g.clone(), &delay);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let origin = rng.gen_range(0..g.len());
            let key = Id(rng.gen_range(0..g.space().size()));
            assert_eq!(overlay.lookup(origin, key).owner, g.owner_idx(key));
        }
    }

    #[test]
    fn chosen_neighbors_stay_in_their_slots() {
        let g = group(400, 6);
        let pos = coords(g.len(), 7);
        let delay = planar_delay(&pos);
        let overlay = ProximityCamChord::new(g.clone(), &delay);
        let space = g.space();
        for m in [0usize, 37, 399] {
            let x = g.member(m).id;
            let c = u64::from(g.member(m).capacity);
            for &(lo, idx) in &overlay.table[m] {
                // Slot [x+lo, x+lo+stride) where stride = c^level of lo.
                let level = cam_ring::math::floor_log(lo, c);
                let stride = pow_saturating(c, level);
                let off = space.seg_len(x, g.member(idx).id);
                // Either inside the slot, or the fallback owner just past it.
                assert!(
                    (lo..lo + stride).contains(&off) || off >= lo,
                    "member {m}: neighbor at offset {off} for slot {lo}+{stride}"
                );
            }
        }
    }

    #[test]
    fn proximity_reduces_mean_path_delay() {
        let g = group(500, 8);
        let pos = coords(g.len(), 9);
        let delay = planar_delay(&pos);
        let prox = ProximityCamChord::new(g.clone(), &delay);
        let plain = crate::CamChord::new(g.clone());

        let mut prox_ms = 0.0;
        let mut plain_ms = 0.0;
        for src in [0usize, 123, 456] {
            let pt = prox.multicast_tree(src);
            assert!(pt.is_complete());
            prox_ms += prox.mean_path_delay_ms(&pt);
            let bt = plain.multicast_tree(src);
            plain_ms += prox.mean_path_delay_ms(&bt);
        }
        assert!(
            prox_ms < plain_ms,
            "least-delay-first should cut path delay: {prox_ms:.1} vs {plain_ms:.1}"
        );
    }

    #[test]
    fn name_and_counts() {
        let g = group(50, 10);
        let pos = coords(g.len(), 11);
        let delay = planar_delay(&pos);
        let overlay = ProximityCamChord::new(g.clone(), &delay);
        assert_eq!(overlay.name(), "CAM-Chord (proximity)");
        for m in 0..g.len() {
            assert!(overlay.neighbor_count(m) >= 1);
        }
    }
}
