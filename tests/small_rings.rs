//! Exhaustive small rings through the shared walks and the shared rules.
//!
//! Every member subset of size 1..=5 of a 2^4 identifier space, every
//! source, all five static overlays: the delivery log a walk feeds its sink
//! is checked edge by edge, and the streaming summary is held to the
//! materialized tree bit for bit. This is the oracle for
//! `cam_overlay::stream::{region_walk, flood_walk}` and each overlay's
//! child rule. Over the same rings, every origin and every key, the Chord
//! baseline must route and count neighbors exactly as CAM-Chord does with
//! every capacity fixed at Chord's base, and CAM-Chord's capped child rule,
//! which stops once its region holds no member, must pick exactly what the
//! full walk of lines 4–15 picks.

use cam::chord::Chord;
use cam::core::cam_chord::multicast::select_children_capped_into;
use cam::core::cam_chord::ProximityCamChord;
use cam::core::cam_koorde::multicast::FloodEdges;
use cam::koorde::Koorde;
use cam::overlay::stream::{adopt_owner, RegionChild};
use cam::overlay::DeliverySink;
use cam::prelude::*;
use cam::ring::math::{floor_log, pow_saturating};

/// Records every delivery and accepts all of them, so a walk that repeats
/// a child is seen rather than suppressed.
struct Log(Vec<(usize, usize, u32)>);

impl DeliverySink for Log {
    fn deliver(&mut self, parent: usize, child: usize, hops: u32) -> bool {
        self.0.push((parent, child, hops));
        true
    }
}

fn delay(a: usize, b: usize) -> f64 {
    1.0 + ((a * 7 + b * 13) % 11) as f64
}

type Build = fn(MemberSet) -> Box<dyn StaticOverlay>;

fn floor(g: MemberSet) -> Box<dyn StaticOverlay> {
    Box::new(CamChord::new(g).with_selection(ChildSelection::Floor))
}

fn proximity(g: MemberSet) -> Box<dyn StaticOverlay> {
    Box::new(ProximityCamChord::new(g, &delay))
}

fn bidirectional(g: MemberSet) -> Box<dyn StaticOverlay> {
    Box::new(CamKoorde::with_edges(g, FloodEdges::Bidirectional))
}

/// `(name, fan-out bounded by c_x, build)`: the bound holds for the CAMs on
/// out-edges. Region overlays run at c ∈ {2, 3, 4}, flood overlays at c = 4.
const REGION: [(&str, bool, Build); 5] = [
    ("CAM-Chord ceil", true, |g| Box::new(CamChord::new(g))),
    ("CAM-Chord floor", true, floor),
    ("Chord base 2", false, |g| Box::new(Chord::new(g, 2))),
    ("Chord base 4", false, |g| Box::new(Chord::new(g, 4))),
    ("CAM-Chord proximity", true, proximity),
];
const FLOOD: [(&str, bool, Build); 3] = [
    ("CAM-Koorde out", true, |g| Box::new(CamKoorde::new(g))),
    ("CAM-Koorde bidirectional", false, bidirectional),
    ("Koorde", false, |g| Box::new(Koorde::new(g, 2))),
];

/// `region`: every subtree must be one clockwise run of members starting at
/// its root — sibling regions disjoint and covering.
fn check(overlay: &dyn StaticOverlay, source: usize, region: bool, bounded: bool, at: &str) {
    let group = overlay.members();
    let n = group.len();
    let mut log = Log(Vec::new());
    overlay.multicast_into(source, &mut log);

    // Exactly once, one hop below the parent, grouped by parent.
    let mut hops = vec![None; n];
    let mut parent = vec![None; n];
    let mut fanout = vec![0u32; n];
    hops[source] = Some(0);
    for (i, &(p, c, h)) in log.0.iter().enumerate() {
        assert_eq!(hops[c], None, "{at}: {c} delivered twice");
        assert_eq!(hops[p], Some(h - 1), "{at}: hops({c}) != hops({p}) + 1");
        assert!(
            fanout[p] == 0 || log.0[i - 1].0 == p,
            "{at}: deliveries of {p} not back to back"
        );
        hops[c] = Some(h);
        parent[c] = Some(p);
        fanout[p] += 1;
    }
    assert!(
        hops.iter().all(Option::is_some),
        "{at}: a member was missed"
    );
    if bounded {
        for (m, &children) in fanout.iter().enumerate() {
            assert!(children <= group.capacity_at(m), "{at}: {m} over c_x");
        }
    }
    if region {
        for root in 0..n {
            let below = (0..n).filter(|&m| {
                std::iter::successors(parent[m], |&a| parent[a]).any(|a| a == root)
            });
            let offsets: Vec<usize> = below.map(|m| (m + n - root) % n).collect();
            assert!(
                offsets.iter().all(|&off| off <= offsets.len()),
                "{at}: subtree of {root} is not the run of members after it: {offsets:?}"
            );
        }
    }

    // Both sinks of the same walk agree, f64 bits included.
    let tree = overlay.multicast_tree(source);
    assert!(tree.is_complete(), "{at}");
    let (stats, tput) = overlay.multicast_stats(source);
    assert_eq!(stats, tree.stats(), "{at}");
    assert_eq!(
        tput.to_bits(),
        tree.bottleneck_throughput_kbps(group).to_bits(),
        "{at}"
    );
}

/// The member subsets of size 1..=5 of a 2^4 identifier space, as masks.
fn masks() -> impl Iterator<Item = u32> {
    (1u32..1 << 16).filter(|m| m.count_ones() <= 5)
}

/// The ring `mask` with every member at capacity `c`.
fn ring(mask: u32, c: u32) -> MemberSet {
    let members = (0..16u64)
        .filter(|id| mask >> id & 1 == 1)
        .map(|id| Member {
            id: Id(id),
            capacity: c,
            upload_kbps: 100.0 * (1 + id) as f64,
        })
        .collect();
    MemberSet::new(IdSpace::new(4), members).unwrap()
}

#[test]
fn every_small_ring_every_source_every_overlay() {
    let cases = REGION
        .iter()
        .flat_map(|case| [2, 3, 4].map(|c| (case, c, true)))
        .chain(FLOOD.iter().map(|case| (case, 4, false)));
    for ((name, bounded, build), c, region) in cases {
        for mask in masks() {
            let overlay = build(ring(mask, c));
            for source in 0..overlay.members().len() {
                let at = format!("{name} c={c} ring {mask:#06x} source {source}");
                check(overlay.as_ref(), source, region, *bounded, &at);
            }
        }
    }
}

/// Chord at base `k` is CAM-Chord with every capacity fixed at `k`,
/// whatever capacity `c` the ring's members declare: the same lookup path
/// for every origin and key, and the same neighbor count.
#[test]
fn chord_is_cam_chord_at_its_base_on_every_small_ring() {
    for mask in masks() {
        for c in [2, 3, 4] {
            for k in [2, 3, 4] {
                let chord = Chord::new(ring(mask, c), k);
                let cam = CamChord::new(ring(mask, k));
                for origin in 0..cam.members().len() {
                    let at = format!("c={c} k={k} ring {mask:#06x} origin {origin}");
                    assert_eq!(
                        chord.neighbor_count(origin),
                        cam.neighbor_count(origin),
                        "{at}"
                    );
                    for key in 0..16 {
                        assert_eq!(
                            chord.lookup(origin, Id(key)),
                            cam.lookup(origin, Id(key)),
                            "{at} key {key}"
                        );
                    }
                }
            }
        }
    }
}

/// The capped child rule as it was before it learned to stop early: every
/// step of lines 6–15 runs, whether or not its region still holds a member.
fn select_every_step(
    group: &MemberSet,
    x_idx: usize,
    k: Id,
    cap: u32,
    selection: ChildSelection,
    out: &mut Vec<RegionChild>,
) {
    out.clear();
    let space = group.space();
    let x = group.id_at(x_idx);
    let c = u64::from(cap);
    if space.seg_len(x, k) == 0 {
        return;
    }
    let mut k_prime = k;
    let mut consider = |target: Id| adopt_owner(group, x, target, &mut k_prime, out);
    if cap < 2 {
        consider(space.add(x, 1));
        return;
    }
    let i = floor_log(space.seg_len(x, k), c);
    let ci = pow_saturating(c, i);
    let j = space.seg_len(x, k) / ci;
    for m in (1..=j).rev() {
        consider(space.add(x, m * ci));
    }
    if i >= 1 && c > j + 1 {
        let ci1 = pow_saturating(c, i - 1);
        let b = c - j;
        for t in 1..=c - j - 1 {
            let a = c * (c - j - t);
            let seq = match selection {
                ChildSelection::Ceil => a.div_ceil(b),
                ChildSelection::Floor => a / b,
            };
            if seq != 0 {
                consider(space.add(x, seq * ci1));
            }
        }
    }
    consider(space.add(x, 1));
}

/// Stopping once `(x, k′]` no longer reaches `x`'s successor changes no
/// pick: every ring, member and region end, caps 0..=4, both roundings.
#[test]
fn capped_selection_stops_early_without_changing_a_pick() {
    let (mut fast, mut full) = (Vec::new(), Vec::new());
    for mask in masks() {
        let group = ring(mask, 2);
        for x in 0..group.len() {
            for k in 0..16 {
                for cap in 0..=4 {
                    for selection in [ChildSelection::Ceil, ChildSelection::Floor] {
                        select_children_capped_into(
                            &group,
                            x,
                            Id(k),
                            cap,
                            selection,
                            &mut fast,
                        );
                        select_every_step(&group, x, Id(k), cap, selection, &mut full);
                        assert_eq!(
                            fast, full,
                            "ring {mask:#06x} member {x} k {k} cap {cap} {selection:?}"
                        );
                    }
                }
            }
        }
    }
}
