//! Group membership: hosts on the identifier ring.

use std::fmt;

use cam_ring::{Id, IdSpace};
use serde::{Deserialize, Serialize};

/// One member of the multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Member {
    /// Position on the identifier ring (unique within a group).
    pub id: Id,
    /// Capacity `c_x`: the maximum number of direct children this host is
    /// willing to forward multicast messages to (paper, Section 2). Made
    /// roughly proportional to upload bandwidth by the workload generator.
    pub capacity: u32,
    /// Upload bandwidth `B_x` in kbps; determines sustainable throughput.
    pub upload_kbps: f64,
}

impl Member {
    /// Convenience constructor for tests: capacity `c`, bandwidth `c × p`
    /// with `p = 100` kbps.
    pub fn with_capacity(id: Id, capacity: u32) -> Member {
        Member {
            id,
            capacity,
            upload_kbps: capacity as f64 * 100.0,
        }
    }
}

impl fmt::Display for Member {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "member(id={}, c={}, B={}kbps)",
            self.id, self.capacity, self.upload_kbps
        )
    }
}

/// Error returned by [`MemberSet::new`] when construction is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildMemberSetError {
    /// Two members mapped to the same identifier.
    DuplicateId(Id),
    /// The group was empty.
    Empty,
    /// A member's identifier does not fit in the identifier space.
    IdOutOfSpace(Id),
    /// A member declared capacity < 2 (no overlay in this workspace can use
    /// capacity 0 or 1 nodes as internal tree nodes, and CAM-Chord needs
    /// base ≥ 2 for its level arithmetic).
    CapacityTooSmall(Id, u32),
}

impl fmt::Display for BuildMemberSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildMemberSetError::DuplicateId(id) => {
                write!(f, "duplicate member identifier {id}")
            }
            BuildMemberSetError::Empty => write!(f, "member set is empty"),
            BuildMemberSetError::IdOutOfSpace(id) => {
                write!(f, "identifier {id} outside the identifier space")
            }
            BuildMemberSetError::CapacityTooSmall(id, c) => {
                write!(f, "member {id} has capacity {c} < 2")
            }
        }
    }
}

impl std::error::Error for BuildMemberSetError {}

/// The multicast group, sorted by identifier.
///
/// Provides the ring-oracle queries every overlay needs when resolving its
/// neighbor tables: *owner* (the paper's `x̂` — the node responsible for an
/// identifier), *successor*, and *predecessor*.
///
/// # Memory layout (struct of arrays)
///
/// Members are stored as three parallel columns — `ids: Vec<u64>`,
/// `capacities: Vec<u32>`, `upload_kbps: Vec<f64>` — instead of one
/// `Vec<Member>`. Every resolution query touches *only* the identifier
/// column, so at n = 1M the hot working set is 8 MB of sorted `u64`s
/// rather than 24 MB of interleaved structs, and a bucket-index scan never
/// pulls capacities or bandwidths into cache. [`MemberSet::member`]
/// reassembles a [`Member`] by value (it is `Copy`) for callers that want
/// the row view; [`MemberSet::id_at`], [`MemberSet::capacity_at`] and
/// [`MemberSet::upload_kbps_at`] read single columns on hot paths.
///
/// Resolution is `O(1)` expected time: construction precomputes a bucket
/// index that maps the high bits of an identifier to the first member at or
/// past that bucket's start, so a query is one table lookup plus a short
/// forward scan (expected length ≤ 1 for hash-uniform identifiers, since
/// there are at least as many buckets as members). The bucket-index and
/// property tests hold it to an `O(log n)` binary-search oracle
/// (`tests/support/ring_oracle.rs`).
///
/// # Example
///
/// ```
/// use cam_overlay::{Member, MemberSet};
/// use cam_ring::{Id, IdSpace};
///
/// let space = IdSpace::new(5);
/// let ids = [0u64, 4, 8, 13, 18, 21, 26, 29]; // the paper's Figure 2 ring
/// let members: Vec<Member> = ids
///     .iter()
///     .map(|&v| Member::with_capacity(Id(v), 3))
///     .collect();
/// let group = MemberSet::new(space, members)?;
///
/// // x̂ resolution: identifier 1 is owned by node 4 (its successor).
/// assert_eq!(group.member(group.owner_idx(Id(1))).id, Id(4));
/// // A node owns its own identifier.
/// assert_eq!(group.member(group.owner_idx(Id(13))).id, Id(13));
/// // Wrap-around: identifier 30 is owned by node 0.
/// assert_eq!(group.member(group.owner_idx(Id(30))).id, Id(0));
/// # Ok::<(), cam_overlay::peer::BuildMemberSetError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemberSet {
    space: IdSpace,
    /// Sorted member identifiers — the only column resolution touches.
    ids: Vec<u64>,
    /// `capacities[i]` is the capacity of the member at `ids[i]`.
    capacities: Vec<u32>,
    /// `upload_kbps[i]` is the upload bandwidth of the member at `ids[i]`.
    upload_kbps: Vec<f64>,
    /// `buckets[b]` is the index of the first member whose identifier is
    /// `≥ b << bucket_shift`; a trailing sentinel entry equals `len()`.
    buckets: Vec<u32>,
    /// Identifier high-bits selecting a bucket: `bucket = id >> shift`.
    bucket_shift: u32,
}

impl MemberSet {
    /// Builds a group from members in any order.
    ///
    /// # Errors
    ///
    /// Returns an error if the group is empty, an identifier repeats or is
    /// out of space, or a capacity is below 2.
    pub fn new(space: IdSpace, mut members: Vec<Member>) -> Result<Self, BuildMemberSetError> {
        if members.is_empty() {
            return Err(BuildMemberSetError::Empty);
        }
        for m in &members {
            if !space.contains(m.id) {
                return Err(BuildMemberSetError::IdOutOfSpace(m.id));
            }
            if m.capacity < 2 {
                return Err(BuildMemberSetError::CapacityTooSmall(m.id, m.capacity));
            }
        }
        members.sort_by_key(|m| m.id);
        for w in members.windows(2) {
            if w[0].id == w[1].id {
                return Err(BuildMemberSetError::DuplicateId(w[0].id));
            }
        }
        Ok(MemberSet::from_sorted(space, members))
    }

    /// The sub-group of the members at `indices`, which must strictly
    /// ascend: its columns and bucket index are read straight from this
    /// group's columns, so the members are neither re-validated nor
    /// re-sorted (a valid group's members in ascending index order are
    /// already a valid, id-sorted group). Sub-member `i` is member
    /// `indices[i]` here.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or an index is out of range, and (via
    /// `debug_assert`) if the indices do not strictly ascend.
    pub fn subset(&self, indices: &[usize]) -> MemberSet {
        assert!(!indices.is_empty(), "a member set is never empty");
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "subset indices must strictly ascend"
        );
        MemberSet::from_columns(
            self.space,
            indices.iter().map(|&i| self.ids[i]).collect(),
            indices.iter().map(|&i| self.capacities[i]).collect(),
            indices.iter().map(|&i| self.upload_kbps[i]).collect(),
        )
    }

    /// Builds the group plus its bucket index from already-sorted,
    /// already-validated members, splitting the rows into columns.
    fn from_sorted(space: IdSpace, members: Vec<Member>) -> MemberSet {
        let n = members.len();
        let mut ids = Vec::with_capacity(n);
        let mut capacities = Vec::with_capacity(n);
        let mut upload_kbps = Vec::with_capacity(n);
        for m in members {
            ids.push(m.id.value());
            capacities.push(m.capacity);
            upload_kbps.push(m.upload_kbps);
        }
        MemberSet::from_columns(space, ids, capacities, upload_kbps)
    }

    /// Assembles a group from already-sorted, already-validated columns.
    fn from_columns(
        space: IdSpace,
        ids: Vec<u64>,
        capacities: Vec<u32>,
        upload_kbps: Vec<f64>,
    ) -> MemberSet {
        let (buckets, bucket_shift) = Self::build_bucket_index(space, &ids);
        MemberSet {
            space,
            ids,
            capacities,
            upload_kbps,
            buckets,
            bucket_shift,
        }
    }

    /// Computes the bucket index: one bucket per `2^shift`-wide identifier
    /// span, at least as many buckets as members, so a resolution query
    /// scans at most the (expected ≤ 1) members sharing the key's bucket.
    fn build_bucket_index(space: IdSpace, ids: &[u64]) -> (Vec<u32>, u32) {
        let n = ids.len();
        // n ≤ space.size() because identifiers are unique, so the rounded-up
        // power of two never exceeds 2^bits and the shift never underflows.
        let bucket_count = n.next_power_of_two();
        let shift = space.bits() - bucket_count.trailing_zeros();
        let mut buckets = Vec::with_capacity(bucket_count + 1);
        let mut i = 0usize;
        for b in 0..bucket_count as u64 {
            let start = b << shift;
            while i < n && ids[i] < start {
                i += 1;
            }
            buckets.push(i as u32);
        }
        buckets.push(n as u32);
        (buckets, shift)
    }

    /// The identifier space the group lives in.
    #[inline]
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the group is empty (never true: construction rejects it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The member at `idx`, assembled by value from the columns (members
    /// are sorted by identifier; `Member` is `Copy`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn member(&self, idx: usize) -> Member {
        Member {
            id: Id(self.ids[idx]),
            capacity: self.capacities[idx],
            upload_kbps: self.upload_kbps[idx],
        }
    }

    /// The identifier of the member at `idx` (single-column read).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn id_at(&self, idx: usize) -> Id {
        Id(self.ids[idx])
    }

    /// The capacity of the member at `idx` (single-column read).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn capacity_at(&self, idx: usize) -> u32 {
        self.capacities[idx]
    }

    /// The upload bandwidth (kbps) of the member at `idx` (single-column
    /// read).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn upload_kbps_at(&self, idx: usize) -> f64 {
        self.upload_kbps[idx]
    }

    /// Iterates over members in ring order, yielding [`Member`] by value.
    pub fn iter(&self) -> Members<'_> {
        Members {
            set: self,
            front: 0,
            back: self.len(),
        }
    }

    /// First member index `i` with `ids[i] ≥ k` (i.e. the partition point
    /// of `id < k`), via the bucket index: `O(1)` expected.
    #[inline]
    fn lower_bound(&self, k: Id) -> usize {
        let k = k.value();
        let mut i = self.buckets[(k >> self.bucket_shift) as usize] as usize;
        while i < self.ids.len() && self.ids[i] < k {
            i += 1;
        }
        i
    }

    /// Index of the *owner* of identifier `k` — the paper's `k̂`: the node
    /// whose identifier is `k`, or else `successor(k)`. `O(1)` expected.
    #[inline]
    pub fn owner_idx(&self, k: Id) -> usize {
        let i = self.lower_bound(k);
        if i == self.ids.len() {
            0
        } else {
            i
        }
    }

    /// Index of `successor(k)`: the first node strictly clockwise after
    /// identifier `k`. `O(1)` expected.
    #[inline]
    pub fn successor_idx(&self, k: Id) -> usize {
        let mut i = self.lower_bound(k);
        if i < self.ids.len() && self.ids[i] == k.value() {
            i += 1;
        }
        if i == self.ids.len() {
            0
        } else {
            i
        }
    }

    /// Index of `predecessor(k)`: the last node strictly counter-clockwise
    /// before identifier `k`. `O(1)` expected.
    #[inline]
    pub fn predecessor_idx(&self, k: Id) -> usize {
        let i = self.lower_bound(k);
        if i == 0 {
            self.ids.len() - 1
        } else {
            i - 1
        }
    }

    /// Index of the member with exactly identifier `id`, if present.
    pub fn index_of(&self, id: Id) -> Option<usize> {
        self.ids.binary_search(&id.value()).ok()
    }

    /// The next member clockwise after the member at `idx`.
    #[inline]
    pub fn next_idx(&self, idx: usize) -> usize {
        (idx + 1) % self.ids.len()
    }

    /// The previous member counter-clockwise before the member at `idx`.
    #[inline]
    pub fn prev_idx(&self, idx: usize) -> usize {
        (idx + self.ids.len() - 1) % self.ids.len()
    }

    /// The termination check every lookup routine opens a hop with: the
    /// owner of `key` if the member at `cur` can name it locally — `cur`
    /// itself when `key ∈ (predecessor(cur), cur]` (or it is alone), its
    /// successor when `key ∈ (cur, successor(cur)]` — else `None`.
    #[inline]
    pub fn local_owner(&self, cur: usize, key: Id) -> Option<usize> {
        let x = self.id_at(cur);
        let pred = self.id_at(self.prev_idx(cur));
        if key == x || self.space.in_segment(key, pred, x) || self.len() == 1 {
            return Some(cur);
        }
        let succ = self.next_idx(cur);
        self.space
            .in_segment(key, x, self.id_at(succ))
            .then_some(succ)
    }

    /// A new group with `member` added (the receiver is unchanged).
    ///
    /// # Errors
    ///
    /// Returns an error if the identifier is already taken, out of space,
    /// or the capacity is below 2.
    pub fn inserted(&self, member: Member) -> Result<MemberSet, BuildMemberSetError> {
        if !self.space.contains(member.id) {
            return Err(BuildMemberSetError::IdOutOfSpace(member.id));
        }
        if member.capacity < 2 {
            return Err(BuildMemberSetError::CapacityTooSmall(
                member.id,
                member.capacity,
            ));
        }
        match self.ids.binary_search(&member.id.value()) {
            Ok(_) => Err(BuildMemberSetError::DuplicateId(member.id)),
            Err(pos) => {
                let mut ids = self.ids.clone();
                let mut capacities = self.capacities.clone();
                let mut upload_kbps = self.upload_kbps.clone();
                ids.insert(pos, member.id.value());
                capacities.insert(pos, member.capacity);
                upload_kbps.insert(pos, member.upload_kbps);
                Ok(MemberSet::from_columns(
                    self.space,
                    ids,
                    capacities,
                    upload_kbps,
                ))
            }
        }
    }

    /// A new group with the member at identifier `id` removed, or `None`
    /// if absent or if removal would empty the group.
    pub fn removed(&self, id: Id) -> Option<MemberSet> {
        if self.ids.len() <= 1 {
            return None;
        }
        let pos = self.ids.binary_search(&id.value()).ok()?;
        let mut ids = self.ids.clone();
        let mut capacities = self.capacities.clone();
        let mut upload_kbps = self.upload_kbps.clone();
        ids.remove(pos);
        capacities.remove(pos);
        upload_kbps.remove(pos);
        Some(MemberSet::from_columns(
            self.space,
            ids,
            capacities,
            upload_kbps,
        ))
    }

    /// Mean declared capacity of the group.
    pub fn mean_capacity(&self) -> f64 {
        self.capacities.iter().map(|&c| c as f64).sum::<f64>() / self.capacities.len() as f64
    }
}

/// Iterator over a [`MemberSet`] in ring order, yielding [`Member`] by
/// value (assembled from the columns; `Member` is `Copy`, so this is the
/// same cost as the former `.iter().copied()`).
#[derive(Debug, Clone)]
pub struct Members<'a> {
    set: &'a MemberSet,
    front: usize,
    back: usize,
}

impl Iterator for Members<'_> {
    type Item = Member;

    #[inline]
    fn next(&mut self) -> Option<Member> {
        if self.front == self.back {
            return None;
        }
        let m = self.set.member(self.front);
        self.front += 1;
        Some(m)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.back - self.front;
        (rem, Some(rem))
    }
}

impl DoubleEndedIterator for Members<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Member> {
        if self.front == self.back {
            return None;
        }
        self.back -= 1;
        Some(self.set.member(self.back))
    }
}

impl ExactSizeIterator for Members<'_> {}

impl<'a> IntoIterator for &'a MemberSet {
    type Item = Member;
    type IntoIter = Members<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_group() -> MemberSet {
        let space = IdSpace::new(5);
        let members = [0u64, 4, 8, 13, 18, 21, 26, 29]
            .iter()
            .map(|&v| Member::with_capacity(Id(v), 3))
            .collect();
        MemberSet::new(space, members).unwrap()
    }

    #[test]
    fn sorted_after_shuffled_input() {
        let space = IdSpace::new(5);
        let members = [21u64, 0, 29, 4, 26, 8, 18, 13]
            .iter()
            .map(|&v| Member::with_capacity(Id(v), 3))
            .collect();
        let g = MemberSet::new(space, members).unwrap();
        let ids: Vec<u64> = g.iter().map(|m| m.id.value()).collect();
        assert_eq!(ids, vec![0, 4, 8, 13, 18, 21, 26, 29]);
    }

    #[test]
    fn construction_errors() {
        let space = IdSpace::new(5);
        assert_eq!(
            MemberSet::new(space, vec![]).unwrap_err(),
            BuildMemberSetError::Empty
        );
        let dup = vec![
            Member::with_capacity(Id(3), 3),
            Member::with_capacity(Id(3), 4),
        ];
        assert_eq!(
            MemberSet::new(space, dup).unwrap_err(),
            BuildMemberSetError::DuplicateId(Id(3))
        );
        let out = vec![Member::with_capacity(Id(99), 3)];
        assert_eq!(
            MemberSet::new(space, out).unwrap_err(),
            BuildMemberSetError::IdOutOfSpace(Id(99))
        );
        let tiny = vec![Member::with_capacity(Id(1), 1)];
        assert_eq!(
            MemberSet::new(space, tiny).unwrap_err(),
            BuildMemberSetError::CapacityTooSmall(Id(1), 1)
        );
    }

    #[test]
    fn owner_successor_predecessor() {
        let g = fig2_group();
        // Owner includes the identifier itself.
        assert_eq!(g.member(g.owner_idx(Id(13))).id, Id(13));
        assert_eq!(g.member(g.owner_idx(Id(14))).id, Id(18));
        assert_eq!(g.member(g.owner_idx(Id(30))).id, Id(0), "wraps");
        assert_eq!(g.member(g.owner_idx(Id(0))).id, Id(0));
        // Successor is strictly after.
        assert_eq!(g.member(g.successor_idx(Id(13))).id, Id(18));
        assert_eq!(g.member(g.successor_idx(Id(29))).id, Id(0), "wraps");
        assert_eq!(g.member(g.successor_idx(Id(31))).id, Id(0));
        // Predecessor is strictly before.
        assert_eq!(g.member(g.predecessor_idx(Id(13))).id, Id(8));
        assert_eq!(g.member(g.predecessor_idx(Id(0))).id, Id(29), "wraps");
        assert_eq!(g.member(g.predecessor_idx(Id(14))).id, Id(13));
    }

    #[test]
    fn paper_fig2_hat_resolution() {
        // Section 3.1: x = 0, c_x = 3. x_{0,1}=1, x_{0,2}=2, x_{1,1}=3 all
        // resolve to node 4; x_{1,2}=6 → 8; x_{2,1}=9 → 13; x_{2,2}=18 → 18;
        // x_{3,1}=27 → 29.
        let g = fig2_group();
        for (ident, owner) in [
            (1u64, 4u64),
            (2, 4),
            (3, 4),
            (6, 8),
            (9, 13),
            (18, 18),
            (27, 29),
        ] {
            assert_eq!(
                g.member(g.owner_idx(Id(ident))).id,
                Id(owner),
                "x̂ of {ident}"
            );
        }
    }

    #[test]
    fn neighbors_in_ring_order() {
        let g = fig2_group();
        assert_eq!(g.next_idx(7), 0);
        assert_eq!(g.prev_idx(0), 7);
        assert_eq!(g.index_of(Id(21)), Some(5));
        assert_eq!(g.index_of(Id(22)), None);
        assert!((g.mean_capacity() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn column_accessors_match_member_view() {
        let g = fig2_group();
        for i in 0..g.len() {
            let m = g.member(i);
            assert_eq!(g.id_at(i), m.id);
            assert_eq!(g.capacity_at(i), m.capacity);
            assert_eq!(g.upload_kbps_at(i), m.upload_kbps);
        }
    }

    #[test]
    fn iterator_is_exact_and_double_ended() {
        let g = fig2_group();
        assert_eq!(g.iter().len(), 8);
        let fwd: Vec<u64> = g.iter().map(|m| m.id.value()).collect();
        let mut rev: Vec<u64> = g.iter().rev().map(|m| m.id.value()).collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        // IntoIterator for &MemberSet yields the same sequence.
        let via_ref: Vec<u64> = (&g).into_iter().map(|m| m.id.value()).collect();
        assert_eq!(fwd, via_ref);
    }

    #[test]
    fn incremental_insert_remove() {
        let g = fig2_group();
        let added = g.inserted(Member::with_capacity(Id(15), 5)).unwrap();
        assert_eq!(added.len(), 9);
        assert_eq!(added.member(added.owner_idx(Id(14))).id, Id(15));
        assert_eq!(g.len(), 8, "original untouched");
        // Duplicate rejected.
        assert!(matches!(
            added.inserted(Member::with_capacity(Id(15), 5)),
            Err(BuildMemberSetError::DuplicateId(_))
        ));
        // Removal restores the owner mapping.
        let removed = added.removed(Id(15)).unwrap();
        assert_eq!(removed.member(removed.owner_idx(Id(14))).id, Id(18));
        assert!(removed.removed(Id(999)).is_none(), "absent id");
        // Cannot empty a group.
        let single =
            MemberSet::new(IdSpace::new(5), vec![Member::with_capacity(Id(3), 4)]).unwrap();
        assert!(single.removed(Id(3)).is_none());
    }

    #[test]
    fn single_member_group() {
        let space = IdSpace::new(5);
        let g = MemberSet::new(space, vec![Member::with_capacity(Id(7), 4)]).unwrap();
        assert_eq!(g.owner_idx(Id(0)), 0);
        assert_eq!(g.successor_idx(Id(7)), 0);
        assert_eq!(g.predecessor_idx(Id(7)), 0);
        assert_eq!(g.next_idx(0), 0);
    }
}
