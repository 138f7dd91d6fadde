use std::fmt;

use serde::{Deserialize, Serialize};

/// An identifier on the ring.
///
/// `Id` is a plain newtype over `u64`; it is always interpreted relative to
/// an [`IdSpace`], which defines the modulus `N = 2^b`. All arithmetic on
/// identifiers goes through [`IdSpace`] methods so that wrap-around is
/// handled in exactly one place.
///
/// The field is public in the C-struct spirit: an `Id` carries no invariant
/// of its own (it is canonicalized by the `IdSpace` on every operation).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Id(pub u64);

impl Id {
    /// Raw value of the identifier.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Binary for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Id {
    fn from(v: u64) -> Self {
        Id(v)
    }
}

impl From<Id> for u64 {
    fn from(id: Id) -> Self {
        id.0
    }
}

/// A circular identifier space `[0, N)` with `N = 2^bits`.
///
/// The paper uses `N = 2^19`; [`IdSpace::PAPER`] is that instance. All
/// modular arithmetic, clockwise-segment membership, and distance
/// computations used by the overlays live here.
///
/// # Conventions (following the paper, Section 2)
///
/// * The segment `(x, y]` starts at `x + 1`, moves clockwise, and ends at
///   `y`. Its size is `(y - x) mod N`; in particular `(x, x]` is empty.
/// * The distance `|x - y|` is the minimum of the two segment sizes.
///
/// # Example
///
/// ```
/// use cam_ring::{Id, IdSpace};
///
/// let s = IdSpace::new(5); // N = 32, as in the paper's Figure 2
/// assert_eq!(s.add(Id(29), 4), Id(1));
/// assert_eq!(s.seg_len(Id(29), Id(1)), 4);
/// assert_eq!(s.distance(Id(29), Id(1)), 4);
/// assert_eq!(s.distance(Id(1), Id(29)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IdSpace {
    bits: u32,
}

impl IdSpace {
    /// The identifier space used throughout the paper's evaluation:
    /// `[0, 2^19)`.
    pub const PAPER: IdSpace = IdSpace { bits: 19 };

    /// Creates an identifier space `[0, 2^bits)`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 62`. The upper limit keeps `N` (and all
    /// segment sizes) representable in `u64` with headroom for intermediate
    /// sums.
    pub const fn new(bits: u32) -> Self {
        assert!(bits >= 1 && bits <= 62, "IdSpace bits must be in 1..=62");
        IdSpace { bits }
    }

    /// Number of bits `b` of the space (`N = 2^b`).
    #[inline]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The modulus `N = 2^b`.
    #[inline]
    pub fn size(self) -> u64 {
        1u64 << self.bits
    }

    /// Bit-mask `N - 1` used to reduce values into the space.
    #[inline]
    pub fn mask(self) -> u64 {
        self.size() - 1
    }

    /// Reduces an arbitrary value into the space.
    #[inline]
    pub fn reduce(self, v: u64) -> Id {
        Id(v & self.mask())
    }

    /// Whether `id` is a canonical identifier of this space.
    #[inline]
    pub fn contains(self, id: Id) -> bool {
        id.0 < self.size()
    }

    /// `(x + delta) mod N`.
    #[inline]
    pub fn add(self, x: Id, delta: u64) -> Id {
        self.reduce(x.0.wrapping_add(delta))
    }

    /// `(x - delta) mod N`.
    #[inline]
    pub fn sub(self, x: Id, delta: u64) -> Id {
        self.reduce(x.0.wrapping_sub(delta))
    }

    /// Size of the clockwise segment `(x, y]`, i.e. `(y - x) mod N`.
    ///
    /// This is the paper's "`(y − x)` is always positive" segment length;
    /// `seg_len(x, x) == 0` (the empty segment).
    #[inline]
    pub fn seg_len(self, x: Id, y: Id) -> u64 {
        y.0.wrapping_sub(x.0) & self.mask()
    }

    /// Ring distance `|x - y| = min{(y - x) mod N, (x - y) mod N}`.
    #[inline]
    pub fn distance(self, x: Id, y: Id) -> u64 {
        let cw = self.seg_len(x, y);
        cw.min(self.size() - cw).min(cw) // cw == 0 ⇒ both 0
    }

    /// Whether `id` lies in the clockwise segment `(from, to]`.
    ///
    /// `(x, x]` is empty, so `in_segment(id, x, x)` is always `false`.
    #[inline]
    pub fn in_segment(self, id: Id, from: Id, to: Id) -> bool {
        let len = self.seg_len(from, to);
        let off = self.seg_len(from, id);
        off != 0 && off <= len
    }

    /// Hashes arbitrary bytes to an identifier with SHA-1 (as the paper
    /// prescribes), taking the low `b` bits of the first 8 digest bytes.
    pub fn hash_to_id(self, data: &[u8]) -> Id {
        let digest = crate::sha1::Sha1::digest(data);
        let mut v = 0u64;
        for &byte in digest.iter().take(8) {
            v = (v << 8) | u64::from(byte);
        }
        self.reduce(v)
    }
}

impl fmt::Display for IdSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[0, 2^{})", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_bits() {
        for bits in [0u32, 63, 64, 255] {
            let r = std::panic::catch_unwind(|| IdSpace::new(bits));
            assert!(r.is_err(), "bits={bits} should panic");
        }
    }

    #[test]
    fn size_and_mask() {
        let s = IdSpace::new(5);
        assert_eq!(s.size(), 32);
        assert_eq!(s.mask(), 31);
        assert_eq!(IdSpace::PAPER.size(), 1 << 19);
    }

    #[test]
    fn add_sub_wrap() {
        let s = IdSpace::new(5);
        assert_eq!(s.add(Id(31), 1), Id(0));
        assert_eq!(s.add(Id(29), 4), Id(1));
        assert_eq!(s.sub(Id(0), 1), Id(31));
        assert_eq!(s.sub(Id(3), 5), Id(30));
        // delta larger than N wraps consistently
        assert_eq!(s.add(Id(1), 64), Id(1));
        assert_eq!(s.add(Id(1), 65), Id(2));
    }

    #[test]
    fn seg_len_conventions() {
        let s = IdSpace::new(5);
        assert_eq!(s.seg_len(Id(3), Id(3)), 0, "(x, x] is empty");
        assert_eq!(s.seg_len(Id(3), Id(4)), 1);
        assert_eq!(s.seg_len(Id(4), Id(3)), 31, "wraps the long way");
        assert_eq!(s.seg_len(Id(0), Id(31)), 31);
    }

    #[test]
    fn distance_symmetric() {
        let s = IdSpace::new(5);
        assert_eq!(s.distance(Id(1), Id(29)), 4);
        assert_eq!(s.distance(Id(29), Id(1)), 4);
        assert_eq!(s.distance(Id(0), Id(16)), 16);
        assert_eq!(s.distance(Id(7), Id(7)), 0);
    }

    #[test]
    fn in_segment_wraparound() {
        let s = IdSpace::new(5);
        // (29, 2] = {30, 31, 0, 1, 2}
        for v in [30u64, 31, 0, 1, 2] {
            assert!(s.in_segment(Id(v), Id(29), Id(2)), "{v}");
        }
        for v in [29u64, 3, 15] {
            assert!(!s.in_segment(Id(v), Id(29), Id(2)), "{v}");
        }
        // Empty segment contains nothing, not even its own endpoint.
        assert!(!s.in_segment(Id(5), Id(5), Id(5)));
        assert!(!s.in_segment(Id(6), Id(5), Id(5)));
    }

    #[test]
    fn hash_to_id_in_space_and_deterministic() {
        let s = IdSpace::PAPER;
        let a = s.hash_to_id(b"node-1");
        let b = s.hash_to_id(b"node-1");
        let c = s.hash_to_id(b"node-2");
        assert_eq!(a, b);
        assert_ne!(a, c, "different inputs should (overwhelmingly) differ");
        assert!(s.contains(a));
        assert!(s.contains(c));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Id(42).to_string(), "42");
        assert_eq!(format!("{:b}", Id(5)), "101");
        assert_eq!(format!("{:x}", Id(255)), "ff");
        assert_eq!(IdSpace::new(19).to_string(), "[0, 2^19)");
    }
}
