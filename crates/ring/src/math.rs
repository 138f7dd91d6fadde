//! Integer base-`c` logarithms and saturating powers.
//!
//! CAM-Chord's neighbor table and routing are defined in terms of
//! `i = ⌊log(k − x) / log c⌋` and `j = ⌊(k − x) / c^i⌋` (paper equations (1)
//! and (2)). Computing these with floating point is unreliable near powers
//! of `c`, so everything here is exact integer arithmetic.

/// `⌊log_base(value)⌋` for `value ≥ 1`, `base ≥ 2`.
///
/// # Panics
///
/// Panics if `value == 0` or `base < 2`.
///
/// # Example
///
/// ```
/// use cam_ring::math::floor_log;
/// assert_eq!(floor_log(31, 3), 3); // 3^3 = 27 ≤ 31 < 81
/// assert_eq!(floor_log(27, 3), 3);
/// assert_eq!(floor_log(26, 3), 2);
/// assert_eq!(floor_log(1, 7), 0);
/// ```
pub fn floor_log(value: u64, base: u64) -> u32 {
    assert!(value >= 1, "floor_log of zero");
    assert!(base >= 2, "floor_log base must be >= 2");
    let mut exp = 0u32;
    let mut acc = 1u64;
    // Invariant: acc == base^exp <= value.
    loop {
        match acc.checked_mul(base) {
            Some(next) if next <= value => {
                acc = next;
                exp += 1;
            }
            _ => return exp,
        }
    }
}

/// `base^exp`, saturating at `u64::MAX` instead of overflowing.
///
/// Useful for level spacings `c^i` where high levels may exceed the
/// identifier space; saturation keeps comparisons (`dist < c^i`) correct.
///
/// # Example
///
/// ```
/// use cam_ring::math::pow_saturating;
/// assert_eq!(pow_saturating(3, 4), 81);
/// assert_eq!(pow_saturating(2, 64), u64::MAX);
/// assert_eq!(pow_saturating(10, 0), 1);
/// ```
pub fn pow_saturating(base: u64, exp: u32) -> u64 {
    let mut acc: u64 = 1;
    for _ in 0..exp {
        acc = match acc.checked_mul(base) {
            Some(v) => v,
            None => return u64::MAX,
        };
    }
    acc
}

/// Smallest `L` such that `base^L >= target` (for `target >= 1`,
/// `base >= 2`). This is the number of neighbor *levels* a CAM-Chord node
/// with capacity `base` needs to cover an identifier space of size
/// `target`: `L = ⌈log_base(target)⌉`.
///
/// # Panics
///
/// Panics if `target == 0` or `base < 2`.
///
/// # Example
///
/// ```
/// use cam_ring::math::ceil_log;
/// assert_eq!(ceil_log(32, 2), 5);
/// assert_eq!(ceil_log(32, 3), 4); // 3^3 = 27 < 32 ≤ 81 = 3^4
/// assert_eq!(ceil_log(27, 3), 3);
/// assert_eq!(ceil_log(1, 3), 0);
/// ```
pub fn ceil_log(target: u64, base: u64) -> u32 {
    assert!(target >= 1, "ceil_log of zero");
    assert!(base >= 2, "ceil_log base must be >= 2");
    let mut exp = 0u32;
    let mut acc = 1u64;
    while acc < target {
        acc = acc.saturating_mul(base);
        exp += 1;
    }
    exp
}

/// The CAM-Chord *level* `i` and *sequence number* `j` of a clockwise
/// distance `dist = (k − x) mod N` with respect to capacity `c` (paper
/// equations (1) and (2)), with the two neighbor spacings `LOOKUP` and
/// `MULTICAST` step by at that level. See [`level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Level {
    /// The level `i = ⌊log(dist) / log c⌋`.
    pub i: u32,
    /// The sequence number `j = ⌊dist / c^i⌋`, in `[1, c)`: `j == c` can
    /// not occur because then `i` would have been larger.
    pub j: u64,
    /// `c^i`, the spacing of the level-`i` neighbors `x + m·c^i`.
    pub pow: u64,
    /// `c^(i−1)`, the spacing of the level-`(i−1)` neighbors; `0` at level
    /// 0, which has no level below it.
    pub pow_below: u64,
}

/// The [`Level`] of `dist` with respect to capacity `c`: `i`, `j`, `c^i`
/// and `c^(i−1)` from one pass of multiplications (`c^i <= dist`, so
/// neither power saturates). For `dist == 0` there is no level; callers
/// must handle the empty segment first.
///
/// # Panics
///
/// Panics if `dist == 0` or `c < 2`.
///
/// # Example
///
/// ```
/// use cam_ring::math::{level, Level};
/// // Paper, Section 3.2 example: identifier x+25 w.r.t. x with c = 3
/// assert_eq!(level(25, 3), Level { i: 2, j: 2, pow: 9, pow_below: 3 });
/// // Paper, Section 3.4 example: x−1 (= x+31 on a 32-ring) has level 3, seq 1
/// assert_eq!(level(31, 3), Level { i: 3, j: 1, pow: 27, pow_below: 9 });
/// assert_eq!(level(2, 3), Level { i: 0, j: 2, pow: 1, pow_below: 0 });
/// ```
pub fn level(dist: u64, c: u64) -> Level {
    assert!(dist >= 1, "level of an empty segment");
    assert!(c >= 2, "capacity must be >= 2");
    let (mut i, mut pow, mut pow_below) = (0, 1u64, 0);
    // Invariant: pow == c^i <= dist and pow_below == c^(i−1), or 0 at i = 0.
    while let Some(next) = pow.checked_mul(c).filter(|&next| next <= dist) {
        (i, pow, pow_below) = (i + 1, next, pow);
    }
    let j = dist / pow;
    debug_assert!((1..c).contains(&j));
    Level {
        i,
        j,
        pow,
        pow_below,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_log_edges() {
        assert_eq!(floor_log(1, 2), 0);
        assert_eq!(floor_log(2, 2), 1);
        assert_eq!(floor_log(3, 2), 1);
        assert_eq!(floor_log(4, 2), 2);
        assert_eq!(floor_log(u64::MAX, 2), 63);
        assert_eq!(floor_log(u64::MAX, 3), 40);
    }

    #[test]
    fn floor_log_exact_powers() {
        for base in 2u64..=12 {
            for exp in 0u32..12 {
                let v = pow_saturating(base, exp);
                assert_eq!(floor_log(v, base), exp, "base={base} exp={exp}");
                if v > 1 {
                    assert_eq!(floor_log(v - 1, base), exp - 1);
                }
                if v + 1 < pow_saturating(base, exp + 1) {
                    assert_eq!(floor_log(v + 1, base), exp, "just above a power");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "floor_log of zero")]
    fn floor_log_zero_panics() {
        floor_log(0, 2);
    }

    #[test]
    #[should_panic(expected = "base must be >= 2")]
    fn floor_log_base_one_panics() {
        floor_log(5, 1);
    }

    #[test]
    fn pow_saturates() {
        assert_eq!(pow_saturating(2, 63), 1 << 63);
        assert_eq!(pow_saturating(2, 64), u64::MAX);
        assert_eq!(pow_saturating(u64::MAX, 1), u64::MAX);
        assert_eq!(pow_saturating(u64::MAX, 2), u64::MAX);
        assert_eq!(pow_saturating(1, 1000), 1);
        assert_eq!(pow_saturating(0, 3), 0);
        assert_eq!(pow_saturating(0, 0), 1);
    }

    #[test]
    fn ceil_log_vs_floor_log() {
        for base in 2u64..=11 {
            for target in 1u64..1000 {
                let l = ceil_log(target, base);
                assert!(pow_saturating(base, l) >= target);
                if l > 0 {
                    assert!(pow_saturating(base, l - 1) < target);
                }
            }
        }
    }

    #[test]
    fn level_seq_ranges() {
        for c in 2u64..=10 {
            for dist in 1u64..2000 {
                let Level { j, pow: ci, .. } = level(dist, c);
                assert!(ci <= dist, "c^i <= dist");
                assert!(j >= 1 && j < c, "j in [1, c): c={c} dist={dist} j={j}");
                assert!(j * ci <= dist && dist < (j + 1) * ci);
            }
        }
    }

    #[test]
    fn level_powers_match_floor_log_and_pow() {
        for c in 2u64..=10 {
            for dist in (1u64..3000).chain([u64::MAX - 1, u64::MAX]) {
                let l = level(dist, c);
                assert_eq!(l.i, floor_log(dist, c), "c={c} dist={dist}");
                assert_eq!(l.pow, pow_saturating(c, l.i));
                let below = l.i.checked_sub(1).map_or(0, |i| pow_saturating(c, i));
                assert_eq!(l.pow_below, below, "c={c} dist={dist}");
                assert_eq!(l.j, dist / l.pow);
            }
        }
    }

    #[test]
    fn paper_lookup_example_levels() {
        // Section 3.2: from x, identifier x+25 with c=3 → level 2, seq 2.
        let l = level(25, 3);
        assert_eq!((l.i, l.j), (2, 2));
        // Forwarded to node x+18; from x+18 (also c=3), k−x = 7 → level 1, seq 2.
        let l = level(7, 3);
        assert_eq!((l.i, l.j), (1, 2));
    }
}
