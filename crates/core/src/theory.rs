//! The paper's analytic results (Theorems 1–6) as executable formulas.
//!
//! The theorems give asymptotic expectations for lookup and multicast path
//! lengths. Expressed with their natural leading constants they are
//! directly comparable to measurements (the paper itself plots
//! `1.5·ln n / ln c` against Figure 11):
//!
//! | Theorem | System | Quantity | Formula |
//! |---|---|---|---|
//! | 1 | CAM-Chord | lookup hops, general `c_x` | `−ln n / ln E[ln c / c]`* |
//! | 2 | CAM-Chord | lookup hops, uniform `c` | `O(log n / log c)` |
//! | 3 | CAM-Chord | multicast path, general | as Theorem 1 |
//! | 4 | CAM-Chord | multicast path, uniform | `O(ln n / ln c)` |
//! | 5 | CAM-Koorde | multicast path, general | `O(log n / E[log c])` |
//! | 6 | CAM-Koorde | multicast path, uniform | `O(log n / log c)` |
//!
//! *The Theorem 1/3 expression in the paper reads `O(−ln n / ln E(ln c_x /
//! c_x))`; for a degenerate (constant `c`) distribution it reduces to
//! `ln n / (ln c − ln ln c)`, slightly above `ln n / ln c` — both are
//! provided.
//!
//! These are *shape* functions: the absolute constant factor depends on
//! simulation details, so the experiments compare growth, crossovers, and
//! the paper's own `1.5·ln n / ln c` bound.

/// The paper's Figure 11 reference bound: `1.5 · ln(n) / ln(c)`.
///
/// # Panics
///
/// Panics unless `n ≥ 2` and `c > 1`.
///
/// # Example
///
/// ```
/// use cam_core::theory::fig11_bound;
/// let b = fig11_bound(100_000, 10.0);
/// assert!((b - 1.5 * (100_000f64).ln() / 10f64.ln()).abs() < 1e-12);
/// ```
pub fn fig11_bound(n: usize, mean_capacity: f64) -> f64 {
    assert!(n >= 2, "need at least two members");
    assert!(mean_capacity > 1.0, "capacity must exceed 1");
    1.5 * (n as f64).ln() / mean_capacity.ln()
}

/// Theorems 1/3 shape for an arbitrary capacity distribution: the expected
/// CAM-Chord path length `−ln n / ln E[ln c_x / c_x]`, with the
/// expectation taken over the supplied capacity samples.
///
/// # Panics
///
/// Panics if `capacities` is empty, contains values < 2, or `n < 2`.
///
/// # Example
///
/// ```
/// use cam_core::theory::expected_cam_chord_path;
/// // A degenerate distribution is close to (slightly above) ln n / ln c.
/// let uniform = expected_cam_chord_path(10_000, &[8; 100]);
/// let log_c_n = 10_000f64.ln() / 8f64.ln();
/// assert!(uniform > log_c_n);
/// assert!(uniform < 2.0 * log_c_n);
/// ```
pub fn expected_cam_chord_path(n: usize, capacities: &[u32]) -> f64 {
    assert!(n >= 2, "need at least two members");
    assert!(!capacities.is_empty(), "empty capacity sample");
    let mean: f64 = capacities
        .iter()
        .map(|&c| {
            assert!(c >= 2, "capacity {c} < 2");
            let c = f64::from(c);
            c.ln() / c
        })
        .sum::<f64>()
        / capacities.len() as f64;
    // mean = E[ln c / c] ∈ (0, 1) ⇒ ln(mean) < 0 ⇒ the ratio is positive.
    -(n as f64).ln() / mean.ln()
}

/// Theorem 5 shape for an arbitrary capacity distribution: the expected
/// CAM-Koorde path length `log₂(N̄) / E[log₂ c_x]`, where the numerator is
/// taken over the routing-relevant bits (`log₂ n` when the ring is dense
/// relative to n, `b` when `N` dominates — the experiments pass whichever
/// regime applies).
///
/// # Panics
///
/// Panics if `capacities` is empty or contains values < 2, or `bits == 0`.
pub fn expected_cam_koorde_path(bits: f64, capacities: &[u32]) -> f64 {
    assert!(bits > 0.0, "need positive bit count");
    assert!(!capacities.is_empty(), "empty capacity sample");
    let mean: f64 = capacities
        .iter()
        .map(|&c| {
            assert!(c >= 2, "capacity {c} < 2");
            f64::from(c).log2()
        })
        .sum::<f64>()
        / capacities.len() as f64;
    bits / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theorems 2/4/6 shape: `ln(n) / ln(c)` for uniform capacity `c`.
    fn log_c_n(n: usize, c: f64) -> f64 {
        assert!(n >= 2 && c > 1.0);
        (n as f64).ln() / c.ln()
    }

    #[test]
    fn bounds_decrease_with_capacity() {
        let n = 100_000;
        assert!(fig11_bound(n, 4.0) > fig11_bound(n, 10.0));
        assert!(fig11_bound(n, 10.0) > fig11_bound(n, 100.0));
        assert!(log_c_n(n, 4.0) > log_c_n(n, 16.0));
    }

    #[test]
    fn general_formula_reduces_near_uniform() {
        // For constant c the general Theorem 1 form is ln n/(ln c − ln ln c),
        // a constant factor above ln n / ln c.
        let n = 100_000;
        for c in [4u32, 8, 16, 64] {
            let general = expected_cam_chord_path(n, &[c; 10]);
            let simple = log_c_n(n, f64::from(c));
            assert!(general > simple, "c={c}");
            assert!(general < 4.0 * simple, "c={c}: {general} vs {simple}");
        }
    }

    #[test]
    fn heterogeneity_behaves_sanely() {
        // A [4..10] uniform mix sits between the pure-4 and pure-10 cases.
        let n = 100_000;
        let mixed: Vec<u32> = (4..=10).collect();
        let hetero = expected_cam_chord_path(n, &mixed);
        let lo = expected_cam_chord_path(n, &[10]);
        let hi = expected_cam_chord_path(n, &[4]);
        assert!(hetero > lo && hetero < hi, "{lo} < {hetero} < {hi}");
    }

    #[test]
    fn koorde_formula() {
        // 19 bits, capacity 8 → 19 / 3 ≈ 6.33.
        let v = expected_cam_koorde_path(19.0, &[8]);
        assert!((v - 19.0 / 3.0).abs() < 1e-12);
        // Mixed capacities use the mean of log2 c.
        let mixed = expected_cam_koorde_path(19.0, &[4, 16]);
        assert!((mixed - 19.0 / 3.0).abs() < 1e-12, "log2 mean of 4,16 is 3");
    }

    #[test]
    #[should_panic(expected = "capacity 1 < 2")]
    fn rejects_tiny_capacity() {
        expected_cam_chord_path(100, &[1]);
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn rejects_tiny_group() {
        fig11_bound(1, 4.0);
    }
}
