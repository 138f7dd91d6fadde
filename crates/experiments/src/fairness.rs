//! Load-distribution fairness measures for the forwarding-load analyses.

/// Gini coefficient of a non-negative load distribution: 0 = perfectly
/// even, → 1 = one node carries everything.
///
/// Returns 0 for empty or all-zero inputs.
///
/// # Panics
///
/// Panics on negative values.
///
/// # Example
///
/// ```
/// use cam_experiments::fairness::gini;
/// assert!(gini(&[1.0, 1.0, 1.0, 1.0]).abs() < 1e-12);
/// assert!(gini(&[0.0, 0.0, 0.0, 10.0]) > 0.7);
/// ```
pub fn gini(loads: &[f64]) -> f64 {
    assert!(
        loads.iter().all(|&v| v >= 0.0),
        "loads must be non-negative"
    );
    let n = loads.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = loads.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let mut sorted = loads.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN loads"));
    // Gini = (2·Σ i·x_i)/(n·Σ x) − (n+1)/n with 1-based ranks on sorted x.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

/// Jain's fairness index: 1 = perfectly even, → 1/n = maximally unfair.
///
/// Returns 1 for empty or all-zero inputs (vacuously fair).
///
/// # Panics
///
/// Panics on negative values.
///
/// # Example
///
/// ```
/// use cam_experiments::fairness::jain;
/// assert!((jain(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
/// assert!((jain(&[0.0, 0.0, 9.0]) - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jain(loads: &[f64]) -> f64 {
    assert!(
        loads.iter().all(|&v| v >= 0.0),
        "loads must be non-negative"
    );
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    if sum == 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = loads.iter().map(|&v| v * v).sum();
    (sum * sum) / (loads.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0; 8]), 0.0);
        assert!(gini(&[3.0; 100]).abs() < 1e-12, "uniform is 0");
        // One of n carries all: (n−1)/n.
        let mut v = vec![0.0; 10];
        v[0] = 42.0;
        assert!((gini(&v) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gini_monotone_in_concentration() {
        let even = gini(&[2.0, 2.0, 2.0, 2.0]);
        let tilted = gini(&[1.0, 1.0, 2.0, 4.0]);
        let extreme = gini(&[0.0, 0.0, 1.0, 7.0]);
        assert!(even < tilted && tilted < extreme);
    }

    #[test]
    fn jain_extremes() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0; 4]), 1.0);
        assert!((jain(&[7.0; 9]) - 1.0).abs() < 1e-12);
        let mut v = vec![0.0; 10];
        v[3] = 1.0;
        assert!((jain(&v) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn gini_rejects_negative() {
        gini(&[-1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn jain_rejects_negative() {
        jain(&[1.0, -2.0]);
    }
}
