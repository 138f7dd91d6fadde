//! Integer-valued histograms and running summaries.
//!
//! They live here, at the bottom of the stack, because the telemetry
//! registry needs them and the experiment harness (`cam-experiments`)
//! sits *above* the overlay in the dependency graph.

/// A dense histogram over small non-negative integer values (hop counts,
/// fan-outs).
///
/// # Example
///
/// ```
/// use cam_trace::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 2, 3] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bucket(2), 2);
/// assert!((h.mean() - 2.0).abs() < 1e-12);
/// assert_eq!(h.percentile(50.0), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        let idx = value as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += value;
    }

    /// Records `weight` observations of `value`.
    pub fn record_n(&mut self, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        let idx = value as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += weight;
        self.count += weight;
        self.total += value * weight;
    }

    /// Number of observations of exactly `value`.
    pub fn bucket(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// All buckets, index = value.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Largest observed value (0 for an empty histogram).
    pub fn max(&self) -> u64 {
        (self.buckets.len() as u64).saturating_sub(1)
    }

    /// The smallest value v such that at least `p`% of observations are
    /// ≤ v.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        assert!(self.count > 0, "percentile of empty histogram");
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (v, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return v as u64;
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.total += other.total;
    }
}

/// Running mean / min / max over `f64` samples (Welford's incremental
/// mean).
///
/// # Example
///
/// ```
/// use cam_trace::Summary;
///
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN sample");
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(5);
        h.record(0);
        h.record_n(3, 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket(3), 2);
        assert_eq!(h.bucket(99), 0);
        assert_eq!(h.max(), 5);
        assert!((h.mean() - 11.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), 1);
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.percentile(0.0), 1, "0th percentile = min");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(9);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(1), 2);
        assert_eq!(a.bucket(9), 1);
        assert!((a.mean() - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile of empty histogram")]
    fn percentile_of_empty_panics() {
        Histogram::new().percentile(50.0);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(7, 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.buckets().len(), 0);
    }

    #[test]
    fn summary_welford_matches_naive() {
        let data = [3.5f64, -1.25, 0.0, 8.0, 2.5, 2.5];
        let mut s = Summary::new();
        for &v in &data {
            s.record(v);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert_eq!(s.min(), -1.25);
        assert_eq!(s.max(), 8.0);
    }

    #[test]
    fn summary_empty_and_single() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        s.record(4.0);
        assert_eq!(s.mean(), 4.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::new().record(f64::NAN);
    }
}
