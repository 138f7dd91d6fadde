//! Network-latency models for the simulated overlay.
//!
//! The paper reports hop counts rather than wall-clock delays, but the
//! dynamic-membership experiments (and the examples) need a notion of
//! message latency. Three models are provided:
//!
//! * [`LatencyModel::Constant`] — every message takes the same time; makes
//!   hop count and delay proportional (the paper's implicit model).
//! * [`LatencyModel::Uniform`] — i.i.d. uniform delay per message, the
//!   classic "random transit" approximation.
//! * [`LatencyModel::Planar`] — hosts get synthetic 2-D coordinates; delay
//!   is proportional to Euclidean distance plus jitter. This substitutes for
//!   a real Internet topology (which the paper does not use either): it
//!   yields triangle-inequality-respecting, heterogeneous pair delays.

use crate::rng::SimRng;
use crate::time::Duration;

/// How long a message from actor `a` to actor `b` spends on the wire.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Fixed one-way delay for every message.
    Constant(Duration),
    /// Uniformly distributed one-way delay in `[min, max]`, drawn
    /// independently per message.
    Uniform {
        /// Minimum one-way delay.
        min: Duration,
        /// Maximum one-way delay.
        max: Duration,
    },
    /// Synthetic geography: each host is a point on a `unit × unit` plane;
    /// one-way delay is `base + distance × per_unit`, plus up to
    /// `jitter_frac` relative jitter.
    Planar {
        /// Host coordinates, indexed by actor index.
        coords: Vec<(f64, f64)>,
        /// Propagation floor added to every message.
        base: Duration,
        /// Delay per unit of Euclidean distance.
        per_unit: Duration,
        /// Relative jitter in `[0, 1)`, applied multiplicatively.
        jitter_frac: f64,
    },
}

impl LatencyModel {
    /// The paper-style default: 20–80 ms uniform one-way delay.
    pub fn default_wan() -> LatencyModel {
        LatencyModel::Uniform {
            min: Duration::from_millis(20),
            max: Duration::from_millis(80),
        }
    }

    /// Samples the one-way delay for a message from actor `from` to actor
    /// `to` (indices into the simulation's actor table).
    ///
    /// # Panics
    ///
    /// `Planar` panics if either index has no coordinate.
    pub fn sample(&self, from: usize, to: usize, rng: &mut SimRng) -> Duration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(min <= max);
                Duration::from_micros(rng.uniform_incl(min.micros(), max.micros()))
            }
            LatencyModel::Planar {
                coords,
                base,
                per_unit,
                jitter_frac,
            } => {
                let (x1, y1) = coords[from];
                let (x2, y2) = coords[to];
                let dist = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
                let raw = base.micros() as f64 + per_unit.micros() as f64 * dist;
                let jitter = 1.0 + jitter_frac * rng.unit();
                Duration::from_micros((raw * jitter).round() as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(Duration::from_millis(10));
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(0, 5, &mut rng), Duration::from_millis(10));
        }
    }

    #[test]
    fn uniform_in_bounds() {
        let m = LatencyModel::Uniform {
            min: Duration::from_millis(20),
            max: Duration::from_millis(80),
        };
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let d = m.sample(1, 2, &mut rng);
            assert!(d >= Duration::from_millis(20) && d <= Duration::from_millis(80));
        }
    }

    #[test]
    fn planar_close_hosts_fast() {
        let m = LatencyModel::Planar {
            coords: vec![(0.0, 0.0), (0.0, 0.01), (1.0, 1.0)],
            base: Duration::from_millis(5),
            per_unit: Duration::from_millis(100),
            jitter_frac: 0.0,
        };
        let mut rng = SimRng::new(3);
        let near = m.sample(0, 1, &mut rng);
        let far = m.sample(0, 2, &mut rng);
        assert!(near < far, "near={near} far={far}");
        assert!(near >= Duration::from_millis(5), "floor applies");
    }
}
