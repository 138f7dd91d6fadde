//! Poisson churn traces for the dynamic-membership experiments.

use cam_overlay::Member;
use cam_ring::Id;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::scenario::{BandwidthDist, CapacityAssignment};

/// What happens at a churn event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// A new member joins.
    Join(Member),
    /// An existing member leaves gracefully.
    Leave(Id),
    /// An existing member crashes without notice.
    Crash(Id),
}

/// One timed event of a churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Virtual time of the event, in microseconds.
    pub at_micros: u64,
    /// The membership change.
    pub kind: ChurnKind,
}

/// A deterministic churn trace: exponential inter-arrival times, uniform
/// choice between joins and departures, crash probability among
/// departures.
///
/// # Example
///
/// ```
/// use cam_workload::ChurnTrace;
/// use cam_overlay::Member;
/// use cam_ring::{Id, IdSpace};
///
/// let initial: Vec<Member> = (0..50u64)
///     .map(|i| Member::with_capacity(Id(i * 100 + 1), 6))
///     .collect();
/// let trace = ChurnTrace::generate(
///     IdSpace::new(19),
///     &initial,
///     /* events */ 40,
///     /* mean gap */ 200_000.0,
///     /* crash fraction */ 0.5,
///     /* seed */ 7,
/// );
/// assert_eq!(trace.events.len(), 40);
/// // Timestamps are non-decreasing.
/// assert!(trace.events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Events in time order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// Generates `events` churn events against an initial population,
    /// with the paper's default workload for joiners (`B ∈ U[400,1000]`
    /// kbps, `c ∈ U[4..10]`). See [`ChurnTrace::generate_with`] to plumb
    /// a scenario's configured distributions through instead.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, `mean_gap_micros <= 0`, or
    /// `crash_fraction ∉ [0, 1]`.
    pub fn generate(
        space: cam_ring::IdSpace,
        initial: &[Member],
        events: usize,
        mean_gap_micros: f64,
        crash_fraction: f64,
        seed: u64,
    ) -> Self {
        Self::generate_with(
            space,
            initial,
            events,
            mean_gap_micros,
            crash_fraction,
            seed,
            &BandwidthDist::PAPER,
            &CapacityAssignment::PAPER,
        )
    }

    /// Generates `events` churn events whose joining members draw their
    /// bandwidth from `bandwidth` and their capacity from `capacity` —
    /// the same rules the scenario generator applies to the initial
    /// population, so churn does not silently skew the workload.
    ///
    /// Joins and departures are equally likely (keeping the expected group
    /// size stable); `crash_fraction` of departures are crashes. A
    /// departed member's identifier becomes available for reuse, exactly
    /// like a rejoining host in a deployment.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, `mean_gap_micros <= 0`,
    /// `crash_fraction ∉ [0, 1]`, or every identifier in `space` is
    /// simultaneously present when a join fires.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is an independent axis of the churn schedule"
    )]
    pub fn generate_with(
        space: cam_ring::IdSpace,
        initial: &[Member],
        events: usize,
        mean_gap_micros: f64,
        crash_fraction: f64,
        seed: u64,
        bandwidth: &BandwidthDist,
        capacity: &CapacityAssignment,
    ) -> Self {
        assert!(!initial.is_empty(), "empty initial population");
        assert!(mean_gap_micros > 0.0, "non-positive mean gap");
        assert!(
            (0.0..=1.0).contains(&crash_fraction),
            "crash fraction {crash_fraction} out of range"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut present: Vec<Member> = initial.to_vec();
        // Identifiers currently in use; departures release theirs below,
        // so long traces in small identifier spaces cannot exhaust it.
        let mut taken: cam_ring::IdSet<u64> = initial.iter().map(|m| m.id.value()).collect();
        let mut t = 0u64;
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += (-mean_gap_micros * u.ln()).max(1.0) as u64;
            // Keep at least 2 members present.
            let join = present.len() < 3 || rng.gen_bool(0.5);
            if join {
                assert!(
                    (taken.len() as u64) < space.size(),
                    "identifier space exhausted: every id is present"
                );
                let id = loop {
                    let v = rng.gen_range(0..space.size());
                    if taken.insert(v) {
                        break Id(v);
                    }
                };
                let upload_kbps = bandwidth.sample(&mut rng);
                let member = Member {
                    id,
                    capacity: capacity.assign(upload_kbps, &mut rng),
                    upload_kbps,
                };
                present.push(member);
                out.push(ChurnEvent {
                    at_micros: t,
                    kind: ChurnKind::Join(member),
                });
            } else {
                let idx = rng.gen_range(0..present.len());
                let victim = present.swap_remove(idx);
                taken.remove(&victim.id.value());
                let kind = if rng.gen_bool(crash_fraction) {
                    ChurnKind::Crash(victim.id)
                } else {
                    ChurnKind::Leave(victim.id)
                };
                out.push(ChurnEvent { at_micros: t, kind });
            }
        }
        ChurnTrace { events: out }
    }

    /// Number of join events.
    pub fn joins(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ChurnKind::Join(_)))
            .count()
    }

    /// Number of leave + crash events.
    pub fn departures(&self) -> usize {
        self.events.len() - self.joins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_ring::IdSpace;

    fn initial(n: u64) -> Vec<Member> {
        (0..n)
            .map(|i| Member::with_capacity(Id(i * 97 + 5), 6))
            .collect()
    }

    #[test]
    fn deterministic() {
        let space = IdSpace::new(19);
        let init = initial(100);
        let a = ChurnTrace::generate(space, &init, 200, 1e5, 0.5, 3);
        let b = ChurnTrace::generate(space, &init, 200, 1e5, 0.5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn joins_and_departures_roughly_balanced() {
        let space = IdSpace::new(19);
        let trace = ChurnTrace::generate(space, &initial(500), 1000, 1e5, 0.3, 11);
        let joins = trace.joins();
        assert!((350..=650).contains(&joins), "joins {joins}");
        assert_eq!(trace.departures(), 1000 - joins);
    }

    #[test]
    fn concurrently_present_ids_never_collide() {
        let space = IdSpace::new(19);
        let init = initial(50);
        let trace = ChurnTrace::generate(space, &init, 500, 1e4, 0.0, 13);
        // Replay the trace: a join must never reuse an id that is still
        // present — but *departed* ids are fair game, like a rejoining
        // host in a deployment.
        let mut present: cam_ring::IdSet<u64> = init.iter().map(|m| m.id.value()).collect();
        for e in &trace.events {
            match e.kind {
                ChurnKind::Join(m) => {
                    assert!(
                        present.insert(m.id.value()),
                        "join reuses the still-present id {}",
                        m.id
                    );
                }
                ChurnKind::Leave(id) | ChurnKind::Crash(id) => {
                    assert!(present.remove(&id.value()), "departure of absent {id}");
                }
            }
        }
    }

    /// Regression: the id set used to only ever grow, so a long trace in a
    /// small identifier space would spin forever hunting a free id once
    /// the space filled with ghosts. Departures must release their ids.
    #[test]
    fn long_trace_in_tiny_space_terminates_and_recycles_ids() {
        // 64 ids, 3 initial members, 600 events: the joins alone (~300)
        // dwarf the id-space headroom, so this only terminates if
        // departed ids are re-issued.
        let space = IdSpace::new(6);
        let init = initial(3);
        let trace = ChurnTrace::generate(space, &init, 600, 1e4, 0.5, 21);
        assert_eq!(trace.events.len(), 600);

        let mut departed: cam_ring::IdSet<u64> = cam_ring::IdSet::default();
        let mut recycled = false;
        for e in &trace.events {
            match e.kind {
                ChurnKind::Join(m) => recycled |= departed.contains(&m.id.value()),
                ChurnKind::Leave(id) | ChurnKind::Crash(id) => {
                    departed.insert(id.value());
                }
            }
        }
        assert!(recycled, "a departed id must eventually be re-issued");
    }

    /// Joining members follow the scenario's configured workload, not a
    /// hardcoded range.
    #[test]
    fn generate_with_plumbs_configured_distributions() {
        let space = IdSpace::new(19);
        let trace = ChurnTrace::generate_with(
            space,
            &initial(40),
            300,
            1e4,
            0.5,
            9,
            &BandwidthDist::Constant(5_000.0),
            &CapacityAssignment::PerLink {
                p: 1_000.0,
                min: 2,
                max: 64,
            },
        );
        let joins: Vec<Member> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ChurnKind::Join(m) => Some(m),
                _ => None,
            })
            .collect();
        assert!(!joins.is_empty());
        assert!(joins.iter().all(|m| m.upload_kbps == 5_000.0));
        assert!(joins.iter().all(|m| m.capacity == 5));
    }

    /// The defaults must match the scenario generator's paper workload —
    /// and `generate` is a pure delegation, so the two entry points agree
    /// draw for draw.
    #[test]
    fn generate_matches_generate_with_paper_defaults() {
        let space = IdSpace::new(19);
        let init = initial(60);
        let a = ChurnTrace::generate(space, &init, 250, 1e5, 0.3, 17);
        let b = ChurnTrace::generate_with(
            space,
            &init,
            250,
            1e5,
            0.3,
            17,
            &BandwidthDist::PAPER,
            &CapacityAssignment::PAPER,
        );
        assert_eq!(a, b);
        for e in &a.events {
            if let ChurnKind::Join(m) = e.kind {
                assert!((400.0..=1000.0).contains(&m.upload_kbps));
                assert!((4..=10).contains(&m.capacity));
            }
        }
    }

    #[test]
    fn crash_fraction_extremes() {
        let space = IdSpace::new(19);
        let all_crash = ChurnTrace::generate(space, &initial(100), 300, 1e4, 1.0, 5);
        assert!(all_crash
            .events
            .iter()
            .all(|e| !matches!(e.kind, ChurnKind::Leave(_))));
        let no_crash = ChurnTrace::generate(space, &initial(100), 300, 1e4, 0.0, 5);
        assert!(no_crash
            .events
            .iter()
            .all(|e| !matches!(e.kind, ChurnKind::Crash(_))));
    }

    #[test]
    #[should_panic(expected = "empty initial population")]
    fn empty_initial_rejected() {
        ChurnTrace::generate(IdSpace::new(10), &[], 10, 1e4, 0.5, 1);
    }
}
