//! Shared experiment plumbing: options, tree sampling, and sweeps.
//!
//! The two parallel entry points — [`parallel_sweep`] over experiment
//! configurations and [`sample_trees`] over multicast sources — both run on
//! a fixed-size pool of scoped worker threads (one per available core) and
//! are *deterministic*: their output is bit-identical to the serial
//! equivalent, because work items are deterministic functions of their
//! input and results are folded in input order on the calling thread.
//! A sweep issued from inside a pool worker (every figure samples trees
//! inside its sweep over configurations) runs inline on that worker, so
//! the process never holds more than one pool's worth of threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use cam_overlay::{StaticOverlay, TreeStats};
use rand::{Rng, SeedableRng};

use crate::TreeAggregator;

/// Knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Group size (the paper: 100,000).
    pub n: usize,
    /// Multicast sources sampled per configuration.
    pub sources: usize,
    /// Base seed; every configuration derives its own sub-seed.
    pub seed: u64,
}

impl Options {
    /// The paper's full scale: 100,000 members, 5 sources per point.
    pub fn paper() -> Self {
        Options {
            n: 100_000,
            sources: 5,
            seed: 0xCA11AB1E,
        }
    }

    /// A CI-sized variant (same code paths, ~3s total).
    pub fn quick() -> Self {
        Options {
            n: 4_000,
            sources: 3,
            seed: 0xCA11AB1E,
        }
    }

    /// Derives a per-configuration seed (stable across runs).
    pub fn sub_seed(&self, tag: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag)
    }
}

/// Samples `k` distinct member indices from `0..n` uniformly (`k` clamped
/// to `n`), in draw order — a sparse partial Fisher–Yates shuffle, so the
/// cost is `O(k)` regardless of `n` and every `k`-subset is equally likely.
///
/// Replaces the old bounded-retry sampler, which could repeat a source when
/// 16 consecutive redraws collided.
pub fn sample_distinct_sources(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Sparse view of the Fisher–Yates array: absent key i means slot i
    // still holds value i.
    let mut displaced: cam_ring::IdMap<usize, usize> = cam_ring::IdMap::default();
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        let vj = displaced.get(&j).copied().unwrap_or(j);
        let vi = displaced.get(&i).copied().unwrap_or(i);
        displaced.insert(j, vi);
        out.push(vj);
    }
    out
}

/// Runs `sources` multicasts from distinct random sources of the overlay
/// and aggregates their statistics, never materializing a tree: each
/// source streams through [`StaticOverlay::multicast_stats`] and only the
/// `(TreeStats, throughput)` pair travels back — one tree's summary in
/// flight per source, which is what makes million-member sweeps affordable.
///
/// The sources run on the worker pool (inline when the caller is already a
/// pool worker, as inside every figure's sweep); the aggregate is
/// bit-identical to a serial fold either way, because a multicast takes no
/// RNG and aggregation happens in source order on the calling thread.
pub fn sample_trees<O: StaticOverlay + ?Sized>(
    overlay: &O,
    sources: usize,
    seed: u64,
) -> TreeAggregator {
    let srcs = sample_distinct_sources(overlay.members().len(), sources, seed);
    let stats: Vec<(TreeStats, f64)> =
        parallel_sweep(srcs, |&src| overlay.multicast_stats(src));
    let mut agg = TreeAggregator::new();
    for (s, tput) in &stats {
        debug_assert!(
            s.delivered == s.group_size,
            "incomplete multicast ({} of {})",
            s.delivered,
            s.group_size
        );
        agg.record_stats(s, *tput);
    }
    agg
}

thread_local! {
    /// Set on every pool worker for its whole life.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` over each item of `inputs` on a fixed-size worker pool (one
/// scoped thread per available core, never more than there are items),
/// preserving input order in the output.
///
/// Workers claim items through a shared atomic counter, so uneven item
/// costs self-balance. Replaces the previous thread-per-input spawn, which
/// created `inputs.len()` OS threads regardless of core count.
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    parallel_sweep_with_workers(inputs, f, workers)
}

/// [`parallel_sweep`] with an explicit pool size — lets the determinism
/// tests exercise the pooled path even on single-core machines (where
/// [`parallel_sweep`] would fall back to the serial loop).
pub fn parallel_sweep_with_workers<I, O, F>(inputs: Vec<I>, f: F, workers: usize) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    let workers = workers.min(n);
    // A worker that sweeps again does the inner items itself: its siblings
    // already occupy the other cores.
    if workers <= 1 || IN_POOL.get() {
        return inputs.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_POOL.set(true);
                    let mut local: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&inputs[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("sweep worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_core::CamChord;
    use cam_workload::Scenario;

    #[test]
    fn sample_trees_aggregates() {
        let group = Scenario::paper_default(1).with_n(300).members();
        let overlay = CamChord::new(group);
        let agg = sample_trees(&overlay, 4, 9);
        assert_eq!(agg.trees(), 4);
        assert_eq!(agg.incomplete, 0);
        assert!(agg.throughput_kbps.mean() > 0.0);
    }

    /// The million-member tier: the streaming sweep completes every tree
    /// at n = 1,000,000 in a 24-bit space without materializing one.
    /// Run with `cargo test --release -p cam-experiments -- --ignored million`.
    #[test]
    #[ignore = "n = 1,000,000: ~100 MB resident, ~1 s in release"]
    fn streaming_sweep_completes_at_a_million_members() {
        let group = Scenario::paper_default(6)
            .with_bits(24)
            .with_n(1_000_000)
            .members();
        let overlay = CamChord::new(group);
        let agg = sample_trees(&overlay, 3, 0x5CA1E);
        assert_eq!(agg.trees(), 3);
        assert_eq!(agg.incomplete, 0, "scale sweep produced incomplete trees");
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let out = parallel_sweep((0..32).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// Forcing various pool widths (beyond what this machine reports) must
    /// not change the output — single-core CI would otherwise never
    /// exercise the claim-loop merge.
    #[test]
    fn parallel_sweep_is_bit_identical_for_any_worker_count() {
        let overlay = CamChord::new(Scenario::paper_default(23).with_n(800).members());
        let sources: Vec<usize> = (0..16).map(|i| i * 50).collect();
        let depth = |&s: &usize| overlay.multicast_stats(s).0.depth;
        let reference: Vec<u32> = sources.iter().map(depth).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            let pooled = parallel_sweep_with_workers(sources.clone(), depth, workers);
            assert_eq!(pooled, reference, "workers={workers}");
        }
    }

    /// A sweep issued from a pool worker must not spawn a second pool: the
    /// inner closure runs on the outer worker's own thread, and the result
    /// is still the serial map.
    #[test]
    fn parallel_sweep_nested_runs_inline() {
        let outer: Vec<u64> = (0..6).collect();
        let out = parallel_sweep_with_workers(
            outer.clone(),
            |&x| {
                let worker = std::thread::current().id();
                let inner = parallel_sweep_with_workers(
                    (0..5u64).collect(),
                    |&y| (std::thread::current().id(), x * 10 + y),
                    4,
                );
                assert!(inner.iter().all(|&(id, _)| id == worker));
                inner.iter().map(|&(_, v)| v).sum::<u64>()
            },
            3,
        );
        let serial: Vec<u64> = outer
            .iter()
            .map(|&x| (0..5u64).map(|y| x * 10 + y).sum())
            .collect();
        assert_eq!(out, serial);
        // The caller's thread is not a worker: it may pool again.
        assert!(!IN_POOL.get());
    }

    #[test]
    fn sub_seeds_differ() {
        let o = Options::quick();
        assert_ne!(o.sub_seed(1), o.sub_seed(2));
    }
}
