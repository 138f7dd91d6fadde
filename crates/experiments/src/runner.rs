//! Shared experiment plumbing: options, tree sampling, and sweeps.
//!
//! The two parallel entry points — [`parallel_sweep`] over experiment
//! configurations and [`sample_trees`] over multicast sources — both run on
//! a fixed-size pool of scoped worker threads (one per available core) and
//! are *deterministic*: their output is bit-identical to the serial
//! equivalent, because work items are deterministic functions of their
//! input and results are folded in input order on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};

use cam_metrics::TreeAggregator;
use cam_overlay::{MulticastTree, StaticOverlay};
use rand::{Rng, SeedableRng};

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

/// Below this group size a multicast tree is too cheap to be worth shipping
/// to the worker pool; [`sample_trees`] stays on the calling thread.
const PARALLEL_SOURCES_MIN_N: usize = 2_000;

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
    let mut displaced: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
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

/// Builds `sources` multicast trees from distinct random sources of the
/// overlay and aggregates their statistics.
///
/// On groups of at least [`PARALLEL_SOURCES_MIN_N`] members the trees are
/// built on the worker pool; the aggregate is bit-identical to
/// [`sample_trees_serial`] either way, because tree construction takes no
/// RNG and aggregation happens in source order on the calling thread.
///
/// # Panics
///
/// Panics if the overlay has no members.
pub fn sample_trees<O: StaticOverlay + ?Sized>(
    overlay: &O,
    sources: usize,
    seed: u64,
) -> TreeAggregator {
    let srcs = sample_distinct_sources(overlay.members().len(), sources, seed);
    let trees: Vec<MulticastTree> =
        if overlay.members().len() >= PARALLEL_SOURCES_MIN_N && srcs.len() >= 2 {
            parallel_sweep(srcs, |&src| overlay.multicast_tree(src))
        } else {
            srcs.iter()
                .map(|&src| overlay.multicast_tree(src))
                .collect()
        };
    aggregate(overlay, &trees)
}

/// [`sample_trees`] without materializing any tree: each source runs the
/// overlay's [`multicast_stats`](StaticOverlay::multicast_stats) path
/// (streaming for CAM-Chord, materialize-and-summarize for the rest) and
/// only the `(TreeStats, throughput)` pairs travel back for aggregation.
///
/// The aggregate is bit-identical to [`sample_trees`] — same sources, same
/// statistics, folded in the same order — which is what makes million-member
/// sweeps affordable: peak memory is one tree's summary per in-flight
/// source instead of 20 MB of flat arrays each.
///
/// # Panics
///
/// Panics if the overlay has no members.
pub fn sample_tree_stats<O: StaticOverlay + ?Sized>(
    overlay: &O,
    sources: usize,
    seed: u64,
) -> TreeAggregator {
    assert!(!overlay.members().is_empty(), "empty overlay");
    let srcs = sample_distinct_sources(overlay.members().len(), sources, seed);
    let stats: Vec<(cam_overlay::TreeStats, f64)> =
        if overlay.members().len() >= PARALLEL_SOURCES_MIN_N && srcs.len() >= 2 {
            parallel_sweep(srcs, |&src| overlay.multicast_stats(src))
        } else {
            srcs.iter()
                .map(|&src| overlay.multicast_stats(src))
                .collect()
        };
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

/// [`sample_trees`] pinned to the calling thread — the reference the
/// determinism tests compare against.
///
/// # Panics
///
/// Panics if the overlay has no members.
pub fn sample_trees_serial<O: StaticOverlay + ?Sized>(
    overlay: &O,
    sources: usize,
    seed: u64,
) -> TreeAggregator {
    let srcs = sample_distinct_sources(overlay.members().len(), sources, seed);
    let trees: Vec<MulticastTree> = srcs
        .iter()
        .map(|&src| overlay.multicast_tree(src))
        .collect();
    aggregate(overlay, &trees)
}

fn aggregate<O: StaticOverlay + ?Sized>(
    overlay: &O,
    trees: &[MulticastTree],
) -> TreeAggregator {
    assert!(!overlay.members().is_empty(), "empty overlay");
    let mut agg = TreeAggregator::new();
    for tree in trees {
        debug_assert!(
            tree.is_complete(),
            "incomplete multicast from {}",
            tree.source()
        );
        agg.record(overlay.members(), tree);
    }
    agg
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
    if workers <= 1 {
        return inputs.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
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

    /// The streaming sampler must reproduce the materialized sampler's
    /// aggregate exactly (TreeAggregator's PartialEq is bit-level on the
    /// f64 summaries).
    #[test]
    fn streaming_sampler_matches_materialized() {
        let group = Scenario::paper_default(5).with_n(2_500).members();
        let overlay = CamChord::new(group);
        let materialized = sample_trees(&overlay, 4, 77);
        let streamed = sample_tree_stats(&overlay, 4, 77);
        assert_eq!(streamed, materialized);
        assert_eq!(streamed.trees(), 4);
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
        let agg = sample_tree_stats(&overlay, 3, 0x5CA1E);
        assert_eq!(agg.trees(), 3);
        assert_eq!(agg.incomplete, 0, "scale sweep produced incomplete trees");
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let out = parallel_sweep((0..32).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sub_seeds_differ() {
        let o = Options::quick();
        assert_ne!(o.sub_seed(1), o.sub_seed(2));
    }
}
