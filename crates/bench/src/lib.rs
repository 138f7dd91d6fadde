#![forbid(unsafe_code)]

//! Shared helpers for the Criterion benches.
//!
//! Each paper figure has a bench target that regenerates its data series
//! (at a reduced group size so a full `cargo bench` stays tractable); the
//! authoritative full-scale regeneration is `cargo run --release -p
//! cam-experiments --bin repro`. `micro` benches the primitive operations
//! (lookup, multicast-tree construction, neighbor resolution) and
//! `ablation` the design-choice variants from DESIGN.md.

use cam_experiments::Options;

/// Bench-sized options: small enough for Criterion iterations, large
/// enough that the algorithms dominate constant overheads.
pub fn bench_options() -> Options {
    let mut opts = Options::quick();
    opts.n = 1_000;
    opts.sources = 2;
    opts
}
