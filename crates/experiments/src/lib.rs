#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

//! Experiment harness: regenerates every figure of the paper's evaluation
//! (Section 6) plus the extension experiments listed in `DESIGN.md`.
//!
//! Each `figN` module exposes a `run(&Options) -> DataTable` that produces
//! the same series the paper plots; the `repro` binary prints them as
//! aligned text tables and writes CSVs under `results/`. `Options::quick()`
//! shrinks the group size so the whole suite can run in CI and in tests;
//! `Options::paper()` uses the paper's full 100,000-node groups.
//!
//! | Module | Paper figure | What it shows |
//! |--------|--------------|---------------|
//! | [`fig6`] | Figure 6 | throughput vs. average children, 4 systems |
//! | [`fig7`] | Figure 7 | CAM/baseline throughput ratio vs. bandwidth range |
//! | [`fig8`] | Figure 8 | throughput ↔ path-length trade-off |
//! | [`fig9`] | Figure 9 | CAM-Chord path-length distribution per capacity range |
//! | [`fig10`] | Figure 10 | CAM-Koorde path-length distribution per capacity range |
//! | [`fig11`] | Figure 11 | average path length vs. average capacity + 1.5·ln n/ln c |
//! | [`ext`] | — | resilience under churn, maintenance overhead, ablations, lookup hops |

pub mod ext;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod runner;

pub use runner::Options;
