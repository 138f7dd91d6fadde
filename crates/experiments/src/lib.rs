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
//!
//! The measurement utilities the figures share live here too:
//! [`treeagg`] aggregates multicast-tree statistics across sources,
//! [`series`] holds the tables and writes their CSVs, [`plot`] draws them
//! as ASCII charts, and [`fairness`] scores load spread.

pub mod ext;
pub mod fairness;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod plot;
pub mod runner;
pub mod series;
pub mod treeagg;

pub use plot::ascii_plot;
pub use runner::Options;
pub use series::{DataSeries, DataTable};
pub use treeagg::TreeAggregator;

/// One table's harness.
pub type Figure = fn(&Options) -> DataTable;

/// Every table the harness regenerates, in the order `repro all` runs
/// them: the one list behind `repro`'s dispatch and usage text and the
/// pinned `results/<name>.csv` files.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("resilience", ext::live::resilience),
    ("overhead", ext::overhead),
    ("ablation", ext::ablation),
    ("lookup", ext::lookup_hops),
    ("load", ext::load_balance),
    ("churn", ext::live::churn),
    ("proximity", ext::proximity),
    ("loss", ext::live::loss),
    ("theory", ext::theory),
    ("heterogeneity", ext::heterogeneity),
    ("stability", ext::tree_stability),
    ("multigroup", ext::multigroup),
];
