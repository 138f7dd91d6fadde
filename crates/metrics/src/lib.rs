#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! Measurement utilities for the CAM experiments: histograms, summary
//! statistics, multicast-tree aggregation across sources, and plain-text /
//! CSV table emission for every figure of the paper.

pub mod fairness;
pub mod plot;
pub mod series;
pub mod treeagg;

pub use plot::ascii_plot;
pub use series::{DataSeries, DataTable};
pub use treeagg::TreeAggregator;
