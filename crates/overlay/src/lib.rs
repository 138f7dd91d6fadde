#![forbid(unsafe_code)]
#![warn(
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! Shared substrate for structured-overlay multicast systems.
//!
//! Everything the four protocols (Chord, Koorde, CAM-Chord, CAM-Koorde)
//! have in common lives here:
//!
//! * [`Member`] / [`MemberSet`] — the multicast group: hosts with
//!   identifiers, capacities, and upload bandwidths, sorted on the ring.
//!   `MemberSet` answers *oracle* questions (`successor`, `predecessor`,
//!   `owner of identifier k`) by binary search; the static overlays resolve
//!   their neighbor tables against it, and tests use it as ground truth for
//!   lookup correctness.
//! * [`MulticastTree`] — the implicit dissemination tree extracted from a
//!   multicast run, with exactly-once bookkeeping and statistics (path
//!   lengths, fan-outs, depth).
//! * [`stream`] — the two dissemination walks (region split, flood) every
//!   static overlay runs, generic over a [`DeliverySink`].
//! * [`LookupResult`] — the outcome of a routed lookup (owner + hop path).
//! * [`StaticOverlay`] — the trait every protocol implements for the
//!   large-scale (100k-node) experiments: routing tables computed directly
//!   from full membership, exactly what a converged maintenance protocol
//!   would produce.
//! * [`dynamic`] — a message-level DHT node actor running on
//!   [`cam_sim`]: join, periodic stabilization, successor lists, failure
//!   detection, and multicast over the live overlay. Protocols plug in via
//!   [`dynamic::DhtProtocol`]. This is what backs the churn/resilience
//!   experiments ("resilient" in the paper's title).

pub mod adversary;
pub mod dynamic;
pub mod lookup;
pub mod peer;
pub mod stream;
pub mod tree;

pub use adversary::{AdversaryState, ByzantineBehavior, DetectionCounters};
pub use lookup::LookupResult;
pub use peer::{Member, MemberSet, Members};
pub use stream::{DeliverySink, StreamingTreeStats};
pub use tree::{MulticastTree, TreeStats};

use cam_ring::Id;

/// A fully resolved overlay built from complete membership knowledge.
///
/// This is the state a correct maintenance protocol converges to; computing
/// it directly makes 100,000-node experiments (the paper's default group
/// size) tractable. Implementations exist for Chord, Koorde, CAM-Chord and
/// CAM-Koorde.
///
/// `Send + Sync` is required so the experiment harness can fan one resolved
/// overlay out to a worker pool (overlays are immutable once built; all
/// implementations are plain data).
pub trait StaticOverlay: Send + Sync {
    /// The group this overlay interconnects.
    fn members(&self) -> &MemberSet;

    /// Routes a lookup for `key` starting at member index `origin`,
    /// returning the owner (the member responsible for `key`) and the hop
    /// path taken.
    fn lookup(&self, origin: usize, key: Id) -> LookupResult;

    /// Runs the protocol's dissemination routine from member index
    /// `source`, reporting every delivery to `sink` — the one thing a
    /// protocol says about multicast. Implementations hand their child
    /// rule to [`stream::region_walk`] or their adjacency to
    /// [`stream::flood_walk`] and so inherit the sink contract of
    /// [`stream`].
    fn multicast_into(&self, source: usize, sink: &mut dyn DeliverySink);

    /// Runs the multicast from `source` and returns the implicit
    /// dissemination tree.
    fn multicast_tree(&self, source: usize) -> MulticastTree {
        let mut tree = MulticastTree::new(self.members().len(), source);
        self.multicast_into(source, &mut tree);
        tree
    }

    /// Runs the multicast from `source` and returns only the summary
    /// statistics plus the bottleneck throughput in kbps, in `O(depth)`
    /// memory — bit-identical to summarizing
    /// [`multicast_tree`](Self::multicast_tree), because both are sinks of
    /// the same walk.
    fn multicast_stats(&self, source: usize) -> (TreeStats, f64) {
        let mut stats = StreamingTreeStats::new(self.members());
        self.multicast_into(source, &mut stats);
        stats.finish()
    }

    /// Number of distinct overlay neighbors (routing-table entries) of a
    /// member — the maintenance cost the paper compares in Section 2.
    fn neighbor_count(&self, member: usize) -> usize;

    /// Human-readable protocol name for reports.
    fn name(&self) -> &'static str;
}
