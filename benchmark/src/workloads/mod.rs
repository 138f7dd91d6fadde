//! The six workloads. Each module's header says what it stresses, what it
//! bypasses, and what an op and a message are there.

pub mod pubsub_mix;
pub mod sim_churn;
pub mod sim_multicast;
mod simnet;
pub mod static_trees;
pub mod wire_mem;
pub mod wire_udp;
mod wirenet;

use cam_overlay::Member;
use cam_workload::Scenario;

/// `n` members in ring order from the paper's capacity and bandwidth
/// distributions — the membership every dynamic workload starts from.
fn scenario_members(n: usize, seed: u64) -> Vec<Member> {
    Scenario::paper_default(seed)
        .with_n(n)
        .members()
        .iter()
        .collect()
}
