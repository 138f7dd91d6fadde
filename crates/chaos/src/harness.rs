//! The chaos harness: replays a [`FaultPlan`] against a host and reports.
//!
//! Two hosts execute the same plan:
//!
//! * **Net** — the cam-net [`Cluster`] over an [`InMemoryTransport`]: real
//!   wire codec, acks, retransmit timers, frame-level faults.
//! * **Sim** — the cam-overlay [`DynamicNetwork`] over the pure event
//!   simulation: no frame layer, so duplication events are no-ops there.
//!
//! Both are driven from the plan's seed alone. The report carries an
//! order-sensitive FNV-1a fingerprint over the complete observable end
//! state; two runs of the same plan on the same host must produce equal
//! fingerprints, which is what the shrinker's "bit-identical reproduction"
//! check means.
//!
//! A fail-fast guard runs between event batches: the moment any node's
//! application delivery log outgrows its duplicate-suppression table, the
//! run aborts with a `duplicate_suppression` violation. That keeps a
//! mutated (suppression-disabled) build from flooding itself into an
//! exponential message explosion before the oracle can rule.

use bytes::Bytes;
use cam_core::cam_chord::CamChordProtocol;
use cam_core::cam_koorde::CamKoordeProtocol;
use cam_net::runtime::{Cluster, RetransmitPolicy};
use cam_net::transport::{InMemoryTransport, Transport};
use cam_overlay::dynamic::{DhtActor, DhtProtocol, DynamicNetwork};
use cam_overlay::{Member, MemberSet};
use cam_pubsub::GroupRegistry;
use cam_ring::IdSpace;
use cam_sim::time::Duration;
use cam_sim::LatencyModel;
use cam_trace::{EventKind, RecordingTracer, TraceEvent, Tracer};

use crate::oracle::{
    census_of, check_cleanup, check_cross_group_capacity, check_delivery,
    check_duplicate_suppression, check_forward_cycles, check_join_completion,
    check_neighbor_ideal, check_ring_convergence, NodeSnapshot, Violation,
};
use crate::plan::{AdversarySpec, FaultKind, FaultPlan, ProtocolChoice};

/// Which execution substrate runs the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKind {
    /// cam-net cluster over the in-memory wire transport.
    Net,
    /// Pure cam-sim event simulation.
    Sim,
}

impl HostKind {
    /// Stable lowercase name (used in replay bundles).
    pub fn name(self) -> &'static str {
        match self {
            HostKind::Net => "net",
            HostKind::Sim => "sim",
        }
    }
}

/// Everything a chaos run reports: the oracle verdicts plus the state
/// digest that replay compares.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Host that executed the plan.
    pub host: HostKind,
    /// Order-sensitive FNV-1a digest of the complete end state.
    pub fingerprint: u64,
    /// Every oracle violation, in deterministic order. Empty = pass.
    pub violations: Vec<Violation>,
    /// Per-payload delivery census at the end: `(payload, live, delivered)`.
    pub census: Vec<(u64, u64, u64)>,
    /// Payload id of the post-heal final multicast, if the run got there.
    pub final_payload: Option<u64>,
    /// Fault events applied before the run ended (short of `events.len()`
    /// only when the fail-fast guard aborted).
    pub events_applied: usize,
    /// Chrome-trace JSON of the run, when recording was requested.
    pub trace_json: Option<String>,
    /// Final per-node state, in node-index order (what the oracles saw).
    pub snapshots: Vec<NodeSnapshot>,
    /// Adversary timeline extracted from the trace (recording runs only):
    /// `(at_micros, is_detection, label)` — label is the behavior name
    /// for acts and the detector name for detections, in trace order.
    pub adversary_events: Vec<(u64, bool, &'static str)>,
}

impl ChaosReport {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The line `cam-chaos` prints for this run of `plan`, which is also
    /// the row the chaos pins hold: `seed N [preset/host] ok: E events,
    /// fingerprint F`, or `… FAILED with K violation(s):` when an oracle
    /// fired.
    pub fn summary(&self, plan: &FaultPlan) -> String {
        let head = format!(
            "seed {:>4} [{}/{}]",
            plan.seed,
            plan.preset,
            self.host.name()
        );
        if self.passed() {
            format!(
                "{head} ok: {} events, fingerprint {:016x}",
                self.events_applied, self.fingerprint
            )
        } else {
            format!("{head} FAILED with {} violation(s):", self.violations.len())
        }
    }
}

/// Order-sensitive FNV-1a 64-bit folder — the replay fingerprint.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Standard FNV-1a offset basis.
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word.
    pub fn u64(&mut self, v: u64) {
        // Byte-wise FNV-1a keeps avalanche decent without pulling in a
        // hash dependency.
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a byte string.
    pub fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        for &b in s {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Runs `plan` on `host`. `record` installs a recording tracer and
/// attaches Chrome-trace JSON to the report (and enables the trace-based
/// forward-cycle oracle).
pub fn run_plan(plan: &FaultPlan, host: HostKind, record: bool) -> ChaosReport {
    match plan.protocol {
        ProtocolChoice::Chord => run_with(plan, &CamChordProtocol, host, record),
        ProtocolChoice::Koorde => run_with(plan, &CamKoordeProtocol, host, record),
    }
}

fn run_with<P: DhtProtocol>(
    plan: &FaultPlan,
    protocol: &P,
    kind: HostKind,
    record: bool,
) -> ChaosReport {
    let members = plan.initial_members();
    match kind {
        HostKind::Net => {
            let endpoints = plan.nodes + plan.join_count();
            let transport = InMemoryTransport::new(endpoints, plan.seed, chaos_latency());
            let mut cluster = Cluster::converged(
                IdSpace::PAPER,
                &members,
                protocol.clone(),
                plan.seed,
                transport,
                RetransmitPolicy::default(),
            );
            drive(plan, protocol, &mut cluster, kind, record)
        }
        HostKind::Sim => {
            let mut net = DynamicNetwork::converged(
                IdSpace::PAPER,
                &members,
                protocol.clone(),
                plan.seed,
                chaos_latency(),
            );
            drive(plan, protocol, &mut net, kind, record)
        }
    }
}

fn chaos_latency() -> LatencyModel {
    LatencyModel::Uniform {
        min: Duration::from_micros(10_000),
        max: Duration::from_micros(60_000),
    }
}

/// What the driver needs from a host of `DhtActor<P>`s. Only what differs
/// between the two substrates lives behind this trait — how time runs, how
/// faults reach the wire, how nodes come and go; everything the driver can
/// do through an actor or the tracer it does itself, once.
trait ChaosHost<P: DhtProtocol> {
    fn nodes(&self) -> usize;
    fn now_micros(&self) -> u64;
    /// Advance virtual time by `span`; true if the fail-fast duplicate
    /// guard tripped.
    fn run_guarded(&mut self, span: Duration) -> bool;
    /// Drain retransmit state (net); a plain settle slice on the sim,
    /// which has no frame layer to drain.
    fn run_quiet(&mut self, max: Duration);
    fn crash(&mut self, node: usize);
    /// A graceful departure. The wire runtime knows only silence, so it
    /// is a crash there; the sim host traces the distinction.
    fn leave(&mut self, node: usize) {
        self.crash(node);
    }
    /// Restarts crashed `node` with fresh state; false if it is running.
    fn restart_node(&mut self, node: usize, protocol: &P) -> bool;
    /// Starts `member`'s join; the joiner's node index, if it was admitted.
    fn join_member(&mut self, member: Member, protocol: &P) -> Option<usize>;
    fn set_links_blocked(&mut self, cut: &[(u32, u32)], blocked: bool);
    fn heal_partitions(&mut self);
    fn set_loss_per_mille(&mut self, pm: u16);
    fn set_dup_per_mille(&mut self, pm: u16);
    /// Multicasts from node 0; the payload id.
    fn multicast(&mut self, region_split: bool) -> u64;
    fn retry_joins(&mut self);
    /// The live actor at `node`, if any.
    fn actor_mut(&mut self, node: usize) -> Option<&mut DhtActor<P>>;
    fn snapshots(&self) -> Vec<NodeSnapshot>;
    fn fold_counters(&self, h: &mut Fingerprint);
    fn install_tracer(&mut self, tracer: Box<dyn Tracer>);
    fn tracer_mut(&mut self) -> &mut dyn Tracer;
}

/// The fail-fast guard: an application delivery log longer than the
/// duplicate-suppression table means a payload was delivered twice.
fn suppression_broken<P: DhtProtocol>(actor: &DhtActor<P>) -> bool {
    actor.received_log.len() > actor.payloads_received()
}

/// Applies the plan's per-node settings to a fresh actor: anti-entropy
/// when the plan runs with it, and the Byzantine behavior when this node
/// is the planned adversary (re-attached with the planned seed after a
/// restart, so replays remain deterministic).
fn equip<P: DhtProtocol>(
    actor: &mut DhtActor<P>,
    anti_entropy: bool,
    adversary: Option<AdversarySpec>,
) {
    if anti_entropy {
        actor.set_anti_entropy(true);
    }
    if let Some(adv) = adversary {
        actor.attach_adversary(adv.behavior, adv.seed);
    }
}

fn drive<P: DhtProtocol, H: ChaosHost<P>>(
    plan: &FaultPlan,
    protocol: &P,
    host: &mut H,
    kind: HostKind,
    record: bool,
) -> ChaosReport {
    if record {
        host.install_tracer(Box::new(RecordingTracer::with_capacity(1 << 18)));
    }
    let adversary_at = |node: usize| plan.adversary.filter(|adv| adv.node as usize == node);
    for node in 0..host.nodes() {
        if let Some(actor) = host.actor_mut(node) {
            equip(actor, plan.anti_entropy, adversary_at(node));
        }
    }

    let mut violations: Vec<Violation> = Vec::new();
    let mut payloads: Vec<u64> = Vec::new();
    let mut final_payload = None;
    let mut applied = 0usize;
    let mut aborted = false;

    // Shadow pub/sub registry for the plan's group events. Group ops are
    // service-level: the driver applies them to one registry over the
    // plan's initial membership (never the joiners), identically for both
    // hosts, and the `cross_group_capacity` oracle audits its ledger at
    // every quiescent point. Wire traffic is untouched, so host-parity
    // comparisons stay meaningful.
    let mut registry = GroupRegistry::new(
        MemberSet::new(IdSpace::PAPER, plan.initial_members())
            .expect("plan members satisfy overlay capacity bounds"),
    );

    host.set_loss_per_mille(plan.loss_base_per_mille);

    let mut cursor = 0u64;
    for ev in &plan.events {
        if ev.at_micros > cursor {
            let span = Duration::from_micros(ev.at_micros - cursor);
            cursor = ev.at_micros;
            if host.run_guarded(span) {
                aborted = true;
                break;
            }
        }
        applied += 1;
        match &ev.kind {
            FaultKind::Crash { node } => {
                if (*node as usize) < host.nodes() {
                    host.crash(*node as usize);
                }
            }
            FaultKind::Leave { node } => {
                if (*node as usize) < host.nodes() {
                    host.leave(*node as usize);
                }
            }
            FaultKind::Restart { node } => {
                let node = *node as usize;
                if node < host.nodes() && host.restart_node(node, protocol) {
                    if let Some(actor) = host.actor_mut(node) {
                        equip(actor, plan.anti_entropy, adversary_at(node));
                    }
                }
            }
            FaultKind::Join { member } => {
                if let Some(node) = host.join_member(*member, protocol) {
                    if let Some(actor) = host.actor_mut(node) {
                        equip(actor, plan.anti_entropy, None);
                    }
                }
            }
            FaultKind::PartitionStart { cut } => host.set_links_blocked(cut, true),
            FaultKind::PartitionHeal => host.heal_partitions(),
            FaultKind::LossBurst { per_mille } => host.set_loss_per_mille(*per_mille),
            FaultKind::LossRestore => host.set_loss_per_mille(plan.loss_base_per_mille),
            FaultKind::Duplicate { per_mille } => host.set_dup_per_mille(*per_mille),
            FaultKind::Multicast => payloads.push(host.multicast(plan.region_split)),
            // Group events mutate the shadow registry only; admission
            // rejections and unknown-group errors are legitimate outcomes
            // under a random schedule, not failures.
            FaultKind::GroupCreate { group } => {
                let _ = registry.create_group(*group);
            }
            FaultKind::GroupSubscribe { group, node } => {
                let _ = registry.subscribe(*group, *node as usize);
            }
            FaultKind::GroupUnsubscribe { group, node } => {
                let _ = registry.unsubscribe(*group, *node as usize);
            }
            FaultKind::GroupDestroy { group } => {
                let _ = registry.destroy_group(*group);
            }
            FaultKind::Quiesce => {
                host.run_quiet(Duration::from_micros(5_000_000));
                let snaps = host.snapshots();
                violations.extend(check_duplicate_suppression(&snaps));
                violations.extend(check_cross_group_capacity(registry.ledger()));
                host.retry_joins();
                if !violations.is_empty() {
                    aborted = true;
                    break;
                }
            }
        }
    }

    if !aborted {
        // Heal everything, settle, then demand the full invariant catalog.
        // All fault knobs go to zero — including the preset's base loss:
        // the oracles assert converged state at a *quiescent* point, and
        // even 1% background loss makes a double-lost stabilize round
        // trip (which spuriously evicts a live successor, correctly
        // self-healing a second later) likely somewhere in a 100s+ run.
        // Catching the ring mid-repair would flag correct behavior.
        host.heal_partitions();
        host.set_loss_per_mille(0);
        host.set_dup_per_mille(0);
        // Settle in slices with a join retry before each one: a retried
        // JoinRequest can be forwarded into a dead finger some node has
        // not evicted yet, and each retry penetrates at least one hop
        // further past such stale state. Retrying early also leaves the
        // bulk of the settle window for finger re-resolution to converge
        // on late joiners' regions.
        let slices = 8;
        let slice = Duration::from_micros(plan.settle_secs.max(1) * 1_000_000 / slices);
        for _ in 0..slices {
            host.retry_joins();
            aborted = host.run_guarded(slice);
            if aborted {
                break;
            }
        }
        if !aborted {
            let fp = host.multicast(plan.region_split);
            payloads.push(fp);
            final_payload = Some(fp);
            aborted = host.run_guarded(Duration::from_micros(plan.final_wait_secs * 1_000_000));
        }
        if !aborted {
            host.run_quiet(Duration::from_micros(10_000_000));
        }

        let snaps = host.snapshots();
        violations.extend(check_duplicate_suppression(&snaps));
        let recorded: Vec<TraceEvent> = match host.tracer_mut().as_recording() {
            Some(r) => r.events().cloned().collect(),
            None => Vec::new(),
        };
        violations.extend(check_forward_cycles(&recorded));
        let required: Vec<u64> = if plan.anti_entropy {
            payloads.clone()
        } else {
            final_payload.into_iter().collect()
        };
        if !aborted {
            // With a planned adversary the run is judged by the degraded
            // catalog (see oracle.rs module docs).
            let adv: Option<&AdversarySpec> = plan.adversary.as_ref();
            violations.extend(check_delivery(&snaps, &required, adv));
            violations.extend(check_join_completion(&snaps, adv));
            violations.extend(check_ring_convergence(&snaps, adv));
            violations.extend(check_neighbor_ideal(
                &snaps,
                &|m| protocol.neighbor_targets(IdSpace::PAPER, m),
                adv,
            ));
            violations.extend(check_cleanup(&snaps, kind == HostKind::Net, adv));
            violations.extend(check_cross_group_capacity(registry.ledger()));
        }
    } else {
        let snaps = host.snapshots();
        violations.extend(check_duplicate_suppression(&snaps));
    }
    let at = host.now_micros();
    for v in &violations {
        let node = v.node.unwrap_or(u64::MAX);
        host.tracer_mut()
            .record(at, node, EventKind::OracleViolation { oracle: v.oracle });
    }

    let snaps = host.snapshots();
    let census: Vec<(u64, u64, u64)> = payloads
        .iter()
        .map(|&p| {
            let (live, delivered) = census_of(&snaps, p);
            (p, live, delivered)
        })
        .collect();

    let mut h = Fingerprint::new();
    h.u64(plan.seed);
    h.u64(applied as u64);
    h.u64(host.now_micros());
    for s in &snaps {
        h.u64(s.member.id.value());
        h.u64(u64::from(s.alive));
        h.u64(u64::from(s.joined));
        h.u64(s.successor.map_or(u64::MAX, |i| i.value()));
        h.u64(s.predecessor.map_or(u64::MAX, |i| i.value()));
        h.u64(s.fingers.len() as u64);
        for &(t, id) in &s.fingers {
            h.u64(t);
            h.u64(id.value());
        }
        h.u64(s.received.len() as u64);
        for &(p, hops) in &s.received {
            h.u64(p);
            h.u64(u64::from(hops));
        }
        h.u64(s.unacked as u64);
        h.u64(s.armed_timers as u64);
        h.u64(s.detections.region_violations);
        h.u64(s.detections.capacity_forgeries);
        h.u64(s.detections.replay_suspects);
        h.u64(s.detections.stale_claims);
        h.u64(s.detections.repair_recoveries);
        h.u64(s.adversary_acts);
    }
    for &(p, live, delivered) in &census {
        h.u64(p);
        h.u64(live);
        h.u64(delivered);
    }
    for v in &violations {
        h.bytes(v.oracle.as_bytes());
        h.u64(v.node.map_or(u64::MAX, |n| n));
        h.bytes(v.detail.as_bytes());
    }
    host.fold_counters(&mut h);
    // Fold the shadow registry's end state so group-event schedules are
    // covered by the bit-identical-replay guarantee too.
    let groups = registry.group_ids();
    h.u64(groups.len() as u64);
    for g in groups {
        h.u64(g);
        h.u64(registry.subscriber_count(g) as u64);
        h.u64(u64::from(registry.is_degraded(g)));
        h.u64(u64::from(registry.is_stalled(g)));
        for &(node, children) in registry.ledger().group_charges(g) {
            h.u64(node as u64);
            h.u64(u64::from(children));
        }
    }

    let adversary_events: Vec<(u64, bool, &'static str)> = host
        .tracer_mut()
        .as_recording()
        .into_iter()
        .flat_map(RecordingTracer::events)
        .filter_map(|ev| match ev.kind {
            EventKind::AdversaryAct { behavior, .. } => Some((ev.at_micros, false, behavior)),
            EventKind::AdversaryDetect { detector, .. } => Some((ev.at_micros, true, detector)),
            _ => None,
        })
        .collect();

    ChaosReport {
        host: kind,
        fingerprint: h.finish(),
        violations,
        census,
        final_payload,
        events_applied: applied,
        trace_json: host
            .tracer_mut()
            .as_recording()
            .map(RecordingTracer::chrome_trace_json),
        snapshots: snaps,
        adversary_events,
    }
}

// ------------------------------------------------------------- net host

impl<P: DhtProtocol> ChaosHost<P> for Cluster<P, InMemoryTransport> {
    fn nodes(&self) -> usize {
        self.len()
    }

    fn now_micros(&self) -> u64 {
        self.now().micros()
    }

    fn run_guarded(&mut self, span: Duration) -> bool {
        self.run_until(span, |c| {
            (0..c.len()).any(|i| suppression_broken(c.node(i).actor()))
        })
    }

    fn run_quiet(&mut self, max: Duration) {
        self.run_until(max, |c| {
            (0..c.len()).all(|i| c.node(i).unacked_frames() == 0)
        });
    }

    fn crash(&mut self, node: usize) {
        self.kill(node);
    }

    fn restart_node(&mut self, node: usize, _protocol: &P) -> bool {
        self.restart(node)
    }

    fn join_member(&mut self, member: Member, _protocol: &P) -> Option<usize> {
        self.join(member)
    }

    fn set_links_blocked(&mut self, cut: &[(u32, u32)], blocked: bool) {
        let n = self.transport().endpoints();
        for &(a, b) in cut {
            if (a as usize) < n && (b as usize) < n {
                self.transport_mut()
                    .set_link_blocked(a as usize, b as usize, blocked);
            }
        }
    }

    fn heal_partitions(&mut self) {
        self.transport_mut().clear_blocked_links();
    }

    fn set_loss_per_mille(&mut self, pm: u16) {
        self.transport_mut()
            .set_loss_probability(f64::from(pm) / 1000.0);
    }

    fn set_dup_per_mille(&mut self, pm: u16) {
        self.transport_mut()
            .set_duplicate_probability(f64::from(pm) / 1000.0);
    }

    fn multicast(&mut self, region_split: bool) -> u64 {
        self.start_multicast(0, region_split, Bytes::new())
    }

    fn retry_joins(&mut self) {
        self.retry_stalled_joins();
    }

    fn actor_mut(&mut self, node: usize) -> Option<&mut DhtActor<P>> {
        Cluster::actor_mut(self, node)
    }

    fn snapshots(&self) -> Vec<NodeSnapshot> {
        (0..self.len())
            .map(|i| {
                let nd = self.node(i);
                // A crashed node's runtime keeps its last actor state; the
                // snapshot carries it, marked dead.
                NodeSnapshot::capture(
                    i,
                    *nd.actor().member(),
                    nd.is_alive(),
                    Some(nd.actor()),
                    nd.unacked_frames(),
                    nd.armed_timers(),
                )
            })
            .collect()
    }

    fn fold_counters(&self, h: &mut Fingerprint) {
        let c = self.counters();
        h.u64(c.bytes_sent);
        h.u64(c.bytes_received);
        h.u64(c.frames_encoded);
        h.u64(c.frames_decoded);
        h.u64(c.frames_rejected);
        h.u64(c.encode_oversize);
        h.u64(c.frames_dropped);
        h.u64(c.frames_retransmitted);
    }

    fn install_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.set_tracer(tracer);
    }

    fn tracer_mut(&mut self) -> &mut dyn Tracer {
        Cluster::tracer_mut(self)
    }
}

// ------------------------------------------------------------- sim host

impl<P: DhtProtocol> ChaosHost<P> for DynamicNetwork<P> {
    fn nodes(&self) -> usize {
        self.actors().len()
    }

    fn now_micros(&self) -> u64 {
        self.sim.now().micros()
    }

    fn run_guarded(&mut self, span: Duration) -> bool {
        // The event engine has no predicate hook; step in 100 ms slices
        // so the guard still fires long before a suppression-free flood
        // can melt the run.
        let end = self.sim.now() + span;
        let mut t = self.sim.now();
        loop {
            t = (t + Duration::from_micros(100_000)).min(end);
            self.sim.run_until(t);
            let tripped = self
                .actors()
                .iter()
                .any(|(_, a)| self.sim.actor(*a).is_some_and(suppression_broken));
            if tripped {
                return true;
            }
            if t >= end {
                return false;
            }
        }
    }

    fn run_quiet(&mut self, max: Duration) {
        // No retransmit state to drain; a short settle slice keeps the
        // quiescent-point semantics aligned with the wire host.
        let span = Duration::from_micros(max.micros().min(1_000_000));
        let deadline = self.sim.now() + span;
        self.sim.run_until(deadline);
    }

    fn crash(&mut self, node: usize) {
        let (_, a) = self.actors()[node];
        DynamicNetwork::crash(self, a);
    }

    fn leave(&mut self, node: usize) {
        let (m, _) = self.actors()[node];
        self.remove_member(m.id);
    }

    fn restart_node(&mut self, node: usize, protocol: &P) -> bool {
        let (m, _) = self.actors()[node];
        self.revive(m.id, protocol.clone()).is_some()
    }

    fn join_member(&mut self, member: Member, protocol: &P) -> Option<usize> {
        self.inject_join(member, protocol.clone())
            .map(|_| self.actors().len() - 1)
    }

    fn set_links_blocked(&mut self, cut: &[(u32, u32)], blocked: bool) {
        let actors = self.actors().to_vec();
        for &(x, y) in cut {
            if (x as usize) < actors.len() && (y as usize) < actors.len() {
                let from = actors[x as usize].1;
                let to = actors[y as usize].1;
                self.sim.set_link_blocked(from, to, blocked);
            }
        }
    }

    fn heal_partitions(&mut self) {
        self.sim.clear_blocked_links();
    }

    fn set_loss_per_mille(&mut self, pm: u16) {
        self.sim.set_loss_probability(f64::from(pm) / 1000.0);
    }

    fn set_dup_per_mille(&mut self, _pm: u16) {
        // The pure sim has no frame layer; duplication is a wire-level
        // fault and a documented no-op here.
    }

    fn multicast(&mut self, region_split: bool) -> u64 {
        let source = self.actors()[0].1;
        self.start_multicast(source, region_split)
    }

    fn retry_joins(&mut self) {
        self.retry_stalled_joins();
    }

    fn actor_mut(&mut self, node: usize) -> Option<&mut DhtActor<P>> {
        let &(_, a) = self.actors().get(node)?;
        self.sim.actor_mut(a)
    }

    fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.actors()
            .iter()
            .enumerate()
            .map(|(i, &(m, a))| {
                let actor = self.sim.actor(a);
                NodeSnapshot::capture(i, m, actor.is_some(), actor, 0, 0)
            })
            .collect()
    }

    fn fold_counters(&self, h: &mut Fingerprint) {
        let s = self.sim.stats();
        h.u64(s.sent);
        h.u64(s.delivered);
        h.u64(s.dropped);
        h.u64(s.timers);
        h.u64(s.events);
        h.u64(s.bytes_sent);
    }

    fn install_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.sim.set_tracer(tracer);
    }

    fn tracer_mut(&mut self) -> &mut dyn Tracer {
        self.sim.tracer_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fingerprint::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn recording_attaches_chrome_trace() {
        let plan = FaultPlan::small(2);
        let r = run_plan(&plan, HostKind::Net, true);
        let json = r.trace_json.expect("trace recorded");
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
