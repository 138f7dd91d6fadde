//! `pubsub_mix`: subscribe, unsubscribe and publish against one
//! `GroupRegistry`.
//!
//! Writes (subscribe and unsubscribe rebuild the group's tree against the
//! residual capacities and commit or release `CapacityLedger` charges)
//! beside reads (publish walks the frozen tree) on one layer, so a gain
//! for one that costs the other shows. Under the registry only
//! cam-overlay's member set and cam-core's capped child selection run; the
//! actor, the simulator and the wire are bypassed.
//!
//! A 16,000-node universe and 256 groups. Set-up creates the groups and
//! replays 16,000 Zipf-popular subscriptions; the measured ops are the
//! churn tail of `MultiGroupScenario::subscription_churn` (50 % subscribe,
//! 30 % unsubscribe, 20 % publish, Zipf groups with exponent 0.5).
//!
//! Closed loop, one client. An op is one pub/sub call. `msgs` are member
//! deliveries by publishes (one per subscriber reached); `path_len_mean` is
//! their mean depth in the group trees.

use std::time::Instant;

use cam_overlay::{DeliverySink, MemberSet};
use cam_pubsub::GroupRegistry;
use cam_workload::{GroupOp, MultiGroupScenario, Scenario};

use crate::harness::{
    cpu_ns, Batch, Checks, Config, Outcome, Pass, RepBudget, Reps, DEFAULT_SEED,
    REFERENCE_SHARE,
};
use crate::spans::{span, Log, Name, SpanLog};

const NODES: usize = 16_000;
const GROUPS: usize = 256;
const SEED_SUBSCRIPTIONS: usize = 16_000;
/// Group popularity skew. At the generator's default of 1 a sixth of all
/// ops hit the top group, and whether admission control happened to stall
/// it moved ops/s by 10 % and deliveries per op by 26 % from seed to seed;
/// at 0.5 the top group is still 16 times as popular as the last.
const ZIPF_EXPONENT: f64 = 0.5;
/// Churn ops generated; a pass plays as many batches as fit its time box,
/// and this is several times what the reference box gets through.
const CHURN_OPS: usize = 800_000;
const OPS_PER_BATCH: usize = 2_000;
/// Ops after which `peak_rss_mb` is read (see `Pass::checkpoint_rss`).
const RSS_CHECKPOINT_OPS: u64 = 30_000;
const SETUP_REPEATS: usize = 3;

/// Subscriptions of the default seed's set-up phase that were admitted.
const PINNED_SEED_ADMITTED: usize = 15_201;

/// Sums the depth of every delivery of a publish.
#[derive(Default)]
struct HopSum {
    hops: u64,
}

impl DeliverySink for HopSum {
    fn deliver(&mut self, _parent: usize, _child: usize, hops: u32) -> bool {
        self.hops += u64::from(hops);
        true
    }
}

struct World {
    registry: GroupRegistry,
    ops: Vec<GroupOp>,
    /// Index of the first churn op; everything before it is set-up.
    churn_from: usize,
}

impl World {
    fn build(seed: u64, log: Option<&Log>, checks: &mut Checks) -> World {
        let universe: MemberSet = span(log, Name::WorkloadScenarioMembers, || {
            Scenario::paper_default(seed).with_n(NODES).members()
        });
        let ops = span(log, Name::WorkloadSubscriptionChurn, || {
            MultiGroupScenario::new(NODES, GROUPS, seed)
                .with_zipf(ZIPF_EXPONENT)
                .subscription_churn(SEED_SUBSCRIPTIONS, CHURN_OPS)
        });
        let churn_from = ops.len() - CHURN_OPS;
        let mut registry = GroupRegistry::new(universe);
        let mut admitted = 0usize;
        let mut errors = 0usize;
        for op in &ops[..churn_from] {
            let ok = match *op {
                GroupOp::Create { group } => registry.create_group(group).is_ok(),
                GroupOp::Subscribe { group, node } => registry
                    .subscribe(group, node)
                    .map(|a| admitted += usize::from(a.is_admitted()))
                    .is_ok(),
                GroupOp::Unsubscribe { group, node } => {
                    registry.unsubscribe(group, node).is_ok()
                }
                GroupOp::Publish { group } => {
                    registry.publish_into(group, &mut HopSum::default()).is_ok()
                }
            };
            errors += usize::from(!ok);
        }
        checks.require(errors == 0, || {
            format!("{errors} set-up ops were refused with an error")
        });
        if seed == DEFAULT_SEED {
            checks.require(admitted == PINNED_SEED_ADMITTED, || {
                format!(
                    "default seed admitted {admitted} set-up subscriptions, pinned {PINNED_SEED_ADMITTED}"
                )
            });
        }
        World {
            registry,
            ops,
            churn_from,
        }
    }

    fn pass(&mut self, reps: Reps, log: Option<&Log>, checks: &mut Checks) -> Pass {
        let mut pass = Pass::default();
        let mut budget = RepBudget::new(reps);
        let registry = &mut self.registry;
        let (mut subscribes, mut admitted, mut unsubscribes, mut publishes) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut subscribe_ns, mut unsubscribe_ns, mut publish_ns) = (0u64, 0u64, 0u64);
        let (mut reached_total, mut hops_total, mut receivers) = (0u64, 0u64, 0u64);
        let mut unaccounted = 0u64;
        let mut batches = self.ops[self.churn_from..].chunks_exact(OPS_PER_BATCH);
        while budget.more() {
            let Some(batch) = batches.next() else {
                break;
            };
            let (mut wall_ns, mut reached_batch) = (0u64, 0u64);
            let cpu0 = cpu_ns();
            for op in batch {
                if let Some(l) = log {
                    l.borrow_mut().set_op(pass.attempted);
                }
                let t0 = Instant::now();
                let ok = match *op {
                    GroupOp::Create { group } => registry.create_group(group).is_ok(),
                    GroupOp::Subscribe { group, node } => {
                        let r = span(log, Name::PubsubSubscribe, || {
                            registry.subscribe(group, node)
                        });
                        subscribe_ns += t0.elapsed().as_nanos() as u64;
                        subscribes += 1;
                        admitted += u64::from(r.as_ref().is_ok_and(|a| a.is_admitted()));
                        r.is_ok()
                    }
                    GroupOp::Unsubscribe { group, node } => {
                        let r = span(log, Name::PubsubUnsubscribe, || {
                            registry.unsubscribe(group, node)
                        });
                        unsubscribe_ns += t0.elapsed().as_nanos() as u64;
                        unsubscribes += 1;
                        r.is_ok()
                    }
                    GroupOp::Publish { group } => {
                        let mut sink = HopSum::default();
                        let r = span(log, Name::PubsubPublish, || {
                            registry.publish_into(group, &mut sink)
                        });
                        publish_ns += t0.elapsed().as_nanos() as u64;
                        publishes += 1;
                        if let Ok(stats) = &r {
                            reached_batch += stats.reached as u64;
                            hops_total += sink.hops;
                            receivers += stats.reached.saturating_sub(1) as u64;
                            // A publish reaches every subscriber, or nobody
                            // in a group admission control has stalled.
                            let whole = stats.reached == stats.subscribers;
                            let stalled = stats.reached == 0 && registry.is_stalled(group);
                            unaccounted += u64::from(!(whole || stalled));
                        }
                        r.is_ok()
                    }
                };
                let op_ns = t0.elapsed().as_nanos() as u64;
                wall_ns += op_ns;
                pass.op_wall_ns.push(op_ns as f64);
                pass.attempted += 1;
                pass.failed += u64::from(!ok);
            }
            pass.driver.clock_reads += 3 * OPS_PER_BATCH as u64;
            reached_total += reached_batch;
            pass.batches.push(Batch {
                ops: OPS_PER_BATCH as u64,
                msgs: reached_batch,
                wall_ns,
                cpu_ns: cpu_ns() - cpu0,
            });
            pass.checkpoint_rss(RSS_CHECKPOINT_OPS);
            budget.tick();
        }
        pass.failed += unaccounted;
        checks.require(unaccounted == 0, || {
            format!(
                "{unaccounted} publishes reached neither every subscriber nor a stalled group"
            )
        });
        let t0 = Instant::now();
        let verdict = span(log, Name::LedgerVerify, || registry.ledger().verify());
        let verify_ms = t0.elapsed().as_secs_f64() * 1e3;
        checks.require(verdict.is_ok(), || {
            format!("the capacity ledger is overcommitted: {verdict:?}")
        });

        pass.hops_sum = hops_total as f64;
        pass.hops_count = receivers as f64;
        let per_call_us = |ns: u64, calls: u64| ns as f64 / 1e3 / calls.max(1) as f64;
        let l = &mut pass.layer;
        l.insert("pubsub.subscribe_us", per_call_us(subscribe_ns, subscribes));
        l.insert(
            "pubsub.unsubscribe_us",
            per_call_us(unsubscribe_ns, unsubscribes),
        );
        l.insert("pubsub.publish_us", per_call_us(publish_ns, publishes));
        l.insert(
            "pubsub.admitted_share",
            admitted as f64 / subscribes.max(1) as f64,
        );
        l.insert(
            "pubsub.reached_per_publish",
            reached_total as f64 / publishes.max(1) as f64,
        );
        l.insert("ledger.verify_ms", verify_ms);
        pass.set_exact("counts", (subscribes, admitted, unsubscribes, publishes));
        pass.set_exact("reached", (reached_total, hops_total, receivers));
        pass
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    if cfg.trace {
        let t0 = Instant::now();
        let mut world = World::build(cfg.seed, None, &mut out.checks);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.pass = world.pass(
            Reps::For(cfg.seconds * REFERENCE_SHARE),
            None,
            &mut out.checks,
        );
        drop(world);

        let log = SpanLog::shared();
        let mut world = World::build(cfg.seed, Some(&log), &mut out.checks);
        let mut traced = world.pass(
            Reps::Exactly(out.pass.batches.len() as u64),
            Some(&log),
            &mut out.checks,
        );
        traced.layer.insert(
            "workload.scenario_members_ms",
            log.borrow()
                .aggregate(Name::WorkloadScenarioMembers)
                .mean_ns()
                / 1e6,
        );
        out.traced = Some(traced);
        out.log = Some(log);
    } else {
        let mut world = None;
        for _ in 0..SETUP_REPEATS {
            drop(world.take());
            let t0 = Instant::now();
            world = Some(World::build(cfg.seed, None, &mut out.checks));
            out.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut world = world.expect("SETUP_REPEATS > 0");
        out.pass = world.pass(Reps::For(cfg.seconds), None, &mut out.checks);
    }
    out
}
