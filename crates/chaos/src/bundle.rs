//! Replay bundles: a failing run, frozen as a self-contained artifact.
//!
//! A bundle carries the seed, the (minimized) fault plan, the host it ran
//! on, and optionally the cam-trace Chrome JSON of the failing run —
//! everything needed to reproduce the violation on another machine with
//! `cam-chaos --replay <file>`.
//!
//! The format is a deliberately boring line-oriented text file (the
//! workspace has no JSON parser dependency, and a replay artifact must
//! round-trip *exactly*): a magic line, `key=value` headers, one `e ...`
//! line per fault event, then an optional `trace <byte-len>` section whose
//! payload is the Chrome JSON verbatim. Floats (member upload bandwidth)
//! are serialized as IEEE-754 bit patterns in hex so parsing reproduces
//! them bit-for-bit.

use std::fmt::Write as _;

use cam_overlay::Member;
use cam_ring::Id;

use cam_overlay::ByzantineBehavior;

use crate::harness::HostKind;
use crate::plan::{AdversarySpec, FaultEvent, FaultKind, FaultPlan, ProtocolChoice};

/// Magic first line; bump the version when the format changes.
const MAGIC: &str = "camchaos-bundle v1";

/// A frozen failing run: plan + host + optional trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBundle {
    /// The (usually minimized) failing plan.
    pub plan: FaultPlan,
    /// Host the violation was observed on.
    pub host: HostKind,
    /// Chrome-trace JSON of the failing run, if recorded.
    pub trace_json: Option<String>,
}

impl ReplayBundle {
    /// Serializes the bundle to its canonical text form.
    pub fn to_text(&self) -> String {
        let p = &self.plan;
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "host={}", self.host.name());
        let _ = writeln!(out, "seed={}", p.seed);
        let _ = writeln!(out, "preset={}", p.preset);
        let _ = writeln!(out, "nodes={}", p.nodes);
        let _ = writeln!(
            out,
            "protocol={}",
            match p.protocol {
                ProtocolChoice::Chord => "chord",
                ProtocolChoice::Koorde => "koorde",
            }
        );
        let _ = writeln!(out, "region_split={}", u8::from(p.region_split));
        let _ = writeln!(out, "anti_entropy={}", u8::from(p.anti_entropy));
        let _ = writeln!(out, "loss_base_per_mille={}", p.loss_base_per_mille);
        let _ = writeln!(out, "settle_secs={}", p.settle_secs);
        let _ = writeln!(out, "final_wait_secs={}", p.final_wait_secs);
        // Optional header: only adversary plans carry it, so crash-only
        // bundles stay byte-identical to the pre-adversary format.
        if let Some(adv) = &p.adversary {
            let _ = writeln!(
                out,
                "adversary={} {} {}",
                adv.node,
                adv.behavior.name(),
                adv.seed
            );
        }
        let _ = writeln!(out, "events={}", p.events.len());
        for e in &p.events {
            let _ = write!(out, "e {} ", e.at_micros);
            match &e.kind {
                FaultKind::Crash { node } => {
                    let _ = writeln!(out, "crash {node}");
                }
                FaultKind::Restart { node } => {
                    let _ = writeln!(out, "restart {node}");
                }
                FaultKind::Leave { node } => {
                    let _ = writeln!(out, "leave {node}");
                }
                FaultKind::Join { member } => {
                    let _ = writeln!(
                        out,
                        "join {} {} {:016x}",
                        member.id.value(),
                        member.capacity,
                        member.upload_kbps.to_bits()
                    );
                }
                FaultKind::PartitionStart { cut } => {
                    let pairs: Vec<String> =
                        cut.iter().map(|(a, b)| format!("{a}:{b}")).collect();
                    let _ = writeln!(out, "partition {}", pairs.join(","));
                }
                FaultKind::PartitionHeal => {
                    let _ = writeln!(out, "heal");
                }
                FaultKind::LossBurst { per_mille } => {
                    let _ = writeln!(out, "loss {per_mille}");
                }
                FaultKind::LossRestore => {
                    let _ = writeln!(out, "loss_restore");
                }
                FaultKind::Duplicate { per_mille } => {
                    let _ = writeln!(out, "dup {per_mille}");
                }
                FaultKind::Multicast => {
                    let _ = writeln!(out, "multicast");
                }
                FaultKind::Quiesce => {
                    let _ = writeln!(out, "quiesce");
                }
                FaultKind::GroupCreate { group } => {
                    let _ = writeln!(out, "gcreate {group}");
                }
                FaultKind::GroupSubscribe { group, node } => {
                    let _ = writeln!(out, "gsub {group} {node}");
                }
                FaultKind::GroupUnsubscribe { group, node } => {
                    let _ = writeln!(out, "gunsub {group} {node}");
                }
                FaultKind::GroupDestroy { group } => {
                    let _ = writeln!(out, "gdestroy {group}");
                }
            }
        }
        if let Some(json) = &self.trace_json {
            let _ = writeln!(out, "trace {}", json.len());
            out.push_str(json);
        }
        out
    }

    /// Parses the canonical text form back into a bundle.
    pub fn from_text(text: &str) -> Result<ReplayBundle, String> {
        let mut rest = text;
        let next_line = |rest: &mut &str| -> Option<String> {
            if rest.is_empty() {
                return None;
            }
            match rest.find('\n') {
                Some(i) => {
                    let line = rest[..i].to_string();
                    *rest = &rest[i + 1..];
                    Some(line)
                }
                None => {
                    let line = rest.to_string();
                    *rest = "";
                    Some(line)
                }
            }
        };

        if next_line(&mut rest).as_deref() != Some(MAGIC) {
            return Err("not a camchaos-bundle v1 file".into());
        }
        let header = |rest: &mut &str, key: &str| -> Result<String, String> {
            let line = next_line(rest).ok_or_else(|| format!("missing header `{key}`"))?;
            line.strip_prefix(&format!("{key}="))
                .map(str::to_string)
                .ok_or_else(|| format!("expected `{key}=...`, got `{line}`"))
        };
        let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
            s.parse::<u64>().map_err(|_| format!("bad {what}: `{s}`"))
        };

        let host = match header(&mut rest, "host")?.as_str() {
            "net" => HostKind::Net,
            "sim" => HostKind::Sim,
            other => return Err(format!("unknown host `{other}`")),
        };
        let seed = parse_u64(&header(&mut rest, "seed")?, "seed")?;
        let preset = header(&mut rest, "preset")?;
        let nodes = parse_u64(&header(&mut rest, "nodes")?, "nodes")? as usize;
        let protocol = match header(&mut rest, "protocol")?.as_str() {
            "chord" => ProtocolChoice::Chord,
            "koorde" => ProtocolChoice::Koorde,
            other => return Err(format!("unknown protocol `{other}`")),
        };
        let region_split = header(&mut rest, "region_split")? == "1";
        let anti_entropy = header(&mut rest, "anti_entropy")? == "1";
        let loss_base_per_mille =
            parse_u64(&header(&mut rest, "loss_base_per_mille")?, "loss")? as u16;
        let settle_secs = parse_u64(&header(&mut rest, "settle_secs")?, "settle")?;
        let final_wait_secs = parse_u64(&header(&mut rest, "final_wait_secs")?, "final wait")?;
        // `adversary=` is optional: peek the next line and fall through to
        // the mandatory `events=` header when absent.
        let mut adversary = None;
        let events_line = {
            let line = next_line(&mut rest).ok_or("missing header `events`")?;
            if let Some(spec) = line.strip_prefix("adversary=") {
                let mut parts = spec.split(' ');
                let node =
                    parse_u64(parts.next().ok_or("adversary: missing node")?, "node")? as u32;
                let name = parts.next().ok_or("adversary: missing behavior")?;
                let behavior = ByzantineBehavior::from_name(name)
                    .ok_or_else(|| format!("unknown behavior `{name}`"))?;
                let seed = parse_u64(parts.next().ok_or("adversary: missing seed")?, "seed")?;
                adversary = Some(AdversarySpec {
                    node,
                    behavior,
                    seed,
                });
                next_line(&mut rest).ok_or("missing header `events`")?
            } else {
                line
            }
        };
        let n_events = parse_u64(
            events_line
                .strip_prefix("events=")
                .ok_or_else(|| format!("expected `events=...`, got `{events_line}`"))?,
            "event count",
        )? as usize;

        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let line = next_line(&mut rest).ok_or("truncated event list")?;
            let mut parts = line.split(' ');
            if parts.next() != Some("e") {
                return Err(format!("expected event line, got `{line}`"));
            }
            let at_micros = parse_u64(parts.next().ok_or("missing timestamp")?, "timestamp")?;
            let kind = match parts.next().ok_or("missing event kind")? {
                "crash" => FaultKind::Crash {
                    node: parse_u64(parts.next().ok_or("crash: missing node")?, "node")? as u32,
                },
                "restart" => FaultKind::Restart {
                    node: parse_u64(parts.next().ok_or("restart: missing node")?, "node")?
                        as u32,
                },
                "leave" => FaultKind::Leave {
                    node: parse_u64(parts.next().ok_or("leave: missing node")?, "node")? as u32,
                },
                "join" => {
                    let id = parse_u64(parts.next().ok_or("join: missing id")?, "id")?;
                    let capacity =
                        parse_u64(parts.next().ok_or("join: missing capacity")?, "capacity")?
                            as u32;
                    let bits_hex = parts.next().ok_or("join: missing bandwidth")?;
                    let bits = u64::from_str_radix(bits_hex, 16)
                        .map_err(|_| format!("bad bandwidth bits `{bits_hex}`"))?;
                    FaultKind::Join {
                        member: Member {
                            id: Id(id),
                            capacity,
                            upload_kbps: f64::from_bits(bits),
                        },
                    }
                }
                "partition" => {
                    let spec = parts.next().ok_or("partition: missing cut")?;
                    let mut cut = Vec::new();
                    for pair in spec.split(',') {
                        let (a, b) = pair
                            .split_once(':')
                            .ok_or_else(|| format!("bad cut pair `{pair}`"))?;
                        cut.push((
                            parse_u64(a, "cut endpoint")? as u32,
                            parse_u64(b, "cut endpoint")? as u32,
                        ));
                    }
                    FaultKind::PartitionStart { cut }
                }
                "heal" => FaultKind::PartitionHeal,
                "loss" => FaultKind::LossBurst {
                    per_mille: parse_u64(parts.next().ok_or("loss: missing rate")?, "rate")?
                        as u16,
                },
                "loss_restore" => FaultKind::LossRestore,
                "dup" => FaultKind::Duplicate {
                    per_mille: parse_u64(parts.next().ok_or("dup: missing rate")?, "rate")?
                        as u16,
                },
                "multicast" => FaultKind::Multicast,
                "quiesce" => FaultKind::Quiesce,
                "gcreate" => FaultKind::GroupCreate {
                    group: parse_u64(parts.next().ok_or("gcreate: missing group")?, "group")?,
                },
                "gsub" => FaultKind::GroupSubscribe {
                    group: parse_u64(parts.next().ok_or("gsub: missing group")?, "group")?,
                    node: parse_u64(parts.next().ok_or("gsub: missing node")?, "node")? as u32,
                },
                "gunsub" => FaultKind::GroupUnsubscribe {
                    group: parse_u64(parts.next().ok_or("gunsub: missing group")?, "group")?,
                    node: parse_u64(parts.next().ok_or("gunsub: missing node")?, "node")?
                        as u32,
                },
                "gdestroy" => FaultKind::GroupDestroy {
                    group: parse_u64(parts.next().ok_or("gdestroy: missing group")?, "group")?,
                },
                other => return Err(format!("unknown event kind `{other}`")),
            };
            events.push(FaultEvent { at_micros, kind });
        }

        let trace_json = match next_line(&mut rest) {
            None => None,
            Some(line) => {
                let len_str = line
                    .strip_prefix("trace ")
                    .ok_or_else(|| format!("expected trace section, got `{line}`"))?;
                let len = parse_u64(len_str, "trace length")? as usize;
                if rest.len() < len {
                    return Err(format!(
                        "trace section truncated: want {len} bytes, have {}",
                        rest.len()
                    ));
                }
                Some(rest[..len].to_string())
            }
        };

        Ok(ReplayBundle {
            plan: FaultPlan {
                seed,
                preset,
                nodes,
                protocol,
                region_split,
                anti_entropy,
                loss_base_per_mille,
                settle_secs,
                final_wait_secs,
                adversary,
                events,
            },
            host,
            trace_json,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_event_kind() {
        let mut plan = FaultPlan::default_plan(9);
        plan.events = vec![
            FaultEvent {
                at_micros: 10,
                kind: FaultKind::Crash { node: 3 },
            },
            FaultEvent {
                at_micros: 20,
                kind: FaultKind::Restart { node: 3 },
            },
            FaultEvent {
                at_micros: 30,
                kind: FaultKind::Leave { node: 5 },
            },
            FaultEvent {
                at_micros: 40,
                kind: FaultKind::Join {
                    member: Member {
                        id: Id(12345),
                        capacity: 7,
                        upload_kbps: 123.456,
                    },
                },
            },
            FaultEvent {
                at_micros: 50,
                kind: FaultKind::PartitionStart {
                    cut: vec![(1, 2), (2, 1), (4, 9)],
                },
            },
            FaultEvent {
                at_micros: 60,
                kind: FaultKind::PartitionHeal,
            },
            FaultEvent {
                at_micros: 70,
                kind: FaultKind::LossBurst { per_mille: 250 },
            },
            FaultEvent {
                at_micros: 80,
                kind: FaultKind::LossRestore,
            },
            FaultEvent {
                at_micros: 90,
                kind: FaultKind::Duplicate { per_mille: 120 },
            },
            FaultEvent {
                at_micros: 100,
                kind: FaultKind::Multicast,
            },
            FaultEvent {
                at_micros: 110,
                kind: FaultKind::Quiesce,
            },
            FaultEvent {
                at_micros: 120,
                kind: FaultKind::GroupCreate { group: 6 },
            },
            FaultEvent {
                at_micros: 130,
                kind: FaultKind::GroupSubscribe { group: 6, node: 4 },
            },
            FaultEvent {
                at_micros: 140,
                kind: FaultKind::GroupUnsubscribe { group: 6, node: 4 },
            },
            FaultEvent {
                at_micros: 150,
                kind: FaultKind::GroupDestroy { group: 6 },
            },
        ];
        let bundle = ReplayBundle {
            plan,
            host: HostKind::Net,
            trace_json: Some("{\"traceEvents\":[]}".to_string()),
        };
        let parsed = ReplayBundle::from_text(&bundle.to_text()).expect("parses");
        assert_eq!(parsed, bundle);
        // Bandwidth survives bit-for-bit.
        let FaultKind::Join { member } = &parsed.plan.events[3].kind else {
            panic!("join preserved");
        };
        assert_eq!(member.upload_kbps.to_bits(), 123.456f64.to_bits());
    }

    #[test]
    fn generated_plan_round_trips_unchanged() {
        for seed in [1, 2, 3, 4, 5] {
            let plan = FaultPlan::default_plan(seed);
            let bundle = ReplayBundle {
                plan: plan.clone(),
                host: HostKind::Sim,
                trace_json: None,
            };
            let parsed = ReplayBundle::from_text(&bundle.to_text()).expect("parses");
            assert_eq!(parsed.plan, plan);
        }
    }

    #[test]
    fn adversary_plans_round_trip_for_every_behavior() {
        for (i, behavior) in ByzantineBehavior::ALL.into_iter().enumerate() {
            let plan = FaultPlan::adversary_plan(40 + i as u64, behavior);
            assert!(plan.adversary.is_some());
            let bundle = ReplayBundle {
                plan: plan.clone(),
                host: HostKind::Sim,
                trace_json: None,
            };
            let text = bundle.to_text();
            assert!(text.contains("adversary="), "header emitted");
            assert!(text.contains(behavior.name()), "behavior name serialized");
            let parsed = ReplayBundle::from_text(&text).expect("parses");
            assert_eq!(parsed.plan, plan);
        }
    }

    #[test]
    fn adversary_free_bundles_omit_the_header() {
        let bundle = ReplayBundle {
            plan: FaultPlan::small(3),
            host: HostKind::Net,
            trace_json: None,
        };
        assert!(!bundle.to_text().contains("adversary="));
    }

    #[test]
    fn rejects_garbage() {
        assert!(ReplayBundle::from_text("not a bundle").is_err());
        assert!(ReplayBundle::from_text("camchaos-bundle v1\nhost=moon\n").is_err());
    }
}
